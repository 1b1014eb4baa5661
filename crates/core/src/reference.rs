//! The retained naive worklist engine — differential-test oracle.
//!
//! This is the pre-refactor expansion loop, transcribed verbatim from
//! the engine as it stood before the interned-arena/containment-index
//! rearchitecture: successors are generated through the allocating
//! [`successors`] wrapper, every containment question is answered by a
//! linear scan over all nodes with the full Definition-9 check, and
//! states are stored as owned [`Composite`] clones until the very end,
//! when the result is repackaged into an [`Expansion`] by interning
//! each node's state in node order.
//!
//! It exists for two reasons:
//!
//! * the differential property tests (`tests/engine_properties.rs`)
//!   run it against the indexed engine on every protocol and pruning
//!   mode and require identical essential-state sets, verdicts and
//!   counterexample reachability;
//! * the benchmark suite uses it as the in-snapshot pre-refactor
//!   baseline that the indexed engine's speedup is measured against.
//!
//! Keep this module boring. Do not "fix" or optimise it alongside the
//! main engine — its value is that it stays the naive algorithm.

use crate::check::check;
use crate::composite::Composite;
use crate::engine::{
    Disposition, ErrorFinding, Expansion, Node, NodeId, Options, Pruning, VisitRecord,
};
use crate::expand::successors;
use crate::intern::CompositeArena;
use ccv_observe::{StopCause, StopInfo};
use std::collections::VecDeque;

/// Naive-engine node: the owned-composite representation the engine
/// used before states moved into the arena.
struct RefNode {
    state: Composite,
    parent: Option<(NodeId, crate::expand::Label)>,
    pruned: bool,
}

/// Runs the naive worklist on `spec` from the paper's initial state.
pub fn reference_expand(spec: &ccv_model::ProtocolSpec, opts: &Options) -> Expansion {
    reference_expand_from(spec, Composite::initial(spec), opts)
}

/// Runs the naive worklist from an explicit initial composite state.
///
/// Results (essential states, visit counts, error findings, trace) are
/// bit-identical to what the pre-refactor engine produced; only the
/// final packaging interns states so the return type matches today's
/// [`Expansion`]. No observability events are emitted — the oracle is
/// deliberately silent so sinks attached to `opts` see only the real
/// engine.
pub fn reference_expand_from(
    spec: &ccv_model::ProtocolSpec,
    initial: Composite,
    opts: &Options,
) -> Expansion {
    let mut nodes: Vec<RefNode> = Vec::new();
    let mut work: VecDeque<NodeId> = VecDeque::new();
    let mut history: Vec<NodeId> = Vec::new();
    let mut errors: Vec<ErrorFinding> = Vec::new();
    let mut trace: Vec<VisitRecord> = Vec::new();
    let mut visits = 0usize;
    let mut successors_generated = 0usize;
    let mut expanded = 0usize;
    let mut truncated = false;

    let init_violations = check(spec, &initial);
    nodes.push(RefNode {
        state: initial,
        parent: None,
        pruned: false,
    });
    if !init_violations.is_empty() {
        errors.push(ErrorFinding {
            node: NodeId(0),
            violations: init_violations,
            step_errors: crate::expand::StepErrors::EMPTY,
        });
    }
    work.push_back(NodeId(0));

    let contained = |a: &Composite, b: &Composite, pruning: Pruning| match pruning {
        Pruning::Containment => a.contained_in(b),
        Pruning::Equality => a == b,
    };

    'outer: while let Some(current) = work.pop_front() {
        if nodes[current.0].pruned {
            continue;
        }
        expanded += 1;
        let current_state = nodes[current.0].state.clone();
        let succs = successors(spec, &current_state);
        let mut fired: Vec<crate::expand::Label> = Vec::new();
        for t in succs {
            successors_generated += 1;
            if !fired.contains(&t.label) {
                fired.push(t.label);
                visits += 1;
            }
            if visits >= opts.common.budget {
                truncated = true;
                break 'outer;
            }

            let container_exists = nodes
                .iter()
                .any(|n| !n.pruned && contained(&t.to, &n.state, opts.pruning));

            if opts.record_trace {
                trace.push(VisitRecord {
                    from: current_state.clone(),
                    label: t.label,
                    to: t.to.clone(),
                    disposition: if container_exists {
                        Disposition::Contained
                    } else {
                        Disposition::New
                    },
                });
            }

            if container_exists {
                if !t.errors.is_empty() {
                    let id = NodeId(nodes.len());
                    let violations = check(spec, &t.to);
                    nodes.push(RefNode {
                        state: t.to,
                        parent: Some((current, t.label)),
                        pruned: true,
                    });
                    errors.push(ErrorFinding {
                        node: id,
                        violations,
                        step_errors: t.errors,
                    });
                    if opts.common.stop_at_first_error {
                        break 'outer;
                    }
                }
                continue;
            }

            let id = NodeId(nodes.len());
            let violations = check(spec, &t.to);
            for n in nodes.iter_mut() {
                if !n.pruned && contained(&n.state, &t.to, opts.pruning) {
                    n.pruned = true;
                }
            }
            nodes.push(RefNode {
                state: t.to,
                parent: Some((current, t.label)),
                pruned: false,
            });
            if !violations.is_empty() || !t.errors.is_empty() {
                errors.push(ErrorFinding {
                    node: id,
                    violations,
                    step_errors: t.errors,
                });
                if opts.common.stop_at_first_error {
                    break 'outer;
                }
            }
            work.push_back(id);
        }
        if !nodes[current.0].pruned {
            history.push(current);
        }
    }

    let essential: Vec<NodeId> = history
        .into_iter()
        .filter(|id| !nodes[id.0].pruned)
        .collect();

    // Repackage into today's arena-backed Expansion: intern each
    // node's state in node order. Duplicate composites collapse to one
    // arena entry, which is exactly what `Expansion::composite` needs.
    let mut arena = CompositeArena::new();
    let nodes: Vec<Node> = nodes
        .into_iter()
        .map(|n| Node {
            state: arena.intern(&n.state),
            parent: n.parent,
            pruned: n.pruned,
        })
        .collect();

    let stopped = truncated.then(|| {
        StopInfo::new(
            StopCause::BudgetExhausted,
            work.len(),
            std::time::Duration::ZERO,
        )
    });
    Expansion {
        arena,
        nodes,
        essential,
        visits,
        successors: successors_generated,
        expanded,
        errors,
        trace,
        truncated,
        stopped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::expand;
    use ccv_model::protocols::{illinois, illinois_missing_invalidation};

    #[test]
    fn reference_reproduces_the_paper_numbers() {
        let spec = illinois();
        let exp = reference_expand(&spec, &Options::default());
        assert!(exp.is_clean());
        assert_eq!(exp.visits, 22);
        assert_eq!(exp.essential.len(), 5);
    }

    #[test]
    fn reference_agrees_with_the_indexed_engine_on_illinois() {
        let spec = illinois();
        let opts = Options::default();
        let naive = reference_expand(&spec, &opts);
        let fast = expand(&spec, &opts);
        assert_eq!(naive.visits, fast.visits);
        assert_eq!(naive.successors, fast.successors);
        let render = |e: &Expansion| {
            let mut v: Vec<String> = e
                .essential_states()
                .iter()
                .map(|c| c.render(&spec))
                .collect();
            v.sort();
            v
        };
        assert_eq!(render(&naive), render(&fast));
    }

    #[test]
    fn reference_finds_the_seeded_bug() {
        let spec = illinois_missing_invalidation();
        let exp = reference_expand(&spec, &Options::default());
        assert!(!exp.errors.is_empty());
        let path = exp.render_path(&spec, exp.errors[0].node);
        assert!(path.contains("-->"));
    }
}
