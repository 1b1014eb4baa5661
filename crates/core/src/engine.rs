//! The essential-states worklist engine (Figure 3 of the paper).
//!
//! Maintains a working list `W` of unexpanded composite states and a
//! history `H` of expanded ones. Each popped state is expanded through
//! [`crate::expand::successors_into`]; a successor contained in a
//! surviving state (Definition 9) is discarded, and surviving states
//! contained in a new successor are pruned — justified by the
//! monotonicity of the expansion operator (Lemmas 1–2, Corollaries
//! 1–2). At fixpoint the surviving states are the **essential states**
//! (Definition 10), which symbolically characterise the entire
//! reachable state space (Theorem 1).
//!
//! Differences from the paper's pseudo-code, none affecting the result:
//!
//! * the current state `A` keeps expanding even if a successor turns
//!   out to contain it (the paper restarts; by monotonicity the extra
//!   successors are redundant but harmless, and the bookkeeping is
//!   simpler);
//! * every discovered state lives in an append-only arena with parent
//!   links, so that error reports carry a concrete counterexample path
//!   even when intermediate states were later pruned.
//!
//! Composite states are hash-consed in a [`CompositeArena`]; nodes,
//! trace entries and the containment machinery move copyable
//! [`CompositeId`]s. Both containment directions go through the
//! [`ContainmentIndex`], which buckets live nodes by `(FVal, MData)`
//! and prefilters by a four-mask class signature — bit-identical to the
//! former linear scans (see `index.rs` for the argument) but probing
//! only structurally comparable candidates. Scratch buffers
//! ([`EngineScratch`]) persist across runs, so batch workloads expand
//! without steady-state allocation.
//!
//! The engine also supports **equality pruning** (discard only exact
//! duplicates) as an ablation mode: it corresponds to running the
//! symbolic representation with the counting equivalence of
//! Definition 5 alone, and demonstrates what containment pruning buys.
//! Under interning, equality pruning is an id lookup in the intern
//! table.

use crate::check::{check, Violation};
use crate::composite::Composite;
use crate::expand::{successors_into, ExpandScratch, Label, StepErrors, Transition};
use crate::index::ContainmentIndex;
use crate::intern::{CompositeArena, CompositeId};
use ccv_model::ProtocolSpec;
use ccv_observe::json::escape_unquoted_into;
use ccv_observe::{
    CommonOptions, Counter, Gauge, Phase, RuleStat, SpanKind, StopCause, StopInfo, Track,
};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::time::Instant;

/// Pruning discipline for the worklist.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Pruning {
    /// Containment pruning (Definition 9 / Figure 3) — the paper's
    /// method.
    #[default]
    Containment,
    /// Exact-duplicate pruning only — the ablation baseline.
    Equality,
}

/// Engine options.
///
/// `#[non_exhaustive]`: construct with [`Options::default`] and refine
/// with the builder methods. Settings shared with the other engines
/// (work budget, stop-at-first-error, observability sink) live in the
/// embedded [`CommonOptions`]; for the symbolic engine the budget caps
/// generated successors ("visits") as a divergence backstop.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct Options {
    /// Settings shared by every engine (budget = max visits here).
    pub common: CommonOptions,
    /// Pruning discipline.
    pub pruning: Pruning,
    /// Record a [`VisitRecord`] for every generated successor
    /// (Appendix A.2 reproduction).
    pub record_trace: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            common: CommonOptions::default().budget(1_000_000),
            pruning: Pruning::Containment,
            record_trace: false,
        }
    }
}

impl Options {
    /// Sets the pruning discipline.
    pub fn pruning(mut self, pruning: Pruning) -> Options {
        self.pruning = pruning;
        self
    }

    /// Caps the number of generated successors.
    pub fn max_visits(mut self, max_visits: usize) -> Options {
        self.common.budget = max_visits;
        self
    }

    /// Stops as soon as the first erroneous state is found.
    pub fn stop_at_first_error(mut self, stop: bool) -> Options {
        self.common.stop_at_first_error = stop;
        self
    }

    /// Records a [`VisitRecord`] per generated successor.
    pub fn record_trace(mut self, record: bool) -> Options {
        self.record_trace = record;
        self
    }

    /// Ignored: the engine is sequential. Kept for `perfbench/src/serve.rs`.
    #[doc(hidden)]
    #[deprecated(note = "the symbolic engine is sequential; this setting is ignored")]
    pub fn threads(self, _threads: usize) -> Options {
        self
    }

    /// Attaches an observability sink.
    pub fn sink(mut self, sink: impl Into<ccv_observe::SinkHandle>) -> Options {
        self.common.sink = sink.into();
        self
    }

    /// Attributes firings, produced states and scan time to protocol
    /// rules (ignored while no sink is attached).
    pub fn rule_stats(mut self, on: bool) -> Options {
        self.common.rule_stats = on;
        self
    }

    /// Replaces the embedded common settings wholesale.
    pub fn common(mut self, common: CommonOptions) -> Options {
        self.common = common;
        self
    }
}

/// Index of a discovered state in the expansion arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// A discovered composite state with provenance.
#[derive(Clone, Debug)]
pub struct Node {
    /// The canonical state, interned in the expansion's
    /// [`CompositeArena`] (resolve with [`Expansion::composite`]).
    pub state: CompositeId,
    /// How the state was first reached (`None` for the initial state).
    pub parent: Option<(NodeId, Label)>,
    /// Whether containment pruning later displaced this state.
    pub pruned: bool,
}

/// How a generated successor was treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// A new state, added to the working list.
    New,
    /// Contained in (or equal to) an already-known surviving state.
    Contained,
}

/// One entry of the expansion trace (Appendix A.2 reproduction).
#[derive(Clone, Debug)]
pub struct VisitRecord {
    /// Source state.
    pub from: Composite,
    /// Transition taken.
    pub label: Label,
    /// Generated successor (canonical).
    pub to: Composite,
    /// Whether the successor was new or discarded.
    pub disposition: Disposition,
}

/// An erroneous state or transition discovered during expansion.
#[derive(Clone, Debug)]
pub struct ErrorFinding {
    /// Arena node of the erroneous state.
    pub node: NodeId,
    /// State-level violations of the node.
    pub violations: Vec<Violation>,
    /// Transition-level stale accesses observed on the step *into* the
    /// node.
    pub step_errors: StepErrors,
}

impl ErrorFinding {
    /// What went wrong, one line per violation and stale access.
    pub fn descriptions(&self, spec: &ProtocolSpec) -> Vec<String> {
        let mut lines: Vec<String> = self.violations.iter().map(|v| v.describe(spec)).collect();
        lines.extend(self.step_errors.iter().map(|e| e.to_string()));
        lines
    }
}

/// The result of a symbolic expansion run.
#[derive(Clone, Debug)]
pub struct Expansion {
    /// Append-only arena of every state ever admitted.
    pub nodes: Vec<Node>,
    /// Hash-consed storage behind the nodes' [`CompositeId`]s.
    pub arena: CompositeArena,
    /// The essential states (surviving history) at fixpoint.
    pub essential: Vec<NodeId>,
    /// Number of rule firings — one per (source state, transition
    /// label) pair ("state visits" in the §3.1 sense; 22 for Illinois,
    /// matching Appendix A.2). A firing whose interval arithmetic
    /// splits into several successor categories still counts once,
    /// like the paper's N-step rules.
    pub visits: usize,
    /// Raw generated successor states — `visits` plus the extra
    /// category-split successors; equals `trace.len()` when tracing.
    pub successors: usize,
    /// Number of states popped and expanded.
    pub expanded: usize,
    /// Erroneous findings, in discovery order.
    pub errors: Vec<ErrorFinding>,
    /// Trace of every visit (empty unless requested).
    pub trace: Vec<VisitRecord>,
    /// True if the run stopped early (budget, deadline, memory cap or
    /// cancellation) instead of reaching the fixpoint.
    pub truncated: bool,
    /// Why and in what state the run stopped early (`None` for runs
    /// that reached the fixpoint). Always `Some` when `truncated`.
    pub stopped: Option<StopInfo>,
}

impl Expansion {
    /// True iff no erroneous state or transition was found (and the
    /// run completed).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && !self.truncated
    }

    /// The composite state of arena node `id`.
    pub fn composite(&self, id: NodeId) -> &Composite {
        self.arena.get(self.nodes[id.0].state)
    }

    /// The essential composite states, in discovery order.
    pub fn essential_states(&self) -> Vec<&Composite> {
        self.essential
            .iter()
            .map(|&id| self.composite(id))
            .collect()
    }

    /// The path of transitions from the initial state to `id`
    /// (inclusive): `[(None, root), (Some(label), next), …]`.
    pub fn path_to(&self, id: NodeId) -> Vec<(Option<Label>, NodeId)> {
        let mut rev = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let parent = self.nodes[c.0].parent;
            rev.push((parent.map(|(_, l)| l), c));
            cur = parent.map(|(p, _)| p);
        }
        rev.reverse();
        rev
    }

    /// Renders a counterexample path with protocol state names.
    pub fn render_path(&self, spec: &ProtocolSpec, id: NodeId) -> String {
        let mut s = String::new();
        for (label, node) in self.path_to(id) {
            if let Some(l) = label {
                s.push_str(&format!(" --{}--> ", l.render(spec)));
            }
            s.push_str(&self.composite(node).render_full(spec));
        }
        s
    }
}

/// Writes counterexample paths straight into a caller's buffer, each
/// byte-identical to [`Expansion::render_path`] of its node, or to its
/// JSON-escaped form (without quotes) for [`PathWriter::json`].
///
/// Error paths share long prefixes, so each node's segment — the
/// ` --label--> ` arrow plus the full composite, or the bare composite
/// at the root — is rendered once, on first use, and kept with the
/// length of the path it ends: `len(parent) + len(segment)`.
#[derive(Debug)]
pub struct PathWriter<'a> {
    expansion: &'a Expansion,
    spec: &'a ProtocolSpec,
    json: bool,
    /// The rendered segments, back to back.
    text: String,
    /// Per rendered node: its segment in `text` and its path's length.
    segments: HashMap<NodeId, (Range<usize>, usize)>,
    chain: Vec<NodeId>,
}

impl<'a> PathWriter<'a> {
    /// A writer of raw paths.
    pub fn new(expansion: &'a Expansion, spec: &'a ProtocolSpec) -> PathWriter<'a> {
        let (text, segments, chain) = Default::default();
        PathWriter {
            expansion,
            spec,
            json: false,
            text,
            segments,
            chain,
        }
    }

    /// A writer of JSON-escaped paths.
    pub fn json(expansion: &'a Expansion, spec: &'a ProtocolSpec) -> PathWriter<'a> {
        PathWriter {
            json: true,
            ..PathWriter::new(expansion, spec)
        }
    }

    /// The length in bytes of the path to `id`.
    pub fn len(&mut self, id: NodeId) -> usize {
        // Walk to the root, then render the segments not yet rendered
        // on the way back down; the path stays in `chain`, root last.
        self.chain.clear();
        let mut cur = Some(id);
        while let Some(c) = cur {
            self.chain.push(c);
            cur = self.expansion.nodes[c.0].parent.map(|(p, _)| p);
        }
        let mut len = 0;
        for &node in self.chain.iter().rev() {
            if let Some(&(_, path_len)) = self.segments.get(&node) {
                len = path_len;
                continue;
            }
            let mut segment = match self.expansion.nodes[node.0].parent {
                Some((_, l)) => format!(" --{}--> ", l.render(self.spec)),
                None => String::new(),
            };
            segment.push_str(&self.expansion.composite(node).render_full(self.spec));
            let start = self.text.len();
            if self.json {
                escape_unquoted_into(&mut self.text, &segment);
            } else {
                self.text.push_str(&segment);
            }
            len += self.text.len() - start;
            self.segments.insert(node, (start..self.text.len(), len));
        }
        len
    }

    /// Appends the path to `id` to `out`.
    pub fn write(&mut self, id: NodeId, out: &mut String) {
        out.reserve(self.len(id));
        for node in self.chain.iter().rev() {
            out.push_str(&self.text[self.segments[node].0.clone()]);
        }
    }
}

/// Reusable engine state: successor scratch, the containment index, and
/// a recycled arena. One scratch serves any number of sequential runs
/// (the batch layer threads it through [`expand_with`]), and after the
/// first run the engine's steady state allocates nothing per step.
#[derive(Debug, Default)]
pub struct EngineScratch {
    expand: ExpandScratch,
    succ: Vec<Transition>,
    fired: Vec<Label>,
    index: ContainmentIndex,
    arena_pool: Option<CompositeArena>,
}

impl EngineScratch {
    /// Fresh (empty) engine scratch.
    pub fn new() -> EngineScratch {
        EngineScratch::default()
    }

    /// Returns a finished expansion's arena storage to the pool, so the
    /// next run through this scratch interns without reallocating. Use
    /// when the expansion's states are no longer needed (summary-only
    /// batch runs).
    pub fn recycle(&mut self, expansion: Expansion) {
        let mut arena = expansion.arena;
        arena.clear();
        self.arena_pool = Some(arena);
    }
}

/// A stage stopwatch that reads the clock once per boundary, so
/// back-to-back stages share a reading. Off, it never reads the clock
/// and every split is 0.
struct Lap(Option<Instant>);

impl Lap {
    #[inline]
    fn start(on: bool) -> Lap {
        Lap(on.then(Instant::now))
    }

    /// Nanoseconds since the last boundary, which moves to now.
    #[inline]
    fn split(&mut self) -> u64 {
        self.0.as_mut().map_or(0, |last| {
            let now = Instant::now();
            let ns = now.duration_since(*last).as_nanos() as u64;
            *last = now;
            ns
        })
    }
}

/// Runs the essential-states generation algorithm of Figure 3 on
/// `spec`, starting (per §4.0) from `(Invalid⁺)` with fresh memory.
pub fn expand(spec: &ProtocolSpec, opts: &Options) -> Expansion {
    expand_from(spec, Composite::initial(spec), opts)
}

/// Runs the worklist from an explicit initial composite state.
pub fn expand_from(spec: &ProtocolSpec, initial: Composite, opts: &Options) -> Expansion {
    expand_with(spec, initial, opts, &mut EngineScratch::new())
}

/// Runs the worklist from an explicit initial state through
/// caller-owned [`EngineScratch`] — the batch entry point.
pub fn expand_with(
    spec: &ProtocolSpec,
    initial: Composite,
    opts: &Options,
    scratch: &mut EngineScratch,
) -> Expansion {
    let sink = &opts.common.sink;
    // The sink's enabled state is queried once: per-iteration checks
    // would re-poll every tee'd sink inside the hot loop.
    let events = sink.is_enabled();
    let rules_on = opts.common.rule_stats && events;
    // Fixed-size attribution table indexed by rule id; reported once
    // at exit so the loop below never allocates for observability.
    let mut rule_stats: Vec<RuleStat> = if rules_on {
        vec![RuleStat::default(); spec.num_rules()]
    } else {
        Vec::new()
    };
    let EngineScratch {
        expand: exp_scratch,
        succ,
        fired,
        index,
        arena_pool,
    } = scratch;
    let mut arena = arena_pool.take().unwrap_or_default();
    arena.clear();
    index.clear();
    let mut nodes: Vec<Node> = Vec::new();
    let mut work: VecDeque<NodeId> = VecDeque::new();
    let mut history: Vec<NodeId> = Vec::new();
    let mut errors: Vec<ErrorFinding> = Vec::new();
    let mut trace: Vec<VisitRecord> = Vec::new();
    let mut visits = 0usize;
    let mut successors_generated = 0usize;
    let mut expanded = 0usize;
    let mut truncated = false;
    // Deadline / memory-cap / cancellation arbitration. The cheap
    // token check runs per rule firing; the clock and the memory
    // estimate are only read every `Governor::STRIDE` firings.
    let gov = opts.common.governor();
    // Full pairwise containment evaluations and index candidate probes,
    // accumulated locally and reported in one count at the end — the
    // query paths are the engine's hot path.
    let mut containment_checks = 0u64;
    let mut index_probes = 0u64;
    let mut prunes = 0u64;
    // Stage wall times, read from the clock only while the sink is
    // enabled (see `Lap`), so untraced runs never touch it.
    let (mut successors_ns, mut intern_ns, mut contain_ns, mut check_ns) = (0u64, 0, 0, 0);

    sink.phase_enter(Phase::Expand);

    let init_violations = check(spec, &initial);
    let init_id = arena.intern(&initial);
    nodes.push(Node {
        state: init_id,
        parent: None,
        pruned: false,
    });
    index.insert(NodeId(0), init_id, &initial);
    if !init_violations.is_empty() {
        errors.push(ErrorFinding {
            node: NodeId(0),
            violations: init_violations,
            step_errors: StepErrors::EMPTY,
        });
        sink.violation("initial composite state violates coherence");
    }
    work.push_back(NodeId(0));

    sink.span_begin(SpanKind::WorkerBusy, 0);
    'outer: while let Some(current) = work.pop_front() {
        if nodes[current.0].pruned {
            continue;
        }
        // Full governor poll per expansion: a clock read is noise next
        // to the containment scans each expansion performs, and it
        // bounds how stale the deadline / memory checks can get.
        if gov.poll(arena.approx_bytes() as u64).is_some() {
            work.push_front(current);
            truncated = true;
            break 'outer;
        }
        expanded += 1;
        if events {
            sink.sample(Track::Pending, work.len() as u64);
            sink.sample(Track::Visited, nodes.len() as u64);
        }
        let current_state = arena.get(nodes[current.0].state).clone();
        let mut lap = Lap::start(events);
        successors_into(spec, &current_state, exp_scratch, succ);
        successors_ns += lap.split();
        // One visit per rule firing: the successor categories of a
        // split firing share their label within this expansion.
        fired.clear();
        for t in succ.iter() {
            successors_generated += 1;
            let rid = spec.rule_id(t.label.origin.state, t.label.event);
            if !fired.contains(&t.label) {
                fired.push(t.label);
                visits += 1;
                if rules_on {
                    rule_stats[rid].firings += 1;
                }
            }
            if rules_on {
                rule_stats[rid].states += 1;
            }
            if visits >= opts.common.budget {
                gov.stop(StopCause::BudgetExhausted);
                truncated = true;
                break 'outer;
            }
            // Cheap per-firing check; the full (clock + memory) poll
            // happens once per expansion at the top of the loop.
            if gov.cancelled().is_some() {
                truncated = true;
                break 'outer;
            }

            // Is the successor contained in a surviving state? The
            // containment queries are what per-rule wall time
            // attributes.
            let mut lap = Lap::start(events);
            let tid = arena.intern(&t.to);
            intern_ns += lap.split();
            let container_exists = index.find_container(
                &arena,
                tid,
                opts.pruning,
                &mut containment_checks,
                &mut index_probes,
            );
            let ns = lap.split();
            contain_ns += ns;
            if rules_on {
                rule_stats[rid].nanos += ns;
            }

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
                // The state family is already covered; the *transition*
                // may still carry a stale-access error.
                prunes += 1;
                if rules_on {
                    rule_stats[rid].dedup_hits += 1;
                }
                if !t.errors.is_empty() {
                    let id = NodeId(nodes.len());
                    let mut lap = Lap::start(events);
                    let violations = check(spec, &t.to);
                    check_ns += lap.split();
                    if events {
                        sink.violation(&format!("stale access via {}", t.label.render(spec)));
                    }
                    if rules_on {
                        rule_stats[rid].violations += 1;
                    }
                    nodes.push(Node {
                        state: tid,
                        parent: Some((current, t.label)),
                        pruned: true, // not part of the frontier
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

            // New state: admit, prune displaced survivors, enqueue.
            let id = NodeId(nodes.len());
            let mut lap = Lap::start(events);
            let violations = check(spec, &t.to);
            check_ns += lap.split();
            index.prune_covered(
                &arena,
                tid,
                opts.pruning,
                &mut containment_checks,
                &mut index_probes,
                |displaced| {
                    nodes[displaced.0].pruned = true;
                    prunes += 1;
                },
            );
            let ns = lap.split();
            contain_ns += ns;
            if rules_on {
                rule_stats[rid].nanos += ns;
            }
            nodes.push(Node {
                state: tid,
                parent: Some((current, t.label)),
                pruned: false,
            });
            index.insert(id, tid, &t.to);
            if !violations.is_empty() || !t.errors.is_empty() {
                if events {
                    sink.violation(&format!(
                        "erroneous state reached via {}",
                        t.label.render(spec)
                    ));
                }
                if rules_on {
                    rule_stats[rid].violations += 1;
                }
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

    sink.span_end(SpanKind::WorkerBusy, 0);

    let essential: Vec<NodeId> = history
        .into_iter()
        .filter(|id| !nodes[id.0].pruned)
        .collect();

    let stopped = gov.stop_info(work.len());
    // Every visit is one rule firing (see the per-expansion loop).
    sink.count(Counter::Visits, visits as u64);
    sink.count(Counter::RuleFirings, visits as u64);
    sink.count(Counter::Expansions, expanded as u64);
    sink.count(Counter::Errors, errors.len() as u64);
    sink.count(Counter::ContainmentChecks, containment_checks);
    sink.count(Counter::IndexProbes, index_probes);
    sink.count(Counter::InternHits, arena.hits());
    sink.count(Counter::Prunes, prunes);
    sink.count(Counter::BudgetPolls, gov.polls());
    sink.count(Counter::SuccessorsNs, successors_ns);
    sink.count(Counter::InternNs, intern_ns);
    sink.count(Counter::ContainNs, contain_ns);
    sink.count(Counter::CheckNs, check_ns);
    sink.gauge(Gauge::EssentialStates, essential.len() as u64);
    sink.gauge(Gauge::ArenaBytes, arena.approx_bytes() as u64);
    if let Some(info) = &stopped {
        sink.count(Counter::BudgetStops, 1);
        sink.stopped(info.cause.name(), info.detail.as_deref());
    }
    if rules_on {
        for (rid, stat) in rule_stats.iter().enumerate() {
            if stat.firings > 0 || stat.states > 0 {
                sink.rule_stats(&spec.rule_name(rid), *stat);
            }
        }
    }
    if events {
        sink.progress(&format!(
            "expand: {} visits, {} essential states",
            visits,
            essential.len()
        ));
    }
    sink.phase_exit(Phase::Expand);

    Expansion {
        nodes,
        arena,
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
    use ccv_model::protocols::{illinois, illinois_missing_invalidation, msi};

    #[test]
    fn illinois_reaches_the_five_paper_states() {
        let spec = illinois();
        let exp = expand(&spec, &Options::default());
        assert!(exp.is_clean(), "Illinois must verify clean");
        let rendered: Vec<String> = exp
            .essential_states()
            .iter()
            .map(|c| c.render(&spec))
            .collect();
        let expected = [
            "(Inv+)",
            "(V-Ex, Inv*)",
            "(Dirty, Inv*)",
            "(Shared+, Inv*)",
            "(Shared, Inv+)",
        ];
        assert_eq!(
            rendered.len(),
            expected.len(),
            "essential states: {rendered:?}"
        );
        for e in expected {
            assert!(
                rendered.contains(&e.to_string()),
                "missing {e} in {rendered:?}"
            );
        }
    }

    #[test]
    fn msi_verifies_clean() {
        let spec = msi();
        let exp = expand(&spec, &Options::default());
        assert!(exp.is_clean());
        assert!(!exp.essential.is_empty());
    }

    #[test]
    fn buggy_illinois_is_rejected_with_counterexample() {
        let spec = illinois_missing_invalidation();
        let exp = expand(&spec, &Options::default());
        assert!(!exp.errors.is_empty(), "the seeded bug must be found");
        let finding = &exp.errors[0];
        let path = exp.render_path(&spec, finding.node);
        assert!(
            path.contains("-->"),
            "counterexample must be a path: {path}"
        );
    }

    #[test]
    fn stop_at_first_error_halts_early() {
        let spec = illinois_missing_invalidation();
        let full = expand(&spec, &Options::default());
        let early = expand(&spec, &Options::default().stop_at_first_error(true));
        assert_eq!(early.errors.len(), 1);
        assert!(early.visits <= full.visits);
    }

    #[test]
    fn equality_pruning_visits_at_least_as_many_states() {
        let spec = illinois();
        let contained = expand(&spec, &Options::default());
        let equality = expand(&spec, &Options::default().pruning(Pruning::Equality));
        assert!(equality.is_clean());
        assert!(
            equality.visits >= contained.visits,
            "containment pruning must not increase visits ({} vs {})",
            equality.visits,
            contained.visits
        );
        // Every containment-essential state family must still be
        // covered by some equality-reached state.
        for ess in contained.essential_states() {
            assert!(
                equality.nodes.iter().any(|n| {
                    let s = equality.arena.get(n.state);
                    ess.covered_by(s) || s.covered_by(ess)
                }),
                "family {ess:?} lost under equality pruning"
            );
        }
    }

    #[test]
    fn trace_is_recorded_on_request() {
        let spec = illinois();
        let exp = expand(&spec, &Options::default().record_trace(true));
        assert_eq!(exp.trace.len(), exp.successors);
        assert!(exp.visits <= exp.successors);
        assert!(exp.trace.iter().any(|v| v.disposition == Disposition::New));
    }

    #[test]
    fn path_to_root_is_single_entry() {
        let spec = illinois();
        let exp = expand(&spec, &Options::default());
        let path = exp.path_to(NodeId(0));
        assert_eq!(path.len(), 1);
        assert!(path[0].0.is_none());
    }

    #[test]
    fn scratch_reuse_across_runs_is_equivalent() {
        // The same EngineScratch must serve consecutive runs — of
        // different protocols — without contaminating results.
        let mut scratch = EngineScratch::new();
        let opts = Options::default();
        let ill = illinois();
        let fresh_ill = expand(&ill, &opts);
        let warm1 = expand_with(&ill, Composite::initial(&ill), &opts, &mut scratch);
        assert_eq!(warm1.visits, fresh_ill.visits);
        scratch.recycle(warm1);
        let m = msi();
        let fresh_msi = expand(&m, &opts);
        let warm2 = expand_with(&m, Composite::initial(&m), &opts, &mut scratch);
        assert_eq!(warm2.visits, fresh_msi.visits);
        assert_eq!(
            warm2.essential_states().len(),
            fresh_msi.essential_states().len()
        );
        scratch.recycle(warm2);
        let warm3 = expand_with(&ill, Composite::initial(&ill), &opts, &mut scratch);
        assert_eq!(warm3.visits, fresh_ill.visits);
        let a: Vec<String> = warm3
            .essential_states()
            .iter()
            .map(|c| c.render(&ill))
            .collect();
        let b: Vec<String> = fresh_ill
            .essential_states()
            .iter()
            .map(|c| c.render(&ill))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn rule_stats_firings_sum_to_the_counter() {
        use ccv_observe::Metrics;
        use std::sync::Arc;

        let spec = illinois();
        let metrics = Arc::new(Metrics::new());
        let opts = Options::default().common(
            CommonOptions::default()
                .with_sink(metrics.clone())
                .rule_stats(true),
        );
        let exp = expand(&spec, &opts);
        assert!(exp.is_clean());

        let snap = metrics.snapshot();
        assert!(!snap.rules.is_empty());
        let total_firings: u64 = snap.rules.values().map(|s| s.firings).sum();
        assert_eq!(total_firings, snap.counter(Counter::RuleFirings));
        assert_eq!(total_firings, exp.visits as u64);
        let total_states: u64 = snap.rules.values().map(|s| s.states).sum();
        assert_eq!(total_states, exp.successors as u64);
        // Rule names follow the "<state>:<event>" convention.
        for name in snap.rules.keys() {
            assert!(name.contains(':'), "unexpected rule name {name}");
        }
    }

    #[test]
    fn rule_stats_off_by_default_even_with_a_sink() {
        use ccv_observe::Metrics;
        use std::sync::Arc;

        let spec = illinois();
        let metrics = Arc::new(Metrics::new());
        let exp = expand(&spec, &Options::default().sink(metrics.clone() as Arc<_>));
        assert!(exp.is_clean());
        assert!(metrics.snapshot().rules.is_empty());
    }

    #[test]
    fn intern_and_index_counters_are_reported() {
        use ccv_observe::Metrics;
        use std::sync::Arc;

        let spec = illinois();
        let metrics = Arc::new(Metrics::new());
        let exp = expand(&spec, &Options::default().sink(metrics.clone() as Arc<_>));
        assert!(exp.is_clean());
        let snap = metrics.snapshot();
        assert!(
            snap.counter(Counter::InternHits) > 0,
            "duplicate successors must hash-cons"
        );
        assert!(snap.counter(Counter::ContainmentChecks) > 0);
        assert_eq!(snap.gauge(Gauge::EssentialStates), Some(5));
        assert!(snap.gauge(Gauge::ArenaBytes).unwrap_or(0) > 0);
    }

    #[test]
    fn max_visits_truncates() {
        let spec = illinois();
        let exp = expand(&spec, &Options::default().max_visits(3));
        assert!(exp.truncated);
        assert!(!exp.is_clean());
        let info = exp.stopped.expect("truncated runs carry stop info");
        assert_eq!(info.cause, ccv_observe::StopCause::BudgetExhausted);
    }

    #[test]
    fn zero_deadline_stops_inconclusively() {
        let spec = illinois();
        let opts = Options::default()
            .common(CommonOptions::default().deadline(Some(std::time::Duration::ZERO)));
        let exp = expand(&spec, &opts);
        assert!(exp.truncated);
        let info = exp.stopped.expect("deadline stop carries info");
        assert_eq!(info.cause, ccv_observe::StopCause::DeadlineExpired);
    }

    #[test]
    fn tiny_memory_cap_stops_inconclusively() {
        let spec = illinois();
        let opts = Options::default().common(CommonOptions::default().max_bytes(Some(1)));
        let exp = expand(&spec, &opts);
        assert!(exp.truncated);
        assert_eq!(
            exp.stopped.unwrap().cause,
            ccv_observe::StopCause::MemoryExhausted
        );
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let spec = illinois();
        let token = ccv_observe::CancelToken::new();
        token.cancel();
        let opts = Options::default().common(CommonOptions::default().cancel(token));
        let exp = expand(&spec, &opts);
        assert!(exp.truncated);
        let info = exp.stopped.unwrap();
        assert_eq!(info.cause, ccv_observe::StopCause::Cancelled);
        // A clean rerun with default options is unaffected by the
        // cancelled run.
        assert!(expand(&spec, &Options::default()).is_clean());
    }

    #[test]
    fn completed_runs_have_no_stop_info() {
        let spec = illinois();
        let exp = expand(&spec, &Options::default());
        assert!(exp.is_clean());
        assert!(exp.stopped.is_none());
    }
}
