//! Theorem 1 cross-validation: symbolic completeness against the
//! explicit state space.
//!
//! Theorem 1 of the paper claims the essential composite states
//! generated by the symbolic algorithm "symbolically characterise all
//! states which can be produced by an exhaustive expansion process".
//! This module checks the claim mechanically: for a protocol and a
//! concrete cache count `n`, every state reached by the explicit
//! engine must be **covered** by at least one essential state — its
//! per-class population must fall inside the class's repetition
//! operator and its copy count must match the essential state's
//! characteristic-function value.
//!
//! Experiment E7 runs this for every shipped protocol and `n = 1..6`.
//!
//! The module is where the two engines meet: the explicit states come
//! from `ccv-enum`, the essential states from this crate.
//! [`find_state_witness`] runs the same membership test the other way
//! round, searching for a concrete member of one symbolic family.

use crate::composite::{ClassKey, Composite};
use crate::fval::FVal;
use crate::rep::Rep;
use crate::verify::VerificationReport;
use ccv_enum::{
    bfs_witness, describe_violations, is_violating, reachable_states_within, PackedState, Witness,
};
use ccv_model::{ProtocolSpec, StateId};
use ccv_observe::{Counter, Phase, SinkHandle, SpanKind, StopCause, StopInfo};

/// True iff the concrete augmented state `gs` (with `n` caches) is a
/// member of the family denoted by `comp`.
pub fn concrete_covered_by(
    spec: &ProtocolSpec,
    gs: PackedState,
    n: usize,
    comp: &Composite,
) -> bool {
    if gs.mdata() != comp.mdata {
        return false;
    }

    // Population per class key.
    let mut counts: Vec<(ClassKey, u32)> = Vec::new();
    for i in 0..n {
        let state = gs.state(i);
        let key = if state == StateId::INVALID {
            ClassKey::invalid()
        } else {
            ClassKey {
                state,
                cdata: gs.cdata(i),
            }
        };
        if let Some(c) = counts.iter_mut().find(|(k, _)| *k == key) {
            c.1 += 1;
        } else {
            counts.push((key, 1));
        }
    }

    // Every populated class must be admitted by the composite...
    for &(key, count) in &counts {
        let iv = comp.rep_of(key).interval();
        let admitted = if iv.unbounded {
            count >= iv.lo
        } else {
            count == iv.lo
        };
        if !admitted {
            return false;
        }
    }
    // ...and every composite class absent from the concrete state must
    // admit an empty population.
    for &(key, rep) in comp.classes() {
        if counts.iter().all(|&(k, _)| k != key) && !matches!(rep, Rep::Star | Rep::Zero) {
            return false;
        }
    }

    // The characteristic-function value must match the copy count.
    let copies = gs.copies(n, spec) as u32;
    match comp.f {
        FVal::Null => true,
        FVal::V1 => copies == 0,
        FVal::V2 => copies == 1,
        FVal::V3 => copies >= 2,
    }
}

/// Result of a Theorem 1 cross-check run.
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// Cache count checked.
    pub n: usize,
    /// Size of the explicit reachable set, or of the part collected
    /// before the enumeration leg [`stopped`](CrossCheck::stopped).
    pub total_concrete: usize,
    /// How many concrete states were covered by an essential state.
    pub covered: usize,
    /// Up to five uncovered states (rendered), for diagnosis.
    pub uncovered_examples: Vec<String>,
    /// Why the coverage-scan leg was skipped, when the run was asked
    /// to stop at the first error and the enumeration leg reached a
    /// violating state. An aborted check is never complete.
    pub aborted: Option<String>,
    /// Why the enumeration leg stopped early: its reachable set
    /// outgrew `max_states`. The coverage scan is then skipped and the
    /// check is inconclusive, neither complete nor a counterexample.
    pub stopped: Option<StopInfo>,
}

impl CrossCheck {
    /// True iff every concrete reachable state is symbolically covered
    /// and the coverage scan actually ran.
    pub fn complete(&self) -> bool {
        self.aborted.is_none() && self.stopped.is_none() && self.covered == self.total_concrete
    }
}

/// Enumerates the explicit reachable set for `n` caches and checks
/// that every state is covered by one of `essential`.
pub fn crosscheck(
    spec: &ProtocolSpec,
    n: usize,
    essential: &[&Composite],
    max_states: usize,
) -> CrossCheck {
    crosscheck_with(
        spec,
        n,
        essential,
        max_states,
        false,
        &SinkHandle::disabled(),
    )
}

/// [`crosscheck`] with an event sink: emits [`Phase::Crosscheck`]
/// timing, two [`SpanKind::CrosscheckLeg`] spans (the explicit
/// enumeration leg and the coverage-scan leg), one `class_size`
/// observation per essential state (the number of concrete states it
/// covers), and an `OracleChecks` count of coverage tests performed.
///
/// With `stop_at_first_error`, the enumeration leg's reachable set is
/// scanned for coherence violations first, and a hit short-circuits
/// the (much more expensive) coverage leg entirely: the result comes
/// back [`CrossCheck::aborted`] with the violation, `complete()` is
/// false, and no oracle checks are performed.
pub fn crosscheck_with(
    spec: &ProtocolSpec,
    n: usize,
    essential: &[&Composite],
    max_states: usize,
    stop_at_first_error: bool,
    sink: &SinkHandle,
) -> CrossCheck {
    // Cached once: the per-state scan below must not re-query the
    // handle for every (state, essential) pair.
    let events = sink.is_enabled();
    let started = std::time::Instant::now();
    sink.phase_enter(Phase::Crosscheck);
    if events {
        sink.span_begin(SpanKind::CrosscheckLeg, 0);
    }
    let reached = reachable_states_within(spec, n, max_states);
    if events {
        sink.span_end(SpanKind::CrosscheckLeg, 0);
    }
    let all = match reached {
        Ok(all) => all,
        Err(pending) => {
            let info = StopInfo {
                cause: StopCause::BudgetExhausted,
                detail: Some(format!("reachable set exceeded {max_states} states")),
                frontier: pending,
                elapsed: started.elapsed(),
            };
            sink.count(Counter::BudgetStops, 1);
            sink.stopped(info.cause.name(), info.detail.as_deref());
            sink.phase_exit(Phase::Crosscheck);
            return CrossCheck {
                n,
                total_concrete: max_states + 1,
                covered: 0,
                uncovered_examples: Vec::new(),
                aborted: None,
                stopped: Some(info),
            };
        }
    };
    if stop_at_first_error {
        if let Some(&bad) = all.iter().find(|&&gs| is_violating(spec, gs, n)) {
            let aborted = format!(
                "violation reached by explicit enumeration at {}: {}",
                bad.render(n, spec),
                describe_violations(spec, bad, n).join("; ")
            );
            if events {
                sink.progress(&format!(
                    "crosscheck n={n}: coverage scan skipped — {aborted}"
                ));
            }
            sink.phase_exit(Phase::Crosscheck);
            return CrossCheck {
                n,
                total_concrete: all.len(),
                covered: 0,
                uncovered_examples: Vec::new(),
                aborted: Some(aborted),
                stopped: None,
            };
        }
    }
    if events {
        sink.span_begin(SpanKind::CrosscheckLeg, 0);
    }
    let mut covered = 0usize;
    let mut uncovered_examples = Vec::new();
    let mut per_essential: Vec<u64> = vec![0; essential.len()];
    let mut checks = 0u64;
    for &gs in &all {
        let mut hit = false;
        for (i, c) in essential.iter().enumerate() {
            checks += 1;
            if concrete_covered_by(spec, gs, n, c) {
                per_essential[i] += 1;
                hit = true;
                // First cover wins for the coverage verdict; keep
                // scanning only when the sink wants full class sizes.
                if !events {
                    break;
                }
            }
        }
        if hit {
            covered += 1;
        } else if uncovered_examples.len() < 5 {
            uncovered_examples.push(gs.render(n, spec));
        }
    }
    if events {
        sink.span_end(SpanKind::CrosscheckLeg, 0);
        sink.count(Counter::OracleChecks, checks);
        for &size in &per_essential {
            sink.class_size(size as usize);
        }
        sink.progress(&format!(
            "crosscheck n={n}: {covered}/{} concrete states covered by {} essential states",
            all.len(),
            essential.len()
        ));
    }
    sink.phase_exit(Phase::Crosscheck);
    CrossCheck {
        n,
        total_concrete: all.len(),
        covered,
        uncovered_examples,
        aborted: None,
        stopped: None,
    }
}

/// Runs a Theorem 1 cross-check against the essential states already
/// recorded in `report`, stores the [`CrossCheck`] on the report, and
/// returns a copy.
///
/// The sink threaded through the report's originating options is *not*
/// reused here; pass one explicitly via [`crosscheck_with`] when
/// metrics are wanted.
pub fn attach_crosscheck(
    spec: &ProtocolSpec,
    report: &mut VerificationReport,
    n: usize,
    max_states: usize,
    stop_at_first_error: bool,
    sink: &SinkHandle,
) -> CrossCheck {
    let cc = {
        let essential = report.expansion.essential_states();
        crosscheck_with(spec, n, &essential, max_states, stop_at_first_error, sink)
    };
    report.crosscheck = Some(cc.clone());
    cc
}

/// Finds the shortest concrete path into the family of `target`
/// (a symbolic composite state), trying sizes `1..=max_n`.
pub fn find_state_witness(
    spec: &ProtocolSpec,
    target: &Composite,
    max_n: usize,
    max_states: usize,
) -> Option<Witness> {
    (1..=max_n).find_map(|n| {
        bfs_witness(spec, n, max_states, |s, _| {
            concrete_covered_by(spec, s.to, n, target)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{expand as run_expansion, Options};
    use ccv_model::protocols::{all_correct, illinois};
    use ccv_model::{CData, MData};

    #[test]
    fn concrete_membership_basic() {
        let spec = illinois();
        let sh = spec.state_by_name("Shared").unwrap();
        // s3 = (Shared⁺, Inv*) f=v3, memory fresh.
        let s3 = Composite::new(
            vec![
                (ClassKey::fresh(sh), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V3,
        );
        let two_shared = PackedState::INITIAL
            .with_state(0, sh)
            .with_cdata(0, CData::Fresh)
            .with_state(1, sh)
            .with_cdata(1, CData::Fresh);
        assert!(concrete_covered_by(&spec, two_shared, 3, &s3));
        // One Shared copy has the wrong F value for s3.
        let one_shared = PackedState::INITIAL
            .with_state(0, sh)
            .with_cdata(0, CData::Fresh);
        assert!(!concrete_covered_by(&spec, one_shared, 3, &s3));
        // Wrong mdata.
        assert!(!concrete_covered_by(
            &spec,
            two_shared.with_mdata(MData::Obsolete),
            3,
            &s3
        ));
        // A Dirty intruder is outside the family.
        let d = spec.state_by_name("Dirty").unwrap();
        assert!(!concrete_covered_by(
            &spec,
            two_shared.with_state(2, d).with_cdata(2, CData::Fresh),
            3,
            &s3
        ));
    }

    #[test]
    fn theorem_1_holds_for_illinois_up_to_five_caches() {
        let spec = illinois();
        let exp = run_expansion(&spec, &Options::default());
        let essential = exp.essential_states();
        for n in 1..=5 {
            let cc = crosscheck(&spec, n, &essential, 1 << 22);
            assert!(
                cc.complete(),
                "n={n}: {}/{} covered, e.g. {:?}",
                cc.covered,
                cc.total_concrete,
                cc.uncovered_examples
            );
        }
    }

    #[test]
    fn stop_at_first_error_short_circuits_the_coverage_leg() {
        use ccv_observe::Metrics;
        use std::sync::Arc;

        let spec = ccv_model::protocols::illinois_missing_invalidation();
        let exp = run_expansion(&spec, &Options::default());
        let essential = exp.essential_states();

        // With the stop requested, a violating reachable state aborts
        // before any coverage oracle check runs.
        let metrics = Arc::new(Metrics::new());
        let cc = crosscheck_with(
            &spec,
            3,
            &essential,
            1 << 20,
            true,
            &SinkHandle::new(metrics.clone()),
        );
        assert!(cc.aborted.is_some());
        assert!(!cc.complete());
        let aborted = cc.aborted.unwrap();
        assert!(aborted.contains("violation"), "{aborted}");
        assert_eq!(metrics.snapshot().counter(Counter::OracleChecks), 0);

        // Without it, the coverage leg runs to completion as before.
        let metrics = Arc::new(Metrics::new());
        let cc = crosscheck_with(
            &spec,
            3,
            &essential,
            1 << 20,
            false,
            &SinkHandle::new(metrics.clone()),
        );
        assert!(cc.aborted.is_none());
        assert!(metrics.snapshot().counter(Counter::OracleChecks) > 0);
    }

    #[test]
    fn correct_protocols_are_never_aborted_by_the_stop_flag() {
        let spec = illinois();
        let exp = run_expansion(&spec, &Options::default());
        let essential = exp.essential_states();
        let cc = crosscheck_with(&spec, 3, &essential, 1 << 20, true, &SinkHandle::disabled());
        assert!(cc.aborted.is_none());
        assert!(cc.complete());
    }

    #[test]
    fn every_essential_state_of_illinois_is_concretely_reachable() {
        // Theorem 1 gives coverage; witnesses give the converse —
        // every essential family has a concrete member reachable at
        // small n (the essential states are not over-approximations).
        let spec = illinois();
        let exp = run_expansion(&spec, &Options::default());
        for target in exp.essential_states() {
            let w = find_state_witness(&spec, target, 3, 1 << 20)
                .unwrap_or_else(|| panic!("{} unreachable", target.render(&spec)));
            // Path found; final state is in the family by construction.
            assert!(w.steps.len() <= 6 || !w.steps.is_empty());
        }
    }

    #[test]
    fn theorem_1_holds_for_every_protocol_with_three_caches() {
        for spec in all_correct() {
            let exp = run_expansion(&spec, &Options::default());
            let essential = exp.essential_states();
            let cc = crosscheck(&spec, 3, &essential, 1 << 22);
            assert!(
                cc.complete(),
                "{}: {}/{} covered, e.g. {:?}",
                spec.name(),
                cc.covered,
                cc.total_concrete,
                cc.uncovered_examples
            );
        }
    }
}
