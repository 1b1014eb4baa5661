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
//! from `ccv-enum`'s governed enumerator, the essential states from
//! this crate. Membership reads only class counts, so each counting
//! representative (Definition 5) is tested once for its whole orbit.
//! [`find_state_witness`] runs the same membership test the other way
//! round, searching for a concrete member of one symbolic family.

use crate::composite::{ClassKey, Composite};
use crate::fval::FVal;
use crate::rep::Rep;
use ccv_enum::{enumerate, find_witness, Dedup, EnumOptions, PackedState, WitnessSearch};
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

/// Result of a Theorem 1 cross-check run. Counts are of concrete
/// tuples: a representative counts its whole permutation orbit.
#[derive(Clone, Debug, Default)]
pub struct CrossCheck {
    /// Cache count checked.
    pub n: usize,
    /// Size of the explicit reachable set, or of the part collected
    /// before the enumeration leg [`stopped`](CrossCheck::stopped) or
    /// was [`aborted`](CrossCheck::aborted).
    pub total_concrete: usize,
    /// How many concrete states were covered by an essential state.
    pub covered: usize,
    /// Up to five uncovered representatives (rendered), for diagnosis.
    pub uncovered_examples: Vec<String>,
    /// Why the coverage-scan leg was skipped, when the run was asked
    /// to stop at the first error and the enumeration leg reached one.
    /// An aborted check is never complete.
    pub aborted: Option<String>,
    /// Why a leg stopped early (state budget, deadline, memory cap,
    /// cancellation). The coverage scan is then skipped and the check
    /// is inconclusive, neither complete nor a counterexample.
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
/// that every state is covered by one of `essential`. The enumeration
/// runs under counting dedup, so `max_states` caps the representatives
/// it claims.
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

/// [`crosscheck`] with an event sink. The enumeration leg is one
/// [`enumerate`] run without `sink`; the crosscheck emits
/// [`Phase::Crosscheck`] timing, two [`SpanKind::CrosscheckLeg`] spans
/// (the enumeration leg and the coverage-scan leg), one `class_size`
/// observation per essential state (the number of concrete states it
/// covers), an `OracleChecks` count of coverage tests performed (per
/// representative and essential state), and the stop, if any.
///
/// With `stop_at_first_error`, the enumeration leg ends at its first
/// error, breadth-first, and the (much more expensive) coverage leg
/// is skipped: the result comes back [`CrossCheck::aborted`] naming
/// that error, `complete()` is false, and no oracle checks are
/// performed.
pub fn crosscheck_with(
    spec: &ProtocolSpec,
    n: usize,
    essential: &[&Composite],
    max_states: usize,
    stop_at_first_error: bool,
    sink: &SinkHandle,
) -> CrossCheck {
    let opts = EnumOptions::new(n)
        .max_states(max_states)
        .stop_at_first_error(stop_at_first_error);
    crosscheck_enumerated(spec, essential, opts, sink)
}

/// [`crosscheck_with`] under the enumerator options `opts`: their
/// dedup, budget, deadline, memory cap, cancel token and fault plan
/// govern the enumeration leg as they would an enumerate run.
pub(crate) fn crosscheck_enumerated(
    spec: &ProtocolSpec,
    essential: &[&Composite],
    opts: EnumOptions,
    sink: &SinkHandle,
) -> CrossCheck {
    let (n, exact) = (opts.n, opts.dedup == Dedup::Exact);
    let opts = opts.sink(SinkHandle::disabled()).capture_snapshot(true);
    // Cached once: the per-state scan below must not re-query the
    // handle for every (state, essential) pair.
    let events = sink.is_enabled();
    sink.phase_enter(Phase::Crosscheck);
    sink.span_begin(SpanKind::CrosscheckLeg, 0);
    let reached = enumerate(spec, &opts);
    sink.span_end(SpanKind::CrosscheckLeg, 0);
    let states = reached.snapshot.map_or_else(Vec::new, |s| s.visited);
    let weight = |gs: PackedState| if exact { 1 } else { orbit_size(gs, n) };
    let mut cc = CrossCheck {
        n,
        total_concrete: states.iter().map(|&gs| weight(gs)).sum(),
        ..CrossCheck::default()
    };
    if let Some(mut info) = reached.stopped {
        if info.cause == StopCause::BudgetExhausted {
            let budget = opts.common.budget;
            info.detail = Some(format!("reachable set exceeded {budget} states"));
        }
        sink.count(Counter::BudgetStops, 1);
        sink.stopped(info.cause.name(), info.detail.as_deref());
        sink.phase_exit(Phase::Crosscheck);
        cc.stopped = Some(info);
        return cc;
    }
    let first_error = reached.errors.first();
    if let Some(bad) = first_error.filter(|_| opts.common.stop_at_first_error) {
        let aborted = format!(
            "violation reached by explicit enumeration at {}: {}",
            bad.state.render(n, spec),
            bad.descriptions.join("; ")
        );
        if events {
            sink.progress(&format!(
                "crosscheck n={n}: coverage scan skipped — {aborted}"
            ));
        }
        sink.phase_exit(Phase::Crosscheck);
        cc.aborted = Some(aborted);
        return cc;
    }
    sink.span_begin(SpanKind::CrosscheckLeg, 0);
    let mut per_essential: Vec<usize> = vec![0; essential.len()];
    let mut checks = 0u64;
    for &gs in &states {
        let w = weight(gs);
        let mut hit = false;
        for (i, c) in essential.iter().enumerate() {
            checks += 1;
            if concrete_covered_by(spec, gs, n, c) {
                per_essential[i] += w;
                hit = true;
                // First cover wins for the coverage verdict; keep
                // scanning only when the sink wants full class sizes.
                if !events {
                    break;
                }
            }
        }
        if hit {
            cc.covered += w;
        } else if cc.uncovered_examples.len() < 5 {
            cc.uncovered_examples.push(gs.render(n, spec));
        }
    }
    sink.span_end(SpanKind::CrosscheckLeg, 0);
    if events {
        sink.count(Counter::OracleChecks, checks);
        for &size in &per_essential {
            sink.class_size(size);
        }
        sink.progress(&format!(
            "crosscheck n={n}: {}/{} concrete states covered by {} essential states",
            cc.covered,
            cc.total_concrete,
            essential.len()
        ));
    }
    sink.phase_exit(Phase::Crosscheck);
    cc
}

/// The orbit size n!/∏cᵢ! of `gs`: how many tuples permute its
/// caches, cᵢ counting the caches that share each cache code.
fn orbit_size(gs: PackedState, n: usize) -> usize {
    let mut counts = [0usize; 64];
    for i in 0..n {
        counts[gs.cache_code(i) as usize] += 1;
    }
    let factorial = |k: usize| (1..=k).product::<usize>();
    counts
        .iter()
        .fold(factorial(n), |size, &c| size / factorial(c))
}

/// Finds the shortest concrete path into the family of `target`
/// (a symbolic composite state), trying sizes `1..=opts.n` under the
/// enumerator options `opts`. Membership reads only class counts, so
/// the search runs over counting representatives.
pub fn find_state_witness(
    spec: &ProtocolSpec,
    target: &Composite,
    opts: &EnumOptions,
) -> WitnessSearch {
    find_witness(
        spec,
        opts,
        Some(&|gs, n| concrete_covered_by(spec, gs, n, target)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{expand as run_expansion, Options};
    use ccv_model::protocols::{all_correct, by_name, illinois, PROTOCOL_NAMES};
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
            let at = target.render(&spec);
            let w = match find_state_witness(&spec, target, &EnumOptions::new(3)) {
                WitnessSearch::Found(w) => w,
                other => panic!("{at}: {other:?}"),
            };
            // Each step is a concrete successor of the state before it,
            // and the path ends inside the family.
            let mut state = PackedState::INITIAL;
            for step in &w.steps {
                let mut buf = Vec::new();
                ccv_enum::successors_into(&spec, state, w.n, &mut buf);
                assert!(
                    buf.iter()
                        .any(|s| (s.cache, s.event, s.to) == (step.cache, step.event, step.after)),
                    "{at}: step {step:?} does not replay"
                );
                state = step.after;
            }
            assert!(concrete_covered_by(&spec, state, w.n, target), "{at}");
        }
    }

    /// The crosscheck of `essential` at `n` under `dedup`.
    fn crosscheck_under(
        spec: &ProtocolSpec,
        n: usize,
        essential: &[&Composite],
        dedup: Dedup,
    ) -> CrossCheck {
        let opts = EnumOptions::new(n).dedup(dedup);
        crosscheck_enumerated(spec, essential, opts, &SinkHandle::disabled())
    }

    #[test]
    fn orbit_sizes_count_the_distinct_permutations() {
        let spec = illinois();
        let sh = spec.state_by_name("Shared").unwrap();
        let d = spec.state_by_name("Dirty").unwrap();
        assert_eq!(orbit_size(PackedState::INITIAL, 16), 1);
        let one = PackedState::INITIAL
            .with_state(0, d)
            .with_cdata(0, CData::Fresh);
        assert_eq!(orbit_size(one, 4), 4);
        // Two Shared, one Dirty, one Invalid: 4!/(2!·1!·1!).
        let mixed = one
            .with_state(1, sh)
            .with_cdata(1, CData::Fresh)
            .with_state(2, sh)
            .with_cdata(2, CData::Fresh);
        assert_eq!(orbit_size(mixed, 4), 12);
        // The cdata is part of the code: an obsolete Shared copy is
        // distinguishable from a fresh one.
        assert_eq!(orbit_size(mixed.with_cdata(2, CData::Obsolete), 4), 24);
    }

    #[test]
    fn counting_and_exact_crosschecks_agree_on_every_library_protocol() {
        for name in PROTOCOL_NAMES {
            let spec = by_name(name).unwrap();
            let exp = run_expansion(&spec, &Options::default());
            let essential = exp.essential_states();
            for n in 1..=4 {
                let counting = crosscheck_under(&spec, n, &essential, Dedup::Counting);
                let exact = crosscheck_under(&spec, n, &essential, Dedup::Exact);
                assert_eq!(
                    (
                        counting.total_concrete,
                        counting.covered,
                        counting.complete()
                    ),
                    (exact.total_concrete, exact.covered, exact.complete()),
                    "{name} n={n}"
                );
            }
        }
    }

    #[test]
    fn orbit_weights_count_uncovered_states_too() {
        let spec = illinois();
        let exp = run_expansion(&spec, &Options::default());
        let all = exp.essential_states();
        for dropped in 0..all.len() {
            let mut essential = all.clone();
            essential.remove(dropped);
            for n in 2..=4 {
                let counting = crosscheck_under(&spec, n, &essential, Dedup::Counting);
                let exact = crosscheck_under(&spec, n, &essential, Dedup::Exact);
                let at = format!("without {} at n={n}", all[dropped].render(&spec));
                assert_eq!(counting.total_concrete, exact.total_concrete, "{at}");
                assert_eq!(counting.covered, exact.covered, "{at}");
                assert!(counting.covered < counting.total_concrete, "{at}");
                assert!(!counting.uncovered_examples.is_empty(), "{at}");
                assert!(!exact.uncovered_examples.is_empty(), "{at}");
            }
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
