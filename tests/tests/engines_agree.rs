//! Cross-engine agreement tests (E4, E7): the symbolic engine, the
//! sequential enumerator, the parallel enumerator and the trace
//! simulator must tell one consistent story.

use ccv_core::{crosscheck, run_expansion, Options};
use ccv_enum::{enumerate, enumerate_parallel, Dedup, EnumOptions, EnumResult};
use ccv_model::protocols::{all_buggy, all_correct, all_non_atomic, illinois};
use ccv_model::StateAttrs;
use ccv_observe::{EventSink, Metrics};
use std::sync::Arc;

#[test]
fn theorem_1_symbolic_covers_explicit_for_all_protocols() {
    for spec in all_correct() {
        let exp = run_expansion(&spec, &Options::default());
        let essential = exp.essential_states();
        for n in 1..=4 {
            let cc = crosscheck(&spec, n, &essential, 1 << 22);
            assert!(
                cc.complete(),
                "{} n={n}: {}/{} covered; examples {:?}",
                spec.name(),
                cc.covered,
                cc.total_concrete,
                cc.uncovered_examples
            );
        }
    }
}

#[test]
fn theorem_1_illinois_up_to_six_caches() {
    let spec = illinois();
    let exp = run_expansion(&spec, &Options::default());
    let essential = exp.essential_states();
    for n in 1..=6 {
        let cc = crosscheck(&spec, n, &essential, 1 << 24);
        assert!(cc.complete(), "n={n}");
    }
}

#[test]
fn enumeration_verdicts_match_symbolic_verdicts() {
    // Any protocol the symbolic engine rejects must show a concrete
    // violation at some small n, and vice versa: clean symbolic
    // verdicts imply clean enumerations.
    for spec in all_correct() {
        for n in 1..=4 {
            let r = enumerate(&spec, &EnumOptions::new(n));
            assert!(
                r.is_clean(),
                "{} n={n}: {:?}",
                spec.name(),
                r.errors.first()
            );
        }
    }
    for (spec, why) in all_buggy() {
        let found = (2..=4).any(|n| !enumerate(&spec, &EnumOptions::new(n)).errors.is_empty());
        assert!(
            found,
            "{} ({why}): no concrete violation for n<=4",
            spec.name()
        );
    }
}

#[test]
fn parallel_enumeration_agrees_with_sequential_everywhere() {
    for spec in all_correct() {
        for n in [2usize, 4] {
            let seq = enumerate(&spec, &EnumOptions::new(n).exact());
            let par = enumerate_parallel(&spec, &EnumOptions::new(n).exact(), 4);
            assert_eq!(seq.distinct, par.distinct, "{} n={n}", spec.name());
            assert_eq!(seq.visits, par.visits, "{} n={n}", spec.name());
        }
    }
}

#[test]
fn counting_equivalence_is_a_pure_compression() {
    // Counting-equivalence dedup must not change the verdict, only
    // the state count.
    for spec in all_correct() {
        let exact = enumerate(&spec, &EnumOptions::new(3).exact());
        let counting = enumerate(&spec, &EnumOptions::new(3));
        assert!(exact.is_clean() && counting.is_clean(), "{}", spec.name());
        assert!(counting.distinct <= exact.distinct, "{}", spec.name());
    }
    for (spec, _) in all_buggy() {
        let exact = enumerate(&spec, &EnumOptions::new(3).exact());
        let counting = enumerate(&spec, &EnumOptions::new(3));
        assert_eq!(
            exact.errors.is_empty(),
            counting.errors.is_empty(),
            "{}",
            spec.name()
        );
    }
}

/// The violation multiset of a run, order-normalised: the two engines
/// record identical (state, descriptions) entries, only in different
/// orders.
fn violation_set(r: &EnumResult) -> Vec<(u128, Vec<String>)> {
    let mut v: Vec<(u128, Vec<String>)> = r
        .errors
        .iter()
        .map(|e| {
            let mut d = e.descriptions.clone();
            d.sort();
            (e.state.0, d)
        })
        .collect();
    v.sort();
    v
}

#[test]
fn differential_matrix_work_stealing_equals_sequential() {
    // The PR 2 acceptance matrix: every bundled protocol (correct,
    // split-transaction and buggy) × machine size × dedup mode ×
    // thread count. Both schedulers run one shared expansion step, so
    // the matrix tests scheduling and the claim protocol: the
    // work-stealing engine must reproduce the sequential engine's
    // distinct count, visit count and violation set exactly — any
    // scheduling-dependent divergence is a bug in the claim protocol
    // or the termination detection.
    //
    // Rule attribution is one more input: with a collecting sink and
    // `rule_stats` on, the sequential engine and a work-stealing pool
    // must still explore exactly the plain run's space.
    let mut specs: Vec<_> = all_correct();
    specs.extend(all_non_atomic());
    specs.extend(all_buggy().into_iter().map(|(s, _)| s));
    for spec in &specs {
        for n in [2usize, 3, 4] {
            for dedup in [Dedup::Exact, Dedup::Counting] {
                let opts = EnumOptions::new(n).dedup(dedup);
                let seq = enumerate(spec, &opts);
                let seq_violations = violation_set(&seq);
                for threads in [1usize, 2, 4, 8] {
                    let par = enumerate_parallel(spec, &opts, threads);
                    let tag = format!("{} n={n} {dedup:?} t={threads}", spec.name());
                    assert_eq!(par.distinct, seq.distinct, "{tag}: distinct");
                    assert_eq!(par.visits, seq.visits, "{tag}: visits");
                    assert_eq!(violation_set(&par), seq_violations, "{tag}: violations");
                }
                let attributed = || {
                    let sink = Arc::new(Metrics::new()) as Arc<dyn EventSink>;
                    opts.clone().sink(sink).rule_stats(true)
                };
                for (engine, r) in [
                    ("sequential", enumerate(spec, &attributed())),
                    ("t=2", enumerate_parallel(spec, &attributed(), 2)),
                ] {
                    let tag = format!("{} n={n} {dedup:?} {engine} rule_stats", spec.name());
                    assert_eq!(r.distinct, seq.distinct, "{tag}: distinct");
                    assert_eq!(r.visits, seq.visits, "{tag}: visits");
                    assert_eq!(violation_set(&r), seq_violations, "{tag}: violations");
                }
            }
        }
    }
}

#[test]
fn initial_state_violation_honors_stop_at_first_error() {
    // A protocol whose *initial* global state is already erroneous:
    // every cache "holds" an exclusive owned copy while invalid. The
    // builder (rightly) refuses such specs, so the test overrides the
    // attributes after validation. With stop_at_first_error the
    // sequential engine must report the initial violation and stop
    // without expanding anything — it used to explore the full space
    // after recording the initial error.
    let spec = illinois();
    let invalid = spec.invalid();
    let spec = spec.override_attrs(
        invalid,
        StateAttrs {
            holds_copy: true,
            owned: true,
            exclusive: true,
            writable_silently: false,
        },
    );

    let stopping = EnumOptions::new(3).stop_at_first_error(true);
    let r = enumerate(&spec, &stopping);
    assert_eq!(r.errors.len(), 1, "exactly the initial violation");
    assert_eq!(r.errors[0].state.0, 0, "the all-invalid initial state");
    assert_eq!(r.distinct, 1, "nothing explored beyond the initial state");
    assert_eq!(r.visits, 0, "no successors generated");
    assert!(!r.truncated);

    // The work-stealing engine stops the same way...
    let par = enumerate_parallel(&spec, &stopping, 4);
    assert_eq!(par.errors.len(), 1);
    assert_eq!(par.distinct, 1);
    assert_eq!(par.visits, 0);

    // ...and without the flag both engines explore past the broken
    // initial state and agree.
    let exploring = EnumOptions::new(3);
    let seq_full = enumerate(&spec, &exploring);
    let par_full = enumerate_parallel(&spec, &exploring, 4);
    assert!(seq_full.errors.len() > 1);
    assert_eq!(seq_full.distinct, par_full.distinct);
    assert_eq!(seq_full.visits, par_full.visits);
    assert_eq!(violation_set(&seq_full), violation_set(&par_full));
}

#[test]
fn explicit_state_space_grows_with_n_symbolic_does_not() {
    let spec = illinois();
    let mut last = 0usize;
    for n in 1..=6 {
        let d = enumerate(&spec, &EnumOptions::new(n).exact()).distinct;
        assert!(d > last, "explicit space must grow: n={n}");
        last = d;
    }
    let sym = run_expansion(&spec, &Options::default());
    assert_eq!(
        sym.essential.len(),
        5,
        "symbolic stays at 5 regardless of n"
    );
}
