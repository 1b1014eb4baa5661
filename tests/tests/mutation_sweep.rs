//! Regression tests over the exhaustive single-mutation sweep (E10):
//! the verifier must reach a definite verdict on *every* single-edit
//! mutant of every protocol — no panics, no divergence — and the
//! rejected ones must carry counterexamples.

use ccv_core::{Batch, Options, Verdict};
use ccv_model::mutate::single_mutants;
use ccv_model::protocols;

fn opts() -> Options {
    Options::default().max_visits(100_000)
}

#[test]
fn every_illinois_mutant_gets_a_definite_verdict() {
    // The sweep runs through one batch session: every mutant reuses
    // the same engine scratch (successor buffers, index, arena).
    let mut batch = Batch::with_options(opts());
    let base = protocols::illinois();
    for m in single_mutants(&base) {
        let v = batch.verify(&m.spec);
        assert_ne!(
            v.verdict,
            Verdict::Inconclusive,
            "diverged on: {}",
            m.description
        );
        if v.verdict == Verdict::Erroneous {
            assert!(
                v.expansion
                    .errors
                    .first()
                    .is_some_and(|f| v.expansion.render_path(&m.spec, f.node).contains("-->")),
                "{}: missing counterexample",
                m.description
            );
        }
    }
}

#[test]
fn every_protocols_mutants_terminate() {
    // Summary-only batch runs: verdict and counts are enough here, so
    // each run's arena is recycled into the scratch pool.
    let mut batch = Batch::with_options(opts());
    for spec in protocols::all_correct() {
        for m in single_mutants(&spec) {
            let v = batch.summarize(&m.spec);
            assert_ne!(
                v.verdict,
                Verdict::Inconclusive,
                "{}: diverged on {}",
                spec.name(),
                m.description
            );
        }
    }
}

#[test]
fn every_split_protocol_mutant_terminates_in_both_engines() {
    // The transient mutation classes (phase swaps, completion
    // redirects, snoop edits on pending states) must never crash or
    // diverge either engine — a definite symbolic verdict everywhere,
    // and clean explicit agreement for the benign ones.
    use ccv_enum::{enumerate, EnumOptions};
    let mut batch = Batch::with_options(opts());
    for spec in protocols::all_non_atomic() {
        for m in single_mutants(&spec) {
            let v = batch.verify(&m.spec);
            assert_ne!(
                v.verdict,
                Verdict::Inconclusive,
                "{}: diverged on {}",
                spec.name(),
                m.description
            );
            if v.verdict == Verdict::Erroneous {
                assert!(
                    v.expansion
                        .errors
                        .first()
                        .is_some_and(|f| v.expansion.render_path(&m.spec, f.node).contains("-->")),
                    "{}: {} missing counterexample",
                    spec.name(),
                    m.description
                );
            } else {
                let r = enumerate(&m.spec, &EnumOptions::new(3));
                assert!(
                    r.is_clean(),
                    "{}: {} symbolically benign but concretely broken: {:?}",
                    spec.name(),
                    m.description,
                    r.errors.first()
                );
            }
        }
    }
}

#[test]
fn dropping_any_writeback_is_always_caught() {
    // The one mutation class that must never be benign: losing a
    // write-back always loses data eventually.
    let mut batch = Batch::with_options(opts());
    for spec in protocols::all_correct() {
        for m in single_mutants(&spec) {
            if m.description.contains("write-back dropped") {
                let v = batch.summarize(&m.spec);
                assert_eq!(
                    v.verdict,
                    Verdict::Erroneous,
                    "{}: {} slipped through",
                    spec.name(),
                    m.description
                );
            }
        }
    }
}

#[test]
fn benign_mutants_pass_the_explicit_engine_too() {
    // Double-check the "benign" verdicts against the enumerative
    // engine at n = 3 — a symbolic false-negative would show up here.
    use ccv_enum::{enumerate, EnumOptions};
    let mut batch = Batch::with_options(opts());
    let base = protocols::illinois();
    for m in single_mutants(&base) {
        let v = batch.summarize(&m.spec);
        if v.verdict == Verdict::Verified {
            let r = enumerate(&m.spec, &EnumOptions::new(3));
            assert!(
                r.is_clean(),
                "{}: symbolically benign but concretely broken: {:?}",
                m.description,
                r.errors.first()
            );
        }
    }
}
