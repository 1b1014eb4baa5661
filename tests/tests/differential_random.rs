//! Differential testing on randomly generated protocols.
//!
//! [`ccv_tests::random_protocol`] produces well-formed but arbitrary
//! protocols — almost all incoherent. The engines must nevertheless
//! tell one consistent story on every one of them:
//!
//! * **Theorem 1 holds unconditionally**: whatever the verdict, every
//!   explicitly reachable state must be covered by a symbolic
//!   essential state (the theorem is about completeness of the
//!   expansion, not correctness of the protocol);
//! * **no missed bugs**: a violation found by concrete enumeration at
//!   any small size must also be found symbolically;
//! * **no phantom bugs at small sizes is allowed**: if the symbolic
//!   engine says clean, enumeration at every small size must be clean;
//! * the sequential and parallel enumerators must agree exactly;
//! * the engines terminate within their budgets on every input.

use ccv_core::{crosscheck, run_expansion, Options};
use ccv_enum::{enumerate, enumerate_parallel, EnumOptions};
use ccv_tests::random_protocol;

fn seeds() -> std::ops::Range<u64> {
    // The lib crates are optimised even in dev builds (workspace
    // profile overrides), but the glue still runs slower: trim the
    // sweep when debug assertions are on.
    if cfg!(debug_assertions) {
        0..25
    } else {
        0..40
    }
}

fn sym_options() -> Options {
    Options::default().max_visits(100_000)
}

/// A handful of generated protocols have pathological symbolic
/// branching (hundreds of essential states); they terminate but are
/// too slow for a test suite, so seeds whose expansion exceeds the
/// visit budget are skipped — with a cap on how many may be skipped,
/// so a divergence regression still fails loudly.
const MAX_SKIPPED: usize = 8;

#[test]
fn theorem_1_holds_for_random_protocols() {
    let mut skipped = 0usize;
    for seed in seeds() {
        let spec = random_protocol(seed);
        let exp = run_expansion(&spec, &sym_options());
        if exp.truncated {
            skipped += 1;
            assert!(skipped <= MAX_SKIPPED, "too many over-budget seeds");
            continue;
        }
        let essential = exp.essential_states();
        for n in 1..=3 {
            let cc = crosscheck(&spec, n, &essential, 1 << 22);
            assert!(
                cc.complete(),
                "seed {seed} n={n}: {}/{} covered; examples {:?}",
                cc.covered,
                cc.total_concrete,
                cc.uncovered_examples
            );
        }
    }
}

#[test]
fn no_bug_found_concretely_is_missed_symbolically() {
    let mut buggy = 0usize;
    let mut skipped = 0usize;
    for seed in seeds() {
        let spec = random_protocol(seed);
        let sym = run_expansion(&spec, &sym_options());
        if sym.truncated && sym.errors.is_empty() {
            // Over budget without a verdict: skip (bounded above).
            skipped += 1;
            assert!(skipped <= MAX_SKIPPED, "too many over-budget seeds");
            continue;
        }
        let concrete_bug =
            (1..=3).any(|n| !enumerate(&spec, &EnumOptions::new(n)).errors.is_empty());
        if concrete_bug {
            buggy += 1;
            assert!(
                !sym.errors.is_empty(),
                "seed {seed}: concrete violation missed by the symbolic engine"
            );
        }
        if sym.is_clean() {
            // Random protocols are almost never coherent; when one is,
            // enumeration must agree at every small size.
            for n in 1..=3 {
                let r = enumerate(&spec, &EnumOptions::new(n));
                assert!(
                    r.is_clean(),
                    "seed {seed} n={n}: symbolic clean but enumeration found {:?}",
                    r.errors.first()
                );
            }
        }
    }
    // The generator must produce a solid buggy population.
    assert!(buggy >= 10, "only {buggy} buggy seeds — generator too tame");
}

#[test]
fn parallel_enumeration_agrees_on_random_protocols() {
    for seed in seeds().step_by(5) {
        let spec = random_protocol(seed);
        for n in [2usize, 3] {
            let seq = enumerate(&spec, &EnumOptions::new(n).exact());
            let par = enumerate_parallel(&spec, &EnumOptions::new(n).exact(), 3);
            assert_eq!(seq.distinct, par.distinct, "seed {seed} n={n}");
            assert_eq!(seq.visits, par.visits, "seed {seed} n={n}");
            assert_eq!(
                seq.errors.is_empty(),
                par.errors.is_empty(),
                "seed {seed} n={n}"
            );
        }
    }
}

#[test]
fn symbolic_engine_is_deterministic_on_random_protocols() {
    for seed in seeds().step_by(10) {
        let spec = random_protocol(seed);
        let a = run_expansion(&spec, &sym_options());
        let b = run_expansion(&spec, &sym_options());
        assert_eq!(a.visits, b.visits, "seed {seed}");
        assert_eq!(a.essential.len(), b.essential.len(), "seed {seed}");
        assert_eq!(a.errors.len(), b.errors.len(), "seed {seed}");
    }
}

#[test]
fn counting_equivalence_is_sound_on_random_protocols() {
    for seed in seeds().step_by(7) {
        let spec = random_protocol(seed);
        let exact = enumerate(&spec, &EnumOptions::new(3).exact());
        let counting = enumerate(&spec, &EnumOptions::new(3));
        assert!(counting.distinct <= exact.distinct, "seed {seed}");
        assert_eq!(
            exact.errors.is_empty(),
            counting.errors.is_empty(),
            "seed {seed}: counting equivalence changed the verdict"
        );
    }
}

#[test]
fn dsl_roundtrips_random_protocols() {
    // The printer/parser pair must be lossless on arbitrary
    // well-formed specs, not just the curated library.
    use ccv_model::dsl::{parse_protocol, to_dsl};
    use ccv_model::{BusOp, GlobalCtx, ProcEvent};
    for seed in seeds() {
        let spec = random_protocol(seed);
        let text = to_dsl(&spec);
        // Random FSMs are rarely strongly connected, which lowering
        // (deliberately) enforces; only connected ones roundtrip.
        let reparsed = match parse_protocol(&text) {
            Ok(r) => r,
            Err(e) => {
                assert!(
                    e.message.contains("strongly connected"),
                    "seed {seed}: unexpected parse failure: {e}\n{text}"
                );
                continue;
            }
        };
        for s in spec.state_ids() {
            assert_eq!(spec.attrs(s), reparsed.attrs(s), "seed {seed}");
            for e in ProcEvent::ALL {
                for c in GlobalCtx::ALL {
                    assert_eq!(
                        spec.outcome(s, e, c),
                        reparsed.outcome(s, e, c),
                        "seed {seed}: outcome mismatch"
                    );
                }
            }
            for b in BusOp::ALL {
                assert_eq!(spec.snoop(s, b), reparsed.snoop(s, b), "seed {seed}");
            }
        }
    }
}
