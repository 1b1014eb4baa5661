//! Property-based tests for the explicit-state engines and the trace
//! simulator: random traces never read stale values on verified
//! protocols, canonicalisation is permutation-invariant, and the
//! parallel engine agrees with the sequential one everywhere.

use ccv_core::concrete_covered_by;
use ccv_enum::{enumerate, enumerate_parallel, reachable_states, EnumOptions, PackedState};
use ccv_model::{protocols, CData, MData, StateId};
use ccv_sim::{Access, AccessKind, Machine, MachineConfig, Trace};
use proptest::prelude::*;

/// A random access over `procs` processors and `blocks` blocks.
fn access_strategy(procs: usize, blocks: u64) -> impl Strategy<Value = Access> {
    (0..procs, 0..blocks, any::<bool>()).prop_map(|(proc, block, w)| Access {
        proc,
        block,
        kind: if w {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    })
}

fn protocol_strategy() -> impl Strategy<Value = usize> {
    0usize..protocols::all_correct().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_traces_are_coherent_on_verified_protocols(
        which in protocol_strategy(),
        accesses in proptest::collection::vec(access_strategy(3, 8), 1..400),
        tiny in any::<bool>(),
    ) {
        let spec = protocols::all_correct().swap_remove(which);
        let cfg = if tiny {
            MachineConfig::tiny(3)
        } else {
            MachineConfig::small(3)
        };
        let mut m = Machine::new(spec.clone(), cfg);
        let r = m.run(&Trace::new("prop", 3, accesses));
        prop_assert!(
            r.is_coherent(),
            "{}: {:?}",
            spec.name(),
            r.violations.first()
        );
    }

    #[test]
    fn canonicalisation_is_permutation_invariant(
        states in proptest::collection::vec(0u8..4, 4),
        cdatas in proptest::collection::vec(0u8..3, 4),
        swap in (0usize..4, 0usize..4),
        md in any::<bool>(),
    ) {
        let mut a = PackedState::INITIAL.with_mdata(if md { MData::Obsolete } else { MData::Fresh });
        for i in 0..4 {
            a = a.with_state(i, StateId(states[i]));
            a = a.with_cdata(i, match cdatas[i] { 0 => CData::NoData, 1 => CData::Fresh, _ => CData::Obsolete });
        }
        // Swap two caches.
        let (i, j) = swap;
        let mut b = a;
        b = b.with_state(i, a.state(j)).with_cdata(i, a.cdata(j));
        b = b.with_state(j, a.state(i)).with_cdata(j, a.cdata(i));
        prop_assert_eq!(a.canonical(4), b.canonical(4));
        // Idempotence.
        prop_assert_eq!(a.canonical(4).canonical(4), a.canonical(4));
    }

    #[test]
    fn parallel_agrees_with_sequential(
        which in protocol_strategy(),
        n in 1usize..=4,
        threads in 1usize..=4,
        exact in any::<bool>(),
    ) {
        let spec = protocols::all_correct().swap_remove(which);
        let opts = if exact {
            EnumOptions::new(n).exact()
        } else {
            EnumOptions::new(n)
        };
        let seq = enumerate(&spec, &opts);
        let par = enumerate_parallel(&spec, &opts, threads);
        prop_assert_eq!(seq.distinct, par.distinct);
        prop_assert_eq!(seq.visits, par.visits);
        prop_assert_eq!(seq.errors.is_empty(), par.errors.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_reachable_concrete_state_is_symbolically_covered(
        which in protocol_strategy(),
        n in 1usize..=3,
    ) {
        // A randomized slice of the Theorem 1 check.
        let spec = protocols::all_correct().swap_remove(which);
        let exp = ccv_core::run_expansion(&spec, &ccv_core::Options::default());
        let essential = exp.essential_states();
        for gs in reachable_states(&spec, n, 1 << 20) {
            prop_assert!(
                essential.iter().any(|c| concrete_covered_by(&spec, gs, n, c)),
                "{}: {} uncovered",
                spec.name(),
                gs.render(n, &spec)
            );
        }
    }

    #[test]
    fn enumeration_is_deterministic(
        which in protocol_strategy(),
        n in 1usize..=4,
    ) {
        let spec = protocols::all_correct().swap_remove(which);
        let a = enumerate(&spec, &EnumOptions::new(n));
        let b = enumerate(&spec, &EnumOptions::new(n));
        prop_assert_eq!(a.distinct, b.distinct);
        prop_assert_eq!(a.visits, b.visits);
    }

    #[test]
    fn simulator_and_model_checker_verdicts_agree_on_mutants(
        mutant in 0usize..7,
    ) {
        // Every mutant the model checker rejects must be concretely
        // reachable too (enumeration at small n finds a violation).
        let (spec, _) = protocols::all_buggy().swap_remove(mutant);
        let sym = ccv_core::verify(&spec);
        prop_assert_eq!(sym.verdict, ccv_core::Verdict::Erroneous);
        let found = (2..=4).any(|n| !enumerate(&spec, &EnumOptions::new(n)).errors.is_empty());
        prop_assert!(found, "{}", spec.name());
    }
}
