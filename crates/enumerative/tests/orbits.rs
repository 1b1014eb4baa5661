//! The orbit identity between the two dedup disciplines.
//!
//! Counting dedup (Definition 5) keeps one representative per
//! permutation orbit of the exact reachable set. That is only sound if
//! the counting states are *exactly* the orbits: every exact state's
//! canonical form is a counting state, and each orbit holds all
//! `n!/∏cᵢ!` permutations of its representative, where `cᵢ` counts the
//! caches sharing each 6-bit `(state, cdata)` code.
//!
//! The identity also gives the exact state counts from the counting
//! representatives alone. The last test uses that to pin the exact
//! distinct-state totals of perfbench's `explicit` jobs
//! (`perfbench/expected/explicit.tsv`) by a computation that never
//! builds the exact visited set.

use std::collections::{HashMap, HashSet, VecDeque};

use ccv_enum::{enumerate, reachable_states, successors_into, EnumOptions, PackedState};
use ccv_model::protocols::{self, PROTOCOL_NAMES};
use ccv_model::ProtocolSpec;

/// Size of the permutation orbit of `gs`: `n!/∏cᵢ!`.
fn orbit_size(gs: PackedState, n: usize) -> u64 {
    let factorial = |k: u64| (1..=k).product::<u64>();
    let mut counts = [0u64; 64];
    for i in 0..n {
        counts[gs.cache_code(i) as usize] += 1;
    }
    counts
        .iter()
        .fold(factorial(n as u64), |acc, &c| acc / factorial(c))
}

/// The counting representatives: a breadth-first search over canonical
/// forms, the space `Dedup::Counting` explores.
fn representatives(spec: &ProtocolSpec, n: usize) -> Vec<PackedState> {
    let mut seen = HashSet::from([PackedState::INITIAL]);
    let mut work = VecDeque::from([PackedState::INITIAL]);
    let mut buf = Vec::new();
    while let Some(gs) = work.pop_front() {
        buf.clear();
        successors_into(spec, gs, n, &mut buf);
        for s in &buf {
            let key = s.to.canonical(n);
            if seen.insert(key) {
                work.push_back(key);
            }
        }
    }
    seen.into_iter().collect()
}

#[test]
fn counting_states_are_exactly_the_orbits_of_the_exact_set() {
    for name in PROTOCOL_NAMES {
        let spec = protocols::by_name(name).expect("listed protocol resolves");
        for n in 2..=4 {
            let mut orbits: HashMap<PackedState, u64> = HashMap::new();
            for gs in reachable_states(&spec, n, 1 << 20) {
                *orbits.entry(gs.canonical(n)).or_default() += 1;
            }
            for (&rep, &size) in &orbits {
                assert_eq!(
                    size,
                    orbit_size(rep, n),
                    "{name} n={n}: orbit of {} is incomplete",
                    rep.render(n, &spec)
                );
            }
            let counting = enumerate(&spec, &EnumOptions::new(n));
            assert_eq!(
                orbits.len(),
                counting.distinct,
                "{name} n={n}: orbit count vs counting enumeration"
            );
        }
    }
}

#[test]
fn orbit_sums_give_the_explicit_benchmark_counts() {
    for (name, n, exact) in [
        ("dragon", 14, 131_100u64),
        ("split-msi", 8, 408_121),
        ("split-mesi", 8, 425_617),
    ] {
        let spec = protocols::by_name(name).expect("library protocol");
        let reps = representatives(&spec, n);
        assert_eq!(
            reps.len(),
            enumerate(&spec, &EnumOptions::new(n)).distinct,
            "{name} n={n}: representatives vs counting enumeration"
        );
        let total: u64 = reps.iter().map(|&rep| orbit_size(rep, n)).sum();
        assert_eq!(total, exact, "{name} n={n}: summed orbit sizes");
    }
}
