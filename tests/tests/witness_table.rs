//! Every witness replays, and stays as short as the exact-tuple
//! search that preceded the counting one found it.
//!
//! The tables record, per named mutant, the `(n, steps)` of its
//! shortest violation scenario and, per library protocol and
//! essential state (in `essential_states()` order), the `(n, steps)`
//! of its shortest reachability witness, as a breadth-first search
//! over exact cache tuples found them. A search over orbit
//! representatives must match each one, except that a family holding
//! the all-invalid initial state is now witnessed by that state
//! itself, in zero steps at one cache.

use ccv_core::{concrete_covered_by, find_state_witness, run_expansion, Options};
use ccv_enum::{
    find_violation_witness, is_violating, successors_into, EnumOptions, PackedState, Witness,
    WitnessSearch,
};
use ccv_model::protocols::{all_buggy, by_name};
use ccv_model::ProtocolSpec;

/// `(mutant, n, steps)` of each violation witness, in `all_buggy()` order.
const VIOLATIONS: &[(&str, usize, usize)] = &[
    ("Illinois/missing-invalidation", 2, 3),
    ("Illinois/missing-writeback", 1, 3),
    ("Illinois/wrong-exclusive-fill", 2, 2),
    ("Illinois/dirty-no-flush-on-read", 2, 5),
    ("Synapse/dirty-ignores-busrd", 2, 2),
    ("Berkeley/owner-dropped", 2, 4),
    ("Dragon/missing-update", 2, 3),
    ("Firefly/missing-writethrough", 2, 6),
    ("Write-Once/missing-writethrough", 1, 4),
    ("Split-MSI/upgrade-race-lost", 2, 7),
    ("Split-MSI/ignores-readx", 2, 5),
];

/// `(protocol, [(n, steps)])` of each essential state's witness.
const STATES: &[(&str, &[(usize, usize)])] = &[
    ("write-through", &[(1, 1), (1, 2)]),
    ("msi", &[(1, 1), (1, 1), (1, 2)]),
    ("illinois", &[(1, 2), (1, 1), (1, 1), (2, 2), (2, 3)]),
    ("mesi-mem", &[(1, 2), (1, 1), (1, 1), (2, 2), (2, 3)]),
    ("write-once", &[(1, 1), (1, 1), (1, 2), (1, 2)]),
    ("synapse", &[(1, 1), (1, 1), (1, 2)]),
    ("berkeley", &[(1, 1), (1, 1), (1, 2), (2, 2), (2, 3)]),
    ("firefly", &[(1, 2), (1, 1), (1, 1), (2, 2), (2, 3)]),
    (
        "dragon",
        &[(1, 2), (1, 1), (1, 1), (2, 2), (2, 2), (2, 3), (2, 3)],
    ),
    (
        "moesi",
        &[(1, 2), (1, 1), (1, 1), (2, 2), (2, 3), (2, 2), (2, 3)],
    ),
    (
        "split-msi",
        &[(1, 2), (1, 3), (1, 2), (1, 1), (1, 3), (1, 1)],
    ),
    (
        "split-mesi",
        &[
            (2, 4),
            (1, 1),
            (1, 1),
            (1, 3),
            (2, 5),
            (1, 2),
            (2, 6),
            (1, 2),
            (2, 5),
            (2, 6),
            (2, 6),
            (2, 7),
            (2, 7),
        ],
    ),
];

/// Steps `w` again from the initial state: each step must be a
/// concrete successor of the state before it, with the recorded
/// problems. Returns the final state.
fn replay(spec: &ProtocolSpec, w: &Witness) -> PackedState {
    let mut state = PackedState::INITIAL;
    let mut buf = Vec::new();
    for step in &w.steps {
        buf.clear();
        successors_into(spec, state, w.n, &mut buf);
        let s = buf
            .iter()
            .find(|s| (s.cache, s.event, s.to) == (step.cache, step.event, step.after))
            .unwrap_or_else(|| panic!("{}: {step:?} does not replay", spec.name()));
        let carries = !s.errors.is_empty() || is_violating(spec, s.to, w.n);
        assert_eq!(
            carries,
            !step.problems.is_empty(),
            "{}: {step:?}",
            spec.name()
        );
        state = s.to;
    }
    state
}

#[test]
fn every_violation_witness_replays_at_its_recorded_size_and_length() {
    let buggy = all_buggy();
    assert_eq!(buggy.len(), VIOLATIONS.len());
    for ((spec, _), &(name, n, len)) in buggy.iter().zip(VIOLATIONS) {
        assert_eq!(spec.name(), name);
        let opts = EnumOptions::new(4).max_states(1 << 22);
        let w = match find_violation_witness(spec, &opts) {
            WitnessSearch::Found(w) => w,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!((w.n, w.steps.len()), (n, len), "{name}");
        replay(spec, &w);
        assert!(w.ends_in_violation(), "{name}");
    }
}

#[test]
fn every_state_witness_replays_into_its_family_at_its_recorded_size_and_length() {
    let opts = EnumOptions::new(3).max_states(1 << 20);
    for &(name, table) in STATES {
        let spec = by_name(name).unwrap();
        let exp = run_expansion(&spec, &Options::default());
        let essential = exp.essential_states();
        assert_eq!(essential.len(), table.len(), "{name}");
        for (target, &recorded) in essential.iter().zip(table) {
            let at = format!("{name} {}", target.render(&spec));
            let w = match find_state_witness(&spec, target, &opts) {
                WitnessSearch::Found(w) => w,
                other => panic!("{at}: {other:?}"),
            };
            let initial = concrete_covered_by(&spec, PackedState::INITIAL, 1, target);
            let expected = if initial { (1, 0) } else { recorded };
            assert_eq!((w.n, w.steps.len()), expected, "{at}");
            let end = replay(&spec, &w);
            assert!(concrete_covered_by(&spec, end, w.n, target), "{at}");
        }
    }
}
