//! Integration tests over the whole protocol suite (E5, E6).

use ccv_core::{verify, verify_with, Batch, Options, Pruning, Verdict};
use ccv_model::protocols::{all_buggy, all_correct, by_name, PROTOCOL_NAMES};

#[test]
fn every_correct_protocol_is_verified() {
    for spec in all_correct() {
        let v = verify(&spec);
        assert_eq!(v.verdict, Verdict::Verified, "{}", spec.name());
        assert!(v.expansion.errors.is_empty(), "{}", spec.name());
    }
}

#[test]
fn essential_state_counts_are_stable() {
    // Snapshot of the per-protocol result (the tech-report [12] style
    // table). A change here is a semantic change to a protocol spec or
    // to the engine and must be deliberate.
    let expected = [
        ("write-through", 2),
        ("MSI", 3),
        ("mesi-mem", 5),
        ("Illinois", 5),
        ("Write-Once", 4),
        ("Synapse", 3),
        ("Berkeley", 5),
        ("Firefly", 5),
        ("Dragon", 7),
        ("MOESI", 7),
        ("split-msi", 6),
        ("split-mesi", 13),
    ];
    for (name, count) in expected {
        let spec = by_name(name).unwrap();
        let v = verify(&spec);
        assert_eq!(
            v.num_essential(),
            count,
            "{name}: essential-state count changed"
        );
    }
}

#[test]
fn every_buggy_mutant_is_rejected_with_a_counterexample() {
    for (spec, why) in all_buggy() {
        let v = verify(&spec);
        assert_eq!(v.verdict, Verdict::Erroneous, "{} ({why})", spec.name());
        let f = &v.expansion.errors[0];
        assert!(!f.descriptions(&spec).is_empty());
        let path = v.expansion.render_path(&spec, f.node);
        assert!(
            path.starts_with("(Inv+)"),
            "{}: counterexample must start at the initial state: {path}",
            spec.name()
        );
    }
}

#[test]
fn equality_pruning_reaches_the_same_verdicts() {
    // Run the ablation through a batch session — doubles as coverage
    // that batches honour non-default options.
    let mut batch = Batch::with_options(Options::default().pruning(Pruning::Equality));
    for spec in all_correct() {
        assert_eq!(
            batch.summarize(&spec).verdict,
            Verdict::Verified,
            "{}",
            spec.name()
        );
    }
    for (spec, _) in all_buggy() {
        assert_eq!(
            batch.summarize(&spec).verdict,
            Verdict::Erroneous,
            "{}",
            spec.name()
        );
    }
}

#[test]
fn containment_never_visits_more_than_equality() {
    for spec in all_correct() {
        let full = verify(&spec);
        let eq = verify_with(&spec, &Options::default().pruning(Pruning::Equality));
        assert!(
            full.visits() <= eq.visits(),
            "{}: containment {} > equality {}",
            spec.name(),
            full.visits(),
            eq.visits()
        );
        assert!(
            full.num_essential() <= eq.num_essential(),
            "{}",
            spec.name()
        );
    }
}

#[test]
fn registry_names_resolve_and_roundtrip() {
    for name in PROTOCOL_NAMES {
        let spec = by_name(name).unwrap_or_else(|| panic!("{name}"));
        // The verifier must terminate on every registry entry.
        let v = verify(&spec);
        assert!(matches!(v.verdict, Verdict::Verified | Verdict::Erroneous));
    }
}

#[test]
fn buggy_counterexamples_are_short() {
    // Breadth-first exploration should find minimal-ish witnesses;
    // guard against regressions that bury the bug behind dozens of
    // steps.
    for (spec, _) in all_buggy() {
        let v = verify(&spec);
        let path = v.expansion.render_path(&spec, v.expansion.errors[0].node);
        let len = path.matches("-->").count();
        assert!(
            len <= 8,
            "{}: counterexample unexpectedly long ({len} steps)",
            spec.name()
        );
    }
}
