//! Deeper structural properties of the symbolic engine, checked across
//! the whole protocol library.

use ccv_core::{
    global_graph, reference_expand, run_expansion, successors, verify_with, Batch, Composite,
    Expansion, Options, PathWriter, Pruning, Verdict,
};
use ccv_model::dsl::parse_protocol;
use ccv_model::mutate::single_mutants;
use ccv_model::{protocols, ProcEvent, ProtocolSpec};
use ccv_observe::json::escape_into;

/// Closure: every successor of every essential state is contained in
/// an essential state (Theorem 1 fixpoint).
fn assert_closed(spec: &ProtocolSpec, exp: &Expansion, what: &str) {
    let states = exp.essential_states();
    for s in &states {
        for t in successors(spec, s) {
            assert!(
                states.iter().any(|e| t.to.contained_in(e)),
                "{what}: successor of {} escapes the essential set",
                s.render(spec)
            );
        }
    }
}

#[test]
fn graphs_are_closed_and_rooted_for_every_protocol() {
    for spec in protocols::all_correct() {
        let exp = run_expansion(&spec, &Options::default());
        assert_closed(&spec, &exp, spec.name());
        let graph = global_graph(&spec, &exp);
        let n = graph.num_states();
        assert!(n >= 2, "{}", spec.name());

        // Rootedness: the initial state's family is covered, and every
        // essential state is reachable from it within the graph.
        let init = Composite::initial(&spec);
        let root = graph
            .states
            .iter()
            .position(|e| init.contained_in(e))
            .unwrap_or_else(|| panic!("{}: initial state uncovered", spec.name()));
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        seen[root] = true;
        while let Some(v) = stack.pop() {
            for e in graph.edges.iter().filter(|e| e.from == v) {
                if !seen[e.to] {
                    seen[e.to] = true;
                    stack.push(e.to);
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "{}: some essential state unreachable in the diagram",
            spec.name()
        );
    }

    // The closure also holds for every input that verifies: each
    // library protocol's single mutants and each protocol file.
    let mut batch = Batch::with_options(Options::default().max_visits(100_000));
    let mut closed = 0;
    for spec in protocols::all_correct() {
        for m in single_mutants(&spec) {
            let report = batch.verify(&m.spec);
            if report.verdict == Verdict::Verified {
                let what = format!("{}: {}", spec.name(), m.description);
                assert_closed(&m.spec, &report.expansion, &what);
                closed += 1;
            }
        }
    }
    assert!(closed > 0, "no single mutant verifies");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../protocols");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("protocols/ directory") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "ccv") {
            let text = std::fs::read_to_string(&path).unwrap();
            let spec = parse_protocol(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let report = batch.verify(&spec);
            if report.verdict == Verdict::Verified {
                assert_closed(&spec, &report.expansion, &path.display().to_string());
            }
            files += 1;
        }
    }
    assert!(files > 0, "no protocol files under {dir}");
}

#[test]
fn every_essential_state_has_all_three_events_available() {
    // Each essential state must expand under R, W and (for valid
    // classes) Z — the protocol FSM is input-enabled.
    for spec in protocols::all_correct() {
        let exp = run_expansion(&spec, &Options::default());
        for s in exp.essential_states() {
            let succ = successors(&spec, s);
            for e in [ProcEvent::Read, ProcEvent::Write] {
                assert!(
                    succ.iter().any(|t| t.label.event == e),
                    "{}: {} has no {e} successor",
                    spec.name(),
                    s.render(&spec)
                );
            }
        }
    }
}

#[test]
fn expansion_from_an_essential_state_stays_inside_the_family() {
    // Running the worklist from any essential state (instead of the
    // initial state) must not discover anything outside the original
    // essential families — reachability is closed.
    use ccv_core::engine::expand_from;
    for spec in [protocols::illinois(), protocols::dragon()] {
        let exp = run_expansion(&spec, &Options::default());
        let essential: Vec<Composite> = exp.essential_states().into_iter().cloned().collect();
        for start in &essential {
            let sub = expand_from(&spec, start.clone(), &Options::default());
            assert!(sub.is_clean(), "{}", spec.name());
            for s in sub.essential_states() {
                assert!(
                    essential.iter().any(|e| s.contained_in(e)),
                    "{}: expanding from {} reached {} outside the family",
                    spec.name(),
                    start.render(&spec),
                    s.render(&spec)
                );
            }
        }
    }
}

#[test]
fn verdicts_are_stable_across_visit_budgets() {
    // Shrinking the budget may turn a verdict Inconclusive, but never
    // flips Verified <-> Erroneous.
    for spec in protocols::all_correct() {
        for budget in [100usize, 1_000, 100_000] {
            let v = verify_with(&spec, &Options::default().max_visits(budget));
            assert_ne!(
                v.verdict,
                Verdict::Erroneous,
                "{} with budget {budget}",
                spec.name()
            );
        }
    }
    for (spec, _) in protocols::all_buggy() {
        for budget in [1_000usize, 100_000] {
            let v = verify_with(&spec, &Options::default().max_visits(budget));
            assert_ne!(
                v.verdict,
                Verdict::Verified,
                "{} with budget {budget}",
                spec.name()
            );
        }
    }
}

#[test]
fn tiny_budget_is_reported_inconclusive() {
    let v = verify_with(&protocols::illinois(), &Options::default().max_visits(2));
    assert_eq!(v.verdict, Verdict::Inconclusive);
}

#[test]
fn essential_states_are_mutually_incomparable() {
    // Definition 10: essential states are not contained in one another.
    for spec in protocols::all_correct() {
        let exp = run_expansion(&spec, &Options::default());
        let ess = exp.essential_states();
        for (i, a) in ess.iter().enumerate() {
            for (j, b) in ess.iter().enumerate() {
                if i != j {
                    assert!(
                        !a.contained_in(b),
                        "{}: {} ⊆ {}",
                        spec.name(),
                        a.render(&spec),
                        b.render(&spec)
                    );
                }
            }
        }
    }
}

/// Sorted paper-notation renderings of an expansion's essential set.
fn rendered_essential(spec: &ccv_model::ProtocolSpec, exp: &Expansion) -> Vec<String> {
    let mut v: Vec<String> = exp
        .essential_states()
        .iter()
        .map(|c| c.render(spec))
        .collect();
    v.sort();
    v
}

#[test]
fn indexed_engine_matches_the_naive_reference_on_every_protocol() {
    // Differential test of the rearchitected core: the interned,
    // index-backed engine against the retained naive engine
    // (linear scans, allocating successors), on all ten protocols and
    // both pruning modes. Everything observable must coincide.
    for spec in protocols::all_correct() {
        for pruning in [Pruning::Containment, Pruning::Equality] {
            let opts = Options::default().pruning(pruning);
            let fast = run_expansion(&spec, &opts);
            let naive = reference_expand(&spec, &opts);
            let tag = format!("{} ({pruning:?})", spec.name());
            assert_eq!(fast.visits, naive.visits, "{tag}: visits");
            assert_eq!(fast.successors, naive.successors, "{tag}: successors");
            assert_eq!(fast.expanded, naive.expanded, "{tag}: expansions");
            assert_eq!(fast.truncated, naive.truncated, "{tag}: truncation");
            assert_eq!(fast.errors.len(), naive.errors.len(), "{tag}: errors");
            assert_eq!(
                rendered_essential(&spec, &fast),
                rendered_essential(&spec, &naive),
                "{tag}: essential sets diverge"
            );
        }
    }
}

#[test]
fn indexed_engine_matches_the_reference_on_every_buggy_mutant() {
    // Same differential on the mutants: counts, essential sets, error
    // findings and the rendered counterexample paths must be
    // byte-identical (both engines discover states in the same order).
    for (spec, why) in protocols::all_buggy() {
        for pruning in [Pruning::Containment, Pruning::Equality] {
            let opts = Options::default().pruning(pruning);
            let fast = run_expansion(&spec, &opts);
            let naive = reference_expand(&spec, &opts);
            let tag = format!("{} ({pruning:?}, {why})", spec.name());
            assert!(!fast.errors.is_empty(), "{tag}: bug not found");
            assert_eq!(fast.visits, naive.visits, "{tag}: visits");
            assert_eq!(fast.successors, naive.successors, "{tag}: successors");
            assert_eq!(
                rendered_essential(&spec, &fast),
                rendered_essential(&spec, &naive),
                "{tag}: essential sets diverge"
            );
            assert_eq!(fast.errors.len(), naive.errors.len(), "{tag}: errors");
            for (a, b) in fast.errors.iter().zip(&naive.errors) {
                assert_eq!(a.node, b.node, "{tag}: error node");
                assert_eq!(a.step_errors, b.step_errors, "{tag}: step errors");
                assert_eq!(
                    fast.render_path(&spec, a.node),
                    naive.render_path(&spec, b.node),
                    "{tag}: counterexample paths diverge"
                );
            }
        }
    }
}

#[test]
fn illinois_expansion_is_bit_identical_to_the_reference() {
    // The acceptance pin: 22 expansion steps, 5 essential states, and
    // the full recorded trace byte-identical between the engines.
    let spec = protocols::illinois();
    let opts = Options::default().record_trace(true);
    let fast = run_expansion(&spec, &opts);
    let naive = reference_expand(&spec, &opts);
    assert_eq!(fast.visits, 22);
    assert_eq!(fast.essential.len(), 5);
    assert_eq!(naive.visits, 22);
    assert_eq!(naive.essential.len(), 5);
    assert_eq!(fast.trace.len(), naive.trace.len());
    for (a, b) in fast.trace.iter().zip(&naive.trace) {
        assert_eq!(a.from, b.from);
        assert_eq!(a.label, b.label);
        assert_eq!(a.to, b.to);
        assert_eq!(a.disposition, b.disposition);
    }
}

#[test]
fn error_reports_render_identically_to_the_reference() {
    // Every finding's descriptions and counterexample path, as the
    // shared `PathWriter` writes them into CLI output and serve bodies,
    // must equal what the naive engine renders node by node: raw, and
    // JSON-escaped for the bodies. The corpus is every library mutant
    // and every erroneous single mutant of Illinois and split-MESI,
    // `split-mesi#38` (16,437 findings) among them.
    let mut corpus: Vec<ProtocolSpec> =
        protocols::all_buggy().into_iter().map(|(s, _)| s).collect();
    for root in [protocols::illinois(), protocols::split_mesi()] {
        corpus.extend(single_mutants(&root).into_iter().map(|m| m.spec));
    }
    let mut batch = Batch::new();
    let mut erroneous = 0;
    for spec in &corpus {
        let v = batch.verify(spec);
        if v.verdict != Verdict::Erroneous {
            continue;
        }
        erroneous += 1;
        let naive = reference_expand(spec, &Options::default());
        assert_eq!(
            v.expansion.errors.len(),
            naive.errors.len(),
            "{}",
            spec.name()
        );
        let mut raw = PathWriter::new(&v.expansion, spec);
        let mut json = PathWriter::json(&v.expansion, spec);
        for (f, g) in v.expansion.errors.iter().zip(&naive.errors) {
            let mut want: Vec<String> = g.violations.iter().map(|x| x.describe(spec)).collect();
            want.extend(g.step_errors.iter().map(|e| e.to_string()));
            assert_eq!(f.descriptions(spec), want, "{}", spec.name());
            let path = naive.render_path(spec, g.node);
            let mut got = String::from("x");
            raw.write(f.node, &mut got);
            assert_eq!(got[1..], path, "{}", spec.name());
            assert_eq!(raw.len(f.node), path.len(), "{}", spec.name());
            let mut escaped = String::new();
            escape_into(&mut escaped, &path);
            let mut got = String::new();
            json.write(f.node, &mut got);
            assert_eq!(got, escaped[1..escaped.len() - 1], "{}", spec.name());
            assert_eq!(json.len(f.node), got.len(), "{}", spec.name());
        }
    }
    // 11 library mutants, 36 Illinois and 45 split-MESI single mutants.
    assert_eq!(erroneous, 92, "erroneous protocols compared");
}

#[test]
fn dirty_states_appear_with_stale_memory_only() {
    // Protocol-generic invariant of the library's write-back designs:
    // whenever an owned class is populated in an essential state,
    // memory is stale — except for protocols where owners and memory
    // can agree (never happens in this library's write-back set).
    use ccv_model::MData;
    for name in ["msi", "illinois", "berkeley", "moesi", "dragon"] {
        let spec = protocols::by_name(name).unwrap();
        let exp = run_expansion(&spec, &Options::default());
        for s in exp.essential_states() {
            let has_owner = s.classes().iter().any(|(k, _)| spec.attrs(k.state).owned);
            if has_owner {
                assert_eq!(
                    s.mdata,
                    MData::Obsolete,
                    "{name}: owned copy with fresh memory in {}",
                    s.render(&spec)
                );
            }
        }
    }
}
