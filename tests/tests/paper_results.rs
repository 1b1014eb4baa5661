//! Integration tests pinning the paper's published results (E1–E3).
//!
//! These are the exactness tests of the reproduction: §4.0 and Fig. 4
//! of Pong & Dubois (SPAA'93) for the Illinois protocol, and the
//! Appendix A.2 transition listing.

use ccv_core::{global_graph, run_expansion, verify, FVal, Options, Verdict};
use ccv_model::{protocols, CData, MData};

/// The five essential states of Fig. 4, in our renderer's notation.
const FIG4_STATES: [&str; 5] = [
    "(Inv+)",
    "(V-Ex, Inv*)",
    "(Dirty, Inv*)",
    "(Shared+, Inv*)",
    "(Shared, Inv+)",
];

#[test]
fn illinois_verifies_with_exactly_five_essential_states() {
    let spec = protocols::illinois();
    let report = verify(&spec);
    assert_eq!(report.verdict, Verdict::Verified);
    let rendered: Vec<String> = global_graph(&spec, &report.expansion)
        .states
        .iter()
        .map(|s| s.render(&spec))
        .collect();
    assert_eq!(rendered.len(), 5);
    for s in FIG4_STATES {
        assert!(
            rendered.contains(&s.to_string()),
            "missing {s}: {rendered:?}"
        );
    }
}

#[test]
fn figure_4_context_variable_table_matches() {
    // state -> (F, mdata, all valid classes fresh)
    let expected: [(&str, FVal, MData); 5] = [
        ("(Inv+)", FVal::V1, MData::Fresh),
        ("(V-Ex, Inv*)", FVal::V2, MData::Fresh),
        ("(Dirty, Inv*)", FVal::V2, MData::Obsolete),
        ("(Shared+, Inv*)", FVal::V3, MData::Fresh),
        ("(Shared, Inv+)", FVal::V2, MData::Fresh),
    ];
    let spec = protocols::illinois();
    let exp = run_expansion(&spec, &Options::default());
    for (name, f, mdata) in expected {
        let state = exp
            .essential_states()
            .into_iter()
            .find(|c| c.render(&spec) == name)
            .unwrap_or_else(|| panic!("{name} not found"))
            .clone();
        assert_eq!(state.f, f, "{name}: F");
        assert_eq!(state.mdata, mdata, "{name}: mdata");
        for (k, _) in state.classes() {
            if !k.state.is_invalid() {
                assert_eq!(k.cdata, CData::Fresh, "{name}: every copy fresh");
            }
        }
    }
}

#[test]
fn appendix_a2_transitions_all_reproduced() {
    // The paper's 22-step expansion listing, with N-step superscripts
    // folded into plain labels.
    let paper: &[(&str, &str, &str)] = &[
        ("(Inv+)", "W_inv", "(Dirty, Inv*)"),
        ("(Inv+)", "R_inv", "(V-Ex, Inv*)"),
        ("(Dirty, Inv*)", "Z_dirty", "(Inv+)"),
        ("(Dirty, Inv*)", "R_dirty", "(Dirty, Inv*)"),
        ("(Dirty, Inv*)", "W_dirty", "(Dirty, Inv*)"),
        ("(Dirty, Inv*)", "W_inv", "(Dirty, Inv*)"),
        ("(Dirty, Inv*)", "R_inv", "(Shared+, Inv*)"),
        ("(V-Ex, Inv*)", "Z_v-ex", "(Inv+)"),
        ("(V-Ex, Inv*)", "R_v-ex", "(V-Ex, Inv*)"),
        ("(V-Ex, Inv*)", "W_v-ex", "(Dirty, Inv*)"),
        ("(V-Ex, Inv*)", "W_inv", "(Dirty, Inv*)"),
        ("(V-Ex, Inv*)", "R_inv", "(Shared+, Inv*)"),
        ("(Shared+, Inv*)", "Z_shared", "(Shared, Inv+)"),
        ("(Shared+, Inv*)", "W_shared", "(Dirty, Inv*)"),
        ("(Shared+, Inv*)", "R_shared", "(Shared+, Inv*)"),
        ("(Shared+, Inv*)", "W_inv", "(Dirty, Inv*)"),
        ("(Shared+, Inv*)", "R_inv", "(Shared+, Inv*)"),
        ("(Shared, Inv+)", "Z_shared", "(Inv+)"),
        ("(Shared, Inv+)", "W_shared", "(Dirty, Inv*)"),
        ("(Shared, Inv+)", "R_shared", "(Shared, Inv+)"),
        ("(Shared, Inv+)", "W_inv", "(Dirty, Inv+)"),
        ("(Shared, Inv+)", "R_inv", "(Shared+, Inv*)"),
    ];
    assert_eq!(paper.len(), 22, "the paper reports 22 state visits");

    let spec = protocols::illinois();
    let opts = Options::default().record_trace(true);
    let exp = run_expansion(&spec, &opts);
    let graph = global_graph(&spec, &exp);
    let render = |i: usize| graph.states[i].render(&spec);

    for (from, label, to) in paper {
        let in_graph = graph
            .edges
            .iter()
            .any(|e| render(e.from) == *from && e.label == *label && render(e.to) == *to);
        let in_trace = exp.trace.iter().any(|v| {
            v.from.render(&spec) == *from
                && v.label.render(&spec) == *label
                && v.to.render(&spec) == *to
        });
        assert!(
            in_graph || in_trace,
            "paper transition {from} --{label}--> {to} not reproduced"
        );
    }
}

#[test]
fn our_visit_count_matches_the_papers_22() {
    // A visit is one rule firing; a firing whose interval arithmetic
    // splits into several successor categories still counts once,
    // matching the paper's N-step-rule bookkeeping exactly.
    let spec = protocols::illinois();
    let exp = run_expansion(&spec, &Options::default());
    assert_eq!(
        exp.visits, 22,
        "visit count drifted from the paper's Appendix A.2"
    );
    assert!(
        exp.successors >= exp.visits,
        "category splits can only add successors"
    );
}

#[test]
fn expansion_is_deterministic() {
    let spec = protocols::illinois();
    let a = run_expansion(&spec, &Options::default());
    let b = run_expansion(&spec, &Options::default());
    assert_eq!(a.visits, b.visits);
    assert_eq!(
        a.essential_states()
            .iter()
            .map(|c| c.render(&spec))
            .collect::<Vec<_>>(),
        b.essential_states()
            .iter()
            .map(|c| c.render(&spec))
            .collect::<Vec<_>>()
    );
}

#[test]
fn the_global_diagram_is_strongly_connected() {
    // Definition 1 requires the local FSM to be strongly connected;
    // the induced global diagram over essential states inherits the
    // property for every shipped protocol.
    for spec in protocols::all_correct() {
        let graph = global_graph(&spec, &verify(&spec).expansion);
        let n = graph.num_states();
        let edges: Vec<(usize, usize)> = graph.edges.iter().map(|e| (e.from, e.to)).collect();
        assert!(
            ccv_model::strongly_connected(n, &edges),
            "{}: global diagram not strongly connected",
            spec.name()
        );
    }
}
