//! E1 + E2 — Figure 4 of the paper: the Illinois global transition
//! diagram over essential states, and the context-variable table
//! (sharing-detection value, `cdata`, `mdata` per state).
//!
//! Run: `cargo run --release -p ccv-bench --bin fig4_illinois`

use ccv_bench::{Table, FIG4_TABLE};
use ccv_core::{global_graph, run_expansion, verify, FVal, Options};
use ccv_model::{protocols, CData};

fn main() {
    let spec = protocols::illinois();
    let report = verify(&spec);
    let graph = global_graph(&spec, &report.expansion);
    println!("== Figure 4: the global transition diagram for the Illinois protocol ==\n");
    println!(
        "verdict: {}   essential states: {}   state visits: {}\n",
        report.verdict,
        report.num_essential(),
        report.visits()
    );

    // --- Vertices -------------------------------------------------------
    println!("essential states:");
    for (i, s) in graph.states.iter().enumerate() {
        println!("  s{i}: {}", s.render(&spec));
    }
    println!();

    // --- Edges (grouped, paper-style labels) -----------------------------
    println!("transitions:");
    for (from, to, labels) in graph.grouped_edges() {
        println!("  s{from} --[{}]--> s{to}", labels.join(", "));
    }
    println!();

    // --- The Fig. 4 context-variable table -------------------------------
    let mut table = Table::new(vec!["state", "sharing(F)", "cdata", "mdata"]);
    for s in &graph.states {
        let f = match s.f {
            FVal::Null => "-".to_string(),
            other => other.to_string(),
        };
        // Valid classes first (their cdata), then the invalid class's
        // `nodata`, matching the paper's per-class listing.
        let mut cdatas: Vec<&str> = s
            .classes()
            .iter()
            .filter(|(k, _)| !k.state.is_invalid())
            .map(|(k, _)| k.cdata.label())
            .collect();
        if s.classes().iter().any(|(k, _)| k.state.is_invalid()) {
            cdatas.push(CData::NoData.label());
        }
        table.row(vec![
            s.render(&spec),
            f,
            format!("({})", cdatas.join(", ")),
            s.mdata.to_string(),
        ]);
    }
    println!("{}", table.render());

    // --- Check against the paper's published rows -------------------------
    let expansion = run_expansion(&spec, &Options::default());
    let rendered: Vec<String> = expansion
        .essential_states()
        .iter()
        .map(|c| c.render(&spec))
        .collect();
    let mut ok = true;
    for (state, f, cdata, mdata) in FIG4_TABLE {
        if !rendered.contains(&state.to_string()) {
            println!("MISSING paper state {state}");
            ok = false;
            continue;
        }
        let s = expansion
            .essential_states()
            .into_iter()
            .find(|c| c.render(&spec) == *state)
            .unwrap()
            .clone();
        let f_ok = s.f.to_string() == *f;
        let m_ok = s.mdata.to_string() == *mdata;
        let c_ok = s
            .classes()
            .iter()
            .filter(|(k, _)| !k.state.is_invalid())
            .all(|(k, _)| cdata.contains(k.cdata.label()));
        if !(f_ok && m_ok && c_ok) {
            println!("MISMATCH at {state}: F/cdata/mdata differ from the paper");
            ok = false;
        }
    }
    println!(
        "paper comparison: {} (5 essential states, F values, cdata and mdata all {})",
        if ok { "EXACT MATCH" } else { "MISMATCH" },
        if ok { "as published" } else { "differ" },
    );

    // --- DOT output -------------------------------------------------------
    println!("\n-- graphviz --\n{}", graph.to_dot(&spec));
}
