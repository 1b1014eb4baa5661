//! E5 — the methodology applied to every protocol of Archibald &
//! Baer's study (the results the paper defers to tech report \[12\]),
//! plus MSI and MOESI.
//!
//! For each protocol: verdict, number of essential states, state
//! visits, the essential states themselves, and the explicit-state
//! count for 4 caches as a scale reference.
//!
//! Run: `cargo run --release -p ccv-bench --bin table_all_protocols`

use ccv_bench::Table;
use ccv_core::{global_graph, verify};
use ccv_enum::{enumerate, EnumOptions};
use ccv_model::protocols::all_correct;
use std::time::Instant;

fn main() {
    println!("== E5: symbolic verification of the full protocol suite ==\n");
    let mut table = Table::new(vec![
        "protocol",
        "|Q|",
        "F",
        "verdict",
        "essential",
        "visits",
        "explicit n=4",
        "time",
    ]);

    let mut details = String::new();
    for spec in all_correct() {
        let t0 = Instant::now();
        let v = verify(&spec);
        let elapsed = t0.elapsed();
        let explicit = enumerate(&spec, &EnumOptions::new(4).exact());
        table.row(vec![
            spec.name().to_string(),
            spec.num_states().to_string(),
            if spec.uses_sharing_detection() {
                "sharing".into()
            } else {
                "null".into()
            },
            v.verdict.to_string(),
            v.num_essential().to_string(),
            v.visits().to_string(),
            explicit.distinct.to_string(),
            format!("{elapsed:.2?}"),
        ]);
        details.push_str(&format!("\n{}:\n", spec.name()));
        let graph = global_graph(&spec, &v.expansion);
        for (i, s) in graph.states.iter().enumerate() {
            details.push_str(&format!("  s{i}: {}\n", s.render(&spec)));
        }
    }

    println!("{}", table.render());
    println!("essential states per protocol:{details}");
}
