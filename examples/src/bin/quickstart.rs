//! Quickstart: verify the Illinois protocol in a dozen lines.
//!
//! Reproduces §4.0 of Pong & Dubois (SPAA'93): starting from
//! `(Invalid⁺)`, the symbolic expansion reaches five essential states
//! and proves the protocol keeps data consistent for **any** number of
//! caches.
//!
//! Run: `cargo run -p ccv-examples --bin quickstart`

use ccv_core::{global_graph, verify, Verdict};
use ccv_model::protocols;

fn main() {
    // 1. Pick a protocol from the library (or build your own with
    //    ccv_model::SpecBuilder — see the custom_protocol example).
    let spec = protocols::illinois();

    // 2. Verify: symbolic reachability over composite states.
    let report = verify(&spec);

    // 3. Inspect the result, and draw the global diagram (Fig. 4)
    //    over the essential states.
    let graph = global_graph(&spec, &report.expansion);
    println!("protocol : {}", report.protocol);
    println!("verdict  : {}", report.verdict);
    println!(
        "explored : {} state visits -> {} essential states",
        report.visits(),
        report.num_essential()
    );
    println!("\nessential states (valid for ANY number of caches):");
    for (i, s) in graph.states.iter().enumerate() {
        println!("  s{i}: {}", s.render(&spec));
    }

    println!("\nglobal transition diagram:");
    for (from, to, labels) in graph.grouped_edges() {
        println!("  s{from} --[{}]--> s{to}", labels.join(", "));
    }

    assert_eq!(report.verdict, Verdict::Verified);
    assert_eq!(report.num_essential(), 5, "the paper's Figure 4");
    println!("\nIllinois is coherent for any number of caches. ∎");
}
