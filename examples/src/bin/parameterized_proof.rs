//! The point of the paper, demonstrated: one symbolic run is a proof
//! for *every* machine size.
//!
//! Classical model checking verifies "Illinois is correct for n = 4
//! caches" and leaves "what about n = 5?" open (§3.2: "It is not clear
//! at first that a protocol correct for a system with n caches would
//! also be correct for a system with n' caches"). The symbolic
//! expansion answers the question once: its essential states describe
//! systems with an arbitrary number of caches.
//!
//! This example (a) runs the symbolic proof once, (b) enumerates the
//! explicit state space for n = 1..=7 and confirms — state by state —
//! that everything reachable at each size is inside the five symbolic
//! families, and (c) shows the explicit space growing without bound
//! while the symbolic description stays put.
//!
//! Run: `cargo run --release -p ccv-examples --bin parameterized_proof`

use ccv_core::{crosscheck, run_expansion, Options};
use ccv_enum::{enumerate, EnumOptions};
use ccv_model::protocols;

fn main() {
    let spec = protocols::illinois();

    // (a) One symbolic run.
    let exp = run_expansion(&spec, &Options::default());
    assert!(exp.is_clean());
    let essential = exp.essential_states();
    println!(
        "symbolic proof: {} visits, {} essential states:",
        exp.visits,
        essential.len()
    );
    for s in &essential {
        println!("  {}", s.render(&spec));
    }

    // (b) + (c) Explicit spaces, covered size by size.
    println!(
        "\n{:<4} {:>16} {:>10} {:>10}",
        "n", "explicit states", "covered", "symbolic"
    );
    for n in 1..=7 {
        let cc = crosscheck(&spec, n, &essential, 1 << 24);
        let distinct = enumerate(&spec, &EnumOptions::new(n).exact()).distinct;
        assert!(cc.complete(), "coverage gap at n={n}");
        println!(
            "{:<4} {:>16} {:>10} {:>10}",
            n,
            distinct,
            format!("{}/{}", cc.covered, cc.total_concrete),
            essential.len()
        );
    }

    println!("\nThe right-hand column never moves: the five essential states are a");
    println!("proof for every machine size, including the ones we did not enumerate.");
}
