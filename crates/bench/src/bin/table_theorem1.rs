//! E7 — Theorem 1: completeness of the essential states.
//!
//! For every protocol and `n = 1..=6` caches, enumerate the explicit
//! reachable set (with full data augmentation) and check that every
//! concrete state is covered by some symbolic essential state. The
//! paper proves this (Theorem 1); this harness *measures* it on both
//! implementations simultaneously, so a bug in either engine shows up
//! as an uncovered state.
//!
//! Run: `cargo run --release -p ccv-bench --bin table_theorem1 [max_n]`

use ccv_bench::Table;
use ccv_core::{crosscheck, run_expansion, Options};
use ccv_model::protocols::all_correct;

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    println!("== E7: Theorem 1 cross-validation (symbolic covers explicit) ==\n");
    let mut table = Table::new(vec![
        "protocol",
        "essential",
        "n",
        "concrete states",
        "covered",
        "complete",
    ]);

    let mut all_ok = true;
    for spec in all_correct() {
        let exp = run_expansion(&spec, &Options::default());
        let essential = exp.essential_states();
        for n in 1..=max_n {
            let cc = crosscheck(&spec, n, &essential, 1 << 24);
            all_ok &= cc.complete();
            table.row(vec![
                spec.name().to_string(),
                essential.len().to_string(),
                n.to_string(),
                cc.total_concrete.to_string(),
                cc.covered.to_string(),
                if cc.complete() {
                    "yes".to_string()
                } else {
                    format!("NO: {:?}", cc.uncovered_examples)
                },
            ]);
        }
    }

    println!("{}", table.render());
    if all_ok {
        println!("Theorem 1 holds on every protocol and cache count tested.");
    } else {
        println!("COVERAGE GAP FOUND — one of the engines is wrong.");
        std::process::exit(1);
    }
}
