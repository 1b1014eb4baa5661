//! E6 — error detection: every seeded protocol bug is rejected.
//!
//! The point of a verifier is the protocols it *rejects*. Each mutant
//! in the library models one plausible implementation bug (a dropped
//! invalidation, a forgotten write-back, a mis-wired SharedLine, …).
//! For each: the symbolic verdict, the kind of violation detected
//! (structural contradiction vs pure data inconsistency), the length
//! of the counterexample, and the counterexample path itself.
//!
//! Run: `cargo run --release -p ccv-bench --bin table_bug_detection`

use ccv_bench::Table;
use ccv_core::verify;
use ccv_model::protocols::all_buggy;

fn main() {
    println!("== E6: seeded-bug detection ==\n");
    let mut table = Table::new(vec![
        "mutant",
        "seeded bug",
        "verdict",
        "findings",
        "path len",
    ]);
    let mut paths = String::new();

    let mut all_rejected = true;
    for (spec, why) in all_buggy() {
        let v = verify(&spec);
        let rejected = v.verdict == ccv_core::Verdict::Erroneous;
        all_rejected &= rejected;
        let first = v.expansion.errors.first();
        let path = first.map(|f| v.expansion.render_path(&spec, f.node));
        let path_len = path.as_ref().map_or(0, |p| p.matches("-->").count());
        table.row(vec![
            spec.name().to_string(),
            why.to_string(),
            v.verdict.to_string(),
            first
                .map(|f| f.descriptions(&spec).join("; "))
                .unwrap_or_else(|| "-".into()),
            path_len.to_string(),
        ]);
        if let Some(path) = path {
            paths.push_str(&format!("\n{}:\n  {path}\n", spec.name()));
        }
    }

    println!("{}", table.render());
    println!("counterexamples:{paths}");
    if all_rejected {
        println!("all mutants rejected — no false negatives.");
    } else {
        println!("A MUTANT SLIPPED THROUGH — verifier unsound for that case.");
        std::process::exit(1);
    }
}
