//! # ccv-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (and
//! the companion experiments listed in `DESIGN.md` §4). Each
//! experiment is a binary under `src/bin/` that prints the artifact:
//!
//! | binary | experiment | paper artifact |
//! |--------|-----------|----------------|
//! | `fig4_illinois` | E1, E2 | Fig. 4 — Illinois global transition diagram + context-variable table |
//! | `appendix_a2_trace` | E3 | Appendix A.2 — the symbolic expansion trace |
//! | `table_explosion` | E4 | §3.1 — state-space explosion vs the symbolic method |
//! | `table_all_protocols` | E5 | TR \[12\] — essential states for every protocol of Archibald & Baer |
//! | `table_bug_detection` | E6 | Def. 3 — every seeded mutant is rejected with a counterexample |
//! | `table_theorem1` | E7 | Theorem 1 — symbolic completeness vs explicit enumeration |
//! | `table_simulation` | E8 | operational sanity — verified specs run coherently |
//! | `table_ablation` | E9 | ablation — containment pruning vs equality pruning |
//! | `fig1_local_fsm` | E0 | Fig. 1 — the per-cache transition diagram |
//! | `table_mutation_sweep` | E10 | mutation testing of the verifier / design slack |
//! | `table_cost_sweep` | E11 | line-size sensitivity of the E8 comparison |
//! | `table_recovery` | E12 | recovery analysis / invariant strength |
//!
//! `bench_snapshot` is not an experiment: it is the CI throughput
//! regression gate against `BENCH_PR7.json` (`docs/perf.md` §5).
//!
//! This library crate holds the small shared helpers: an aligned text
//! table printer and the paper's reference data (the 22 transitions of
//! Appendix A.2, the Fig. 4 table rows).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let pad = width[i] - c.chars().count();
                let _ = write!(out, "{}{}", c, " ".repeat(pad));
                if i + 1 < cells.len() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &width, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            fmt_row(r, &width, &mut out);
        }
        out
    }
}

/// A transition of the paper's Appendix A.2 expansion listing:
/// `(from, label, to)` in the rendering produced by
/// `Composite::render` / `Label::render` for the Illinois protocol.
/// `R^n`/`Rep^n` superscripts are dropped — the interval engine folds
/// N-step rules into single steps (DESIGN.md §3.2).
pub const APPENDIX_A2: &[(&str, &str, &str)] = &[
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

/// The five rows of the Figure 4 table: state, sharing-detection value
/// (in the paper's v1/v2/v3 summary), `cdata` of the valid class, and
/// `mdata`.
pub const FIG4_TABLE: &[(&str, &str, &str, &str)] = &[
    ("(Inv+)", "v1", "(nodata)", "fresh"),
    ("(V-Ex, Inv*)", "v2", "(fresh, nodata)", "fresh"),
    ("(Dirty, Inv*)", "v2", "(fresh, nodata)", "obsolete"),
    ("(Shared+, Inv*)", "v3", "(fresh, nodata)", "fresh"),
    ("(Shared, Inv+)", "v2", "(fresh, nodata)", "fresh"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "n"]);
        t.row(vec!["illinois", "5"]);
        t.row(vec!["a", "12345"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert_eq!(t.render().lines().count(), 3);
    }

    #[test]
    fn appendix_has_twenty_two_transitions() {
        assert_eq!(APPENDIX_A2.len(), 22);
    }

    #[test]
    fn fig4_has_five_rows() {
        assert_eq!(FIG4_TABLE.len(), 5);
    }
}
