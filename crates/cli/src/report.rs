//! Markdown dossier generation for `ccv report`.
//!
//! Bundles everything the toolchain knows about one protocol into a
//! single human-readable document: the FSM tables, the verification
//! result with the Figure-4-style context table, the global diagram
//! (as DOT), concrete reachability witnesses for every essential
//! state, the recovery analysis, and — for incorrect protocols — the
//! counterexample paths and the shortest executable violation
//! scenario.

use ccv_core::{
    analyze_recovery, find_state_witness, global_graph, Tolerance, Verdict, VerificationReport,
};
use ccv_enum::find_violation_witness;
use ccv_model::{CData, GlobalCtx, ProcEvent, ProtocolSpec};
use ccv_observe::{Counter, MetricsSnapshot};
use std::fmt::Write as _;

/// Renders the per-rule heat table from a metrics snapshot: one row
/// per rule that fired, sorted by firings, with each rule's share of
/// total firings and of attributed kernel time, plus a totals row.
pub fn rule_table(snap: &MetricsSnapshot) -> String {
    if snap.rules.is_empty() {
        return "no rule statistics recorded (run with rule stats enabled)\n".to_string();
    }
    let total_firings: u64 = snap.rules.values().map(|r| r.firings).sum();
    let total_states: u64 = snap.rules.values().map(|r| r.states).sum();
    let total_dedup: u64 = snap.rules.values().map(|r| r.dedup_hits).sum();
    let total_viol: u64 = snap.rules.values().map(|r| r.violations).sum();
    let total_nanos: u64 = snap.rules.values().map(|r| r.nanos).sum();
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };

    let mut rows: Vec<_> = snap.rules.iter().collect();
    rows.sort_by(|a, b| b.1.firings.cmp(&a.1.firings).then(a.0.cmp(b.0)));

    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>9} {:>7} {:>9} {:>9} {:>6} {:>12} {:>7}",
        "rule", "firings", "fire%", "states", "dedup", "viol", "time", "time%"
    );
    for (name, r) in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>9} {:>6.1}% {:>9} {:>9} {:>6} {:>12} {:>6.1}%",
            name,
            r.firings,
            pct(r.firings, total_firings),
            r.states,
            r.dedup_hits,
            r.violations,
            format_nanos(r.nanos),
            pct(r.nanos, total_nanos),
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>9} {:>7} {:>9} {:>9} {:>6} {:>12}",
        "total",
        total_firings,
        "100.0%",
        total_states,
        total_dedup,
        total_viol,
        format_nanos(total_nanos),
    );
    s
}

/// Renders the per-worker claim counts and contention counters of a
/// parallel enumeration run.
pub fn worker_summary(snap: &MetricsSnapshot) -> String {
    if snap.workers.is_empty() {
        return String::new();
    }
    let mut s = format!(
        "workers: {} (steals: {}, claim races: {})\n",
        snap.workers.len(),
        snap.counter(Counter::Steals),
        snap.counter(Counter::ClaimRaces),
    );
    let total: u64 = snap.workers.values().sum();
    for (w, claims) in &snap.workers {
        let share = if total == 0 {
            0.0
        } else {
            100.0 * *claims as f64 / total as f64
        };
        let _ = writeln!(s, "  worker {w}: {claims} claims ({share:.1}%)");
    }
    s
}

/// `1234567` ns → `"1.23ms"`, picking the unit that keeps 3 digits.
fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// Renders the full markdown dossier for `spec` from an
/// already-computed verification report (build one with
/// [`ccv_core::verify()`]).
pub fn protocol_report(spec: &ProtocolSpec, v: &VerificationReport) -> String {
    let graph = global_graph(spec, &v.expansion);
    let mut md = String::new();

    // --- Header -----------------------------------------------------------
    let _ = writeln!(md, "# Protocol dossier: {}\n", spec.name());
    let _ = writeln!(
        md,
        "- states: {} | characteristic function: {}",
        spec.num_states(),
        if spec.uses_sharing_detection() {
            "sharing-detection"
        } else {
            "null"
        }
    );
    let _ = writeln!(md, "- verdict: **{}**", v.verdict);
    let _ = writeln!(
        md,
        "- symbolic expansion: {} state visits -> {} essential states",
        v.visits(),
        v.num_essential()
    );
    let _ = writeln!(md);

    // --- State table --------------------------------------------------------
    let _ = writeln!(md, "## States\n");
    let _ = writeln!(md, "| state | short | attributes |");
    let _ = writeln!(md, "|---|---|---|");
    for s in spec.state_ids() {
        let info = spec.state(s);
        let mut attrs = Vec::new();
        if !info.attrs.holds_copy {
            attrs.push("invalid");
        } else {
            attrs.push("copy");
            if info.attrs.owned {
                attrs.push("owned");
            }
            if info.attrs.exclusive {
                attrs.push("exclusive");
            }
            if info.attrs.writable_silently {
                attrs.push("silent-write");
            }
        }
        let _ = writeln!(
            md,
            "| {} | {} | {} |",
            info.name,
            info.short,
            attrs.join(" ")
        );
    }

    // --- Processor transitions ----------------------------------------------
    let _ = writeln!(md, "\n## Processor transitions\n");
    let _ = writeln!(md, "| state | event | context | next | bus | data |");
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for s in spec.state_ids() {
        for e in ProcEvent::ALL {
            for c in GlobalCtx::ALL {
                let o = spec.outcome(s, e, c);
                if c != GlobalCtx::ALONE && o == spec.outcome(s, e, GlobalCtx::ALONE) {
                    continue;
                }
                let ctx = if spec.outcome(s, e, GlobalCtx::ALONE)
                    == spec.outcome(s, e, GlobalCtx::SHARED_CLEAN)
                    && spec.outcome(s, e, GlobalCtx::ALONE)
                        == spec.outcome(s, e, GlobalCtx::OWNED_ELSEWHERE)
                {
                    "any".to_string()
                } else {
                    c.to_string()
                };
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {} | {:?} |",
                    spec.state(s).short,
                    e,
                    ctx,
                    spec.state(o.next).short,
                    o.bus.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
                    o.data
                );
            }
        }
    }

    // --- Snoop reactions -----------------------------------------------------
    let _ = writeln!(md, "\n## Snoop reactions\n");
    let _ = writeln!(md, "| state | transaction | next | flags |");
    let _ = writeln!(md, "|---|---|---|---|");
    for s in spec.state_ids().skip(1) {
        for &b in spec.emitted_bus_ops() {
            let sn = spec.snoop(s, b);
            if sn.next == s && !sn.supplies_data && !sn.flushes_to_memory && !sn.receives_update {
                continue;
            }
            let mut flags = Vec::new();
            if sn.supplies_data {
                flags.push("supply");
            }
            if sn.flushes_to_memory {
                flags.push("flush");
            }
            if sn.receives_update {
                flags.push("update");
            }
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} |",
                spec.state(s).short,
                b,
                spec.state(sn.next).short,
                flags.join(" ")
            );
        }
    }

    // --- Verification ----------------------------------------------------------
    let _ = writeln!(md, "\n## Verification\n");
    let _ = writeln!(md, "Essential states (valid for any number of caches):\n");
    let _ = writeln!(md, "| # | state | F | cdata | mdata |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for (i, s) in graph.states.iter().enumerate() {
        let mut cdatas: Vec<&str> = s
            .classes()
            .iter()
            .filter(|(k, _)| !k.state.is_invalid())
            .map(|(k, _)| k.cdata.label())
            .collect();
        if s.classes().iter().any(|(k, _)| k.state.is_invalid()) {
            cdatas.push(CData::NoData.label());
        }
        let _ = writeln!(
            md,
            "| s{} | {} | {} | ({}) | {} |",
            i,
            s.render(spec),
            s.f,
            cdatas.join(", "),
            s.mdata
        );
    }
    let _ = writeln!(md, "\nTransitions:\n");
    for (from, to, labels) in graph.grouped_edges() {
        let _ = writeln!(md, "- s{from} —[{}]→ s{to}", labels.join(", "));
    }

    if v.verdict == Verdict::Erroneous {
        let _ = writeln!(md, "\n### Counterexamples\n");
        for f in v.expansion.errors.iter().take(3) {
            let _ = writeln!(md, "- **{}**", f.descriptions(spec).join("; "));
            let path = v.expansion.render_path(spec, f.node);
            let _ = writeln!(md, "  - path: `{path}`");
        }
        if let Some(w) = find_violation_witness(spec, 4, 1 << 22) {
            let _ = writeln!(md, "\n### Shortest executable violation\n");
            let _ = writeln!(md, "```text\n{}```", w.render(spec));
        }
    } else {
        // --- Witnesses per essential state -----------------------------------
        let _ = writeln!(md, "\n### Reachability witnesses\n");
        let _ = writeln!(
            md,
            "Each essential family instantiated by a concrete scenario:\n"
        );
        for (i, s) in graph.states.iter().enumerate() {
            if let Some(w) = find_state_witness(spec, s, 3, 1 << 20) {
                let script: Vec<String> = w
                    .steps
                    .iter()
                    .map(|st| {
                        format!(
                            "P{} {}",
                            st.cache,
                            match st.event {
                                ProcEvent::Read => "R",
                                ProcEvent::Write => "W",
                                ProcEvent::Replace => "Z",
                                ProcEvent::Complete => "C",
                            }
                        )
                    })
                    .collect();
                let _ = writeln!(
                    md,
                    "- s{i} {} — {} caches: `{}`",
                    s.render(spec),
                    w.n,
                    if script.is_empty() {
                        "initial state".to_string()
                    } else {
                        script.join(", ")
                    }
                );
            }
        }
    }

    // --- Recovery ---------------------------------------------------------------
    let recovery = analyze_recovery(spec, 200_000);
    let _ = writeln!(md, "\n## Recovery analysis\n");
    let _ = writeln!(
        md,
        "{} structurally permissible configurations: {} safe ({} reachable), {} in the invariant gap.\n",
        recovery.cases.len(),
        recovery.count(Tolerance::Safe),
        recovery.cases.iter().filter(|c| c.reachable).count(),
        recovery.count(Tolerance::Unsafe),
    );
    let gap: Vec<String> = recovery
        .invariant_gap()
        .map(|c| format!("`{}` (mdata={})", c.start.render(spec), c.start.mdata))
        .collect();
    if !gap.is_empty() {
        let _ = writeln!(
            md,
            "Invariant gap (never enter these): {}\n",
            gap.join(", ")
        );
    }

    // --- DOT ------------------------------------------------------------------
    let _ = writeln!(md, "## Global diagram (Graphviz)\n");
    let _ = writeln!(md, "```dot\n{}```", graph.to_dot(spec));

    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccv_core::verify;
    use ccv_model::protocols;

    fn render(spec: ProtocolSpec) -> String {
        protocol_report(&spec, &verify(&spec))
    }

    #[test]
    fn report_for_a_correct_protocol_has_all_sections() {
        let md = render(protocols::illinois());
        for section in [
            "# Protocol dossier: Illinois",
            "## States",
            "## Processor transitions",
            "## Snoop reactions",
            "## Verification",
            "### Reachability witnesses",
            "## Recovery analysis",
            "## Global diagram",
        ] {
            assert!(md.contains(section), "missing {section}");
        }
        assert!(md.contains("**VERIFIED**"));
        assert!(md.contains("(Shared+, Inv*)"));
    }

    #[test]
    fn report_for_a_mutant_contains_counterexamples() {
        let md = render(protocols::illinois_missing_writeback());
        assert!(md.contains("**ERRONEOUS**"));
        assert!(md.contains("### Counterexamples"));
        assert!(md.contains("### Shortest executable violation"));
        assert!(md.contains("witness with"));
    }

    #[test]
    fn rule_table_totals_match_the_rule_firings_counter() {
        use ccv_enum::{enumerate, EnumOptions};
        use ccv_observe::Metrics;
        use std::sync::Arc;

        let metrics = Arc::new(Metrics::new());
        let opts = EnumOptions::new(3)
            .sink(metrics.clone() as Arc<dyn ccv_observe::EventSink>)
            .rule_stats(true);
        enumerate(&protocols::illinois(), &opts);
        let snap = metrics.snapshot();

        let table = rule_table(&snap);
        let total_line = table
            .lines()
            .find(|l| l.starts_with("total"))
            .expect("totals row");
        let total: u64 = total_line
            .split_whitespace()
            .nth(1)
            .expect("firings column")
            .parse()
            .expect("numeric total");
        assert_eq!(total, snap.counter(Counter::RuleFirings));
        assert!(total > 0);
        // One row per fired rule, named STATE:EVENT.
        assert!(table.lines().any(|l| l.starts_with("Inv:R")), "{table}");
    }

    #[test]
    fn worker_summary_lists_every_worker() {
        use ccv_enum::{enumerate_parallel, EnumOptions};
        use ccv_observe::Metrics;
        use std::sync::Arc;

        let metrics = Arc::new(Metrics::new());
        let opts = EnumOptions::new(3).sink(metrics.clone() as Arc<dyn ccv_observe::EventSink>);
        enumerate_parallel(&protocols::illinois(), &opts, 3);
        let s = worker_summary(&metrics.snapshot());
        assert!(s.contains("workers: 3"), "{s}");
        assert!(s.contains("steals:"), "{s}");
        assert!(s.contains("claim races:"), "{s}");
        for w in 0..3 {
            assert!(s.contains(&format!("worker {w}:")), "{s}");
        }
    }

    #[test]
    fn report_tables_are_well_formed_markdown() {
        let md = render(protocols::msi());
        for line in md.lines().filter(|l| l.starts_with('|')) {
            assert!(line.ends_with('|'), "ragged table row: {line}");
        }
    }
}
