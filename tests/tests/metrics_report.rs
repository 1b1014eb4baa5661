//! Integration tests for the observability layer: a [`Metrics`]
//! collector attached to each engine must report the paper's published
//! numbers through the exported JSON.
//!
//! The JSON schema is documented in `docs/metrics-schema.md`; these
//! tests pin the parts CI greps for.

use std::sync::Arc;

use ccv_core::{crosscheck_with, verify, verify_with, Options};
use ccv_enum::{enumerate, enumerate_parallel, EnumOptions};
use ccv_model::protocols;
use ccv_observe::{Counter, EventSink, Gauge, Json, Metrics, Phase, SinkHandle};
use ccv_sim::{workload, Machine, MachineConfig, WorkloadParams};

fn sink_of(metrics: &Arc<Metrics>) -> Arc<dyn EventSink> {
    metrics.clone()
}

#[test]
fn symbolic_metrics_json_reports_the_papers_numbers() {
    let metrics = Arc::new(Metrics::new());
    let report = verify_with(
        &protocols::illinois(),
        &Options::default().sink(sink_of(&metrics)),
    );
    assert_eq!(report.visits(), 22);

    let json_text = metrics.snapshot().to_json().render();
    let doc = Json::parse(&json_text).expect("exported metrics are valid JSON");

    // The paper's §4.0 numbers for Illinois: 22 visits, 5 essential states.
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(counters.get("visits").and_then(Json::as_u64), Some(22));
    let gauges = doc.get("gauges").expect("gauges object");
    assert_eq!(
        gauges.get("essential_states").and_then(Json::as_u64),
        Some(5)
    );

    // Pruning happened and was counted.
    assert!(counters.get("prunes").and_then(Json::as_u64).unwrap() > 0);
    assert!(
        counters
            .get("containment_checks")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );

    // Per-phase wall time: each verification phase appears with a
    // numeric wall_ms.
    let phases = doc.get("phases").expect("phases object");
    for phase in ["expand", "graph", "check"] {
        if let Some(p) = phases.get(phase) {
            assert!(p.get("wall_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        }
    }
    // Expand always takes measurable time.
    assert!(phases.get("expand").is_some(), "{json_text}");
}

#[test]
fn enumeration_metrics_agree_with_the_result() {
    let metrics = Arc::new(Metrics::new());
    let spec = protocols::illinois();
    let opts = EnumOptions::new(3).exact().sink(sink_of(&metrics));
    let r = enumerate(&spec, &opts);
    assert_eq!(r.distinct, 14);

    let snap = metrics.snapshot();
    assert_eq!(snap.counter(Counter::Visits), r.visits as u64);
    assert_eq!(snap.gauge(Gauge::DistinctStates), Some(14));
    assert!(snap.gauge(Gauge::Levels).unwrap() > 1);
    // Every visit is either a dedup hit or a miss.
    assert_eq!(
        snap.counter(Counter::DedupHits) + snap.counter(Counter::DedupMisses),
        r.visits as u64
    );
    assert!(snap.phase_nanos(Phase::Enumerate) > 0);

    let doc = Json::parse(&snap.to_json().render()).unwrap();
    let levels = doc.get("frontier_levels").expect("frontier level sizes");
    match levels {
        Json::Arr(sizes) => assert!(!sizes.is_empty()),
        other => panic!("frontier_levels should be an array, got {other:?}"),
    }
}

#[test]
fn parallel_enumeration_reports_workers_and_the_same_totals() {
    let seq = enumerate(&protocols::illinois(), &EnumOptions::new(3).exact());

    let metrics = Arc::new(Metrics::new());
    let opts = EnumOptions::new(3).exact().sink(sink_of(&metrics));
    let par = enumerate_parallel(&protocols::illinois(), &opts, 4);
    assert_eq!(par.distinct, seq.distinct);

    let snap = metrics.snapshot();
    assert_eq!(snap.counter(Counter::Visits), seq.visits as u64);
    assert_eq!(snap.gauge(Gauge::Threads), Some(4));
    assert_eq!(snap.gauge(Gauge::DistinctStates), Some(seq.distinct as u64));

    let doc = Json::parse(&snap.to_json().render()).unwrap();
    let workers = doc.get("workers").expect("per-worker claim counts");
    match workers {
        Json::Obj(entries) => {
            assert!(!entries.is_empty());
            let total: u64 = entries.iter().map(|(_, v)| v.as_u64().unwrap()).sum();
            // Workers claim every state except the initial one.
            assert_eq!(total, seq.distinct as u64 - 1);
        }
        other => panic!("workers should be an object, got {other:?}"),
    }
}

#[test]
fn crosscheck_metrics_report_class_sizes() {
    let metrics = Arc::new(Metrics::new());
    let spec = protocols::illinois();
    let report = verify(&spec);
    let cc = crosscheck_with(
        &spec,
        3,
        &report.expansion.essential_states(),
        1 << 20,
        false,
        &SinkHandle::new(sink_of(&metrics)),
    );
    assert!(cc.complete());

    let snap = metrics.snapshot();
    assert!(snap.counter(Counter::OracleChecks) > 0);
    assert!(snap.phase_nanos(Phase::Crosscheck) > 0);
    let doc = Json::parse(&snap.to_json().render()).unwrap();
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get("class_size"))
        .expect("class_size histogram");
    // One observation per essential state.
    assert_eq!(hist.get("count").and_then(Json::as_u64), Some(5));
}

#[test]
fn simulator_metrics_count_accesses_and_bus_traffic() {
    let metrics = Arc::new(Metrics::new());
    let spec = protocols::illinois();
    let mut params = WorkloadParams::new(2);
    params.accesses = 2_000;
    let trace = workload::hot_block(&params);
    let mut machine = Machine::new(
        spec,
        MachineConfig::small(2).sink(SinkHandle::new(sink_of(&metrics))),
    );
    let report = machine.run(&trace);
    assert!(report.is_coherent());

    let snap = metrics.snapshot();
    assert_eq!(snap.counter(Counter::Accesses), 2_000);
    assert_eq!(
        snap.counter(Counter::OracleChecks),
        report.stats.reads as u64
    );
    assert_eq!(
        snap.counter(Counter::BusOps),
        report.stats.bus_ops.iter().sum::<usize>() as u64
    );
    assert!(snap.phase_nanos(Phase::Simulate) > 0);

    let doc = Json::parse(&snap.to_json().render()).unwrap();
    let bus = doc.get("bus_ops").expect("per-op bus traffic");
    match bus {
        Json::Obj(entries) => assert!(!entries.is_empty()),
        other => panic!("bus_ops should be an object, got {other:?}"),
    }
}

#[test]
fn one_metrics_collector_can_span_engines() {
    // Thread the same collector through the symbolic run and the
    // crosscheck: phase timings accumulate side by side.
    let metrics = Arc::new(Metrics::new());
    let spec = protocols::illinois();
    let report = verify_with(&spec, &Options::default().sink(sink_of(&metrics)));
    crosscheck_with(
        &spec,
        3,
        &report.expansion.essential_states(),
        1 << 20,
        false,
        &SinkHandle::new(sink_of(&metrics)),
    );

    let snap = metrics.snapshot();
    assert_eq!(snap.counter(Counter::Visits), 22);
    assert!(snap.phase_nanos(Phase::Expand) > 0);
    assert!(snap.phase_nanos(Phase::Crosscheck) > 0);
    let json = snap.to_json().render();
    assert!(json.contains("\"expand\""), "{json}");
    assert!(json.contains("\"crosscheck\""), "{json}");
}

#[test]
fn rules_section_reports_attribution_for_both_kernel_engines() {
    // Enumeration kernel.
    let metrics = Arc::new(Metrics::new());
    let opts = EnumOptions::new(3)
        .exact()
        .sink(sink_of(&metrics))
        .rule_stats(true);
    let r = enumerate(&protocols::illinois(), &opts);
    let doc = Json::parse(&metrics.snapshot().to_json().render()).unwrap();
    let rules = doc.get("rules").expect("rules section");
    match rules {
        Json::Obj(entries) => {
            assert!(!entries.is_empty());
            let firings: u64 = entries
                .iter()
                .map(|(_, v)| v.get("firings").and_then(Json::as_u64).unwrap())
                .sum();
            let states: u64 = entries
                .iter()
                .map(|(_, v)| v.get("states").and_then(Json::as_u64).unwrap())
                .sum();
            assert_eq!(
                Some(firings),
                doc.get("counters")
                    .and_then(|c| c.get("rule_firings"))
                    .and_then(Json::as_u64)
            );
            assert_eq!(states, r.visits as u64);
        }
        other => panic!("rules should be an object, got {other:?}"),
    }

    // Symbolic expansion: same schema, firings equal to the paper's 22
    // visits for Illinois.
    let metrics = Arc::new(Metrics::new());
    let report = verify_with(
        &protocols::illinois(),
        &Options::default().rule_stats(true).sink(sink_of(&metrics)),
    );
    assert_eq!(report.visits(), 22);
    let doc = Json::parse(&metrics.snapshot().to_json().render()).unwrap();
    let rules = doc.get("rules").expect("rules section");
    match rules {
        Json::Obj(entries) => {
            let firings: u64 = entries
                .iter()
                .map(|(_, v)| v.get("firings").and_then(Json::as_u64).unwrap())
                .sum();
            assert_eq!(firings, 22);
        }
        other => panic!("rules should be an object, got {other:?}"),
    }
}

#[test]
fn rules_section_is_absent_without_opt_in() {
    let metrics = Arc::new(Metrics::new());
    let opts = EnumOptions::new(3).sink(sink_of(&metrics));
    enumerate(&protocols::illinois(), &opts);
    let doc = Json::parse(&metrics.snapshot().to_json().render()).unwrap();
    assert!(doc.get("rules").is_none());
}
