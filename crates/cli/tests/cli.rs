//! End-to-end tests of the `ccv` binary: exit codes, output shape, and
//! file-based workflows, via `CARGO_BIN_EXE_ccv`.

use std::process::{Command, Output};

fn ccv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccv"))
        .args(args)
        .output()
        .expect("spawn ccv")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let o = ccv(&[]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("usage:"));
}

#[test]
fn help_exits_zero() {
    let o = ccv(&["help"]);
    assert_eq!(o.status.code(), Some(0));
    assert!(stdout(&o).contains("ccv verify"));
}

#[test]
fn unknown_command_exits_2() {
    let o = ccv(&["frobnicate"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("unknown command"));
}

#[test]
fn list_shows_protocols_and_mutants() {
    let o = ccv(&["list"]);
    assert_eq!(o.status.code(), Some(0));
    let out = stdout(&o);
    // Every entry, in order: `check-all` and the paper tables walk the
    // library in this same order.
    let names: Vec<&str> = out
        .lines()
        .filter(|line| line.starts_with("  "))
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    let expected = [
        "write-through",
        "msi",
        "illinois",
        "mesi-mem",
        "write-once",
        "synapse",
        "berkeley",
        "firefly",
        "dragon",
        "moesi",
        "split-msi",
        "split-mesi",
        "illinois-missing-invalidation",
        "illinois-missing-writeback",
        "illinois-wrong-exclusive-fill",
        "illinois-dirty-no-flush-on-read",
        "synapse-dirty-ignores-busrd",
        "berkeley-owner-dropped",
        "dragon-missing-update",
        "firefly-missing-writethrough",
        "write-once-missing-writethrough",
        "split-msi-upgrade-race-lost",
        "split-msi-ignores-readx",
    ];
    assert_eq!(names, expected, "{out}");
}

#[test]
fn verify_correct_protocol_exits_zero() {
    let o = ccv(&["verify", "illinois"]);
    assert_eq!(o.status.code(), Some(0));
    let out = stdout(&o);
    assert!(out.contains("VERIFIED"));
    assert!(out.contains("5 essential states"));
    assert!(out.contains("(Shared+, Inv*)"));
}

#[test]
fn verify_buggy_protocol_exits_one_with_counterexample() {
    let o = ccv(&["verify", "illinois-missing-invalidation"]);
    assert_eq!(o.status.code(), Some(1));
    let out = stdout(&o);
    assert!(out.contains("ERRONEOUS"));
    assert!(out.contains("path :"));
    assert!(out.contains("-->"));
}

#[test]
fn buggy_verify_and_report_output_is_pinned() {
    // Both outputs render counterexample paths; neither carries a
    // timing, so each is compared byte for byte.
    let o = ccv(&["verify", "illinois-missing-invalidation"]);
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(
        stdout(&o),
        include_str!("golden/verify_illinois_missing_invalidation.txt")
    );
    let o = ccv(&["report", "illinois-missing-invalidation"]);
    assert_eq!(o.status.code(), Some(0));
    assert_eq!(
        stdout(&o),
        include_str!("golden/report_illinois_missing_invalidation.txt")
    );
}

#[test]
fn concrete_stale_access_output_is_pinned() {
    // A missing write-back makes both explicit searches report stale
    // fills, each prefixed with the originating cache; a sequential
    // enumeration lists its errors in a fixed order.
    let o = ccv(&[
        "enumerate",
        "illinois-missing-writeback",
        "-n",
        "3",
        "--threads",
        "1",
    ]);
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(
        stdout(&o),
        include_str!("golden/enumerate_illinois_missing_writeback_n3.txt")
    );
    let o = ccv(&["witness", "illinois-missing-writeback"]);
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(
        stdout(&o),
        include_str!("golden/witness_illinois_missing_writeback.txt")
    );
}

#[test]
fn verify_unknown_protocol_exits_2() {
    let o = ccv(&["verify", "nonesuch"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("unknown protocol"));
}

#[test]
fn verify_with_trace_prints_the_expansion() {
    let o = ccv(&["verify", "illinois", "--trace"]);
    assert_eq!(o.status.code(), Some(0));
    assert!(stdout(&o).contains("trace:"));
    assert!(stdout(&o).contains("[New]") || stdout(&o).contains("[Contained]"));
}

#[test]
fn graph_emits_dot() {
    let o = ccv(&["graph", "msi"]);
    assert_eq!(o.status.code(), Some(0));
    let out = stdout(&o);
    assert!(out.starts_with("digraph"));
    assert!(out.contains("->"));
}

#[test]
fn export_then_verify_file_roundtrip() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("exported.ccv");

    let o = ccv(&["export", "berkeley"]);
    assert_eq!(o.status.code(), Some(0));
    std::fs::write(&path, o.stdout).unwrap();

    let o = ccv(&["verify", path.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("VERIFIED"));
}

#[test]
fn verify_rejects_malformed_file_with_position() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.ccv");
    std::fs::write(&path, "protocol Broken {\n  state Invalid invalid\n}").unwrap();
    let o = ccv(&["verify", path.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("broken.ccv:3"), "{}", stderr(&o));
}

#[test]
fn enumerate_reports_distinct_states() {
    let o = ccv(&["enumerate", "illinois", "-n", "3", "--exact"]);
    assert_eq!(o.status.code(), Some(0));
    assert!(stdout(&o).contains("distinct states: 14"), "{}", stdout(&o));
}

#[test]
fn enumerate_threads_zero_resolves_to_available_cores() {
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "3",
        "--exact",
        "--threads",
        "0",
    ]);
    assert_eq!(o.status.code(), Some(0));
    let out = stdout(&o);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert!(
        out.contains(&format!("threads={cores} (auto)")),
        "expected auto-resolved thread count {cores}:\n{out}"
    );
    // The engine choice must not change the counts.
    assert!(out.contains("distinct states: 14"), "{out}");
}

#[test]
fn enumerate_explicit_thread_count_is_reported_verbatim() {
    let o = ccv(&["enumerate", "illinois", "-n", "3", "--threads", "2"]);
    assert_eq!(o.status.code(), Some(0));
    let out = stdout(&o);
    assert!(out.contains("threads=2"), "{out}");
    assert!(!out.contains("(auto)"), "{out}");
}

#[test]
fn crosscheck_confirms_theorem_1() {
    let o = ccv(&["crosscheck", "dragon", "-n", "3"]);
    assert_eq!(o.status.code(), Some(0));
    assert!(stdout(&o).contains("Theorem 1 holds"));
}

#[test]
fn crosscheck_exact_counts_the_orbit_weighted_total() {
    // The default run weights each orbit representative by its orbit
    // size; `--exact` enumerates every concrete tuple. Both must
    // print the same explicit-state total.
    let total = |extra: &[&str]| {
        let mut args = vec!["crosscheck", "split-msi", "-n", "3"];
        args.extend_from_slice(extra);
        let o = ccv(&args);
        assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
        let out = stdout(&o);
        assert!(out.contains("Theorem 1 holds"), "{out}");
        let (_, rest) = out.split_once(": ").expect("summary line");
        rest.split_whitespace().next().unwrap().to_string()
    };
    assert_eq!(total(&[]), total(&["--exact"]));
}

#[test]
fn crosscheck_past_its_state_budget_is_inconclusive() {
    // Each governor flag stops the run with its own cause.
    for (flag, value, cause) in [
        ("--max-states", "10", "state budget exhausted"),
        ("--deadline", "0", "wall-clock deadline expired"),
        ("--max-bytes", "1", "memory cap exceeded"),
    ] {
        let o = ccv(&["crosscheck", "split-msi", "-n", "3", flag, value]);
        assert_eq!(o.status.code(), Some(3), "{flag}");
        let out = stdout(&o);
        assert!(out.contains(&format!("inconclusive: {cause}")), "{out}");
        assert!(!out.contains("Theorem 1 holds"), "{out}");
    }
}

#[test]
fn simulate_reports_coherence() {
    let o = ccv(&[
        "simulate",
        "moesi",
        "--workload",
        "migratory",
        "--accesses",
        "5000",
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("coherent"));
}

#[test]
fn simulate_buggy_protocol_exits_one() {
    let o = ccv(&[
        "simulate",
        "dragon-missing-update",
        "--workload",
        "uniform",
        "--accesses",
        "5000",
    ]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stdout(&o).contains("INCOHERENT"));
}

#[test]
fn simulate_from_trace_file() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.trace");
    std::fs::write(&path, "P0 W 1\nP1 R 1\nP1 W 1\nP0 R 1\n").unwrap();
    let o = ccv(&[
        "simulate",
        "illinois",
        "--trace-file",
        path.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("coherent"));
}

#[test]
fn witness_prints_a_scenario_for_mutants() {
    let o = ccv(&["witness", "illinois-missing-writeback"]);
    assert_eq!(o.status.code(), Some(1), "witness found -> failure status");
    let out = stdout(&o);
    assert!(out.contains("witness with"), "{out}");
    assert!(out.contains("P0"), "{out}");
    // Stale accesses read as prose, not as Rust debug text.
    assert!(
        out.contains("!! cache 0: miss filled from an obsolete source;"),
        "{out}"
    );
}

#[test]
fn witness_on_correct_protocol_exits_zero() {
    let o = ccv(&["witness", "msi", "-n", "3"]);
    assert_eq!(o.status.code(), Some(0));
    assert!(stdout(&o).contains("no violation scenario"));
}

#[test]
fn witness_searches_ten_caches_to_the_end() {
    // Split-MESI has 10,159,285 exact states at n=10, past the
    // 2^22-state budget; its orbit representatives fit well inside it,
    // so the search finishes and its "no violation" is proven.
    let start = std::time::Instant::now();
    let o = ccv(&["witness", "split-mesi", "-n", "10"]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(
        stdout(&o).contains("no violation scenario with up to 10 caches"),
        "{}",
        stdout(&o)
    );
    assert!(start.elapsed().as_secs() < 10, "took {:?}", start.elapsed());
}

#[test]
fn witness_rejects_cache_counts_outside_the_packed_range() {
    for n in ["0", "17"] {
        let o = ccv(&["witness", "msi", "-n", n]);
        assert_eq!(o.status.code(), Some(2), "-n {n}: {}", stdout(&o));
        assert!(stderr(&o).contains("n must be in 1..=16"), "-n {n}");
    }
}

#[test]
fn compare_reports_identical_skeletons() {
    let o = ccv(&["compare", "msi", "synapse"]);
    assert_eq!(o.status.code(), Some(0));
    assert!(stdout(&o).contains("IDENTICAL"));
}

#[test]
fn describe_prints_tables() {
    let o = ccv(&["describe", "firefly"]);
    assert_eq!(o.status.code(), Some(0));
    let out = stdout(&o);
    assert!(out.contains("protocol Firefly"));
    assert!(out.contains("snoop reactions:"));
}

#[test]
fn subcommand_help_lists_its_options() {
    let o = ccv(&["verify", "--help"]);
    assert_eq!(o.status.code(), Some(0));
    let out = stdout(&o);
    assert!(out.contains("usage:"), "{out}");
    assert!(out.contains("--metrics"), "{out}");
    assert!(out.contains("--progress"), "{out}");
    assert!(out.contains("<protocol>"), "{out}");
}

#[test]
fn unknown_option_is_a_positioned_usage_error() {
    let o = ccv(&["verify", "illinois", "--frobnicate"]);
    assert_eq!(o.status.code(), Some(2));
    let err = stderr(&o);
    assert!(err.contains("--frobnicate"), "{err}");
    assert!(err.contains("argument 2"), "{err}");
    assert!(err.contains("ccv verify --help"), "{err}");
}

#[test]
fn option_missing_its_value_is_reported() {
    let o = ccv(&["verify", "illinois", "--dot"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("needs a FILE value"), "{}", stderr(&o));
}

#[test]
fn metrics_file_reports_the_papers_numbers() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let o = ccv(&["verify", "illinois", "--metrics", path.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("metrics written to"));
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"visits\": 22"), "{json}");
    assert!(json.contains("\"essential_states\": 5"), "{json}");
    assert!(json.contains("\"wall_ms\""), "{json}");
    assert!(json.contains("\"expand\""), "{json}");
}

#[test]
fn verify_metrics_is_an_alias_of_metrics_out() {
    // One collector, one file: given both spellings, --metrics-out wins.
    let dir = std::env::temp_dir().join(format!("ccv-cli-alias-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (alias, shared) = (dir.join("alias.json"), dir.join("shared.json"));
    let o = ccv(&[
        "verify",
        "illinois",
        "--metrics",
        alias.to_str().unwrap(),
        "--metrics-out",
        shared.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert_eq!(stdout(&o).matches("metrics written to").count(), 1);
    assert!(!alias.exists());
    let json = std::fs::read_to_string(&shared).unwrap();
    assert!(json.contains("\"visits\": 22"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_streams_ndjson_to_stderr() {
    let o = ccv(&["verify", "illinois", "--progress"]);
    assert_eq!(o.status.code(), Some(0));
    let err = stderr(&o);
    assert!(err.contains("\"ev\""), "{err}");
    assert!(err.contains("\"phase_enter\""), "{err}");
    assert!(err.contains("\"expand\""), "{err}");
}

#[test]
fn essential_out_writes_canonical_json() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("illinois-essential.json");
    let o = ccv(&[
        "verify",
        "illinois",
        "--essential-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("essential states written to"));

    let text = std::fs::read_to_string(&path).unwrap();
    let json = ccv_observe::Json::parse(&text).expect("essential dump is valid JSON");
    assert_eq!(
        json.get("schema").and_then(|s| s.as_str()),
        Some("ccv-essential-states-v1")
    );
    assert_eq!(
        json.get("protocol").and_then(|s| s.as_str()),
        Some("Illinois")
    );
    assert_eq!(
        json.get("pruning").and_then(|s| s.as_str()),
        Some("containment")
    );
    assert_eq!(json.get("count").and_then(|c| c.as_u64()), Some(5));

    let entries = json
        .get("essential")
        .and_then(|e| e.as_arr())
        .expect("essential array")
        .to_vec();
    assert_eq!(entries.len(), 5);
    // Canonical ordering: entries sorted by their paper-notation render.
    let rendered: Vec<&str> = entries
        .iter()
        .map(|e| {
            e.get("rendered")
                .and_then(|r| r.as_str())
                .expect("rendered")
        })
        .collect();
    let mut sorted = rendered.clone();
    sorted.sort();
    assert_eq!(rendered, sorted, "entries must be sorted by rendering");
    assert!(rendered.contains(&"(Shared+, Inv*)"), "{rendered:?}");

    // Stable output: a second run produces byte-identical JSON.
    let path2 = dir.join("illinois-essential-2.json");
    let o = ccv(&[
        "verify",
        "illinois",
        "--essential-out",
        path2.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0));
    assert_eq!(text, std::fs::read_to_string(&path2).unwrap());
}

#[test]
fn essential_out_respects_equality_pruning() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("msi-essential-eq.json");
    let o = ccv(&[
        "verify",
        "msi",
        "--equality",
        "--essential-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let json = ccv_observe::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(
        json.get("pruning").and_then(|s| s.as_str()),
        Some("equality")
    );
    let count = json.get("count").and_then(|c| c.as_u64()).unwrap();
    let entries = json.get("essential").and_then(|e| e.as_arr()).unwrap();
    assert_eq!(entries.len() as u64, count);
}

#[test]
fn dot_file_is_written() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("illinois.dot");
    let o = ccv(&["verify", "illinois", "--dot", path.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(0));
    let dot = std::fs::read_to_string(&path).unwrap();
    assert!(dot.starts_with("digraph"));
}

// --- Observability layer -------------------------------------------------

#[test]
fn metrics_out_writes_metrics_for_enumerate() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("enum-metrics.json");
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "4",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("metrics written to"));
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"visits\""), "{json}");
    assert!(json.contains("\"enumerate\""), "{json}");
}

#[test]
fn metrics_out_writes_metrics_for_verify() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verify-metrics.json");
    let o = ccv(&[
        "verify",
        "illinois",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"visits\": 22"), "{json}");
}

#[test]
fn only_commands_that_draw_the_diagram_record_a_graph_phase() {
    use ccv_core::api::{ProtocolSource, Request, RunContext, SessionRunner};
    use ccv_observe::{CancelToken, EventSink, Metrics, Phase, SinkHandle};
    use std::sync::Arc;

    // The request runner returns the run, not its views: neither a
    // verify nor a crosscheck builds the global diagram.
    let illinois = || ProtocolSource::Name("illinois".into());
    for req in [
        Request::verify(illinois()),
        Request::crosscheck(illinois(), 3),
    ] {
        let metrics = Arc::new(Metrics::new());
        let sink = SinkHandle::new(metrics.clone() as Arc<dyn EventSink>);
        let resp = SessionRunner::new().run(&req, &RunContext::new(CancelToken::new(), sink));
        assert!(resp.result.is_ok(), "{:?}", resp.result.err());
        let snap = metrics.snapshot();
        assert!(snap.phase_nanos(Phase::Expand) > 0, "{:?}", req.action);
        assert_eq!(snap.phase_nanos(Phase::Graph), 0, "{:?}", req.action);
    }

    // `ccv verify` draws the diagram, and its metrics keep the phase.
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verify-graph-phase.json");
    let o = ccv(&[
        "verify",
        "illinois",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let json = ccv_observe::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let phases = json.get("phases").expect("phases object");
    assert!(phases.get("graph").is_some(), "{}", json.render());
}

/// Validates a Chrome-trace file: parseable JSON, balanced begin/end
/// spans per (tid, name), globally monotonic timestamps, and at least
/// one complete span on every expected worker track. Returns the
/// parsed events for extra assertions.
fn check_trace_schema(path: &std::path::Path, worker_tids: &[u64]) -> ccv_observe::Json {
    let text = std::fs::read_to_string(path).unwrap();
    let json = ccv_observe::Json::parse(&text).expect("trace file is valid JSON");
    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array")
        .to_vec();

    let mut open: std::collections::HashMap<(u64, String), i64> = std::collections::HashMap::new();
    let mut complete: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut last_ts = f64::NEG_INFINITY;
    for e in &events {
        if let Some(ts) = e.get("ts").and_then(|t| t.as_f64()) {
            assert!(ts >= last_ts, "timestamps must be monotonic in file order");
            last_ts = ts;
        }
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph field");
        if ph != "B" && ph != "E" {
            continue;
        }
        let tid = e.get("tid").and_then(|t| t.as_u64()).expect("span tid");
        let name = e.get("name").and_then(|n| n.as_str()).expect("span name");
        let depth = open.entry((tid, name.to_string())).or_insert(0);
        if ph == "B" {
            *depth += 1;
        } else {
            *depth -= 1;
            assert!(*depth >= 0, "span end without begin: tid={tid} {name}");
            *complete.entry(tid).or_insert(0) += 1;
        }
    }
    for (key, depth) in &open {
        assert_eq!(*depth, 0, "unbalanced span {key:?}");
    }
    for tid in worker_tids {
        assert!(
            complete.get(tid).copied().unwrap_or(0) >= 1,
            "no complete span on worker track tid={tid}"
        );
    }
    json
}

#[test]
fn trace_out_writes_a_valid_chrome_trace_per_worker() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("enum-trace.json");
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "6",
        "--threads",
        "2",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("trace written to"));
    // tid 0 = coordinator, tids 1..=2 = the two workers.
    let json = check_trace_schema(&path, &[0, 1, 2]);
    let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    // Counter tracks sampled at span boundaries.
    let counters: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(counters.contains(&"pending"), "{counters:?}");
    assert!(counters.contains(&"visited"), "{counters:?}");
}

#[test]
fn observability_artifacts_schema_check() {
    // The CI observability step: one run producing all three artifacts.
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("ci-trace.json");
    let metrics = dir.join("ci-metrics.json");
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "6",
        "--rule-stats",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--flight-recorder",
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    check_trace_schema(&trace, &[0]);
    // Clean run: the flight recorder must stay silent.
    assert!(!stderr(&o).contains("postmortem"), "{}", stderr(&o));

    // Rule names in the metrics must match the protocol spec's states
    // and stimulus letters.
    let mjson = ccv_observe::Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let rules = mjson.get("rules").expect("rules section");
    let shorts = ["Inv", "Shared", "Dirty", "V-Ex"];
    match rules {
        ccv_observe::Json::Obj(entries) => {
            assert!(!entries.is_empty());
            for (name, stat) in entries {
                let (state, event) = name.split_once(':').expect("STATE:EVENT rule name");
                assert!(shorts.contains(&state), "unknown state in rule {name}");
                assert!(
                    ["R", "W", "Z"].contains(&event),
                    "unknown event in rule {name}"
                );
                assert!(stat.get("firings").and_then(|f| f.as_u64()).is_some());
            }
        }
        other => panic!("rules is not an object: {other:?}"),
    }
}

#[test]
fn rule_stats_print_a_rule_heat_table() {
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "5",
        "--threads",
        "1",
        "--rule-stats",
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("firings"), "{out}");
    assert!(out.contains("Inv:R"), "{out}");
    assert!(out.contains("Shared:W"), "{out}");
    let total_line = out
        .lines()
        .find(|l| l.starts_with("total"))
        .expect("totals row");
    let total: u64 = total_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(total > 0);
    // Every rule row's share sums to ~100%.
    assert!(total_line.contains("100.0%"), "{total_line}");
}

#[test]
fn rule_stats_total_firings_equal_the_rule_firings_counter() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for cmd in ["enumerate", "verify"] {
        let path = dir.join(format!("rule-stats-{cmd}-metrics.json"));
        let o = ccv(&[
            cmd,
            "illinois",
            "--rule-stats",
            "--metrics-out",
            path.to_str().unwrap(),
        ]);
        assert_eq!(o.status.code(), Some(0), "{cmd}: {}", stderr(&o));
        let total: u64 = stdout(&o)
            .lines()
            .find(|l| l.starts_with("total"))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap()
            .parse()
            .unwrap();
        let mjson = ccv_observe::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let counter = mjson
            .get("counters")
            .and_then(|c| c.get("rule_firings"))
            .and_then(|v| v.as_u64())
            .expect("rule_firings counter");
        assert_eq!(total, counter, "{cmd}");
        assert!(total > 0, "{cmd}");
    }
}

/// The rule names of a `--rule-stats` table.
fn rule_rows(out: &str) -> Vec<&str> {
    out.lines()
        .skip_while(|l| !l.starts_with("rule "))
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .filter(|name| *name != "total")
        .collect()
}

#[test]
fn rule_stats_keep_the_split_transaction_space() {
    let args = ["enumerate", "split-msi", "-n", "3", "--exact"];
    let plain = ccv(&args);
    let o = ccv(&[&args[..], &["--rule-stats"]].concat());
    for run in [&plain, &o] {
        assert_eq!(run.status.code(), Some(0), "{}", stderr(run));
        let out = stdout(run);
        assert!(out.contains("distinct states: 152   visits: 753"), "{out}");
    }
    // A stalled cache's only stimulus is its completion: the table
    // attributes `:C` firings and never a transient state's
    // processor events.
    let out = stdout(&o);
    let rows = rule_rows(&out);
    assert!(rows.iter().any(|r| r.ends_with(":C")), "{out}");
    for stall in ["IS_D:R", "IS_D:W", "IM_D:W", "IM_D:Z"] {
        assert!(!rows.contains(&stall), "{stall} fired: {out}");
    }
}

#[test]
fn rule_stats_keep_the_split_mutant_verdict() {
    let o = ccv(&[
        "enumerate",
        "split-msi-upgrade-race-lost",
        "-n",
        "3",
        "--exact",
        "--rule-stats",
    ]);
    assert_eq!(o.status.code(), Some(1), "{}", stdout(&o));
}

#[test]
fn rule_stats_report_the_split_mutant() {
    for args in [
        &[
            "enumerate",
            "split-msi-upgrade-race-lost",
            "-n",
            "3",
            "--threads",
            "1",
        ][..],
        &["verify", "split-msi-upgrade-race-lost"][..],
    ] {
        let o = ccv(&[args, &["--rule-stats"]].concat());
        assert_eq!(o.status.code(), Some(1), "{args:?}: {}", stdout(&o));
        assert!(stdout(&o).contains("total"), "{args:?}: {}", stdout(&o));
    }
}

#[test]
fn rule_stats_reject_an_unsupported_cache_count() {
    for n in ["0", "17"] {
        let o = ccv(&["enumerate", "illinois", "-n", n, "--rule-stats"]);
        assert_eq!(o.status.code(), Some(2), "-n {n}: {}", stderr(&o));
        assert!(
            stderr(&o).contains(&format!("n must be in 1..=16 (got {n})")),
            "-n {n}: {}",
            stderr(&o)
        );
    }
    let o = ccv(&["enumerate", "illinois", "-n", "-1", "--rule-stats"]);
    assert_eq!(o.status.code(), Some(2), "-n -1: {}", stderr(&o));
    assert!(!stderr(&o).contains("panicked"), "-n -1: {}", stderr(&o));
}

#[test]
fn seconds_flags_reject_negative_nan_and_infinite_values() {
    let cases: [&[&str]; 6] = [
        &["verify", "illinois", "--deadline", "-1"],
        &["enumerate", "illinois", "-n", "2", "--deadline", "nan"],
        &["serve", "--addr", "127.0.0.1:0", "--deadline", "inf"],
        &["serve", "--addr", "127.0.0.1:0", "--max-deadline", "-1"],
        &["client", "illinois", "--deadline", "-0.5"],
        &["client", "illinois", "--timeout", "nan"],
    ];
    for args in cases {
        let o = ccv(args);
        let err = stderr(&o);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("number of seconds"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn simulate_rejects_zero_processors() {
    for workload in ["hot-block", "migratory"] {
        let o = ccv(&[
            "simulate",
            "illinois",
            "--procs",
            "0",
            "--workload",
            workload,
        ]);
        assert_eq!(o.status.code(), Some(2), "{workload}: {}", stderr(&o));
        assert!(
            stderr(&o).contains("--procs must be at least 1"),
            "{}",
            stderr(&o)
        );
    }
}

#[test]
fn flight_recorder_dumps_a_postmortem_on_violation() {
    let o = ccv(&[
        "enumerate",
        "illinois-missing-invalidation",
        "-n",
        "3",
        "--flight-recorder",
    ]);
    assert_eq!(o.status.code(), Some(1));
    let err = stderr(&o);
    assert!(err.contains("\"ev\":\"postmortem\""), "{err}");
    assert!(err.contains("\"violation\":true"), "{err}");
    // The dump retains the violation events plus what preceded them.
    assert!(err.contains("\"ev\":\"violation\""), "{err}");
    assert!(err.contains("\"ev\":\"phase_enter\""), "{err}");
}

#[test]
fn flight_recorder_accepts_an_inline_capacity() {
    let o = ccv(&[
        "enumerate",
        "illinois-missing-invalidation",
        "-n",
        "3",
        "--flight-recorder=32",
    ]);
    assert_eq!(o.status.code(), Some(1));
    let err = stderr(&o);
    assert!(err.contains("\"retained\":32"), "{err}");
}

#[test]
fn flight_recorder_keeps_the_newest_lines_of_the_progress_stream() {
    let o = ccv(&[
        "simulate",
        "illinois-missing-invalidation",
        "--accesses",
        "20000",
        "--flight-recorder=32",
    ]);
    assert_eq!(o.status.code(), Some(1));
    let err = stderr(&o);
    let lines: Vec<&str> = err.lines().filter(|l| l.starts_with("{\"ev\":")).collect();
    assert!(lines[0].starts_with("{\"ev\":\"postmortem\""), "{err}");
    let events = &lines[1..];
    assert!(!events.is_empty() && events.len() <= 32, "{err}");
    assert!(!err.contains("<dropped>"), "{err}");
    assert!(!err.contains("\"ev\":\"count\""), "{err}");
    let violations: Vec<&&str> = events
        .iter()
        .filter(|l| l.starts_with("{\"ev\":\"violation\""))
        .collect();
    assert!(!violations.is_empty(), "{err}");
    for line in violations {
        assert!(line.contains("\"desc\":\"access #"), "{line}");
    }
}

#[test]
fn enumerate_parallel_prints_a_worker_summary() {
    let o = ccv(&["enumerate", "illinois", "-n", "5", "--threads", "2"]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("workers: 2"), "{out}");
    assert!(out.contains("steals:"), "{out}");
    assert!(out.contains("claim races:"), "{out}");
    assert!(out.contains("worker 0:"), "{out}");
    assert!(out.contains("worker 1:"), "{out}");
}

#[test]
fn simulate_accepts_the_observability_trio() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("sim-trace.json");
    let metrics = dir.join("sim-metrics.json");
    let o = ccv(&[
        "simulate",
        "illinois",
        "--accesses",
        "2000",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    check_trace_schema(&trace, &[0]);
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"accesses\""), "{json}");
}

#[test]
fn crosscheck_trace_contains_both_legs() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("cc-trace.json");
    let o = ccv(&[
        "crosscheck",
        "illinois",
        "-n",
        "4",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let json = check_trace_schema(&trace, &[0]);
    let legs = json
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .unwrap()
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("B")
                && e.get("name").and_then(|n| n.as_str()) == Some("crosscheck_leg")
        })
        .count();
    assert_eq!(legs, 2, "expected the enumeration and coverage legs");
}

#[test]
fn enumerate_budget_stop_writes_checkpoint_and_exits_inconclusive() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("illinois-budget.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "4",
        "--exact",
        "--threads",
        "1",
        "--max-states",
        "5",
        "--checkpoint-out",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(3), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("truncated: true"), "{out}");
    assert!(
        out.contains("inconclusive: state budget exhausted"),
        "{out}"
    );
    assert!(out.contains("checkpoint written to"), "{out}");
    assert!(ckpt.exists());
    let text = std::fs::read_to_string(&ckpt).unwrap();
    assert!(
        text.starts_with("{\"schema\":\"ccv-checkpoint-v1\""),
        "{text}"
    );
}

#[test]
fn enumerate_resume_recovers_the_uninterrupted_totals() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("illinois-resume.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    // Reference: one uninterrupted run.
    let full = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "4",
        "--exact",
        "--threads",
        "1",
    ]);
    assert_eq!(full.status.code(), Some(0), "{}", stderr(&full));
    let totals = stdout(&full)
        .lines()
        .find(|l| l.starts_with("distinct states:"))
        .expect("totals line")
        .to_string();

    // Leg 1: trip the budget, save a checkpoint.
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "4",
        "--exact",
        "--threads",
        "1",
        "--max-states",
        "5",
        "--checkpoint-out",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(3), "{}", stderr(&o));

    // Leg 2: resume with no budget; totals must match the reference.
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "4",
        "--exact",
        "--threads",
        "1",
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("resuming from"), "{out}");
    assert!(
        out.contains(&totals),
        "resumed totals differ:\n{out}\nvs\n{totals}"
    );
}

#[test]
fn enumerate_resume_rejects_a_mismatched_protocol() {
    let dir = std::env::temp_dir().join("ccv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("illinois-mismatch.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "4",
        "--exact",
        "--threads",
        "1",
        "--max-states",
        "5",
        "--checkpoint-out",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(3), "{}", stderr(&o));

    let o = ccv(&[
        "enumerate",
        "berkeley",
        "-n",
        "4",
        "--exact",
        "--threads",
        "1",
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(2), "{}", stdout(&o));
    assert!(stderr(&o).contains("checkpoint"), "{}", stderr(&o));
}

#[test]
fn enumerate_worker_panic_reports_inconclusive_without_hanging() {
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "4",
        "--exact",
        "--threads",
        "2",
        "--fault-plan",
        "enum.worker:panic@3",
    ]);
    assert_eq!(o.status.code(), Some(3), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("worker thread panicked"), "{out}");
    assert!(
        out.contains("injected fault: panic at enum.worker"),
        "{out}"
    );
}

#[test]
fn removed_spill_dir_flag_is_an_unknown_flag() {
    let dir = std::env::temp_dir().join(format!("ccv-cli-spill-gone-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "3",
        "--spill-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(2), "{}", stdout(&o));
    assert!(stderr(&o).contains("--spill-dir"), "{}", stderr(&o));
    assert!(!dir.exists(), "a refused flag creates nothing");
}

#[test]
fn misspelt_fault_site_is_refused_not_ignored() {
    let o = ccv(&[
        "enumerate",
        "illinois",
        "-n",
        "3",
        "--threads",
        "1",
        "--fault-plan",
        "enum.wroker:panic",
    ]);
    assert_eq!(o.status.code(), Some(2), "{}", stdout(&o));
    assert!(stderr(&o).contains("enum.wroker"), "{}", stderr(&o));
}

#[test]
fn split_protocols_verify_and_crosscheck_from_the_library() {
    for name in ["split-msi", "split-mesi"] {
        let o = ccv(&["verify", name]);
        assert_eq!(o.status.code(), Some(0), "{name}: {}", stderr(&o));
        assert!(stdout(&o).contains("VERIFIED"), "{name}");
        let o = ccv(&["crosscheck", name, "-n", "2"]);
        assert_eq!(o.status.code(), Some(0), "{name}: {}", stderr(&o));
        assert!(stdout(&o).contains("Theorem 1 holds"), "{name}");
    }
}

#[test]
fn split_corpus_files_verify_through_the_loader() {
    let root = env!("CARGO_MANIFEST_DIR");
    for file in ["split-msi.ccv", "split-mesi.ccv"] {
        let path = format!("{root}/../../protocols/{file}");
        let o = ccv(&["verify", &path]);
        assert_eq!(o.status.code(), Some(0), "{file}: {}", stderr(&o));
        assert!(stdout(&o).contains("VERIFIED"), "{file}");
    }
}

#[test]
fn split_mutants_are_caught_with_a_concrete_interleaving() {
    for name in ["split-msi-upgrade-race-lost", "split-msi-ignores-readx"] {
        let o = ccv(&["verify", name]);
        assert_eq!(o.status.code(), Some(1), "{name}: {}", stderr(&o));
        assert!(stdout(&o).contains("ERRONEOUS"), "{name}");
        let o = ccv(&["witness", name]);
        assert_eq!(o.status.code(), Some(1), "{name}: {}", stderr(&o));
        let out = stdout(&o);
        assert!(
            out.contains("completes its pending bus transaction"),
            "{name}: the scenario must show a completion phase\n{out}"
        );
        assert!(
            out.contains("witness with 2 caches"),
            "{name}: interleaving bugs need two processors\n{out}"
        );
    }
}

#[test]
fn simulate_rejects_split_protocols_cleanly() {
    let o = ccv(&["simulate", "split-msi", "--accesses", "10"]);
    assert_eq!(o.status.code(), Some(2), "{}", stdout(&o));
    let err = stderr(&o);
    assert!(err.contains("transient"), "{err}");
    assert!(err.contains("atomic bus"), "{err}");
}

/// `text` with each duration (`123.06us`, `790ns`) and the share column
/// after it masked, and runs of spaces collapsed, so that only the
/// counts remain.
fn mask_timings(text: &str) -> String {
    let is_duration = |t: &str| {
        let digits = ["ns", "us", "ms", "s"]
            .iter()
            .find_map(|unit| t.strip_suffix(unit));
        digits.is_some_and(|d| !d.is_empty() && d.parse::<f64>().is_ok())
    };
    let mut out = String::new();
    for line in text.lines() {
        let mut after_duration = false;
        let masked: Vec<&str> = line
            .split_whitespace()
            .map(|t| {
                let share = after_duration && t.ends_with('%');
                after_duration = is_duration(t);
                if after_duration || share {
                    "<time>"
                } else {
                    t
                }
            })
            .collect();
        out.push_str(&masked.join(" "));
        out.push('\n');
    }
    out
}

#[test]
fn enumerate_rule_stats_and_counters_match_the_golden_run() {
    // Recorded before a successor equal to its parent stopped being
    // claimed: the skip must leave every count in place. The sequential
    // engine reports `claim_probes` (added with the probe counter) as 0;
    // it is checked here and left out of the recording.
    let dir = std::env::temp_dir().join(format!("ccv-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let o = ccv(&[
        "enumerate",
        "dragon",
        "-n",
        "6",
        "--exact",
        "--threads",
        "1",
        "--rule-stats",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let json = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let mut got: String = stdout(&o)
        .lines()
        .filter(|l| !l.starts_with("metrics written to"))
        .map(|l| format!("{l}\n"))
        .collect();
    let counters = json
        .lines()
        .skip_while(|l| !l.contains("\"counters\""))
        .take_while(|l| !l.trim_start().starts_with('}'));
    for line in counters {
        if line.contains("\"claim_probes\"") {
            assert_eq!(line.trim(), "\"claim_probes\": 0,");
            continue;
        }
        match line.split_once("_ns\": ") {
            Some((name, _)) => got.push_str(&format!("{name}_ns\": <time>\n")),
            None => got.push_str(&format!("{line}\n")),
        }
    }
    let want = include_str!("golden/enumerate_dragon_n6_rule_stats.txt");
    assert_eq!(mask_timings(&got), want);
}
