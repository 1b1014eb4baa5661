//! Performance snapshot of the verification engines.
//!
//! Runs a fixed matrix of enumeration workloads — protocol × machine
//! size × thread count — and writes a machine-readable JSON snapshot
//! with throughput (states/s and visits/s), peak pending-work depth
//! and the `ccv-observe` phase wall time per configuration. Since the
//! interned-arena refactor the snapshot also carries a `symbolic`
//! section: one row per protocol through a warm batch session, plus
//! the Illinois single-mutant sweep measured twice — through the
//! batch API (`sym-sweep/batch`) and through the retained naive
//! reference engine (`sym-sweep/reference`) — so the batch speedup is
//! computable from a single snapshot on a single machine. Schema v3
//! adds a `serve` section measured against a loopback `ccv serve`
//! daemon over real TCP: cached vs uncached request latency, and
//! uncached throughput at 1, 4 and 8 concurrent clients. Schema v4
//! adds a `spill` row (Illinois n=12 through the spill-backed visited
//! table). The checked-in `BENCH_PR7.json` at the repository root is
//! the reference snapshot.
//!
//! Because absolute rates vary wildly across machines, every snapshot
//! also measures a *reference workload* (sequential Illinois `n = 12`,
//! exact dedup) in the same process. `--check` compares rates
//! *normalised by the reference rate*, so a slower CI runner does not
//! trip the gate — only a change in the engine's relative performance
//! does.
//!
//! ```text
//! bench_snapshot [--out FILE] [--reduced] [--heavy] [--threads A,B,..]
//!                [--check BASELINE [--tolerance F]]
//!                [--min-sweep-speedup F]
//! ```
//!
//! * `--out FILE` — write the snapshot JSON (default: stdout only).
//! * `--reduced` — CI matrix: the two heaviest protocols at one size.
//! * `--heavy` — add `n ∈ {12, 14}` rows to the full matrix.
//! * `--threads` — override the thread counts (default `1` and one
//!   per available core).
//! * `--check BASELINE` — compare against a previous snapshot; exit 1
//!   if any config's normalised rate regressed by more than
//!   `--tolerance` (default 0.30). Only configs present in both
//!   snapshots are compared.
//! * `--min-sweep-speedup F` — exit 1 unless the batch mutation sweep
//!   beats the naive reference engine by at least `F`× *in this run*
//!   (same process, same machine — no normalisation needed), taken as
//!   the median ratio of alternating timing rounds.

use ccv_core::{reference_expand, Batch, Options};
use ccv_enum::{enumerate, enumerate_parallel, EnumOptions, EnumResult, SpillConfig};
use ccv_model::mutate::single_mutants;
use ccv_model::{protocols, ProtocolSpec};
use ccv_observe::{EventSink, Gauge, Json, Metrics, Phase};
use std::sync::Arc;
use std::time::Instant;

/// Keep timing a workload until it has consumed at least this much
/// wall time, so small state spaces still give stable rates.
const MIN_SAMPLE_MS: u128 = 250;

/// Hard cap on repetitions for tiny workloads.
const MAX_REPS: u32 = 2_000;

#[derive(Clone)]
struct Config {
    protocol: &'static str,
    n: usize,
    threads: usize,
}

impl Config {
    /// Stable identity used to match rows across snapshots.
    fn key(&self) -> String {
        format!("{}/n{}/t{}", self.protocol, self.n, self.threads)
    }
}

struct Row {
    key: String,
    config: Config,
    reps: u32,
    distinct: usize,
    visits: usize,
    wall_ms: f64,
    states_per_sec: f64,
    visits_per_sec: f64,
    peak_pending: u64,
    phase_wall_ms: f64,
}

fn spec_of(name: &str) -> ProtocolSpec {
    match name {
        "illinois" => protocols::illinois(),
        "dragon" => protocols::dragon(),
        "berkeley" => protocols::berkeley(),
        other => panic!("unknown benchmark protocol {other}"),
    }
}

fn run_once(spec: &ProtocolSpec, opts: &EnumOptions, threads: usize) -> EnumResult {
    if threads > 1 {
        enumerate_parallel(spec, opts, threads)
    } else {
        enumerate(spec, opts)
    }
}

/// Times one configuration: repeat until [`MIN_SAMPLE_MS`] of wall
/// time, then one instrumented run for the observe-side numbers.
fn measure(config: &Config) -> Row {
    let opts = EnumOptions::new(config.n).exact();
    measure_with(config.key(), config, opts)
}

/// Illinois n=12 through the spill-backed visited table, at a
/// threshold low enough that segments are actually written. The key
/// rides the same normalised CI gate as the in-RAM rows, so an
/// accidental slowdown of the out-of-core path is caught.
fn measure_spill() -> Row {
    let dir = std::env::temp_dir().join(format!("ccv-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = Config {
        protocol: "illinois",
        n: 12,
        threads: 1,
    };
    let opts = EnumOptions::new(12)
        .exact()
        .spill(SpillConfig::new(&dir, Some(256 * 1024)));
    let row = measure_with("spill".to_string(), &config, opts);
    let _ = std::fs::remove_dir_all(&dir);
    row
}

fn measure_with(key: String, config: &Config, opts: EnumOptions) -> Row {
    let spec = spec_of(config.protocol);

    let mut reps = 0u32;
    let t0 = Instant::now();
    let mut result = None;
    while t0.elapsed().as_millis() < MIN_SAMPLE_MS && reps < MAX_REPS {
        result = Some(run_once(&spec, &opts, config.threads));
        reps += 1;
    }
    let wall = t0.elapsed();
    let result = result.expect("at least one repetition");
    assert!(result.is_clean(), "{key}: benchmark protocol violated");

    let metrics = Arc::new(Metrics::new());
    let instrumented = opts.clone().sink(metrics.clone() as Arc<dyn EventSink>);
    let check = run_once(&spec, &instrumented, config.threads);
    assert_eq!(check.distinct, result.distinct);
    let snap = metrics.snapshot();

    let secs = wall.as_secs_f64();
    let per_rep = secs / reps as f64;
    Row {
        key,
        config: config.clone(),
        reps,
        distinct: result.distinct,
        visits: result.visits,
        wall_ms: per_rep * 1e3,
        states_per_sec: result.distinct as f64 / per_rep,
        visits_per_sec: result.visits as f64 / per_rep,
        peak_pending: snap.gauge(Gauge::PeakPending).unwrap_or(0),
        phase_wall_ms: snap.phase_nanos(Phase::Enumerate) as f64 / 1e6,
    }
}

/// One symbolic-engine measurement: a protocol (or the mutation
/// sweep) run to a verdict, repeatedly, through a warm session.
struct SymRow {
    key: String,
    reps: u32,
    essential: usize,
    visits: usize,
    wall_ms: f64,
    visits_per_sec: f64,
}

/// Times `work` (which returns (essential, visits) per repetition)
/// until [`MIN_SAMPLE_MS`] of wall time has accrued.
fn time_symbolic(key: &str, mut work: impl FnMut() -> (usize, usize)) -> SymRow {
    // One untimed pass warms scratch buffers, index buckets and the
    // arena pool, so the row measures the steady state.
    let (essential, visits) = work();

    let mut reps = 0u32;
    let t0 = Instant::now();
    while t0.elapsed().as_millis() < MIN_SAMPLE_MS && reps < MAX_REPS {
        let (e, v) = work();
        assert_eq!((e, v), (essential, visits), "{key}: unstable result");
        reps += 1;
    }
    let per_rep = t0.elapsed().as_secs_f64() / reps as f64;
    SymRow {
        key: key.to_string(),
        reps,
        essential,
        visits,
        wall_ms: per_rep * 1e3,
        visits_per_sec: visits as f64 / per_rep,
    }
}

/// Timed rounds of each mutation sweep. The batch and naive sweeps
/// alternate, so both see the same drift in machine load, and the
/// speedup is the median of the per-round ratios.
const SWEEP_ROUNDS: usize = 5;

/// The symbolic rows: every protocol through one warm batch session,
/// then the Illinois single-mutant sweep through the batch API and
/// through the naive reference engine. The two sweep rows share the
/// workload, so their rate ratio is the batch/refactor speedup; they
/// are timed in [`SWEEP_ROUNDS`] alternating rounds, and the rows
/// reported are those of the round with the median ratio.
fn measure_symbolic() -> (Vec<SymRow>, f64) {
    let mut rows = Vec::new();

    let mut batch = Batch::new();
    for spec in protocols::all_correct() {
        let key = format!("sym/{}", spec.name());
        rows.push(time_symbolic(&key, || {
            let s = batch.summarize(&spec);
            (s.essential, s.visits)
        }));
    }

    let opts = Options::default().max_visits(100_000);
    let mutants = single_mutants(&protocols::illinois());
    let mut batch = Batch::with_options(opts.clone());
    let mut rounds: Vec<(f64, SymRow, SymRow)> = (0..SWEEP_ROUNDS)
        .map(|_| {
            let sweep = time_symbolic("sym-sweep/batch", || {
                let mut visits = 0;
                for m in &mutants {
                    visits += batch.summarize(&m.spec).visits;
                }
                (mutants.len(), visits)
            });
            let reference = time_symbolic("sym-sweep/reference", || {
                let mut visits = 0;
                for m in &mutants {
                    visits += reference_expand(&m.spec, &opts).visits;
                }
                (mutants.len(), visits)
            });
            (
                sweep.visits_per_sec / reference.visits_per_sec,
                sweep,
                reference,
            )
        })
        .collect();
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (speedup, sweep, reference) = rounds.swap_remove(SWEEP_ROUNDS / 2);
    rows.push(sweep);
    rows.push(reference);
    (rows, speedup)
}

/// One `ccv serve` measurement: requests pushed through a loopback
/// daemon over real TCP, NDJSON framing.
struct ServeRow {
    key: String,
    clients: usize,
    requests: u32,
    wall_ms_per_request: f64,
    requests_per_sec: f64,
}

/// Sends one NDJSON request line to `addr` and reads to the response
/// envelope; returns true if it was served from the verdict cache.
fn serve_round_trip(addr: std::net::SocketAddr, line: &str) -> bool {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to bench server");
    stream.write_all(line.as_bytes()).expect("send request");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        buf.clear();
        let n = reader.read_line(&mut buf).expect("read event");
        assert!(n > 0, "server closed before responding");
        if let Some(rest) = buf.strip_prefix("{\"ev\":\"response\",\"cached\":") {
            assert!(
                buf.contains("\"truncated\":false") && !buf.contains("\"error\""),
                "bench request failed: {buf}"
            );
            return rest.starts_with("true");
        }
    }
}

/// An enumeration request heavy enough (~tens of ms of engine time)
/// that serving it from the verdict cache is visibly cheaper than
/// recomputing it. Distinct `budget` values (all far above the real
/// visit count, and part of the semantic key) give distinct cache
/// keys, so `bust != 0` defeats the cache without changing the work.
fn serve_request(bust: usize) -> String {
    use ccv_core::{ProtocolSource, Request};
    let mut req = Request::enumerate(ProtocolSource::Spec(protocols::illinois()), 12);
    req.options.exact = true;
    if bust != 0 {
        req.options.budget = Some(10_000_000 + bust);
    }
    req.to_json().render_compact()
}

/// The daemon rows: cached and uncached single-client latency, then
/// uncached throughput at 1, 4 and 8 concurrent clients.
fn measure_serve() -> Vec<ServeRow> {
    use ccv_serve::{Server, ServerConfig};
    let mut config = ServerConfig::loopback();
    config.workers = 8;
    config.queue_depth = 32;
    config.cache_capacity = 1 << 14;
    // The workload is enumerate illinois n=12; keep each request on
    // one engine thread so the concurrency scaling measured here is
    // the daemon's, not the engine's.
    config.max_n = 12;
    config.max_threads = 1;
    let server = Server::bind(config)
        .expect("bind loopback bench server")
        .spawn();
    let addr = server.addr();

    let mut rows = Vec::new();
    let mut bust = 0usize;
    let mut next_bust = || {
        bust += 1;
        bust
    };

    // Warm the runner pool and the cached entry.
    serve_round_trip(addr, &serve_request(0));

    for (key, cached) in [
        ("serve/latency/cached", true),
        ("serve/latency/uncached", false),
    ] {
        let mut reps = 0u32;
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < MIN_SAMPLE_MS && reps < MAX_REPS {
            let line = if cached {
                serve_request(0)
            } else {
                serve_request(next_bust())
            };
            assert_eq!(serve_round_trip(addr, &line), cached, "{key}");
            reps += 1;
        }
        let per_req = t0.elapsed().as_secs_f64() / reps as f64;
        rows.push(ServeRow {
            key: key.to_string(),
            clients: 1,
            requests: reps,
            wall_ms_per_request: per_req * 1e3,
            requests_per_sec: 1.0 / per_req,
        });
    }

    for clients in [1usize, 4, 8] {
        // A fixed uncached batch per client keeps the comparison
        // apples-to-apples across concurrency levels.
        const PER_CLIENT: u32 = 24;
        let batches: Vec<Vec<String>> = (0..clients)
            .map(|_| {
                (0..PER_CLIENT)
                    .map(|_| serve_request(next_bust()))
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        let joins: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                std::thread::spawn(move || {
                    for line in &batch {
                        assert!(!serve_round_trip(addr, line), "bench request cached");
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().expect("bench client");
        }
        let secs = t0.elapsed().as_secs_f64();
        let total = PER_CLIENT * clients as u32;
        rows.push(ServeRow {
            key: format!("serve/throughput/c{clients}"),
            clients,
            requests: total,
            wall_ms_per_request: secs * 1e3 / total as f64,
            requests_per_sec: total as f64 / secs,
        });
    }
    server.shutdown();
    rows
}

fn matrix(reduced: bool, heavy: bool, threads: &[usize]) -> Vec<Config> {
    let mut configs = Vec::new();
    if reduced {
        for protocol in ["illinois", "dragon"] {
            for &t in threads {
                configs.push(Config {
                    protocol,
                    n: 12,
                    threads: t,
                });
            }
        }
        return configs;
    }
    for protocol in ["illinois", "dragon", "berkeley"] {
        let mut sizes = vec![4usize, 5, 6, 7, 8];
        if heavy {
            sizes.extend([12, 14]);
        }
        for n in sizes {
            for &t in threads {
                configs.push(Config {
                    protocol,
                    n,
                    threads: t,
                });
            }
        }
    }
    configs
}

/// The machine-speed reference: sequential Illinois n=12, exact dedup.
fn reference_rate() -> f64 {
    let spec = protocols::illinois();
    let opts = EnumOptions::new(12).exact();
    // One warm-up, then time a single run (large enough to be stable).
    let _ = enumerate(&spec, &opts);
    let t0 = Instant::now();
    let r = enumerate(&spec, &opts);
    r.visits as f64 / t0.elapsed().as_secs_f64()
}

fn to_json(
    rows: &[Row],
    sym_rows: &[SymRow],
    serve_rows: &[ServeRow],
    sweep_speedup: f64,
    reference: f64,
) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str("ccv-bench-snapshot-v4")),
        (
            "reference".into(),
            Json::Obj(vec![
                (
                    "workload".into(),
                    Json::str("illinois n=12 exact sequential"),
                ),
                ("visits_per_sec".into(), Json::Num(reference)),
            ]),
        ),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("key".into(), Json::str(r.key.as_str())),
                            ("protocol".into(), Json::str(r.config.protocol)),
                            ("n".into(), Json::int(r.config.n as u64)),
                            ("threads".into(), Json::int(r.config.threads as u64)),
                            ("reps".into(), Json::int(r.reps as u64)),
                            ("distinct".into(), Json::int(r.distinct as u64)),
                            ("visits".into(), Json::int(r.visits as u64)),
                            ("wall_ms".into(), Json::Num(r.wall_ms)),
                            ("states_per_sec".into(), Json::Num(r.states_per_sec)),
                            ("visits_per_sec".into(), Json::Num(r.visits_per_sec)),
                            ("peak_pending".into(), Json::int(r.peak_pending)),
                            ("phase_wall_ms".into(), Json::Num(r.phase_wall_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "symbolic".into(),
            Json::Obj(vec![
                (
                    "rows".into(),
                    Json::Arr(
                        sym_rows
                            .iter()
                            .map(|r| {
                                Json::Obj(vec![
                                    ("key".into(), Json::str(r.key.as_str())),
                                    ("reps".into(), Json::int(r.reps as u64)),
                                    ("essential".into(), Json::int(r.essential as u64)),
                                    ("visits".into(), Json::int(r.visits as u64)),
                                    ("wall_ms".into(), Json::Num(r.wall_ms)),
                                    ("visits_per_sec".into(), Json::Num(r.visits_per_sec)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("sweep_speedup".into(), Json::Num(sweep_speedup)),
            ]),
        ),
        (
            "serve".into(),
            Json::Obj(vec![(
                "rows".into(),
                Json::Arr(
                    serve_rows
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("key".into(), Json::str(r.key.as_str())),
                                ("clients".into(), Json::int(r.clients as u64)),
                                ("requests".into(), Json::int(r.requests as u64)),
                                (
                                    "wall_ms_per_request".into(),
                                    Json::Num(r.wall_ms_per_request),
                                ),
                                ("requests_per_sec".into(), Json::Num(r.requests_per_sec)),
                            ])
                        })
                        .collect(),
                ),
            )]),
        ),
    ])
}

/// Extracts `key -> visits_per_sec / reference` from a snapshot JSON.
/// Symbolic rows (schema v2) are included when present, so the CI
/// gate covers the symbolic engine with the same normalisation.
fn normalised_rates(doc: &Json) -> Vec<(String, f64)> {
    let reference = doc
        .get("reference")
        .and_then(|r| r.get("visits_per_sec"))
        .and_then(Json::as_f64)
        .expect("snapshot has a reference rate");
    let mut rows: Vec<&Json> = doc
        .get("rows")
        .and_then(Json::as_arr)
        .expect("snapshot has rows")
        .iter()
        .collect();
    if let Some(sym) = doc.get("symbolic").and_then(|s| s.get("rows")) {
        rows.extend(sym.as_arr().expect("symbolic rows").iter());
    }
    rows.iter()
        .map(|row| {
            let key = row
                .get("key")
                .and_then(Json::as_str)
                .expect("row key")
                .to_string();
            let rate = row
                .get("visits_per_sec")
                .and_then(Json::as_f64)
                .expect("row rate");
            (key, rate / reference)
        })
        // The naive engine is a deliberately unoptimised oracle whose
        // absolute speed is not a target — it is in the snapshot only
        // so `sweep_speedup` is computable. Don't gate on it.
        .filter(|(key, _)| key != "sym-sweep/reference")
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut tolerance = 0.30f64;
    let mut min_sweep_speedup: Option<f64> = None;
    let mut reduced = false;
    let mut heavy = false;
    let mut threads: Option<Vec<usize>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = Some(args[i + 1].clone());
                i += 2;
            }
            "--check" => {
                check = Some(args[i + 1].clone());
                i += 2;
            }
            "--tolerance" => {
                tolerance = args[i + 1].parse().expect("--tolerance takes a fraction");
                i += 2;
            }
            "--min-sweep-speedup" => {
                min_sweep_speedup = Some(
                    args[i + 1]
                        .parse()
                        .expect("--min-sweep-speedup takes a factor"),
                );
                i += 2;
            }
            "--threads" => {
                threads = Some(
                    args[i + 1]
                        .split(',')
                        .map(|t| t.parse().expect("--threads takes a comma list"))
                        .collect(),
                );
                i += 2;
            }
            "--reduced" => {
                reduced = true;
                i += 1;
            }
            "--heavy" => {
                heavy = true;
                i += 1;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = threads.unwrap_or_else(|| if cores > 1 { vec![1, cores] } else { vec![1] });

    eprintln!("measuring reference workload...");
    let reference = reference_rate();
    eprintln!("reference: {:.0} visits/s", reference);

    let configs = matrix(reduced, heavy, &threads);
    let mut rows = Vec::with_capacity(configs.len() + 1);
    for config in &configs {
        let row = measure(config);
        eprintln!(
            "{:<22} {:>9} distinct {:>10} visits  {:>9.1} ms  {:>11.0} visits/s  peak {}",
            row.key, row.distinct, row.visits, row.wall_ms, row.visits_per_sec, row.peak_pending
        );
        rows.push(row);
    }

    eprintln!("measuring spill workload (out-of-core visited table)...");
    let spill = measure_spill();
    eprintln!(
        "{:<22} {:>9} distinct {:>10} visits  {:>9.1} ms  {:>11.0} visits/s",
        spill.key, spill.distinct, spill.visits, spill.wall_ms, spill.visits_per_sec
    );
    rows.push(spill);

    eprintln!("measuring symbolic workloads...");
    let (sym_rows, sweep_speedup) = measure_symbolic();
    for r in &sym_rows {
        eprintln!(
            "{:<22} {:>9} essential {:>10} visits  {:>9.3} ms  {:>11.0} visits/s",
            r.key, r.essential, r.visits, r.wall_ms, r.visits_per_sec
        );
    }
    eprintln!(
        "mutation-sweep batch speedup over the naive reference: {sweep_speedup:.2}x \
         (median of {SWEEP_ROUNDS} rounds)"
    );
    if let Some(floor) = min_sweep_speedup {
        if sweep_speedup < floor {
            eprintln!("FAIL: batch sweep speedup {sweep_speedup:.2}x below the {floor:.2}x floor");
            std::process::exit(1);
        }
    }

    eprintln!("measuring serve workloads (loopback daemon)...");
    let serve_rows = measure_serve();
    for r in &serve_rows {
        eprintln!(
            "{:<24} {:>2} clients {:>6} requests  {:>9.3} ms/req  {:>9.1} req/s",
            r.key, r.clients, r.requests, r.wall_ms_per_request, r.requests_per_sec
        );
    }

    let doc = to_json(&rows, &sym_rows, &serve_rows, sweep_speedup, reference);
    let rendered = doc.render();
    match &out {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n")).expect("write snapshot");
            eprintln!("snapshot written to {path}");
        }
        None => println!("{rendered}"),
    }

    if let Some(baseline_path) = check {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("reading {baseline_path}: {e}"));
        let baseline = Json::parse(&text).expect("baseline parses");
        let base_rates = normalised_rates(&baseline);
        let current: Vec<(String, f64)> = normalised_rates(&doc);
        let mut failed = false;
        let mut compared = 0usize;
        for (key, base) in &base_rates {
            let Some((_, now)) = current.iter().find(|(k, _)| k == key) else {
                continue;
            };
            compared += 1;
            let ratio = now / base;
            let verdict = if ratio < 1.0 - tolerance {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            eprintln!(
                "check {key:<22} baseline {base:>7.3} now {now:>7.3} ratio {ratio:>5.2}  {verdict}"
            );
        }
        assert!(compared > 0, "no overlapping configs with {baseline_path}");
        if failed {
            eprintln!(
                "FAIL: normalised throughput regressed more than {:.0}%",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "check passed: {compared} configs within {:.0}%",
            tolerance * 100.0
        );
    }
}
