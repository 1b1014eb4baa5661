//! Performance snapshot of the verification engines: the CI
//! regression gate.
//!
//! Runs a fixed matrix of exact enumeration workloads — Illinois and
//! Dragon at n = 12, once per thread count — plus a `spill` row
//! (Illinois n = 12 through the spill-backed visited table), and
//! writes a machine-readable JSON snapshot (schema
//! `ccv-bench-snapshot-v6`) with throughput (states/s and visits/s),
//! peak pending-work depth and the `ccv-observe` phase wall time per
//! row. A `symbolic` section adds one row per protocol through a warm
//! batch session, plus the Illinois single-mutant sweep measured twice
//! — through the batch API (`sym-sweep/batch`) and through the
//! retained naive reference engine (`sym-sweep/reference`) — so the
//! batch speedup is computable from a single snapshot on a single
//! machine. The checked-in `BENCH_PR7.json` at the repository root is
//! the baseline snapshot.
//!
//! Because absolute rates vary wildly across machines, every snapshot
//! also measures a *reference workload* in the same process: a fixed
//! xorshift loop that calls no `ccv` crate.
//! `--check` compares rates *normalised by the reference rate*, so a
//! slower CI runner does not trip the gate, and neither does a faster
//! engine elsewhere: only a change in a gated row's own speed does.
//!
//! ```text
//! bench_snapshot [--out FILE] [--threads A,B,..]
//!                [--check BASELINE [--tolerance F]]
//!                [--min-sweep-speedup F]
//! ```
//!
//! * `--out FILE` — write the snapshot JSON (default: stdout only).
//! * `--threads` — the enumeration rows' thread counts (default `1`
//!   and one per available core).
//! * `--check BASELINE` — compare against a previous snapshot; exit 1
//!   if any row's normalised rate regressed by more than
//!   `--tolerance` (default 0.30). Only rows present in both
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

/// Fewest repetitions of a workload, however long each one takes.
const MIN_REPS: u32 = 5;

/// The cache count of every enumeration row.
const N: usize = 12;

struct Row {
    /// Stable identity used to match rows across snapshots.
    key: String,
    protocol: &'static str,
    threads: usize,
    reps: u32,
    distinct: usize,
    visits: usize,
    wall_ms: f64,
    states_per_sec: f64,
    visits_per_sec: f64,
    peak_pending: u64,
    phase_wall_ms: f64,
}

fn run_once(spec: &ProtocolSpec, opts: &EnumOptions, threads: usize) -> EnumResult {
    if threads > 1 {
        enumerate_parallel(spec, opts, threads)
    } else {
        enumerate(spec, opts)
    }
}

/// Illinois n=12 through the spill-backed visited table, at a
/// threshold low enough that segments are actually written. The key
/// rides the same normalised CI gate as the in-RAM rows, so an
/// accidental slowdown of the out-of-core path is caught.
fn measure_spill() -> Row {
    let dir = std::env::temp_dir().join(format!("ccv-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = EnumOptions::new(N)
        .exact()
        .spill(SpillConfig::new(&dir, Some(256 * 1024)));
    let row = measure("spill".to_string(), "illinois", 1, opts);
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// Times one configuration: repeat until [`MIN_SAMPLE_MS`] of wall
/// time and [`MIN_REPS`] repetitions, then one instrumented run for
/// the observe-side numbers.
fn measure(key: String, protocol: &'static str, threads: usize, opts: EnumOptions) -> Row {
    let spec = protocols::by_name(protocol).expect("library protocol");

    let mut reps = 0u32;
    let t0 = Instant::now();
    let mut result = None;
    while t0.elapsed().as_millis() < MIN_SAMPLE_MS || reps < MIN_REPS {
        result = Some(run_once(&spec, &opts, threads));
        reps += 1;
    }
    let wall = t0.elapsed();
    let result = result.expect("at least one repetition");
    assert!(result.is_clean(), "{key}: benchmark protocol violated");

    let metrics = Arc::new(Metrics::new());
    let instrumented = opts.clone().sink(metrics.clone() as Arc<dyn EventSink>);
    let check = run_once(&spec, &instrumented, threads);
    assert_eq!(check.distinct, result.distinct);
    let snap = metrics.snapshot();

    let secs = wall.as_secs_f64();
    let per_rep = secs / reps as f64;
    Row {
        key,
        protocol,
        threads,
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
/// until [`MIN_SAMPLE_MS`] of wall time and [`MIN_REPS`] repetitions
/// have accrued.
fn time_symbolic(key: &str, mut work: impl FnMut() -> (usize, usize)) -> SymRow {
    // One untimed pass warms scratch buffers, index buckets and the
    // arena pool, so the row measures the steady state.
    let (essential, visits) = work();

    let mut reps = 0u32;
    let t0 = Instant::now();
    while t0.elapsed().as_millis() < MIN_SAMPLE_MS || reps < MIN_REPS {
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

/// Xorshift steps per timing of the reference loop.
const REFERENCE_STEPS: u64 = 1 << 24;

/// The machine-speed reference: a fixed xorshift loop that calls no
/// `ccv` crate, so no engine change moves it. Returns steps per
/// second, the median of five timings. Over ten runs on a shared
/// 2-vCPU host it varied less between runs than a loop over a 4 MiB
/// table or the Illinois n = 12 enumeration it replaces.
fn reference_rate() -> f64 {
    let run = || {
        let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1d_u64);
        for _ in 0..REFERENCE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    };
    run();
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            run();
            REFERENCE_STEPS as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

fn to_json(rows: &[Row], sym_rows: &[SymRow], sweep_speedup: f64, reference: f64) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str("ccv-bench-snapshot-v6")),
        (
            "reference".into(),
            Json::Obj(vec![
                ("workload".into(), Json::str("xorshift steps")),
                ("ops_per_sec".into(), Json::Num(reference)),
            ]),
        ),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("key".into(), Json::str(r.key.as_str())),
                            ("protocol".into(), Json::str(r.protocol)),
                            ("n".into(), Json::int(N as u64)),
                            ("threads".into(), Json::int(r.threads as u64)),
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
    ])
}

/// Extracts `key -> visits_per_sec / reference` from a snapshot JSON.
/// Symbolic rows (schema v2) are included when present, so the CI
/// gate covers the symbolic engine with the same normalisation.
fn normalised_rates(doc: &Json) -> Vec<(String, f64)> {
    let reference = doc
        .get("reference")
        .and_then(|r| r.get("ops_per_sec"))
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

/// One row of a `--check` comparison: a key present in both
/// snapshots, with its normalised baseline and current rates.
struct Checked {
    key: String,
    base: f64,
    now: f64,
    /// The current rate fell below `1 - tolerance` of the baseline.
    regressed: bool,
}

/// Compares `current`'s normalised rates against `baseline`'s, one
/// entry per key present in both (keys on only one side are
/// skipped). Zero overlap is an error: the gate would check nothing.
fn compare(baseline: &Json, current: &Json, tolerance: f64) -> Result<Vec<Checked>, String> {
    let current = normalised_rates(current);
    let checked: Vec<Checked> = normalised_rates(baseline)
        .into_iter()
        .filter_map(|(key, base)| {
            let now = current.iter().find(|(k, _)| *k == key)?.1;
            Some(Checked {
                regressed: now / base < 1.0 - tolerance,
                key,
                base,
                now,
            })
        })
        .collect();
    if checked.is_empty() {
        return Err("no rows in common with the baseline".into());
    }
    Ok(checked)
}

/// Printed with every command-line error.
const USAGE: &str = "usage: bench_snapshot [--out FILE] [--threads A,B,..] \
                     [--check BASELINE [--tolerance F]] [--min-sweep-speedup F]";

/// The command line, parsed.
#[derive(Debug, PartialEq)]
struct Args {
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
    min_sweep_speedup: Option<f64>,
    threads: Option<Vec<usize>>,
}

/// Parses the command line; an error names the flag at fault.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        out: None,
        check: None,
        tolerance: 0.30,
        min_sweep_speedup: None,
        threads: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--out" => parsed.out = Some(value()?.clone()),
            "--check" => parsed.check = Some(value()?.clone()),
            "--tolerance" => parsed.tolerance = number(flag, value()?)?,
            "--min-sweep-speedup" => parsed.min_sweep_speedup = Some(number(flag, value()?)?),
            "--threads" => {
                let text = value()?;
                let counts = text.split(',').map(|t| t.parse().ok().filter(|&t| t > 0));
                parsed.threads = Some(counts.collect::<Option<_>>().ok_or_else(|| {
                    format!("--threads takes a comma list of positive counts, got '{text}'")
                })?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// A finite, non-negative number for `flag`.
fn number(flag: &str, text: &str) -> Result<f64, String> {
    text.parse()
        .ok()
        .filter(|v: &f64| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("{flag} takes a non-negative number, got '{text}'"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        out,
        check,
        tolerance,
        min_sweep_speedup,
        threads,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = threads.unwrap_or_else(|| if cores > 1 { vec![1, cores] } else { vec![1] });

    eprintln!("measuring reference workload...");
    let reference = reference_rate();
    eprintln!("reference: {:.0} ops/s", reference);

    let mut rows = Vec::new();
    for protocol in ["illinois", "dragon"] {
        for &t in &threads {
            let key = format!("{protocol}/n{N}/t{t}");
            let row = measure(key, protocol, t, EnumOptions::new(N).exact());
            eprintln!(
                "{:<22} {:>9} distinct {:>10} visits  {:>9.1} ms  {:>11.0} visits/s  peak {}",
                row.key,
                row.distinct,
                row.visits,
                row.wall_ms,
                row.visits_per_sec,
                row.peak_pending
            );
            rows.push(row);
        }
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

    let doc = to_json(&rows, &sym_rows, sweep_speedup, reference);
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
        let checked = compare(&baseline, &doc, tolerance).unwrap_or_else(|e| {
            eprintln!("FAIL: {baseline_path}: {e}");
            std::process::exit(1);
        });
        for c in &checked {
            eprintln!(
                "check {:<22} baseline {:>7.3} now {:>7.3} ratio {:>5.2}  {}",
                c.key,
                c.base,
                c.now,
                c.now / c.base,
                if c.regressed { "REGRESSED" } else { "ok" }
            );
        }
        if checked.iter().any(|c| c.regressed) {
            eprintln!(
                "FAIL: normalised throughput regressed more than {:.0}%",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "check passed: {} configs within {:.0}%",
            checked.len(),
            tolerance * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gates `now` against `base` at the CI tolerance: rows are
    /// `(key, visits_per_sec)` at reference rate 1, with `sym*` keys in
    /// the symbolic section. Returns each compared key and its verdict.
    fn gate(base: &[(&str, f64)], now: &[(&str, f64)]) -> Result<Vec<String>, String> {
        let doc = |rows: &[(&str, f64)]| {
            let section = |sym: bool| {
                let rows = rows.iter().filter(|(key, _)| key.starts_with("sym") == sym);
                let rows =
                    rows.map(|(key, r)| format!(r#"{{"key":"{key}","visits_per_sec":{r}}}"#));
                rows.collect::<Vec<_>>().join(",")
            };
            let (plain, sym) = (section(false), section(true));
            let text = format!(
                r#"{{"reference":{{"ops_per_sec":1}},"rows":[{plain}],"symbolic":{{"rows":[{sym}]}}}}"#
            );
            Json::parse(&text).expect("test snapshot parses")
        };
        let checked = compare(&doc(base), &doc(now), 0.30)?;
        let verdict = |c: Checked| format!("{} {}", c.key, if c.regressed { "fail" } else { "ok" });
        Ok(checked.into_iter().map(verdict).collect())
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn every_flag_parses_and_the_defaults_hold() {
        let all = parse(&[
            "--out",
            "snap.json",
            "--check",
            "BENCH.json",
            "--tolerance",
            "0.25",
            "--min-sweep-speedup",
            "1.2",
            "--threads",
            "1,2",
        ])
        .unwrap();
        assert_eq!(
            all,
            Args {
                out: Some("snap.json".into()),
                check: Some("BENCH.json".into()),
                tolerance: 0.25,
                min_sweep_speedup: Some(1.2),
                threads: Some(vec![1, 2]),
            }
        );
        let none = parse(&[]).unwrap();
        assert_eq!((none.tolerance, none.threads), (0.30, None));
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        let flags = [
            "--out",
            "--check",
            "--tolerance",
            "--min-sweep-speedup",
            "--threads",
        ];
        for flag in flags {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.contains("needs a value"), "{flag}: {err}");
        }
        for (flag, bad) in [
            ("--tolerance", "x"),
            ("--tolerance", "-0.1"),
            ("--min-sweep-speedup", "nan"),
            ("--threads", "x"),
            ("--threads", "1,,2"),
            ("--threads", "0"),
        ] {
            let err = parse(&[flag, bad]).unwrap_err();
            assert!(
                err.contains(flag) && err.contains(bad),
                "{flag} {bad}: {err}"
            );
        }
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown argument '--frobnicate'"), "{err}");
    }

    #[test]
    fn a_row_fails_below_the_tolerance_and_passes_above_it() {
        let base = [("illinois/n12/t1", 100.0), ("sym/MSI", 100.0)];
        let now = [("illinois/n12/t1", 69.0), ("sym/MSI", 71.0)];
        assert_eq!(
            gate(&base, &now).unwrap(),
            ["illinois/n12/t1 fail", "sym/MSI ok"]
        );
    }

    #[test]
    fn the_naive_reference_sweep_never_gates() {
        let base = [("sym-sweep/batch", 100.0), ("sym-sweep/reference", 100.0)];
        let now = [("sym-sweep/batch", 100.0), ("sym-sweep/reference", 1.0)];
        assert_eq!(gate(&base, &now).unwrap(), ["sym-sweep/batch ok"]);
    }

    #[test]
    fn keys_on_one_side_only_are_skipped() {
        let base = [("spill", 100.0), ("dragon/n12/t4", 100.0)];
        let now = [("spill", 100.0), ("dragon/n12/t2", 1.0)];
        assert_eq!(gate(&base, &now).unwrap(), ["spill ok"]);
    }

    #[test]
    fn zero_overlap_is_an_error() {
        assert!(gate(&[("dragon/n12/t4", 100.0)], &[("dragon/n12/t2", 100.0)]).is_err());
    }
}
