//! Command implementations for the `ccv` binary.
//!
//! Each command declares its argument grammar as a typed
//! [`ArgSpec`] (see `args.rs`), parses with
//! positioned errors, and supports `--help`. Commands return a
//! [`CmdStatus`] — success, failure (verification failed, oracle
//! violated) or inconclusive (the run stopped early on a budget,
//! deadline, memory cap, Ctrl-C or worker panic) — and `Err(message)`
//! for usage errors. `main` maps these to the exit codes 0, 1, 3
//! and 2 respectively.

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use crate::args::{ArgSpec, Flag, ParsedArgs, Positional};
use ccv_core::{
    essential_states_json, global_graph, Batch, Outcome, Payload, ProtocolSource, Pruning, Request,
    RunContext, SessionRunner, Verdict,
};
use ccv_enum::{EnumOptions, WitnessSearch, MAX_CACHES};
use ccv_model::{protocols, ProtocolSpec};
use ccv_observe::{
    CancelToken, EventSink, FlightRecorder, Metrics, NdjsonSink, Phase, PostmortemGuard,
    SinkHandle, StopInfo, Tee, TraceSink,
};
use ccv_sim::{workload, Machine, MachineConfig, Trace, WorkloadParams};

/// Top-level usage text.
pub const USAGE: &str = "\
ccv — symbolic verification of cache coherence protocols (Pong & Dubois, SPAA'93)

usage:
  ccv list                                  list known protocols
  ccv describe   <protocol>                 print the protocol's FSM tables
  ccv check-all                             verify the whole library (CI gate)
  ccv verify     <protocol> [--trace] [--equality] [--dot FILE]
                 [--metrics FILE] [--progress] [--deadline SECS]
                 [--max-bytes BYTES]
  ccv graph      <protocol>                 print the global diagram as DOT
  ccv export     <protocol>                 print the protocol as .ccv source
  ccv compare    <protocol-a> <protocol-b>  diff the global diagrams
  ccv witness    <protocol> [-n MAX]        shortest concrete violation scenario
  ccv recovery   <protocol>                 tolerated vs fatal start configurations
  ccv report     <protocol> [-o FILE]       full markdown dossier
  ccv enumerate  <protocol> -n N [--exact] [--threads T] [--max-states N]
                 [--deadline SECS] [--max-bytes BYTES]
                 [--checkpoint-out FILE] [--resume FILE]
  ccv crosscheck <protocol> -n N [--stop-at-first-error]
                                            Theorem 1 check at size N
  ccv serve      [--addr ADDR] [--workers N] [--queue N]
                 [--cache-capacity N] [--cache-dir DIR] [--max-n N]
                 [--allow-files]            verification-as-a-service daemon
  ccv client     <protocol> [--addr ADDR] [--action A] [-n N] [--http]
                 [--retries N] [--backoff MS] [--timeout SECS]
                                            submit to a daemon, with retries
  ccv simulate   <protocol> [--workload W | --trace-file F] [--accesses N]
                 [--procs P] [--seed S]

verify, enumerate, crosscheck and simulate all accept the
observability trio: [--metrics-out FILE] [--trace-out FILE]
[--flight-recorder[=N]].

run `ccv <command> --help` for the full options of one command.

exit codes: 0 verified / success, 1 violation found, 2 usage error,
3 inconclusive (budget, deadline, memory cap, Ctrl-C/SIGTERM or worker
panic stopped the run before a verdict).

<protocol> is a library name (msi, illinois, write-once, synapse, berkeley,
firefly, dragon, moesi, or a buggy mutant — run `ccv list`) or a path to a
.ccv protocol description file.";

/// Terminal status of a command, mapped onto the process exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmdStatus {
    /// The command completed and its verdict (if any) is positive.
    Success,
    /// A completed run with a negative result: verification failed,
    /// a violation was found, the oracle was violated.
    Failure,
    /// The run stopped early — budget, deadline, memory cap,
    /// cancellation or worker panic — so no verdict was reached.
    /// Distinct from both success and failure: a partial result must
    /// never be mistaken for either.
    Inconclusive,
}

impl CmdStatus {
    /// The process exit code: 0 success, 1 failure, 3 inconclusive
    /// (2 is reserved for usage errors).
    pub fn exit_code(self) -> u8 {
        match self {
            CmdStatus::Success => 0,
            CmdStatus::Failure => 1,
            CmdStatus::Inconclusive => 3,
        }
    }

    /// Folds a boolean verdict into a status.
    pub fn from_ok(ok: bool) -> CmdStatus {
        if ok {
            CmdStatus::Success
        } else {
            CmdStatus::Failure
        }
    }
}

pub(crate) type CmdResult = Result<CmdStatus, String>;

const PROTOCOL_POS: Positional = Positional {
    name: "protocol",
    required: true,
    help: "library protocol name or path to a .ccv file",
};

fn resolve_spec(name: &str) -> Result<ProtocolSpec, String> {
    // A path to a .ccv file takes priority over library names.
    if name.ends_with(".ccv") || std::path::Path::new(name).is_file() {
        let source = std::fs::read_to_string(name).map_err(|e| format!("reading {name}: {e}"))?;
        ccv_model::dsl::parse_protocol(&source).map_err(|e| format!("{name}:{e}"))
    } else {
        protocols::by_name(name)
            .ok_or_else(|| format!("unknown protocol '{name}' (try `ccv list`)"))
    }
}

/// Parses `args` against `spec`; `Ok(None)` means `--help` was printed.
pub(crate) fn parse_or_help(spec: &ArgSpec, args: &[String]) -> Result<Option<ParsedArgs>, String> {
    let p = spec.parse(args)?;
    if p.help {
        print!("{}", spec.help());
        return Ok(None);
    }
    Ok(Some(p))
}

/// Writes a CLI output file atomically (sibling temp file + fsync +
/// rename), so a crash, Ctrl-C or full disk never leaves a torn
/// half-file where the old contents used to be.
fn write_out(path: &str, bytes: &[u8]) -> Result<(), String> {
    ccv_observe::write_atomic(
        std::path::Path::new(path),
        bytes,
        &ccv_observe::FaultHandle::disabled(),
        "cli.out",
    )
    .map_err(|e| format!("writing {path}: {e}"))
}

/// The observability flags shared by every run-style subcommand.
const METRICS_OUT_FLAG: Flag = Flag {
    name: "--metrics-out",
    value: Some("FILE"),
    help: "write run metrics (counters, phases, rules) as JSON",
};
const TRACE_OUT_FLAG: Flag = Flag {
    name: "--trace-out",
    value: Some("FILE"),
    help: "write a Chrome-trace/Perfetto timeline JSON",
};
const FLIGHT_FLAG: Flag = Flag {
    name: "--flight-recorder",
    value: Some("[N]"),
    help: "keep the last N events (default 4096); NDJSON postmortem on violation/panic",
};
const RULE_STATS_FLAG: Flag = Flag {
    name: "--rule-stats",
    value: None,
    help: "attribute firings, states and kernel time to protocol rules",
};

/// The sinks built from `--metrics-out`, `--trace-out` and
/// `--flight-recorder[=N]`, composed with any command-specific sinks
/// through a [`Tee`]. Dropping it arms the postmortem dump (the guard
/// fires on a recorded violation or an unwinding panic).
struct Obs {
    sinks: Vec<Arc<dyn EventSink>>,
    metrics: Option<(String, Arc<Metrics>)>,
    trace: Option<(String, Arc<TraceSink<BufWriter<File>>>)>,
    _postmortem: Option<PostmortemGuard>,
}

impl Obs {
    /// Reads the three shared observability flags out of `p`.
    fn from_args(p: &ParsedArgs) -> Result<Obs, String> {
        let mut obs = Obs {
            sinks: Vec::new(),
            metrics: None,
            trace: None,
            _postmortem: None,
        };
        // `ccv verify` also spells `--metrics-out` as `--metrics`.
        let metrics_path = match p.value::<String>("--metrics-out")? {
            Some(path) => Some(path),
            None => p.value::<String>("--metrics")?,
        };
        if let Some(path) = metrics_path {
            let m = Arc::new(Metrics::new());
            obs.sinks.push(m.clone());
            obs.metrics = Some((path, m));
        }
        if let Some(path) = p.value::<String>("--trace-out")? {
            let f = File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
            let t = Arc::new(TraceSink::new(BufWriter::new(f)));
            obs.sinks.push(t.clone());
            obs.trace = Some((path, t));
        }
        if p.flag("--flight-recorder") || p.value::<usize>("--flight-recorder")?.is_some() {
            let capacity =
                p.value_or("--flight-recorder", ccv_observe::flight::DEFAULT_CAPACITY)?;
            let rec = Arc::new(FlightRecorder::with_capacity(capacity));
            obs.sinks.push(rec.clone());
            obs._postmortem = Some(PostmortemGuard::stderr(rec));
        }
        Ok(obs)
    }

    /// A handle over the obs sinks plus `extra` command-specific ones;
    /// disabled when nothing was requested.
    fn handle(&self, extra: Vec<Arc<dyn EventSink>>) -> SinkHandle {
        let mut all = self.sinks.clone();
        all.extend(extra);
        match all.len() {
            0 => SinkHandle::disabled(),
            1 => SinkHandle::new(all.pop().expect("len checked")),
            _ => {
                let mut tee = Tee::new();
                for s in all {
                    tee = tee.with(s);
                }
                SinkHandle::new(Arc::new(tee))
            }
        }
    }

    /// Writes the metrics file, closes the trace, and reports paths.
    fn finish(&self) -> Result<(), String> {
        if let Some((path, t)) = &self.trace {
            t.finish();
            println!("trace written to {path}");
        }
        if let Some((path, m)) = &self.metrics {
            write_out(path, m.snapshot().to_json().render().as_bytes())?;
            println!("metrics written to {path}");
        }
        Ok(())
    }
}

const LIST_SPEC: ArgSpec = ArgSpec {
    cmd: "list",
    summary: "list the protocol library: correct protocols and buggy mutants",
    positionals: &[],
    flags: &[],
};

/// `ccv list`
pub fn list(args: &[String]) -> CmdResult {
    let Some(_) = parse_or_help(&LIST_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    println!("correct protocols:");
    for spec in protocols::all_correct() {
        println!(
            "  {:<12} |Q|={} {}",
            spec.name().to_lowercase(),
            spec.num_states(),
            if spec.uses_sharing_detection() {
                "(sharing-detection F)"
            } else {
                "(null F)"
            }
        );
    }
    println!("\nsplit-transaction protocols (non-atomic bus):");
    for spec in protocols::all_non_atomic() {
        println!(
            "  {:<12} |Q|={} ({} transient)",
            spec.name().to_lowercase(),
            spec.num_states(),
            spec.transient_states().count()
        );
    }
    println!("\nbuggy mutants (for verifier demonstrations):");
    for (spec, why) in protocols::all_buggy() {
        let cli_name = spec.name().to_lowercase().replace('/', "-");
        println!("  {cli_name:<34} {why}");
    }
    Ok(CmdStatus::Success)
}

const DESCRIBE_SPEC: ArgSpec = ArgSpec {
    cmd: "describe",
    summary: "print a protocol's FSM tables and snoop reactions",
    positionals: &[PROTOCOL_POS],
    flags: &[],
};

/// `ccv describe <protocol>`
pub fn describe(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&DESCRIBE_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    print!("{}", spec.describe());
    println!("\nsnoop reactions:");
    for s in spec.state_ids() {
        for &bus in spec.emitted_bus_ops() {
            let sn = spec.snoop(s, bus);
            if sn.next == s && !sn.supplies_data && !sn.flushes_to_memory && !sn.receives_update {
                continue;
            }
            println!(
                "  {} on {} -> {}{}{}{}",
                spec.state(s).short,
                bus,
                spec.state(sn.next).short,
                if sn.supplies_data { " +supply" } else { "" },
                if sn.flushes_to_memory { " +flush" } else { "" },
                if sn.receives_update { " +update" } else { "" },
            );
        }
    }
    Ok(CmdStatus::Success)
}

const CHECK_ALL_SPEC: ArgSpec = ArgSpec {
    cmd: "check-all",
    summary: "verify every library protocol and mutant (CI gate)",
    positionals: &[],
    flags: &[],
};

/// `ccv check-all` — verify the whole library (CI entry point).
pub fn check_all(args: &[String]) -> CmdResult {
    let Some(_) = parse_or_help(&CHECK_ALL_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let mut ok = true;
    println!(
        "{:<36} {:>12} {:>10} {:>8}",
        "protocol", "verdict", "essential", "visits"
    );
    // One batch for the whole library: every run reuses the same
    // engine scratch (successor buffers, containment index, arena).
    let mut batch = Batch::new();
    for spec in protocols::all_correct()
        .into_iter()
        .chain(protocols::all_non_atomic())
    {
        let v = batch.summarize(&spec);
        let pass = v.verdict == Verdict::Verified;
        ok &= pass;
        println!(
            "{:<36} {:>12} {:>10} {:>8}",
            v.protocol,
            v.verdict.to_string(),
            v.essential,
            v.visits
        );
    }
    for (spec, _) in protocols::all_buggy() {
        let v = batch.summarize(&spec);
        let pass = v.verdict == Verdict::Erroneous;
        ok &= pass;
        println!(
            "{:<36} {:>12} {:>10} {:>8}{}",
            v.protocol,
            v.verdict.to_string(),
            v.essential,
            v.visits,
            if pass { "" } else { "   <- MUTANT NOT CAUGHT" }
        );
    }
    println!(
        "
{}",
        if ok {
            "all verdicts as expected."
        } else {
            "UNEXPECTED VERDICTS PRESENT."
        }
    );
    Ok(CmdStatus::from_ok(ok))
}

const VERIFY_SPEC: ArgSpec = ArgSpec {
    cmd: "verify",
    summary: "symbolically verify a protocol for any number of caches",
    positionals: &[PROTOCOL_POS],
    flags: &[
        Flag {
            name: "--trace",
            value: None,
            help: "print every expansion step",
        },
        Flag {
            name: "--equality",
            value: None,
            help: "prune by state equality instead of containment",
        },
        Flag {
            name: "--dot",
            value: Some("FILE"),
            help: "write the global diagram as Graphviz DOT",
        },
        Flag {
            name: "--metrics",
            value: Some("FILE"),
            help: "same as --metrics-out",
        },
        Flag {
            name: "--progress",
            value: None,
            help: "stream NDJSON progress events to stderr",
        },
        Flag {
            name: "--essential-out",
            value: Some("FILE"),
            help: "write the essential states as canonical JSON (stable ordering)",
        },
        Flag {
            name: "--deadline",
            value: Some("SECS"),
            help: "stop with an inconclusive verdict after this much wall-clock time",
        },
        Flag {
            name: "--max-bytes",
            value: Some("BYTES"),
            help: "stop with an inconclusive verdict past this approximate footprint",
        },
        METRICS_OUT_FLAG,
        TRACE_OUT_FLAG,
        FLIGHT_FLAG,
        RULE_STATS_FLAG,
    ],
};

/// `ccv verify <protocol> [--trace] [--equality] [--dot FILE]
/// [--metrics FILE] [--progress] [--essential-out FILE]
/// [--metrics-out FILE] [--trace-out FILE]
/// [--flight-recorder[=N]] [--rule-stats]`
pub fn verify(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&VERIFY_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    let record_trace = p.flag("--trace");
    let progress = p.flag("--progress");
    let rule_stats = p.flag("--rule-stats");
    let obs = Obs::from_args(&p)?;

    let rule_metrics = rule_stats.then(|| Arc::new(Metrics::new()));
    let mut req = Request::verify(ProtocolSource::Spec(spec));
    req.options.pruning = if p.flag("--equality") {
        Pruning::Equality
    } else {
        Pruning::Containment
    };
    req.options.record_trace = record_trace;
    req.options.rule_stats = rule_stats;
    req.options.deadline = p.seconds("--deadline")?;
    req.options.max_bytes = p.value::<u64>("--max-bytes")?;
    let mut extra: Vec<Arc<dyn EventSink>> = Vec::new();
    if let Some(m) = &rule_metrics {
        extra.push(m.clone());
    }
    if progress {
        extra.push(Arc::new(NdjsonSink::new(std::io::stderr())));
    }
    // Ctrl-C flips the process-global token; the engine drains at
    // the next poll and the partial result renders INCONCLUSIVE.
    let ctx = RunContext::new(CancelToken::global(), obs.handle(extra));
    let v = match SessionRunner::new().run(&req, &ctx).result {
        Ok(Payload::Verify(v)) => v,
        Ok(_) => return Err("unexpected response payload".into()),
        Err(e) => return Err(e.message),
    };
    let report = &v.report;
    let spec = &v.spec;
    ctx.sink.phase_enter(Phase::Graph);
    let graph = global_graph(spec, &report.expansion);
    ctx.sink.phase_exit(Phase::Graph);

    println!("protocol : {}", report.protocol);
    println!("verdict  : {}", report.verdict);
    if let Outcome::Inconclusive { .. } = &report.outcome {
        println!("outcome  : {}", report.outcome);
    }
    println!(
        "explored : {} visits, {} expansions -> {} essential states",
        report.visits(),
        report.expansion.expanded,
        report.num_essential()
    );
    for (i, s) in graph.states.iter().enumerate() {
        println!("  s{i}: {}", s.render(spec));
    }
    println!("transitions:");
    for (from, to, labels) in graph.grouped_edges() {
        println!("  s{from} --[{}]--> s{to}", labels.join(", "));
    }
    if record_trace {
        println!("trace:");
        for (i, v) in report.expansion.trace.iter().enumerate() {
            println!(
                "  {:>3}. {} --{}--> {} [{:?}]",
                i + 1,
                v.from.render(spec),
                v.label.render(spec),
                v.to.render(spec),
                v.disposition
            );
        }
    }
    let exp = &report.expansion;
    for f in exp.errors.iter().take(5) {
        println!("\nERROR: {}", f.descriptions(spec).join("; "));
        println!("  state: {}", exp.composite(f.node).render(spec));
        println!("  path : {}", exp.render_path(spec, f.node));
    }
    if exp.errors.len() > 5 {
        println!("\n... and {} more error findings", exp.errors.len() - 5);
    }
    if let Some(path) = p.value::<String>("--dot")? {
        write_out(&path, graph.to_dot(spec).as_bytes())?;
        println!("\nDOT written to {path}");
    }
    if let Some(path) = p.value::<String>("--essential-out")? {
        let json = essential_states_json(spec, report, req.options.pruning);
        write_out(&path, json.render().as_bytes())?;
        println!("\nessential states written to {path}");
    }
    if let Some(m) = &rule_metrics {
        print!("\n{}", crate::report::rule_table(&m.snapshot()));
    }
    obs.finish()?;
    Ok(match report.verdict {
        Verdict::Verified => CmdStatus::Success,
        Verdict::Erroneous => CmdStatus::Failure,
        Verdict::Inconclusive => CmdStatus::Inconclusive,
    })
}

const GRAPH_SPEC: ArgSpec = ArgSpec {
    cmd: "graph",
    summary: "print the global diagram over essential states as Graphviz DOT",
    positionals: &[PROTOCOL_POS],
    flags: &[],
};

/// `ccv graph <protocol>`
pub fn graph(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&GRAPH_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    let report = ccv_core::verify(&spec);
    print!("{}", global_graph(&spec, &report.expansion).to_dot(&spec));
    Ok(CmdStatus::Success)
}

const EXPORT_SPEC: ArgSpec = ArgSpec {
    cmd: "export",
    summary: "print a protocol as .ccv source (round-trips through `ccv verify`)",
    positionals: &[PROTOCOL_POS],
    flags: &[],
};

/// `ccv export <protocol>`
pub fn export(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&EXPORT_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    print!("{}", ccv_model::dsl::to_dsl(&spec));
    Ok(CmdStatus::Success)
}

const COMPARE_SPEC: ArgSpec = ArgSpec {
    cmd: "compare",
    summary: "diff the global diagrams of two protocols",
    positionals: &[
        Positional {
            name: "protocol-a",
            required: true,
            help: "first protocol",
        },
        Positional {
            name: "protocol-b",
            required: true,
            help: "second protocol",
        },
    ],
    flags: &[],
};

/// `ccv compare <protocol-a> <protocol-b>`
pub fn compare(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&COMPARE_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let a = resolve_spec(p.require_pos(0, "first protocol")?)?;
    let b = resolve_spec(p.require_pos(1, "second protocol")?)?;
    let diff = ccv_core::compare_protocols(&a, &b);
    print!("{}", diff.render());
    Ok(CmdStatus::Success)
}

/// Prints the line every governed command ends with when its run
/// stopped early.
fn print_inconclusive(info: &StopInfo) {
    println!(
        "inconclusive: {} ({} states still pending, {:.3}s elapsed)",
        info.describe(),
        info.frontier,
        info.elapsed.as_secs_f64()
    );
}

const WITNESS_SPEC: ArgSpec = ArgSpec {
    cmd: "witness",
    summary: "find the shortest concrete violation scenario, if any\n\n\
exit codes: 0 no scenario up to MAX caches, 1 scenario found, 3 search\n\
stopped (state budget or Ctrl-C) before it could tell",
    positionals: &[PROTOCOL_POS],
    flags: &[Flag {
        name: "-n",
        value: Some("MAX"),
        help: "largest cache count to search (default 4)",
    }],
};

/// `ccv witness <protocol> [-n MAX]`
pub fn witness(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&WITNESS_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    let max_n: usize = p.value_or("-n", 4)?;
    if !(1..=MAX_CACHES).contains(&max_n) {
        return Err(format!("n must be in 1..={MAX_CACHES} (got {max_n})"));
    }
    let opts = EnumOptions::new(max_n)
        .max_states(1 << 22)
        .cancel(CancelToken::global());
    match ccv_enum::find_violation_witness(&spec, &opts) {
        WitnessSearch::Found(w) => {
            print!("{}", w.render(&spec));
            println!(
                "\nthe protocol is incoherent; scenario above is minimal for {} caches.",
                w.n
            );
            Ok(CmdStatus::Failure)
        }
        WitnessSearch::NotFound => {
            println!(
                "no violation scenario with up to {max_n} caches; `ccv verify` proves it for any number."
            );
            Ok(CmdStatus::Success)
        }
        WitnessSearch::Stopped { n, info } => {
            print_inconclusive(&info);
            println!("{}", crate::report::witness_stopped(n, &info));
            Ok(CmdStatus::Inconclusive)
        }
    }
}

const RECOVERY_SPEC: ArgSpec = ArgSpec {
    cmd: "recovery",
    summary: "classify start configurations as tolerated or fatal",
    positionals: &[PROTOCOL_POS],
    flags: &[],
};

/// `ccv recovery <protocol>`
pub fn recovery(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&RECOVERY_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    let report = ccv_core::analyze_recovery(&spec, 200_000);
    println!(
        "protocol {}: {} structurally permissible configurations",
        spec.name(),
        report.cases.len()
    );
    let mut safe_reach = 0;
    for c in &report.cases {
        if c.tolerance == ccv_core::Tolerance::Safe && c.reachable {
            safe_reach += 1;
        }
    }
    println!("  normal operating region (reachable, safe): {safe_reach}");
    println!("  tolerated slack (unreachable, safe):");
    for c in report.tolerated_slack() {
        println!("    {}  mdata={}", c.start.render(&spec), c.start.mdata);
    }
    println!("  invariant gap (permissible but NOT tolerated):");
    for c in report.invariant_gap() {
        println!("    {}  mdata={}", c.start.render(&spec), c.start.mdata);
    }
    Ok(CmdStatus::Success)
}

const REPORT_SPEC: ArgSpec = ArgSpec {
    cmd: "report",
    summary: "write the full markdown dossier for a protocol",
    positionals: &[PROTOCOL_POS],
    flags: &[Flag {
        name: "-o",
        value: Some("FILE"),
        help: "write to FILE instead of stdout",
    }],
};

/// `ccv report <protocol> [-o FILE]`
pub fn report(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&REPORT_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    let md = crate::report::protocol_report(&spec, &ccv_core::verify(&spec));
    match p.value::<String>("-o")? {
        Some(path) => {
            write_out(&path, md.as_bytes())?;
            println!("dossier written to {path}");
        }
        None => print!("{md}"),
    }
    Ok(CmdStatus::Success)
}

const ENUMERATE_SPEC: ArgSpec = ArgSpec {
    cmd: "enumerate",
    summary: "exhaustively enumerate the explicit state space for N caches",
    positionals: &[PROTOCOL_POS],
    flags: &[
        Flag {
            name: "-n",
            value: Some("N"),
            help: "cache count (default 4)",
        },
        Flag {
            name: "--exact",
            value: None,
            help: "exact-duplicate pruning instead of counting equivalence",
        },
        Flag {
            name: "--threads",
            value: Some("T"),
            help: "parallel workers; 0 = one per available core (default 0)",
        },
        Flag {
            name: "--max-states",
            value: Some("N"),
            help: "stop (inconclusively) after this many distinct states",
        },
        Flag {
            name: "--deadline",
            value: Some("SECS"),
            help: "stop (inconclusively) after this much wall-clock time",
        },
        Flag {
            name: "--max-bytes",
            value: Some("BYTES"),
            help: "stop (inconclusively) past this approximate visited-table footprint",
        },
        Flag {
            name: "--checkpoint-out",
            value: Some("FILE"),
            help: "on an early stop, write the search state for --resume",
        },
        Flag {
            name: "--resume",
            value: Some("FILE"),
            help: "continue from a checkpoint written by --checkpoint-out",
        },
        Flag {
            name: "--fault-plan",
            value: Some("SPEC"),
            help: "deterministic fault injection, e.g. 'enum.worker:slow' (see docs/robustness.md)",
        },
        METRICS_OUT_FLAG,
        TRACE_OUT_FLAG,
        FLIGHT_FLAG,
        RULE_STATS_FLAG,
    ],
};

/// `ccv enumerate <protocol> -n N [--exact] [--threads T]
/// [--max-states N] [--deadline SECS] [--max-bytes BYTES]
/// [--checkpoint-out FILE] [--resume FILE] [--metrics-out FILE]
/// [--trace-out FILE] [--flight-recorder[=N]] [--rule-stats]`
pub fn enumerate(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&ENUMERATE_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    let n: usize = p.value_or("-n", 4)?;
    let rule_stats = p.flag("--rule-stats");
    let obs = Obs::from_args(&p)?;
    // The in-process collector backs the human-readable worker summary
    // and rule table; always attached so parallel runs can report
    // per-worker claims and steal counts.
    let human = Arc::new(Metrics::new());
    let mut req = Request::enumerate(ProtocolSource::Spec(spec), n);
    req.options.rule_stats = rule_stats;
    req.options.exact = p.flag("--exact");
    req.options.max_states = p.value::<usize>("--max-states")?;
    req.options.deadline = p.seconds("--deadline")?;
    req.options.max_bytes = p.value::<u64>("--max-bytes")?;
    req.options.fault_plan = p.value("--fault-plan")?;
    req.options.checkpoint_out = p.value("--checkpoint-out")?;
    req.options.resume = p.value("--resume")?;
    // 0 = auto: one worker per core the scheduler grants this process.
    req.options.threads = p.value_or("--threads", 0)?;
    let ctx = RunContext::new(
        CancelToken::global(),
        obs.handle(vec![human.clone() as Arc<dyn EventSink>]),
    );
    let r = match SessionRunner::new().run(&req, &ctx).result {
        Ok(Payload::Enumerate(r)) => r,
        Ok(_) => return Err("unexpected response payload".into()),
        Err(e) => return Err(e.message),
    };
    if let Some(info) = &r.resumed {
        println!(
            "resuming from {}: {} distinct states, {} frontier states, {} visits so far",
            info.path, info.visited, info.frontier, info.visits
        );
    }
    println!(
        "protocol {} n={} dedup={} threads={}{}",
        r.protocol,
        r.n,
        r.dedup_name(),
        r.threads,
        if r.auto_threads { " (auto)" } else { "" }
    );
    println!(
        "distinct states: {}   visits: {}   truncated: {}",
        r.distinct, r.visits, r.truncated
    );
    if let Some(info) = &r.stopped {
        print_inconclusive(info);
    }
    if let Some(ck) = &r.checkpoint {
        if ck.written {
            println!("checkpoint written to {}", ck.path);
        } else {
            println!("run completed; no checkpoint written to {}", ck.path);
        }
    }
    let snap = human.snapshot();
    if r.threads > 1 {
        print!("{}", crate::report::worker_summary(&snap));
    }
    if rule_stats {
        print!("\n{}", crate::report::rule_table(&snap));
    }
    for e in r.errors.iter().take(5) {
        println!("ERROR at {}: {}", e.state, e.descriptions.join("; "));
    }
    if r.errors.len() > 5 {
        println!("... and {} more errors", r.errors.len() - 5);
    }
    obs.finish()?;
    Ok(if r.stopped.is_some() {
        CmdStatus::Inconclusive
    } else {
        CmdStatus::from_ok(r.errors.is_empty())
    })
}

const CROSSCHECK_SPEC: ArgSpec = ArgSpec {
    cmd: "crosscheck",
    summary: "check Theorem 1: every explicit state is symbolically covered",
    positionals: &[PROTOCOL_POS],
    flags: &[
        Flag {
            name: "-n",
            value: Some("N"),
            help: "cache count to enumerate (default 4)",
        },
        Flag {
            name: "--stop-at-first-error",
            value: None,
            help: "skip the coverage scan if the enumeration reaches a violation",
        },
        METRICS_OUT_FLAG,
        TRACE_OUT_FLAG,
        FLIGHT_FLAG,
    ],
};

/// `ccv crosscheck <protocol> -n N [--stop-at-first-error]
/// [--metrics-out FILE] [--trace-out FILE] [--flight-recorder[=N]]`
pub fn crosscheck(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&CROSSCHECK_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let obs = Obs::from_args(&p)?;
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    let n: usize = p.value_or("-n", 4)?;
    let mut req = Request::crosscheck(ProtocolSource::Spec(spec), n);
    req.options.stop_at_first_error = p.flag("--stop-at-first-error");
    let ctx = RunContext::new(CancelToken::global(), obs.handle(Vec::new()));
    let c = match SessionRunner::new().run(&req, &ctx).result {
        Ok(Payload::Crosscheck(c)) => c,
        Ok(_) => return Err("unexpected response payload".into()),
        Err(e) => return Err(e.message),
    };
    if let Some(why) = &c.aborted {
        println!("coverage scan skipped: {why}");
        obs.finish()?;
        return Ok(CmdStatus::Failure);
    }
    if let Some(info) = &c.stopped {
        print_inconclusive(info);
        obs.finish()?;
        return Ok(CmdStatus::Inconclusive);
    }
    println!(
        "protocol {} n={}: {} explicit states, {} covered by {} essential states",
        c.protocol, c.n, c.total_concrete, c.covered, c.essential
    );
    if c.complete {
        println!("Theorem 1 holds at this size.");
    } else {
        println!("UNCOVERED STATES: {:?}", c.uncovered_examples);
    }
    obs.finish()?;
    Ok(CmdStatus::from_ok(c.complete))
}

const SERVE_SPEC: ArgSpec = ArgSpec {
    cmd: "serve",
    summary: "run the verification-as-a-service daemon (NDJSON over TCP + HTTP/1.1)",
    positionals: &[],
    flags: &[
        Flag {
            name: "--addr",
            value: Some("ADDR"),
            help: "listen address (default 127.0.0.1:7878; port 0 picks one)",
        },
        Flag {
            name: "--workers",
            value: Some("N"),
            help: "verification engines running concurrently (default 4)",
        },
        Flag {
            name: "--queue",
            value: Some("N"),
            help: "admission queue beyond the pool; overflow is answered BUSY (default 8)",
        },
        Flag {
            name: "--cache-capacity",
            value: Some("N"),
            help: "verdict cache entries before FIFO eviction (default 256)",
        },
        Flag {
            name: "--cache-dir",
            value: Some("DIR"),
            help: "persist the verdict cache in DIR; warm verdicts survive restarts",
        },
        Flag {
            name: "--retry-after",
            value: Some("MS"),
            help: "backoff hint attached to BUSY rejections (default 500)",
        },
        Flag {
            name: "--fault-plan",
            value: Some("SPEC"),
            help: "server-side fault injection (sites serve.accept, serve.response, cache.write)",
        },
        Flag {
            name: "--max-n",
            value: Some("N"),
            help: "largest cache count accepted for enumerate/crosscheck (default 8)",
        },
        Flag {
            name: "--max-threads",
            value: Some("T"),
            help: "per-request enumeration worker cap (default 4)",
        },
        Flag {
            name: "--deadline",
            value: Some("SECS"),
            help: "default per-request deadline (default 30)",
        },
        Flag {
            name: "--max-deadline",
            value: Some("SECS"),
            help: "largest per-request deadline honoured (default 120)",
        },
        Flag {
            name: "--allow-files",
            value: None,
            help: "permit checkpoint-out/resume options (trusted local clients only)",
        },
    ],
};

/// `ccv serve [--addr ADDR] [--workers N] [--queue N]
/// [--cache-capacity N] [--cache-dir DIR] [--retry-after MS]
/// [--fault-plan SPEC] [--max-n N] [--max-threads T]
/// [--deadline SECS] [--max-deadline SECS] [--allow-files]`
pub fn serve(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&SERVE_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let mut config = ccv_serve::ServerConfig::default();
    config.addr = p.value_or("--addr", config.addr.clone())?;
    config.workers = p.value_or("--workers", config.workers)?;
    config.queue_depth = p.value_or("--queue", config.queue_depth)?;
    config.cache_capacity = p.value_or("--cache-capacity", config.cache_capacity)?;
    config.cache_dir = p.value::<String>("--cache-dir")?.map(Into::into);
    if let Some(ms) = p.value::<u64>("--retry-after")? {
        config.retry_after = std::time::Duration::from_millis(ms);
    }
    if let Some(spec) = p.value::<String>("--fault-plan")? {
        config.fault =
            ccv_observe::FaultHandle::from_spec(&spec).map_err(|e| format!("--fault-plan: {e}"))?;
    }
    config.max_n = p.value_or("--max-n", config.max_n)?;
    config.max_threads = p.value_or("--max-threads", config.max_threads)?;
    config.default_deadline = p.seconds("--deadline")?.unwrap_or(config.default_deadline);
    config.max_deadline = p.seconds("--max-deadline")?.unwrap_or(config.max_deadline);
    config.allow_files = p.flag("--allow-files");
    let workers = config.workers;
    let queue = config.queue_depth;
    let server = ccv_serve::Server::bind(config).map_err(|e| format!("binding server: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("reading bound address: {e}"))?;
    println!("ccv serve listening on {addr} ({workers} workers, queue depth {queue})");
    let service = server.service();
    if let Some(r) = service.cache_recovery() {
        println!(
            "verdict cache: {} entr{} restored, {} quarantined",
            r.loaded,
            if r.loaded == 1 { "y" } else { "ies" },
            r.quarantined
        );
    }
    if let Some(why) = service.cache_degraded() {
        println!("warning: {why}");
    }
    println!("POST /v1/requests over HTTP, or one ccv-request-v1 NDJSON line per connection.");
    println!("Ctrl-C or SIGTERM stops the daemon; in-flight requests drain first.");
    server.run();
    Ok(CmdStatus::Success)
}

const SIMULATE_SPEC: ArgSpec = ArgSpec {
    cmd: "simulate",
    summary: "execute a workload or trace file against the latest-value oracle",
    positionals: &[PROTOCOL_POS],
    flags: &[
        Flag {
            name: "--workload",
            value: Some("W"),
            help: "synthetic workload: uniform, hot-block, producer-consumer, migratory, mostly-private",
        },
        Flag {
            name: "--trace-file",
            value: Some("F"),
            help: "run a `P<i> R|W <block>` trace file instead of a workload",
        },
        Flag {
            name: "--accesses",
            value: Some("N"),
            help: "workload length (default 100000)",
        },
        Flag {
            name: "--procs",
            value: Some("P"),
            help: "processor count (default 4)",
        },
        Flag {
            name: "--seed",
            value: Some("S"),
            help: "workload RNG seed",
        },
        METRICS_OUT_FLAG,
        TRACE_OUT_FLAG,
        FLIGHT_FLAG,
    ],
};

/// `ccv simulate <protocol> [--workload W] [--accesses N] [--procs P]
/// [--seed S] [--metrics-out FILE] [--trace-out FILE]
/// [--flight-recorder[=N]]`
pub fn simulate(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&SIMULATE_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let spec = resolve_spec(p.require_pos(0, "protocol name")?)?;
    if spec.has_transients() {
        return Err(format!(
            "protocol '{}' has transient states; the trace simulator models an \
             atomic bus and cannot execute split-transaction protocols",
            spec.name()
        ));
    }
    let procs: usize = p.value_or("--procs", 4)?;
    if procs == 0 {
        return Err("--procs must be at least 1".into());
    }
    let accesses: usize = p.value_or("--accesses", 100_000)?;
    let seed: u64 = p.value_or("--seed", 0xCC5EED)?;
    let which: String = p.value_or("--workload", "hot-block".into())?;
    let obs = Obs::from_args(&p)?;
    let handle = obs.handle(Vec::new());

    let mut params = WorkloadParams::new(procs);
    params.accesses = accesses;
    params.seed = seed;
    if let Some(path) = p.value::<String>("--trace-file")? {
        let trace = ccv_sim::load_trace(&path)?;
        let machine_procs = trace.procs.max(procs);
        let mut machine = Machine::new(
            spec.clone(),
            MachineConfig::small(machine_procs).sink(handle),
        );
        let report = machine.run(&trace);
        println!(
            "protocol {} trace file {path} ({} accesses, {} procs)",
            spec.name(),
            trace.len(),
            trace.procs
        );
        println!("{}", report.stats);
        let coherent = report.is_coherent();
        if coherent {
            println!("coherent: every load returned the latest value.");
        } else {
            println!(
                "INCOHERENT: {} oracle violations; first: {:?}",
                report.violations.len(),
                report.violations[0]
            );
        }
        obs.finish()?;
        return Ok(CmdStatus::from_ok(coherent));
    }
    let trace: Trace = match which.as_str() {
        "uniform" => workload::uniform(&params),
        "hot-block" | "hot_block" => workload::hot_block(&params),
        "producer-consumer" | "producer_consumer" => workload::producer_consumer(&params),
        "migratory" => workload::migratory(&params),
        "mostly-private" | "mostly_private" => workload::mostly_private(&params),
        other => return Err(format!("unknown workload '{other}'")),
    };

    let mut machine = Machine::new(spec.clone(), MachineConfig::small(procs).sink(handle));
    let report = machine.run(&trace);
    println!(
        "protocol {} workload {} ({} accesses, {} procs, seed {seed})",
        spec.name(),
        trace.name,
        trace.len(),
        procs
    );
    println!("{}", report.stats);
    let coherent = report.is_coherent();
    if coherent {
        println!("coherent: every load returned the latest value.");
    } else {
        println!(
            "INCOHERENT: {} oracle violations; first: {:?}",
            report.violations.len(),
            report.violations[0]
        );
    }
    obs.finish()?;
    Ok(CmdStatus::from_ok(coherent))
}
