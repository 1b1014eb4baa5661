//! `ccv` — the cache-coherence verifier command line.
//!
//! ```text
//! ccv list                                 list known protocols
//! ccv describe  <protocol>                 print the FSM tables
//! ccv verify    <protocol> [--trace] [--equality] [--dot FILE]
//!                          [--metrics FILE] [--progress]
//!                          [--deadline SECS] [--max-bytes BYTES]
//! ccv graph     <protocol>                 print the Fig. 4 diagram as DOT
//! ccv enumerate <protocol> -n N [--exact] [--threads T] [--max-states N]
//!                          [--deadline SECS] [--max-bytes BYTES]
//!                          [--checkpoint-out FILE] [--resume FILE]
//! ccv crosscheck <protocol> -n N [--exact] [--max-states N]
//!                          [--deadline SECS] [--max-bytes BYTES]
//!                                          Theorem 1 check at size N
//! ccv simulate  <protocol> [--workload W] [--accesses N] [--procs P] [--seed S]
//! ```
//!
//! Exit status: 0 on success / verified, 1 on a verification failure or
//! coherence violation, 2 on usage errors, 3 when the run stopped early
//! (budget, deadline, memory cap, Ctrl-C or a worker panic) without
//! reaching a verdict.

use std::process::ExitCode;

mod args;
mod client;
mod commands;
mod report;

/// Installs SIGINT and SIGTERM handlers that flip the process-global
/// cancel flag. Engines holding [`ccv_observe::CancelToken::global`]
/// observe it at their next poll, drain cooperatively, and render a
/// partial (INCONCLUSIVE) result instead of dying mid-search; the
/// serve daemon stops accepting, cancels its in-flight engine runs and
/// returns once each has written its INCONCLUSIVE response. Both
/// signals behave identically, so `kill <pid>` (a supervisor's
/// shutdown) is as graceful as Ctrl-C. The handler body is a single
/// atomic store, which is async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers() {
    use std::os::raw::c_int;

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    extern "C" fn on_signal(_sig: c_int) {
        ccv_observe::request_global_cancel();
    }
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    // SAFETY: `signal` is the libc entry point; the handler performs
    // one atomic store and touches no non-reentrant state.
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(c_int) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(c_int) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() -> ExitCode {
    install_signal_handlers();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "list" => commands::list(rest),
        "check-all" => commands::check_all(rest),
        "describe" => commands::describe(rest),
        "verify" => commands::verify(rest),
        "graph" => commands::graph(rest),
        "export" => commands::export(rest),
        "compare" => commands::compare(rest),
        "witness" => commands::witness(rest),
        "recovery" => commands::recovery(rest),
        "report" => commands::report(rest),
        "enumerate" => commands::enumerate(rest),
        "crosscheck" => commands::crosscheck(rest),
        "serve" => commands::serve(rest),
        "client" => client::client(rest),
        "simulate" => commands::simulate(rest),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(commands::CmdStatus::Success)
        }
        other => {
            eprintln!("unknown command '{other}'\n{}", commands::USAGE);
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(status) => ExitCode::from(status.exit_code()),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
