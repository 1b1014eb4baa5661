//! `ccv client` — a resilient client for the `ccv serve` daemon.
//!
//! Builds a `ccv-request-v1` document from the command line and
//! submits it over the daemon's NDJSON line protocol (default) or its
//! HTTP/1.1 endpoint (`--http`). Transient failures — a refused or
//! dropped connection, a BUSY rejection, a response cut off
//! mid-stream — are retried with bounded exponential backoff plus
//! jitter, honouring the server's `retry_after_ms` hint when one is
//! present. Retrying is safe: the server keys its verdict cache by
//! the request's canonical fingerprint, so resubmitting the same
//! document is idempotent — a request that actually completed before
//! the response was lost replays byte-identically from the cache.
//!
//! Terminal rejections (`bad_request`, `bad_protocol`, `unsupported`,
//! `internal`) are never retried: resubmitting an invalid request
//! cannot fix it. The final response body prints to stdout verbatim;
//! retry chatter goes to stderr. The exit code mirrors the local
//! engine commands: 0 verified / clean, 1 violation found, 2 errors,
//! 3 inconclusive.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::args::{ArgSpec, Flag, Positional};
use crate::commands::{parse_or_help, CmdResult, CmdStatus};
use ccv_core::{ProtocolSource, Request};
use ccv_observe::{FaultHandle, FaultKind, Json};

const CLIENT_SPEC: ArgSpec = ArgSpec {
    cmd: "client",
    summary: "submit a request to a ccv serve daemon, retrying transient failures",
    positionals: &[Positional {
        name: "protocol",
        required: true,
        help: "library protocol name or path to a .ccv file (sent as DSL text)",
    }],
    flags: &[
        Flag {
            name: "--addr",
            value: Some("ADDR"),
            help: "server address (default 127.0.0.1:7878)",
        },
        Flag {
            name: "--action",
            value: Some("A"),
            help: "verify, enumerate or crosscheck (default verify)",
        },
        Flag {
            name: "-n",
            value: Some("N"),
            help: "cache count for enumerate/crosscheck (default 4)",
        },
        Flag {
            name: "--exact",
            value: None,
            help: "exact-duplicate pruning for enumerate",
        },
        Flag {
            name: "--threads",
            value: Some("T"),
            help: "enumeration worker threads requested of the server",
        },
        Flag {
            name: "--deadline",
            value: Some("SECS"),
            help: "per-request deadline requested of the server",
        },
        Flag {
            name: "--http",
            value: None,
            help: "submit over HTTP POST /v1/requests instead of NDJSON",
        },
        Flag {
            name: "--retries",
            value: Some("N"),
            help: "retries after a transient failure (default 4)",
        },
        Flag {
            name: "--backoff",
            value: Some("MS"),
            help: "base backoff in milliseconds, doubled per retry with jitter (default 100)",
        },
        Flag {
            name: "--timeout",
            value: Some("SECS"),
            help: "connect/read timeout per attempt (default 10)",
        },
        Flag {
            name: "--fault-plan",
            value: Some("SPEC"),
            help: "client-side fault injection (sites client.connect, client.read)",
        },
    ],
};

/// One received response: the raw body line plus whether the server
/// answered it from its verdict cache.
struct Reply {
    raw: String,
    cached: bool,
}

/// A transient failure worth retrying: what happened, plus the
/// server's backoff hint when it gave one.
struct Transient {
    what: String,
    retry_after_ms: Option<u64>,
}

impl Transient {
    fn new(what: impl Into<String>) -> Transient {
        Transient {
            what: what.into(),
            retry_after_ms: None,
        }
    }
}

/// `ccv client <protocol> [--addr ADDR] [--action A] [-n N] [--http]
/// [--retries N] [--backoff MS] [--timeout SECS] [--fault-plan SPEC]`
pub fn client(args: &[String]) -> CmdResult {
    let Some(p) = parse_or_help(&CLIENT_SPEC, args)? else {
        return Ok(CmdStatus::Success);
    };
    let target = p.require_pos(0, "protocol name")?;
    // A .ccv file is read locally and shipped as DSL text, so the
    // server never needs filesystem access; a bare name resolves in
    // the server's own library.
    let source = if target.ends_with(".ccv") || std::path::Path::new(target).is_file() {
        let text = std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?;
        ProtocolSource::Dsl(text)
    } else {
        ProtocolSource::Name(target.to_string())
    };
    let action: String = p.value_or("--action", "verify".into())?;
    let n: usize = p.value_or("-n", 4)?;
    let mut req = match action.as_str() {
        "verify" => Request::verify(source),
        "enumerate" => Request::enumerate(source, n),
        "crosscheck" => Request::crosscheck(source, n),
        other => {
            return Err(format!(
                "unknown action '{other}' (verify, enumerate, crosscheck)"
            ))
        }
    };
    req.options.exact = p.flag("--exact");
    if let Some(t) = p.value::<usize>("--threads")? {
        req.options.threads = t;
    }
    req.options.deadline = p.seconds("--deadline")?;
    let addr: String = p.value_or("--addr", "127.0.0.1:7878".into())?;
    let http = p.flag("--http");
    let retries: u32 = p.value_or("--retries", 4)?;
    let backoff_ms: u64 = p.value_or("--backoff", 100)?;
    let timeout = p.seconds("--timeout")?.unwrap_or(Duration::from_secs(10));
    let fault = match p.value::<String>("--fault-plan")? {
        Some(spec) => FaultHandle::from_spec(&spec).map_err(|e| format!("--fault-plan: {e}"))?,
        None => FaultHandle::disabled(),
    };
    let line = req.to_json().render_compact();
    // The server cuts every run at its deadline (120s ceiling by
    // default) and then answers, so an attempt that outlives the
    // requested deadline plus the I/O timeout is stalled — even if
    // heartbeat pings are still arriving — and is abandoned as
    // transient rather than waited on forever.
    let response_cap = req
        .options
        .deadline
        .unwrap_or(Duration::from_secs(120))
        .saturating_add(timeout);

    let mut jitter: u64 = 0x9e3779b97f4a7c15 ^ u64::from(std::process::id());
    for attempt in 0..=retries {
        let sent = if http {
            submit_http(&addr, &line, timeout, response_cap, &fault)
        } else {
            submit_ndjson(&addr, &line, timeout, response_cap, &fault)
        };
        let transient = match sent.and_then(classify) {
            Ok((reply, status)) => {
                if reply.cached {
                    eprintln!("served from the verdict cache (byte-identical replay)");
                }
                println!("{}", reply.raw);
                return Ok(status);
            }
            Err(Outcome::Terminal(message)) => return Err(message),
            Err(Outcome::Transient(t)) => t,
        };
        if attempt == retries {
            return Err(format!(
                "{} after {} attempt{}; giving up",
                transient.what,
                retries + 1,
                if retries == 0 { "" } else { "s" }
            ));
        }
        let wait = backoff(attempt, backoff_ms, transient.retry_after_ms, &mut jitter);
        eprintln!(
            "attempt {}/{} failed: {}; retrying identical request in {}ms \
             (idempotent by fingerprint)",
            attempt + 1,
            retries + 1,
            transient.what,
            wait.as_millis()
        );
        std::thread::sleep(wait);
    }
    unreachable!("loop returns on success, terminal error or exhausted retries");
}

/// Why an attempt did not produce a final status.
enum Outcome {
    /// Retrying cannot help (malformed request, server bug).
    Terminal(String),
    /// Worth another attempt after backoff.
    Transient(Transient),
}

/// Bounded exponential backoff with xorshift jitter: the delay doubles
/// per attempt from `base_ms`, capped at 10s, jittered into
/// `[delay/2, delay)` so synchronized clients spread out, and floored
/// at the server's `retry_after_ms` hint when present.
fn backoff(attempt: u32, base_ms: u64, hint_ms: Option<u64>, state: &mut u64) -> Duration {
    let ceiling = base_ms
        .max(1)
        .saturating_mul(1 << attempt.min(16))
        .min(10_000);
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    let half = (ceiling / 2).max(1);
    let jittered = half + *state % half;
    Duration::from_millis(jittered.max(hint_ms.unwrap_or(0)))
}

/// Decides what a received body means: a final status, a terminal
/// rejection, or a BUSY rejection worth retrying.
fn classify(reply: Reply) -> Result<(Reply, CmdStatus), Outcome> {
    let body = Json::parse(&reply.raw).map_err(|e| {
        Outcome::Transient(Transient::new(format!("response body is not JSON ({e})")))
    })?;
    if let Some(err) = body.get("error") {
        let code = err.get("code").and_then(Json::as_str).unwrap_or("internal");
        let message = err
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("(no message)");
        if code == "busy" {
            let mut t = Transient::new(format!("server busy: {message}"));
            t.retry_after_ms = err.get("retry_after_ms").and_then(Json::as_u64);
            return Err(Outcome::Transient(t));
        }
        return Err(Outcome::Terminal(format!(
            "server rejected request ({code}): {message}"
        )));
    }
    let status = status_of(&body);
    Ok((reply, status))
}

/// Maps a successful response body onto the standard exit status.
fn status_of(body: &Json) -> CmdStatus {
    if body.get("stop").is_some() {
        return CmdStatus::Inconclusive;
    }
    if let Some(verdict) = body.get("verdict").and_then(Json::as_str) {
        return match verdict {
            "VERIFIED" => CmdStatus::Success,
            "INCONCLUSIVE" => CmdStatus::Inconclusive,
            _ => CmdStatus::Failure,
        };
    }
    if let Some(complete) = body.get("complete").and_then(Json::as_bool) {
        return CmdStatus::from_ok(complete);
    }
    let clean = body
        .get("errors")
        .is_none_or(|e| matches!(e, Json::Arr(v) if v.is_empty()));
    CmdStatus::from_ok(clean)
}

/// Applies the client-side fault plan at `site`. `Err` simulates the
/// corresponding network failure (connect refused / mid-stream drop);
/// a slow fault stalls like a congested link.
fn client_fault(fault: &FaultHandle, site: &str) -> Result<(), Transient> {
    match fault.fire(site) {
        Some(FaultKind::IoError | FaultKind::Disconnect) => {
            Err(Transient::new(format!("injected fault: {site} failed")))
        }
        Some(FaultKind::SlowRead) => {
            if let Some(inj) = fault.injector() {
                std::thread::sleep(Duration::from_millis(inj.slow_millis()));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Resolves `addr` and opens a TCP connection under `timeout`.
fn connect(addr: &str, timeout: Duration, fault: &FaultHandle) -> Result<TcpStream, Transient> {
    client_fault(fault, "client.connect")?;
    let resolved: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| Transient::new(format!("resolving {addr}: {e}")))?
        .collect();
    let target = resolved
        .first()
        .ok_or_else(|| Transient::new(format!("{addr} resolves to no address")))?;
    let stream = TcpStream::connect_timeout(target, timeout)
        .map_err(|e| Transient::new(format!("connecting to {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    Ok(stream)
}

/// One NDJSON attempt: write the request line, then scan the event
/// stream (pings, progress) for the final response envelope. EOF
/// before the envelope is a mid-stream disconnect — transient. The
/// socket read timeout catches a silent server; `cap` catches a
/// zombie one whose heartbeats keep arriving while the response
/// never does (pings reset the read timeout, so on their own they
/// would let a stalled attempt wait forever).
fn submit_ndjson(
    addr: &str,
    line: &str,
    timeout: Duration,
    cap: Duration,
    fault: &FaultHandle,
) -> Result<Reply, Outcome> {
    let mut stream = connect(addr, timeout, fault).map_err(Outcome::Transient)?;
    stream
        .write_all(line.as_bytes())
        .and_then(|_| stream.write_all(b"\n"))
        .and_then(|_| stream.flush())
        .map_err(|e| Outcome::Transient(Transient::new(format!("sending request: {e}"))))?;
    let started = Instant::now();
    let reader = BufReader::new(stream);
    for event in reader.lines() {
        if started.elapsed() > cap {
            return Err(Outcome::Transient(Transient::new(format!(
                "no response within {}s (server alive but stalled)",
                cap.as_secs()
            ))));
        }
        client_fault(fault, "client.read").map_err(Outcome::Transient)?;
        let event = event
            .map_err(|e| Outcome::Transient(Transient::new(format!("reading stream: {e}"))))?;
        let Ok(doc) = Json::parse(&event) else {
            continue; // torn mid-stream line; the envelope decides
        };
        if doc.get("ev").and_then(Json::as_str) == Some("response") {
            let cached = doc.get("cached").and_then(Json::as_bool).unwrap_or(false);
            let body = doc
                .get("body")
                .ok_or_else(|| Outcome::Transient(Transient::new("response envelope has no body")))?
                .render_compact();
            return Ok(Reply { raw: body, cached });
        }
    }
    Err(Outcome::Transient(Transient::new(
        "connection closed before a response arrived",
    )))
}

/// One HTTP attempt: POST the request, read to EOF, split the head
/// off and honour `retry-after` on 429. HTTP has no heartbeats: the
/// whole response arrives in one burst after the run finishes, so
/// the read timeout is widened to `cap` — the connect and write
/// still use the tight `timeout`.
fn submit_http(
    addr: &str,
    line: &str,
    timeout: Duration,
    cap: Duration,
    fault: &FaultHandle,
) -> Result<Reply, Outcome> {
    let mut stream = connect(addr, timeout, fault).map_err(Outcome::Transient)?;
    let _ = stream.set_read_timeout(Some(cap));
    let head = format!(
        "POST /v1/requests HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        line.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(line.as_bytes()))
        .and_then(|_| stream.flush())
        .map_err(|e| Outcome::Transient(Transient::new(format!("sending request: {e}"))))?;
    client_fault(fault, "client.read").map_err(Outcome::Transient)?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| Outcome::Transient(Transient::new(format!("reading response: {e}"))))?;
    let text = String::from_utf8_lossy(&raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(Outcome::Transient(Transient::new(
            "connection closed before a response arrived",
        )));
    };
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|s| s.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let mut cached = false;
    let mut retry_after_ms = None;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        if name == "x-ccv-cache" {
            cached = value == "hit";
        } else if name == "retry-after" {
            retry_after_ms = value.parse::<u64>().ok().map(|s| s * 1000);
        }
    }
    if status == 429 {
        let mut t = Transient::new("server busy (HTTP 429)");
        t.retry_after_ms = retry_after_ms;
        return Err(Outcome::Transient(t));
    }
    Ok(Reply {
        raw: body.to_string(),
        cached,
    })
}
