//! Fault-injection matrix: every governed fault site crossed with
//! every fault kind, driven through the daemon's request path and a
//! live loopback server. The contract under test is the robustness
//! invariant from the fault subsystem's design: an injected fault may
//! only ever end one of three ways —
//!
//!   1. a clean, well-formed error response,
//!   2. a degraded-but-correct run (same verdict, e.g. a verdict cache
//!      that cannot persist keeps serving from memory),
//!   3. a successful retry once the fault window is exhausted.
//!
//! Never a panic escaping the engine, never a hang (every read in
//! this file carries a timeout), and never a silently wrong verdict.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use ccv_core::api::{ProtocolSource, Request, RunContext};
use ccv_model::protocols::illinois;
use ccv_observe::Json;
use ccv_serve::{Server, ServerConfig, Service};

// Every site the subsystem defines, including ones that cannot fire
// during an in-process `Service::process` call (the socket and client
// sites): those must behave as plain no-ops — the verdict is the
// proof that an armed-but-unreached site costs nothing.
use ccv_observe::fault::SITES;

const KINDS: &[&str] = &["io", "torn", "panic", "disconnect", "slow"];

fn enumerate_request(fault_plan: Option<String>) -> Request {
    let mut req = Request::enumerate(ProtocolSource::Spec(illinois()), 3);
    req.options.threads = 1;
    req.options.fault_plan = fault_plan;
    req
}

/// The full site × kind grid through the service. The checkpoint
/// site stays dormant here (no checkpoint capture), so its cells
/// double as the zero-cost-when-unreached check; `enum.worker` is the
/// live cell.
#[test]
fn request_fault_plan_matrix_never_panics_and_never_lies() {
    let service = Service::new(ServerConfig::loopback());
    let ctx = RunContext::default();

    let baseline = service.process(&enumerate_request(None), &ctx);
    assert!(
        baseline.code.is_none(),
        "baseline failed: {}",
        baseline.body
    );
    let baseline_doc = Json::parse(&baseline.body).expect("baseline body parses");
    let baseline_distinct = baseline_doc
        .get("distinct_states")
        .and_then(Json::as_u64)
        .expect("baseline has distinct_states");

    for site in SITES {
        for kind in KINDS {
            let plan = format!("{site}:{kind}@1");
            let out = service.process(&enumerate_request(Some(plan.clone())), &ctx);
            let doc = Json::parse(&out.body)
                .unwrap_or_else(|e| panic!("{plan}: malformed response: {e}"));
            assert!(!out.cached, "{plan}: fault runs must never come from cache");
            if out.code.is_some() {
                // Clean error: structured, with a code and a message.
                let err = doc
                    .get("error")
                    .unwrap_or_else(|| panic!("{plan}: error body"));
                assert!(err.get("code").and_then(Json::as_str).is_some(), "{plan}");
                assert!(
                    err.get("message").and_then(Json::as_str).is_some(),
                    "{plan}"
                );
                continue;
            }
            if doc.get("stop").is_some() {
                // Contained early stop (an injected worker panic):
                // truncated and reported, not unwound.
                continue;
            }
            // Anything that ran to completion must agree with the
            // un-faulted baseline exactly.
            assert_eq!(
                doc.get("distinct_states").and_then(Json::as_u64),
                Some(baseline_distinct),
                "{plan}: verdict changed under an injected fault"
            );
        }
    }
}

/// One NDJSON exchange against a live server, bounded so an injected
/// fault can never hang the test: connect, send, scan for the
/// response envelope. `Err` is a dropped connection.
fn exchange(addr: std::net::SocketAddr, line: &str) -> Result<Json, String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut out = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    out.write_all(line.as_bytes())
        .and_then(|_| out.write_all(b"\n"))
        .and_then(|_| out.flush())
        .map_err(|e| format!("send: {e}"))?;
    for event in BufReader::new(stream).lines() {
        let event = event.map_err(|e| format!("read: {e}"))?;
        let Ok(doc) = Json::parse(&event) else {
            continue;
        };
        if doc.get("ev").and_then(Json::as_str) == Some("response") {
            return doc
                .get("body")
                .cloned()
                .ok_or_else(|| "envelope without body".into());
        }
    }
    Err("connection closed before a response arrived".into())
}

/// Socket-layer faults against a live loopback server: dropped
/// accepts, dropped and slowed responses. A bounded retry loop must
/// reach the true verdict in every configuration, and the server must
/// survive to serve the next cell.
#[test]
fn socket_fault_matrix_is_survivable_by_retry() {
    let plans = [
        "serve.accept:disconnect@1",
        "serve.accept:io@1",
        "serve.response:disconnect@1",
        "serve.response:io@1",
        "serve.response:slow@1",
        "serve.accept:disconnect@1,serve.response:disconnect@1",
    ];
    let line = Request::verify(ProtocolSource::Spec(illinois()))
        .to_json()
        .render_compact();
    for plan in plans {
        let mut config = ServerConfig::loopback();
        config.fault = ccv_observe::FaultHandle::from_spec(plan).expect("plan parses");
        let server = Server::bind(config).expect("bind loopback");
        let handle = server.spawn();

        let mut verdict = None;
        let mut drops = 0usize;
        for _attempt in 0..5 {
            match exchange(handle.addr(), &line) {
                Ok(body) => {
                    verdict = body.get("verdict").and_then(Json::as_str).map(String::from);
                    break;
                }
                Err(_) => drops += 1,
            }
        }
        assert_eq!(
            verdict.as_deref(),
            Some("VERIFIED"),
            "{plan}: retries never reached the true verdict ({drops} drops)"
        );
        // The fault window is spent: the server keeps serving cleanly.
        let again = exchange(handle.addr(), &line).expect("post-fault request");
        assert_eq!(
            again.get("verdict").and_then(Json::as_str),
            Some("VERIFIED"),
            "{plan}: server degraded after its fault window"
        );
        handle.shutdown();
    }
}

/// Fault site `enum.worker` crossed with every kind, on a witness
/// search: the race-lost mutant's scenario needs two caches, so the
/// search at one cache must finish first. A fault may stop the search
/// (a contained worker panic) or leave the scenario unchanged; it may
/// never turn into "no violation".
#[test]
fn enum_worker_faults_never_turn_a_witness_search_into_no_violation() {
    use ccv_enum::{find_violation_witness, EnumOptions, WitnessSearch};
    use ccv_observe::{FaultHandle, StopCause};

    let spec = ccv_model::protocols::split_msi_upgrade_race_lost();
    let shape = |r: WitnessSearch| match r {
        WitnessSearch::Found(w) => Ok((w.n, w.steps.len())),
        other => Err(other),
    };
    let baseline = shape(find_violation_witness(&spec, &EnumOptions::new(4)))
        .expect("the mutant has a witness");
    for kind in KINDS {
        let plan = format!("enum.worker:{kind}@1");
        let mut opts = EnumOptions::new(4);
        opts.common.fault = FaultHandle::from_spec(&plan).expect("plan parses");
        match shape(find_violation_witness(&spec, &opts)) {
            Ok(found) => assert_eq!(found, baseline, "{plan}: witness changed"),
            Err(WitnessSearch::Stopped { n, info }) => {
                assert_eq!(n, 1, "{plan}");
                assert_eq!(info.cause, StopCause::WorkerPanic, "{plan}");
            }
            Err(other) => panic!("{plan}: {other:?}"),
        }
    }
}
