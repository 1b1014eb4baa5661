//! Loopback integration tests: a real `ccv serve` daemon on an
//! ephemeral port, exercised over actual TCP by concurrent clients.
//!
//! These are the end-to-end guarantees the daemon advertises:
//! verdicts served over the wire are byte-identical to direct
//! [`SessionRunner`] runs; repeated identical submissions replay from
//! the verdict cache with identical bodies; a full admission gate
//! answers BUSY instead of queueing unboundedly; an over-budget
//! request comes back INCONCLUSIVE without disturbing other in-flight
//! sessions; and a client that vanishes mid-request is detected and
//! counted.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccv_core::api::{ProtocolSource, Request, RunContext, SessionRunner};
use ccv_observe::{CancelToken, SinkHandle};
use ccv_serve::{Server, ServerConfig, ServerHandle};

/// Every checked-in protocol description, name → DSL text.
fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../protocols");
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("protocols/ corpus directory")
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            if !name.ends_with(".ccv") {
                return None;
            }
            Some((name, std::fs::read_to_string(e.path()).ok()?))
        })
        .collect();
    files.sort();
    assert!(files.len() >= 10, "expected the 10-protocol corpus");
    files
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind(config).expect("bind loopback").spawn()
}

/// Sends one NDJSON request line and reads events until the response
/// envelope arrives. Returns `(cached, body)` with the body extracted
/// verbatim from the envelope (no re-rendering, so byte comparisons
/// are honest).
fn ndjson_round_trip(addr: std::net::SocketAddr, line: &str) -> (bool, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(line.as_bytes()).expect("send request");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        buf.clear();
        let n = reader.read_line(&mut buf).expect("read event line");
        assert!(n > 0, "connection closed before a response envelope");
        let line = buf.trim_end();
        for (prefix, cached) in [
            ("{\"ev\":\"response\",\"cached\":false,\"body\":", false),
            ("{\"ev\":\"response\",\"cached\":true,\"body\":", true),
        ] {
            if let Some(rest) = line.strip_prefix(prefix) {
                let body = rest.strip_suffix('}').expect("envelope closes");
                return (cached, body.to_string());
            }
        }
        // Anything else is a ping or a streamed progress event; both
        // must at least be well-formed JSON lines.
        ccv_observe::Json::parse(line).expect("non-response event parses");
    }
}

/// Runs `req` directly through a [`SessionRunner`] after applying the
/// same server-side clamps, rendering the body exactly as the daemon
/// does.
fn direct_body(config: &ServerConfig, req: &Request) -> String {
    let effective = config.admit(req).expect("request within caps");
    let ctx = RunContext::new(CancelToken::new(), SinkHandle::disabled());
    SessionRunner::new()
        .run(&effective, &ctx)
        .to_json()
        .render_compact()
}

fn verify_request(dsl: &str) -> Request {
    Request::verify(ProtocolSource::Dsl(dsl.to_string()))
}

#[test]
fn ten_protocols_from_eight_concurrent_clients_match_direct_runs() {
    let mut config = ServerConfig::loopback();
    config.workers = 4;
    config.queue_depth = 32;
    let mut expected: Vec<(String, String, String)> = corpus()
        .into_iter()
        .map(|(name, dsl)| {
            let req = verify_request(&dsl);
            let body = direct_body(&config, &req);
            (name, req.to_json().render_compact(), body)
        })
        .collect();
    // Wire compatibility: verify and crosscheck still accept
    // `"threads"`, which only enumerate uses, so carrying it changes
    // no byte of the body — directly and over the wire.
    let (_, msi) = corpus().into_iter().find(|(n, _)| n == "msi.ccv").unwrap();
    for plain in [
        verify_request(&msi),
        Request::crosscheck(ProtocolSource::Dsl(msi), 3),
    ] {
        let mut threaded = plain.clone();
        threaded.options.threads = 8;
        let wire = threaded.to_json().render_compact();
        assert!(wire.contains("\"threads\":8"), "{wire}");
        let parsed = Request::parse(&wire).expect("threads still parses");
        let ctx = RunContext::new(CancelToken::new(), SinkHandle::disabled());
        let mut runner = SessionRunner::new();
        let body = runner.run(&plain, &ctx).to_json().render_compact();
        assert!(!body.contains("\"error\""), "{body}");
        assert_eq!(
            runner.run(&parsed, &ctx).to_json().render_compact(),
            body,
            "{}: threads changed the body",
            plain.action.name()
        );
        let name = format!("msi.ccv {} threads=8", plain.action.name());
        expected.push((name, wire, direct_body(&config, &plain)));
    }
    let server = spawn_server(config);
    let addr = server.addr();

    let expected = Arc::new(expected);
    let mut joins = Vec::new();
    for thread in 0..8 {
        let expected = Arc::clone(&expected);
        joins.push(std::thread::spawn(move || {
            // Thread t takes requests t, t+8, t+16, ... so every
            // submission is in flight across the 8 clients at once.
            for (name, wire, want) in expected.iter().skip(thread).step_by(8) {
                let (_cached, body) = ndjson_round_trip(addr, wire);
                assert_eq!(&body, want, "{name}: wire body differs from direct run");
            }
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    assert_eq!(server.service().disconnects(), 0);
}

#[test]
fn second_identical_submission_is_a_wire_level_cache_hit() {
    let server = spawn_server(ServerConfig::loopback());
    let addr = server.addr();
    let (_, msi) = corpus().into_iter().find(|(n, _)| n == "msi.ccv").unwrap();
    let wire = verify_request(&msi).to_json().render_compact();

    let (first_cached, first) = ndjson_round_trip(addr, &wire);
    let (second_cached, second) = ndjson_round_trip(addr, &wire);
    assert!(!first_cached, "first submission must compute");
    assert!(second_cached, "second identical submission must hit");
    assert_eq!(first, second, "cached replay must be byte-identical");
    assert!(first.contains("\"verdict\":\"VERIFIED\""));
    assert_eq!(server.service().cache().hits(), 1);
}

#[test]
fn full_admission_gate_answers_busy_over_the_wire() {
    let mut config = ServerConfig::loopback();
    config.workers = 1;
    config.queue_depth = 0;
    let server = spawn_server(config);
    let addr = server.addr();
    // Occupy the only engine slot from the test itself: the next wire
    // request must bounce deterministically, with no timing games.
    let service = server.service();
    let held = service.admission().acquire().expect("slot free");

    let (_, msi) = corpus().into_iter().find(|(n, _)| n == "msi.ccv").unwrap();
    let wire = verify_request(&msi).to_json().render_compact();
    let (cached, body) = ndjson_round_trip(addr, &wire);
    assert!(!cached);
    assert!(body.contains("\"code\":\"busy\""), "body: {body}");
    assert_eq!(service.admission().rejected(), 1);

    // Releasing the slot restores service.
    drop(held);
    let (_, body) = ndjson_round_trip(addr, &wire);
    assert!(body.contains("\"verdict\":\"VERIFIED\""), "body: {body}");
}

#[test]
fn over_budget_request_is_inconclusive_and_leaves_others_untouched() {
    let mut config = ServerConfig::loopback();
    config.workers = 2;
    let server = spawn_server(config);
    let addr = server.addr();
    let (_, moesi) = corpus()
        .into_iter()
        .find(|(n, _)| n == "moesi.ccv")
        .unwrap();

    let mut starved = verify_request(&moesi);
    starved.options.budget = Some(3);
    let starved_wire = starved.to_json().render_compact();
    let normal_wire = verify_request(&moesi).to_json().render_compact();

    let normal = {
        let wire = normal_wire.clone();
        std::thread::spawn(move || ndjson_round_trip(addr, &wire))
    };
    let (_, starved_body) = ndjson_round_trip(addr, &starved_wire);
    let (_, normal_body) = normal.join().expect("client thread");

    assert!(
        starved_body.contains("\"verdict\":\"INCONCLUSIVE\""),
        "body: {starved_body}"
    );
    assert!(
        normal_body.contains("\"verdict\":\"VERIFIED\""),
        "body: {normal_body}"
    );
    // The inconclusive verdict depends on the budget dice, so it must
    // not have been cached; the conclusive one must have been.
    let (cached, replay) = ndjson_round_trip(addr, &starved_wire);
    assert!(!cached, "inconclusive responses must not be cached");
    assert!(
        replay.contains("\"verdict\":\"INCONCLUSIVE\""),
        "body: {replay}"
    );
    let (cached, replay) = ndjson_round_trip(addr, &normal_wire);
    assert!(cached, "conclusive responses must be cached");
    assert_eq!(replay, normal_body);
}

#[test]
fn split_transaction_protocols_are_served_end_to_end() {
    // Satellite of the non-atomic model: a split protocol submitted
    // over real TCP must verify, enumerate, and crosscheck exactly
    // like a direct run, so no `unsupported` answer is acceptable
    // here.
    let config = ServerConfig::loopback();
    let server = spawn_server(config.clone());
    let addr = server.addr();
    let (_, dsl) = corpus()
        .into_iter()
        .find(|(n, _)| n == "split-msi.ccv")
        .expect("split-msi.ccv in the corpus");

    let verify = verify_request(&dsl);
    let (_, body) = ndjson_round_trip(addr, &verify.to_json().render_compact());
    assert!(body.contains("\"verdict\":\"VERIFIED\""), "body: {body}");
    assert_eq!(body, direct_body(&config, &verify), "matches direct run");

    let enumerate = Request::enumerate(ProtocolSource::Dsl(dsl.clone()), 2);
    let (_, body) = ndjson_round_trip(addr, &enumerate.to_json().render_compact());
    assert!(!body.contains("\"code\":"), "no error: {body}");
    assert!(body.contains("\"distinct_states\":"), "body: {body}");

    let crosscheck = Request::crosscheck(ProtocolSource::Dsl(dsl), 2);
    let (_, body) = ndjson_round_trip(addr, &crosscheck.to_json().render_compact());
    assert!(body.contains("\"complete\":true"), "Theorem 1: {body}");
}

#[test]
fn http_endpoints_serve_health_metrics_and_cache_header() {
    let server = spawn_server(ServerConfig::loopback());
    let addr = server.addr();
    let (_, msi) = corpus().into_iter().find(|(n, _)| n == "msi.ccv").unwrap();
    let wire = verify_request(&msi).to_json().render_compact();

    let health = http_exchange(addr, "GET", "/v1/healthz", None);
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.contains("{\"ok\":true}"));

    let first = http_exchange(addr, "POST", "/v1/requests", Some(&wire));
    assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
    assert!(first.contains("x-ccv-cache: miss"), "{first}");
    let second = http_exchange(addr, "POST", "/v1/requests", Some(&wire));
    assert!(second.contains("x-ccv-cache: hit"), "{second}");
    assert_eq!(
        http_body(&first),
        http_body(&second),
        "bodies byte-identical"
    );

    let metrics = http_exchange(addr, "GET", "/v1/metrics", None);
    assert!(
        metrics.contains("\"schema\":\"ccv-serve-metrics-v1\""),
        "{metrics}"
    );

    let missing = http_exchange(addr, "GET", "/v1/nope", None);
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
}

#[test]
fn client_disconnect_mid_request_is_detected_and_counted() {
    let mut config = ServerConfig::loopback();
    config.workers = 2;
    let server = spawn_server(config);
    let addr = server.addr();
    let (_, moesi) = corpus()
        .into_iter()
        .find(|(n, _)| n == "moesi.ccv")
        .unwrap();
    // A fault-injection option keeps the request out of the verdict
    // cache, so every retry actually runs an engine; enumerate at a
    // real size gives the watchdog a window to notice the dead peer.
    let mut req = Request::enumerate(ProtocolSource::Dsl(moesi), 6);
    req.options.inject_panic = Some(usize::MAX);
    let body = req.to_json().render_compact();
    let http = format!(
        "POST /v1/requests HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );

    let deadline = Instant::now() + Duration::from_secs(30);
    while server.service().disconnects() == 0 {
        assert!(
            Instant::now() < deadline,
            "no disconnect observed: {}",
            server.service().metrics_json().render_compact()
        );
        // Send the full request, then vanish without reading the
        // response: in HTTP mode a read of EOF is a disconnect.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(http.as_bytes()).expect("send request");
        drop(stream);
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(server.service().disconnects() >= 1);
}

/// One HTTP/1.1 exchange; returns the full raw response text.
fn http_exchange(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// The body of a raw HTTP response (everything past the blank line).
fn http_body(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

#[test]
fn shutdown_is_prompt_when_idle_and_after_cache_hits() {
    // The accept loop blocks in `accept`; shutdown must wake it rather
    // than wait for a connection that never comes.
    let idle = spawn_server(ServerConfig::loopback());
    let started = Instant::now();
    idle.shutdown();
    assert!(started.elapsed() < Duration::from_secs(1), "idle shutdown");

    let server = spawn_server(ServerConfig::loopback());
    let addr = server.addr();
    let wire = Request::verify(ProtocolSource::Name("illinois".into()))
        .to_json()
        .render_compact();
    let (_, first) = ndjson_round_trip(addr, &wire);
    for _ in 0..200 {
        assert_eq!(ndjson_round_trip(addr, &wire), (true, first.clone()));
    }
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown after hits"
    );
}

#[test]
fn client_gone_while_queued_is_counted_as_a_disconnect() {
    // The watchdog starts before the admission wait, so a client that
    // leaves while queued has its run cancelled before it starts. The
    // request is one the engine refuses at once (its fault plan does
    // not parse), so a watchdog started only with the run would be too
    // late to count it.
    let mut config = ServerConfig::loopback();
    config.workers = 1;
    config.ping_interval = Duration::from_millis(20);
    let interval = config.ping_interval;
    let server = spawn_server(config);
    let service = server.service();
    let held = service.admission().acquire().expect("slot free");

    let mut req = Request::enumerate(ProtocolSource::Name("illinois".into()), 3);
    req.options.fault_plan = Some("enum.worker:nosuchkind".into());
    let body = req.to_json().render_compact();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "POST /v1/requests HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.admission().queued() == 0 {
        assert!(Instant::now() < deadline, "request never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(stream);
    std::thread::sleep(2 * interval);
    drop(held);
    while service.disconnects() == 0 {
        assert!(
            Instant::now() < deadline,
            "queued disconnect not counted: {}",
            service.metrics_json().render_compact()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(service.disconnects(), 1);
}

#[test]
fn half_closed_ndjson_client_gets_its_envelope_and_a_prompt_close() {
    // `nc` shuts its send side after stdin EOF. The engine run (the
    // first request) must treat that as legal, and the hit (the second)
    // must answer it too. The connection closes only once the watchdog
    // lets go of it, so with a long ping interval a prompt EOF shows the
    // watchdog left with the response instead of sleeping out its
    // interval. Holding the only worker slot for a moment lets the
    // watchdog see the half-close before the engine runs.
    let mut config = ServerConfig::loopback();
    config.workers = 1;
    config.ping_interval = Duration::from_secs(5);
    let server = spawn_server(config);
    let service = server.service();
    let wire = Request::verify(ProtocolSource::Name("illinois".into()))
        .to_json()
        .render_compact();
    let mut bodies = Vec::new();
    for cached in [false, true] {
        let held = service.admission().acquire().expect("slot free");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        writeln!(stream, "{wire}").expect("send request");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        if !cached {
            while service.admission().queued() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        drop(held);
        let started = Instant::now();
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read to EOF");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "connection held open for {:?}",
            started.elapsed()
        );
        let prefix = format!("{{\"ev\":\"response\",\"cached\":{cached},\"body\":");
        let body = out
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .unwrap_or_else(|| panic!("no cached={cached} envelope in {out:?}"));
        bodies.push(body.to_string());
    }
    assert_eq!(bodies[0], bodies[1], "cached replay must be byte-identical");
    assert!(bodies[0].contains("\"verdict\":\"VERIFIED\""));
}
