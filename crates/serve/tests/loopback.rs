//! Loopback integration tests: a real `ccv serve` daemon on an
//! ephemeral port, exercised over actual TCP by concurrent clients.
//!
//! These are the end-to-end guarantees the daemon advertises:
//! verdicts served over the wire are byte-identical to direct
//! [`SessionRunner`] runs; repeated identical submissions replay from
//! the verdict cache with identical bodies; a full admission gate
//! answers BUSY instead of queueing unboundedly; an over-budget
//! request comes back INCONCLUSIVE without disturbing other in-flight
//! sessions; a client that vanishes mid-request is detected and
//! counted; a request nested too deeply to parse is refused without
//! harming the daemon; and the largest requests and persisted verdicts
//! are read in bounded time.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccv_core::api::{ProtocolSource, Request, RunContext, SessionRunner};
use ccv_model::dsl::to_dsl;
use ccv_model::mutate::single_mutants;
use ccv_model::protocols::split_mesi;
use ccv_observe::{CancelToken, Json, SinkHandle};
use ccv_serve::{Server, ServerConfig, ServerHandle, Service};

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
/// envelope arrives. Returns the envelope line verbatim, `\n` included.
fn ndjson_envelope(addr: std::net::SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(line.as_bytes()).expect("send request");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    loop {
        let mut buf = String::new();
        let n = reader.read_line(&mut buf).expect("read event line");
        assert!(n > 0, "connection closed before a response envelope");
        if buf.starts_with("{\"ev\":\"response\",") {
            return buf;
        }
        // Anything else is a ping or a streamed progress event; both
        // must at least be well-formed JSON lines.
        ccv_observe::Json::parse(buf.trim_end()).expect("non-response event parses");
    }
}

/// [`ndjson_envelope`], returning `(cached, body)` with the body
/// extracted verbatim from the envelope (no re-rendering, so byte
/// comparisons are honest).
fn ndjson_round_trip(addr: std::net::SocketAddr, line: &str) -> (bool, String) {
    let envelope = ndjson_envelope(addr, line);
    for (prefix, cached) in [
        ("{\"ev\":\"response\",\"cached\":false,\"body\":", false),
        ("{\"ev\":\"response\",\"cached\":true,\"body\":", true),
    ] {
        if let Some(rest) = envelope.trim_end().strip_prefix(prefix) {
            let body = rest.strip_suffix('}').expect("envelope closes");
            return (cached, body.to_string());
        }
    }
    panic!("malformed response envelope");
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
fn a_multi_megabyte_counterexample_body_crosses_the_wire_intact() {
    // split-mesi single mutant 38 has the corpus's largest verify
    // body, 16.5 MB of counterexample paths: far more than a socket
    // buffer holds, so the daemon's write of it waits on the client's
    // reads many times over.
    let spec = single_mutants(&split_mesi()).swap_remove(38).spec;
    let req = verify_request(&to_dsl(&spec));
    let config = ServerConfig::loopback();
    let effective = config.admit(&req).expect("request within caps");
    let want = SessionRunner::new()
        .run(&effective, &RunContext::default())
        .render_compact();
    assert!(want.len() > 16_000_000, "body of {} bytes", want.len());
    assert!(want.contains("\"verdict\":\"ERRONEOUS\""));

    for stream in [false, true] {
        // A fresh daemon per mode, so the first answer is a miss.
        let server = spawn_server(config.clone());
        let mut req = req.clone();
        req.stream = stream;
        let wire = req.to_json().render_compact();
        for cached in [false, true] {
            let envelope = ndjson_envelope(server.addr(), &wire);
            let expected = format!("{{\"ev\":\"response\",\"cached\":{cached},\"body\":{want}}}\n");
            // Not assert_eq!: a failure would print 33 MB.
            assert!(
                envelope == expected,
                "stream {stream}, cached {cached}: envelope of {} bytes differs",
                envelope.len()
            );
        }
    }

    let server = spawn_server(config);
    let wire = req.to_json().render_compact();
    for cache in ["miss", "hit"] {
        let response = http_exchange(server.addr(), "POST", "/v1/requests", Some(&wire));
        let (head, body) = response.split_once("\r\n\r\n").expect("blank line");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            head.contains(&format!("\r\nx-ccv-cache: {cache}")),
            "{head}"
        );
        let length = format!("\r\ncontent-length: {}\r\n", want.len());
        assert!(head.contains(&length), "{head}");
        assert!(
            body == want,
            "{cache}: HTTP body of {} bytes differs",
            body.len()
        );
    }
}

/// Runs `f` on its own thread and fails the test if it takes longer
/// than `secs`: a JSON reader quadratic in the document's length then
/// fails in seconds instead of holding the suite for hours.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => {
            worker.join().expect("worker exits after sending");
            value
        }
        // A late worker is left running: a thread cannot be stopped,
        // and the test binary's exit ends it.
        Err(RecvTimeoutError::Timeout) => panic!("not finished within {secs} s"),
        Err(RecvTimeoutError::Disconnected) => panic!("the timed call panicked"),
    }
}

#[test]
fn a_persisted_multi_megabyte_verdict_reloads_byte_identically() {
    let spec = single_mutants(&split_mesi()).swap_remove(38).spec;
    let req = verify_request(&to_dsl(&spec));
    let dir = std::env::temp_dir().join(format!("ccv-loopback-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::loopback()
    };
    let first = Service::new(config.clone()).process(&req, &RunContext::default());
    assert_eq!(first.code, None);
    assert!(!first.cached);
    assert!(
        first.body.len() > 16_000_000,
        "body of {} bytes",
        first.body.len()
    );

    // A fresh daemon reloads the entry (its file is larger still: the
    // body is escaped inside it) before it accepts a connection.
    let server = within(10, move || spawn_server(config));
    let recovery = server.service().cache_recovery();
    let recovery = recovery.map(|r| (r.loaded, r.quarantined));
    assert_eq!(recovery, Some((1, 0)), "entries (loaded, quarantined)");
    let wire = req.to_json().render_compact();
    let envelope = ndjson_envelope(server.addr(), &wire);
    let expected = format!(
        "{{\"ev\":\"response\",\"cached\":true,\"body\":{}}}\n",
        first.body
    );
    // Not assert_eq!: a failure would print 33 MB.
    assert!(
        envelope == expected,
        "reloaded envelope of {} bytes differs",
        envelope.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_request_at_the_size_limit_is_answered_in_bounded_time() {
    // Illinois padded with DSL comments until the request line, its
    // newline included, is exactly the 1 MiB limit: one JSON string as
    // long as a request can carry, with escapes and multi-byte text
    // all through it. The comments change neither the fingerprint nor
    // the body.
    const LIMIT: usize = 1 << 20;
    let config = ServerConfig::loopback();
    let (_, illinois) = corpus()
        .into_iter()
        .find(|(n, _)| n == "illinois.ccv")
        .unwrap();
    let line = "# padding: (I⁺, S*) \"quoted\" \\ \t tab\n";
    // Bytes on the wire: the request, a `#x…x\n` comment (`\n` is
    // escaped as two) that takes up the slack, and each escaped line.
    let free = LIMIT - 1 - verify_request(&illinois).to_json().render_compact().len() - 3;
    let per_line = Json::str(line).render_compact().len() - 2;
    let lines = free / per_line;
    let filler = "x".repeat(free - lines * per_line);
    let dsl = format!("{illinois}#{filler}\n{}", line.repeat(lines));
    let wire = verify_request(&dsl).to_json().render_compact();
    assert_eq!(wire.len() + 1, LIMIT);

    let want = direct_body(&config, &verify_request(&illinois));
    let server = spawn_server(config);
    let addr = server.addr();
    let (cached, body) = within(10, move || ndjson_round_trip(addr, &wire));
    assert!(!cached);
    assert_eq!(body, want);
    assert!(body.contains("\"verdict\":\"VERIFIED\""), "{body}");
}

#[test]
fn a_deeply_nested_request_is_refused_and_the_daemon_keeps_serving() {
    // 100,000 open brackets in a 100 KB line: a reader that recursed
    // once per level without a bound would overflow the connection
    // thread's stack and abort the whole daemon.
    let server = spawn_server(ServerConfig::loopback());
    let addr = server.addr();
    let line = format!("{{\"x\":{}", "[".repeat(100_000));
    let (cached, body) = within(10, move || ndjson_round_trip(addr, &line));
    assert!(!cached);
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");

    let wire = Request::verify(ProtocolSource::Name("illinois".into()))
        .to_json()
        .render_compact();
    let (_, body) = ndjson_round_trip(addr, &wire);
    assert!(body.contains("\"verdict\":\"VERIFIED\""), "{body}");
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
fn trace_and_verify_threads_do_not_split_the_cache() {
    // No body carries a trace, and verify ignores `threads`: the
    // daemon clears both, so this is the same request as a plain one.
    let server = spawn_server(ServerConfig::loopback());
    let addr = server.addr();
    let spec = ccv_model::protocols::illinois_missing_invalidation();
    let plain = Request::verify(ProtocolSource::Dsl(to_dsl(&spec)));
    let mut traced = plain.clone();
    traced.options.record_trace = true;
    traced.options.threads = 1;
    let wire = traced.to_json().render_compact();
    assert!(wire.contains("\"trace\":true") && wire.contains("\"threads\":1"));

    let (first_cached, first) = ndjson_round_trip(addr, &plain.to_json().render_compact());
    let (second_cached, second) = ndjson_round_trip(addr, &wire);
    assert!(!first_cached, "first submission must compute");
    assert!(second_cached, "trace and threads must not change the key");
    assert_eq!(first, second, "cached replay must be byte-identical");
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

    // The 404 body stays valid JSON whatever the path holds.
    let odd = http_exchange(addr, "GET", r#"/v1/no"pe\"#, None);
    assert!(odd.starts_with("HTTP/1.1 404"), "{odd}");
    let body = Json::parse(http_body(&odd)).unwrap_or_else(|e| panic!("{e}: {odd}"));
    let message = body.get("error").and_then(|e| e.get("message"));
    let message = message.and_then(Json::as_str).unwrap_or_default();
    assert!(message.contains(r#"/v1/no"pe\"#), "{odd}");
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
    // A fault plan that never fires keeps the request out of the
    // verdict cache, so every retry actually runs an engine; enumerate
    // at a real size gives the watchdog a window to notice the dead
    // peer.
    let mut req = Request::enumerate(ProtocolSource::Dsl(moesi), 6);
    req.options.fault_plan = Some("enum.worker:slow@1000000000".into());
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
fn metrics_count_one_hit_or_miss_per_cacheable_request() {
    // Illinois by name, as its file and as the file re-spaced with a
    // comment, then MSI as DSL: each asked three times over HTTP. The
    // first spelling of Illinois runs the engine and the other two
    // resolve to its entry; after that every repeat is a hit by
    // source. A fault-plan request is not cacheable and counts neither.
    let server = spawn_server(ServerConfig::loopback());
    let addr = server.addr();
    let files = corpus();
    let file = |name: &str| files.iter().find(|(n, _)| n == name).unwrap().1.clone();
    let illinois = file("illinois.ccv");
    let padded = format!("# re-spaced\n{}", illinois.replace('\n', "\n\n"));
    let sources = [
        ProtocolSource::Name("illinois".into()),
        ProtocolSource::Dsl(illinois),
        ProtocolSource::Dsl(padded),
        ProtocolSource::Dsl(file("msi.ccv")),
    ];
    let mut bodies: Vec<Option<String>> = vec![None; sources.len()];
    for round in 0..3 {
        for (i, source) in sources.iter().enumerate() {
            let wire = Request::verify(source.clone()).to_json().render_compact();
            let resp = http_exchange(addr, "POST", "/v1/requests", Some(&wire));
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
            let cached = resp.contains("x-ccv-cache: hit");
            assert_eq!(
                cached,
                round > 0 || i == 1 || i == 2,
                "round {round}, source {i}"
            );
            let body = http_body(&resp).to_string();
            match &bodies[i] {
                None => bodies[i] = Some(body),
                Some(first) => assert_eq!(*first, body, "byte-identical replay"),
            }
        }
    }
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[0], bodies[2]);
    let mut faulty = Request::verify(ProtocolSource::Name("msi".into()));
    faulty.options.fault_plan = Some("enum.worker:slow@1".into());
    let wire = faulty.to_json().render_compact();
    http_exchange(addr, "POST", "/v1/requests", Some(&wire));

    let metrics = http_exchange(addr, "GET", "/v1/metrics", None);
    let doc = Json::parse(http_body(&metrics)).expect("metrics JSON");
    let cache = doc.get("cache").expect("cache group");
    let count = |name: &str| cache.get(name).and_then(Json::as_u64).unwrap();
    assert_eq!(count("hits") + count("misses"), 12, "{metrics}");
    assert_eq!((count("hits"), count("misses")), (10, 2));
    assert_eq!(count("insertions"), 2);
    let admitted = doc.get("admission").and_then(|a| a.get("admitted"));
    assert_eq!(admitted.and_then(Json::as_u64), Some(3), "{metrics}");
    assert_eq!(doc.get("requests").and_then(Json::as_u64), Some(13));
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

/// One counter of the `connections` group of `/v1/metrics`.
fn connections(service: &Service, key: &str) -> u64 {
    let doc = service.metrics_json();
    let group = doc.get("connections").expect("connections group");
    group.get(key).and_then(Json::as_u64).expect(key)
}

/// Polls `done` every millisecond; fails the test after 10 s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sequential_hits_reuse_a_few_handlers() {
    let server = spawn_server(ServerConfig::loopback());
    let addr = server.addr();
    let service = server.service();
    assert_eq!(
        connections(service, "cap"),
        24,
        "2 × (4 workers + 8 queued)"
    );
    let wire = Request::verify(ProtocolSource::Name("illinois".into()))
        .to_json()
        .render_compact();
    let (_, first) = ndjson_round_trip(addr, &wire);
    for _ in 0..200 {
        assert_eq!(ndjson_round_trip(addr, &wire), (true, first.clone()));
    }
    assert_eq!(connections(service, "accepted"), 201);
    let handlers = connections(service, "handlers");
    assert!((1..=4).contains(&handlers), "{handlers} handlers started");
    assert_eq!(connections(service, "cap_waits"), 0);
}

#[test]
fn silent_clients_at_the_cap_make_a_request_wait_for_a_handler() {
    // One worker and no queue: the cap is two handlers. Two clients
    // that connect and say nothing hold both, so a third connection
    // waits in the backlog until one of them leaves.
    let mut config = ServerConfig::loopback();
    config.workers = 1;
    config.queue_depth = 0;
    let server = spawn_server(config);
    let addr = server.addr();
    let service = Arc::clone(server.service());
    assert_eq!(connections(&service, "cap"), 2);
    let silent: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    wait_until("both silent clients hold a handler", || {
        connections(&service, "handlers") == 2 && connections(&service, "idle") == 0
    });

    let wire = Request::verify(ProtocolSource::Name("illinois".into()))
        .to_json()
        .render_compact();
    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let _ = tx.send(ndjson_round_trip(addr, &wire));
    });
    wait_until("the accept loop waits at the cap", || {
        connections(&service, "cap_waits") >= 1
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "answered with every handler held"
    );
    assert_eq!(connections(&service, "handlers"), 2);

    let mut silent = silent.into_iter();
    drop(silent.next());
    let (cached, body) = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("answered once a silent client left");
    client.join().expect("client thread");
    assert!(!cached);
    assert!(body.contains("\"verdict\":\"VERIFIED\""), "{body}");
    assert_eq!(connections(&service, "handlers"), 2);
    assert_eq!(connections(&service, "accepted"), 3);
    drop(silent);
}

#[test]
fn shutdown_is_prompt_with_parked_handlers() {
    // Four clients at once start several handlers; all are parked by
    // the time the burst ends, and shutdown must end each of them
    // without waiting out a timeout.
    let server = spawn_server(ServerConfig::loopback());
    let addr = server.addr();
    let service = Arc::clone(server.service());
    let wire = Request::verify(ProtocolSource::Name("illinois".into()))
        .to_json()
        .render_compact();
    let (_, first) = ndjson_round_trip(addr, &wire);
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let (wire, first) = (wire.clone(), first.clone());
            std::thread::spawn(move || {
                for _ in 0..50 {
                    assert_eq!(ndjson_round_trip(addr, &wire), (true, first.clone()));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    wait_until("every handler is parked", || {
        connections(&service, "idle") == connections(&service, "handlers")
    });
    assert!(connections(&service, "handlers") >= 1);
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(connections(&service, "handlers"), 0);
    assert_eq!(connections(&service, "idle"), 0);
}

#[test]
fn shutdown_drains_an_in_flight_request() {
    // A streamed exact enumeration far larger than the test waits for:
    // shutdown cancels it, and the client still gets its whole
    // envelope, an inconclusive body, before shutdown returns.
    let mut config = ServerConfig::loopback();
    config.max_n = 16;
    let server = spawn_server(config);
    let addr = server.addr();
    let service = Arc::clone(server.service());
    let mut req = Request::enumerate(ProtocolSource::Name("dragon".into()), 16);
    req.options.exact = true;
    req.options.threads = 1;
    req.stream = true;
    let wire = req.to_json().render_compact();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    writeln!(stream, "{wire}").expect("send request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("first streamed event");
    assert!(line.starts_with("{\"ev\":"), "{line}");

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert_eq!(connections(&service, "handlers"), 0, "handler not joined");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to EOF");
    let envelope = rest
        .lines()
        .find(|l| l.starts_with("{\"ev\":\"response\","))
        .unwrap_or_else(|| panic!("no envelope after shutdown: {rest:?}"));
    let doc = Json::parse(envelope).expect("envelope is one JSON line");
    let body = doc.get("body").expect("body");
    assert_eq!(body.get("truncated"), Some(&Json::Bool(true)), "{envelope}");
    let cause = body.get("stop").and_then(|s| s.get("cause"));
    assert_eq!(
        cause.and_then(Json::as_str),
        Some("cancelled"),
        "{envelope}"
    );
    assert!(took < Duration::from_secs(5), "drain took {took:?}");
}

/// With both handlers of a cap-2 daemon held by misbehaving clients, a
/// health check waits at the cap; returns how long it took to be
/// answered, which must be within `bound`.
fn health_check_at_the_cap(
    service: &Service,
    addr: std::net::SocketAddr,
    bound: Duration,
) -> Duration {
    let started = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let _ = tx.send(http_exchange(addr, "GET", "/v1/healthz", None));
    });
    wait_until("the accept loop waits at the cap", || {
        connections(service, "cap_waits") >= 1
    });
    let response = rx
        .recv_timeout(bound)
        .unwrap_or_else(|_| panic!("no health check answer within {bound:?}"));
    let took = started.elapsed();
    client.join().expect("client thread");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert_eq!(http_body(&response), "{\"ok\":true}");
    assert!(connections(service, "handlers") <= 2);
    took
}

#[test]
fn trickling_clients_are_dropped_at_the_request_deadline() {
    // Cap 2. One NDJSON and one HTTP client each send a byte a second
    // and never finish their request. Each byte would reset a timeout
    // per read; the deadline over the whole request still drops both
    // 10 s after they connect, and a waiting request gets a handler.
    let mut config = ServerConfig::loopback();
    config.workers = 1;
    config.queue_depth = 0;
    let server = spawn_server(config);
    let addr = server.addr();
    let service = Arc::clone(server.service());
    let trickle = |request: &'static [u8]| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        std::thread::spawn(move || {
            for byte in request {
                if stream.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_secs(1));
            }
        })
    };
    let tricklers = [
        trickle(b"{\"schema\":\"ccv-request-v1\",\"action\":\"verify\""),
        trickle(b"GET /v1/healthz HTTP/1.1\r\nHost: trickle.example\r\n"),
    ];
    wait_until("both tricklers hold a handler", || {
        connections(&service, "handlers") == 2 && connections(&service, "idle") == 0
    });
    let took = health_check_at_the_cap(&service, addr, Duration::from_secs(20));
    assert!(took >= Duration::from_secs(5), "answered after {took:?}");
    for t in tricklers {
        t.join().expect("trickler thread");
    }
}

#[test]
fn clients_that_stop_reading_are_dropped_at_the_write_deadline() {
    // Cap 2. Two clients ask for a cached 16.5 MB body and never read
    // it; neither socket's buffers hold it, so both handlers block in
    // the write until its 10 s deadline, and then serve a waiting
    // request.
    let mut config = ServerConfig::loopback();
    config.workers = 1;
    config.queue_depth = 0;
    let server = spawn_server(config);
    let addr = server.addr();
    let service = Arc::clone(server.service());
    let spec = single_mutants(&split_mesi()).swap_remove(38).spec;
    let req = verify_request(&to_dsl(&spec));
    let warm = service.process(&req, &RunContext::default());
    assert!(warm.body.len() > 16_000_000, "{} bytes", warm.body.len());
    let wire = req.to_json().render_compact();
    let readers: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            writeln!(stream, "{wire}").expect("send request");
            stream
        })
        .collect();
    wait_until("both handlers are busy writing", || {
        connections(&service, "handlers") == 2 && connections(&service, "idle") == 0
    });
    let took = health_check_at_the_cap(&service, addr, Duration::from_secs(20));
    assert!(took >= Duration::from_secs(5), "answered after {took:?}");
    drop(readers);
}
