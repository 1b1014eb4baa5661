//! Per-connection wire handling: protocol sniffing, the NDJSON line
//! protocol, a minimal HTTP/1.1 subset, and disconnect detection.
//!
//! One connection carries one request. The first byte decides the
//! dialect: `{` is an NDJSON request line, anything else is parsed as
//! HTTP. Every request headed for an engine gets a watchdog thread
//! probing the client socket from the moment its cache lookup misses;
//! a reset connection (or, for NDJSON, a failed heartbeat write) trips
//! the run's [`CancelToken`] via `request_cancel`, which the governor
//! reports as the `disconnected` stop cause. Cache hits and rejected
//! requests are answered without one.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ccv_core::api::{ApiError, ErrorCode, Request, RunContext};
use ccv_observe::{CancelToken, FaultKind, Json, NdjsonSink, SinkHandle};

use crate::Service;

/// Applies the `serve.response` fault site just before response bytes
/// go out. `true` means drop the connection without responding — an
/// injected mid-response disconnect, which clients must survive by
/// retrying. A slow fault delays the response instead.
fn response_fault(service: &Service) -> bool {
    let fault = &service.config().fault;
    match fault.fire("serve.response") {
        Some(FaultKind::Disconnect | FaultKind::IoError) => true,
        Some(FaultKind::SlowRead) => {
            if let Some(inj) = fault.injector() {
                std::thread::sleep(Duration::from_millis(inj.slow_millis()));
            }
            false
        }
        _ => false,
    }
}

/// The serialized write side of one connection. Progress lines, ping
/// heartbeats and the final response all pass through one mutex so
/// lines never interleave; a failed write before the response is done
/// trips the cancel token.
struct WireWriter {
    out: Mutex<TcpStream>,
    cancel: CancelToken,
    done: AtomicBool,
    /// Signalled, under `out`, when `done` is set.
    finished: Condvar,
}

impl WireWriter {
    fn new(out: TcpStream, cancel: CancelToken) -> WireWriter {
        WireWriter {
            out: Mutex::new(out),
            cancel,
            done: AtomicBool::new(false),
            finished: Condvar::new(),
        }
    }

    /// A second handle on the socket, for the watchdog's reads.
    fn probe(&self) -> io::Result<TcpStream> {
        self.out
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .try_clone()
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Waits up to `timeout` for the connection to finish; returns
    /// whether it has.
    fn wait_done(&self, timeout: Duration) -> bool {
        let out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        let _ = self
            .finished
            .wait_timeout_while(out, timeout, |_| !self.is_done());
        self.is_done()
    }

    /// Flags the client as gone and cancels the run.
    fn disconnected(&self) {
        if !self.is_done() {
            self.cancel.request_cancel();
        }
    }

    /// Writes one NDJSON line (heartbeats, progress events). A write
    /// failure means the client is gone: the run is cancelled. Lines
    /// offered after the response are dropped.
    fn write_line(&self, line: &str) -> bool {
        let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        if self.done.load(Ordering::Acquire) {
            return false;
        }
        let r = out
            .write_all(line.as_bytes())
            .and_then(|_| out.write_all(b"\n"))
            .and_then(|_| out.flush());
        if r.is_err() {
            self.cancel.request_cancel();
        }
        r.is_ok()
    }

    /// Writes the final bytes of the connection and marks it done, in
    /// one critical section — no heartbeat can trail the response.
    /// Shutting the read half wakes a watchdog blocked reading the
    /// socket; the condvar wakes one waiting between heartbeats.
    fn finish(&self, bytes: &[u8]) {
        let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        self.done.store(true, Ordering::Release);
        let _ = out.write_all(bytes).and_then(|_| out.flush());
        let _ = out.shutdown(Shutdown::Read);
        self.finished.notify_all();
    }

    /// Abandons the connection without a response (injected
    /// `serve.response` fault): marks it done so the watchdog stops
    /// heartbeating and shuts the socket, so the client sees EOF
    /// mid-stream instead of an answer.
    fn abort(&self) {
        let out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        self.done.store(true, Ordering::Release);
        let _ = out.shutdown(Shutdown::Both);
        self.finished.notify_all();
    }
}

/// `Write` adapter feeding an [`NdjsonSink`]'s output through the
/// shared [`WireWriter`] a whole line at a time, so progress events
/// and heartbeats never interleave mid-line.
struct SinkWriter {
    wire: Arc<WireWriter>,
    buf: Vec<u8>,
}

impl Write for SinkWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            if let Ok(text) = std::str::from_utf8(&line[..line.len() - 1]) {
                self.wire.write_line(text);
            }
        }
        Ok(())
    }
}

/// Probes the client socket while the engine runs. A connection
/// reset cancels the run. `heartbeat` (NDJSON mode) additionally
/// writes `{"ev":"ping"}` every interval — the write doubles as a
/// liveness probe for clients that half-closed their send side (for
/// example `nc` after stdin EOF), whose sockets read as clean EOF
/// here while staying perfectly able to receive.
///
/// It returns as soon as the connection is finished or aborted.
fn watchdog(mut probe: TcpStream, wire: Arc<WireWriter>, interval: Duration, heartbeat: bool) {
    let _ = probe.set_read_timeout(Some(interval));
    let mut sink = [0u8; 256];
    loop {
        if wire.is_done() {
            return;
        }
        match probe.read(&mut sink) {
            // EOF: for HTTP a vanished client; for NDJSON a legal
            // half-close — the heartbeat decides from here on. Also
            // what `finish` causes, by shutting the read half.
            Ok(0) if !heartbeat => {
                wire.disconnected();
                return;
            }
            Ok(0) => {
                if wire.wait_done(interval) {
                    return;
                }
            }
            // Stray extra input; this protocol is one request per
            // connection, so ignore it.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                wire.disconnected();
                return;
            }
        }
        if wire.is_done() {
            return;
        }
        if heartbeat && !wire.write_line("{\"ev\":\"ping\"}") {
            return;
        }
    }
}

/// Starts the disconnect watchdog for a request headed for an engine.
/// `None` if the socket cannot be cloned; the run then goes unwatched.
fn spawn_watchdog(
    wire: &Arc<WireWriter>,
    interval: Duration,
    heartbeat: bool,
) -> Option<JoinHandle<()>> {
    let probe = wire.probe().ok()?;
    let wire = Arc::clone(wire);
    Some(std::thread::spawn(move || {
        watchdog(probe, wire, interval, heartbeat)
    }))
}

/// Sends the final bytes of a connection, or drops it without them on
/// an injected `serve.response` fault, then joins the watchdog, which
/// either ending wakes.
fn respond(service: &Service, wire: &WireWriter, bytes: &[u8], watchdog: Option<JoinHandle<()>>) {
    if response_fault(service) {
        wire.abort(); // dropped mid-response: the client sees EOF, not a reply
    } else {
        wire.finish(bytes);
    }
    if let Some(watchdog) = watchdog {
        let _ = watchdog.join();
    }
}

/// Entry point for one accepted connection: sniff the dialect off the
/// first byte and dispatch.
pub(crate) fn handle_connection(service: Arc<Service>, stream: TcpStream) {
    // Blocking I/O with a generous idle timeout: a client that
    // connects and never sends a parseable request gets dropped.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut first = [0u8; 1];
    match stream.peek(&mut first) {
        Ok(1) if first[0] == b'{' => handle_ndjson(&service, stream),
        Ok(1) => handle_http(&service, stream),
        _ => {}
    }
}

/// Reads one `\n`-terminated line, bounded at `max` bytes.
fn read_request_line(stream: &TcpStream, max: usize) -> Result<String, ApiError> {
    let mut line = String::new();
    let mut limited = BufReader::new(stream).take(max as u64);
    match limited.read_line(&mut line) {
        Ok(0) => Err(ApiError::bad_request("empty request")),
        Ok(_) if !line.ends_with('\n') && line.len() >= max => Err(ApiError::bad_request(format!(
            "request exceeds {max} bytes"
        ))),
        Ok(_) => Ok(line),
        Err(e) => Err(ApiError::bad_request(format!("reading request: {e}"))),
    }
}

/// One NDJSON request: request line in, event stream + response
/// envelope out.
fn handle_ndjson(service: &Arc<Service>, stream: TcpStream) {
    let cfg = service.config();
    let cancel = CancelToken::new();
    let line = read_request_line(&stream, cfg.max_request_bytes);
    let wire = Arc::new(WireWriter::new(stream, cancel.clone()));
    let mut probe_thread = None;
    let outcome = match line.and_then(|line| Request::parse(line.trim())) {
        Err(e) => service.process_text_error(e),
        Ok(req) => {
            let sink = if req.stream {
                SinkHandle::new(Arc::new(NdjsonSink::new(SinkWriter {
                    wire: Arc::clone(&wire),
                    buf: Vec::new(),
                })))
            } else {
                SinkHandle::disabled()
            };
            let ctx = RunContext::new(cancel, sink);
            // The request is fully read: from here the client is
            // expected to stay silent, so an engine run hands the read
            // side to the disconnect watchdog.
            service.process_with(&req, &ctx, || {
                probe_thread = spawn_watchdog(&wire, cfg.ping_interval, true);
            })
        }
    };
    let envelope = format!(
        "{{\"ev\":\"response\",\"cached\":{},\"body\":{}}}\n",
        outcome.cached, outcome.body
    );
    respond(service, &wire, envelope.as_bytes(), probe_thread);
}

/// HTTP status line for an outcome.
fn http_status(code: Option<ErrorCode>) -> (u16, &'static str) {
    match code {
        None => (200, "OK"),
        Some(ErrorCode::BadRequest) => (400, "Bad Request"),
        Some(ErrorCode::BadProtocol) => (422, "Unprocessable Entity"),
        Some(ErrorCode::Unsupported) => (501, "Not Implemented"),
        Some(ErrorCode::Busy) => (429, "Too Many Requests"),
        Some(ErrorCode::Internal) => (500, "Internal Server Error"),
    }
}

/// Renders a full HTTP/1.1 response.
fn http_response(status: (u16, &'static str), extra: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        status.0,
        status.1,
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads the request head (start line + headers) and returns it with
/// whatever body bytes were read past the blank line.
fn read_head(stream: &mut TcpStream, max: usize) -> io::Result<(String, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_blank_line(&buf) {
            let head = String::from_utf8_lossy(&buf[..pos]).into_owned();
            return Ok((head, buf[pos + 4..].to_vec()));
        }
        if buf.len() > max {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One HTTP exchange: `POST /v1/requests`, `GET /v1/metrics`,
/// `GET /v1/healthz`.
fn handle_http(service: &Arc<Service>, mut stream: TcpStream) {
    let cfg = service.config();
    let Ok((head, mut body)) = read_head(&mut stream, cfg.max_request_bytes) else {
        return;
    };
    let mut lines = head.lines();
    let start = lines.next().unwrap_or_default();
    let mut parts = start.split_whitespace();
    let method = parts.next().unwrap_or_default().to_ascii_uppercase();
    let path = parts.next().unwrap_or_default().to_string();
    let mut content_length = 0usize;
    for header in lines {
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }

    let response = match (method.as_str(), path.as_str()) {
        ("GET", "/v1/healthz") => http_response((200, "OK"), &[], "{\"ok\":true}"),
        ("GET", "/v1/metrics") => {
            http_response((200, "OK"), &[], &service.metrics_json().render_compact())
        }
        ("POST", "/v1/requests") => {
            if content_length > cfg.max_request_bytes {
                let out = service.process_text_error(ApiError::bad_request(format!(
                    "request exceeds {} bytes",
                    cfg.max_request_bytes
                )));
                http_response(http_status(out.code), &[("x-ccv-cache", "miss")], &out.body)
            } else {
                while body.len() < content_length {
                    let mut chunk = vec![0u8; content_length - body.len()];
                    match stream.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => body.extend_from_slice(&chunk[..n]),
                        Err(_) => break,
                    }
                }
                let text = String::from_utf8_lossy(&body).into_owned();
                let cancel = CancelToken::new();
                let wire = Arc::new(WireWriter::new(stream, cancel.clone()));
                let ctx = RunContext::new(cancel, SinkHandle::disabled());
                let mut probe_thread = None;
                let out = service.process_text_with(&text, &ctx, || {
                    // HTTP clients never half-close: any EOF or error
                    // on the probe is a disconnect.
                    probe_thread = spawn_watchdog(&wire, cfg.ping_interval, false);
                });
                let cache_state = if out.cached { "hit" } else { "miss" };
                // HTTP carries the busy hint as a standard
                // `retry-after` header (whole seconds, rounded up).
                let retry_secs = out
                    .retry_after_ms
                    .map(|ms| ms.div_ceil(1000).max(1).to_string());
                let mut headers: Vec<(&str, &str)> = vec![("x-ccv-cache", cache_state)];
                if let Some(secs) = retry_secs.as_deref() {
                    headers.push(("retry-after", secs));
                }
                let bytes = http_response(http_status(out.code), &headers, &out.body);
                respond(service, &wire, &bytes, probe_thread);
                return;
            }
        }
        _ => {
            let err = ApiError::bad_request(format!("no such endpoint: {method} {path}"));
            let body = Json::Obj(vec![("error".into(), err.to_json())]).render_compact();
            http_response((404, "Not Found"), &[], &body)
        }
    };
    let _ = stream.write_all(&response).and_then(|_| stream.flush());
}
