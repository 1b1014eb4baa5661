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

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccv_core::api::{ApiError, ErrorCode, Request, RunContext};
use ccv_observe::{CancelToken, FaultKind, Json, LineOut, NdjsonSink, SinkHandle};

use crate::{Service, MAX_REQUEST_BYTES};

/// The most time a client gets to send its whole request, and to
/// take each response, or each streamed line, once writing starts. A
/// client that is silent, trickles bytes or stops reading is dropped
/// after this long, so every handler's I/O ends.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A connection's socket under one deadline for a whole span of its
/// I/O, not a timeout per call: each read or write first sets the
/// socket's timeout to the time left, so a client that sends or takes
/// a byte at a time cannot stretch the span past the deadline.
struct Timed<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> Timed<'a> {
    /// `stream` with [`IO_TIMEOUT`] from now.
    fn new(stream: &'a TcpStream) -> Timed<'a> {
        Timed::until(stream, Instant::now() + IO_TIMEOUT)
    }

    fn until(stream: &'a TcpStream, deadline: Instant) -> Timed<'a> {
        Timed { stream, deadline }
    }

    fn left(&self) -> io::Result<Duration> {
        match self.deadline.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(left),
            _ => Err(io::ErrorKind::TimedOut.into()),
        }
    }
}

impl Read for Timed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Timed<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

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

/// Writes every byte of `parts`, in order, with vectored writes, then
/// flushes: a response's head, body and tail go out from where they
/// lie, never joined into one buffer. A partial write resumes mid-part
/// and `Interrupted` is retried; a write that takes no bytes fails
/// with `WriteZero` instead of spinning.
fn write_parts(out: &mut impl Write, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
    // Drop leading empty parts, so an all-empty response is no
    // zero-byte write.
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match out.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    out.flush()
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
    /// failure, or a client that takes no line within [`IO_TIMEOUT`],
    /// means the client is gone: the run is cancelled. Lines offered
    /// after the response are dropped.
    fn write_line(&self, line: &str) -> bool {
        let out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        if self.done.load(Ordering::Acquire) {
            return false;
        }
        let r = write_parts(
            &mut Timed::new(&out),
            &mut [IoSlice::new(line.as_bytes()), IoSlice::new(b"\n")],
        );
        if r.is_err() {
            self.cancel.request_cancel();
        }
        r.is_ok()
    }

    /// Writes the final bytes of the connection, giving up after
    /// [`IO_TIMEOUT`], and marks it done, in one critical section — no
    /// heartbeat can trail the response. Shutting the read half wakes
    /// a watchdog blocked reading the socket; the condvar wakes one
    /// waiting between heartbeats.
    fn finish(&self, parts: &mut [IoSlice<'_>]) {
        let out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        self.done.store(true, Ordering::Release);
        let _ = write_parts(&mut Timed::new(&out), parts);
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

/// Feeds an [`NdjsonSink`]'s lines through the shared [`WireWriter`]
/// whole, so progress events and heartbeats never interleave mid-line.
struct SinkLines(Arc<WireWriter>);

impl LineOut for SinkLines {
    fn line(&mut self, _ev: &str, line: String) {
        self.0.write_line(&line);
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
/// `None` if the socket cannot be cloned or the OS refuses the thread;
/// the run then goes unwatched.
fn spawn_watchdog(
    wire: &Arc<WireWriter>,
    interval: Duration,
    heartbeat: bool,
) -> Option<JoinHandle<()>> {
    let probe = wire.probe().ok()?;
    let wire = Arc::clone(wire);
    std::thread::Builder::new()
        .name("ccv-serve-watchdog".into())
        .spawn(move || watchdog(probe, wire, interval, heartbeat))
        .ok()
}

/// Sends the final bytes of a connection, or drops it without them on
/// an injected `serve.response` fault, then joins the watchdog, which
/// either ending wakes.
fn respond(
    service: &Service,
    wire: &WireWriter,
    parts: &mut [IoSlice<'_>],
    watchdog: Option<JoinHandle<()>>,
) {
    if response_fault(service) {
        wire.abort(); // dropped mid-response: the client sees EOF, not a reply
    } else {
        wire.finish(parts);
    }
    if let Some(watchdog) = watchdog {
        let _ = watchdog.join();
    }
}

/// Entry point for one accepted connection: sniff the dialect off the
/// first byte and dispatch. `cancel` is the token an engine run for
/// this connection polls.
pub(crate) fn handle_connection(service: &Service, stream: TcpStream, cancel: CancelToken) {
    // The whole request, first byte to last, must arrive by `read_by`.
    let read_by = Instant::now() + IO_TIMEOUT;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let mut first = [0u8; 1];
    match stream.peek(&mut first) {
        Ok(1) if first[0] == b'{' => handle_ndjson(service, stream, read_by, cancel),
        Ok(1) => handle_http(service, stream, read_by, cancel),
        _ => {}
    }
}

/// Reads one `\n`-terminated line, bounded at `max` bytes.
fn read_request_line(stream: impl Read, max: usize) -> Result<String, ApiError> {
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
fn handle_ndjson(service: &Service, stream: TcpStream, read_by: Instant, cancel: CancelToken) {
    let cfg = service.config();
    let line = read_request_line(Timed::until(&stream, read_by), MAX_REQUEST_BYTES);
    let wire = Arc::new(WireWriter::new(stream, cancel.clone()));
    let mut probe_thread = None;
    let outcome = match line.and_then(|line| Request::parse(line.trim())) {
        Err(e) => service.process_text_error(e),
        Ok(req) => {
            let sink = if req.stream {
                SinkHandle::new(Arc::new(NdjsonSink::new(SinkLines(Arc::clone(&wire)))))
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
    // The envelope `{"ev":"response","cached":<b>,"body":<body>}\n`,
    // written around the body rather than copied with it.
    let head: &[u8] = if outcome.cached {
        b"{\"ev\":\"response\",\"cached\":true,\"body\":"
    } else {
        b"{\"ev\":\"response\",\"cached\":false,\"body\":"
    };
    let parts = &mut [
        IoSlice::new(head),
        IoSlice::new(outcome.body.as_bytes()),
        IoSlice::new(b"}\n"),
    ];
    respond(service, &wire, parts, probe_thread);
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

/// Renders the head of an HTTP/1.1 response (status line and headers
/// through the blank line) for a body of `body_len` bytes.
fn http_head(status: (u16, &'static str), extra: &[(&str, &str)], body_len: usize) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        status.0, status.1, body_len
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads the request head (start line + headers) and returns it with
/// whatever body bytes were read past the blank line.
fn read_head(stream: &mut impl Read, max: usize) -> io::Result<(String, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // No blank line starts before `from`: each read resumes the search
    // three bytes before the old end.
    let mut from = 0;
    loop {
        if let Some(pos) = find_blank_line(&buf[from..]) {
            let pos = from + pos;
            let head = String::from_utf8_lossy(&buf[..pos]).into_owned();
            buf.drain(..pos + 4);
            return Ok((head, buf));
        }
        from = buf.len().saturating_sub(3);
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
fn handle_http(service: &Service, stream: TcpStream, read_by: Instant, cancel: CancelToken) {
    let cfg = service.config();
    let mut request = Timed::until(&stream, read_by);
    let Ok((head, mut body)) = read_head(&mut request, MAX_REQUEST_BYTES) else {
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

    let (status, extra, reply) = match (method.as_str(), path.as_str()) {
        ("GET", "/v1/healthz") => ((200, "OK"), None, "{\"ok\":true}".to_string()),
        ("GET", "/v1/metrics") => ((200, "OK"), None, service.metrics_json().render_compact()),
        ("POST", "/v1/requests") if content_length > MAX_REQUEST_BYTES => {
            let out = service.process_text_error(ApiError::bad_request(format!(
                "request exceeds {} bytes",
                MAX_REQUEST_BYTES
            )));
            let status = http_status(out.code);
            (
                status,
                Some(("x-ccv-cache", "miss")),
                Arc::unwrap_or_clone(out.body),
            )
        }
        ("POST", "/v1/requests") => {
            // The rest of the body goes into the buffer the head read
            // started; a short read (EOF, timeout) keeps what came.
            let rest = content_length.saturating_sub(body.len());
            body.reserve(rest);
            let _ = request.take(rest as u64).read_to_end(&mut body);
            let text = String::from_utf8(body)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
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
            let head = http_head(http_status(out.code), &headers, out.body.len());
            let parts = &mut [
                IoSlice::new(head.as_bytes()),
                IoSlice::new(out.body.as_bytes()),
            ];
            respond(service, &wire, parts, probe_thread);
            return;
        }
        _ => {
            let err = ApiError::bad_request(format!("no such endpoint: {method} {path}"));
            let body = Json::Obj(vec![("error".into(), err.to_json())]).render_compact();
            ((404, "Not Found"), None, body)
        }
    };
    let head = http_head(status, extra.as_slice(), reply.len());
    let parts = &mut [
        IoSlice::new(head.as_bytes()),
        IoSlice::new(reply.as_bytes()),
    ];
    let _ = write_parts(&mut Timed::new(&stream), parts);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that fails its first call with `Interrupted`, then
    /// takes at most `max` bytes per call, across part boundaries. It
    /// panics past `CALLS` calls, so a write loop that spins fails.
    struct Trickle {
        out: Vec<u8>,
        max: usize,
        interrupted: bool,
        calls: usize,
    }

    const CALLS: usize = 10_000;

    impl Trickle {
        fn new(max: usize) -> Trickle {
            Trickle {
                out: Vec::new(),
                max,
                interrupted: false,
                calls: 0,
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            assert!(self.calls <= CALLS, "the write loop spins");
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let start = self.out.len();
            for buf in bufs {
                let room = self.max - (self.out.len() - start);
                self.out.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.out.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_parts_resumes_partial_and_interrupted_writes() {
        let body: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let parts: [&[u8]; 5] = [b"", b"{\"cached\":false,\"body\":", b"", &body, b"}\n"];
        for max in 1..=7 {
            let mut out = Trickle::new(max);
            write_parts(&mut out, &mut parts.map(IoSlice::new)).expect("all parts written");
            assert!(out.interrupted);
            assert!(out.out == parts.concat(), "max {max}: bytes differ");
        }
    }

    /// A `Read` that hands out one byte per call.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            buf[0] = first;
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn read_head_finds_a_blank_line_split_across_reads() {
        let request = b"POST /v1/requests HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}";
        let want = "POST /v1/requests HTTP/1.1\r\ncontent-length: 2";
        // One byte per read: the blank line arrives split every way.
        let (head, rest) = read_head(&mut OneByte(request), 1 << 10).expect("head found");
        assert_eq!((head.as_str(), rest.as_slice()), (want, &b""[..]));
        // One read: the body bytes past the blank line come back.
        let (head, rest) = read_head(&mut &request[..], 1 << 10).expect("head found");
        assert_eq!((head.as_str(), rest.as_slice()), (want, &b"{}"[..]));
    }

    #[test]
    fn a_write_that_takes_nothing_ends_in_write_zero() {
        let mut out = Trickle::new(0);
        let err = write_parts(&mut out, &mut [IoSlice::new(b"{}")]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // Empty parts need no write at all.
        let empty: [&[u8]; 2] = [b"", b""];
        write_parts(&mut Trickle::new(0), &mut empty.map(IoSlice::new)).expect("nothing to write");
    }
}
