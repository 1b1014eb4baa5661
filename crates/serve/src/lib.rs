//! # ccv-serve — verification as a service
//!
//! A small, dependency-free daemon that exposes the unified session
//! API of [`ccv_core::api`] over TCP: clients submit
//! `ccv-request-v1` documents (protocol DSL or a library name, plus
//! engine options) and receive `ccv-response-v1` bodies, exactly the
//! schema the `ccv` CLI subcommands use internally. Two wire
//! protocols share one port, distinguished by the first byte of the
//! connection:
//!
//! * **NDJSON** (first byte `{`): one request per line, one
//!   connection per request. The server streams `{"ev":...}` progress
//!   events (when the request sets `"stream": true`), periodic
//!   `{"ev":"ping"}` heartbeats, and finally one
//!   `{"ev":"response","cached":bool,"body":{...}}` envelope. Made
//!   for `nc`.
//! * **HTTP/1.1** (anything else): `POST /v1/requests` with the
//!   request as body, plus `GET /v1/metrics` and `GET /v1/healthz`.
//!   Responses carry `X-Ccv-Cache: hit|miss`. Made for `curl`.
//!
//! The daemon is built to survive hostile input and overload:
//!
//! * every request runs under its own [`Governor`] budget — the
//!   server clamps deadlines, state budgets and memory caps to
//!   configured maxima, so one heavy request ends in an INCONCLUSIVE
//!   verdict instead of wedging the process;
//! * admission is a bounded worker pool plus a bounded queue
//!   ([`admission::Admission`]); excess load is shed with a `busy`
//!   error (HTTP 429), never buffered without bound;
//! * connections are served by reused handler threads, at most
//!   `2 × (workers + queue_depth)` of them; at that cap new
//!   connections wait in the listen backlog instead of starting a
//!   thread;
//! * a client that disappears mid-run is detected (failed heartbeat
//!   write or reset connection) and its engine run is cancelled
//!   through [`CancelToken::request_cancel`], recorded as the
//!   `disconnected` stop cause;
//! * conclusive responses are cached in a sharded verdict cache
//!   ([`cache::VerdictCache`]) keyed by the canonical request
//!   fingerprint, so repeated submissions of the same protocol replay
//!   byte-identical bodies without re-running the engine, and a repeat
//!   of the same request text without even resolving its protocol;
//! * malformed requests — up to and including fuzzed garbage — always
//!   produce a well-formed error body, never a panic (the engines'
//!   panic paths are themselves governed).
//!
//! ```
//! use ccv_serve::{Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let handle = Server::bind(ServerConfig::loopback()).unwrap().spawn();
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! writeln!(
//!     conn,
//!     r#"{{"schema":"ccv-request-v1","action":"verify","protocol":{{"name":"illinois"}}}}"#
//! )
//! .unwrap();
//! for line in BufReader::new(conn).lines() {
//!     let line = line.unwrap();
//!     if line.contains("\"ev\":\"response\"") {
//!         assert!(line.contains("\"verdict\":\"VERIFIED\""));
//!         break;
//!     }
//! }
//! handle.shutdown();
//! ```
//!
//! [`Governor`]: ccv_observe::Governor
//! [`CancelToken::request_cancel`]: ccv_observe::CancelToken::request_cancel

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod cache;
mod conn;
mod pool;

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ccv_core::api::{
    Action, ApiError, ErrorCode, Request, RunContext, SessionRunner, RESPONSE_SCHEMA,
};
use ccv_observe::{CancelToken, FaultHandle, FaultKind, Json};

use admission::Admission;
use cache::VerdictCache;

/// Verdict-cache shard count.
const CACHE_SHARDS: usize = 8;
/// Upper clamp (and default) for the enumeration state budget.
const MAX_STATES_CAP: usize = 1 << 22;
/// Upper clamp (and default) for the per-run memory budget.
const MAX_BYTES_CAP: u64 = 256 << 20;
/// Upper clamp for the symbolic visit budget.
const MAX_BUDGET: usize = 1 << 24;
/// Largest accepted request document, in bytes.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Tunables of one server instance. [`ServerConfig::default`] is the
/// production shape; [`ServerConfig::loopback`] binds an ephemeral
/// port for tests.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878`. Port `0` binds an
    /// ephemeral port (see [`Server::local_addr`]).
    pub addr: String,
    /// Engine runs allowed to execute concurrently.
    pub workers: usize,
    /// Requests allowed to wait for a worker before new arrivals are
    /// turned away with `busy`.
    pub queue_depth: usize,
    /// Total verdict-cache entries (split across shards).
    pub cache_capacity: usize,
    /// Largest accepted cache count `n`; larger requests are rejected
    /// (`bad_request`), because explicit state spaces grow
    /// exponentially in `n`.
    pub max_n: usize,
    /// Per-request enumeration worker-thread clamp. Requests asking
    /// for more (or for auto-detection via `threads: 0`) get exactly
    /// this many.
    pub max_threads: usize,
    /// Deadline applied to requests that specify none.
    pub default_deadline: Duration,
    /// Upper clamp for client-supplied deadlines.
    pub max_deadline: Duration,
    /// Heartbeat / disconnect-probe interval for NDJSON connections.
    pub ping_interval: Duration,
    /// Allow requests that touch server-side files
    /// (`checkpoint_out` / `resume`). Off by default.
    pub allow_files: bool,
    /// Directory backing the verdict cache across restarts. `None`
    /// (the default) keeps the cache memory-only. Entries in the
    /// directory are reloaded at startup; torn ones are quarantined.
    pub cache_dir: Option<PathBuf>,
    /// The `retry-after` hint attached to BUSY rejections: how long a
    /// well-behaved client should back off before resubmitting.
    pub retry_after: Duration,
    /// Server-side fault injection (tests and drills): drives the
    /// `serve.accept`, `serve.response` and `cache.write` sites.
    /// Disabled by default — the handle is a no-op.
    pub fault: FaultHandle,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            queue_depth: 8,
            cache_capacity: 256,
            max_n: 8,
            max_threads: 4,
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(120),
            ping_interval: Duration::from_millis(200),
            allow_files: false,
            cache_dir: None,
            retry_after: Duration::from_millis(500),
            fault: FaultHandle::disabled(),
        }
    }
}

impl ServerConfig {
    /// A config bound to `127.0.0.1:0` (ephemeral port) — what tests
    /// want.
    pub fn loopback() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        }
    }

    /// Validates a request against the server's caps and returns the
    /// effective request that will actually run: unspecified budgets
    /// filled with server defaults, client budgets clamped to server
    /// maxima, options no body depends on (`trace`, and `threads`
    /// outside enumerate) cleared. This happens *before* the cache
    /// fingerprint is computed, so equal submissions stay equal.
    pub fn admit(&self, req: &Request) -> Result<Request, ApiError> {
        let mut r = req.clone();
        let o = &mut r.options;
        if o.touches_files() && !self.allow_files {
            return Err(ApiError::unsupported(
                "checkpoint_out/resume touch server-side files and are \
                 disabled (start the server with --allow-files to enable them)",
            ));
        }
        if o.n > self.max_n {
            return Err(ApiError::bad_request(format!(
                "n={} exceeds this server's cap of {}",
                o.n, self.max_n
            )));
        }
        // No body carries the trace, nor does `max_bytes` count it;
        // verify and crosscheck ignore `threads`.
        o.record_trace = false;
        if r.action != Action::Enumerate {
            o.threads = 0;
        } else if o.threads == 0 || o.threads > self.max_threads {
            o.threads = self.max_threads;
        }
        o.deadline = Some(
            o.deadline
                .map_or(self.default_deadline, |d| d.min(self.max_deadline)),
        );
        o.max_states = Some(
            o.max_states
                .map_or(MAX_STATES_CAP, |s| s.min(MAX_STATES_CAP)),
        );
        o.max_bytes = Some(o.max_bytes.map_or(MAX_BYTES_CAP, |b| b.min(MAX_BYTES_CAP)));
        if let Some(b) = o.budget {
            o.budget = Some(b.min(MAX_BUDGET));
        }
        Ok(r)
    }
}

/// What one request produced: the rendered response body plus the
/// transport-relevant facts about how it was produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Compact-rendered `ccv-response-v1` body: the `String` the
    /// renderer wrote, never copied. A cacheable miss shares it with
    /// the verdict cache, a hit hands out another reference to the
    /// stored one, and the connection writes it to the socket from
    /// there.
    pub body: Arc<String>,
    /// Served from the verdict cache without running an engine.
    pub cached: bool,
    /// `None` for a successful payload, the error class otherwise.
    pub code: Option<ErrorCode>,
    /// The run was cut short because the client went away.
    pub disconnected: bool,
    /// For BUSY rejections: how many milliseconds the client should
    /// wait before retrying (the HTTP front end renders this as a
    /// `retry-after` header).
    pub retry_after_ms: Option<u64>,
}

/// The protocol-independent server core: parses and validates
/// requests, consults the verdict cache, runs engines under
/// admission control, and keeps the counters `/v1/metrics` reports.
///
/// [`Server`] adds the TCP front end; tests and the fuzz harness call
/// [`Service::process_text`] directly.
pub struct Service {
    config: ServerConfig,
    cache: VerdictCache,
    cache_recovery: Option<cache::DirReport>,
    cache_degraded: Option<String>,
    admission: Admission,
    runners: Mutex<Vec<SessionRunner>>,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    disconnects: AtomicU64,
    connections: pool::Counters,
}

impl Service {
    /// A service with the given tunables. When `cache_dir` is set, persisted verdicts are reloaded here; a
    /// directory that cannot be used degrades the cache to memory-only
    /// (see [`Service::cache_degraded`]) instead of failing startup.
    pub fn new(config: ServerConfig) -> Arc<Service> {
        let mut cache = VerdictCache::new(CACHE_SHARDS, config.cache_capacity);
        let mut cache_recovery = None;
        let mut cache_degraded = None;
        if let Some(dir) = &config.cache_dir {
            match cache.attach_dir(dir, config.fault.clone()) {
                Ok(report) => cache_recovery = Some(report),
                Err(e) => {
                    cache_degraded = Some(format!(
                        "cache directory {} unusable ({e}); verdict cache is memory-only",
                        dir.display()
                    ));
                }
            }
        }
        Arc::new(Service {
            cache,
            cache_recovery,
            cache_degraded,
            admission: Admission::new(config.workers, config.queue_depth),
            runners: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            connections: pool::Counters::new(config.workers, config.queue_depth),
            config,
        })
    }

    /// The tunables this service runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// What reloading the persisted verdict cache found, when a cache
    /// directory is configured and usable.
    pub fn cache_recovery(&self) -> Option<cache::DirReport> {
        self.cache_recovery
    }

    /// Why the verdict cache fell back to memory-only operation, if
    /// it did.
    pub fn cache_degraded(&self) -> Option<&str> {
        self.cache_degraded.as_deref()
    }

    /// Handles one request document: parse, validate, and run.
    /// Malformed text yields a well-formed error outcome.
    pub fn process_text(&self, text: &str, ctx: &RunContext) -> Outcome {
        self.process_text_with(text, ctx, || {})
    }

    /// [`Service::process_text`] with the `on_miss` hook of
    /// [`Service::process_with`].
    pub(crate) fn process_text_with(
        &self,
        text: &str,
        ctx: &RunContext,
        on_miss: impl FnOnce(),
    ) -> Outcome {
        match Request::parse(text) {
            Ok(req) => self.process_with(&req, ctx, on_miss),
            Err(e) => self.reject(None, e),
        }
    }

    /// Handles one parsed request end to end: cap validation, cache
    /// lookup (by source key, then by the resolved protocol's semantic
    /// key), admission, engine run, cache fill.
    pub fn process(&self, req: &Request, ctx: &RunContext) -> Outcome {
        self.process_with(req, ctx, || {})
    }

    /// [`Service::process`], calling `on_miss` once when the request
    /// is headed for an engine: after the cache lookup misses and
    /// before the admission queue. The connection handlers start their
    /// disconnect watchdog there, so cache hits and rejected requests
    /// cost no thread, while a client that vanishes during the queue
    /// wait is still caught.
    pub(crate) fn process_with(
        &self,
        req: &Request,
        ctx: &RunContext,
        on_miss: impl FnOnce(),
    ) -> Outcome {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let action = req.action;
        let effective = match self.config.admit(req) {
            Ok(r) => r,
            Err(e) => return self.rejection(action, e),
        };
        // Fault-injection runs are for testing the failure paths;
        // replaying them from cache would defeat the point.
        let cacheable =
            effective.options.fault_plan.is_none() && !effective.options.touches_files();
        // A repeat of an answered request finds its verdict by the
        // source key alone, without resolving the protocol.
        let source = cacheable.then(|| effective.source_key()).flatten();
        if let Some(body) = source.as_deref().and_then(|s| self.cache.lookup_source(s)) {
            return self.hit(body);
        }
        let spec = match effective.protocol.resolve() {
            Ok(spec) => spec,
            Err(e) => return self.rejection(action, e),
        };
        let seed = effective.semantic_key(&spec);
        if cacheable {
            if let Some(body) = self.cache.lookup(&seed) {
                if let Some(source) = source {
                    self.cache.alias(source, &seed);
                }
                return self.hit(body);
            }
        }
        on_miss();
        let Some(_permit) = self.admission.acquire() else {
            return self.rejection(
                action,
                ApiError::busy(format!(
                    "server at capacity ({} workers busy, {} queued); retry later",
                    self.config.workers, self.config.queue_depth
                ))
                .with_retry_after(self.config.retry_after.as_millis() as u64),
            );
        };
        let mut runner = self
            .runners
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_default();
        let resp = runner.run(&effective, ctx);
        {
            let mut pool = self.runners.lock().unwrap_or_else(|p| p.into_inner());
            if pool.len() < self.config.workers {
                pool.push(runner);
            }
        }
        let disconnected = ctx.cancel.is_disconnected();
        if disconnected {
            self.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        let code = match &resp.result {
            Ok(_) => None,
            Err(e) => Some(e.code),
        };
        match code {
            None => self.ok.fetch_add(1, Ordering::Relaxed),
            Some(_) => self.errors.fetch_add(1, Ordering::Relaxed),
        };
        let conclusive = resp.is_conclusive();
        let body = Arc::new(resp.render_compact());
        // Free the report (its paths are as large as the body) before
        // the body is persisted and written.
        drop(resp);
        if cacheable && !disconnected && conclusive {
            self.cache.insert(&seed, Arc::clone(&body));
            if let Some(source) = source {
                self.cache.alias(source, &seed);
            }
        }
        Outcome {
            body,
            cached: false,
            code,
            disconnected,
            retry_after_ms: None,
        }
    }

    /// The outcome of a request answered from the verdict cache.
    fn hit(&self, body: Arc<String>) -> Outcome {
        self.ok.fetch_add(1, Ordering::Relaxed);
        Outcome {
            body,
            cached: true,
            code: None,
            disconnected: false,
            retry_after_ms: None,
        }
    }

    /// An error outcome for a request that could not even be read
    /// (oversized, unparseable, socket trouble). Counts as a request.
    pub(crate) fn process_text_error(&self, err: ApiError) -> Outcome {
        self.reject(None, err)
    }

    /// An error outcome for a request that never reached an engine.
    /// `action` is `None` when the request didn't even parse.
    fn reject(&self, action: Option<Action>, err: ApiError) -> Outcome {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.rejection_body(action, err)
    }

    /// Like [`Service::reject`] but for requests already counted.
    fn rejection(&self, action: Action, err: ApiError) -> Outcome {
        self.rejection_body(Some(action), err)
    }

    fn rejection_body(&self, action: Option<Action>, err: ApiError) -> Outcome {
        self.errors.fetch_add(1, Ordering::Relaxed);
        let mut fields = vec![("schema".to_string(), Json::str(RESPONSE_SCHEMA))];
        if let Some(action) = action {
            fields.push(("action".to_string(), Json::str(action.name())));
        }
        let retry_after_ms = err.retry_after_ms;
        fields.push(("error".to_string(), err.to_json()));
        Outcome {
            body: Arc::new(Json::Obj(fields).render_compact()),
            cached: false,
            code: Some(err.code),
            disconnected: false,
            retry_after_ms,
        }
    }

    /// Requests cancelled because their client disconnected.
    pub fn disconnects(&self) -> u64 {
        self.disconnects.load(Ordering::Relaxed)
    }

    /// The verdict cache, for counter assertions.
    pub fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    /// The admission gate, for counter assertions.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The `/v1/metrics` document (`ccv-serve-metrics-v1`).
    pub fn metrics_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str("ccv-serve-metrics-v1")),
            (
                "requests".into(),
                Json::int(self.requests.load(Ordering::Relaxed)),
            ),
            ("ok".into(), Json::int(self.ok.load(Ordering::Relaxed))),
            (
                "errors".into(),
                Json::int(self.errors.load(Ordering::Relaxed)),
            ),
            (
                "disconnects".into(),
                Json::int(self.disconnects.load(Ordering::Relaxed)),
            ),
            (
                "admission".into(),
                Json::Obj(vec![
                    ("active".into(), Json::int(self.admission.active() as u64)),
                    ("admitted".into(), Json::int(self.admission.admitted())),
                    ("queued".into(), Json::int(self.admission.queued())),
                    ("busy".into(), Json::int(self.admission.rejected())),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("entries".into(), Json::int(self.cache.len() as u64)),
                    ("hits".into(), Json::int(self.cache.hits())),
                    ("misses".into(), Json::int(self.cache.misses())),
                    ("insertions".into(), Json::int(self.cache.insertions())),
                    ("evictions".into(), Json::int(self.cache.evictions())),
                    (
                        "persist_errors".into(),
                        Json::int(self.cache.persist_errors()),
                    ),
                ]),
            ),
            ("connections".into(), self.connections.json()),
        ])
    }
}

/// How often the accept loop's waker checks the shutdown flags. A
/// blocked `accept` sees no flag, and a signal does not interrupt it
/// (the CLI's handler is installed with `SA_RESTART`, and `accept`
/// retries `EINTR` anyway), so Ctrl-C and SIGTERM take effect within
/// this interval.
const WAKE_POLL: Duration = Duration::from_millis(50);

/// Pause after a failed `accept` (for example `EMFILE`), so a
/// persistent error does not spin the loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// A bound listener plus its [`Service`]. Call [`Server::run`] to
/// serve on the current thread, or [`Server::spawn`] to serve from a
/// background thread (tests).
pub struct Server {
    service: Arc<Service>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured address and prepares the service. The
    /// listener blocks in `accept`; [`Server::run`] is woken for
    /// shutdown by a connection to itself.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        Ok(Server {
            service: Service::new(config),
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle on the server core, for metrics and configuration.
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Accepts connections until the shutdown flag is raised (or the
    /// process-global cancel token trips — Ctrl-C in the CLI), handing
    /// each to a reused handler thread. At most `2 × (workers +
    /// queue_depth)` handlers run; at that cap the loop waits for one
    /// to go idle (see `docs/serve.md`, "Connections"). Engine runs are
    /// bounded by the admission gate, not by this loop.
    ///
    /// The loop blocks in `accept` and checks both flags each time it
    /// returns. [`ServerHandle::shutdown`] wakes it by connecting to
    /// the listener; for the global token, which a signal handler sets,
    /// a waker thread polls both flags every 50 ms and does the same.
    ///
    /// On shutdown the listener closes and in-flight requests drain:
    /// their engine runs are cancelled and answer INCONCLUSIVE, and
    /// `run` returns once every handler has written its response and
    /// exited.
    pub fn run(self) {
        let Server {
            service,
            listener,
            shutdown,
        } = self;
        let stopping =
            move || shutdown.load(Ordering::Acquire) || CancelToken::global().is_stopped();
        let addr = wake_addr(
            listener
                .local_addr()
                .expect("bound listener has a local address"),
        );
        let (exited, exit) = mpsc::channel::<()>();
        // Without a waker a signal takes effect at the next accepted
        // connection; `ServerHandle::shutdown` wakes the loop itself.
        let waker = std::thread::Builder::new()
            .name("ccv-serve-waker".into())
            .spawn({
                let stopping = stopping.clone();
                move || {
                    // Keeps connecting until the loop exits, in case one
                    // connection is lost (a full backlog, say).
                    while let Err(RecvTimeoutError::Timeout) = exit.recv_timeout(WAKE_POLL) {
                        if stopping() {
                            let _ = TcpStream::connect(addr);
                        }
                    }
                }
            })
            .ok();
        let handlers = pool::Pool::new(Arc::clone(&service));
        loop {
            let accepted = listener.accept();
            if stopping() {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    service.connections.accepted();
                    // Injected accept faults model a connection that
                    // dies between accept and first byte: drop it on
                    // the floor and keep serving.
                    if matches!(
                        service.config.fault.fire("serve.accept"),
                        Some(FaultKind::Disconnect | FaultKind::IoError)
                    ) {
                        continue;
                    }
                    handlers.dispatch(stream, &stopping);
                }
                Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }
        drop(exited);
        // New connections are refused from here, not left unanswered
        // in the backlog while the handlers drain.
        drop(listener);
        if let Some(waker) = waker {
            let _ = waker.join();
        }
        handlers.drain();
    }

    /// Runs the accept loop on a background thread and returns a
    /// handle that shuts it down on [`ServerHandle::shutdown`] or
    /// drop.
    pub fn spawn(self) -> ServerHandle {
        let addr = self
            .local_addr()
            .expect("bound listener has a local address");
        let service = self.service();
        let shutdown = Arc::clone(&self.shutdown);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            service,
            shutdown,
            thread: Some(thread),
        }
    }
}

/// Where to connect to reach a listener bound to `addr`: a wildcard
/// bind (`0.0.0.0`, `::`) is reached through loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A running background server (from [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server core, for metrics and counters.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting and joins the accept loop, which returns once
    /// in-flight requests have drained (see [`Server::run`]).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // Wake the blocked accept. Should this connect fail, the
            // loop's waker retries within `WAKE_POLL`.
            let _ = TcpStream::connect(wake_addr(self.addr));
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccv_core::api::ProtocolSource;

    fn service() -> Arc<Service> {
        Service::new(ServerConfig::loopback())
    }

    #[test]
    fn verify_request_round_trips_through_the_service() {
        let s = service();
        let req = Request::verify(ProtocolSource::Name("illinois".into()));
        let out = s.process(&req, &RunContext::default());
        assert_eq!(out.code, None);
        assert!(!out.cached);
        assert!(out.body.contains("\"verdict\":\"VERIFIED\""));
        let doc = Json::parse(&out.body).expect("body is valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(RESPONSE_SCHEMA));
    }

    #[test]
    fn crosscheck_past_its_state_budget_is_an_uncached_inconclusive_body() {
        let s = service();
        let text = r#"{"schema":"ccv-request-v1","action":"crosscheck","protocol":{"name":"illinois"},"options":{"n":4,"max_states":3}}"#;
        for _ in 0..2 {
            let out = s.process_text(text, &RunContext::default());
            assert_eq!(out.code, None, "{}", out.body);
            assert!(!out.cached, "an inconclusive body is never cached");
            let doc = Json::parse(&out.body).expect("body is valid JSON");
            assert_eq!(doc.get("complete"), Some(&Json::Bool(false)));
            let stop = doc.get("stop").expect("stop object");
            assert_eq!(
                stop.get("cause").and_then(Json::as_str),
                Some("budget_exhausted")
            );
            assert_eq!(
                stop.get("detail").and_then(Json::as_str),
                Some("reachable set exceeded 3 states")
            );
        }
        assert_eq!(s.cache().hits(), 0);
    }

    #[test]
    fn crosscheck_past_its_deadline_stops_promptly_and_is_never_cached() {
        let s = service();
        let text = r#"{"schema":"ccv-request-v1","action":"crosscheck","protocol":{"name":"split-mesi"},"options":{"n":8,"exact":true,"deadline_ms":1}}"#;
        for _ in 0..2 {
            let started = std::time::Instant::now();
            let out = s.process_text(text, &RunContext::default());
            let took = started.elapsed();
            assert!(took < Duration::from_millis(500), "took {took:?}");
            assert_eq!(out.code, None, "{}", out.body);
            assert!(!out.cached, "an inconclusive body is never cached");
            let doc = Json::parse(&out.body).expect("body is valid JSON");
            assert_eq!(doc.get("complete"), Some(&Json::Bool(false)));
            let stop = doc.get("stop").expect("stop object");
            assert_eq!(
                stop.get("cause").and_then(Json::as_str),
                Some("deadline_expired")
            );
        }
        assert_eq!(s.cache().hits(), 0);
    }

    #[test]
    fn second_identical_submission_is_a_byte_identical_cache_hit() {
        let s = service();
        let req = Request::verify(ProtocolSource::Name("illinois".into()));
        let first = s.process(&req, &RunContext::default());
        let second = s.process(&req, &RunContext::default());
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(first.body, second.body);
        assert_eq!(s.cache().hits(), 1);
        // A protocol submitted as DSL text canonicalises to the same
        // fingerprint as its library name.
        let dsl = ccv_model::dsl::to_dsl(&ccv_model::protocols::illinois());
        let by_dsl = s.process(
            &Request::verify(ProtocolSource::Dsl(dsl)),
            &RunContext::default(),
        );
        assert!(by_dsl.cached);
        assert_eq!(by_dsl.body, first.body);
    }

    /// Illinois three ways: by name, as the checked-in file, and as
    /// that file with a comment and extra whitespace.
    fn illinois_sources() -> [ProtocolSource; 3] {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../protocols/illinois.ccv");
        let file = std::fs::read_to_string(path).expect("corpus file");
        let padded = format!(
            "# the same protocol, padded\n\n{}\n\n",
            file.replace(';', " ;")
        );
        [
            ProtocolSource::Name("illinois".into()),
            ProtocolSource::Dsl(file),
            ProtocolSource::Dsl(padded),
        ]
    }

    #[test]
    fn every_spelling_of_a_protocol_is_one_engine_run_then_hits() {
        let s = service();
        let ctx = RunContext::default();
        let reqs = illinois_sources().map(Request::verify);
        let first = s.process(&reqs[0], &ctx);
        assert!(!first.cached);
        // The first request of each other spelling resolves to the
        // same semantic key and hits; every later one hits by source.
        for round in 0..3 {
            for req in &reqs {
                let out = s.process(req, &ctx);
                assert!(out.cached, "round {round}: {:?}", req.protocol);
                assert_eq!(out.body, first.body);
            }
        }
        assert_eq!(s.admission().admitted(), 1, "one engine run");
        assert_eq!((s.cache().hits(), s.cache().misses()), (9, 1));
        assert_eq!(s.cache().insertions(), 1);
    }

    #[test]
    fn trace_and_threads_reuse_the_plain_request_alias() {
        let s = service();
        let ctx = RunContext::default();
        let [_, file, _] = illinois_sources();
        let plain = Request::verify(file);
        let mut traced = plain.clone();
        traced.options.record_trace = true;
        traced.options.threads = 1;
        let wire = traced.to_json().render_compact();
        assert!(wire.contains("\"trace\":true") && wire.contains("\"threads\":1"));
        let first = s.process(&plain, &ctx);
        assert!(!first.cached);
        // Aliases are built from admitted options, which clear both:
        // the traced request's source key is the plain one's.
        let source = |r: &Request| s.config().admit(r).unwrap().source_key().unwrap();
        assert_eq!(source(&traced), source(&plain));
        assert!(s.cache().lookup_source(&source(&traced)).is_some());
        let again = s.process_text(&wire, &ctx);
        assert!(again.cached);
        assert_eq!(again.body, first.body);
        assert_eq!(s.admission().admitted(), 1);
    }

    #[test]
    fn a_dangling_alias_falls_through_and_never_serves_another_body() {
        let s = Service::new(ServerConfig {
            cache_capacity: 1,
            ..ServerConfig::loopback()
        });
        let ctx = RunContext::default();
        let a = Request::verify(ProtocolSource::Name("illinois".into()));
        // Capacity 1 is one entry per shard: B is the first library
        // protocol whose verdict lands in A's shard.
        let shard = |req: &Request, spec: &ccv_model::ProtocolSpec| {
            let seed = s.config().admit(req).unwrap().semantic_key(spec);
            cache::key_hash(&seed) as usize % CACHE_SHARDS
        };
        let a_shard = shard(&a, &ccv_model::protocols::illinois());
        let library = ccv_model::protocols::all_correct().into_iter();
        let b = library
            .chain(
                ccv_model::protocols::all_buggy()
                    .into_iter()
                    .map(|(p, _)| p),
            )
            .filter(|spec| spec.name() != "Illinois")
            .find_map(|spec| {
                let b = Request::verify(ProtocolSource::Dsl(ccv_model::dsl::to_dsl(&spec)));
                (shard(&b, &spec) == a_shard).then_some(b)
            })
            .expect("some library protocol shares A's shard");
        let first_a = s.process(&a, &ctx);
        let first_b = s.process(&b, &ctx);
        assert!(!first_a.cached && !first_b.cached);
        assert_eq!(s.cache().evictions(), 1);
        assert_ne!(first_a.body, first_b.body);
        // A's alias names an evicted entry: A is recomputed, correctly.
        let runs = s.admission().admitted();
        let again = s.process(&a, &ctx);
        assert!(!again.cached, "an evicted verdict is recomputed");
        assert_eq!(again.body, first_a.body);
        assert_eq!(s.admission().admitted(), runs + 1);
        // ...and A is an alias again: its repeat hits, while B's
        // alias now dangles in turn.
        let repeat = s.process(&a, &ctx);
        assert!(repeat.cached);
        assert_eq!(repeat.body, first_a.body);
        let b_again = s.process(&b, &ctx);
        assert!(!b_again.cached);
        assert_eq!(b_again.body, first_b.body);
        let requests = s.requests.load(Ordering::Relaxed);
        assert_eq!(s.cache().hits() + s.cache().misses(), requests);
    }

    #[test]
    fn persisted_entries_are_semantic_and_a_restart_answers_dsl() {
        let dir = std::env::temp_dir().join(format!("ccv-serve-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::loopback()
        };
        let reqs = illinois_sources().map(Request::verify);
        let ctx = RunContext::default();
        let first = {
            let s = Service::new(cfg.clone());
            let first = s.process(&reqs[0], &ctx);
            for req in reqs.iter().chain(&reqs) {
                assert!(s.process(req, &ctx).cached);
            }
            assert_eq!(s.cache().insertions(), 1);
            first
        };
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1, "one file per semantic entry: {files:?}");
        let text = std::fs::read_to_string(&files[0]).unwrap();
        assert!(text.contains(cache::CACHE_ENTRY_SCHEMA));
        assert!(!text.contains("name:illinois"), "no alias is persisted");

        // A restarted service has no aliases; its first DSL request
        // resolves, hits the reloaded entry and records one.
        let s = Service::new(cfg);
        assert_eq!(s.cache_recovery().map(|r| r.loaded), Some(1));
        let [_, file, _] = illinois_sources();
        let admitted = s.config().admit(&Request::verify(file.clone())).unwrap();
        let source = admitted.source_key().unwrap();
        assert_eq!(s.cache().lookup_source(&source), None);
        for _ in 0..2 {
            let out = s.process(&Request::verify(file.clone()), &ctx);
            assert!(out.cached);
            assert_eq!(out.body, first.body);
        }
        assert_eq!(s.admission().admitted(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_text_yields_a_well_formed_error_body() {
        let s = service();
        for text in ["", "not json", "{\"schema\":\"nope\"}", "{\"unterminated"] {
            let out = s.process_text(text, &RunContext::default());
            assert_eq!(out.code, Some(ErrorCode::BadRequest), "{text:?}");
            let doc = Json::parse(&out.body).expect("error body is valid JSON");
            assert!(doc.get("error").is_some(), "{text:?}");
        }
    }

    #[test]
    fn server_caps_reject_oversized_n_and_file_options() {
        let s = service();
        let big = Request::enumerate(ProtocolSource::Name("illinois".into()), 99);
        let out = s.process(&big, &RunContext::default());
        assert_eq!(out.code, Some(ErrorCode::BadRequest));
        assert!(out.body.contains("exceeds this server's cap"));

        let mut with_files = Request::enumerate(ProtocolSource::Name("illinois".into()), 3);
        with_files.options.checkpoint_out = Some("/tmp/x.ccvk".into());
        let out = s.process(&with_files, &RunContext::default());
        assert_eq!(out.code, Some(ErrorCode::Unsupported));
        assert!(out.body.contains("checkpoint_out/resume"), "{}", out.body);
    }

    #[test]
    fn over_budget_request_is_inconclusive_not_fatal() {
        let s = service();
        let mut req = Request::verify(ProtocolSource::Name("illinois".into()));
        req.options.budget = Some(3);
        let out = s.process(&req, &RunContext::default());
        assert_eq!(out.code, None);
        assert!(out.body.contains("\"verdict\":\"INCONCLUSIVE\""));
        // Inconclusive results must not poison the cache.
        let again = s.process(&req, &RunContext::default());
        assert!(!again.cached);
    }

    #[test]
    fn busy_rejection_carries_a_retry_after_hint() {
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 0,
            ..ServerConfig::loopback()
        };
        let s = Service::new(cfg);
        let _held = s.admission().acquire().expect("empty pool admits");
        let req = Request::verify(ProtocolSource::Name("illinois".into()));
        let out = s.process(&req, &RunContext::default());
        assert_eq!(out.code, Some(ErrorCode::Busy));
        assert_eq!(out.retry_after_ms, Some(500));
        assert!(out.body.contains("\"retry_after_ms\":500"), "{}", out.body);
    }

    /// Runs `text` through the hooked path and counts `on_miss` calls.
    fn on_miss_calls(s: &Service, text: &str) -> (Outcome, usize) {
        let mut calls = 0;
        let out = s.process_text_with(text, &RunContext::default(), || calls += 1);
        (out, calls)
    }

    #[test]
    fn on_miss_fires_once_for_each_request_headed_for_an_engine() {
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 0,
            ..ServerConfig::loopback()
        };
        let s = Service::new(cfg);
        let verify = Request::verify(ProtocolSource::Name("illinois".into()))
            .to_json()
            .render_compact();

        // A miss that the full admission gate turns away still fired
        // the hook: the watchdog must exist before the queue wait.
        let held = s.admission().acquire().expect("empty pool admits");
        let (out, calls) = on_miss_calls(&s, &verify);
        assert_eq!((out.code, calls), (Some(ErrorCode::Busy), 1));
        drop(held);

        let (out, calls) = on_miss_calls(&s, &verify);
        assert_eq!((out.code, out.cached, calls), (None, false, 1));
        let (out, calls) = on_miss_calls(&s, &verify);
        assert_eq!(
            (out.cached, calls),
            (true, 0),
            "a cache hit starts no watchdog"
        );

        let mut with_files = Request::enumerate(ProtocolSource::Name("illinois".into()), 3);
        with_files.options.checkpoint_out = Some("/tmp/x.ccvk".into());
        let bad_dsl = Request::verify(ProtocolSource::Dsl("protocol nonsense {".into()));
        for (case, text, code) in [
            (
                "unparseable text",
                "not json".to_string(),
                Some(ErrorCode::BadRequest),
            ),
            (
                "n above max_n",
                Request::enumerate(ProtocolSource::Name("illinois".into()), 99)
                    .to_json()
                    .render_compact(),
                Some(ErrorCode::BadRequest),
            ),
            (
                "checkpoint_out without allow_files",
                with_files.to_json().render_compact(),
                Some(ErrorCode::Unsupported),
            ),
            (
                "unresolvable DSL",
                bad_dsl.to_json().render_compact(),
                Some(ErrorCode::BadProtocol),
            ),
        ] {
            let (out, calls) = on_miss_calls(&s, &text);
            assert_eq!(out.code, code, "{case}: {}", out.body);
            assert_eq!(calls, 0, "{case} must not start a watchdog");
        }
    }

    #[test]
    fn fault_plan_requests_bypass_the_cache() {
        let s = service();
        let mut req = Request::enumerate(ProtocolSource::Name("illinois".into()), 3);
        req.options.fault_plan = Some("enum.worker:slow@1".into());
        let first = s.process(&req, &RunContext::default());
        assert_eq!(first.code, None);
        let again = s.process(&req, &RunContext::default());
        assert!(
            !again.cached,
            "fault-plan runs must never replay from cache"
        );
    }

    #[test]
    fn cache_dir_survives_a_service_restart_byte_identically() {
        let dir = std::env::temp_dir().join(format!("ccv-serve-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::loopback()
        };
        let req = Request::verify(ProtocolSource::Name("dragon".into()));
        let first = {
            let s = Service::new(cfg.clone());
            s.process(&req, &RunContext::default())
        };
        assert_eq!(first.code, None);
        let s = Service::new(cfg);
        let recovery = s.cache_recovery().expect("cache dir attached");
        assert_eq!((recovery.loaded, recovery.quarantined), (1, 0));
        let replay = s.process(&req, &RunContext::default());
        assert!(replay.cached, "restart must replay the persisted verdict");
        assert_eq!(replay.body, first.body, "replay must be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_cache_dir_degrades_to_memory_only() {
        let file = std::env::temp_dir().join(format!("ccv-serve-notdir-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let cfg = ServerConfig {
            cache_dir: Some(file.clone()),
            ..ServerConfig::loopback()
        };
        let s = Service::new(cfg);
        assert!(s.cache_degraded().is_some(), "degradation must be reported");
        // The service still works, memory-only.
        let req = Request::verify(ProtocolSource::Name("illinois".into()));
        let out = s.process(&req, &RunContext::default());
        assert_eq!(out.code, None);
        assert!(s.process(&req, &RunContext::default()).cached);
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn metrics_json_carries_all_counter_groups() {
        let s = service();
        let req = Request::verify(ProtocolSource::Name("illinois".into()));
        s.process(&req, &RunContext::default());
        s.process(&req, &RunContext::default());
        let m = s.metrics_json();
        assert_eq!(
            m.get("schema").unwrap().as_str(),
            Some("ccv-serve-metrics-v1")
        );
        assert_eq!(m.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(m.get("ok").unwrap().as_u64(), Some(2));
        let cache = m.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("entries").unwrap().as_u64(), Some(1));
        let admission = m.get("admission").unwrap();
        assert_eq!(admission.get("admitted").unwrap().as_u64(), Some(1));
    }
}
