//! The unified verification API: one versioned request/response
//! schema shared by the CLI subcommands, the `ccv serve` wire
//! protocol and the test harnesses.
//!
//! A [`Request`] names an [`Action`] (verify / enumerate /
//! crosscheck), a [`ProtocolSource`] and the engine options that are
//! meaningful over a wire ([`RequestOptions`]); a [`Response`] carries
//! either the action's typed payload or a well-formed [`ApiError`].
//! Both round-trip through the dependency-free
//! [`Json`] value as the `ccv-request-v1` /
//! `ccv-response-v1` schemas, so the CLI, the server and remote
//! clients speak the same language — and every engine capability
//! (budgets, deadlines, rule stats, checkpointing, essential-state
//! export) is reachable through this single surface.
//!
//! Runtime concerns that must not travel over a wire — the
//! cancellation token and the observability sink — ride in a
//! [`RunContext`] beside the request.
//!
//! [`SessionRunner::run`] serves every action: verify through this
//! crate's symbolic engine, enumerate through `ccv-enum`'s sequential
//! or work-stealing enumerator, and crosscheck through
//! [`crosscheck`](mod@crate::crosscheck).
//!
//! ```
//! use ccv_core::api::{Payload, ProtocolSource, Request, RunContext, SessionRunner};
//!
//! let req = Request::verify(ProtocolSource::Name("illinois".into()));
//! let resp = SessionRunner::new().run(&req, &RunContext::default());
//! match resp.result {
//!     Ok(Payload::Verify(v)) => assert_eq!(v.report.num_essential(), 5),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```
//!
//! Everything that would *panic* in the enumerators (cache counts
//! outside the packed encoding, protocols with too many states) is
//! validated first and reported as a well-formed `bad_request` error —
//! a daemon serving untrusted requests must never fall over.

use std::path::Path;
use std::time::Duration;

use crate::composite::Composite;
use crate::crosscheck::{crosscheck_enumerated, CrossCheck};
use crate::engine::{expand_with, EngineScratch, Options, PathWriter, Pruning};
use crate::verify::{verify_with_scratch, Outcome, Verdict, VerificationReport};
use ccv_enum::{
    enumerate_parallel_resumed, enumerate_resumed, Checkpoint, EnumOptions, SpillConfig, MAX_CACHES,
};
use ccv_model::ProtocolSpec;
use ccv_observe::json::escape_into;
use ccv_observe::{CancelToken, CommonOptions, Json, SinkHandle, StopInfo};

/// Schema identifier stamped on every serialized request.
pub const REQUEST_SCHEMA: &str = "ccv-request-v1";
/// Schema identifier stamped on every serialized response.
pub const RESPONSE_SCHEMA: &str = "ccv-response-v1";

/// What a request asks the engines to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// Symbolic verification for any number of caches.
    Verify,
    /// Explicit-state enumeration at a fixed cache count.
    Enumerate,
    /// Theorem 1 crosscheck: enumerate and test symbolic coverage.
    Crosscheck,
}

impl Action {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Action::Verify => "verify",
            Action::Enumerate => "enumerate",
            Action::Crosscheck => "crosscheck",
        }
    }

    /// Parses a wire name back into an action.
    pub fn from_name(name: &str) -> Option<Action> {
        Some(match name {
            "verify" => Action::Verify,
            "enumerate" => Action::Enumerate,
            "crosscheck" => Action::Crosscheck,
            _ => return None,
        })
    }
}

/// Where the protocol under test comes from.
// `Spec` carries the spec's inline kernel tables; a source is built
// once per request and never stored in bulk, so it stays unboxed.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ProtocolSource {
    /// A library protocol name (`illinois`, `msi`, a buggy mutant…).
    Name(String),
    /// Inline `.ccv` DSL source text.
    Dsl(String),
    /// An already-resolved spec (local callers only; serializes as
    /// its canonical DSL rendering).
    Spec(ProtocolSpec),
}

impl ProtocolSource {
    /// Resolves the source to a [`ProtocolSpec`], or a `bad_protocol`
    /// error naming what went wrong.
    pub fn resolve(&self) -> Result<ProtocolSpec, ApiError> {
        match self {
            ProtocolSource::Name(name) => ccv_model::protocols::by_name(name).ok_or_else(|| {
                ApiError::bad_protocol(format!("unknown protocol '{name}' (try `ccv list`)"))
            }),
            ProtocolSource::Dsl(text) => ccv_model::dsl::parse_protocol(text)
                .map_err(|e| ApiError::bad_protocol(format!("dsl:{e}"))),
            ProtocolSource::Spec(spec) => Ok(spec.clone()),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            ProtocolSource::Name(name) => Json::Obj(vec![("name".into(), Json::str(name.clone()))]),
            ProtocolSource::Dsl(text) => Json::Obj(vec![("dsl".into(), Json::str(text.clone()))]),
            ProtocolSource::Spec(spec) => Json::Obj(vec![(
                "dsl".into(),
                Json::str(ccv_model::dsl::to_dsl(spec)),
            )]),
        }
    }

    fn from_json(j: &Json) -> Result<ProtocolSource, ApiError> {
        let fields = match j {
            Json::Obj(fields) => fields,
            _ => return Err(ApiError::bad_request("'protocol' must be an object")),
        };
        if fields.len() != 1 {
            return Err(ApiError::bad_request(
                "'protocol' must have exactly one of 'name' or 'dsl'",
            ));
        }
        let (key, value) = &fields[0];
        let text = value
            .as_str()
            .ok_or_else(|| ApiError::bad_request(format!("'protocol.{key}' must be a string")))?;
        match key.as_str() {
            "name" => Ok(ProtocolSource::Name(text.to_string())),
            "dsl" => Ok(ProtocolSource::Dsl(text.to_string())),
            other => Err(ApiError::bad_request(format!(
                "unknown protocol source '{other}' (expected 'name' or 'dsl')"
            ))),
        }
    }
}

/// Engine options meaningful on a request. Every field has a default,
/// so a wire request states only what it overrides. Fields irrelevant
/// to the request's action are ignored by the runner.
#[derive(Clone, Debug)]
pub struct RequestOptions {
    /// Pruning discipline for symbolic verification.
    pub pruning: Pruning,
    /// Record every expansion step (verify).
    pub record_trace: bool,
    /// Collect per-rule attribution (needs a sink to report into).
    pub rule_stats: bool,
    /// Stop at the first violation found.
    pub stop_at_first_error: bool,
    /// Visit budget for verification (`None` = engine default).
    pub budget: Option<usize>,
    /// Wall-clock deadline; past it the run stops inconclusively.
    pub deadline: Option<Duration>,
    /// Approximate memory cap in bytes.
    pub max_bytes: Option<u64>,
    /// Cache count for enumerate / crosscheck.
    pub n: usize,
    /// Exact-duplicate pruning instead of counting equivalence.
    pub exact: bool,
    /// Worker threads for enumerate; 0 = one per available core.
    /// Verify and crosscheck accept the field but ignore it: the
    /// symbolic engine and the crosscheck's enumeration leg are
    /// sequential.
    pub threads: usize,
    /// Distinct-state cap for enumerate and for the crosscheck's
    /// enumeration leg. It counts what the enumerator claims:
    /// representatives of permutation orbits, or concrete tuples
    /// when `exact` is set.
    pub max_states: Option<usize>,
    /// Write a resumable checkpoint here if the run stops early
    /// (server deployments may refuse file-touching options).
    pub checkpoint_out: Option<String>,
    /// Resume an enumeration from this checkpoint file.
    pub resume: Option<String>,
    /// Directory for the enumerator's spill-to-disk visited table;
    /// unset keeps the table fully in RAM. Spill runs are routed to
    /// the sequential enumeration engine.
    pub spill_dir: Option<String>,
    /// Total resident bytes the spill table holds before shards are
    /// flushed to disk segments (`None` = backend default of 256 MiB;
    /// only meaningful with `spill_dir`).
    pub spill_threshold: Option<u64>,
    /// Deterministic fault-injection plan for the run, in the
    /// [`ccv_observe::fault`] spec grammar
    /// (`site:kind[@after][xtimes],…`). Robustness testing only:
    /// responses produced under a plan are never cached.
    pub fault_plan: Option<String>,
}

impl Default for RequestOptions {
    fn default() -> RequestOptions {
        RequestOptions {
            pruning: Pruning::Containment,
            record_trace: false,
            rule_stats: false,
            stop_at_first_error: false,
            budget: None,
            deadline: None,
            max_bytes: None,
            n: 4,
            exact: false,
            threads: 0,
            max_states: None,
            checkpoint_out: None,
            resume: None,
            spill_dir: None,
            spill_threshold: None,
            fault_plan: None,
        }
    }
}

impl RequestOptions {
    /// True if the request asks for anything that reads or writes
    /// server-local files — refused by daemons serving remote clients.
    pub fn touches_files(&self) -> bool {
        self.checkpoint_out.is_some() || self.resume.is_some() || self.spill_dir.is_some()
    }

    fn to_json(&self) -> Json {
        let d = RequestOptions::default();
        let mut fields: Vec<(String, Json)> = Vec::new();
        if self.pruning != d.pruning {
            fields.push(("pruning".into(), Json::str("equality")));
        }
        if self.record_trace {
            fields.push(("trace".into(), Json::Bool(true)));
        }
        if self.rule_stats {
            fields.push(("rule_stats".into(), Json::Bool(true)));
        }
        if self.stop_at_first_error {
            fields.push(("stop_at_first_error".into(), Json::Bool(true)));
        }
        if let Some(b) = self.budget {
            fields.push(("budget".into(), Json::int(b as u64)));
        }
        if let Some(dl) = self.deadline {
            fields.push(("deadline_ms".into(), Json::Num(dl.as_secs_f64() * 1000.0)));
        }
        if let Some(mb) = self.max_bytes {
            fields.push(("max_bytes".into(), Json::int(mb)));
        }
        if self.n != d.n {
            fields.push(("n".into(), Json::int(self.n as u64)));
        }
        if self.exact {
            fields.push(("exact".into(), Json::Bool(true)));
        }
        if self.threads != d.threads {
            fields.push(("threads".into(), Json::int(self.threads as u64)));
        }
        if let Some(m) = self.max_states {
            fields.push(("max_states".into(), Json::int(m as u64)));
        }
        if let Some(p) = &self.checkpoint_out {
            fields.push(("checkpoint_out".into(), Json::str(p.clone())));
        }
        if let Some(p) = &self.resume {
            fields.push(("resume".into(), Json::str(p.clone())));
        }
        if let Some(p) = &self.spill_dir {
            fields.push(("spill_dir".into(), Json::str(p.clone())));
        }
        if let Some(t) = self.spill_threshold {
            fields.push(("spill_threshold".into(), Json::int(t)));
        }
        if let Some(p) = &self.fault_plan {
            fields.push(("fault_plan".into(), Json::str(p.clone())));
        }
        Json::Obj(fields)
    }

    fn from_json(j: &Json) -> Result<RequestOptions, ApiError> {
        let fields = match j {
            Json::Obj(fields) => fields,
            _ => return Err(ApiError::bad_request("'options' must be an object")),
        };
        let mut opts = RequestOptions::default();
        for (key, value) in fields {
            match key.as_str() {
                "pruning" => {
                    opts.pruning = match value.as_str() {
                        Some("containment") => Pruning::Containment,
                        Some("equality") => Pruning::Equality,
                        _ => {
                            return Err(ApiError::bad_request(
                                "'options.pruning' must be 'containment' or 'equality'",
                            ))
                        }
                    }
                }
                "trace" => opts.record_trace = expect_bool(key, value)?,
                "rule_stats" => opts.rule_stats = expect_bool(key, value)?,
                "stop_at_first_error" => opts.stop_at_first_error = expect_bool(key, value)?,
                "budget" => opts.budget = Some(expect_uint(key, value)? as usize),
                "deadline_ms" => {
                    let ms = value.as_f64().filter(|ms| ms.is_finite() && *ms >= 0.0);
                    match ms {
                        Some(ms) => {
                            opts.deadline = Some(Duration::from_secs_f64(ms / 1000.0));
                        }
                        None => {
                            return Err(ApiError::bad_request(
                                "'options.deadline_ms' must be a non-negative number",
                            ))
                        }
                    }
                }
                "max_bytes" => opts.max_bytes = Some(expect_uint(key, value)?),
                "n" => opts.n = expect_uint(key, value)? as usize,
                "exact" => opts.exact = expect_bool(key, value)?,
                "threads" => opts.threads = expect_uint(key, value)? as usize,
                "max_states" => opts.max_states = Some(expect_uint(key, value)? as usize),
                "checkpoint_out" => opts.checkpoint_out = Some(expect_str(key, value)?),
                "resume" => opts.resume = Some(expect_str(key, value)?),
                "spill_dir" => opts.spill_dir = Some(expect_str(key, value)?),
                "spill_threshold" => opts.spill_threshold = Some(expect_uint(key, value)?),
                "fault_plan" => opts.fault_plan = Some(expect_str(key, value)?),
                other => {
                    return Err(ApiError::bad_request(format!("unknown option '{other}'")));
                }
            }
        }
        Ok(opts)
    }
}

fn expect_bool(key: &str, value: &Json) -> Result<bool, ApiError> {
    match value {
        Json::Bool(b) => Ok(*b),
        _ => Err(ApiError::bad_request(format!(
            "'options.{key}' must be a boolean"
        ))),
    }
}

fn expect_uint(key: &str, value: &Json) -> Result<u64, ApiError> {
    value.as_u64().ok_or_else(|| {
        ApiError::bad_request(format!("'options.{key}' must be a non-negative integer"))
    })
}

fn expect_str(key: &str, value: &Json) -> Result<String, ApiError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ApiError::bad_request(format!("'options.{key}' must be a string")))
}

/// One unit of work for the unified runner: an action, a protocol and
/// the options. The single entry point behind `ccv verify`,
/// `ccv enumerate`, `ccv crosscheck` and every `ccv serve` request.
#[derive(Clone, Debug)]
pub struct Request {
    /// What to do.
    pub action: Action,
    /// The protocol under test.
    pub protocol: ProtocolSource,
    /// Engine options.
    pub options: RequestOptions,
    /// Ask a streaming endpoint (`ccv serve` NDJSON mode) to forward
    /// progress events before the response. Transport-level: does not
    /// affect the result and is excluded from [`Request::semantic_key`].
    pub stream: bool,
}

impl Request {
    /// A verify request with default options.
    pub fn verify(protocol: ProtocolSource) -> Request {
        Request {
            action: Action::Verify,
            protocol,
            options: RequestOptions::default(),
            stream: false,
        }
    }

    /// An enumerate request at cache count `n`.
    pub fn enumerate(protocol: ProtocolSource, n: usize) -> Request {
        Request {
            action: Action::Enumerate,
            protocol,
            options: RequestOptions {
                n,
                ..RequestOptions::default()
            },
            stream: false,
        }
    }

    /// A crosscheck request at cache count `n`.
    pub fn crosscheck(protocol: ProtocolSource, n: usize) -> Request {
        Request {
            action: Action::Crosscheck,
            protocol,
            options: RequestOptions {
                n,
                ..RequestOptions::default()
            },
            stream: false,
        }
    }

    /// Replaces the options wholesale (chainable).
    pub fn options(mut self, options: RequestOptions) -> Request {
        self.options = options;
        self
    }

    /// Serializes as a `ccv-request-v1` object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".into(), Json::str(REQUEST_SCHEMA)),
            ("action".into(), Json::str(self.action.name())),
            ("protocol".into(), self.protocol.to_json()),
            ("options".into(), self.options.to_json()),
        ];
        if self.stream {
            fields.push(("stream".into(), Json::Bool(true)));
        }
        Json::Obj(fields)
    }

    /// Deserializes a `ccv-request-v1` object, rejecting unknown
    /// fields, wrong types and schema mismatches with `bad_request`.
    pub fn from_json(j: &Json) -> Result<Request, ApiError> {
        let fields = match j {
            Json::Obj(fields) => fields,
            _ => return Err(ApiError::bad_request("request must be a JSON object")),
        };
        let mut action = None;
        let mut protocol = None;
        let mut options = None;
        let mut schema = None;
        let mut stream = false;
        for (key, value) in fields {
            match key.as_str() {
                "schema" => schema = value.as_str(),
                "stream" => stream = expect_bool("stream", value)?,
                "action" => {
                    action = Some(value.as_str().and_then(Action::from_name).ok_or_else(|| {
                        ApiError::bad_request(
                            "'action' must be 'verify', 'enumerate' or 'crosscheck'",
                        )
                    })?)
                }
                "protocol" => protocol = Some(ProtocolSource::from_json(value)?),
                "options" => options = Some(RequestOptions::from_json(value)?),
                other => {
                    return Err(ApiError::bad_request(format!(
                        "unknown request field '{other}'"
                    )));
                }
            }
        }
        match schema {
            Some(REQUEST_SCHEMA) => {}
            Some(other) => {
                return Err(ApiError::bad_request(format!(
                    "unsupported schema '{other}' (expected '{REQUEST_SCHEMA}')"
                )));
            }
            None => return Err(ApiError::bad_request("missing 'schema' field")),
        }
        Ok(Request {
            action: action.ok_or_else(|| ApiError::bad_request("missing 'action' field"))?,
            protocol: protocol.ok_or_else(|| ApiError::bad_request("missing 'protocol' field"))?,
            options: options.unwrap_or_default(),
            stream,
        })
    }

    /// Parses request text (one JSON object) into a request.
    pub fn parse(text: &str) -> Result<Request, ApiError> {
        let j = Json::parse(text).map_err(ApiError::bad_request)?;
        Request::from_json(&j)
    }

    /// A deterministic fingerprint of everything that can influence
    /// the response body: the action, the semantically relevant
    /// options and the protocol's canonical DSL rendering. Two
    /// requests with equal fingerprints produce interchangeable
    /// responses — the identity the `ccv serve` verdict cache hashes.
    pub fn semantic_key(&self, spec: &ProtocolSpec) -> String {
        let dsl = ccv_model::dsl::to_dsl(spec);
        let mut key = String::with_capacity(KEY_HEAD_CAPACITY + dsl.len());
        self.write_key_head(&mut key);
        key.push_str(&dsl);
        key
    }

    /// The request as submitted, before its protocol is resolved: the
    /// action and options [`Request::semantic_key`] holds, then the
    /// source verbatim (`name:<name>` or `dsl:<text>`). The semantic
    /// expansion is deterministic, so equal source keys have equal
    /// semantic keys within one build; `ccv serve` maps one to the
    /// other to answer a repeat without resolving its protocol.
    /// `None` for [`ProtocolSource::Spec`], which has no source text.
    pub fn source_key(&self) -> Option<String> {
        let (tag, text) = match &self.protocol {
            ProtocolSource::Name(name) => ("name:", name),
            ProtocolSource::Dsl(text) => ("dsl:", text),
            ProtocolSource::Spec(_) => return None,
        };
        let mut key = String::with_capacity(KEY_HEAD_CAPACITY + tag.len() + text.len());
        self.write_key_head(&mut key);
        key.push_str(tag);
        key.push_str(text);
        Some(key)
    }

    /// Writes the line both keys start with: the action and the
    /// semantically relevant options, ended by a newline.
    fn write_key_head(&self, out: &mut String) {
        use std::fmt::Write as _;
        let o = &self.options;
        let _ = writeln!(
            out,
            "{}|pr={:?}|tr={}|sf={}|bu={:?}|dl={:?}|mb={:?}|n={}|ex={}|th={}|ms={:?}|sd={:?}|st={:?}|fp={:?}",
            self.action.name(),
            o.pruning,
            o.record_trace,
            o.stop_at_first_error,
            o.budget,
            o.deadline,
            o.max_bytes,
            o.n,
            o.exact,
            o.threads,
            o.max_states,
            o.spill_dir,
            o.spill_threshold,
            o.fault_plan,
        );
    }
}

/// Room reserved for [`Request::write_key_head`]'s line, so building a
/// key allocates once for typical options.
const KEY_HEAD_CAPACITY: usize = 192;

/// Runtime companions to a [`Request`] that must not travel over a
/// wire: the cancellation token the caller may trip and the
/// observability sink progress events flow into.
#[derive(Clone, Debug, Default)]
pub struct RunContext {
    /// Cooperative cancellation for this run.
    pub cancel: CancelToken,
    /// Event sink (metrics, NDJSON progress, traces…).
    pub sink: SinkHandle,
}

impl RunContext {
    /// A context with the given token and sink.
    pub fn new(cancel: CancelToken, sink: SinkHandle) -> RunContext {
        RunContext { cancel, sink }
    }
}

/// Stable machine-readable classification of a request failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Malformed request: bad JSON, schema violation, unknown field.
    BadRequest,
    /// The protocol could not be resolved (unknown name, DSL error).
    BadProtocol,
    /// The request is valid but this endpoint cannot serve it (file
    /// options sent to a daemon that refuses them).
    Unsupported,
    /// The server's admission queue is full; retry later.
    Busy,
    /// An internal failure (checkpoint I/O, worker loss…).
    Internal,
}

impl ErrorCode {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::BadProtocol => "bad_protocol",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Busy => "busy",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name back into a code.
    pub fn from_name(name: &str) -> Option<ErrorCode> {
        Some(match name {
            "bad_request" => ErrorCode::BadRequest,
            "bad_protocol" => ErrorCode::BadProtocol,
            "unsupported" => ErrorCode::Unsupported,
            "busy" => ErrorCode::Busy,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A well-formed request failure: code plus human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// Machine-readable classification.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
    /// For `busy` errors: how long the client should wait before
    /// retrying, in milliseconds. Travels as the `retry_after_ms`
    /// field of the error object and as the HTTP `retry-after`
    /// header.
    pub retry_after_ms: Option<u64>,
}

impl ApiError {
    fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A `bad_request` error.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::BadRequest, message)
    }

    /// A `bad_protocol` error.
    pub fn bad_protocol(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::BadProtocol, message)
    }

    /// An `unsupported` error.
    pub fn unsupported(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::Unsupported, message)
    }

    /// A `busy` error.
    pub fn busy(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::Busy, message)
    }

    /// An `internal` error.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::Internal, message)
    }

    /// Attaches a retry-after hint (chainable).
    pub fn with_retry_after(mut self, millis: u64) -> ApiError {
        self.retry_after_ms = Some(millis);
        self
    }

    /// Serializes as the `error` object of a response.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("code".into(), Json::str(self.code.name())),
            ("message".into(), Json::str(self.message.clone())),
        ];
        if let Some(ms) = self.retry_after_ms {
            fields.push(("retry_after_ms".into(), Json::int(ms)));
        }
        Json::Obj(fields)
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

/// The payload of a successful verify request: the resolved spec
/// (needed to render states) and the full report.
#[derive(Clone, Debug)]
pub struct VerifyResponse {
    /// The resolved protocol.
    pub spec: ProtocolSpec,
    /// The complete verification report.
    pub report: VerificationReport,
}

/// What an enumeration resumed from, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeInfo {
    /// Checkpoint file path.
    pub path: String,
    /// Distinct states already visited at the checkpoint.
    pub visited: usize,
    /// Frontier states pending at the checkpoint.
    pub frontier: usize,
    /// Visits already performed at the checkpoint.
    pub visits: usize,
}

/// Whether (and where) a checkpoint was written after the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// Requested checkpoint path.
    pub path: String,
    /// True if a checkpoint was written (the run stopped early);
    /// false if the run completed and none was needed.
    pub written: bool,
}

/// One enumeration violation, pre-rendered for transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnumErrorInfo {
    /// The violating concrete state, rendered.
    pub state: String,
    /// Violation descriptions.
    pub descriptions: Vec<String>,
}

/// The payload of a successful enumerate request.
#[derive(Clone, Debug)]
pub struct EnumerateResponse {
    /// Protocol name.
    pub protocol: String,
    /// Cache count enumerated.
    pub n: usize,
    /// Exact-duplicate pruning (vs counting equivalence).
    pub exact: bool,
    /// Resolved worker count.
    pub threads: usize,
    /// True if the worker count was auto-selected (`threads: 0`).
    pub auto_threads: bool,
    /// Distinct states reached.
    pub distinct: usize,
    /// States dequeued and expanded.
    pub visits: usize,
    /// True if the search was cut short.
    pub truncated: bool,
    /// Why the run stopped early, if it did.
    pub stopped: Option<StopInfo>,
    /// Violations found (possibly truncated by stop-at-first-error).
    pub errors: Vec<EnumErrorInfo>,
    /// Set when the run resumed from a checkpoint.
    pub resumed: Option<ResumeInfo>,
    /// Set when the request asked for a checkpoint.
    pub checkpoint: Option<CheckpointOutcome>,
    /// Advisory notes about how the request was executed — e.g. a
    /// spill directory forcing an auto-threaded run sequential. Never
    /// affects the verdict; clients may surface them verbatim.
    pub warnings: Vec<String>,
}

impl EnumerateResponse {
    /// The pruning discipline, rendered exactly as the CLI's
    /// `dedup={:?}` always has.
    pub fn dedup_name(&self) -> &'static str {
        if self.exact {
            "Exact"
        } else {
            "Counting"
        }
    }
}

/// The payload of a successful crosscheck request.
#[derive(Clone, Debug)]
pub struct CrosscheckResponse {
    /// Protocol name.
    pub protocol: String,
    /// Cache count enumerated.
    pub n: usize,
    /// Essential states from the symbolic leg.
    pub essential: usize,
    /// Distinct concrete states reached by enumeration.
    pub total_concrete: usize,
    /// Concrete states covered by some essential state.
    pub covered: usize,
    /// True iff every concrete state is covered (Theorem 1 holds).
    pub complete: bool,
    /// Example uncovered states (rendered), when incomplete.
    pub uncovered_examples: Vec<String>,
    /// Why the coverage scan was skipped, when it was.
    pub aborted: Option<String>,
    /// Why the enumeration leg stopped early, if it did.
    pub stopped: Option<StopInfo>,
}

/// A successful response's action-specific payload.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Verify result.
    Verify(Box<VerifyResponse>),
    /// Enumerate result.
    Enumerate(EnumerateResponse),
    /// Crosscheck result.
    Crosscheck(CrosscheckResponse),
}

/// The unified result of running a [`Request`].
#[derive(Clone, Debug)]
pub struct Response {
    /// The action this responds to.
    pub action: Action,
    /// The payload, or a well-formed error.
    pub result: Result<Payload, ApiError>,
}

impl Response {
    /// An error response for `action`.
    pub fn error(action: Action, error: ApiError) -> Response {
        Response {
            action,
            result: Err(error),
        }
    }

    /// True if the run reached a definite result — verified or
    /// erroneous, complete or incomplete — as opposed to stopping
    /// early or failing. Only conclusive responses are safe to serve
    /// from a verdict cache: an inconclusive one depends on budgets
    /// and wall-clock luck, not just the protocol.
    pub fn is_conclusive(&self) -> bool {
        match &self.result {
            Err(_) => false,
            Ok(Payload::Verify(v)) => v.report.verdict != Verdict::Inconclusive,
            Ok(Payload::Enumerate(e)) => e.stopped.is_none(),
            Ok(Payload::Crosscheck(c)) => c.aborted.is_none() && c.stopped.is_none(),
        }
    }

    /// The fields a body opens with: the schema and action, and for a
    /// verify body every field before its errors.
    fn head_fields(&self) -> Vec<(String, Json)> {
        let mut fields: Vec<(String, Json)> = vec![
            ("schema".into(), Json::str(RESPONSE_SCHEMA)),
            ("action".into(), Json::str(self.action.name())),
        ];
        let Ok(Payload::Verify(v)) = &self.result else {
            return fields;
        };
        let report = &v.report;
        fields.extend([
            ("protocol".into(), Json::str(report.protocol.clone())),
            ("verdict".into(), Json::str(report.verdict.to_string())),
            ("visits".into(), Json::int(report.visits() as u64)),
            (
                "expansions".into(),
                Json::int(report.expansion.expanded as u64),
            ),
            (
                "essential_states".into(),
                Json::int(report.num_essential() as u64),
            ),
        ]);
        if let Outcome::Inconclusive {
            reason,
            frontier_size,
            visits,
            elapsed,
        } = &report.outcome
        {
            let stop = vec![
                ("reason".into(), Json::str(reason.clone())),
                ("frontier".into(), Json::int(*frontier_size as u64)),
                ("visits".into(), Json::int(*visits as u64)),
                (
                    "elapsed_ms".into(),
                    Json::Num(elapsed.as_secs_f64() * 1000.0),
                ),
            ];
            fields.push(("stop".into(), Json::Obj(stop)));
        }
        fields
    }

    /// Serializes as a `ccv-response-v1` object.
    pub fn to_json(&self) -> Json {
        let mut fields = self.head_fields();
        match &self.result {
            Err(e) => fields.push(("error".into(), e.to_json())),
            Ok(Payload::Verify(v)) => {
                let (spec, exp) = (&v.spec, &v.report.expansion);
                if !exp.errors.is_empty() {
                    let mut paths = PathWriter::new(exp, spec);
                    let errors = exp.errors.iter().map(|f| {
                        let mut path = String::new();
                        paths.write(f.node, &mut path);
                        Json::Obj(vec![
                            ("descriptions".into(), str_arr(f.descriptions(spec))),
                            (
                                "state".into(),
                                Json::Str(exp.composite(f.node).render(spec)),
                            ),
                            ("path".into(), Json::Str(path)),
                        ])
                    });
                    fields.push(("errors".into(), Json::Arr(errors.collect())));
                }
                let essential = essential_entries(spec, &v.report);
                fields.push(("essential".into(), Json::Arr(essential)));
            }
            Ok(Payload::Enumerate(e)) => {
                fields.push(("protocol".into(), Json::str(e.protocol.clone())));
                fields.push(("n".into(), Json::int(e.n as u64)));
                fields.push((
                    "dedup".into(),
                    Json::str(if e.exact { "exact" } else { "counting" }),
                ));
                fields.push(("threads".into(), Json::int(e.threads as u64)));
                fields.push(("distinct_states".into(), Json::int(e.distinct as u64)));
                fields.push(("visits".into(), Json::int(e.visits as u64)));
                fields.push(("truncated".into(), Json::Bool(e.truncated)));
                if !e.warnings.is_empty() {
                    fields.push(("warnings".into(), str_arr(&e.warnings)));
                }
                if let Some(info) = &e.stopped {
                    fields.push(("stop".into(), stop_info_json(info)));
                }
                if !e.errors.is_empty() {
                    let errors: Vec<Json> = e
                        .errors
                        .iter()
                        .map(|err| {
                            Json::Obj(vec![
                                ("state".into(), Json::str(err.state.clone())),
                                ("descriptions".into(), str_arr(&err.descriptions)),
                            ])
                        })
                        .collect();
                    fields.push(("errors".into(), Json::Arr(errors)));
                }
                if let Some(r) = &e.resumed {
                    fields.push((
                        "resumed".into(),
                        Json::Obj(vec![
                            ("path".into(), Json::str(r.path.clone())),
                            ("visited".into(), Json::int(r.visited as u64)),
                            ("frontier".into(), Json::int(r.frontier as u64)),
                            ("visits".into(), Json::int(r.visits as u64)),
                        ]),
                    ));
                }
                if let Some(c) = &e.checkpoint {
                    fields.push((
                        "checkpoint".into(),
                        Json::Obj(vec![
                            ("path".into(), Json::str(c.path.clone())),
                            ("written".into(), Json::Bool(c.written)),
                        ]),
                    ));
                }
            }
            Ok(Payload::Crosscheck(c)) => {
                fields.push(("protocol".into(), Json::str(c.protocol.clone())));
                fields.push(("n".into(), Json::int(c.n as u64)));
                fields.push(("essential_states".into(), Json::int(c.essential as u64)));
                fields.push(("total_concrete".into(), Json::int(c.total_concrete as u64)));
                fields.push(("covered".into(), Json::int(c.covered as u64)));
                fields.push(("complete".into(), Json::Bool(c.complete)));
                if !c.uncovered_examples.is_empty() {
                    fields.push(("uncovered".into(), str_arr(&c.uncovered_examples)));
                }
                if let Some(why) = &c.aborted {
                    fields.push(("aborted".into(), Json::str(why.clone())));
                }
                if let Some(info) = &c.stopped {
                    fields.push(("stop".into(), stop_info_json(info)));
                }
            }
        }
        Json::Obj(fields)
    }

    /// Renders the compact `ccv-response-v1` body: byte-identical to
    /// `self.to_json().render_compact()`, and what `ccv serve` sends.
    ///
    /// A verify payload is first written without its counterexample
    /// paths, which run to megabytes, while a [`PathWriter`] measures
    /// them. The body is then allocated at its exact size, since a
    /// cached body keeps its capacity, and filled from that frame, each
    /// path written from the writer's shared segments. Other payloads
    /// render through [`Response::to_json`], which stays the tree form
    /// for callers that inspect the document and the oracle the direct
    /// writer is tested against.
    pub fn render_compact(&self) -> String {
        let Ok(Payload::Verify(v)) = &self.result else {
            return self.to_json().render_compact();
        };
        let (spec, report) = (&v.spec, &v.report);
        let errors = &report.expansion.errors;
        // The head, with the object left open for the rest.
        let mut frame = Json::Obj(self.head_fields()).render_compact();
        frame.pop();
        let mut paths = PathWriter::json(&report.expansion, spec);
        let (mut cuts, mut paths_len) = (Vec::with_capacity(errors.len()), 0);
        for (i, f) in errors.iter().enumerate() {
            frame.push_str(if i == 0 { ",\"errors\":[" } else { "," });
            frame.push_str("{\"descriptions\":");
            str_arr(f.descriptions(spec)).write_compact(&mut frame);
            frame.push_str(",\"state\":");
            escape_into(&mut frame, &report.expansion.composite(f.node).render(spec));
            frame.push_str(",\"path\":\"");
            cuts.push(frame.len());
            paths_len += paths.len(f.node);
            frame.push_str(if i + 1 == errors.len() { "\"}]" } else { "\"}" });
        }
        frame.push_str(",\"essential\":");
        Json::Arr(essential_entries(spec, report)).write_compact(&mut frame);
        frame.push('}');

        let mut out = String::with_capacity(frame.len() + paths_len);
        let mut start = 0;
        for (f, &cut) in errors.iter().zip(&cuts) {
            out.push_str(&frame[start..cut]);
            paths.write(f.node, &mut out);
            start = cut;
        }
        out.push_str(&frame[start..]);
        out
    }
}

/// A JSON array of strings.
fn str_arr<S: Into<String>>(items: impl IntoIterator<Item = S>) -> Json {
    Json::Arr(items.into_iter().map(Json::str).collect())
}

fn stop_info_json(info: &StopInfo) -> Json {
    let mut fields = vec![("cause".into(), Json::str(info.cause.name()))];
    if let Some(d) = &info.detail {
        fields.push(("detail".into(), Json::str(d.clone())));
    }
    fields.push(("frontier".into(), Json::int(info.frontier as u64)));
    fields.push((
        "elapsed_ms".into(),
        Json::Num(info.elapsed.as_secs_f64() * 1000.0),
    ));
    Json::Obj(fields)
}

/// The essential states of a report as canonical JSON entries, sorted
/// by their paper-notation rendering — byte-stable across runs and
/// engine-internal reorderings. The array inside
/// [`essential_states_json`] and the `essential` field of a verify
/// response.
pub fn essential_entries(spec: &ProtocolSpec, report: &VerificationReport) -> Vec<Json> {
    let mut states = report.expansion.essential_states();
    states.sort_by_key(|c| c.render(spec));
    states
        .iter()
        .map(|c| {
            let classes: Vec<Json> = c
                .classes()
                .iter()
                .map(|&(k, r)| {
                    Json::Obj(vec![
                        ("state".into(), Json::str(spec.state(k.state).short.clone())),
                        (
                            "cdata".into(),
                            Json::str(match k.cdata {
                                ccv_model::CData::NoData => "none",
                                ccv_model::CData::Fresh => "fresh",
                                ccv_model::CData::Obsolete => "obsolete",
                            }),
                        ),
                        (
                            "rep".into(),
                            Json::str(match r {
                                crate::Rep::Zero => "0",
                                crate::Rep::One => "1",
                                crate::Rep::Plus => "+",
                                crate::Rep::Star => "*",
                            }),
                        ),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("rendered".into(), Json::str(c.render(spec))),
                ("classes".into(), Json::Arr(classes)),
                ("f".into(), Json::str(c.f.to_string())),
                ("mdata".into(), Json::str(c.mdata.to_string())),
            ])
        })
        .collect()
}

/// Canonical JSON export of a report's essential states (the
/// `ccv-essential-states-v1` document behind `--essential-out`).
pub fn essential_states_json(
    spec: &ProtocolSpec,
    report: &VerificationReport,
    pruning: Pruning,
) -> Json {
    let entries = essential_entries(spec, report);
    Json::Obj(vec![
        ("schema".into(), Json::str("ccv-essential-states-v1")),
        ("protocol".into(), Json::str(report.protocol.clone())),
        (
            "pruning".into(),
            Json::str(match pruning {
                Pruning::Containment => "containment",
                Pruning::Equality => "equality",
            }),
        ),
        ("count".into(), Json::int(entries.len() as u64)),
        ("essential".into(), Json::Arr(entries)),
    ])
}

/// Rejects parameters the packed enumerators would panic on.
fn check_limits(spec: &ProtocolSpec, n: usize) -> Result<(), ApiError> {
    if !(1..=MAX_CACHES).contains(&n) {
        return Err(ApiError::bad_request(format!(
            "n must be in 1..={MAX_CACHES} (got {n})"
        )));
    }
    if spec.num_states() > 16 {
        return Err(ApiError::bad_request(format!(
            "protocol '{}' has {} states; the packed encoding supports at most 16",
            spec.name(),
            spec.num_states()
        )));
    }
    Ok(())
}

/// Sets the governor every engine run of every action stops by:
/// `budget` when the request states one (verify's visits, the
/// enumerator's states), its deadline and memory cap, and the caller's
/// cancel token.
fn govern(common: &mut CommonOptions, budget: Option<usize>, o: &RequestOptions, ctx: &RunContext) {
    if let Some(budget) = budget {
        common.budget = budget;
    }
    common.deadline = o.deadline;
    common.max_bytes = o.max_bytes;
    common.cancel = ctx.cancel.clone();
}

/// Builds the enumerator options a request asks for.
fn enum_options(req: &Request, ctx: &RunContext) -> Result<EnumOptions, ApiError> {
    let o = &req.options;
    let mut opts = EnumOptions::new(o.n)
        .sink(ctx.sink.clone())
        .rule_stats(o.rule_stats)
        .stop_at_first_error(o.stop_at_first_error);
    govern(&mut opts.common, o.max_states, o, ctx);
    if let Some(plan) = &o.fault_plan {
        let fault = ccv_observe::FaultHandle::from_spec(plan)
            .map_err(|e| ApiError::bad_request(format!("invalid fault_plan: {e}")))?;
        opts.common = opts.common.fault(fault);
    }
    if o.exact {
        opts = opts.exact();
    }
    if o.checkpoint_out.is_some() {
        opts = opts.capture_snapshot(true);
    }
    if let Some(dir) = &o.spill_dir {
        opts = opts.spill(SpillConfig::new(Path::new(dir), o.spill_threshold));
    }
    Ok(opts)
}

/// The unified runner: owns an [`EngineScratch`] recycled across
/// requests (a long-lived server worker keeps one).
#[derive(Debug, Default)]
pub struct SessionRunner {
    scratch: EngineScratch,
}

impl SessionRunner {
    /// A runner with fresh engine scratch.
    pub fn new() -> SessionRunner {
        SessionRunner::default()
    }

    /// Runs one request to completion and returns the response.
    /// Engine scratch is recycled across calls; results are observably
    /// identical to fresh runs.
    pub fn run(&mut self, req: &Request, ctx: &RunContext) -> Response {
        let spec = match req.protocol.resolve() {
            Ok(spec) => spec,
            Err(e) => return Response::error(req.action, e),
        };
        let result = match req.action {
            Action::Verify => Ok(Payload::Verify(Box::new(self.run_verify(spec, req, ctx)))),
            Action::Enumerate => self.run_enumerate(&spec, req, ctx).map(Payload::Enumerate),
            Action::Crosscheck => self
                .run_crosscheck(&spec, req, ctx)
                .map(Payload::Crosscheck),
        };
        Response {
            action: req.action,
            result,
        }
    }

    fn run_verify(
        &mut self,
        spec: ProtocolSpec,
        req: &Request,
        ctx: &RunContext,
    ) -> VerifyResponse {
        let o = &req.options;
        let mut opts = Options::default()
            .pruning(o.pruning)
            .record_trace(o.record_trace)
            .rule_stats(o.rule_stats)
            .stop_at_first_error(o.stop_at_first_error);
        govern(&mut opts.common, o.budget, o, ctx);
        if ctx.sink.is_enabled() {
            opts = opts.sink(ctx.sink.clone());
        }
        let report = verify_with_scratch(&spec, &opts, &mut self.scratch);
        VerifyResponse { spec, report }
    }

    fn run_enumerate(
        &self,
        spec: &ProtocolSpec,
        req: &Request,
        ctx: &RunContext,
    ) -> Result<EnumerateResponse, ApiError> {
        let o = &req.options;
        check_limits(spec, o.n)?;
        let opts = enum_options(req, ctx)?;
        let (seed, resumed) = match &o.resume {
            Some(path) => {
                // A checkpoint that fails validation (torn write, bit
                // rot) is quarantined aside, never silently trusted.
                let ckpt =
                    Checkpoint::load_or_quarantine(Path::new(path)).map_err(ApiError::internal)?;
                ckpt.validate(spec, &opts).map_err(ApiError::internal)?;
                let info = ResumeInfo {
                    path: path.clone(),
                    visited: ckpt.visited.len(),
                    frontier: ckpt.frontier.len(),
                    visits: ckpt.visits,
                };
                (Some(ckpt.into_seed()), Some(info))
            }
            None => (None, None),
        };
        let requested = o.threads;
        // 0 = auto: one worker per core the scheduler grants us. A
        // spill-backed visited table is owned by the sequential
        // engine, so spill runs are single-threaded: an explicit
        // multi-thread request alongside a spill directory is a
        // contradiction we refuse rather than silently resolve, and
        // an auto request is resolved to one worker with a warning.
        let mut warnings: Vec<String> = Vec::new();
        let threads = if opts.spill.is_some() {
            if requested > 1 {
                return Err(ApiError::bad_request(format!(
                    "--spill-dir runs are sequential (the spill-backed visited \
                     table is single-owner); drop --threads {requested} or the \
                     spill directory"
                )));
            }
            if requested == 0 {
                warnings.push(
                    "--spill-dir forces a sequential run; --threads auto resolved to 1".to_string(),
                );
            }
            1
        } else if requested == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            requested
        };
        let r = if threads > 1 {
            enumerate_parallel_resumed(spec, &opts, threads, seed)
        } else {
            enumerate_resumed(spec, &opts, seed)
        };
        if let Some(degraded) = &r.spill_degraded {
            warnings.push(format!(
                "spill degraded to in-RAM operation: {degraded} — results are \
                 exact but the memory bound was lost"
            ));
        }
        let checkpoint = match &o.checkpoint_out {
            Some(path) => {
                let written = match Checkpoint::of_result(spec, &opts, &r) {
                    Some(ckpt) => {
                        ckpt.save_with(Path::new(path), &opts.common.fault)
                            .map_err(|e| {
                                ApiError::internal(format!("writing checkpoint {path}: {e}"))
                            })?;
                        true
                    }
                    None => false,
                };
                Some(CheckpointOutcome {
                    path: path.clone(),
                    written,
                })
            }
            None => None,
        };
        Ok(EnumerateResponse {
            protocol: spec.name().to_string(),
            n: o.n,
            exact: o.exact,
            threads,
            auto_threads: requested == 0,
            distinct: r.distinct,
            visits: r.visits,
            truncated: r.truncated,
            stopped: r.stopped.clone(),
            errors: r
                .errors
                .iter()
                .map(|e| EnumErrorInfo {
                    state: e.state.render(o.n, spec),
                    descriptions: e.descriptions.clone(),
                })
                .collect(),
            resumed,
            checkpoint,
            warnings,
        })
    }

    fn run_crosscheck(
        &mut self,
        spec: &ProtocolSpec,
        req: &Request,
        ctx: &RunContext,
    ) -> Result<CrosscheckResponse, ApiError> {
        let o = &req.options;
        check_limits(spec, o.n)?;
        let started = std::time::Instant::now();
        let mut enum_opts = enum_options(req, ctx)?;
        let mut opts = Options::default().sink(ctx.sink.clone());
        govern(&mut opts.common, o.budget, o, ctx);
        // Only the essential states are read, so the symbolic leg is a
        // bare expansion whose arena goes back to the scratch pool.
        let expansion = expand_with(spec, Composite::initial(spec), &opts, &mut self.scratch);
        let cc = if expansion.truncated {
            // A partial essential set covers nothing reliably: the
            // crosscheck stops with its symbolic leg.
            CrossCheck {
                n: o.n,
                stopped: expansion.stopped.clone(),
                ..CrossCheck::default()
            }
        } else {
            // One deadline covers both legs.
            enum_opts.common.deadline = o.deadline.map(|d| d.saturating_sub(started.elapsed()));
            crosscheck_enumerated(spec, &expansion.essential_states(), enum_opts, &ctx.sink)
        };
        let essential = expansion.essential.len();
        self.scratch.recycle(expansion);
        Ok(CrosscheckResponse {
            protocol: spec.name().to_string(),
            n: o.n,
            essential,
            total_concrete: cc.total_concrete,
            covered: cc.covered,
            complete: cc.complete(),
            uncovered_examples: cc.uncovered_examples,
            aborted: cc.aborted,
            stopped: cc.stopped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosscheck::crosscheck;
    use ccv_enum::enumerate;
    use ccv_model::protocols::{illinois, split_msi};

    /// One request through a bare runner: no install step, no setup.
    fn run(req: &Request) -> Response {
        SessionRunner::new().run(req, &RunContext::default())
    }

    #[test]
    fn verify_bodies_are_allocated_at_their_exact_size() {
        // A cached body is kept for the life of its entry, so spare
        // capacity in it would be held that long too.
        for name in ["illinois", "illinois-missing-invalidation"] {
            let resp = run(&Request::verify(ProtocolSource::Name(name.into())));
            let body = resp.render_compact();
            assert_eq!(body, resp.to_json().render_compact(), "{name}");
            assert_eq!(body.capacity(), body.len(), "{name}");
        }
    }

    #[test]
    fn request_json_round_trips() {
        let req = Request {
            action: Action::Enumerate,
            protocol: ProtocolSource::Name("illinois".into()),
            options: RequestOptions {
                n: 5,
                exact: true,
                threads: 2,
                max_states: Some(10_000),
                deadline: Some(Duration::from_millis(1500)),
                ..RequestOptions::default()
            },
            stream: true,
        };
        let json = req.to_json();
        let back = Request::from_json(&json).expect("round trip");
        assert_eq!(back.to_json(), json);
        let reparsed = Request::parse(&json.render()).expect("parse rendered text");
        assert_eq!(reparsed.to_json(), json);
    }

    #[test]
    fn default_options_serialize_empty() {
        let req = Request::verify(ProtocolSource::Name("msi".into()));
        assert_eq!(req.options.to_json(), Json::Obj(vec![]));
    }

    #[test]
    fn malformed_requests_get_bad_request() {
        for text in [
            "not json",
            "[1, 2]",
            "{\"schema\": \"ccv-request-v9\", \"action\": \"verify\", \"protocol\": {\"name\": \"msi\"}}",
            "{\"action\": \"verify\", \"protocol\": {\"name\": \"msi\"}}",
            "{\"schema\": \"ccv-request-v1\", \"action\": \"dance\", \"protocol\": {\"name\": \"msi\"}}",
            "{\"schema\": \"ccv-request-v1\", \"action\": \"verify\", \"protocol\": {}}",
            "{\"schema\": \"ccv-request-v1\", \"action\": \"verify\", \"protocol\": {\"name\": \"msi\"}, \"options\": {\"bogus\": 1}}",
            "{\"schema\": \"ccv-request-v1\", \"action\": \"verify\", \"protocol\": {\"name\": \"msi\"}, \"surprise\": 1}",
        ] {
            let err = Request::parse(text).expect_err(text);
            assert_eq!(err.code, ErrorCode::BadRequest, "{text}");
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn unknown_protocol_is_bad_protocol() {
        let req = Request::verify(ProtocolSource::Name("nonesuch".into()));
        let resp = run(&req);
        match resp.result {
            Err(e) => {
                assert_eq!(e.code, ErrorCode::BadProtocol);
                assert!(e.message.contains("nonesuch"));
            }
            Ok(_) => panic!("expected an error"),
        }
    }

    #[test]
    fn run_verify_matches_session_verify() {
        let req = Request::verify(ProtocolSource::Spec(illinois()));
        let resp = run(&req);
        let direct = crate::verify(&illinois());
        match resp.result {
            Ok(Payload::Verify(v)) => {
                assert_eq!(v.report.verdict, direct.verdict);
                assert_eq!(v.report.visits(), direct.visits());
                assert_eq!(v.report.num_essential(), direct.num_essential());
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(run(&req).is_conclusive());
    }

    #[test]
    fn dsl_source_resolves_like_the_library() {
        let dsl = ccv_model::dsl::to_dsl(&illinois());
        let spec = ProtocolSource::Dsl(dsl).resolve().expect("parses");
        assert_eq!(spec.name(), illinois().name());
        let err = ProtocolSource::Dsl("protocol {".into())
            .resolve()
            .expect_err("rejects");
        assert_eq!(err.code, ErrorCode::BadProtocol);
    }

    #[test]
    fn semantic_key_separates_options_and_protocols() {
        let spec = illinois();
        let a = Request::verify(ProtocolSource::Spec(spec.clone()));
        let mut b = a.clone();
        b.options.budget = Some(10);
        assert_ne!(a.semantic_key(&spec), b.semantic_key(&spec));
        let c = Request::enumerate(ProtocolSource::Spec(spec.clone()), 4);
        assert_ne!(a.semantic_key(&spec), c.semantic_key(&spec));

        // The source key splits on the same options, and on the
        // source's kind and text, but a spec has none.
        assert_eq!(a.source_key(), None);
        let named = |name: &str| Request::verify(ProtocolSource::Name(name.into()));
        let dsl = ccv_model::dsl::to_dsl(&spec);
        let by_name = named("illinois");
        let by_dsl = Request::verify(ProtocolSource::Dsl(dsl.clone()));
        let mut budgeted = by_name.clone();
        budgeted.options.budget = Some(10);
        let keys = [
            by_name.source_key().unwrap(),
            by_dsl.source_key().unwrap(),
            named("msi").source_key().unwrap(),
            budgeted.source_key().unwrap(),
            Request::enumerate(ProtocolSource::Name("illinois".into()), 4)
                .source_key()
                .unwrap(),
            Request::verify(ProtocolSource::Dsl(format!("{dsl} ")))
                .source_key()
                .unwrap(),
        ];
        for (i, k) in keys.iter().enumerate() {
            for other in &keys[i + 1..] {
                assert_ne!(k, other);
            }
        }
        // One head for both keys: the keys of one request differ only
        // after the options line.
        let head = |k: &str| k.split_once('\n').unwrap().0.to_string();
        assert_eq!(head(&keys[0]), head(&by_name.semantic_key(&spec)));
        assert_eq!(head(&keys[3]), head(&budgeted.semantic_key(&spec)));
        assert!(keys[0].ends_with("\nname:illinois"));
        assert!(keys[1].ends_with(&format!("\ndsl:{dsl}")));
        // A name cannot pose as DSL text that spells it.
        let spelled = Request::verify(ProtocolSource::Dsl("illinois".into()));
        assert_ne!(spelled.source_key(), by_name.source_key());
    }

    #[test]
    fn inconclusive_verify_is_not_conclusive_and_renders_stop() {
        let req = Request::verify(ProtocolSource::Spec(illinois())).options(RequestOptions {
            budget: Some(3),
            ..RequestOptions::default()
        });
        let resp = run(&req);
        assert!(!resp.is_conclusive());
        let body = resp.to_json();
        assert_eq!(
            body.get("verdict").and_then(Json::as_str),
            Some("INCONCLUSIVE")
        );
        assert!(body.get("stop").is_some());
    }

    #[test]
    fn error_response_renders_code_and_message() {
        let resp = Response::error(Action::Verify, ApiError::busy("queue full"));
        let body = resp.to_json();
        let err = body.get("error").expect("error field");
        assert_eq!(err.get("code").and_then(Json::as_str), Some("busy"));
        assert_eq!(
            err.get("message").and_then(Json::as_str),
            Some("queue full")
        );
        assert!(!resp.is_conclusive());
    }

    /// Runs enumerate and crosscheck requests for `spec` at `n` through
    /// a bare runner and checks them against direct engine calls.
    fn assert_requests_match_direct_runs(spec: &ProtocolSpec, n: usize) {
        let req =
            Request::enumerate(ProtocolSource::Spec(spec.clone()), n).options(RequestOptions {
                n,
                threads: 1,
                ..RequestOptions::default()
            });
        let direct = enumerate(spec, &EnumOptions::new(n));
        match run(&req).result {
            Ok(Payload::Enumerate(e)) => {
                assert_eq!(e.distinct, direct.distinct, "{}", spec.name());
                assert_eq!(e.visits, direct.visits, "{}", spec.name());
                assert_eq!(e.threads, 1);
                assert!(!e.auto_threads);
                assert!(e.errors.is_empty(), "{}", spec.name());
                assert!(e.stopped.is_none());
            }
            other => panic!("{}: unexpected {other:?}", spec.name()),
        }

        let exp = crate::engine::expand(spec, &Options::default());
        let direct = crosscheck(spec, n, &exp.essential_states(), 1 << 24);
        let req = Request::crosscheck(ProtocolSource::Spec(spec.clone()), n);
        match run(&req).result {
            Ok(Payload::Crosscheck(c)) => {
                assert_eq!(c.total_concrete, direct.total_concrete, "{}", spec.name());
                assert_eq!(c.covered, direct.covered, "{}", spec.name());
                assert_eq!(c.complete, direct.complete(), "{}", spec.name());
                assert!(c.complete, "{}: Theorem 1 at n={n}", spec.name());
            }
            other => panic!("{}: unexpected {other:?}", spec.name()),
        }
    }

    #[test]
    fn enumerate_request_matches_direct_run() {
        assert_requests_match_direct_runs(&illinois(), 3);
    }

    #[test]
    fn spill_request_routes_to_the_sequential_engine() {
        let dir = std::env::temp_dir().join(format!("ccv-api-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = Request::enumerate(ProtocolSource::Spec(illinois()), 4).options(RequestOptions {
            n: 4,
            threads: 0, // auto — spill must still force 1
            exact: true,
            spill_dir: Some(dir.to_string_lossy().into_owned()),
            spill_threshold: Some(256),
            ..RequestOptions::default()
        });
        let resp = run(&req);
        let direct = enumerate(&illinois(), &EnumOptions::new(4).exact());
        match resp.result {
            Ok(Payload::Enumerate(e)) => {
                assert_eq!(e.threads, 1, "spill runs are sequential");
                assert_eq!(e.distinct, direct.distinct);
                assert_eq!(e.visits, direct.visits);
                assert_eq!(e.warnings.len(), 1, "auto threads + spill warns");
                assert!(e.warnings[0].contains("sequential"), "{:?}", e.warnings);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_with_explicit_threads_is_a_bad_request() {
        let req = Request::enumerate(ProtocolSource::Spec(illinois()), 3).options(RequestOptions {
            n: 3,
            threads: 4,
            spill_dir: Some("/tmp/ccv-never-created".into()),
            ..RequestOptions::default()
        });
        let resp = run(&req);
        match resp.result {
            Err(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest);
                assert!(e.message.contains("sequential"), "{}", e.message);
            }
            Ok(_) => panic!("spill + --threads 4 must be rejected"),
        }
        assert!(
            !std::path::Path::new("/tmp/ccv-never-created").exists(),
            "rejected before the spill directory is created"
        );
    }

    #[test]
    fn spill_with_explicit_single_thread_runs_without_warning() {
        let dir = std::env::temp_dir().join(format!("ccv-api-spill1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = Request::enumerate(ProtocolSource::Spec(illinois()), 3).options(RequestOptions {
            n: 3,
            threads: 1, // explicitly sequential: nothing to warn about
            spill_dir: Some(dir.to_string_lossy().into_owned()),
            spill_threshold: Some(256),
            ..RequestOptions::default()
        });
        let resp = run(&req);
        match resp.result {
            Ok(Payload::Enumerate(e)) => {
                assert_eq!(e.threads, 1);
                assert!(e.warnings.is_empty(), "{:?}", e.warnings);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_fault_plan_is_a_bad_request() {
        let req = Request::enumerate(ProtocolSource::Spec(illinois()), 3).options(RequestOptions {
            n: 3,
            threads: 1,
            fault_plan: Some("spill.flush:unknownkind".into()),
            ..RequestOptions::default()
        });
        let resp = run(&req);
        match resp.result {
            Err(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest);
                assert!(e.message.contains("fault_plan"), "{}", e.message);
            }
            Ok(_) => panic!("bad fault plan must be rejected"),
        }
    }

    #[test]
    fn spill_degradation_surfaces_as_a_warning() {
        let dir = std::env::temp_dir().join(format!("ccv-api-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = Request::enumerate(ProtocolSource::Spec(illinois()), 4).options(RequestOptions {
            n: 4,
            threads: 1,
            exact: true,
            spill_dir: Some(dir.to_string_lossy().into_owned()),
            spill_threshold: Some(256),
            fault_plan: Some("spill.flush:io".into()),
            ..RequestOptions::default()
        });
        let resp = run(&req);
        let direct = enumerate(&illinois(), &EnumOptions::new(4).exact());
        match resp.result {
            Ok(Payload::Enumerate(e)) => {
                // Degraded, but exact: the verdict is unchanged.
                assert_eq!(e.distinct, direct.distinct);
                assert!(e.errors.is_empty());
                assert!(
                    e.warnings.iter().any(|w| w.contains("spill degraded")),
                    "{:?}",
                    e.warnings
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_worker_panic_yields_a_contained_stop() {
        for threads in [1usize, 4] {
            let req =
                Request::enumerate(ProtocolSource::Spec(illinois()), 3).options(RequestOptions {
                    n: 3,
                    threads,
                    fault_plan: Some("enum.worker:panic@5".into()),
                    ..RequestOptions::default()
                });
            let resp = run(&req);
            match resp.result {
                Ok(Payload::Enumerate(e)) => {
                    assert!(e.truncated, "threads={threads}");
                    let stopped = e.stopped.expect("stop info");
                    assert_eq!(
                        stopped.cause,
                        ccv_observe::StopCause::WorkerPanic,
                        "threads={threads}"
                    );
                }
                other => panic!("threads={threads}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn non_atomic_protocols_enumerate_through_the_api() {
        let spec = split_msi();
        assert_requests_match_direct_runs(&spec, 3);
        // Verification is transient-aware too.
        match run(&Request::verify(ProtocolSource::Spec(spec))).result {
            Ok(Payload::Verify(v)) => assert_eq!(v.report.verdict, Verdict::Verified),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn crosscheck_request_reports_theorem_1() {
        let req = Request::crosscheck(ProtocolSource::Spec(illinois()), 3);
        let resp = run(&req);
        match resp.result {
            Ok(Payload::Crosscheck(c)) => {
                assert!(c.complete);
                assert_eq!(c.covered, c.total_concrete);
                assert_eq!(c.essential, 5);
                assert!(c.aborted.is_none());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn a_cancelled_crosscheck_is_inconclusive_not_a_theorem_1_failure() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let req = Request::crosscheck(ProtocolSource::Spec(illinois()), 4);
        let resp = SessionRunner::new().run(&req, &RunContext::new(cancel, SinkHandle::disabled()));
        assert!(!resp.is_conclusive());
        match resp.result {
            Ok(Payload::Crosscheck(c)) => {
                assert!(!c.complete);
                assert!(
                    c.uncovered_examples.is_empty(),
                    "{:?}",
                    c.uncovered_examples
                );
                let cause = c.stopped.map(|info| info.cause);
                assert_eq!(cause, Some(ccv_observe::StopCause::Cancelled));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn crosscheck_dedup_follows_exact_and_keeps_the_totals() {
        for exact in [false, true] {
            let req =
                Request::crosscheck(ProtocolSource::Spec(split_msi()), 4).options(RequestOptions {
                    n: 4,
                    exact,
                    max_states: Some(200),
                    ..RequestOptions::default()
                });
            match run(&req).result {
                // Counting claims a few dozen representatives; exact
                // outgrows the same state budget.
                Ok(Payload::Crosscheck(c)) if !exact => {
                    assert!(c.complete, "{c:?}");
                    assert!(c.total_concrete > 200, "{c:?}");
                }
                Ok(Payload::Crosscheck(c)) => {
                    let info = c.stopped.expect("exact tuples exceed the budget");
                    assert_eq!(
                        info.detail.as_deref(),
                        Some("reachable set exceeded 200 states")
                    );
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_n_is_rejected_not_panicked_on() {
        for n in [0, MAX_CACHES + 1] {
            let req = Request::enumerate(ProtocolSource::Spec(illinois()), n);
            let resp = run(&req);
            match resp.result {
                Err(e) => assert_eq!(e.code, ErrorCode::BadRequest, "n={n}"),
                Ok(_) => panic!("n={n} should be rejected"),
            }
        }
    }

    #[test]
    fn missing_resume_file_is_a_well_formed_error() {
        let req = Request {
            action: Action::Enumerate,
            protocol: ProtocolSource::Spec(illinois()),
            options: RequestOptions {
                n: 3,
                resume: Some("/nonexistent/checkpoint.ccvk".into()),
                ..RequestOptions::default()
            },
            stream: false,
        };
        let resp = run(&req);
        match resp.result {
            Err(e) => assert_eq!(e.code, ErrorCode::Internal),
            Ok(_) => panic!("expected an error"),
        }
    }
}
