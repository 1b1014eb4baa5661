//! # ccv-observe — observability for the ccv verification engines
//!
//! This crate defines the event vocabulary shared by the symbolic
//! engine (`ccv-core`), the explicit-state enumerator (`ccv-enum`)
//! and the trace simulator (`ccv-sim`), plus two ready-made sinks:
//!
//! * [`EventSink`] — the trait engines emit into. Every method has a
//!   default no-op body, so a sink implements only what it cares
//!   about.
//! * [`SinkHandle`] — a cheap, cloneable handle that is either
//!   attached to a sink or disabled. Engines hold one of these; when
//!   it is disabled every emission is a branch on a `None` that the
//!   optimiser removes from the hot path.
//! * [`Metrics`] — an in-memory collector (atomic counters, phase
//!   wall-clock timers, log₂-bucket histograms) whose
//!   [`snapshot`](Metrics::snapshot) renders to JSON via [`Json`].
//! * [`NdjsonSink`] — renders one JSON object per event into a
//!   [`LineOut`]: any writer, for live progress reporting, or the
//!   flight recorder's ring.
//! * [`TraceSink`] — exports spans, phases and counter tracks as a
//!   Chrome-trace JSON file loadable in `chrome://tracing` and
//!   [Perfetto](https://ui.perfetto.dev).
//! * [`FlightRecorder`] — an [`NdjsonSink`] retaining its last N
//!   lines in a ring; paired with a [`PostmortemGuard`] it dumps them
//!   as a postmortem when a violation is recorded or a panic unwinds.
//! * [`FaultHandle`] / [`FaultPlan`] — deterministic fault injection:
//!   named sites probe the handle and a parsed plan decides which hit
//!   fails, tears, panics, disconnects or stalls ([`fault`]).
//! * [`write_atomic`] / [`quarantine`] — crash-safe file publication
//!   (write-temp + fsync + atomic rename) and the reader-side
//!   quarantine discipline for files that fail validation
//!   ([`persist`]).
//!
//! The timeline vocabulary is [`SpanKind`] (phase, worker-busy,
//! steal, drain, crosscheck-leg spans carrying a thread id) and
//! [`Track`] (pending/visited counter tracks sampled at span
//! boundaries); per-rule attribution travels as [`RuleStat`] rows.
//!
//! [`CommonOptions`] lives here too: the options fields shared by all
//! three engines (work budget, stop-at-first-error, attached sink,
//! rule-stats collection), embedded by each engine's own options
//! struct.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use ccv_observe::{Counter, Metrics, Phase, SinkHandle};
//!
//! let metrics = Arc::new(Metrics::new());
//! let sink = SinkHandle::from(metrics.clone() as Arc<dyn ccv_observe::EventSink>);
//!
//! sink.phase_enter(Phase::Expand);
//! sink.count(Counter::Visits, 22);
//! sink.phase_exit(Phase::Expand);
//!
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter(Counter::Visits), 22);
//! assert!(snap.to_json().render().contains("\"visits\": 22"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod flight;
pub mod govern;
pub mod json;
pub mod metrics;
pub mod ndjson;
pub mod options;
pub mod persist;
pub mod trace;

pub use event::{Counter, EventSink, Gauge, Phase, RuleStat, SinkHandle, SpanKind, Tee, Track};
pub use fault::{FaultHandle, FaultKind, FaultPlan, FaultRule};
pub use flight::{FlightRecorder, PostmortemGuard};
pub use govern::{
    request_global_cancel, reset_global_cancel, CancelToken, Governor, StopCause, StopInfo,
};
pub use json::Json;
pub use metrics::{Metrics, MetricsSnapshot};
pub use ndjson::{LineOut, NdjsonSink};
pub use options::CommonOptions;
pub use persist::{quarantine, write_atomic};
pub use trace::TraceSink;
