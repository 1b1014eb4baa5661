//! # ccv-core — symbolic verification of cache coherence protocols
//!
//! An implementation of the verification methodology of
//!
//! > F. Pong and M. Dubois, *"The Verification of Cache Coherence
//! > Protocols"*, Proc. 5th ACM SPAA, 1993.
//!
//! The global state of a system with an **arbitrary number of caches**
//! is represented symbolically: caches in the same state form a class
//! adorned with a repetition operator (`1`, `+`, `*`), and the set of
//! classes — a [`Composite`] state — is expanded by a worklist
//! algorithm with **containment pruning** until the *essential states*
//! remain. Verification then amounts to checking that no reachable
//! composite state is erroneous, either structurally (contradictory
//! state interpretations, §2.1 of the paper) or in its data aspects
//! (a load that can return a stale value, Definitions 3–4).
//!
//! The crate also sits above `ccv-enum`'s explicit-state
//! enumerators: [`crosscheck`](mod@crosscheck) checks Theorem 1
//! against their reachable sets, and [`api::SessionRunner`] serves
//! verify, enumerate and crosscheck requests by calling either engine
//! directly.
//!
//! ## Quick start
//!
//! ```
//! use ccv_core::{verify, Verdict};
//! use ccv_model::protocols;
//!
//! // The paper's §4.0 result: the Illinois protocol is correct for any
//! // number of caches, with exactly five essential states.
//! let report = verify(&protocols::illinois());
//! assert_eq!(report.verdict, Verdict::Verified);
//! assert_eq!(report.num_essential(), 5);
//!
//! // ...and a protocol with a seeded bug is rejected with a
//! // counterexample path.
//! let spec = protocols::illinois_missing_invalidation();
//! let buggy = verify(&spec);
//! assert_eq!(buggy.verdict, Verdict::Erroneous);
//! let first = &buggy.expansion.errors[0];
//! assert!(buggy.expansion.render_path(&spec, first.node).contains("-->"));
//! ```
//!
//! ## Module map
//!
//! | module | paper concept |
//! |--------|---------------|
//! | [`rep`] | repetition operators & their interval semantics (Def. 6, §3.2.2) |
//! | [`fval`] | characteristic-function values `v1/v2/v3` (App. A.1) |
//! | [`composite`] | composite states, covering, containment (Defs. 7–9) |
//! | [`small`] | inline small vectors backing class lists |
//! | [`intern`] | hash-consed composite arena with copyable ids |
//! | [`istate`] | internalisation/emission between operators and exact intervals |
//! | [`expand`] | one-step expansion rules (§3.2.3) with data tracking (§2.4) |
//! | [`check`] | erroneous-state predicates (§2.1, Def. 3) |
//! | [`index`] | signature-bucketed containment index over live nodes |
//! | [`engine`] | essential-states worklist (Fig. 3, Def. 10) |
//! | [`reference`](mod@reference) | retained naive engine — differential-test oracle |
//! | [`graph`] | global transition diagram (Fig. 4) + DOT export |
//! | [`verify`](mod@verify) | verification reports: the run and its verdict |
//! | [`session`] | batch verification sessions |
//! | [`crosscheck`](mod@crosscheck) | Theorem 1 check against `ccv-enum`'s explicit states |
//! | [`api`] | versioned request/response API and its runner, [`SessionRunner`] |
//!
//! ## Observability
//!
//! Every engine entry point accepts an [`ccv_observe::EventSink`]
//! through its options (see [`CommonOptions`]); attach a
//! [`ccv_observe::Metrics`] collector to get visit/prune counters,
//! per-phase wall time and an exportable JSON snapshot:
//!
//! ```
//! use std::sync::Arc;
//! use ccv_core::{verify_with, EventSink, Options};
//! use ccv_model::protocols;
//! use ccv_observe::{Counter, Metrics};
//!
//! let metrics = Arc::new(Metrics::new());
//! let opts = Options::default().sink(metrics.clone() as Arc<dyn EventSink>);
//! let report = verify_with(&protocols::illinois(), &opts);
//! assert_eq!(metrics.snapshot().counter(Counter::Visits), 22);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod check;
pub mod compare;
pub mod composite;
pub mod crosscheck;
pub mod engine;
pub mod expand;
pub mod fval;
pub mod graph;
pub mod index;
pub mod intern;
pub mod istate;
pub mod recovery;
pub mod reference;
pub mod rep;
pub mod session;
pub mod small;
pub mod verify;

pub use api::{
    essential_states_json, Action, ApiError, CheckpointOutcome, CrosscheckResponse, EnumErrorInfo,
    EnumerateResponse, ErrorCode, Payload, ProtocolSource, Request, RequestOptions, Response,
    ResumeInfo, RunContext, SessionRunner, VerifyResponse, REQUEST_SCHEMA, RESPONSE_SCHEMA,
};
pub use check::{check as check_state, Violation};
pub use compare::{compare_protocols, DiffReport, Role};
pub use composite::{ClassKey, ClassSig, Composite, MAX_INLINE_CLASSES};
pub use crosscheck::{
    concrete_covered_by, crosscheck, crosscheck_with, find_state_witness, CrossCheck,
};
pub use engine::{
    expand as run_expansion, expand_from, expand_with, EngineScratch, Expansion, NodeId, Options,
    PathWriter, Pruning,
};
pub use expand::{
    successors, successors_into, ExpandScratch, Label, StepError, StepErrors, Transition,
};
pub use fval::FVal;
pub use graph::{global_graph, GlobalGraph, GraphEdge};
pub use index::ContainmentIndex;
pub use intern::{CompositeArena, CompositeId};
pub use recovery::{analyze_recovery, RecoveryCase, RecoveryReport, Tolerance};
pub use reference::{reference_expand, reference_expand_from};
pub use rep::{Interval, Rep};
pub use session::{Batch, RunSummary};
pub use verify::{verify, verify_with, verify_with_scratch, Outcome, Verdict, VerificationReport};

// Re-exported so downstream users configure observability without a
// direct ccv-observe dependency.
pub use ccv_observe::{
    CancelToken, CommonOptions, EventSink, Metrics, SinkHandle, StopCause, StopInfo,
};
