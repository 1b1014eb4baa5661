//! # ccv-model — protocol FSM model and protocol library
//!
//! The foundation of the `ccv` cache-coherence verification suite: a
//! table-driven representation of snooping cache coherence protocols as
//! the deterministic finite state machines `M = (Q, Σ, F, δ)` of
//!
//! > F. Pong and M. Dubois, *"The Verification of Cache Coherence
//! > Protocols"*, SPAA 1993.
//!
//! One validated [`ProtocolSpec`] drives every engine in the workspace:
//!
//! * the **symbolic verifier** (`ccv-core`) expands composite states
//!   over an arbitrary number of caches;
//! * the **enumerative baseline** (`ccv-enum`) explores the explicit
//!   state space of `n` caches;
//! * the **trace simulator** (`ccv-sim`) executes the protocol against
//!   synthetic multiprocessor workloads.
//!
//! ## Model at a glance
//!
//! * [`StateId`]/[`StateInfo`]/[`StateAttrs`] — the state symbols `Q`
//!   with protocol-independent semantic attributes (presence,
//!   ownership, exclusivity) from which the verifier derives the
//!   structural "permissible state" predicates of §2.1.
//! * [`ProcEvent`] — the operation alphabet `Σ = {R, W, Rep}`.
//! * [`GlobalCtx`]/[`Characteristic`] — the characteristic function `F`
//!   (null, or the sharing-detection function of Illinois/Firefly/
//!   Dragon).
//! * [`BusOp`]/[`SnoopOutcome`] — broadcast transactions and the
//!   *coincident transitions* they induce in every other cache.
//! * [`CData`]/[`MData`]/[`DataOp`] — the data-consistency context
//!   variables of Definitions 3–4 and the declarative data movement of
//!   each transition.
//! * [`ProtocolSpec`]/[`SpecBuilder`] — the validated protocol object.
//! * [`dsl`] — the `.ccv` protocol description language: parser,
//!   lowering onto [`SpecBuilder`], and the printer behind `ccv export`.
//! * [`protocols`] — Illinois plus every protocol of Archibald & Baer's
//!   study, MSI/MOESI, two split-transaction protocols, and
//!   deliberately buggy mutants. Each library protocol is defined once,
//!   by its checked-in `protocols/<name>.ccv` file, which this crate
//!   compiles in and parses on first use.
//!
//! ## Example
//!
//! ```
//! use ccv_model::{protocols, GlobalCtx, ProcEvent};
//!
//! let illinois = protocols::illinois();
//! let invalid = illinois.invalid();
//! // A read miss while another cache holds the block fills Shared...
//! let shared = illinois
//!     .outcome(invalid, ProcEvent::Read, GlobalCtx::SHARED_CLEAN)
//!     .next;
//! assert_eq!(illinois.state(shared).name, "Shared");
//! // ...but fills Valid-Exclusive when the cache is alone.
//! let ve = illinois
//!     .outcome(invalid, ProcEvent::Read, GlobalCtx::ALONE)
//!     .next;
//! assert_eq!(illinois.state(ve).name, "Valid-Exclusive");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bus;
mod connectivity;
mod context;
mod data;
mod event;
mod spec;
mod state;

pub mod dsl;
pub mod local_graph;
pub mod mutate;
pub mod protocols;

pub use bus::{BusOp, SnoopOutcome};
pub use connectivity::strongly_connected;
pub use context::{Characteristic, GlobalCtx};
pub use data::{CData, DataOp, MData, StepError, StepErrors};
pub use event::ProcEvent;
pub use spec::{Outcome, ProtocolSpec, SpecBuilder, SpecError, TransientInfo};
pub use state::{StateAttrs, StateId, StateInfo};
