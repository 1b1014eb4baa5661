//! # ccv-enum — explicit-state enumeration baselines
//!
//! The conventional reachability analysis the paper improves upon
//! (§3.1): exhaustive exploration of the Cartesian-product state space
//! of a **fixed** number of caches, here in three flavours:
//!
//! * [`explicit::enumerate`] — the sequential worklist of the paper's
//!   Figure 2, with exact-duplicate pruning ([`Dedup::Exact`]) or the
//!   counting-equivalence pruning of Definition 5
//!   ([`Dedup::Counting`]);
//! * [`parallel::enumerate_parallel`] — a lock-free work-stealing
//!   parallel search (persistent worker pool + the [`visited`]
//!   claim-once set) producing identical reachable sets, visit counts
//!   and violation sets for any thread count;
//! * [`witness`] — the sequential search again, under a scheduler that
//!   records parents, for the shortest concrete scenario that ends in
//!   a violation or lands in a chosen family of states.
//!
//! These engines exist to *measure* the state-space explosion the
//! symbolic method avoids (experiment E4) and to cross-validate the
//! two implementations against each other (experiment E7). They track
//! the same augmented data-consistency variables (`cdata`/`mdata`,
//! Definition 4) and detect the same violations.
//!
//! This crate sits below `ccv-core`: it knows nothing of symbolic
//! states, and the Theorem 1 check that compares the two engines
//! (`ccv_core::crosscheck`) lives above both.
//!
//! ```
//! use ccv_enum::{enumerate, EnumOptions};
//! use ccv_model::protocols;
//!
//! let spec = protocols::illinois();
//! // Exhaustive search over all interleavings of 3 caches.
//! let result = enumerate(&spec, &EnumOptions::new(3));
//! assert!(result.is_clean());
//! // The explicit space for 3 caches is already far larger than the
//! // symbolic one (5 essential states for any number of caches).
//! assert!(result.distinct > 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod explicit;
pub mod fxhash;
pub mod packed;
pub mod parallel;
pub mod step;
pub mod visited;
pub mod witness;

pub use checkpoint::{protocol_hash, Checkpoint, CHECKPOINT_SCHEMA};
pub use explicit::{
    enumerate, enumerate_resumed, naive_visit_estimate, raw_state_space, reachable_states, Dedup,
    EnumError, EnumOptions, EnumResult, EnumSnapshot, ResumeSeed,
};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use packed::{PackedState, MAX_CACHES};
pub use parallel::{enumerate_parallel, enumerate_parallel_resumed};
pub use step::{describe_violations, is_violating, successors_into, ConcreteStep};
pub use visited::{AtomicVisited, ClaimStats};
pub use witness::{find_violation_witness, find_witness, Witness, WitnessSearch, WitnessStep};
