//! The Illinois protocol (Papamarcos & Patel) — the paper's running
//! example (§2.3 and Fig. 1).
//!
//! Four states: `Invalid`, `Valid-Exclusive` (clean, only cached copy),
//! `Shared` (clean, possibly replicated), `Dirty` (modified, only cached
//! copy). The characteristic function is the **sharing-detection**
//! function: a read miss fills `Valid-Exclusive` when no other cache
//! holds the block and `Shared` otherwise.
//!
//! Transition rules, verbatim from §2.3 of the paper:
//!
//! 1. *Read hit*: no coherence action.
//! 2. *Read miss*: a Dirty snooper supplies the block **and updates
//!    main memory at the same time**; both caches end `Shared`. If
//!    clean copies exist, one of them supplies and every holder ends
//!    `Shared`. With no cached copy, memory supplies a
//!    `Valid-Exclusive` copy.
//! 3. *Write hit*: `Dirty` stays silently; `Valid-Exclusive` turns
//!    `Dirty` silently; `Shared` invalidates all remote copies and
//!    turns `Dirty`.
//! 4. *Write miss*: like a read miss, but all remote copies are
//!    invalidated and the block is loaded `Dirty`.
//! 5. *Replacement*: a `Dirty` block is written back to main memory.

use crate::ProtocolSpec;

/// The Illinois protocol, parsed from `protocols/illinois.ccv`. On a
/// remote write miss a `Dirty` snooper hands its block to the
/// requester, which overwrites it, and leaves memory stale.
pub fn illinois() -> ProtocolSpec {
    super::library("illinois")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, GlobalCtx, ProcEvent};

    #[test]
    fn has_the_paper_state_set() {
        let p = illinois();
        assert_eq!(p.num_states(), 4);
        for name in ["Invalid", "Valid-Exclusive", "Shared", "Dirty"] {
            assert!(p.state_by_name(name).is_some(), "missing state {name}");
        }
        assert!(p.uses_sharing_detection());
    }

    #[test]
    fn read_miss_depends_on_sharing() {
        let p = illinois();
        let inv = p.invalid();
        let ve = p.state_by_name("V-Ex").unwrap();
        let sh = p.state_by_name("Shared").unwrap();
        assert_eq!(p.outcome(inv, ProcEvent::Read, GlobalCtx::ALONE).next, ve);
        assert_eq!(
            p.outcome(inv, ProcEvent::Read, GlobalCtx::SHARED_CLEAN)
                .next,
            sh
        );
        assert_eq!(
            p.outcome(inv, ProcEvent::Read, GlobalCtx::OWNED_ELSEWHERE)
                .next,
            sh
        );
    }

    #[test]
    fn valid_exclusive_writes_silently() {
        let p = illinois();
        let ve = p.state_by_name("V-Ex").unwrap();
        let o = p.outcome(ve, ProcEvent::Write, GlobalCtx::ALONE);
        assert_eq!(o.bus, None, "V-Ex write hit must be silent");
        assert_eq!(o.next, p.state_by_name("Dirty").unwrap());
    }

    #[test]
    fn dirty_flushes_on_remote_read_but_not_remote_write() {
        let p = illinois();
        let d = p.state_by_name("Dirty").unwrap();
        assert!(p.snoop(d, BusOp::Read).flushes_to_memory);
        assert_eq!(
            p.snoop(d, BusOp::Read).next,
            p.state_by_name("Shared").unwrap()
        );
        assert!(!p.snoop(d, BusOp::ReadX).flushes_to_memory);
        assert_eq!(p.snoop(d, BusOp::ReadX).next, p.invalid());
    }

    #[test]
    fn shared_write_invalidates_remotes() {
        let p = illinois();
        let sh = p.state_by_name("Shared").unwrap();
        let o = p.outcome(sh, ProcEvent::Write, GlobalCtx::SHARED_CLEAN);
        assert_eq!(o.bus, Some(BusOp::Upgrade));
        assert_eq!(p.snoop(sh, BusOp::Upgrade).next, p.invalid());
    }

    #[test]
    fn exclusivity_attributes_match_paper_semantics() {
        let p = illinois();
        assert!(p.attrs(p.state_by_name("V-Ex").unwrap()).exclusive);
        assert!(p.attrs(p.state_by_name("Dirty").unwrap()).exclusive);
        assert!(!p.attrs(p.state_by_name("Shared").unwrap()).exclusive);
        assert!(p.attrs(p.state_by_name("Dirty").unwrap()).owned);
        assert!(!p.attrs(p.state_by_name("V-Ex").unwrap()).owned);
    }
}
