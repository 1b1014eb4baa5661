//! The five-state MOESI protocol (Sweazey & Smith's framework).
//!
//! Adds an `Owned` state to MESI: a modified block can be shared
//! without first being written back — the owner supplies it on misses
//! and retains write-back responsibility, while readers hold it
//! `Shared`. The `Exclusive` fill requires the sharing-detection
//! function, as in Illinois.

use crate::ProtocolSpec;

/// The MOESI protocol, parsed from `protocols/moesi.ccv`. A write hit on
/// `Owned` invalidates the other copies to concentrate ownership.
pub fn moesi() -> ProtocolSpec {
    super::library("moesi")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, GlobalCtx, ProcEvent};

    #[test]
    fn five_states_with_sharing_detection() {
        let p = moesi();
        assert_eq!(p.num_states(), 5);
        assert!(p.uses_sharing_detection());
    }

    #[test]
    fn modified_degrades_to_owned_without_flush() {
        let p = moesi();
        let m = p.state_by_name("Modified").unwrap();
        let snoop = p.snoop(m, BusOp::Read);
        assert_eq!(snoop.next, p.state_by_name("Owned").unwrap());
        assert!(snoop.supplies_data);
        assert!(!snoop.flushes_to_memory, "MOESI: no flush on remote read");
    }

    #[test]
    fn owned_and_modified_write_back() {
        let p = moesi();
        for st in ["Owned", "Modified"] {
            let out = p.outcome(
                p.state_by_name(st).unwrap(),
                ProcEvent::Replace,
                GlobalCtx::ALONE,
            );
            assert_eq!(out.bus, Some(BusOp::WriteBack), "{st}");
        }
    }

    #[test]
    fn exclusive_fill_needs_empty_system() {
        let p = moesi();
        let e = p.state_by_name("Exclusive").unwrap();
        let s = p.state_by_name("Shared").unwrap();
        assert_eq!(
            p.outcome(p.invalid(), ProcEvent::Read, GlobalCtx::ALONE)
                .next,
            e
        );
        assert_eq!(
            p.outcome(p.invalid(), ProcEvent::Read, GlobalCtx::OWNED_ELSEWHERE)
                .next,
            s
        );
    }

    #[test]
    fn owned_is_shared_modified_is_exclusive() {
        let p = moesi();
        let o = p.state_by_name("Owned").unwrap();
        let m = p.state_by_name("Modified").unwrap();
        assert!(p.attrs(o).owned && !p.attrs(o).exclusive);
        assert!(p.attrs(m).owned && p.attrs(m).exclusive);
    }
}
