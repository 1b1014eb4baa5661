//! The textbook three-state write-invalidate protocol (MSI).
//!
//! States: `Invalid`, `Shared` (clean, possibly replicated), `Modified`
//! (dirty, exclusive). Memory supplies clean blocks; a `Modified`
//! snooper supplies the block and flushes it to memory on a remote read
//! and hands the (about-to-be-overwritten) block to the requester on a
//! remote write. The characteristic function is null: an MSI cache's
//! next state never depends on the rest of the system.

use crate::ProtocolSpec;

/// The MSI protocol, parsed from `protocols/msi.ccv`.
pub fn msi() -> ProtocolSpec {
    super::library("msi")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, Characteristic, GlobalCtx, ProcEvent};

    #[test]
    fn builds_and_has_three_states() {
        let p = msi();
        assert_eq!(p.num_states(), 3);
        assert_eq!(p.characteristic(), Characteristic::Null);
        assert!(!p.uses_sharing_detection());
    }

    #[test]
    fn read_miss_is_ctx_independent() {
        let p = msi();
        let inv = p.invalid();
        let sh = p.state_by_name("Shared").unwrap();
        for c in GlobalCtx::ALL {
            assert_eq!(p.outcome(inv, ProcEvent::Read, c).next, sh);
        }
    }

    #[test]
    fn modified_snooper_flushes_on_remote_read() {
        let p = msi();
        let m = p.state_by_name("Modified").unwrap();
        let s = p.snoop(m, BusOp::Read);
        assert!(s.flushes_to_memory && s.supplies_data);
        assert_eq!(s.next, p.state_by_name("Shared").unwrap());
    }

    #[test]
    fn shared_write_emits_upgrade() {
        let p = msi();
        let sh = p.state_by_name("Shared").unwrap();
        let o = p.outcome(sh, ProcEvent::Write, GlobalCtx::SHARED_CLEAN);
        assert_eq!(o.bus, Some(BusOp::Upgrade));
        assert_eq!(o.next, p.state_by_name("Modified").unwrap());
    }

    #[test]
    fn only_modified_is_owned() {
        let p = msi();
        let owned: Vec<_> = p.owned_states().collect();
        assert_eq!(owned, vec![p.state_by_name("Modified").unwrap()]);
    }
}
