//! The Berkeley ownership protocol.
//!
//! Distinguishes *ownership* from *validity*: the owner of a block
//! supplies it on misses and is responsible for writing it back; main
//! memory may remain stale indefinitely while copies circulate cache to
//! cache. States: `Invalid`, `Valid` (clean, unowned, possibly
//! replicated), `Shared-Dirty` (owned, possibly replicated), `Dirty`
//! (owned, only cached copy). Null characteristic function.

use crate::ProtocolSpec;

/// The Berkeley protocol, parsed from `protocols/berkeley.ccv`. A write
/// hit on `Shared-Dirty` invalidates the other copies, concentrating
/// ownership.
pub fn berkeley() -> ProtocolSpec {
    super::library("berkeley")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, Characteristic, DataOp, GlobalCtx, ProcEvent};

    #[test]
    fn builds_with_four_states() {
        let p = berkeley();
        assert_eq!(p.num_states(), 4);
        assert_eq!(p.characteristic(), Characteristic::Null);
    }

    #[test]
    fn owner_supplies_without_memory_update() {
        let p = berkeley();
        for owner in ["Shared-Dirty", "Dirty"] {
            let s = p.snoop(p.state_by_name(owner).unwrap(), BusOp::Read);
            assert!(s.supplies_data, "{owner} must supply");
            assert!(
                !s.flushes_to_memory,
                "{owner} must not update memory (the point of Berkeley)"
            );
            assert_eq!(s.next, p.state_by_name("Shared-Dirty").unwrap());
        }
    }

    #[test]
    fn ownership_requires_writeback_on_replacement() {
        let p = berkeley();
        for owner in ["Shared-Dirty", "Dirty"] {
            let o = p.outcome(
                p.state_by_name(owner).unwrap(),
                ProcEvent::Replace,
                GlobalCtx::ALONE,
            );
            assert_eq!(o.data, DataOp::Evict { writeback: true }, "{owner}");
            assert_eq!(o.bus, Some(BusOp::WriteBack), "{owner}");
        }
        // ... while Valid replacement is silent.
        let o = p.outcome(
            p.state_by_name("V").unwrap(),
            ProcEvent::Replace,
            GlobalCtx::ALONE,
        );
        assert_eq!(o.data, DataOp::Evict { writeback: false });
    }

    #[test]
    fn shared_dirty_may_be_replicated_dirty_may_not() {
        let p = berkeley();
        let sd = p.state_by_name("Shared-Dirty").unwrap();
        let d = p.state_by_name("Dirty").unwrap();
        assert!(p.attrs(sd).owned && !p.attrs(sd).exclusive);
        assert!(p.attrs(d).owned && p.attrs(d).exclusive);
    }

    #[test]
    fn two_owned_states_exist() {
        let p = berkeley();
        assert_eq!(p.owned_states().count(), 2);
    }
}
