//! The DEC Firefly protocol — write-update with write-through for
//! shared blocks.
//!
//! The paper (§2.1) cites Firefly, with Dragon, as the other family of
//! protocols requiring the sharing-detection characteristic function:
//! the bus's *SharedLine* tells the writer/filler whether other copies
//! exist. Blocks are never invalidated; writes to shared blocks are
//! broadcast and written through to memory, so every `Shared` copy and
//! memory stay identical. States: `Invalid` (absent), `Valid-Exclusive`
//! (clean, only cached copy), `Shared` (clean, replicated), `Dirty`
//! (modified, only cached copy).

use crate::ProtocolSpec;

/// The Firefly protocol, parsed from `protocols/firefly.ccv`.
///
/// * A shared write miss is one atomic `BusUpd`: the fill and the
///   update broadcast, written through to memory.
/// * A write to `Shared` that finds no other copy regains
///   `Valid-Exclusive`, clean because memory was just updated.
/// * No state reacts to `BusRdX` or `BusUpgr`, which are only emitted
///   when no other copy exists. On `BusUpd`, exclusive holders, clean
///   or dirty, degrade to `Shared`.
pub fn firefly() -> ProtocolSpec {
    super::library("firefly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, DataOp, GlobalCtx, ProcEvent};

    #[test]
    fn uses_sharing_detection() {
        let p = firefly();
        assert!(p.uses_sharing_detection());
        assert_eq!(p.num_states(), 4);
    }

    #[test]
    fn shared_write_is_written_through() {
        let p = firefly();
        let sh = p.state_by_name("Shared").unwrap();
        let o = p.outcome(sh, ProcEvent::Write, GlobalCtx::SHARED_CLEAN);
        assert_eq!(o.bus, Some(BusOp::Update));
        match o.data {
            DataOp::Write {
                through, broadcast, ..
            } => {
                assert!(through, "shared writes write through to memory");
                assert!(broadcast, "shared writes update remote copies");
            }
            other => panic!("expected a write, got {other:?}"),
        }
    }

    #[test]
    fn lone_shared_writer_regains_exclusivity() {
        let p = firefly();
        let sh = p.state_by_name("Shared").unwrap();
        let alone = p.outcome(sh, ProcEvent::Write, GlobalCtx::ALONE);
        assert_eq!(alone.next, p.state_by_name("V-Ex").unwrap());
        let shared = p.outcome(sh, ProcEvent::Write, GlobalCtx::SHARED_CLEAN);
        assert_eq!(shared.next, sh);
    }

    #[test]
    fn nothing_is_ever_invalidated() {
        let p = firefly();
        // No snoop reaction of a valid state leads to Invalid.
        for s in p.valid_states() {
            for bus in BusOp::ALL {
                assert_ne!(
                    p.snoop(s, bus).next,
                    p.invalid(),
                    "Firefly must never invalidate ({:?} on {bus})",
                    p.state(s).name
                );
            }
        }
    }

    #[test]
    fn snoopers_absorb_updates() {
        let p = firefly();
        let sh = p.state_by_name("Shared").unwrap();
        let d = p.state_by_name("Dirty").unwrap();
        assert!(p.snoop(sh, BusOp::Update).receives_update);
        assert!(p.snoop(d, BusOp::Update).receives_update);
        assert_eq!(p.snoop(d, BusOp::Update).next, sh);
    }

    #[test]
    fn shared_replacement_is_silent() {
        let p = firefly();
        let sh = p.state_by_name("Shared").unwrap();
        let o = p.outcome(sh, ProcEvent::Replace, GlobalCtx::SHARED_CLEAN);
        assert_eq!(o.bus, None, "write-through keeps Shared clean");
    }
}
