//! The Xerox Dragon protocol — write-update with write-back.
//!
//! Like Firefly, Dragon never invalidates and relies on the
//! sharing-detection function (the *SharedLine*), but writes to shared
//! blocks are **not** written through: the most recent writer owns the
//! block in state `Shared-Dirty` and is responsible for supplying it and
//! eventually writing it back. States: `Invalid` (absent),
//! `Valid-Exclusive` (clean, only cached copy), `Shared-Clean`
//! (replicated, not owner), `Shared-Dirty` (replicated, owner),
//! `Dirty` (modified, only cached copy).

use crate::ProtocolSpec;

/// The Dragon protocol, parsed from `protocols/dragon.ccv`.
///
/// * The owner, if any, supplies a read miss without updating memory.
/// * A shared write miss is one atomic `BusUpd` carrying the fill and
///   the update. The writer becomes the owner (`Shared-Dirty`), and
///   memory is untouched.
/// * A write from `Shared-Clean` takes ownership. A write that finds
///   no other copy collapses to `Dirty`.
/// * On `BusUpd`, a previous owner or exclusive holder hands ownership
///   to the writer and becomes `Shared-Clean`.
pub fn dragon() -> ProtocolSpec {
    super::library("dragon")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, DataOp, GlobalCtx, ProcEvent};

    #[test]
    fn uses_sharing_detection_with_five_states() {
        let p = dragon();
        assert!(p.uses_sharing_detection());
        assert_eq!(p.num_states(), 5);
    }

    #[test]
    fn shared_writes_do_not_touch_memory() {
        let p = dragon();
        let sc = p.state_by_name("Shared-Clean").unwrap();
        let o = p.outcome(sc, ProcEvent::Write, GlobalCtx::SHARED_CLEAN);
        match o.data {
            DataOp::Write {
                through, broadcast, ..
            } => {
                assert!(!through, "Dragon is write-back: no memory update");
                assert!(broadcast);
            }
            other => panic!("expected a write, got {other:?}"),
        }
        assert_eq!(o.next, p.state_by_name("Shared-Dirty").unwrap());
    }

    #[test]
    fn writer_takes_ownership_previous_owner_degrades() {
        let p = dragon();
        let sd = p.state_by_name("Shared-Dirty").unwrap();
        let s = p.snoop(sd, BusOp::Update);
        assert_eq!(s.next, p.state_by_name("Shared-Clean").unwrap());
        assert!(s.receives_update);
    }

    #[test]
    fn owner_supplies_on_read_miss_without_flushing() {
        let p = dragon();
        for owner in ["Shared-Dirty", "Dirty"] {
            let s = p.snoop(p.state_by_name(owner).unwrap(), BusOp::Read);
            assert!(s.supplies_data, "{owner}");
            assert!(
                !s.flushes_to_memory,
                "{owner}: Dragon never flushes on a read miss"
            );
            assert_eq!(s.next, p.state_by_name("Shared-Dirty").unwrap(), "{owner}");
        }
    }

    #[test]
    fn nothing_is_ever_invalidated() {
        let p = dragon();
        for s in p.valid_states() {
            for bus in BusOp::ALL {
                assert_ne!(p.snoop(s, bus).next, p.invalid());
            }
        }
    }

    #[test]
    fn lone_writer_collapses_to_dirty() {
        let p = dragon();
        for st in ["Shared-Clean", "Shared-Dirty"] {
            let o = p.outcome(
                p.state_by_name(st).unwrap(),
                ProcEvent::Write,
                GlobalCtx::ALONE,
            );
            assert_eq!(o.next, p.state_by_name("Dirty").unwrap(), "{st}");
        }
    }

    #[test]
    fn replacement_writeback_only_for_owners() {
        let p = dragon();
        for (st, wb) in [
            ("V-Ex", false),
            ("Shared-Clean", false),
            ("Shared-Dirty", true),
            ("Dirty", true),
        ] {
            let o = p.outcome(
                p.state_by_name(st).unwrap(),
                ProcEvent::Replace,
                GlobalCtx::ALONE,
            );
            assert_eq!(o.data, DataOp::Evict { writeback: wb }, "{st}");
        }
    }
}
