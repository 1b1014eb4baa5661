//! Goodman's Write-Once protocol.
//!
//! The first write to a block is written *through* to memory (which
//! doubles as the invalidation broadcast); subsequent writes are local.
//! States: `Invalid`, `Valid` (clean, possibly replicated), `Reserved`
//! (clean, written through exactly once, only cached copy — memory is
//! up to date), `Dirty` (modified, only cached copy). Null
//! characteristic function: no transition depends on the rest of the
//! system.

use crate::ProtocolSpec;

/// The Write-Once protocol, parsed from `protocols/write-once.ccv`. A
/// remote read degrades `Reserved` to `Valid`. A `Dirty` snooper
/// inhibits memory, supplies the block and writes it back in the same
/// transaction.
pub fn write_once() -> ProtocolSpec {
    super::library("write-once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, Characteristic, DataOp, GlobalCtx, ProcEvent};

    #[test]
    fn builds_with_four_states_null_characteristic() {
        let p = write_once();
        assert_eq!(p.num_states(), 4);
        assert_eq!(p.characteristic(), Characteristic::Null);
    }

    #[test]
    fn first_write_goes_through_to_memory() {
        let p = write_once();
        let v = p.state_by_name("Valid").unwrap();
        let o = p.outcome(v, ProcEvent::Write, GlobalCtx::ALONE);
        assert_eq!(o.next, p.state_by_name("Reserved").unwrap());
        assert_eq!(o.bus, Some(BusOp::Upgrade));
        assert_eq!(
            o.data,
            DataOp::Write {
                fill: false,
                through: true,
                broadcast: false
            }
        );
    }

    #[test]
    fn second_write_is_local() {
        let p = write_once();
        let r = p.state_by_name("Reserved").unwrap();
        let o = p.outcome(r, ProcEvent::Write, GlobalCtx::ALONE);
        assert_eq!(o.bus, None);
        assert_eq!(o.next, p.state_by_name("Dirty").unwrap());
    }

    #[test]
    fn reserved_is_clean_exclusive() {
        let p = write_once();
        let r = p.state_by_name("Reserved").unwrap();
        assert!(p.attrs(r).exclusive);
        assert!(!p.attrs(r).owned, "Reserved is memory-consistent");
        // and therefore needs no write-back on replacement:
        let o = p.outcome(r, ProcEvent::Replace, GlobalCtx::ALONE);
        assert_eq!(o.data, DataOp::Evict { writeback: false });
    }

    #[test]
    fn reserved_degrades_to_valid_on_remote_read() {
        let p = write_once();
        let r = p.state_by_name("Reserved").unwrap();
        assert_eq!(
            p.snoop(r, BusOp::Read).next,
            p.state_by_name("Valid").unwrap()
        );
    }

    #[test]
    fn dirty_supplies_and_flushes_on_remote_read() {
        let p = write_once();
        let d = p.state_by_name("D").unwrap();
        let s = p.snoop(d, BusOp::Read);
        assert!(s.supplies_data && s.flushes_to_memory);
        assert_eq!(s.next, p.state_by_name("Valid").unwrap());
    }
}
