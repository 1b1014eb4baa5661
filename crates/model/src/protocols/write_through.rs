//! The minimal write-through invalidate protocol.
//!
//! Two states: `Invalid` and `Valid`. Every store is written through
//! to memory and broadcast as an invalidation, so memory is always
//! fresh and replacement is always silent. This is the simplest
//! coherent protocol and the degenerate baseline of every protocol
//! comparison (all the write-back designs exist to beat it on bus
//! traffic). Null characteristic function.

use crate::ProtocolSpec;

/// The write-through invalidate protocol, parsed from
/// `protocols/write-through.ccv`.
pub fn write_through() -> ProtocolSpec {
    super::library("write-through")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, Characteristic, DataOp, GlobalCtx, ProcEvent};

    #[test]
    fn two_states_null_characteristic() {
        let p = write_through();
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.characteristic(), Characteristic::Null);
        assert_eq!(p.owned_states().count(), 0, "nothing is ever dirty");
    }

    #[test]
    fn every_write_reaches_memory() {
        let p = write_through();
        let v = p.state_by_name("Valid").unwrap();
        for (st, ev) in [(p.invalid(), ProcEvent::Write), (v, ProcEvent::Write)] {
            let o = p.outcome(st, ev, GlobalCtx::ALONE);
            match o.data {
                DataOp::Write { through, .. } => assert!(through),
                other => panic!("expected write, got {other:?}"),
            }
        }
    }

    #[test]
    fn replacement_is_always_silent() {
        let p = write_through();
        let v = p.state_by_name("Valid").unwrap();
        let o = p.outcome(v, ProcEvent::Replace, GlobalCtx::ALONE);
        assert_eq!(o.bus, None);
        assert_eq!(o.data, DataOp::Evict { writeback: false });
    }

    #[test]
    fn remote_writes_invalidate() {
        let p = write_through();
        let v = p.state_by_name("Valid").unwrap();
        assert_eq!(p.snoop(v, BusOp::Upgrade).next, p.invalid());
        assert_eq!(p.snoop(v, BusOp::ReadX).next, p.invalid());
    }
}
