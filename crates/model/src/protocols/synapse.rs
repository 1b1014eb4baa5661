//! The Synapse N+1 protocol.
//!
//! A minimal ownership protocol with no cache-to-cache transfer and no
//! invalidate-without-data signal. States: `Invalid`, `Valid` (clean),
//! `Dirty` (modified, only cached copy). Its two idiosyncrasies:
//!
//! * a `Dirty` snooper does **not** supply the block on a remote miss —
//!   it aborts the transaction, writes its copy back to memory and
//!   invalidates itself; the requester then obtains the (now fresh)
//!   block from memory;
//! * there is no upgrade signal, so a write hit on a `Valid` block is
//!   handled exactly like a write miss (a full `BusRdX`).
//!
//! Null characteristic function.

use crate::ProtocolSpec;

/// The Synapse protocol, parsed from `protocols/synapse.ccv`. The
/// `BusRdX` of a write hit on `Valid` models no fill: the cache already
/// holds the data.
pub fn synapse() -> ProtocolSpec {
    super::library("synapse")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, Characteristic, GlobalCtx, ProcEvent};

    #[test]
    fn builds_with_three_states() {
        let p = synapse();
        assert_eq!(p.num_states(), 3);
        assert_eq!(p.characteristic(), Characteristic::Null);
    }

    #[test]
    fn valid_write_hit_is_a_bus_write_miss() {
        let p = synapse();
        let v = p.state_by_name("Valid").unwrap();
        let o = p.outcome(v, ProcEvent::Write, GlobalCtx::ALONE);
        assert_eq!(o.bus, Some(BusOp::ReadX), "no upgrade signal in Synapse");
        assert_eq!(o.next, p.state_by_name("Dirty").unwrap());
    }

    #[test]
    fn dirty_snooper_aborts_flushes_and_invalidates() {
        let p = synapse();
        let d = p.state_by_name("Dirty").unwrap();
        for bus in [BusOp::Read, BusOp::ReadX] {
            let s = p.snoop(d, bus);
            assert!(s.flushes_to_memory, "{bus}: must write back");
            assert!(
                !s.supplies_data,
                "{bus}: Synapse never supplies cache-to-cache"
            );
            assert_eq!(s.next, p.invalid(), "{bus}: owner invalidates itself");
        }
    }

    #[test]
    fn read_miss_lands_valid_regardless_of_context() {
        let p = synapse();
        let v = p.state_by_name("Valid").unwrap();
        for c in GlobalCtx::ALL {
            assert_eq!(p.outcome(p.invalid(), ProcEvent::Read, c).next, v);
        }
    }
}
