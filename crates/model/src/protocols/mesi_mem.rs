//! Standard MESI with memory-reflective fills ("MESI-Mem").
//!
//! The same four states as Illinois, but clean blocks are always
//! supplied by memory (no cache-to-cache transfer for clean data), as
//! in most commercial MESI implementations; and a `Modified` snooper
//! flushes on *both* remote reads and remote writes, so memory is
//! never left stale across an ownership change. Behaviourally (in the
//! sense of `ccv_core::compare`) the global diagram differs from
//! Illinois only in the memory-freshness annotations of the
//! ownership-transfer edges.

use crate::ProtocolSpec;

/// The memory-reflective MESI protocol, parsed from
/// `protocols/mesi-mem.ccv`.
pub fn mesi_mem() -> ProtocolSpec {
    super::library("mesi-mem")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::illinois;
    use crate::BusOp;

    #[test]
    fn builds_with_sharing_detection() {
        let p = mesi_mem();
        assert_eq!(p.num_states(), 4);
        assert!(p.uses_sharing_detection());
    }

    #[test]
    fn clean_states_do_not_supply() {
        let p = mesi_mem();
        for st in ["Exclusive", "Shared"] {
            let id = p.state_by_name(st).unwrap();
            for bus in [BusOp::Read, BusOp::ReadX] {
                assert!(!p.snoop(id, bus).supplies_data, "{st} on {bus}");
            }
        }
        // ...unlike Illinois, where they do.
        let ill = illinois();
        let ve = ill.state_by_name("V-Ex").unwrap();
        assert!(ill.snoop(ve, BusOp::Read).supplies_data);
    }

    #[test]
    fn modified_flushes_on_remote_write_too() {
        let p = mesi_mem();
        let m = p.state_by_name("Modified").unwrap();
        assert!(p.snoop(m, BusOp::ReadX).flushes_to_memory);
        // Illinois hands the stale-memory burden to the new writer.
        let ill = illinois();
        let d = ill.state_by_name("Dirty").unwrap();
        assert!(!ill.snoop(d, BusOp::ReadX).flushes_to_memory);
    }
}
