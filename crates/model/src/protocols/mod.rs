//! The protocol library.
//!
//! Every snooping protocol evaluated by Archibald & Baer \[1\] — the set
//! the paper's methodology was applied to in the companion tech report
//! \[12\] — plus the textbook MSI and MOESI protocols and a family of
//! deliberately *buggy* mutants used to demonstrate error detection.
//!
//! All constructors return fully validated [`crate::ProtocolSpec`]s; the
//! buggy mutants relax only the validations that would reject the very
//! bug they model (they remain well-formed FSMs — the bug is in the
//! protocol logic, exactly the class of error the verifier exists to
//! catch).
//!
//! \[1\]: J. Archibald and J.-L. Baer, "Cache Coherence Protocols:
//!      Evaluation Using a Multiprocessor Simulation Model", ACM TOCS
//!      4(4), 1986.
//! \[12\]: F. Pong and M. Dubois, "The Verification of Cache Coherence
//!      Protocols", USC Tech. Rep. CENG-92-20, 1992.

mod berkeley;
mod buggy;
mod dragon;
mod firefly;
mod illinois;
mod mesi_mem;
mod moesi;
mod msi;
mod split_mesi;
mod split_msi;
mod synapse;
mod write_once;
mod write_through;

pub use berkeley::berkeley;
pub use buggy::{
    berkeley_owner_dropped, dragon_missing_update, firefly_missing_writethrough,
    illinois_dirty_no_flush_on_read, illinois_missing_invalidation, illinois_missing_writeback,
    illinois_wrong_exclusive_fill, synapse_dirty_ignores_busrd, write_once_missing_writethrough,
};
pub use dragon::dragon;
pub use firefly::firefly;
pub use illinois::illinois;
pub use mesi_mem::mesi_mem;
pub use moesi::moesi;
pub use msi::msi;
pub use split_mesi::split_mesi;
pub use split_msi::{split_msi, split_msi_ignores_readx, split_msi_upgrade_race_lost};
pub use synapse::synapse;
pub use write_once::write_once;
pub use write_through::write_through;

use crate::ProtocolSpec;

/// Constructs every *correct* protocol in the library, in a stable
/// order. This is the set used by the "all protocols" experiments (E5)
/// and the cross-validation suite (E7).
pub fn all_correct() -> Vec<ProtocolSpec> {
    vec![
        write_through(),
        msi(),
        illinois(),
        mesi_mem(),
        write_once(),
        synapse(),
        berkeley(),
        firefly(),
        dragon(),
        moesi(),
    ]
}

/// Constructs every correct **non-atomic** (split-transaction)
/// protocol, in a stable order. Kept separate from [`all_correct`]
/// because the atomic differential suites pin that set.
pub fn all_non_atomic() -> Vec<ProtocolSpec> {
    vec![split_msi(), split_mesi()]
}

/// Constructs every *buggy* mutant in the library, in a stable order,
/// together with a short description of the seeded bug. This is the set
/// used by the bug-detection experiment (E6).
pub fn all_buggy() -> Vec<(ProtocolSpec, &'static str)> {
    vec![
        (
            illinois_missing_invalidation(),
            "Shared snooper ignores BusUpgr: remote copies survive a write hit",
        ),
        (
            illinois_missing_writeback(),
            "Dirty replacement drops the block without writing it back",
        ),
        (
            illinois_wrong_exclusive_fill(),
            "read miss always fills Valid-Exclusive, even when copies exist",
        ),
        (
            illinois_dirty_no_flush_on_read(),
            "Dirty snooper supplies on BusRd but forgets the simultaneous memory update",
        ),
        (
            synapse_dirty_ignores_busrd(),
            "Dirty snooper ignores BusRd: requester fills from stale memory",
        ),
        (
            berkeley_owner_dropped(),
            "owned Shared-Dirty replacement drops the only fresh copy",
        ),
        (
            dragon_missing_update(),
            "Shared-Clean snooper does not absorb BusUpd broadcasts",
        ),
        (
            firefly_missing_writethrough(),
            "shared writes skip the memory write-through Firefly relies on",
        ),
        (
            write_once_missing_writethrough(),
            "first write reaches Reserved without the write-through",
        ),
        (
            split_msi_upgrade_race_lost(),
            "pending upgrade ignores a racing BusUpgr: both upgraders reach Modified",
        ),
        (
            split_msi_ignores_readx(),
            "pending upgrade ignores a racing BusRdX: completes against an invalidated copy",
        ),
    ]
}

/// Looks a protocol up by case-insensitive name. Buggy mutants are
/// addressable by their constructor name.
pub fn by_name(name: &str) -> Option<ProtocolSpec> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "msi" => Some(msi()),
        "write-through" | "write_through" => Some(write_through()),
        "mesi-mem" | "mesi_mem" => Some(mesi_mem()),
        "illinois" | "mesi" => Some(illinois()),
        "write-once" | "write_once" | "writeonce" | "goodman" => Some(write_once()),
        "synapse" => Some(synapse()),
        "berkeley" => Some(berkeley()),
        "firefly" => Some(firefly()),
        "dragon" => Some(dragon()),
        "moesi" => Some(moesi()),
        "split-msi" | "split_msi" => Some(split_msi()),
        "split-mesi" | "split_mesi" => Some(split_mesi()),
        "split-msi-upgrade-race-lost" => Some(split_msi_upgrade_race_lost()),
        "split-msi-ignores-readx" => Some(split_msi_ignores_readx()),
        "illinois-missing-invalidation" => Some(illinois_missing_invalidation()),
        "illinois-missing-writeback" => Some(illinois_missing_writeback()),
        "illinois-wrong-exclusive-fill" => Some(illinois_wrong_exclusive_fill()),
        "illinois-dirty-no-flush-on-read" => Some(illinois_dirty_no_flush_on_read()),
        "synapse-dirty-ignores-busrd" => Some(synapse_dirty_ignores_busrd()),
        "berkeley-owner-dropped" => Some(berkeley_owner_dropped()),
        "dragon-missing-update" => Some(dragon_missing_update()),
        "firefly-missing-writethrough" => Some(firefly_missing_writethrough()),
        "write-once-missing-writethrough" => Some(write_once_missing_writethrough()),
        _ => None,
    }
}

/// Names accepted by [`by_name`], for CLI help and fuzzing.
pub const PROTOCOL_NAMES: &[&str] = &[
    "write-through",
    "msi",
    "mesi-mem",
    "illinois",
    "write-once",
    "synapse",
    "berkeley",
    "firefly",
    "dragon",
    "moesi",
    "split-msi",
    "split-mesi",
    "split-msi-upgrade-race-lost",
    "split-msi-ignores-readx",
    "illinois-missing-invalidation",
    "illinois-missing-writeback",
    "illinois-wrong-exclusive-fill",
    "illinois-dirty-no-flush-on-read",
    "synapse-dirty-ignores-busrd",
    "berkeley-owner-dropped",
    "dragon-missing-update",
    "firefly-missing-writethrough",
    "write-once-missing-writethrough",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_correct_protocols_build() {
        let all = all_correct();
        assert_eq!(all.len(), 10);
        for p in &all {
            assert!(p.num_states() >= 2, "{} too small", p.name());
        }
    }

    #[test]
    fn all_buggy_protocols_build() {
        let all = all_buggy();
        assert_eq!(all.len(), 11);
    }

    #[test]
    fn non_atomic_set_is_separate_from_the_atomic_set() {
        let split = all_non_atomic();
        assert_eq!(split.len(), 2);
        for p in &split {
            assert!(p.has_transients(), "{} should have transients", p.name());
        }
        for p in all_correct() {
            assert!(!p.has_transients(), "{} must stay atomic", p.name());
        }
    }

    #[test]
    fn by_name_resolves_every_listed_name() {
        for name in PROTOCOL_NAMES {
            assert!(by_name(name).is_some(), "{name} did not resolve");
        }
        assert!(by_name("Illinois").is_some(), "case-insensitive lookup");
        assert!(by_name("no-such-protocol").is_none());
    }

    #[test]
    fn correct_protocol_names_are_unique() {
        let all = all_correct();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
