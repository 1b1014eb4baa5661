//! The protocol library.
//!
//! Every snooping protocol evaluated by Archibald & Baer \[1\] — the set
//! the paper's methodology was applied to in the companion tech report
//! \[12\] — plus the textbook MSI and MOESI protocols, two
//! split-transaction protocols, and a family of deliberately *buggy*
//! mutants used to demonstrate error detection.
//!
//! Each library protocol has exactly one definition: its file
//! `protocols/<name>.ccv` at the repository root, written in the
//! [`crate::dsl`] language. The files are compiled into the crate, each
//! is parsed and validated at most once per process, and every
//! constructor hands out a clone. The per-protocol modules keep the
//! paper's account of each protocol and the unit tests that hold the
//! file to it.
//!
//! The buggy mutants are built from the library protocols with the
//! mutation API (`override_*`). They relax only the validations that
//! would reject the very bug they model (they remain well-formed FSMs —
//! the bug is in the protocol logic, exactly the class of error the
//! verifier exists to catch).
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

use std::sync::OnceLock;

use crate::dsl::parse_protocol;
use crate::ProtocolSpec;

/// Pairs each listed name with the text of `protocols/<name>.ccv`.
macro_rules! library {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../protocols/", $name, ".ccv")))),*]
    };
}

/// The library: each protocol's canonical name and its `.ccv` source,
/// the atomic protocols first, in the order [`all_correct`] and
/// [`all_non_atomic`] return them.
const LIBRARY: [(&str, &str); 12] = library![
    "write-through",
    "msi",
    "illinois",
    "mesi-mem",
    "write-once",
    "synapse",
    "berkeley",
    "firefly",
    "dragon",
    "moesi",
    "split-msi",
    "split-mesi",
];

/// Other spellings [`by_name`] accepts, each with its canonical name.
const ALIASES: [(&str, &str); 8] = [
    ("write_through", "write-through"),
    ("mesi_mem", "mesi-mem"),
    ("mesi", "illinois"),
    ("write_once", "write-once"),
    ("writeonce", "write-once"),
    ("goodman", "write-once"),
    ("split_msi", "split-msi"),
    ("split_mesi", "split-mesi"),
];

/// A buggy mutant: its [`by_name`] name, its constructor and a short
/// description of the seeded bug.
type Mutant = (&'static str, fn() -> ProtocolSpec, &'static str);

/// The buggy mutants, in the order [`all_buggy`] returns them.
const MUTANTS: [Mutant; 11] = [
    (
        "illinois-missing-invalidation",
        illinois_missing_invalidation,
        "Shared snooper ignores BusUpgr: remote copies survive a write hit",
    ),
    (
        "illinois-missing-writeback",
        illinois_missing_writeback,
        "Dirty replacement drops the block without writing it back",
    ),
    (
        "illinois-wrong-exclusive-fill",
        illinois_wrong_exclusive_fill,
        "read miss always fills Valid-Exclusive, even when copies exist",
    ),
    (
        "illinois-dirty-no-flush-on-read",
        illinois_dirty_no_flush_on_read,
        "Dirty snooper supplies on BusRd but forgets the simultaneous memory update",
    ),
    (
        "synapse-dirty-ignores-busrd",
        synapse_dirty_ignores_busrd,
        "Dirty snooper ignores BusRd: requester fills from stale memory",
    ),
    (
        "berkeley-owner-dropped",
        berkeley_owner_dropped,
        "owned Shared-Dirty replacement drops the only fresh copy",
    ),
    (
        "dragon-missing-update",
        dragon_missing_update,
        "Shared-Clean snooper does not absorb BusUpd broadcasts",
    ),
    (
        "firefly-missing-writethrough",
        firefly_missing_writethrough,
        "shared writes skip the memory write-through Firefly relies on",
    ),
    (
        "write-once-missing-writethrough",
        write_once_missing_writethrough,
        "first write reaches Reserved without the write-through",
    ),
    (
        "split-msi-upgrade-race-lost",
        split_msi_upgrade_race_lost,
        "pending upgrade ignores a racing BusUpgr: both upgraders reach Modified",
    ),
    (
        "split-msi-ignores-readx",
        split_msi_ignores_readx,
        "pending upgrade ignores a racing BusRdX: completes against an invalidated copy",
    ),
];

/// The protocol at `LIBRARY[index]`, parsed on first use.
fn library_spec(index: usize) -> ProtocolSpec {
    static PARSED: [OnceLock<ProtocolSpec>; LIBRARY.len()] =
        [const { OnceLock::new() }; LIBRARY.len()];
    PARSED[index]
        .get_or_init(|| {
            let (name, source) = LIBRARY[index];
            parse_protocol(source).unwrap_or_else(|e| panic!("protocols/{name}.ccv:{e}"))
        })
        .clone()
}

/// The library protocol with canonical name `name`.
fn library(name: &str) -> ProtocolSpec {
    let index = LIBRARY.iter().position(|&(n, _)| n == name);
    library_spec(index.unwrap_or_else(|| panic!("{name} is not a library protocol")))
}

/// Constructs every *correct* atomic protocol in the library, in a
/// stable order. This is the set used by the "all protocols" experiments
/// (E5) and the cross-validation suite (E7).
pub fn all_correct() -> Vec<ProtocolSpec> {
    (0..LIBRARY.len())
        .map(library_spec)
        .filter(|p| !p.has_transients())
        .collect()
}

/// Constructs every correct **non-atomic** (split-transaction)
/// protocol, in a stable order. Kept separate from [`all_correct`]
/// because the atomic differential suites pin that set.
pub fn all_non_atomic() -> Vec<ProtocolSpec> {
    (0..LIBRARY.len())
        .map(library_spec)
        .filter(ProtocolSpec::has_transients)
        .collect()
}

/// Constructs every *buggy* mutant in the library, in a stable order,
/// together with a short description of the seeded bug. This is the set
/// used by the bug-detection experiment (E6).
pub fn all_buggy() -> Vec<(ProtocolSpec, &'static str)> {
    MUTANTS
        .iter()
        .map(|&(_, build, why)| (build(), why))
        .collect()
}

/// Looks a protocol up by case-insensitive name. Buggy mutants are
/// addressable by their constructor name.
pub fn by_name(name: &str) -> Option<ProtocolSpec> {
    let lower = name.to_ascii_lowercase();
    let name = ALIASES
        .iter()
        .find(|&&(alias, _)| alias == lower)
        .map_or(lower.as_str(), |&(_, canonical)| canonical);
    if let Some(index) = LIBRARY.iter().position(|&(n, _)| n == name) {
        return Some(library_spec(index));
    }
    MUTANTS
        .iter()
        .find(|&&(n, ..)| n == name)
        .map(|&(_, build, _)| build())
}

/// Canonical names accepted by [`by_name`], library protocols first,
/// for CLI help and fuzzing.
pub const PROTOCOL_NAMES: &[&str] = &{
    let mut names = [""; LIBRARY.len() + MUTANTS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = if i < LIBRARY.len() {
            LIBRARY[i].0
        } else {
            MUTANTS[i - LIBRARY.len()].0
        };
        i += 1;
    }
    names
};

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
