//! Packed concrete global states.
//!
//! The explicit-state engines enumerate the Cartesian product of `n`
//! individual cache states (Definition 2), augmented with the
//! data-consistency context variables of Definition 4. To keep the
//! visited set compact and hashing cheap, an entire augmented global
//! state packs into a single `u128`:
//!
//! ```text
//! bits   0..64   cache protocol states, 4 bits each (n ≤ 16)
//! bits  64..96   cache cdata values,    2 bits each
//! bit       96   mdata (0 = fresh, 1 = obsolete)
//! ```
//!
//! The per-cache layout also gives a cheap **counting-equivalence**
//! canonicalisation (Definition 5): sort the per-cache
//! `(state, cdata)` codes — permutations of symmetric caches then
//! collapse to one representative.

use ccv_model::{CData, MData, ProtocolSpec, StateId};
use core::fmt;

/// Maximum number of caches an explicit state can describe.
pub const MAX_CACHES: usize = 16;

/// A packed augmented global state for `n ≤ 16` caches.
///
/// The cache count is *not* stored; every accessor takes the index and
/// the engines carry `n` alongside (it is constant per run).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackedState(pub u128);

impl PackedState {
    /// The initial state: every cache invalid with no data, memory
    /// fresh.
    pub const INITIAL: PackedState = PackedState(0);

    /// Protocol state of cache `i`.
    #[inline]
    pub fn state(self, i: usize) -> StateId {
        debug_assert!(i < MAX_CACHES);
        StateId(((self.0 >> (4 * i)) & 0xF) as u8)
    }

    /// Returns a copy with cache `i` in `s`.
    #[inline]
    pub fn with_state(self, i: usize, s: StateId) -> PackedState {
        debug_assert!(i < MAX_CACHES);
        debug_assert!(s.0 < 16, "state id exceeds 4-bit packing");
        let shift = 4 * i;
        PackedState((self.0 & !(0xFu128 << shift)) | ((s.0 as u128) << shift))
    }

    /// Data freshness of cache `i`.
    #[inline]
    pub fn cdata(self, i: usize) -> CData {
        debug_assert!(i < MAX_CACHES);
        match (self.0 >> (64 + 2 * i)) & 0x3 {
            0 => CData::NoData,
            1 => CData::Fresh,
            _ => CData::Obsolete,
        }
    }

    /// Returns a copy with cache `i` holding `cd`.
    #[inline]
    pub fn with_cdata(self, i: usize, cd: CData) -> PackedState {
        debug_assert!(i < MAX_CACHES);
        let code: u128 = match cd {
            CData::NoData => 0,
            CData::Fresh => 1,
            CData::Obsolete => 2,
        };
        let shift = 64 + 2 * i;
        PackedState((self.0 & !(0x3u128 << shift)) | (code << shift))
    }

    /// Memory freshness.
    #[inline]
    pub fn mdata(self) -> MData {
        if (self.0 >> 96) & 1 == 0 {
            MData::Fresh
        } else {
            MData::Obsolete
        }
    }

    /// Returns a copy with the given memory freshness.
    #[inline]
    pub fn with_mdata(self, m: MData) -> PackedState {
        match m {
            MData::Fresh => PackedState(self.0 & !(1u128 << 96)),
            MData::Obsolete => PackedState(self.0 | (1u128 << 96)),
        }
    }

    /// The 6-bit **cache code** of cache `i`: `state << 2 | cdata`,
    /// with `cdata` 0 = nodata, 1 = fresh, 2 = obsolete (3 never
    /// occurs). This is the one definition of the code: canonical
    /// sorting keys on it, and the spec's per-code tables
    /// ([`ProtocolSpec::snoop_image`], [`ProtocolSpec::snoop_roles`])
    /// are indexed by it.
    #[inline]
    pub fn cache_code(self, i: usize) -> u8 {
        let s = ((self.0 >> (4 * i)) & 0xF) as u8;
        let c = ((self.0 >> (64 + 2 * i)) & 0x3) as u8;
        (s << 2) | c
    }

    /// Counting-equivalence canonical form (Definition 5): the
    /// representative with per-cache codes sorted ascending. Two states
    /// are permutations of each other iff their canonical forms are
    /// equal.
    ///
    /// The 6-bit codes are sorted by a counting sort over the 64
    /// possible values — branchless histogram + emit, measurably faster
    /// than a comparison sort at `n ≤ 16` and allocation-free, since
    /// this runs once per visit in `Dedup::Counting` mode.
    pub fn canonical(self, n: usize) -> PackedState {
        debug_assert!(n <= MAX_CACHES);
        let mut histogram = [0u8; 64];
        for i in 0..n {
            histogram[self.cache_code(i) as usize] += 1;
        }
        let mut out = PackedState(0).with_mdata(self.mdata());
        let mut slot = 0usize;
        for (code, &count) in histogram.iter().enumerate() {
            for _ in 0..count {
                out = out.with_state(slot, StateId((code >> 2) as u8));
                out = out.with_cdata(
                    slot,
                    match code & 0x3 {
                        0 => CData::NoData,
                        1 => CData::Fresh,
                        _ => CData::Obsolete,
                    },
                );
                slot += 1;
            }
        }
        out
    }

    /// Number of caches among the first `n` whose state holds a copy.
    pub fn copies(self, n: usize, spec: &ProtocolSpec) -> usize {
        (0..n)
            .filter(|&i| spec.attrs(self.state(i)).holds_copy)
            .count()
    }

    /// Renders the state with protocol names, e.g.
    /// `[Dirty Inv Inv | fresh nodata nodata | m:obsolete]`.
    pub fn render(self, n: usize, spec: &ProtocolSpec) -> String {
        let states: Vec<&str> = (0..n)
            .map(|i| spec.state(self.state(i)).short.as_str())
            .collect();
        let data: Vec<&str> = (0..n).map(|i| self.cdata(i).label()).collect();
        format!(
            "[{} | {} | m:{}]",
            states.join(" "),
            data.join(" "),
            self.mdata()
        )
    }
}

impl fmt::Debug for PackedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedState({:#034x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_all_invalid_fresh() {
        let s = PackedState::INITIAL;
        for i in 0..MAX_CACHES {
            assert_eq!(s.state(i), StateId::INVALID);
            assert_eq!(s.cdata(i), CData::NoData);
        }
        assert_eq!(s.mdata(), MData::Fresh);
    }

    #[test]
    fn state_roundtrip_does_not_disturb_neighbours() {
        let mut s = PackedState::INITIAL;
        s = s.with_state(3, StateId(5)).with_state(4, StateId(9));
        assert_eq!(s.state(3), StateId(5));
        assert_eq!(s.state(4), StateId(9));
        assert_eq!(s.state(2), StateId(0));
        assert_eq!(s.state(5), StateId(0));
        s = s.with_state(3, StateId(1));
        assert_eq!(s.state(3), StateId(1));
        assert_eq!(s.state(4), StateId(9));
    }

    #[test]
    fn cdata_roundtrip() {
        let mut s = PackedState::INITIAL;
        s = s
            .with_cdata(0, CData::Fresh)
            .with_cdata(15, CData::Obsolete);
        assert_eq!(s.cdata(0), CData::Fresh);
        assert_eq!(s.cdata(15), CData::Obsolete);
        assert_eq!(s.cdata(7), CData::NoData);
        s = s.with_cdata(0, CData::NoData);
        assert_eq!(s.cdata(0), CData::NoData);
        assert_eq!(s.cdata(15), CData::Obsolete);
    }

    #[test]
    fn mdata_roundtrip() {
        let s = PackedState::INITIAL.with_mdata(MData::Obsolete);
        assert_eq!(s.mdata(), MData::Obsolete);
        assert_eq!(s.with_mdata(MData::Fresh).mdata(), MData::Fresh);
    }

    #[test]
    fn canonical_collapses_permutations() {
        let a = PackedState::INITIAL
            .with_state(0, StateId(2))
            .with_cdata(0, CData::Fresh)
            .with_state(1, StateId(1))
            .with_cdata(1, CData::Obsolete);
        let b = PackedState::INITIAL
            .with_state(1, StateId(2))
            .with_cdata(1, CData::Fresh)
            .with_state(0, StateId(1))
            .with_cdata(0, CData::Obsolete);
        assert_ne!(a, b);
        assert_eq!(a.canonical(2), b.canonical(2));
        // Canonicalisation is idempotent.
        assert_eq!(a.canonical(2).canonical(2), a.canonical(2));
    }

    #[test]
    fn canonical_distinguishes_different_multisets() {
        let a = PackedState::INITIAL
            .with_state(0, StateId(2))
            .with_cdata(0, CData::Fresh);
        let b = PackedState::INITIAL
            .with_state(0, StateId(3))
            .with_cdata(0, CData::Fresh);
        assert_ne!(a.canonical(2), b.canonical(2));
        // ...and different cdata on the same state.
        let c = PackedState::INITIAL
            .with_state(0, StateId(2))
            .with_cdata(0, CData::Obsolete);
        assert_ne!(a.canonical(2), c.canonical(2));
        // ...and mdata.
        assert_ne!(a.canonical(2), a.with_mdata(MData::Obsolete).canonical(2));
    }

    #[test]
    fn copies_counts_valid_states() {
        let spec = ccv_model::protocols::illinois();
        let sh = spec.state_by_name("Shared").unwrap();
        let s = PackedState::INITIAL.with_state(0, sh).with_state(2, sh);
        assert_eq!(s.copies(3, &spec), 2);
        assert_eq!(s.copies(1, &spec), 1);
    }

    #[test]
    fn render_is_readable() {
        let spec = ccv_model::protocols::illinois();
        let d = spec.state_by_name("Dirty").unwrap();
        let s = PackedState::INITIAL
            .with_state(0, d)
            .with_cdata(0, CData::Fresh)
            .with_mdata(MData::Obsolete);
        let r = s.render(2, &spec);
        assert!(r.contains("Dirty"), "{r}");
        assert!(r.contains("m:obsolete"), "{r}");
    }
}
