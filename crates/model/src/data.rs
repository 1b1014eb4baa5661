//! Data-consistency context variables (Definitions 3 and 4).
//!
//! To verify that a protocol "always returns the latest value on each
//! load" (§2.2), the paper augments the global state with *context
//! variables*: each cache `Cᵢ` carries `cdataᵢ ∈ {nodata, fresh,
//! obsolete}` and memory carries `mdata ∈ {fresh, obsolete}` (§2.4).
//! A store makes the writer's copy `fresh`, demotes every other
//! un-updated copy and (for write-back protocols) memory to `obsolete`;
//! a fill copies the freshness of its source. A reachable state in which
//! a processor can read an `obsolete` copy is an *erroneous* state
//! (Definition 3) and the protocol is incorrect.
//!
//! This module defines the value domains and [`DataOp`], the declarative
//! description of how a transition moves data. The actual update rules
//! are implemented once, in protocol-independent form, by
//! `ccv-core::expand` (symbolic) and `ccv-enum::step` (explicit),
//! both driven by the same `DataOp`.

use core::fmt;

/// Freshness of a cached copy — the paper's `cdata` domain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CData {
    /// The cache holds no data for the block (`nodata`).
    #[default]
    NoData,
    /// The copy equals the latest stored value (`fresh`).
    Fresh,
    /// The copy predates the latest store (`obsolete`). Readable
    /// obsolete copies are the data-inconsistency the verifier hunts.
    Obsolete,
}

impl CData {
    /// All values, in canonical order.
    pub const ALL: [CData; 3] = [CData::NoData, CData::Fresh, CData::Obsolete];

    /// Dense index into [`CData::ALL`], for array- and bitmask-backed
    /// structures keyed by `(state, cdata)` class slots.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Paper-style lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            CData::NoData => "nodata",
            CData::Fresh => "fresh",
            CData::Obsolete => "obsolete",
        }
    }
}

impl fmt::Display for CData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Freshness of the memory copy — the paper's `mdata` domain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MData {
    /// Memory holds the latest stored value.
    #[default]
    Fresh,
    /// Memory is stale; some cache owns the latest value.
    Obsolete,
}

impl MData {
    /// All values, in canonical order.
    pub const ALL: [MData; 2] = [MData::Fresh, MData::Obsolete];

    /// Paper-style lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            MData::Fresh => "fresh",
            MData::Obsolete => "obsolete",
        }
    }

    /// Conversion to the cache-side domain (memory always "holds data").
    pub fn as_cdata(self) -> CData {
        match self {
            MData::Fresh => CData::Fresh,
            MData::Obsolete => CData::Obsolete,
        }
    }
}

impl fmt::Display for MData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Declarative description of the data movement performed by one
/// protocol transition, from the originator's point of view.
///
/// Together with the snoop table (which says who supplies data, who
/// flushes to memory, and who receives broadcast updates —
/// [`crate::SnoopOutcome`]), a `DataOp` fully determines the update of
/// the `cdata`/`mdata` context variables:
///
/// * a **fill** reads from the bus response: if any snooper supplies the
///   block the data comes from that cache, otherwise from memory —
///   *after* any snooper flushes have updated memory (the atomic
///   transaction assumption of §2.4);
/// * a **write** creates a new value: the writer becomes `fresh`, memory
///   becomes `obsolete` unless the transition writes through, and every
///   other surviving copy becomes `obsolete` unless it received the
///   broadcast update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DataOp {
    /// No data movement (read hit, silent write permission change with
    /// no store — unused by shipped protocols but available).
    #[default]
    None,
    /// Read: the originator consumes the block. `fill = true` when the
    /// block is (re)loaded from the bus (read miss); `fill = false` for
    /// a read hit on the local copy.
    Read {
        /// Block is loaded from the bus response.
        fill: bool,
    },
    /// Write: the originator stores a new value.
    Write {
        /// Block is first loaded from the bus response (write miss).
        fill: bool,
        /// The new value is simultaneously written to main memory
        /// (write-through, e.g. Write-Once's first write or Firefly's
        /// shared write).
        through: bool,
        /// The new value is broadcast to other caches, which update in
        /// place if their snoop reaction has
        /// [`crate::SnoopOutcome::receives_update`] set.
        broadcast: bool,
    },
    /// Replacement: the block leaves the cache. `writeback = true`
    /// copies the victim to memory first (owned states).
    Evict {
        /// The victim is written back to memory.
        writeback: bool,
    },
}

impl DataOp {
    /// True iff the transition stores a new value (any `Write`).
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, DataOp::Write { .. })
    }

    /// True iff the transition loads the block from the bus.
    #[inline]
    pub fn is_fill(self) -> bool {
        matches!(
            self,
            DataOp::Read { fill: true } | DataOp::Write { fill: true, .. }
        )
    }

    /// True iff the local processor observes (reads) the block value as
    /// part of this transition — used to flag stale-read errors exactly
    /// when a value is consumed.
    #[inline]
    pub fn observes_value(self) -> bool {
        matches!(self, DataOp::Read { .. })
    }
}

/// A stale access observed while applying a concrete transition — the
/// erroneous behaviours of Definition 3, attributed to the cache that
/// performed them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConcreteError {
    /// Cache `cache` read its local copy while it was obsolete.
    StaleReadHit {
        /// The offending cache index.
        cache: usize,
    },
    /// Cache `cache` filled a miss from an obsolete source.
    StaleFill {
        /// The offending cache index.
        cache: usize,
    },
}

/// The symbolic engine's wording, prefixed with the offending cache:
/// `cache 0: miss filled from an obsolete source`.
impl fmt::Display for ConcreteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcreteError::StaleReadHit { cache } => {
                write!(f, "cache {cache}: processor read an obsolete local copy")
            }
            ConcreteError::StaleFill { cache } => {
                write!(f, "cache {cache}: miss filled from an obsolete source")
            }
        }
    }
}

/// Maximum cache index representable by an [`ErrorMask`].
pub const ERROR_MASK_MAX_CACHES: usize = 16;

/// A packed set of [`ConcreteError`]s for machines of up to 16 caches.
///
/// The explicit-state enumeration kernel generates millions of
/// successors per second; almost none of them carry errors, so the
/// error set must be `Copy` and allocation-free. Bit `i` records a
/// stale read hit by cache `i`, bit `16 + i` a stale fill by cache `i`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ErrorMask(u32);

impl ErrorMask {
    /// The empty set.
    pub const EMPTY: ErrorMask = ErrorMask(0);

    #[inline]
    fn bit(err: ConcreteError) -> u32 {
        match err {
            ConcreteError::StaleReadHit { cache } => {
                debug_assert!(cache < ERROR_MASK_MAX_CACHES);
                1 << cache
            }
            ConcreteError::StaleFill { cache } => {
                debug_assert!(cache < ERROR_MASK_MAX_CACHES);
                1 << (ERROR_MASK_MAX_CACHES + cache)
            }
        }
    }

    /// Adds `err` to the set.
    #[inline]
    pub fn insert(&mut self, err: ConcreteError) {
        self.0 |= Self::bit(err);
    }

    /// True iff `err` is in the set.
    #[inline]
    pub fn contains(self, err: ConcreteError) -> bool {
        self.0 & Self::bit(err) != 0
    }

    /// True iff no error has been recorded.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of recorded errors.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates the recorded errors, stale read hits first, each group
    /// in cache order.
    pub fn iter(self) -> impl Iterator<Item = ConcreteError> {
        let mask = self.0;
        (0..ERROR_MASK_MAX_CACHES)
            .filter(move |i| mask & (1 << i) != 0)
            .map(|cache| ConcreteError::StaleReadHit { cache })
            .chain(
                (0..ERROR_MASK_MAX_CACHES)
                    .filter(move |i| mask & (1 << (ERROR_MASK_MAX_CACHES + i)) != 0)
                    .map(|cache| ConcreteError::StaleFill { cache }),
            )
    }
}

impl fmt::Debug for ErrorMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<ConcreteError> for ErrorMask {
    fn from_iter<T: IntoIterator<Item = ConcreteError>>(iter: T) -> ErrorMask {
        let mut m = ErrorMask::EMPTY;
        for e in iter {
            m.insert(e);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(CData::NoData.to_string(), "nodata");
        assert_eq!(CData::Fresh.to_string(), "fresh");
        assert_eq!(CData::Obsolete.to_string(), "obsolete");
        assert_eq!(MData::Fresh.to_string(), "fresh");
        assert_eq!(MData::Obsolete.to_string(), "obsolete");
    }

    #[test]
    fn mdata_to_cdata() {
        assert_eq!(MData::Fresh.as_cdata(), CData::Fresh);
        assert_eq!(MData::Obsolete.as_cdata(), CData::Obsolete);
    }

    #[test]
    fn dataop_classification() {
        assert!(DataOp::Write {
            fill: true,
            through: false,
            broadcast: false
        }
        .is_store());
        assert!(!DataOp::Read { fill: true }.is_store());
        assert!(DataOp::Read { fill: true }.is_fill());
        assert!(!DataOp::Read { fill: false }.is_fill());
        assert!(DataOp::Write {
            fill: true,
            through: false,
            broadcast: false
        }
        .is_fill());
        assert!(DataOp::Read { fill: false }.observes_value());
        assert!(!DataOp::Evict { writeback: true }.observes_value());
        assert!(!DataOp::None.is_fill());
    }

    #[test]
    fn error_mask_roundtrips_every_error() {
        let mut m = ErrorMask::EMPTY;
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        for cache in 0..ERROR_MASK_MAX_CACHES {
            m.insert(ConcreteError::StaleReadHit { cache });
            m.insert(ConcreteError::StaleFill { cache });
        }
        assert_eq!(m.len(), 2 * ERROR_MASK_MAX_CACHES);
        for cache in 0..ERROR_MASK_MAX_CACHES {
            assert!(m.contains(ConcreteError::StaleReadHit { cache }));
            assert!(m.contains(ConcreteError::StaleFill { cache }));
        }
        assert_eq!(m.iter().count(), 2 * ERROR_MASK_MAX_CACHES);
    }

    #[test]
    fn error_mask_is_idempotent_and_order_stable() {
        let mut m = ErrorMask::EMPTY;
        m.insert(ConcreteError::StaleFill { cache: 3 });
        m.insert(ConcreteError::StaleFill { cache: 3 });
        m.insert(ConcreteError::StaleReadHit { cache: 1 });
        assert_eq!(m.len(), 2);
        let listed: Vec<ConcreteError> = m.iter().collect();
        assert_eq!(
            listed,
            vec![
                ConcreteError::StaleReadHit { cache: 1 },
                ConcreteError::StaleFill { cache: 3 },
            ]
        );
        let rebuilt: ErrorMask = listed.into_iter().collect();
        assert_eq!(rebuilt, m);
    }
}
