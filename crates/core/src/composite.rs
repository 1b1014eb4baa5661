//! Composite states (Definition 7) and augmented composite states
//! (Definition 4) in one canonical representation.
//!
//! A composite state groups the caches of a system with an *arbitrary*
//! number of caches into classes, one per cache state, each adorned
//! with a repetition operator. We additionally key each class by the
//! paper's per-cache context variable `cdata` (Definition 4): two
//! caches in the same protocol state but with different data freshness
//! belong to different classes. For *correct* protocols the two keys
//! coincide (every readable copy is fresh) and the representation
//! collapses to the paper's; for buggy protocols the split is what lets
//! the engine track which copies went stale.
//!
//! The global context variable `mdata` (memory freshness) and the
//! summarised characteristic-function value [`FVal`] complete the
//! state. Structural covering (Definition 8) and containment
//! (Definition 9) are implemented here.

use crate::fval::FVal;
use crate::rep::Rep;
use crate::small::InlineVec;
use ccv_model::{CData, MData, ProtocolSpec, StateId};
use core::fmt;

/// Number of class slots stored inline in a [`Composite`] before
/// spilling to the heap. A composite of a protocol with `v` valid
/// states holds at most `2v + 1` classes (fresh + obsolete per valid
/// state, plus the invalid class); the richest shipped protocols
/// (Dragon, MOESI) have five valid states, so 12 inline slots cover
/// every realistic spec without allocating.
pub const MAX_INLINE_CLASSES: usize = 12;

pub(crate) type ClassVec = InlineVec<(ClassKey, Rep), MAX_INLINE_CLASSES>;

/// The identity of a cache-state class: protocol state plus the
/// per-class data-freshness context variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassKey {
    /// The protocol state of every cache in the class.
    pub state: StateId,
    /// The freshness of every copy in the class (`NoData` exactly when
    /// the state holds no copy).
    pub cdata: CData,
}

impl ClassKey {
    /// Class of caches in `state` holding fresh data.
    pub fn fresh(state: StateId) -> ClassKey {
        ClassKey {
            state,
            cdata: CData::Fresh,
        }
    }

    /// Class of caches in `state` holding obsolete data.
    pub fn obsolete(state: StateId) -> ClassKey {
        ClassKey {
            state,
            cdata: CData::Obsolete,
        }
    }

    /// The invalid class (no copy, no data).
    pub fn invalid() -> ClassKey {
        ClassKey {
            state: StateId::INVALID,
            cdata: CData::NoData,
        }
    }

    /// Dense class-slot id, mirroring `ProtocolSpec::class_slot`:
    /// `state.index() * |CData| + cdata.index()`.
    #[inline]
    pub fn slot(self) -> usize {
        self.state.index() * CData::ALL.len() + self.cdata.index()
    }
}

impl Default for ClassKey {
    /// The invalid class — a neutral filler value for inline buffers.
    fn default() -> ClassKey {
        ClassKey::invalid()
    }
}

/// Compressed structural signature of a composite's classes, used by
/// the containment index to reject non-candidates without touching the
/// class vectors.
///
/// Each mask holds bit `slot % 64` of every class with the named
/// property: `support` of every present class, `nonstar` of every
/// class whose operator does not admit zero (`1` or `+`), `one` of
/// every singleton and `star` of every `*` class. Containment implies
/// four set inclusions between these sets (see `index.rs`), and because
/// a mask is a union of per-class bits, set inclusion implies mask
/// inclusion even when slots collide modulo 64 — so the mask tests are
/// a sound (never excluding) prefilter for both containment
/// directions; the full `contained_in` check confirms every candidate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ClassSig {
    /// One bit per present class (operator `1`, `+` or `*`).
    pub support: u64,
    /// One bit per class that certainly holds at least one cache.
    pub nonstar: u64,
    /// One bit per class holding exactly one cache (operator `1`).
    pub one: u64,
    /// One bit per class that may hold none (operator `*`).
    pub star: u64,
}

impl ClassSig {
    /// The mask part of `self ⊑ other`: true whenever the composites
    /// behind the signatures (with equal `F` and `mdata`) satisfy
    /// containment, and — absent slot collisions — only then.
    #[inline]
    pub(crate) fn may_be_contained_in(self, other: ClassSig) -> bool {
        self.support & !other.support == 0
            && other.nonstar & !self.support == 0
            && self.star & !other.star == 0
            && other.one & !self.one == 0
    }
}

/// A canonical augmented composite state.
///
/// Invariants (enforced by [`Composite::new`]):
/// * classes are sorted by key and unique;
/// * no class carries [`Rep::Zero`];
/// * the invalid state's class always has `cdata == NoData`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Composite {
    classes: ClassVec,
    /// Freshness of the memory copy (the paper's `mdata`).
    pub mdata: MData,
    /// Summarised characteristic-function value.
    pub f: FVal,
}

impl Composite {
    /// Builds a canonical composite state from unordered class
    /// descriptions. Classes with [`Rep::Zero`] are dropped; duplicate
    /// keys are rejected.
    ///
    /// # Panics
    /// Panics if the same key appears twice, or if an invalid-state
    /// class carries data.
    pub fn new(classes: Vec<(ClassKey, Rep)>, mdata: MData, f: FVal) -> Composite {
        let mut cv = ClassVec::new();
        for &(k, r) in &classes {
            if r != Rep::Zero {
                cv.push((k, r));
            }
        }
        cv.sort_unstable_by_key(|&(k, _)| k);
        for w in cv.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate class key {:?}", w[0].0);
        }
        for &(k, _) in &cv {
            if k.state.is_invalid() {
                assert_eq!(k.cdata, CData::NoData, "invalid class must carry NoData");
            }
        }
        Composite {
            classes: cv,
            mdata,
            f,
        }
    }

    /// Builds a composite from classes that are already canonical
    /// (sorted by key, unique, no [`Rep::Zero`]) — the allocation-free
    /// construction used by the emit hot path.
    pub(crate) fn from_parts(classes: ClassVec, mdata: MData, f: FVal) -> Composite {
        debug_assert!(classes.windows(2).all(|w| w[0].0 < w[1].0), "not canonical");
        debug_assert!(classes.iter().all(|&(_, r)| r != Rep::Zero));
        debug_assert!(classes
            .iter()
            .all(|&(k, _)| !k.state.is_invalid() || k.cdata == CData::NoData));
        Composite { classes, mdata, f }
    }

    /// The structural signature used by the containment index.
    pub fn signature(&self) -> ClassSig {
        let mut sig = ClassSig::default();
        for &(k, r) in &self.classes {
            let bit = 1u64 << (k.slot() % 64);
            sig.support |= bit;
            match r {
                Rep::Star => sig.star |= bit,
                Rep::One => {
                    sig.one |= bit;
                    sig.nonstar |= bit;
                }
                Rep::Plus | Rep::Zero => sig.nonstar |= bit,
            }
        }
        sig
    }

    /// Heap bytes held by this composite beyond its inline size (`0`
    /// for every realistic protocol — classes fit inline).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.classes.heap_capacity() * core::mem::size_of::<(ClassKey, Rep)>()
    }

    /// The initial state of the expansion: every cache invalid
    /// (`(Invalid⁺)`), memory fresh — exactly the paper's §4.0 starting
    /// point. `F` is `v1` for sharing-detection protocols and `Null`
    /// otherwise.
    pub fn initial(spec: &ProtocolSpec) -> Composite {
        let f = if spec.uses_sharing_detection() {
            FVal::V1
        } else {
            FVal::Null
        };
        Composite::new(vec![(ClassKey::invalid(), Rep::Plus)], MData::Fresh, f)
    }

    /// The classes of the state, sorted by key.
    pub fn classes(&self) -> &[(ClassKey, Rep)] {
        &self.classes
    }

    /// The repetition operator of `key` (`Rep::Zero` if absent).
    pub fn rep_of(&self, key: ClassKey) -> Rep {
        self.classes
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, r)| r)
            .unwrap_or(Rep::Zero)
    }

    /// Number of distinct (nonempty) classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Structural covering (Definition 8): `self ≤ other` iff for every
    /// class key the operator of `self` is at most the operator of
    /// `other` in the information order — equivalently, every concrete
    /// population admitted by `self` is admitted by `other`.
    pub fn covered_by(&self, other: &Composite) -> bool {
        // Every class of self must be admitted by other...
        for &(k, r) in &self.classes {
            if !r.le(other.rep_of(k)) {
                return false;
            }
        }
        // ...and every class of other absent from self must admit zero.
        for &(k, r) in &other.classes {
            if self.rep_of(k) == Rep::Zero && !Rep::Zero.le(r) {
                return false;
            }
        }
        true
    }

    /// Containment (Definition 9): structural covering plus equal
    /// characteristic-function value — extended to the augmented state
    /// with equal memory freshness.
    pub fn contained_in(&self, other: &Composite) -> bool {
        self.f == other.f && self.mdata == other.mdata && self.covered_by(other)
    }

    /// Like [`Composite::render`], with a `·m!` suffix when the memory
    /// copy is obsolete — states in counterexample paths often differ
    /// only in memory freshness.
    pub fn render_full(&self, spec: &ProtocolSpec) -> String {
        let base = self.render(spec);
        if self.mdata == MData::Obsolete {
            format!("{base}·m!")
        } else {
            base
        }
    }

    /// Renders the state in the paper's notation, e.g.
    /// `(Shared⁺, Inv*)`. Valid classes come first, the invalid class
    /// last; obsolete classes are marked `¡state!`.
    pub fn render(&self, spec: &ProtocolSpec) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.classes.len());
        let mut invalid_part: Option<String> = None;
        for &(k, r) in &self.classes {
            let short = &spec.state(k.state).short;
            let body = match k.cdata {
                CData::Obsolete => format!("¡{short}!"),
                _ => short.clone(),
            };
            let rendered = format!("{body}{}", r.superscript());
            if k.state.is_invalid() {
                invalid_part = Some(rendered);
            } else {
                parts.push(rendered);
            }
        }
        if let Some(inv) = invalid_part {
            parts.push(inv);
        }
        format!("({})", parts.join(", "))
    }
}

impl fmt::Display for Composite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Protocol-independent rendering (state ids instead of names).
        let mut first = true;
        f.write_str("(")?;
        for &(k, r) in &self.classes {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            match k.cdata {
                CData::Obsolete => write!(f, "¡q{}!{}", k.state.0, r.superscript())?,
                _ => write!(f, "q{}{}", k.state.0, r.superscript())?,
            }
        }
        write!(f, ") f={} m={}", self.f, self.mdata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccv_model::protocols::illinois;

    fn key(state: u8) -> ClassKey {
        if state == 0 {
            ClassKey::invalid()
        } else {
            ClassKey::fresh(StateId(state))
        }
    }

    #[test]
    fn canonicalisation_sorts_and_drops_zero() {
        let c = Composite::new(
            vec![(key(3), Rep::One), (key(0), Rep::Star), (key(2), Rep::Zero)],
            MData::Fresh,
            FVal::V2,
        );
        assert_eq!(c.num_classes(), 2);
        assert_eq!(c.classes()[0].0, key(0));
        assert_eq!(c.rep_of(key(2)), Rep::Zero);
        assert_eq!(c.rep_of(key(3)), Rep::One);
    }

    #[test]
    #[should_panic(expected = "duplicate class key")]
    fn duplicate_keys_rejected() {
        let _ = Composite::new(
            vec![(key(1), Rep::One), (key(1), Rep::Plus)],
            MData::Fresh,
            FVal::V2,
        );
    }

    #[test]
    fn initial_state_matches_paper() {
        let spec = illinois();
        let init = Composite::initial(&spec);
        assert_eq!(init.f, FVal::V1);
        assert_eq!(init.mdata, MData::Fresh);
        assert_eq!(init.classes(), &[(ClassKey::invalid(), Rep::Plus)]);
        assert_eq!(init.render(&spec), "(Inv+)");
    }

    #[test]
    fn covering_matches_paper_s3_s4() {
        // s3 = (Shared⁺, Inv*) f=v3 ; s4 = (Shared, Inv⁺) f=v2.
        let spec = illinois();
        let sh = spec.state_by_name("Shared").unwrap();
        let s3 = Composite::new(
            vec![
                (ClassKey::fresh(sh), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V3,
        );
        let s4 = Composite::new(
            vec![
                (ClassKey::fresh(sh), Rep::One),
                (ClassKey::invalid(), Rep::Plus),
            ],
            MData::Fresh,
            FVal::V2,
        );
        // "s4 is structurally covered by s3 but is not contained in s3."
        assert!(s4.covered_by(&s3));
        assert!(!s4.contained_in(&s3), "F values differ (v2 vs v3)");
        assert!(!s3.covered_by(&s4));
    }

    #[test]
    fn covering_handles_missing_classes() {
        let a = Composite::new(vec![(key(1), Rep::One)], MData::Fresh, FVal::V2);
        let b = Composite::new(
            vec![(key(1), Rep::One), (key(0), Rep::Star)],
            MData::Fresh,
            FVal::V2,
        );
        // a has no Invalid class (zero); b admits zero invalids via *.
        assert!(a.covered_by(&b));
        assert!(a.contained_in(&b));
        // b admits populations with invalids that a does not.
        assert!(!b.covered_by(&a));
        // A missing class in the covering state rejects a Plus class.
        let c = Composite::new(
            vec![(key(1), Rep::One), (key(0), Rep::Plus)],
            MData::Fresh,
            FVal::V2,
        );
        assert!(!c.covered_by(&a));
    }

    #[test]
    fn containment_requires_equal_mdata() {
        let a = Composite::new(vec![(key(1), Rep::One)], MData::Fresh, FVal::V2);
        let b = Composite::new(vec![(key(1), Rep::One)], MData::Obsolete, FVal::V2);
        assert!(a.covered_by(&b));
        assert!(!a.contained_in(&b));
    }

    #[test]
    fn render_marks_obsolete_classes() {
        let spec = illinois();
        let sh = spec.state_by_name("Shared").unwrap();
        let c = Composite::new(
            vec![
                (ClassKey::obsolete(sh), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V3,
        );
        assert_eq!(c.render(&spec), "(¡Shared!+, Inv*)");
    }
}
