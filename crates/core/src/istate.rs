//! Interval states — the engine's exact working representation.
//!
//! A canonical [`Composite`] describes a *family* of concrete global
//! states through repetition operators plus the characteristic-function
//! value. To expand it, the engine first **internalises** the state:
//! the operators become exact count intervals and the copy-count
//! category ([`FVal`]) is folded into the intervals, branching where
//! the category constrains counts in a way the intervals alone cannot
//! express (e.g. `v2` = "exactly one copy" over several star classes).
//!
//! After a transition has been applied with plain interval arithmetic,
//! the successor is **emitted** back into canonical form: its possible
//! copy-count categories are enumerated, the intervals are tightened
//! under each category, and each tightened branch is coarsened to
//! repetition operators. This internalise → step → emit pipeline is
//! what replaces the paper's N-step expansion rules (§3.2.3, rule 4):
//! a single interval step through a `+` class, split by resulting
//! category, yields exactly the intermediate and terminal states the
//! N-step rules enumerate.
//!
//! Classes live in an [`InlineVec`], so interval states clone without
//! allocating; the `*_into` entry points write their results into
//! caller-owned buffers so the whole internalise → step → emit pipeline
//! reuses a fixed set of vectors across expansion steps.

use crate::composite::{ClassKey, ClassVec, Composite, MAX_INLINE_CLASSES};
use crate::fval::FVal;
use crate::rep::Interval;
use crate::small::InlineVec;
use ccv_model::{MData, ProtocolSpec};

type IClassVec = InlineVec<(ClassKey, Interval), MAX_INLINE_CLASSES>;
pub(crate) type KeyList = InlineVec<ClassKey, MAX_INLINE_CLASSES>;

/// An exact-interval global state: classes keyed like [`Composite`] but
/// populated by [`Interval`]s, plus the memory-freshness variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IState {
    classes: IClassVec,
    /// Freshness of the memory copy.
    pub mdata: MData,
}

impl IState {
    /// Creates an interval state, dropping certainly-empty classes and
    /// keeping classes sorted by key.
    pub fn new(classes: Vec<(ClassKey, Interval)>, mdata: MData) -> IState {
        let mut cv = IClassVec::new();
        for &(k, iv) in &classes {
            if !iv.is_zero() {
                cv.push((k, iv));
            }
        }
        cv.sort_unstable_by_key(|&(k, _)| k);
        debug_assert!(
            cv.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate class keys"
        );
        IState { classes: cv, mdata }
    }

    /// An interval state with no classes (allocation-free).
    pub(crate) fn empty(mdata: MData) -> IState {
        IState {
            classes: IClassVec::new(),
            mdata,
        }
    }

    /// The classes, sorted by key.
    pub fn classes(&self) -> &[(ClassKey, Interval)] {
        &self.classes
    }

    /// The interval of `key` (`[0,0]` if absent).
    pub fn get(&self, key: ClassKey) -> Interval {
        self.classes
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, iv)| iv)
            .unwrap_or(Interval::ZERO)
    }

    /// Replaces the interval of `key` (removing the class if the new
    /// interval is certainly zero).
    pub fn set(&mut self, key: ClassKey, iv: Interval) {
        if let Some(i) = self.classes.iter().position(|&(k, _)| k == key) {
            if iv.is_zero() {
                self.classes.remove(i);
            } else {
                self.classes[i].1 = iv;
            }
        } else if !iv.is_zero() {
            let pos = self
                .classes
                .iter()
                .position(|&(k, _)| k > key)
                .unwrap_or(self.classes.len());
            self.classes.insert(pos, (key, iv));
        }
    }

    /// Adds one cache to `key` (merging with the existing class).
    pub fn add_one(&mut self, key: ClassKey) {
        let iv = self.get(key);
        self.set(key, iv.plus_one());
    }

    /// Merges `count` caches into `key`.
    pub fn merge_into(&mut self, key: ClassKey, count: Interval) {
        if count.is_zero() {
            return;
        }
        let iv = self.get(key);
        self.set(key, iv.merge(count));
    }

    /// Total copy-count interval over classes whose state holds a copy:
    /// `(lo, unbounded)`.
    pub fn total_valid(&self, spec: &ProtocolSpec) -> (u32, bool) {
        let mut lo = 0u32;
        let mut unbounded = false;
        for &(k, iv) in &self.classes {
            if spec.attrs(k.state).holds_copy {
                lo += iv.lo;
                unbounded |= iv.unbounded;
            }
        }
        (lo, unbounded)
    }

    /// Conditions the class at `key` to be nonempty; `None` if
    /// infeasible.
    pub fn condition_nonempty(&self, key: ClassKey) -> Option<IState> {
        let iv = self.get(key).condition_nonempty()?;
        let mut s = self.clone();
        s.set(key, iv);
        Some(s)
    }

    /// Conditions the class at `key` to be empty; `None` if infeasible.
    pub fn condition_empty(&self, key: ClassKey) -> Option<IState> {
        let iv = self.get(key).condition_empty()?;
        let mut s = self.clone();
        s.set(key, iv);
        Some(s)
    }
}

/// Folds a copy-count category into the intervals of `istate`,
/// branching when the category cannot be expressed by tightening alone.
/// Appends every feasible refinement to `out` (none = the category is
/// inconsistent with the intervals).
///
/// * `V1` — every valid class must be empty.
/// * `V2` — exactly one valid copy: the holder class is pinned to
///   `[1,1]` and every other valid class emptied; if no class is
///   already known nonempty, one branch per candidate holder.
/// * `V3` — at least two copies: any deficit below two is distributed
///   over the unbounded valid classes (one branch per distribution).
/// * `Null` — no constraint.
pub(crate) fn apply_category_into(
    spec: &ProtocolSpec,
    istate: &IState,
    f: FVal,
    out: &mut Vec<IState>,
) {
    let mut valid = KeyList::new();
    for &(k, _) in istate.classes() {
        if spec.attrs(k.state).holds_copy {
            valid.push(k);
        }
    }
    match f {
        FVal::Null => out.push(istate.clone()),
        FVal::V1 => {
            let mut s = istate.clone();
            for &k in &valid {
                match s.condition_empty(k) {
                    Some(next) => s = next,
                    None => return,
                }
            }
            out.push(s);
        }
        FVal::V2 => {
            let mut pinned = KeyList::new();
            for &k in &valid {
                if istate.get(k).certainly_nonempty() {
                    pinned.push(k);
                }
            }
            match pinned.len() {
                0 => {
                    // Branch: each candidate class holds the single copy.
                    for &holder in &valid {
                        let mut s = istate.clone();
                        s.set(holder, Interval::exact(1));
                        let mut ok = true;
                        for &k in &valid {
                            if k != holder {
                                match s.condition_empty(k) {
                                    Some(next) => s = next,
                                    None => {
                                        ok = false;
                                        break;
                                    }
                                }
                            }
                        }
                        if ok {
                            out.push(s);
                        }
                    }
                }
                1 => {
                    let holder = pinned[0];
                    if istate.get(holder).lo > 1 {
                        return; // more than one copy pinned
                    }
                    let mut s = istate.clone();
                    s.set(holder, Interval::exact(1));
                    for &k in &valid {
                        if k != holder {
                            match s.condition_empty(k) {
                                Some(next) => s = next,
                                None => return,
                            }
                        }
                    }
                    out.push(s);
                }
                _ => {} // two classes certainly nonempty: > 1 copy
            }
        }
        FVal::V3 => {
            let (total_lo, _) = istate.total_valid(spec);
            if total_lo >= 2 {
                out.push(istate.clone());
                return;
            }
            let deficit = 2 - total_lo;
            let mut unbounded = KeyList::new();
            for &k in &valid {
                if istate.get(k).unbounded {
                    unbounded.push(k);
                }
            }
            if unbounded.is_empty() {
                return; // cannot reach two copies
            }
            // Distribute `deficit` (1 or 2) units over unbounded classes.
            if deficit == 1 {
                for &u in &unbounded {
                    let mut s = istate.clone();
                    let iv = s.get(u);
                    s.set(u, Interval::at_least(iv.lo + 1));
                    out.push(s);
                }
            } else {
                for (i, &u) in unbounded.iter().enumerate() {
                    for &v in &unbounded[i..] {
                        let mut s = istate.clone();
                        if u == v {
                            let iv = s.get(u);
                            s.set(u, Interval::at_least(iv.lo + 2));
                        } else {
                            let iu = s.get(u);
                            s.set(u, Interval::at_least(iu.lo + 1));
                            let ivv = s.get(v);
                            s.set(v, Interval::at_least(ivv.lo + 1));
                        }
                        out.push(s);
                    }
                }
            }
        }
    }
}

/// Internalises a canonical composite state into `out` (cleared first):
/// operators become intervals, and the state's characteristic-function
/// value is folded in via [`apply_category_into`].
pub(crate) fn internalize_into(spec: &ProtocolSpec, comp: &Composite, out: &mut Vec<IState>) {
    out.clear();
    let mut classes = IClassVec::new();
    for &(k, r) in comp.classes() {
        // Stored operators are never `Zero`, so no interval is zero and
        // the sorted class order carries over unchanged.
        classes.push((k, r.interval()));
    }
    let istate = IState {
        classes,
        mdata: comp.mdata,
    };
    apply_category_into(spec, &istate, comp.f, out);
}

/// Allocating wrapper around `internalize_into`.
pub fn internalize(spec: &ProtocolSpec, comp: &Composite) -> Vec<IState> {
    let mut out = Vec::new();
    internalize_into(spec, comp, &mut out);
    out
}

fn to_composite(s: &IState, f: FVal) -> Composite {
    let mut cv = ClassVec::new();
    for &(k, iv) in s.classes() {
        // Classes are sorted and non-zero, so the result is canonical.
        cv.push((k, iv.to_rep()));
    }
    Composite::from_parts(cv, s.mdata, f)
}

/// Emits a post-transition interval state back into canonical form,
/// writing into `out` (cleared first): one composite per feasible
/// copy-count category (or a single `Null`-annotated composite for
/// null-characteristic protocols), with intervals tightened under the
/// category before coarsening. `cats` is scratch space for the
/// per-category refinements.
pub(crate) fn emit_into(
    spec: &ProtocolSpec,
    istate: &IState,
    cats: &mut Vec<IState>,
    out: &mut Vec<Composite>,
) {
    out.clear();
    if !spec.uses_sharing_detection() {
        out.push(to_composite(istate, FVal::Null));
        return;
    }

    let (total_lo, total_unbounded) = istate.total_valid(spec);
    for cat in FVal::CATEGORIES {
        // Feasible iff the category's copy range intersects
        // [total_lo, total_max].
        let feasible = match cat {
            FVal::V1 => total_lo == 0,
            FVal::V2 => total_lo <= 1 && (total_unbounded || total_lo == 1),
            FVal::V3 => total_unbounded || total_lo >= 2,
            FVal::Null => unreachable!(),
        };
        if !feasible {
            continue;
        }
        cats.clear();
        apply_category_into(spec, istate, cat, cats);
        for refined in cats.iter() {
            let c = to_composite(refined, cat);
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
}

/// Allocating wrapper around `emit_into`.
pub fn emit(spec: &ProtocolSpec, istate: &IState) -> Vec<Composite> {
    let mut cats = Vec::new();
    let mut out = Vec::new();
    emit_into(spec, istate, &mut cats, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rep::Rep;
    use ccv_model::protocols::{illinois, msi};
    use ccv_model::StateId;

    fn ckey(spec: &ProtocolSpec, name: &str) -> ClassKey {
        let s = spec.state_by_name(name).unwrap();
        if s == StateId::INVALID {
            ClassKey::invalid()
        } else {
            ClassKey::fresh(s)
        }
    }

    #[test]
    fn internalize_initial_illinois() {
        let spec = illinois();
        let init = Composite::initial(&spec);
        let branches = internalize(&spec, &init);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].get(ClassKey::invalid()), Interval::at_least(1));
    }

    #[test]
    fn internalize_v3_raises_lower_bound() {
        // (Shared⁺, Inv*) f=v3 must internalise to Shared=[2,∞).
        let spec = illinois();
        let comp = Composite::new(
            vec![
                (ckey(&spec, "Shared"), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V3,
        );
        let branches = internalize(&spec, &comp);
        assert_eq!(branches.len(), 1);
        assert_eq!(
            branches[0].get(ckey(&spec, "Shared")),
            Interval::at_least(2)
        );
    }

    #[test]
    fn internalize_v2_pins_the_holder() {
        // (Shared⁺, Inv*) f=v2: exactly one copy → Shared = [1,1].
        let spec = illinois();
        let comp = Composite::new(
            vec![
                (ckey(&spec, "Shared"), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V2,
        );
        let branches = internalize(&spec, &comp);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].get(ckey(&spec, "Shared")), Interval::exact(1));
    }

    #[test]
    fn internalize_v2_branches_over_candidate_holders() {
        // (V-Ex*, Shared*, Inv*) f=v2: the copy is in V-Ex or in Shared.
        let spec = illinois();
        let comp = Composite::new(
            vec![
                (ckey(&spec, "V-Ex"), Rep::Star),
                (ckey(&spec, "Shared"), Rep::Star),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V2,
        );
        let branches = internalize(&spec, &comp);
        assert_eq!(branches.len(), 2);
        let holders: Vec<_> = branches
            .iter()
            .map(|b| {
                let ve = b.get(ckey(&spec, "V-Ex"));
                let sh = b.get(ckey(&spec, "Shared"));
                (ve, sh)
            })
            .collect();
        assert!(holders.contains(&(Interval::exact(1), Interval::ZERO)));
        assert!(holders.contains(&(Interval::ZERO, Interval::exact(1))));
    }

    #[test]
    fn internalize_infeasible_category_is_empty() {
        // (Dirty¹, Inv*) f=v1 is inconsistent: a copy certainly exists.
        let spec = illinois();
        let comp = Composite::new(
            vec![
                (ckey(&spec, "Dirty"), Rep::One),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Obsolete,
            FVal::V1,
        );
        assert!(internalize(&spec, &comp).is_empty());
    }

    #[test]
    fn emit_splits_by_category() {
        // Shared=[1,∞), Inv=[1,∞): categories v2 (exactly one Shared)
        // and v3 (two or more) are both feasible.
        let spec = illinois();
        let istate = IState::new(
            vec![
                (ckey(&spec, "Shared"), Interval::at_least(1)),
                (ClassKey::invalid(), Interval::at_least(1)),
            ],
            MData::Fresh,
        );
        let out = emit(&spec, &istate);
        assert_eq!(out.len(), 2);
        let v2 = out.iter().find(|c| c.f == FVal::V2).expect("v2 branch");
        let v3 = out.iter().find(|c| c.f == FVal::V3).expect("v3 branch");
        // v2 branch is tightened to the paper's s4 = (Shared, Inv⁺).
        assert_eq!(v2.rep_of(ckey(&spec, "Shared")), Rep::One);
        assert_eq!(v2.rep_of(ClassKey::invalid()), Rep::Plus);
        // v3 branch is (Shared⁺, Inv⁺).
        assert_eq!(v3.rep_of(ckey(&spec, "Shared")), Rep::Plus);
    }

    #[test]
    fn emit_exact_two_is_v3_plus() {
        let spec = illinois();
        let istate = IState::new(
            vec![
                (ckey(&spec, "Shared"), Interval::exact(2)),
                (ClassKey::invalid(), Interval::at_least(0)),
            ],
            MData::Fresh,
        );
        let out = emit(&spec, &istate);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].f, FVal::V3);
        assert_eq!(out[0].rep_of(ckey(&spec, "Shared")), Rep::Plus);
        assert_eq!(out[0].rep_of(ClassKey::invalid()), Rep::Star);
    }

    #[test]
    fn emit_null_characteristic_is_single() {
        let spec = msi();
        let istate = IState::new(
            vec![
                (ckey(&spec, "Shared"), Interval::at_least(1)),
                (ClassKey::invalid(), Interval::at_least(0)),
            ],
            MData::Fresh,
        );
        let out = emit(&spec, &istate);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].f, FVal::Null);
        assert_eq!(out[0].rep_of(ckey(&spec, "Shared")), Rep::Plus);
    }

    #[test]
    fn istate_set_get_roundtrip() {
        let spec = illinois();
        let mut s = IState::new(vec![], MData::Fresh);
        let k = ckey(&spec, "Dirty");
        assert_eq!(s.get(k), Interval::ZERO);
        s.set(k, Interval::exact(1));
        assert_eq!(s.get(k), Interval::exact(1));
        s.add_one(k);
        assert_eq!(s.get(k), Interval::exact(2));
        s.set(k, Interval::ZERO);
        assert_eq!(s.classes().len(), 0);
        s.merge_into(k, Interval::at_least(1));
        assert_eq!(s.get(k), Interval::at_least(1));
    }

    #[test]
    fn istate_set_keeps_classes_sorted() {
        let spec = illinois();
        let mut s = IState::empty(MData::Fresh);
        s.set(ckey(&spec, "Dirty"), Interval::exact(1));
        s.set(ClassKey::invalid(), Interval::at_least(0));
        s.set(ckey(&spec, "Shared"), Interval::at_least(1));
        s.set(ClassKey::invalid(), Interval::at_least(2));
        assert!(s.classes().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(s.get(ClassKey::invalid()), Interval::at_least(2));
    }

    #[test]
    fn total_valid_ignores_invalid_class() {
        let spec = illinois();
        let s = IState::new(
            vec![
                (ckey(&spec, "Shared"), Interval::exact(1)),
                (ckey(&spec, "Dirty"), Interval::at_least(0)),
                (ClassKey::invalid(), Interval::at_least(5)),
            ],
            MData::Fresh,
        );
        assert_eq!(s.total_valid(&spec), (1, true));
    }
}
