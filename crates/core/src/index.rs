//! The containment index — indexed survivor lookup for the engine.
//!
//! The pre-refactor engine answered both containment questions
//! ("is this successor contained in a survivor?" and "which survivors
//! does this new state swallow?") by scanning every live node and
//! running the full Definition-9 check. This module narrows both scans
//! structurally, in two stages:
//!
//! 1. **Bucket by `(FVal, MData)`.** Containment requires equal
//!    characteristic-function value and memory freshness, so only the
//!    matching bucket can hold candidates. The eight buckets are a
//!    fixed array indexed by the pair.
//! 2. **Prefilter by [`ClassSig`].** `a ⊑ b` holds iff, per class key,
//!    the operator of `a` is at most that of `b` in the information
//!    order (`Rep::le`, with absent classes as `0`). Of the sixteen
//!    operator pairs, these fail it, and each breaks one set inclusion:
//!    - `1`, `+` or `*` against an absent class: (i) the classes of
//!      `a` are present in `b`;
//!    - an absent class against `1` or `+` (a class that admits zero
//!      caches is only covered by `*`): (ii) the non-`*` classes of
//!      `b` are present in `a`;
//!    - `*` against `1` or `+`: (iii) the `*` classes of `a` are `*`
//!      in `b`;
//!    - `+` against `1`: (iv) the `1` classes of `b` are `1` in `a`.
//!
//!    So containment implies all four inclusions, and without slot
//!    collisions the four imply containment. Unions of per-class bits
//!    preserve set inclusion even when slots collide modulo 64, so the
//!    mask tests (`ClassSig::may_be_contained_in`) never reject a
//!    true candidate, and the full [`Composite::contained_in`] check
//!    confirms survivors. Results are therefore bit-identical to the
//!    linear scan, and a full check fails only on a slot collision.
//!
//! In **equality** pruning mode containment degenerates to equality:
//! the discard question is answered by an exact [`CompositeId`] lookup
//! against the live set (interning makes equal states share ids), and
//! prune-old is a no-op (an equal live state would have discarded the
//! newcomer first). The exact lookup also short-circuits containment
//! mode, since equality implies containment.
//!
//! The `exact` map is well-defined because two *live* nodes never hold
//! equal composites: the second one would have been discarded as
//! contained when it was generated. Pruned nodes are removed from both
//! structures, so a later re-discovery of the same composite is
//! re-admitted exactly as the linear scan would. Ids are dense arena
//! indices, so the map is a vector indexed by id.

use crate::composite::{ClassSig, Composite};
use crate::engine::{NodeId, Pruning};
use crate::intern::{CompositeArena, CompositeId};
use ccv_model::MData;

/// `exact` slot of an id with no live node.
const NOT_LIVE: u32 = u32::MAX;

/// Number of `(FVal, MData)` buckets: four `F` values × two `mdata`.
const GROUPS: usize = 4 * MData::ALL.len();

/// The bucket of a composite: containment needs equal `f` and `mdata`.
#[inline]
fn group_of(c: &Composite) -> usize {
    c.f as usize * MData::ALL.len() + c.mdata as usize
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    sig: ClassSig,
    id: CompositeId,
    node: NodeId,
}

/// Index over the engine's live (unpruned) nodes, supporting both
/// containment directions. See the module docs for the soundness
/// argument.
#[derive(Debug, Default)]
pub struct ContainmentIndex {
    /// Live nodes bucketed by the containment-compatible part of their
    /// state ([`group_of`]).
    groups: [Vec<Entry>; GROUPS],
    /// Live node by interned state id ([`NOT_LIVE`] if none) — the
    /// equality fast path.
    exact: Vec<u32>,
}

impl ContainmentIndex {
    /// An empty index.
    pub fn new() -> ContainmentIndex {
        ContainmentIndex::default()
    }

    /// Number of live nodes indexed.
    pub fn len(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// True iff no node is indexed.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(Vec::is_empty)
    }

    /// Forgets every entry but keeps allocated capacity.
    pub fn clear(&mut self) {
        for g in &mut self.groups {
            g.clear();
        }
        self.exact.clear();
    }

    /// True iff a live node holds the state behind `id`.
    #[inline]
    fn is_live(&self, id: CompositeId) -> bool {
        self.exact.get(id.index()).is_some_and(|&n| n != NOT_LIVE)
    }

    /// Registers a newly admitted live node holding `comp` (the
    /// composite behind `id`).
    pub fn insert(&mut self, node: NodeId, id: CompositeId, comp: &Composite) {
        debug_assert!(!self.is_live(id), "two live nodes share a composite");
        if self.exact.len() <= id.index() {
            self.exact.resize(id.index() + 1, NOT_LIVE);
        }
        self.exact[id.index()] = u32::try_from(node.0).expect("node index overflow");
        self.groups[group_of(comp)].push(Entry {
            sig: comp.signature(),
            id,
            node,
        });
    }

    /// Discard-new direction: is the state behind `id` contained in
    /// some live node's state? Increments `probes` per signature
    /// candidate examined and `checks` per full containment (or exact)
    /// evaluation.
    pub fn find_container(
        &self,
        arena: &CompositeArena,
        id: CompositeId,
        pruning: Pruning,
        checks: &mut u64,
        probes: &mut u64,
    ) -> bool {
        // Equality implies containment, so the id lookup is a valid
        // fast path in both modes.
        if self.is_live(id) {
            *checks += 1;
            return true;
        }
        if pruning == Pruning::Equality {
            return false;
        }
        let t = arena.get(id);
        let sig = t.signature();
        for e in &self.groups[group_of(t)] {
            *probes += 1;
            if sig.may_be_contained_in(e.sig) {
                *checks += 1;
                if t.contained_in(arena.get(e.id)) {
                    return true;
                }
            }
        }
        false
    }

    /// Prune-old direction: removes from the index every live node
    /// whose state is contained in the state behind `id`, invoking
    /// `on_prune` for each. No-op in equality mode (see module docs).
    pub fn prune_covered(
        &mut self,
        arena: &CompositeArena,
        id: CompositeId,
        pruning: Pruning,
        checks: &mut u64,
        probes: &mut u64,
        mut on_prune: impl FnMut(NodeId),
    ) {
        if pruning == Pruning::Equality {
            return;
        }
        let t = arena.get(id);
        let sig = t.signature();
        let ContainmentIndex { groups, exact } = self;
        groups[group_of(t)].retain(|e| {
            *probes += 1;
            if e.sig.may_be_contained_in(sig) {
                *checks += 1;
                if arena.get(e.id).contained_in(t) {
                    exact[e.id.index()] = NOT_LIVE;
                    on_prune(e.node);
                    return false;
                }
            }
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::ClassKey;
    use crate::rep::Rep;
    use ccv_model::protocols::illinois;

    fn setup() -> (ccv_model::ProtocolSpec, CompositeArena, ContainmentIndex) {
        (illinois(), CompositeArena::new(), ContainmentIndex::new())
    }

    #[test]
    fn finds_container_and_counts_probes() {
        let (spec, mut arena, mut index) = setup();
        let sh = spec.state_by_name("Shared").unwrap();
        // Container: (Shared⁺, Inv*); contained: (Shared⁺, Inv⁺).
        let big = Composite::new(
            vec![
                (ClassKey::fresh(sh), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            crate::fval::FVal::V3,
        );
        let small = Composite::new(
            vec![
                (ClassKey::fresh(sh), Rep::Plus),
                (ClassKey::invalid(), Rep::Plus),
            ],
            MData::Fresh,
            crate::fval::FVal::V3,
        );
        let big_id = arena.intern(&big);
        let small_id = arena.intern(&small);
        index.insert(NodeId(0), big_id, &big);
        let (mut checks, mut probes) = (0u64, 0u64);
        assert!(index.find_container(
            &arena,
            small_id,
            Pruning::Containment,
            &mut checks,
            &mut probes
        ));
        assert_eq!(probes, 1);
        assert_eq!(checks, 1);
        // In equality mode the unequal state is not found.
        assert!(!index.find_container(
            &arena,
            small_id,
            Pruning::Equality,
            &mut checks,
            &mut probes
        ));
    }

    #[test]
    fn exact_hit_short_circuits_both_modes() {
        let (spec, mut arena, mut index) = setup();
        let init = Composite::initial(&spec);
        let id = arena.intern(&init);
        index.insert(NodeId(0), id, &init);
        let dup = arena.intern(&init);
        assert_eq!(dup, id);
        let (mut checks, mut probes) = (0u64, 0u64);
        for mode in [Pruning::Containment, Pruning::Equality] {
            assert!(index.find_container(&arena, dup, mode, &mut checks, &mut probes));
        }
        assert_eq!(probes, 0, "exact hits never touch the groups");
        assert_eq!(checks, 2);
    }

    #[test]
    fn bucket_mismatch_rejects_without_probing() {
        let (spec, mut arena, mut index) = setup();
        let init = Composite::initial(&spec);
        let id = arena.intern(&init);
        index.insert(NodeId(0), id, &init);
        // Same classes, different mdata: different bucket.
        let stale = Composite::new(
            vec![(ClassKey::invalid(), Rep::Plus)],
            MData::Obsolete,
            init.f,
        );
        let stale_id = arena.intern(&stale);
        let (mut checks, mut probes) = (0u64, 0u64);
        assert!(!index.find_container(
            &arena,
            stale_id,
            Pruning::Containment,
            &mut checks,
            &mut probes
        ));
        assert_eq!(probes, 0);
        assert_eq!(checks, 0);
    }

    #[test]
    fn prune_covered_removes_swallowed_survivors() {
        let (spec, mut arena, mut index) = setup();
        let sh = spec.state_by_name("Shared").unwrap();
        let small = Composite::new(
            vec![
                (ClassKey::fresh(sh), Rep::Plus),
                (ClassKey::invalid(), Rep::Plus),
            ],
            MData::Fresh,
            crate::fval::FVal::V3,
        );
        let big = Composite::new(
            vec![
                (ClassKey::fresh(sh), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            crate::fval::FVal::V3,
        );
        let small_id = arena.intern(&small);
        let big_id = arena.intern(&big);
        index.insert(NodeId(0), small_id, &small);
        let (mut checks, mut probes) = (0u64, 0u64);
        let mut pruned = Vec::new();
        index.prune_covered(
            &arena,
            big_id,
            Pruning::Containment,
            &mut checks,
            &mut probes,
            |n| pruned.push(n),
        );
        assert_eq!(pruned, vec![NodeId(0)]);
        assert!(index.is_empty());
        // The pruned state can be re-admitted afterwards.
        index.insert(NodeId(1), small_id, &small);
        assert_eq!(index.len(), 1);
        // Equality mode never prunes.
        let mut none = Vec::new();
        index.prune_covered(
            &arena,
            big_id,
            Pruning::Equality,
            &mut checks,
            &mut probes,
            |n| none.push(n),
        );
        assert!(none.is_empty());
    }

    /// Every composite over four class keys with every operator in
    /// `{0, 1, +, *}`; two of the keys share `slot % 64`.
    fn all_composites() -> Vec<Composite> {
        use ccv_model::StateId;
        let keys = [
            ClassKey::invalid(),
            ClassKey::fresh(StateId(1)),
            ClassKey::fresh(StateId(65)),
            ClassKey::obsolete(StateId(2)),
        ];
        assert_eq!(keys[1].slot() % 64, keys[2].slot() % 64);
        let reps = [Rep::Zero, Rep::One, Rep::Plus, Rep::Star];
        (0..reps.len().pow(keys.len() as u32))
            .map(|code| {
                let classes = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k, reps[code / reps.len().pow(i as u32) % reps.len()]))
                    .collect();
                Composite::new(classes, MData::Fresh, crate::fval::FVal::V3)
            })
            .collect()
    }

    #[test]
    fn signature_prefilter_never_rejects_a_container() {
        let comps = all_composites();
        let mut collisions = 0;
        for t in &comps {
            for e in &comps {
                let pass = t.signature().may_be_contained_in(e.signature());
                if t.contained_in(e) {
                    assert!(pass, "{t} ⊑ {e} but the mask test rejects it");
                } else if pass {
                    // Only the colliding pair of keys can fool the masks.
                    let uses = |c: &Composite| c.classes().iter().any(|(k, _)| k.state.0 == 65);
                    assert!(uses(t) || uses(e), "{t} ⋢ {e} passed without a collision");
                    collisions += 1;
                }
            }
        }
        assert!(collisions > 0, "the colliding keys never fooled the masks");
    }

    #[test]
    fn both_directions_agree_with_the_full_check_on_every_pair() {
        let comps = all_composites();
        let mut arena = CompositeArena::new();
        let ids: Vec<_> = comps.iter().map(|c| arena.intern(c)).collect();
        let mut index = ContainmentIndex::new();
        let (mut checks, mut probes) = (0u64, 0u64);
        for (a, &a_id) in comps.iter().zip(&ids) {
            for (b, &b_id) in comps.iter().zip(&ids) {
                let contained = a.contained_in(b);
                // Discard-new: `a` against a live `b`.
                index.clear();
                index.insert(NodeId(0), b_id, b);
                let found = index.find_container(
                    &arena,
                    a_id,
                    Pruning::Containment,
                    &mut checks,
                    &mut probes,
                );
                assert_eq!(found, contained, "find_container({a}) over {b}");
                // Prune-old: a new `b` against a live `a`.
                index.clear();
                index.insert(NodeId(0), a_id, a);
                let mut pruned = false;
                index.prune_covered(
                    &arena,
                    b_id,
                    Pruning::Containment,
                    &mut checks,
                    &mut probes,
                    |_| pruned = true,
                );
                assert_eq!(pruned, contained, "prune_covered({b}) over {a}");
                assert_eq!(index.is_empty(), contained);
            }
        }
    }
}
