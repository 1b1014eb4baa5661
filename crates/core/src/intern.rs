//! Hash-consed composite-state storage.
//!
//! The expansion engine discovers the same composite states over and
//! over: most successors of a visit are duplicates of states already in
//! the arena. [`CompositeArena`] stores each distinct [`Composite`]
//! exactly once and hands out copyable [`CompositeId`]s, so the engine,
//! the containment index and the trace machinery move 4-byte ids
//! instead of cloning class vectors, and duplicate detection in
//! equality mode degenerates to an id comparison.
//!
//! Interning is append-only within a run: ids are dense indices in
//! insertion order, which gives the batch layer a stable, deterministic
//! numbering for exported essential-state sets.

use crate::composite::Composite;
use ccv_enum::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

/// Identity of an interned [`Composite`] — a dense index into its
/// arena, valid only for the arena that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompositeId(u32);

impl CompositeId {
    /// The dense arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Chain terminator in [`CompositeArena`]'s collision links.
const END: u32 = u32::MAX;

/// An append-only, hash-consed store of canonical composite states.
///
/// The table is one [`FxHashMap`] entry per distinct full hash, naming
/// the newest id with that hash, plus a `next` link per id to the
/// previous id sharing it. A lookup walks that chain comparing whole
/// composites, so a hash collision costs a comparison, never a wrong
/// answer, and a new state costs no allocation beyond amortised growth.
#[derive(Clone, Debug, Default)]
pub struct CompositeArena {
    states: Vec<Composite>,
    /// Full hash of a composite → newest id with that hash.
    heads: FxHashMap<u64, u32>,
    /// Per id: the next-older id with the same hash, or [`END`].
    next: Vec<u32>,
    /// Running total of `Composite::heap_bytes` over `states`.
    spill_bytes: usize,
    hits: u64,
}

impl CompositeArena {
    /// An empty arena.
    pub fn new() -> CompositeArena {
        CompositeArena::default()
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The composite behind `id`.
    ///
    /// # Panics
    /// Panics if `id` comes from another arena (index out of bounds).
    #[inline]
    pub fn get(&self, id: CompositeId) -> &Composite {
        &self.states[id.index()]
    }

    /// Number of `intern` calls that found an existing entry — the
    /// engine's "successor already known as a value" count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Interns `comp`, returning the id of the existing entry when an
    /// equal composite was interned before.
    pub fn intern(&mut self, comp: &Composite) -> CompositeId {
        let mut h = FxHasher::default();
        comp.hash(&mut h);
        let i = u32::try_from(self.states.len()).expect("composite arena overflow");
        let older = match self.heads.entry(h.finish()) {
            Entry::Occupied(mut head) => {
                let mut j = *head.get();
                while j != END {
                    if self.states[j as usize] == *comp {
                        self.hits += 1;
                        return CompositeId(j);
                    }
                    j = self.next[j as usize];
                }
                head.insert(i)
            }
            Entry::Vacant(head) => {
                head.insert(i);
                END
            }
        };
        self.next.push(older);
        // Count the stored clone: its spill capacity may differ from
        // `comp`'s.
        let stored = comp.clone();
        self.spill_bytes += stored.heap_bytes();
        self.states.push(stored);
        CompositeId(i)
    }

    /// Iterates `(id, composite)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (CompositeId, &Composite)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, c)| (CompositeId(i as u32), c))
    }

    /// Approximate resident size in bytes (entries, spilled class
    /// vectors, and hash table) — reported as the `arena_bytes` gauge
    /// and polled against the memory cap once per expansion. O(1): the
    /// spill is a running total kept by [`CompositeArena::intern`].
    pub fn approx_bytes(&self) -> usize {
        self.table_bytes() + self.spill_bytes
    }

    /// The capacity-derived part of [`CompositeArena::approx_bytes`].
    fn table_bytes(&self) -> usize {
        self.states.capacity() * core::mem::size_of::<Composite>()
            + self.heads.capacity() * core::mem::size_of::<(u64, u32)>()
            + self.next.capacity() * core::mem::size_of::<u32>()
    }

    /// Forgets every interned state but keeps allocated capacity, so a
    /// recycled arena interns its next run without reallocating.
    pub fn clear(&mut self) {
        self.states.clear();
        self.heads.clear();
        self.next.clear();
        self.spill_bytes = 0;
        self.hits = 0;
    }
}

#[cfg(test)]
impl CompositeArena {
    /// [`CompositeArena::approx_bytes`] recounted from scratch by
    /// walking every interned state.
    fn recount_bytes(&self) -> usize {
        self.table_bytes() + self.states.iter().map(Composite::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::{ClassKey, MAX_INLINE_CLASSES};
    use crate::engine::{expand, Options};
    use crate::fval::FVal;
    use crate::rep::Rep;
    use ccv_model::protocols::{illinois, split_mesi};
    use ccv_model::{MData, StateId};

    #[test]
    fn running_byte_count_matches_a_recount() {
        for spec in [illinois(), split_mesi()] {
            let mut arena = expand(&spec, &Options::default()).arena;
            assert!(arena.len() > 1, "{}: the run interned nothing", spec.name());
            assert_eq!(
                arena.approx_bytes(),
                arena.recount_bytes(),
                "{}",
                spec.name()
            );
            // Composites wider than the inline buffer spill to the heap.
            for n in 1..4u8 {
                let wide = (1..=MAX_INLINE_CLASSES as u8 + n)
                    .map(|s| (ClassKey::fresh(StateId(s)), Rep::Star))
                    .collect();
                arena.intern(&Composite::new(wide, MData::Fresh, FVal::Null));
            }
            assert!(arena.spill_bytes > 0);
            assert_eq!(
                arena.approx_bytes(),
                arena.recount_bytes(),
                "{}",
                spec.name()
            );
            arena.clear();
            assert_eq!(arena.spill_bytes, 0);
            assert_eq!(arena.approx_bytes(), arena.recount_bytes());
        }
    }

    #[test]
    fn interning_deduplicates_equal_states() {
        let spec = illinois();
        let mut arena = CompositeArena::new();
        let a = Composite::initial(&spec);
        let b = Composite::initial(&spec);
        let ia = arena.intern(&a);
        let ib = arena.intern(&b);
        assert_eq!(ia, ib);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.hits(), 1);
        assert_eq!(arena.get(ia), &a);
    }

    #[test]
    fn distinct_states_get_distinct_dense_ids() {
        let spec = illinois();
        let sh = spec.state_by_name("Shared").unwrap();
        let mut arena = CompositeArena::new();
        let a = Composite::initial(&spec);
        let b = Composite::new(
            vec![
                (ClassKey::fresh(sh), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V3,
        );
        let ia = arena.intern(&a);
        let ib = arena.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(ia.index(), 0);
        assert_eq!(ib.index(), 1);
        assert_eq!(arena.len(), 2);
        let listed: Vec<_> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(listed, vec![ia, ib]);
    }

    #[test]
    fn clear_resets_contents_and_hits() {
        let spec = illinois();
        let mut arena = CompositeArena::new();
        let a = Composite::initial(&spec);
        arena.intern(&a);
        arena.intern(&a);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.hits(), 0);
        let id = arena.intern(&a);
        assert_eq!(id.index(), 0);
        assert!(arena.approx_bytes() > 0);
    }
}
