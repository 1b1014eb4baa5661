//! Lock-free concurrent visited set for packed global states.
//!
//! The work-stealing engine (`parallel.rs`) claims millions of states
//! per second from many threads; a mutex-per-shard hash set serialises
//! exactly the hot path. [`AtomicVisited`] replaces it with an
//! open-addressing table whose *claim* operation is lock-free: one
//! compare-and-swap on the fast path, no locks anywhere, no entry ever
//! moved or freed.
//!
//! # Layout
//!
//! The table is split into [`SHARDS`] independent shards. A state's
//! shard and the base of its probe sequence are disjoint bits of one
//! hash: its FxHash finished with murmur3's `fmix64`, the low 6 bits
//! picking the shard and the bits above them the probe base. Fx alone
//! mixes its low bits poorly. Without the finalizer, Illinois n=12's
//! 4,120 reachable states left 30 of the 64 shards empty and put 152
//! in the busiest against a mean of 64, and long probe runs overflowed
//! into larger segments. With it every shard holds between half and
//! twice the mean (pinned by a unit test). The three jobs of
//! perfbench's `explicit` workload take 21–26 MB of table instead of
//! 46–68 MB, and a claim examines 1.48 slots on Dragon n=14 and 3.9 on
//! split-MSI and split-MESI n=8, whose 408k–426k states overflow
//! segment 0 (the `claim_probes` counter).
//!
//! Each shard is a chain of lazily allocated segments
//! (`OnceLock<Box<[Slot]>>`) whose sizes grow geometrically
//! (×`GROWTH`), so the structure needs no global resize — a full
//! segment simply overflows into the next, larger one, and published
//! slots stay valid forever.
//!
//! A slot packs a 97-bit [`PackedState`] into two `AtomicU64`s:
//!
//! ```text
//! lo = status(2 bits, 63..62) | state bits 61..0
//! hi = state bits 96..62
//! ```
//!
//! with `status ∈ {EMPTY = 0b00, RESERVED = 0b01, PUBLISHED = 0b10}`.
//!
//! # Claim protocol
//!
//! To claim state `s`, a thread walks `s`'s *deterministic* probe
//! sequence — a pure function of `hash(s)`: `PROBE_LIMIT` linear
//! probes in segment 0, then the same in segment 1, and so on. At each
//! slot it loads `lo` (`Acquire`) and:
//!
//! 1. **`EMPTY`** — CAS `lo` from `0` to `RESERVED | s.lo62`
//!    (`AcqRel`). On success it is the unique winner: it stores `hi`
//!    (`Release`), then publishes `lo = PUBLISHED | s.lo62`
//!    (`Release`), bumps the size counter and returns `true`. On
//!    failure another thread moved the slot first; re-examine it.
//! 2. **foreign low bits** — the slot permanently belongs to a state
//!    with different low bits; move to the next probe position.
//! 3. **matching low bits, `RESERVED`** — a writer of *some* state with
//!    the same low 62 bits is mid-publish; spin until `PUBLISHED`
//!    (the window is two plain stores, so the wait is bounded and
//!    tiny), counting a claim race.
//! 4. **matching low bits, `PUBLISHED`** — load `hi` (`Acquire`) and
//!    compare. Equal: `s` is already visited, return `false`.
//!    Different: a colliding state owns the slot; next probe position.
//!
//! # Why exactly one thread wins each state
//!
//! Slots are monotonic: `EMPTY → RESERVED → PUBLISHED`, the low bits
//! are set by the reserving CAS and never change afterwards, and slots
//! are never freed. Therefore "which state occupies probe position
//! `p`" only ever transitions from *undecided* to *decided-forever*,
//! and every thread claiming `s` walks the same probe sequence,
//! skipping exactly the positions decided for other states and
//! stopping at the first position that is either undecided or decided
//! for `s`. All claimers of `s` converge on that slot; the reserving
//! CAS arbitrates, so exactly one returns `true` and every other
//! claimer — even one arriving mid-publish — observes `s` there and
//! returns `false`. The linearization point of a winning claim is its
//! successful CAS; of a losing claim, the load that observed the
//! matching occupant. A full argument with the memory-ordering
//! obligations is given in `docs/perf.md`.
//!
//! The size counter is a plain `AtomicUsize` incremented by winners —
//! `len()` is one relaxed load instead of the 64 shard locks the old
//! mutex design needed.

use crate::fxhash::FxHasher;
use crate::packed::PackedState;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of independent shards (power of two).
pub const SHARDS: usize = 64;

/// Linear probes attempted per segment before overflowing to the next.
const PROBE_LIMIT: usize = 8;

/// Slots in a shard's first segment (power of two).
const BASE_SLOTS: usize = 1 << 12;

/// Geometric growth factor between consecutive segments (power of two).
const GROWTH: usize = 4;

/// Maximum segments per shard. Capacity is effectively unbounded: the
/// last segments are larger than any enumerable state space.
const SEGMENTS: usize = 16;

const STATUS_SHIFT: u32 = 62;
const LOW_MASK: u64 = (1 << STATUS_SHIFT) - 1;
const RESERVED: u64 = 0b01 << STATUS_SHIFT;
const PUBLISHED: u64 = 0b10 << STATUS_SHIFT;

/// One open-addressing slot: a 97-bit state in two atomic words.
#[derive(Default)]
struct Slot {
    lo: AtomicU64,
    hi: AtomicU64,
}

struct Shard {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            segments: [const { OnceLock::new() }; SEGMENTS],
        }
    }

    fn segment(&self, idx: usize) -> &[Slot] {
        // Racing initialisations are possible; OnceLock keeps one
        // winner and drops the losers' allocations. Segments are
        // small relative to the states they hold, so the waste is
        // negligible and only happens once per segment.
        self.segments[idx].get_or_init(|| {
            let len = BASE_SLOTS * GROWTH.pow(idx as u32);
            (0..len).map(|_| Slot::default()).collect()
        })
    }
}

/// Outcome counters of a single [`AtomicVisited::claim`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClaimStats {
    /// The state was not in the set and this call inserted it.
    pub claimed: bool,
    /// CAS losses and reserved-slot spins encountered — a direct
    /// measure of inter-thread contention on the set.
    pub races: u32,
    /// Slots examined, the deciding one included: 1 when the state's
    /// home slot decides the claim.
    pub probes: u32,
}

/// Slots a claim decided at probe `p` of segment `seg_idx` examined.
#[inline]
fn probes(seg_idx: usize, p: usize) -> u32 {
    (seg_idx * PROBE_LIMIT + p + 1) as u32
}

/// murmur3's 64-bit finalizer: every input bit flips each output bit
/// with probability about 1/2.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A lock-free concurrent set of [`PackedState`]s supporting exactly
/// two operations: atomic claim-if-absent and a constant-time size
/// read. Entries can never be removed.
pub struct AtomicVisited {
    shards: Vec<Shard>,
    size: AtomicUsize,
}

impl Default for AtomicVisited {
    fn default() -> AtomicVisited {
        AtomicVisited::new()
    }
}

impl AtomicVisited {
    /// Creates an empty set. Only the first segment of each shard is
    /// allocated eagerly; growth is lazy and lock-free thereafter.
    pub fn new() -> AtomicVisited {
        let shards: Vec<Shard> = (0..SHARDS).map(|_| Shard::new()).collect();
        AtomicVisited {
            shards,
            size: AtomicUsize::new(0),
        }
    }

    /// The state's shard and probe base: disjoint bits of its FxHash
    /// finished with [`fmix64`], whose low bits, unlike Fx's, are well
    /// mixed (see Layout above).
    #[inline]
    fn locate(state: PackedState) -> (usize, usize) {
        let mut h = FxHasher::default();
        state.hash(&mut h);
        let h = fmix64(h.finish());
        (
            (h as usize) & (SHARDS - 1),
            (h >> SHARDS.trailing_zeros()) as usize,
        )
    }

    /// Atomically claims `state`. Returns `claimed = true` iff the
    /// state was absent and this call inserted it; exactly one of any
    /// set of concurrent claims of the same state wins.
    ///
    /// Lock-free: the fast path is one load and (for new states) one
    /// CAS; no path acquires a lock or blocks unboundedly.
    pub fn claim(&self, state: PackedState) -> ClaimStats {
        let (shard, probe_base) = Self::locate(state);
        let shard = &self.shards[shard];
        let lo62 = (state.0 as u64) & LOW_MASK;
        let hi = (state.0 >> STATUS_SHIFT) as u64;
        let reserved = RESERVED | lo62;
        let published = PUBLISHED | lo62;
        let mut races = 0u32;

        for seg_idx in 0..SEGMENTS {
            let seg = shard.segment(seg_idx);
            let mask = seg.len() - 1;
            for p in 0..PROBE_LIMIT {
                let slot = &seg[probe_base.wrapping_add(p) & mask];
                let mut cur = slot.lo.load(Ordering::Acquire);
                loop {
                    if cur == 0 {
                        match slot.lo.compare_exchange(
                            0,
                            reserved,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => {
                                slot.hi.store(hi, Ordering::Release);
                                slot.lo.store(published, Ordering::Release);
                                self.size.fetch_add(1, Ordering::Relaxed);
                                return ClaimStats {
                                    claimed: true,
                                    races,
                                    probes: probes(seg_idx, p),
                                };
                            }
                            Err(actual) => {
                                // Lost the reservation race; re-examine
                                // what the winner put there.
                                races += 1;
                                cur = actual;
                                continue;
                            }
                        }
                    }
                    if cur & LOW_MASK != lo62 {
                        // Slot permanently owned by a state with
                        // different low bits: next probe position.
                        break;
                    }
                    if cur & PUBLISHED != 0 {
                        if slot.hi.load(Ordering::Acquire) == hi {
                            return ClaimStats {
                                claimed: false,
                                races,
                                probes: probes(seg_idx, p),
                            };
                        }
                        // 62-bit collision with a different state.
                        break;
                    }
                    // RESERVED with matching low bits: the winner is
                    // between its CAS and its publish store — a
                    // two-instruction window. Spin until published.
                    races += 1;
                    std::hint::spin_loop();
                    cur = slot.lo.load(Ordering::Acquire);
                }
            }
        }
        // 128 probe positions across segments totalling > 10^9 slots
        // per shard were all taken by colliding states — statistically
        // impossible before memory exhaustion.
        panic!("AtomicVisited: probe chain exhausted");
    }

    /// Number of states in the set: one atomic load, no locking.
    ///
    /// Concurrent with claims this is a lower bound (winners increment
    /// *after* publishing); quiescent, it is exact.
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Acquire)
    }

    /// Approximate heap footprint in bytes: the sum of all allocated
    /// segments. Lock-free (walks the `OnceLock`s without initialising
    /// them), so the governor can poll it from any worker.
    pub fn approx_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for shard in &self.shards {
            for seg in shard.segments.iter().filter_map(|s| s.get()) {
                bytes += (seg.len() * std::mem::size_of::<Slot>()) as u64;
            }
        }
        bytes
    }

    /// Collects every published state, in shard/slot order.
    ///
    /// Intended for quiescent use (checkpointing after the worker pool
    /// has joined); concurrent with claims it returns the states whose
    /// publication happened-before the corresponding slot load.
    pub fn states(&self) -> Vec<PackedState> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            for seg in shard.segments.iter().filter_map(|s| s.get()) {
                for slot in seg.iter() {
                    let lo = slot.lo.load(Ordering::Acquire);
                    if lo & PUBLISHED != 0 {
                        let hi = slot.hi.load(Ordering::Acquire);
                        out.push(PackedState(
                            ((hi as u128) << STATUS_SHIFT) | (lo & LOW_MASK) as u128,
                        ));
                    }
                }
            }
        }
        out
    }

    /// True iff no state has been claimed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::explicit::reachable_states;
    use ccv_model::protocols::illinois;

    /// Asserts that every one of the `shards` shards `shard_of` maps
    /// `states` to holds between half and twice the mean share.
    pub(crate) fn assert_balanced(
        states: &[PackedState],
        shards: usize,
        shard_of: impl Fn(PackedState) -> usize,
    ) {
        let mut counts = vec![0usize; shards];
        for &s in states {
            counts[shard_of(s)] += 1;
        }
        let mean = states.len() / shards;
        let (min, max) = (counts.iter().min(), counts.iter().max());
        assert!(
            counts.iter().all(|&c| 2 * c >= mean && c <= 2 * mean),
            "{} states over {shards} shards (mean {mean}): min {min:?}, max {max:?}",
            states.len()
        );
    }

    #[test]
    fn reachable_states_spread_evenly_over_the_shards() {
        let states = reachable_states(&illinois(), 12, 1 << 20);
        assert_eq!(states.len(), 4_120);
        assert_balanced(&states, SHARDS, |s| AtomicVisited::locate(s).0);
    }

    #[test]
    fn claims_once_and_remembers() {
        let v = AtomicVisited::new();
        let s = PackedState(0x1234_5678_9abc_def0);
        assert!(v.claim(s).claimed);
        assert!(!v.claim(s).claimed);
        assert_eq!(v.len(), 1);
        assert!(!v.is_empty());
    }

    #[test]
    fn distinguishes_states_straddling_the_word_split() {
        // States identical in the low 62 bits but different above —
        // the `hi` comparison must separate them.
        let v = AtomicVisited::new();
        let low = PackedState(0x0fff_ffff_ffff_ffff);
        let a = PackedState(low.0 | (1u128 << 62));
        let b = PackedState(low.0 | (1u128 << 96));
        for s in [low, a, b] {
            assert!(v.claim(s).claimed, "{s:?} should be new");
        }
        for s in [low, a, b] {
            assert!(!v.claim(s).claimed, "{s:?} should be present");
        }
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn many_states_fill_multiple_segments() {
        // Enough states to overflow first segments of most shards.
        let v = AtomicVisited::new();
        let total = (SHARDS * BASE_SLOTS) / 2;
        for i in 0..total {
            // Spread bits so hashes are non-trivial.
            let s = PackedState((i as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1 << 97) - 1));
            v.claim(s);
        }
        let n = v.len();
        for i in 0..total {
            let s = PackedState((i as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1 << 97) - 1));
            assert!(!v.claim(s).claimed);
        }
        assert_eq!(v.len(), n, "re-claiming must not grow the set");
    }

    #[test]
    fn states_roundtrips_claims_and_bytes_grow() {
        let v = AtomicVisited::new();
        assert_eq!(v.states(), Vec::new());
        let mut expect: Vec<u128> = Vec::new();
        for i in 0..1000u128 {
            let s = PackedState(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1 << 97) - 1));
            assert!(v.claim(s).claimed);
            expect.push(s.0);
        }
        let mut got: Vec<u128> = v.states().iter().map(|s| s.0).collect();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
        // At least the touched first segments are accounted for.
        assert!(v.approx_bytes() >= (BASE_SLOTS * std::mem::size_of::<Slot>()) as u64);
    }

    #[test]
    fn concurrent_claims_have_exactly_one_winner_per_state() {
        const THREADS: usize = 8;
        const STATES: usize = 10_000;
        let v = AtomicVisited::new();
        let wins: Vec<AtomicUsize> = (0..STATES).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (v, wins) = (&v, &wins);
                scope.spawn(move || {
                    // Every thread claims every state; interleave
                    // starting points to maximise collisions.
                    for k in 0..STATES {
                        let i = (k + t * 37) % STATES;
                        let s = PackedState(
                            (i as u128).wrapping_mul(0x2545_f491_4f6c_dd1d) & ((1 << 97) - 1),
                        );
                        if v.claim(s).claimed {
                            wins[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for (i, w) in wins.iter().enumerate() {
            assert_eq!(w.load(Ordering::Relaxed), 1, "state {i} won {w:?} times");
        }
        assert_eq!(v.len(), STATES);
    }
}
