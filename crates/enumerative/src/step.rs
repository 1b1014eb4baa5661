//! Concrete transition semantics over packed global states.
//!
//! The explicit-state twin of `ccv-core::expand`: one cache originates
//! a processor event, the global context is evaluated *exactly* over
//! the other `n − 1` caches, the bus transaction is snooped by everyone
//! else, and the data context variables are updated per §2.4 of the
//! paper. Where the protocol leaves a choice — which of several
//! eligible caches supplies the block, or which of several
//! simultaneous write-backs reaches memory last — every resolution is
//! generated as its own successor, mirroring the symbolic engine's
//! branching so that the two engines explore the same behaviour
//! (Theorem 1 cross-check, experiment E7).
//!
//! # The O(n) kernel
//!
//! This module is the innermost loop of both enumeration engines: it
//! runs once per expanded state, millions of times per run. A state of
//! `n` caches has about `3n` stimuli, and little of a stimulus's work
//! depends on which cache originates it. So the work is split three
//! ways:
//!
//! * **Per spec**, [`ProtocolSpec`] carries dense tables over the 6-bit
//!   cache code ([`PackedState::cache_code`]): the snoop image (the code a
//!   snooping cache moves to, per bus op and load/store), the snoop
//!   roles (flushes or supplies, fresh or obsolete data) and the holder
//!   and owner masks. The builder fills them, and so does every
//!   override of a snoop row or of a state's attributes.
//! * **Per state**, one O(n) pass decodes the codes and counts holders
//!   and owners. The first stimulus that uses a bus op (or a silent
//!   transition) builds that op's summary: the flusher and supplier
//!   counts per freshness, and the snooped image of all `n` caches as
//!   two packed states, one after a load and one after a store.
//! * **Per stimulus**, the work is O(1) apart from the push: the global
//!   context is the counts minus the originator's own contribution, the
//!   flushers and suppliers are the summary minus the originator's
//!   roles, and each successor is the image with the originator's slot
//!   patched.
//!
//! Everything on that path is bounded statically and lives on the
//! stack:
//!
//! * the "last write-back wins" memory resolutions collapse to at most
//!   two choices (`fresh`/`obsolete`);
//! * the fill-source choices collapse to at most one supplier per
//!   freshness (fresh first) plus the memory fill: the successor state
//!   depends only on the source's freshness, never on its index;
//! * the per-stimulus successor dedup uses an inline
//!   `[PackedState; 4]` — 2 memory resolutions × 2 fill sources bound
//!   the candidates;
//! * stale accesses are recorded in a packed [`ErrorMask`] (`Copy`,
//!   one `u32`) instead of a `Vec`, so [`ConcreteStep`] itself is
//!   `Copy`.
//!
//! Violation checking is split the same way: [`is_violating`] is the
//! branch-only fast path the engines call per state, and
//! [`describe_violations`] formats human-readable descriptions only for
//! the rare states that actually violate. A warm `successors_into` call
//! performs **zero heap allocations** for non-violating states — the
//! `tests/no_alloc.rs` integration test pins this with a counting
//! global allocator.

use crate::packed::{PackedState, MAX_CACHES};
use ccv_model::{BusOp, CData, DataOp, GlobalCtx, MData, ProcEvent, ProtocolSpec, StateId};
use ccv_observe::RuleStat;
use std::time::Instant;

pub use ccv_model::{ConcreteError, ErrorMask};

/// One concrete successor: the event that produced it, the new state,
/// and any stale accesses observed on the way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConcreteStep {
    /// The originating cache.
    pub cache: usize,
    /// The processor event.
    pub event: ProcEvent,
    /// The successor state.
    pub to: PackedState,
    /// Stale accesses during the step.
    pub errors: ErrorMask,
}

/// The summary slot of a silent transition; bus op `b` uses slot
/// `b.index()`.
const SILENT: usize = BusOp::COUNT;

/// Spreads the four [`ProtocolSpec::snoop_roles`] bits over the four
/// byte lanes of a `u32`, so that one add counts every role at once
/// (`n ≤ 16` keeps each lane from overflowing).
#[inline]
fn lanes(roles: u8) -> u32 {
    (u32::from(roles) * 0x0020_4081) & 0x0101_0101
}

/// The bits of a packed state that hold cache `i`'s state and cdata.
#[inline]
fn slot_bits(i: usize) -> u128 {
    (0xF << (4 * i)) | (0x3 << (64 + 2 * i))
}

/// Cache code `code` (see [`PackedState::cache_code`]) in cache `i`'s
/// slot.
#[inline]
fn place(code: u8, i: usize) -> u128 {
    (u128::from(code >> 2) << (4 * i)) | (u128::from(code & 0x3) << (64 + 2 * i))
}

/// The per-state summary: everything about `gs` that does not depend
/// on which cache originates a stimulus. The per-bus-op parts are built
/// by the first stimulus that needs them.
struct Kernel<'a> {
    spec: &'a ProtocolSpec,
    gs: PackedState,
    n: usize,
    codes: [u8; MAX_CACHES],
    /// Caches whose state holds a copy.
    holders: u32,
    /// Caches whose state is owned.
    owners: u32,
    /// Bit `slot` set once `roles[slot]` and `images[slot]` are built.
    built: u8,
    /// Per bus op, the [`lanes`] sum of every cache's snoop roles.
    roles: [u32; BusOp::COUNT],
    /// Per slot, `[after a load, after a store]`: every cache's snooped
    /// code, with mdata clear. (Caches beyond `n` are invalid with no
    /// data in every state the engines reach, so their bits are clear
    /// too.)
    images: [[u128; 2]; BusOp::COUNT + 1],
}

impl<'a> Kernel<'a> {
    #[inline]
    fn new(spec: &'a ProtocolSpec, gs: PackedState, n: usize) -> Kernel<'a> {
        let (holds, owned) = (spec.holds_mask(), spec.owned_mask());
        let mut codes = [0u8; MAX_CACHES];
        let (mut holders, mut owners) = (0, 0);
        for (i, code) in codes[..n].iter_mut().enumerate() {
            *code = gs.cache_code(i);
            holders += u32::from(holds >> (*code >> 2)) & 1;
            owners += u32::from(owned >> (*code >> 2)) & 1;
        }
        Kernel {
            spec,
            gs,
            n,
            codes,
            holders,
            owners,
            built: 0,
            roles: [0; BusOp::COUNT],
            images: [[0; 2]; BusOp::COUNT + 1],
        }
    }

    /// Builds the summary of `slot` unless an earlier stimulus did.
    #[inline]
    fn summarize(&mut self, slot: usize) {
        if self.built & 1 << slot != 0 {
            return;
        }
        self.built |= 1 << slot;
        let bus = BusOp::ALL.get(slot).copied();
        let codes = &self.codes[..self.n];
        let (load_table, store_table) = (
            self.spec.snoop_image(bus, false),
            self.spec.snoop_image(bus, true),
        );
        let (mut load, mut store) = (0, 0);
        for (i, &code) in codes.iter().enumerate() {
            load |= place(load_table[code as usize], i);
            store |= place(store_table[code as usize], i);
        }
        self.images[slot] = [load, store];
        if let Some(bus) = bus {
            let table = self.spec.snoop_roles(bus);
            self.roles[slot] = codes.iter().map(|&c| lanes(table[c as usize])).sum();
        }
    }

    /// Appends the successors of cache `i`'s stimulus `event`.
    #[inline]
    fn step(&mut self, i: usize, event: ProcEvent, out: &mut Vec<ConcreteStep>) {
        let spec = self.spec;
        let code = self.codes[i];
        let ctx = GlobalCtx {
            others_hold_copy: self.holders > u32::from(spec.holds_mask() >> (code >> 2)) & 1,
            owner_exists: self.owners > u32::from(spec.owned_mask() >> (code >> 2)) & 1,
        };
        let outcome = spec.outcome(StateId(code >> 2), event, ctx);
        let slot = outcome.bus.map_or(SILENT, BusOp::index);
        self.summarize(slot);

        // The other caches' roles: the summary minus cache `i`'s own.
        let roles = match outcome.bus {
            Some(bus) => self.roles[slot] - lanes(spec.snoop_roles(bus)[code as usize]),
            None => 0,
        };
        let any = |role: u8| roles & (lanes(role) * 0xFF) != 0;

        // The "last write-back wins" resolutions: at most two.
        let mut mdata_choices = [MData::Fresh; 2];
        let mut num_mdata = 0usize;
        if any(ProtocolSpec::FLUSH_FRESH) {
            mdata_choices[num_mdata] = MData::Fresh;
            num_mdata += 1;
        }
        if any(ProtocolSpec::FLUSH_OBSOLETE) {
            mdata_choices[num_mdata] = MData::Obsolete;
            num_mdata += 1;
        }
        if num_mdata == 0 {
            mdata_choices[0] = self.gs.mdata();
            num_mdata = 1;
        }

        // The fill sources ("arbitrarily choose Cj with a copy"): one
        // per freshness among the suppliers, fresh first, named by that
        // freshness. `None` encodes a memory fill.
        let mut source_choices: [Option<CData>; 2] = [None; 2];
        let mut num_sources = 1usize;
        let (fresh, obsolete) = (
            any(ProtocolSpec::SUPPLY_FRESH),
            any(ProtocolSpec::SUPPLY_OBSOLETE),
        );
        if outcome.data.is_fill() && (fresh || obsolete) {
            num_sources = 0;
            if fresh {
                source_choices[num_sources] = Some(CData::Fresh);
                num_sources += 1;
            }
            if obsolete {
                source_choices[num_sources] = Some(CData::Obsolete);
                num_sources += 1;
            }
        }

        // Every other cache's coincident snoop transition, with cache
        // `i`'s slot cleared for its own outcome.
        let image = self.images[slot][usize::from(outcome.data.is_store())] & !slot_bits(i);
        let held = self.gs.cdata(i);
        let keeps_copy = spec.attrs(outcome.next).holds_copy;

        // Per-stimulus successor dedup: ≤ 2 × 2 candidates.
        let mut emitted = [PackedState::INITIAL; 4];
        let mut num_emitted = 0usize;
        for &mdata_after_flush in &mdata_choices[..num_mdata] {
            // Memory effect of the originator's operation.
            let mdata = match outcome.data {
                DataOp::Write { through: true, .. } => MData::Fresh,
                DataOp::Write { through: false, .. } => MData::Obsolete,
                DataOp::Evict { writeback: true } => match held {
                    CData::Fresh => MData::Fresh,
                    CData::Obsolete => MData::Obsolete,
                    CData::NoData => unreachable!("write-back without data"),
                },
                _ => mdata_after_flush,
            };
            for &source in &source_choices[..num_sources] {
                let mut errors = ErrorMask::EMPTY;
                let fill_cd = source.unwrap_or(mdata_after_flush.as_cdata());
                let new_cd = match outcome.data {
                    // A request phase moves no data and reads nothing:
                    // the held copy (if any) rides along untouched.
                    DataOp::None => held,
                    DataOp::Read { fill: false } => {
                        if held == CData::Obsolete {
                            errors.insert(ConcreteError::StaleReadHit { cache: i });
                        }
                        held
                    }
                    DataOp::Read { fill: true } => {
                        if fill_cd == CData::Obsolete {
                            errors.insert(ConcreteError::StaleFill { cache: i });
                        }
                        fill_cd
                    }
                    DataOp::Write { fill, .. } => {
                        if fill && fill_cd == CData::Obsolete {
                            errors.insert(ConcreteError::StaleFill { cache: i });
                        }
                        CData::Fresh
                    }
                    DataOp::Evict { .. } => CData::NoData,
                };
                let next = PackedState(image)
                    .with_mdata(mdata)
                    .with_state(i, outcome.next)
                    .with_cdata(i, if keeps_copy { new_cd } else { CData::NoData });

                if !emitted[..num_emitted].contains(&next) {
                    emitted[num_emitted] = next;
                    num_emitted += 1;
                    out.push(ConcreteStep {
                        cache: i,
                        event,
                        to: next,
                        errors,
                    });
                }
            }
        }
    }
}

/// Calls `f(cache, event)` once per stimulus of `gs`, in cache order.
/// A transient cache is stalled: its processor events are the
/// synthesized self-loops, and its only real stimulus is the
/// completion of the pending bus transaction.
#[inline]
fn for_each_stimulus(
    spec: &ProtocolSpec,
    gs: PackedState,
    n: usize,
    mut f: impl FnMut(usize, ProcEvent),
) {
    for i in 0..n {
        if spec.is_transient(gs.state(i)) {
            f(i, ProcEvent::Complete);
            continue;
        }
        for event in ProcEvent::ALL {
            if gs.state(i).is_invalid() && event == ProcEvent::Replace {
                continue;
            }
            f(i, event);
        }
    }
}

/// Generates every concrete successor of `gs` (for all caches and all
/// events, in cache order), appending into `out`. Distinct
/// data-resolution choices that produce identical successors are
/// deduplicated per stimulus.
///
/// Does not allocate once `out`'s capacity is warm.
pub fn successors_into(
    spec: &ProtocolSpec,
    gs: PackedState,
    n: usize,
    out: &mut Vec<ConcreteStep>,
) {
    let mut kernel = Kernel::new(spec, gs, n);
    for_each_stimulus(spec, gs, n, |i, event| kernel.step(i, event, out));
}

/// [`successors_into`] with per-rule attribution: each stimulus adds
/// one firing, its successor count and its kernel time to
/// `rules[spec.rule_id(..)]` (`rules` holds `spec.num_rules()` slots).
/// A stimulus's time runs from the end of the one before, so the
/// per-state pass and each bus op's summary are charged to the
/// stimulus that first needs them. The stimuli, and so the successors,
/// are exactly those of [`successors_into`].
pub(crate) fn successors_attributed(
    spec: &ProtocolSpec,
    gs: PackedState,
    n: usize,
    out: &mut Vec<ConcreteStep>,
    rules: &mut [RuleStat],
) {
    let mut start = Instant::now();
    let mut kernel = Kernel::new(spec, gs, n);
    for_each_stimulus(spec, gs, n, |i, event| {
        let before = out.len();
        kernel.step(i, event, out);
        let end = Instant::now();
        let r = &mut rules[spec.rule_id(gs.state(i), event)];
        r.nanos += (end - start).as_nanos() as u64;
        r.firings += 1;
        r.states += (out.len() - before) as u64;
        start = end;
    });
}

/// Structural permissibility of a concrete state (§2.1) plus the
/// Definition 3 predicate, as a single branch-only pass: no duplicated
/// exclusive copy, no exclusive copy beside another copy, at most one
/// owner, no readable obsolete copy.
///
/// This is the per-state fast path of the enumeration engines; it never
/// allocates and exits early on the first violation. Equivalent to
/// `!describe_violations(spec, gs, n).is_empty()`.
#[inline]
pub fn is_violating(spec: &ProtocolSpec, gs: PackedState, n: usize) -> bool {
    let mut owners = 0usize;
    let mut copies = 0usize;
    let mut exclusive = false;
    for i in 0..n {
        let attrs = spec.attrs(gs.state(i));
        if !attrs.holds_copy {
            continue;
        }
        copies += 1;
        exclusive |= attrs.exclusive;
        // A transient cache is stalled and cannot read its copy, so an
        // obsolete copy in flight is not a Definition 3 violation.
        if gs.cdata(i) == CData::Obsolete && !spec.is_transient(gs.state(i)) {
            return true;
        }
        if attrs.owned {
            owners += 1;
            if owners > 1 {
                return true;
            }
        }
    }
    exclusive && copies > 1
}

/// Human-readable descriptions of every violation [`is_violating`]
/// detects. Allocates freely — callers reach it only for the rare
/// states where `is_violating` already returned `true` (or where a
/// transition carried a stale access).
pub fn describe_violations(spec: &ProtocolSpec, gs: PackedState, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut owners = 0usize;
    let copies = gs.copies(n, spec);
    for i in 0..n {
        let s = gs.state(i);
        let attrs = spec.attrs(s);
        if !attrs.holds_copy {
            continue;
        }
        if attrs.owned {
            owners += 1;
        }
        if attrs.exclusive && copies > 1 {
            out.push(format!(
                "cache {i} holds exclusive {} but {} copies exist",
                spec.state(s).name,
                copies
            ));
        }
        if gs.cdata(i) == CData::Obsolete && !spec.is_transient(s) {
            out.push(format!(
                "cache {i} holds a readable obsolete copy in state {}",
                spec.state(s).name
            ));
        }
    }
    if owners > 1 {
        out.push(format!("{owners} owned copies coexist"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashSet;
    use ccv_model::mutate::single_mutants;
    use ccv_model::protocols::{all_buggy, all_correct, all_non_atomic, berkeley, illinois};
    use std::collections::VecDeque;

    // The per-stimulus kernel that preceded the per-state summary, kept
    // unchanged as the reference `successors_into` is held to: each
    // stimulus rescans every cache for the context, the flushers and
    // suppliers, and every snoop reaction.

    /// Evaluates the characteristic predicates from cache `i`'s
    /// perspective — the paper's sharing-detection function `fᵢ`, computed
    /// exactly.
    fn context_of(spec: &ProtocolSpec, gs: PackedState, n: usize, i: usize) -> GlobalCtx {
        let mut others = false;
        let mut owner = false;
        for j in 0..n {
            if j == i {
                continue;
            }
            let attrs = spec.attrs(gs.state(j));
            others |= attrs.holds_copy;
            owner |= attrs.owned;
        }
        GlobalCtx {
            others_hold_copy: others,
            owner_exists: owner,
        }
    }

    /// Generates the successors of one `(cache, event)` stimulus.
    ///
    /// Does not allocate once `out`'s capacity is warm: every intermediate
    /// (flush resolutions, fill sources, per-stimulus dedup, stale-access
    /// set) is a fixed-size stack value.
    fn step_into(
        spec: &ProtocolSpec,
        gs: PackedState,
        n: usize,
        i: usize,
        event: ProcEvent,
        out: &mut Vec<ConcreteStep>,
    ) {
        let ctx = context_of(spec, gs, n, i);
        let outcome = spec.outcome(gs.state(i), event, ctx);
        let store = outcome.data.is_store();

        // Identify flushers and suppliers among the snooping caches. Only
        // the *freshness* of a flusher or supplier can influence the
        // successor state, so one representative per freshness suffices
        // (first in cache order, matching the historical choice order).
        let mut flush_fresh = false;
        let mut flush_obsolete = false;
        let mut supplier_fresh: Option<usize> = None;
        let mut supplier_obsolete: Option<usize> = None;
        if let Some(bus) = outcome.bus {
            for j in 0..n {
                if j == i || !spec.attrs(gs.state(j)).holds_copy {
                    continue;
                }
                let sn = spec.snoop(gs.state(j), bus);
                if sn.flushes_to_memory {
                    match gs.cdata(j) {
                        CData::Fresh => flush_fresh = true,
                        CData::Obsolete => flush_obsolete = true,
                        CData::NoData => unreachable!("flusher holds a copy"),
                    }
                }
                if sn.supplies_data {
                    match gs.cdata(j) {
                        CData::Fresh => {
                            supplier_fresh.get_or_insert(j);
                        }
                        CData::Obsolete => {
                            supplier_obsolete.get_or_insert(j);
                        }
                        CData::NoData => unreachable!("supplier holds a copy"),
                    }
                }
            }
        }

        // The "last write-back wins" resolutions: at most two.
        let mut mdata_choices = [MData::Fresh; 2];
        let mut num_mdata = 0usize;
        if flush_fresh {
            mdata_choices[num_mdata] = MData::Fresh;
            num_mdata += 1;
        }
        if flush_obsolete {
            mdata_choices[num_mdata] = MData::Obsolete;
            num_mdata += 1;
        }
        if num_mdata == 0 {
            mdata_choices[0] = gs.mdata();
            num_mdata = 1;
        }

        // The fill sources ("arbitrarily choose Cj with a copy"): at most
        // one per freshness. `None` encodes a memory fill.
        let mut source_choices: [Option<usize>; 2] = [None; 2];
        let mut num_sources = 1usize;
        if outcome.data.is_fill() && (supplier_fresh.is_some() || supplier_obsolete.is_some()) {
            num_sources = 0;
            if let Some(j) = supplier_fresh {
                source_choices[num_sources] = Some(j);
                num_sources += 1;
            }
            if let Some(j) = supplier_obsolete {
                source_choices[num_sources] = Some(j);
                num_sources += 1;
            }
        }

        // Per-stimulus successor dedup: ≤ 2 × 2 candidates.
        let mut emitted = [PackedState::INITIAL; 4];
        let mut num_emitted = 0usize;
        for &mdata_after_flush in &mdata_choices[..num_mdata] {
            for &source in &source_choices[..num_sources] {
                let mut errors = ErrorMask::EMPTY;
                let mut next = gs.with_mdata(mdata_after_flush);

                // Coincident snoop transitions for every other cache.
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let (target, received) = match outcome.bus {
                        Some(bus) if !gs.state(j).is_invalid() => {
                            let sn = spec.snoop(gs.state(j), bus);
                            (sn.next, sn.receives_update)
                        }
                        _ => (gs.state(j), false),
                    };
                    next = next.with_state(j, target);
                    let cd = if !spec.attrs(target).holds_copy {
                        CData::NoData
                    } else if store {
                        if received {
                            CData::Fresh
                        } else {
                            CData::Obsolete
                        }
                    } else {
                        gs.cdata(j)
                    };
                    next = next.with_cdata(j, cd);
                }

                // Memory effect of the originator's operation.
                match outcome.data {
                    DataOp::Write { through, .. } => {
                        next = next.with_mdata(if through {
                            MData::Fresh
                        } else {
                            MData::Obsolete
                        });
                    }
                    DataOp::Evict { writeback: true } => {
                        next = next.with_mdata(match gs.cdata(i) {
                            CData::Fresh => MData::Fresh,
                            CData::Obsolete => MData::Obsolete,
                            CData::NoData => unreachable!("write-back without data"),
                        });
                    }
                    _ => {}
                }

                // The originator itself.
                let fill_cd = source
                    .map(|j| gs.cdata(j))
                    .unwrap_or(mdata_after_flush.as_cdata());
                let new_cd = match outcome.data {
                    // A request phase moves no data and reads nothing: the
                    // held copy (if any) rides along untouched.
                    DataOp::None => gs.cdata(i),
                    DataOp::Read { fill: false } => {
                        if gs.cdata(i) == CData::Obsolete {
                            errors.insert(ConcreteError::StaleReadHit { cache: i });
                        }
                        gs.cdata(i)
                    }
                    DataOp::Read { fill: true } => {
                        if fill_cd == CData::Obsolete {
                            errors.insert(ConcreteError::StaleFill { cache: i });
                        }
                        fill_cd
                    }
                    DataOp::Write { fill, .. } => {
                        if fill && fill_cd == CData::Obsolete {
                            errors.insert(ConcreteError::StaleFill { cache: i });
                        }
                        CData::Fresh
                    }
                    DataOp::Evict { .. } => CData::NoData,
                };
                next = next.with_state(i, outcome.next);
                next = next.with_cdata(
                    i,
                    if spec.attrs(outcome.next).holds_copy {
                        new_cd
                    } else {
                        CData::NoData
                    },
                );

                if !emitted[..num_emitted].contains(&next) {
                    emitted[num_emitted] = next;
                    num_emitted += 1;
                    out.push(ConcreteStep {
                        cache: i,
                        event,
                        to: next,
                        errors,
                    });
                }
            }
        }
    }

    /// The reference's successors of `gs`: `step_into` over every
    /// stimulus.
    fn reference_successors(spec: &ProtocolSpec, gs: PackedState, n: usize) -> Vec<ConcreteStep> {
        let mut out = Vec::new();
        for_each_stimulus(spec, gs, n, |i, event| {
            step_into(spec, gs, n, i, event, &mut out)
        });
        out
    }

    /// Expands up to `cap` states of `spec` at `n` caches, breadth
    /// first, and asserts that `successors_into` and
    /// `successors_attributed` produce the reference's successor list
    /// at every one: same length, and the same cache, event, successor
    /// and errors at every position.
    fn assert_kernel_matches_reference(spec: &ProtocolSpec, n: usize, cap: usize) {
        let mut seen = FxHashSet::default();
        seen.insert(PackedState::INITIAL);
        let mut work = VecDeque::from([PackedState::INITIAL]);
        let mut rules = vec![RuleStat::default(); spec.num_rules()];
        let (mut got, mut attributed) = (Vec::new(), Vec::new());
        while let Some(gs) = work.pop_front() {
            let want = reference_successors(spec, gs, n);
            got.clear();
            successors_into(spec, gs, n, &mut got);
            assert_eq!(
                got,
                want,
                "{} n={n} from {}",
                spec.name(),
                gs.render(n, spec)
            );
            attributed.clear();
            successors_attributed(spec, gs, n, &mut attributed, &mut rules);
            assert_eq!(attributed, want, "{} n={n} (attributed)", spec.name());
            for s in &want {
                if seen.len() < cap && seen.insert(s.to) {
                    work.push_back(s.to);
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_on_the_library_and_its_mutants() {
        // Every reachable state at n ≤ 4 (about 995k expansions over
        // 1,184 specs); the cap only guards against a runaway mutant.
        const CAP: usize = 100_000;
        let library: Vec<ProtocolSpec> =
            all_correct().into_iter().chain(all_non_atomic()).collect();
        let buggy = all_buggy().into_iter().map(|(spec, _)| spec);
        let mutants = library.iter().flat_map(single_mutants).map(|m| m.spec);
        for spec in library.iter().cloned().chain(buggy).chain(mutants) {
            for n in 1..=4 {
                assert_kernel_matches_reference(&spec, n, CAP);
            }
        }
    }

    fn sid(spec: &ProtocolSpec, name: &str) -> StateId {
        spec.state_by_name(name).unwrap()
    }

    fn errors_of(step: &ConcreteStep) -> Vec<ConcreteError> {
        step.errors.iter().collect()
    }

    #[test]
    fn context_is_exact() {
        let spec = illinois();
        let sh = sid(&spec, "Shared");
        let d = sid(&spec, "Dirty");
        let gs = PackedState::INITIAL.with_state(1, sh).with_state(2, d);
        let ctx = context_of(&spec, gs, 3, 0);
        assert!(ctx.others_hold_copy && ctx.owner_exists);
        let ctx2 = context_of(&spec, gs.with_state(2, StateId::INVALID), 3, 0);
        assert!(ctx2.others_hold_copy && !ctx2.owner_exists);
        let ctx3 = context_of(&spec, PackedState::INITIAL, 3, 0);
        assert_eq!(ctx3, GlobalCtx::ALONE);
    }

    #[test]
    fn lone_read_fills_valid_exclusive() {
        let spec = illinois();
        let mut out = Vec::new();
        step_into(&spec, PackedState::INITIAL, 2, 0, ProcEvent::Read, &mut out);
        assert_eq!(out.len(), 1);
        let s = &out[0];
        assert_eq!(s.to.state(0), sid(&spec, "V-Ex"));
        assert_eq!(s.to.cdata(0), CData::Fresh);
        assert!(s.errors.is_empty());
    }

    #[test]
    fn read_miss_next_to_dirty_flushes_and_shares() {
        let spec = illinois();
        let d = sid(&spec, "Dirty");
        let gs = PackedState::INITIAL
            .with_state(1, d)
            .with_cdata(1, CData::Fresh)
            .with_mdata(MData::Obsolete);
        let mut out = Vec::new();
        step_into(&spec, gs, 2, 0, ProcEvent::Read, &mut out);
        assert_eq!(out.len(), 1);
        let s = &out[0];
        let sh = sid(&spec, "Shared");
        assert_eq!(s.to.state(0), sh);
        assert_eq!(s.to.state(1), sh);
        assert_eq!(s.to.mdata(), MData::Fresh, "Dirty snooper flushed");
        assert_eq!(s.to.cdata(0), CData::Fresh);
        assert!(s.errors.is_empty());
    }

    #[test]
    fn write_demotes_unupdated_copies() {
        // Two Shared copies; cache 0 writes: cache 1 must be
        // invalidated (Illinois), memory goes obsolete.
        let spec = illinois();
        let sh = sid(&spec, "Shared");
        let gs = PackedState::INITIAL
            .with_state(0, sh)
            .with_cdata(0, CData::Fresh)
            .with_state(1, sh)
            .with_cdata(1, CData::Fresh);
        let mut out = Vec::new();
        step_into(&spec, gs, 2, 0, ProcEvent::Write, &mut out);
        assert_eq!(out.len(), 1);
        let s = &out[0];
        assert_eq!(s.to.state(0), sid(&spec, "Dirty"));
        assert_eq!(s.to.state(1), StateId::INVALID);
        assert_eq!(s.to.cdata(1), CData::NoData);
        assert_eq!(s.to.mdata(), MData::Obsolete);
    }

    #[test]
    fn berkeley_owner_supplies_without_flushing() {
        let spec = berkeley();
        let sd = sid(&spec, "Shared-Dirty");
        let gs = PackedState::INITIAL
            .with_state(1, sd)
            .with_cdata(1, CData::Fresh)
            .with_mdata(MData::Obsolete);
        let mut out = Vec::new();
        step_into(&spec, gs, 2, 0, ProcEvent::Read, &mut out);
        assert_eq!(out.len(), 1);
        let s = &out[0];
        assert_eq!(s.to.cdata(0), CData::Fresh, "owner supplied fresh data");
        assert_eq!(s.to.mdata(), MData::Obsolete, "memory not updated");
        assert!(s.errors.is_empty());
    }

    #[test]
    fn stale_fill_is_reported() {
        // Memory obsolete, no copies anywhere: a read miss fills stale.
        let spec = illinois();
        let gs = PackedState::INITIAL.with_mdata(MData::Obsolete);
        let mut out = Vec::new();
        step_into(&spec, gs, 2, 0, ProcEvent::Read, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            errors_of(&out[0]),
            vec![ConcreteError::StaleFill { cache: 0 }]
        );
    }

    #[test]
    fn successors_skips_replace_of_absent_block() {
        let spec = illinois();
        let mut out = Vec::new();
        successors_into(&spec, PackedState::INITIAL, 2, &mut out);
        assert!(out.iter().all(|s| s.event != ProcEvent::Replace));
        // Exactly Read and Write per cache: 4 successors.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn check_concrete_flags_double_dirty() {
        let spec = illinois();
        let d = sid(&spec, "Dirty");
        let gs = PackedState::INITIAL
            .with_state(0, d)
            .with_cdata(0, CData::Fresh)
            .with_state(1, d)
            .with_cdata(1, CData::Fresh);
        let v = describe_violations(&spec, gs, 2);
        assert!(!v.is_empty());
        assert!(v.iter().any(|m| m.contains("exclusive")));
        assert!(v.iter().any(|m| m.contains("owned")));
        assert!(is_violating(&spec, gs, 2));
    }

    #[test]
    fn check_concrete_passes_clean_states() {
        let spec = illinois();
        let sh = sid(&spec, "Shared");
        let gs = PackedState::INITIAL
            .with_state(0, sh)
            .with_cdata(0, CData::Fresh)
            .with_state(1, sh)
            .with_cdata(1, CData::Fresh);
        assert!(describe_violations(&spec, gs, 2).is_empty());
        assert!(!is_violating(&spec, gs, 2));
    }

    #[test]
    fn is_violating_agrees_with_describe_violations_everywhere() {
        // The fast path and the describing path must induce the same
        // predicate over every reachable state of every bundled
        // protocol, correct and buggy alike.
        let mut specs = vec![illinois(), berkeley()];
        specs.extend(all_buggy().into_iter().map(|(s, _)| s));
        for spec in specs {
            for n in 1..=3 {
                for gs in crate::explicit::reachable_states(&spec, n, 1 << 20) {
                    assert_eq!(
                        is_violating(&spec, gs, n),
                        !describe_violations(&spec, gs, n).is_empty(),
                        "{} n={n} state={gs:?}",
                        spec.name()
                    );
                }
            }
        }
    }
}
