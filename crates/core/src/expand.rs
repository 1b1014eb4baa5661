//! One-step symbolic expansion of composite states.
//!
//! Implements the expansion rules of §3.2.3 over the interval
//! representation:
//!
//! * **Rule 2 (coincident transitions)** — the bus transaction emitted
//!   by the originator is snooped by every other class, which moves to
//!   its snoop target *as a class* (the interval is carried over and
//!   merged into the target, realising the aggregation rules of
//!   Rule 1).
//! * **Rule 3 (one-step transitions)** — the originator leaves its
//!   class (interval minus one) and arrives in the outcome state
//!   (interval plus one).
//! * **Rule 4 (N-step transitions)** — not needed as an explicit rule:
//!   exact interval arithmetic plus the per-category emission of
//!   [`crate::istate::emit`] generates precisely the intermediate and
//!   terminal states rules 4(a)/4(b) enumerate, one worklist step at a
//!   time (see `DESIGN.md` §3.2).
//!
//! The paper's `/`-or-selections (which cache supplies the block,
//! whether an owner exists, whether a flush precedes the fill) become
//! explicit **branches**: each branch conditions the relevant class
//! nonempty/empty and yields its own successor family. Data-consistency
//! bookkeeping (Definitions 3–4) is threaded through every branch;
//! stale accesses are recorded in a copyable [`StepErrors`] set (shared
//! with the explicit engine) and rendered only when a finding is
//! reported.
//!
//! The hot entry point is [`successors_into`], which writes transitions
//! into a caller-owned buffer and keeps every intermediate branch list
//! in a reusable [`ExpandScratch`], so steady-state expansion performs
//! no allocation. [`successors`] is the allocating convenience wrapper.

use crate::composite::{ClassKey, Composite};
use crate::istate::{emit_into, internalize_into, IState, KeyList};
use ccv_model::{CData, DataOp, GlobalCtx, MData, Outcome, ProcEvent, ProtocolSpec};
pub use ccv_model::{StepError, StepErrors};
use core::fmt;

/// Identifies a symbolic transition: which class originated it, under
/// which event and observed global context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label {
    /// Class of the originating cache.
    pub origin: ClassKey,
    /// The processor event.
    pub event: ProcEvent,
    /// The global context the originator observed.
    pub ctx: GlobalCtx,
}

impl Label {
    /// Paper-style rendering, e.g. `R_inv`, `W_shared`, `Z_dirty`
    /// (Fig. 4 uses an optional subscript naming the originator state).
    pub fn render(&self, spec: &ProtocolSpec) -> String {
        let short = spec.state(self.origin.state).short.to_ascii_lowercase();
        let marker = if self.origin.cdata == CData::Obsolete {
            "!"
        } else {
            ""
        };
        format!("{}_{}{}", self.event.label(), short, marker)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_q{}", self.event.label(), self.origin.state.0)
    }
}

/// One symbolic successor: the transition label, the canonical
/// successor state, and any data errors observed *during* the step.
#[derive(Clone, Debug)]
pub struct Transition {
    /// What happened.
    pub label: Label,
    /// Where the system family went.
    pub to: Composite,
    /// Stale accesses observed while applying the step.
    pub errors: StepErrors,
}

/// A resolved data-movement scenario: the refined rest-of-system (with
/// memory freshness updated by any flush) and, for fills, the freshness
/// of the chosen source.
#[derive(Clone, Debug)]
struct DataBranch {
    rest: IState,
    fill_cd: Option<CData>,
}

/// Reusable intermediate buffers for [`successors_into`]. One scratch
/// per engine: after the first few expansion steps every buffer has
/// reached its high-water capacity and successor generation allocates
/// nothing.
#[derive(Debug, Default)]
pub struct ExpandScratch {
    pre: Vec<IState>,
    sharing: Vec<(bool, IState)>,
    ctx: Vec<(GlobalCtx, IState)>,
    flush: Vec<IState>,
    data: Vec<DataBranch>,
    cats: Vec<IState>,
    emit: Vec<Composite>,
}

impl ExpandScratch {
    /// Fresh (empty) scratch buffers.
    pub fn new() -> ExpandScratch {
        ExpandScratch::default()
    }
}

/// Computes every one-step symbolic successor of `comp`, writing them
/// into `out` (cleared first).
///
/// Every `(internalisation branch, originator class, event, context
/// branch, data branch, emission category)` combination yields one
/// [`Transition`]; the caller (the worklist engine) counts these as
/// *state visits* in the sense of §3.1.
pub fn successors_into(
    spec: &ProtocolSpec,
    comp: &Composite,
    scratch: &mut ExpandScratch,
    out: &mut Vec<Transition>,
) {
    out.clear();
    let ExpandScratch {
        pre,
        sharing,
        ctx,
        flush,
        data,
        cats,
        emit,
    } = scratch;
    internalize_into(spec, comp, pre);
    for pre_branch in pre.iter() {
        for ci in 0..pre_branch.classes().len() {
            let (key, iv) = pre_branch.classes()[ci];
            // A transient class is stalled on the bus: its processor
            // events are self-loops, and its only real stimulus is the
            // completion of the pending transaction.
            let events: &[ProcEvent] = if spec.is_transient(key.state) {
                &[ProcEvent::Complete]
            } else {
                &ProcEvent::ALL
            };
            for &event in events {
                // A replacement of an absent block is not a transition.
                if key.state.is_invalid() && event == ProcEvent::Replace {
                    continue;
                }
                let Some(orig_iv) = iv.condition_nonempty() else {
                    continue;
                };
                let mut rest = pre_branch.clone();
                rest.set(key, orig_iv.minus_one());
                context_branches_into(spec, &rest, key, event, sharing, ctx);
                for &(gctx, ref rest_ctx) in ctx.iter() {
                    let outc = spec.outcome(key.state, event, gctx);
                    let label = Label {
                        origin: key,
                        event,
                        ctx: gctx,
                    };
                    data_branches_into(spec, rest_ctx, &outc, flush, data);
                    for branch in data.iter() {
                        let (succ, errors) = apply(spec, branch, &outc, key);
                        emit_into(spec, &succ, cats, emit);
                        for canonical in emit.iter() {
                            out.push(Transition {
                                label,
                                to: canonical.clone(),
                                errors,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Allocating wrapper around [`successors_into`].
///
/// ```
/// use ccv_core::{successors, Composite};
/// use ccv_model::protocols;
///
/// let spec = protocols::illinois();
/// // From (Invalid⁺): a lone read fills Valid-Exclusive, a write
/// // fills Dirty — two successors (replacement of an absent block is
/// // not a transition).
/// let succ = successors(&spec, &Composite::initial(&spec));
/// assert_eq!(succ.len(), 2);
/// assert!(succ.iter().all(|t| t.errors.is_empty()));
/// ```
pub fn successors(spec: &ProtocolSpec, comp: &Composite) -> Vec<Transition> {
    let mut scratch = ExpandScratch::new();
    let mut out = Vec::new();
    successors_into(spec, comp, &mut scratch, &mut out);
    out
}

/// Evaluates the characteristic predicates over the rest of the system,
/// branching when a predicate is ambiguous *and* the protocol's outcome
/// actually depends on it. Writes into `out` (cleared first); `sharing`
/// is scratch space for the intermediate sharing-predicate branches.
fn context_branches_into(
    spec: &ProtocolSpec,
    rest: &IState,
    origin: ClassKey,
    event: ProcEvent,
    sharing: &mut Vec<(bool, IState)>,
    out: &mut Vec<(GlobalCtx, IState)>,
) {
    sharing.clear();
    out.clear();
    let alone = spec.outcome(origin.state, event, GlobalCtx::ALONE);
    let shared = spec.outcome(origin.state, event, GlobalCtx::SHARED_CLEAN);
    let owned = spec.outcome(origin.state, event, GlobalCtx::OWNED_ELSEWHERE);

    // Resolve the sharing predicate.
    let (lo, unbounded) = rest.total_valid(spec);
    if lo >= 1 {
        sharing.push((true, rest.clone()));
    } else if !unbounded {
        sharing.push((false, rest.clone()));
    } else if alone == shared && alone == owned {
        // Ambiguous but irrelevant: any context selects the same
        // outcome. (For sharing-detection protocols internalisation
        // makes the predicate exact, so this arm only serves
        // null-characteristic protocols, where it is irrelevant by
        // construction.)
        sharing.push((true, rest.clone()));
    } else {
        // Ambiguous and relevant: branch explicitly.
        let mut valid = KeyList::new();
        for &(k, _) in rest.classes() {
            if spec.attrs(k.state).holds_copy {
                valid.push(k);
            }
        }
        presence_branches(rest, &valid, |holder, s| {
            sharing.push((holder.is_some(), s))
        });
    }

    // Resolve the ownership predicate within each sharing branch.
    for (others, state) in sharing.drain(..) {
        if !others {
            out.push((GlobalCtx::ALONE, state));
            continue;
        }
        let mut owners = KeyList::new();
        for &(k, _) in state.classes() {
            if spec.attrs(k.state).owned {
                owners.push(k);
            }
        }
        let definite = owners.iter().any(|&k| state.get(k).certainly_nonempty());
        let possible = !owners.is_empty();
        if definite {
            out.push((GlobalCtx::OWNED_ELSEWHERE, state));
        } else if !possible || shared == owned {
            // No owner can exist, or the distinction is irrelevant.
            out.push((GlobalCtx::SHARED_CLEAN, state));
        } else {
            // Ambiguous and relevant: branch.
            presence_branches(&state, &owners, |owner, s| {
                let ctx = match owner {
                    Some(_) => GlobalCtx::OWNED_ELSEWHERE,
                    None => GlobalCtx::SHARED_CLEAN,
                };
                out.push((ctx, s));
            });
        }
    }
}

/// Branches on which of the classes `keys` are nonempty in `state`:
/// first the branch where every one of them is empty (`None`, when
/// feasible), then one branch per class that can be nonempty
/// (`Some(key)`), in `keys` order. Each branch is handed to `push`.
#[inline]
fn presence_branches(
    state: &IState,
    keys: &KeyList,
    mut push: impl FnMut(Option<ClassKey>, IState),
) {
    if let Some(none) = keys
        .iter()
        .try_fold(state.clone(), |s, &k| s.condition_empty(k))
    {
        push(None, none);
    }
    for &k in keys {
        if let Some(s) = state.condition_nonempty(k) {
            push(Some(k), s);
        }
    }
}

/// Enumerates the data-movement scenarios of a transition: which class
/// (if any) flushes to memory, and which class (or memory) supplies a
/// fill. Each scenario conditions the involved classes and carries the
/// memory freshness forward (flushes happen before the fill reads
/// memory — the atomic-transaction assumption of §2.4). Writes into
/// `out` (cleared first); `flush` is scratch space for the flush
/// scenarios.
fn data_branches_into(
    spec: &ProtocolSpec,
    rest: &IState,
    outc: &Outcome,
    flush: &mut Vec<IState>,
    out: &mut Vec<DataBranch>,
) {
    flush.clear();
    out.clear();

    // Step 1: flush scenarios.
    match outc.bus {
        None => flush.push(rest.clone()),
        Some(bus) => {
            let mut flushers = KeyList::new();
            for &(k, _) in rest.classes() {
                if spec.attrs(k.state).holds_copy && spec.snoop(k.state, bus).flushes_to_memory {
                    flushers.push(k);
                }
            }
            // A no-flush scenario (every flusher class empty), then one
            // scenario per flushing class: memory takes its data.
            presence_branches(rest, &flushers, |flusher, mut s| {
                if let Some(k) = flusher {
                    s.mdata = match k.cdata {
                        CData::Fresh => MData::Fresh,
                        CData::Obsolete => MData::Obsolete,
                        CData::NoData => unreachable!("flusher holds a copy"),
                    };
                }
                flush.push(s);
            });
        }
    }

    // Step 2: fill-source scenarios within each flush scenario.
    if !outc.data.is_fill() {
        for rest in flush.drain(..) {
            out.push(DataBranch {
                rest,
                fill_cd: None,
            });
        }
        return;
    }
    let bus = outc
        .bus
        .expect("fill transitions carry a bus op (validated)");
    for fs in flush.iter() {
        let mut suppliers = KeyList::new();
        for &(k, _) in fs.classes() {
            if spec.attrs(k.state).holds_copy && spec.snoop(k.state, bus).supplies_data {
                suppliers.push(k);
            }
        }
        // A memory-fill scenario (no supplier present), then the
        // cache-supply scenarios ("arbitrarily choose Cj with a copy").
        presence_branches(fs, &suppliers, |supplier, s| {
            let cd = supplier.map_or(s.mdata.as_cdata(), |k| k.cdata);
            out.push(DataBranch {
                rest: s,
                fill_cd: Some(cd),
            });
        });
    }
}

/// Applies one fully-resolved transition scenario: snoops the rest of
/// the system, performs the store demotions and memory updates, and
/// re-inserts the originator.
fn apply(
    spec: &ProtocolSpec,
    br: &DataBranch,
    outc: &Outcome,
    origin: ClassKey,
) -> (IState, StepErrors) {
    let mut errors = StepErrors::EMPTY;
    let store = outc.data.is_store();
    let mut succ = IState::empty(br.rest.mdata);

    // Coincident transitions: every other class snoops the transaction.
    for &(k, iv) in br.rest.classes() {
        let (next_state, received_update) = match outc.bus {
            Some(bus) if !k.state.is_invalid() => {
                let sn = spec.snoop(k.state, bus);
                (sn.next, sn.receives_update)
            }
            _ => (k.state, false),
        };
        let new_key = if !spec.attrs(next_state).holds_copy {
            // Invalid — or a copy-less transient, whose identity (the
            // pending transaction) must survive even though it holds
            // no data. For atomic protocols `next_state` is always the
            // invalid state here, so this is `ClassKey::invalid()`.
            ClassKey {
                state: next_state,
                cdata: CData::NoData,
            }
        } else {
            let cdata = if store {
                // A store creates a new value: every surviving copy
                // that did not absorb the broadcast is now obsolete.
                if received_update {
                    CData::Fresh
                } else {
                    CData::Obsolete
                }
            } else {
                k.cdata
            };
            ClassKey {
                state: next_state,
                cdata,
            }
        };
        succ.merge_into(new_key, iv);
    }

    // Memory effect of the originator's data operation.
    match outc.data {
        DataOp::Write { through, .. } => {
            succ.mdata = if through {
                MData::Fresh
            } else {
                MData::Obsolete
            };
        }
        DataOp::Evict { writeback: true } => {
            succ.mdata = match origin.cdata {
                CData::Fresh => MData::Fresh,
                CData::Obsolete => MData::Obsolete,
                CData::NoData => unreachable!("write-back from a copy-less state"),
            };
        }
        _ => {}
    }

    // The originator's own data.
    let new_cd = match outc.data {
        // A request phase moves no data and reads nothing: the held
        // copy (if any) rides along untouched.
        DataOp::None => origin.cdata,
        DataOp::Read { fill: false } => {
            if origin.cdata == CData::Obsolete {
                errors.insert(StepError::StaleReadHit);
            }
            origin.cdata
        }
        DataOp::Read { fill: true } => {
            let cd = br.fill_cd.expect("fill scenario resolved a source");
            if cd == CData::Obsolete {
                errors.insert(StepError::StaleFill);
            }
            cd
        }
        DataOp::Write { fill, .. } => {
            if fill {
                let cd = br.fill_cd.expect("fill scenario resolved a source");
                if cd == CData::Obsolete {
                    errors.insert(StepError::StaleFill);
                }
            }
            CData::Fresh
        }
        DataOp::Evict { .. } => CData::NoData,
    };
    let new_key = if !spec.attrs(outc.next).holds_copy {
        // As above: preserve a copy-less transient target's identity.
        ClassKey {
            state: outc.next,
            cdata: CData::NoData,
        }
    } else {
        debug_assert_ne!(new_cd, CData::NoData, "valid state must carry data");
        ClassKey {
            state: outc.next,
            cdata: new_cd,
        }
    };
    succ.add_one(new_key);

    (succ, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fval::FVal;
    use crate::rep::Rep;
    use ccv_model::protocols::{illinois, msi, synapse};
    use ccv_model::StateId;

    fn ck(spec: &ProtocolSpec, name: &str) -> ClassKey {
        let s = spec.state_by_name(name).unwrap();
        if s == StateId::INVALID {
            ClassKey::invalid()
        } else {
            ClassKey::fresh(s)
        }
    }

    fn find<'a>(
        ts: &'a [Transition],
        spec: &ProtocolSpec,
        origin: &str,
        event: ProcEvent,
    ) -> Vec<&'a Transition> {
        let o = ck(spec, origin);
        ts.iter()
            .filter(|t| t.label.origin == o && t.label.event == event)
            .collect()
    }

    #[test]
    fn initial_illinois_read_fills_valid_exclusive() {
        let spec = illinois();
        let init = Composite::initial(&spec);
        let succ = successors(&spec, &init);
        let reads = find(&succ, &spec, "Inv", ProcEvent::Read);
        assert_eq!(reads.len(), 1, "one read successor from (Inv⁺)");
        let t = reads[0];
        assert_eq!(t.label.ctx, GlobalCtx::ALONE);
        assert!(t.errors.is_empty());
        // (V-Ex, Inv*) with F = v2, memory fresh.
        assert_eq!(t.to.f, FVal::V2);
        assert_eq!(t.to.rep_of(ck(&spec, "V-Ex")), Rep::One);
        assert_eq!(t.to.rep_of(ClassKey::invalid()), Rep::Star);
        assert_eq!(t.to.mdata, MData::Fresh);
    }

    #[test]
    fn initial_illinois_write_fills_dirty_and_stales_memory() {
        let spec = illinois();
        let init = Composite::initial(&spec);
        let succ = successors(&spec, &init);
        let writes = find(&succ, &spec, "Inv", ProcEvent::Write);
        assert_eq!(writes.len(), 1);
        let t = writes[0];
        assert_eq!(t.to.rep_of(ck(&spec, "Dirty")), Rep::One);
        assert_eq!(t.to.mdata, MData::Obsolete);
        assert_eq!(t.to.f, FVal::V2);
        assert!(t.errors.is_empty());
    }

    #[test]
    fn read_miss_on_dirty_system_flushes_and_shares() {
        // (Dirty, Inv*) --R_inv--> (Shared⁺, Inv*), memory freshened.
        let spec = illinois();
        let dirty = Composite::new(
            vec![
                (ck(&spec, "Dirty"), Rep::One),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Obsolete,
            FVal::V2,
        );
        let succ = successors(&spec, &dirty);
        let reads = find(&succ, &spec, "Inv", ProcEvent::Read);
        assert_eq!(reads.len(), 1);
        let t = reads[0];
        assert_eq!(t.to.rep_of(ck(&spec, "Shared")), Rep::Plus);
        assert_eq!(t.to.f, FVal::V3, "two Shared copies exist");
        assert_eq!(t.to.mdata, MData::Fresh, "Dirty snooper flushed");
        assert!(t.errors.is_empty());
    }

    #[test]
    fn replacement_from_shared_plus_splits_categories() {
        // (Shared⁺, Inv*) f=v3 --Z_shared--> both (Shared⁺, Inv⁺) f=v3
        // and (Shared, Inv⁺) f=v2 — the paper's rule-4(b) terminal
        // states, from a single interval step.
        let spec = illinois();
        let s3 = Composite::new(
            vec![
                (ck(&spec, "Shared"), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V3,
        );
        let succ = successors(&spec, &s3);
        let reps = find(&succ, &spec, "Shared", ProcEvent::Replace);
        assert_eq!(reps.len(), 2);
        let fvals: Vec<FVal> = reps.iter().map(|t| t.to.f).collect();
        assert!(fvals.contains(&FVal::V2));
        assert!(fvals.contains(&FVal::V3));
        let v2 = reps.iter().find(|t| t.to.f == FVal::V2).unwrap();
        assert_eq!(v2.to.rep_of(ck(&spec, "Shared")), Rep::One);
        assert_eq!(v2.to.rep_of(ClassKey::invalid()), Rep::Plus);
    }

    #[test]
    fn shared_write_invalidates_the_rest() {
        let spec = illinois();
        let s3 = Composite::new(
            vec![
                (ck(&spec, "Shared"), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V3,
        );
        let succ = successors(&spec, &s3);
        let writes = find(&succ, &spec, "Shared", ProcEvent::Write);
        assert_eq!(writes.len(), 1);
        let t = writes[0];
        assert_eq!(t.to.rep_of(ck(&spec, "Dirty")), Rep::One);
        assert_eq!(t.to.rep_of(ck(&spec, "Shared")), Rep::Zero);
        assert_eq!(t.to.f, FVal::V2);
        assert_eq!(t.to.mdata, MData::Obsolete);
        assert!(t.errors.is_empty());
    }

    #[test]
    fn synapse_dirty_snooper_aborts_into_memory_fill() {
        // (D, Inv⁺) --R_inv-->: the Dirty snooper flushes and
        // invalidates itself; the requester fills fresh from memory.
        let spec = synapse();
        let d = Composite::new(
            vec![(ck(&spec, "D"), Rep::One), (ClassKey::invalid(), Rep::Plus)],
            MData::Obsolete,
            FVal::Null,
        );
        let succ = successors(&spec, &d);
        let reads = find(&succ, &spec, "Inv", ProcEvent::Read);
        assert_eq!(reads.len(), 1);
        let t = reads[0];
        assert!(t.errors.is_empty(), "fill must be fresh after the flush");
        assert_eq!(t.to.mdata, MData::Fresh);
        assert_eq!(t.to.rep_of(ck(&spec, "V")), Rep::One);
        assert_eq!(t.to.rep_of(ck(&spec, "D")), Rep::Zero);
    }

    #[test]
    fn msi_expansion_has_no_category_branching() {
        let spec = msi();
        let init = Composite::initial(&spec);
        for t in successors(&spec, &init) {
            assert_eq!(t.to.f, FVal::Null);
        }
    }

    #[test]
    fn stale_fill_detected_when_memory_is_obsolete_and_unguarded() {
        // Construct an (unreachable-for-correct-Illinois) state where
        // memory is obsolete and no cache holds a copy; a read miss
        // must then report a stale fill.
        let spec = illinois();
        let bad = Composite::new(
            vec![(ClassKey::invalid(), Rep::Plus)],
            MData::Obsolete,
            FVal::V1,
        );
        let succ = successors(&spec, &bad);
        let reads = find(&succ, &spec, "Inv", ProcEvent::Read);
        assert_eq!(reads.len(), 1);
        assert!(reads[0].errors.contains(StepError::StaleFill));
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_buffers() {
        let spec = illinois();
        let mut scratch = ExpandScratch::new();
        let mut buf = Vec::new();
        let init = Composite::initial(&spec);
        successors_into(&spec, &init, &mut scratch, &mut buf);
        let first: Vec<Transition> = buf.clone();
        // Expand a different state through the same scratch, then the
        // initial state again: results must be untainted by leftovers.
        let s3 = Composite::new(
            vec![
                (ck(&spec, "Shared"), Rep::Plus),
                (ClassKey::invalid(), Rep::Star),
            ],
            MData::Fresh,
            FVal::V3,
        );
        successors_into(&spec, &s3, &mut scratch, &mut buf);
        successors_into(&spec, &init, &mut scratch, &mut buf);
        assert_eq!(buf.len(), first.len());
        for (a, b) in buf.iter().zip(first.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.to, b.to);
            assert_eq!(a.errors, b.errors);
        }
    }

    #[test]
    fn label_renders_paper_style() {
        let spec = illinois();
        let l = Label {
            origin: ck(&spec, "Dirty"),
            event: ProcEvent::Replace,
            ctx: GlobalCtx::ALONE,
        };
        assert_eq!(l.render(&spec), "Z_dirty");
    }
}
