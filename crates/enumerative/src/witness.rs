//! Concrete witnesses: the shortest scenario that ends in a violation
//! or lands in a chosen family of states.
//!
//! A symbolic counterexample is a path over composite states — a
//! *family* of scenarios. For debugging, engineers want one concrete
//! scenario: "with 2 caches, P0 writes, P1 reads, P0 evicts, P1 reads
//! stale". This module finds the shortest one, smallest machine first.
//!
//! The search is the enumerator's own `Search` under a thin scheduler:
//! a FIFO frontier and a table from each claimed key to the key it was
//! reached from. The governor, budget and fault site `enum.worker`
//! stop it as they stop an enumeration, and a stopped search says so
//! ([`WitnessSearch::Stopped`]). Violations are `Search`'s own, as in
//! `ccv enumerate` and the crosscheck.
//!
//! Under counting dedup the search runs over orbit representatives.
//! The initial state is fixed by every permutation and steps commute
//! with permutations, so a representative's breadth-first depth is the
//! shortest concrete depth of its orbit. Replay lifts the path to
//! concrete steps: from the initial state, each step is the first
//! successor whose key is the path's next key.

use crate::explicit::{worker_panic_note, EnumOptions, Gate, Search, INJECTED_PANIC};
use crate::fxhash::FxHashMap;
use crate::packed::PackedState;
use crate::step::{describe_violations, is_violating, successors_into};
use ccv_model::{ProcEvent, ProtocolSpec};
use ccv_observe::{StopCause, StopInfo};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::time::Instant;

const KEY: usize = std::mem::size_of::<PackedState>();

/// One step of a concrete scenario.
#[derive(Clone, Debug)]
pub struct WitnessStep {
    /// Originating cache.
    pub cache: usize,
    /// Processor event issued.
    pub event: ProcEvent,
    /// Global state after the step.
    pub after: PackedState,
    /// Violation descriptions triggered by this step (stale accesses
    /// and permissibility violations of the resulting state).
    pub problems: Vec<String>,
}

/// A concrete counterexample scenario.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Number of caches in the scenario.
    pub n: usize,
    /// The steps, starting from the all-invalid state.
    pub steps: Vec<WitnessStep>,
}

impl Witness {
    /// Renders the scenario as a numbered script.
    pub fn render(&self, spec: &ProtocolSpec) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "witness with {} caches (block initially uncached, memory fresh):",
            self.n
        );
        for (i, s) in self.steps.iter().enumerate() {
            let action = match s.event {
                ProcEvent::Read => "reads the block",
                ProcEvent::Write => "writes the block",
                ProcEvent::Replace => "evicts the block",
                ProcEvent::Complete => "completes its pending bus transaction",
            };
            let _ = write!(
                out,
                "  {}. P{} {action} -> {}",
                i + 1,
                s.cache,
                s.after.render(self.n, spec)
            );
            if !s.problems.is_empty() {
                let _ = write!(out, "   !! {}", s.problems.join("; "));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// True iff the final step carries violations.
    pub fn ends_in_violation(&self) -> bool {
        self.steps.last().is_some_and(|s| !s.problems.is_empty())
    }
}

/// How a witness search ended.
#[derive(Clone, Debug)]
pub enum WitnessSearch {
    /// The shortest scenario, on the smallest machine that has one.
    Found(Witness),
    /// Every machine size was searched to the end without finding one.
    NotFound,
    /// The search at `n` caches stopped early (budget, deadline,
    /// memory cap, cancellation or a worker panic): smaller machines
    /// have no scenario, `n` and larger are undecided.
    Stopped {
        /// The machine size whose search stopped.
        n: usize,
        /// Why and where it stopped.
        info: StopInfo,
    },
}

/// Finds the shortest concrete violation scenario, trying machine
/// sizes `1..=opts.n` in order. `opts` governs each size's search as
/// it would an enumeration, with `stop_at_first_error` set: the budget
/// caps the dedup keys claimed per size, the deadline covers all sizes.
///
/// ```
/// use ccv_enum::{find_violation_witness, EnumOptions, WitnessSearch};
/// use ccv_model::protocols;
///
/// // Write, evict (the data is lost), read stale memory: one cache.
/// let spec = protocols::illinois_missing_writeback();
/// let found = find_violation_witness(&spec, &EnumOptions::new(4));
/// assert!(matches!(found, WitnessSearch::Found(w) if w.n == 1 && w.ends_in_violation()));
/// let none = find_violation_witness(&protocols::illinois(), &EnumOptions::new(3));
/// assert!(matches!(none, WitnessSearch::NotFound));
/// ```
pub fn find_violation_witness(spec: &ProtocolSpec, opts: &EnumOptions) -> WitnessSearch {
    find_witness(spec, opts, None)
}

/// Finds the shortest concrete path to the first state `member(state,
/// n)` accepts or, without `member`, the shortest violation scenario,
/// trying machine sizes `1..=opts.n` in order. The initial state is
/// tested too. `member` must answer alike for every permutation of a
/// state's caches (as a composite state's family does), since the
/// search meets one representative per orbit. With `member`,
/// violations do not end the search.
pub fn find_witness(
    spec: &ProtocolSpec,
    opts: &EnumOptions,
    member: Option<&dyn Fn(PackedState, usize) -> bool>,
) -> WitnessSearch {
    let opts = &opts.clone().stop_at_first_error(member.is_none());
    let start = Instant::now();
    for n in 1..=opts.n {
        let mut at = opts.clone();
        at.n = n;
        at.common.deadline = (opts.common.deadline).map(|d| d.saturating_sub(start.elapsed()));
        let search = Search::new(spec, &at);
        let accepts = |key| member.is_some_and(|m| m(key, n));
        // Every claimed key, mapped to the key it was first reached
        // from; the initial key maps to itself.
        let mut parent: FxHashMap<PackedState, PackedState> = FxHashMap::default();
        let mut found = None;
        let (mut tally, frontier) = search.seed(None, |key| {
            parent.insert(key, key);
            found = Some(key).filter(|&key| accepts(key));
        });
        let violated = member.is_none() && !tally.errors.is_empty();
        // The keys the witness steps through, once it is known.
        let mut path = (found.is_some() || violated).then(Vec::new);
        let mut work: VecDeque<PackedState> = frontier.into();
        let (mut buf, mut expansions, mut panic_note) = (Vec::new(), 0, None);
        while path.is_none() {
            let Some(current) = work.pop_front() else {
                break;
            };
            // The memory cap polls the parent table and the worklist.
            let bytes = || (parent.capacity() * (2 * KEY + 1) + work.capacity() * KEY) as u64;
            match search.gate(expansions, parent.len(), bytes) {
                Gate::Expand => {}
                Gate::Stop => {
                    work.push_front(current);
                    break;
                }
                Gate::Panic => {
                    work.push_front(current);
                    search.gov.stop(StopCause::WorkerPanic);
                    panic_note = Some(worker_panic_note(0, INJECTED_PANIC));
                    break;
                }
            }
            expansions += 1;
            let claim = |key| match parent.entry(key) {
                Entry::Occupied(_) => false,
                Entry::Vacant(slot) => {
                    slot.insert(current);
                    found = found.or(Some(key).filter(|&key| accepts(key)));
                    true
                }
            };
            if search.expand(current, &mut buf, &mut tally, claim, |key| {
                work.push_back(key)
            }) {
                // The violating step leaves `current`.
                let bad = tally.errors.last().expect("a violation stop records it");
                let mut keys = path_to(&parent, current);
                keys.push(at.dedup.canon(bad.state, n));
                path = Some(keys);
            } else if let Some(key) = found {
                path = Some(path_to(&parent, key));
            }
        }
        if let Some(mut info) = search.finish(&tally, work.len(), panic_note) {
            info.elapsed = start.elapsed();
            return WitnessSearch::Stopped { n, info };
        }
        if let Some(keys) = path {
            let steps = replay(spec, &at, &keys, member.is_none());
            return WitnessSearch::Found(Witness { n, steps });
        }
    }
    WitnessSearch::NotFound
}

/// The keys on the parent chain from the initial key (excluded) to
/// `key` (included).
fn path_to(parent: &FxHashMap<PackedState, PackedState>, key: PackedState) -> Vec<PackedState> {
    let chain = std::iter::successors(Some(key), |k| Some(parent[k]).filter(|p| p != k));
    let mut keys: Vec<PackedState> = chain.collect();
    keys.pop();
    keys.reverse();
    keys
}

/// Lifts a path of dedup keys to concrete steps. From the initial
/// state, each step is the first successor whose key is the path's
/// next key; with `violating`, the last step is the first such
/// successor that carries a violation. A permutation of a step is a
/// step of the permuted state, so a matching successor always exists.
fn replay(
    spec: &ProtocolSpec,
    opts: &EnumOptions,
    keys: &[PackedState],
    violating: bool,
) -> Vec<WitnessStep> {
    let (n, mut state, mut buf) = (opts.n, PackedState::INITIAL, Vec::new());
    let mut steps = Vec::with_capacity(keys.len());
    for (i, &key) in keys.iter().enumerate() {
        let last = violating && i + 1 == keys.len();
        buf.clear();
        successors_into(spec, state, n, &mut buf);
        let s = buf
            .iter()
            .find(|s| {
                opts.dedup.canon(s.to, n) == key
                    && (!last || !s.errors.is_empty() || is_violating(spec, s.to, n))
            })
            .expect("steps commute with cache permutations");
        state = s.to;
        // Its stale accesses, then the violations of the state reached.
        let mut problems: Vec<String> = s.errors.iter().map(|e| e.to_string()).collect();
        problems.extend(describe_violations(spec, s.to, n));
        steps.push(WitnessStep {
            cache: s.cache,
            event: s.event,
            after: s.to,
            problems,
        });
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccv_model::protocols::{
        all_buggy, illinois, illinois_missing_writeback, split_msi_upgrade_race_lost,
    };
    use ccv_observe::{CancelToken, FaultHandle};

    fn violation(spec: &ProtocolSpec, opts: &EnumOptions) -> Witness {
        match find_violation_witness(spec, opts) {
            WitnessSearch::Found(w) => w,
            other => panic!("{}: {other:?}", spec.name()),
        }
    }

    #[test]
    fn correct_protocol_has_no_violation_witness() {
        let r = find_violation_witness(&illinois(), &EnumOptions::new(3));
        assert!(matches!(r, WitnessSearch::NotFound), "{r:?}");
    }

    #[test]
    fn every_mutant_has_a_violation_witness() {
        for (spec, _) in all_buggy() {
            let w = violation(&spec, &EnumOptions::new(4).max_states(1 << 20));
            assert!(w.ends_in_violation(), "{}", spec.name());
            // The rendering names every step's processor.
            let text = w.render(&spec);
            assert!(text.contains("P0"), "{}: {text}", spec.name());
        }
    }

    #[test]
    fn writeback_witness_is_the_classic_scenario() {
        // Write, evict (losing the data), read stale.
        let spec = illinois_missing_writeback();
        let w = violation(&spec, &EnumOptions::new(2));
        let events: Vec<ProcEvent> = w.steps.iter().map(|s| s.event).collect();
        assert_eq!(
            events,
            [ProcEvent::Write, ProcEvent::Replace, ProcEvent::Read]
        );
        assert_eq!(
            w.steps[2].problems,
            [
                "cache 0: miss filled from an obsolete source",
                "cache 0 holds a readable obsolete copy in state Valid-Exclusive"
            ]
        );
    }

    #[test]
    fn witness_sizes_start_small() {
        // The missing-writeback bug manifests with a single cache.
        let w = violation(&illinois_missing_writeback(), &EnumOptions::new(4));
        assert_eq!(w.n, 1, "a uniprocessor already exhibits the bug");
    }

    #[test]
    fn exact_and_counting_searches_give_witnesses_of_one_length() {
        for (spec, _) in all_buggy() {
            let counting = violation(&spec, &EnumOptions::new(4));
            let exact = violation(&spec, &EnumOptions::new(4).exact());
            assert_eq!(
                (counting.n, counting.steps.len()),
                (exact.n, exact.steps.len()),
                "{}",
                spec.name()
            );
        }
    }

    /// The race-lost mutant needs two caches, so its search at one
    /// cache must run to the end before it can find anything.
    fn stopped(opts: EnumOptions) -> StopInfo {
        match find_violation_witness(&split_msi_upgrade_race_lost(), &opts) {
            WitnessSearch::Stopped { n: 1, info } => info,
            other => panic!("expected a stop at one cache, got {other:?}"),
        }
    }

    #[test]
    fn a_search_past_its_budget_stops_rather_than_finding_nothing() {
        let info = stopped(EnumOptions::new(4).max_states(3));
        assert_eq!(info.cause, StopCause::BudgetExhausted);
        assert!(info.frontier > 0, "the unexpanded states stay pending");
    }

    #[test]
    fn a_cancelled_search_stops_rather_than_finding_nothing() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let info = stopped(EnumOptions::new(4).cancel(cancel));
        assert_eq!(info.cause, StopCause::Cancelled);
    }

    #[test]
    fn a_worker_panic_stops_the_search_rather_than_finding_nothing() {
        let mut opts = EnumOptions::new(4);
        opts.common.fault = FaultHandle::from_spec("enum.worker:panic@2").unwrap();
        let info = stopped(opts);
        assert_eq!(info.cause, StopCause::WorkerPanic);
        assert_eq!(info.detail, Some(worker_panic_note(0, INJECTED_PANIC)),);
        assert!(info.frontier > 0, "the panicked state stays pending");
    }
}
