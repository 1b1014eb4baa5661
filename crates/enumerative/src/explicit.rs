//! Sequential exhaustive state-space search (Figure 2 of the paper).
//!
//! The classical reachability baseline the paper improves upon: a
//! worklist of concrete global states for a **fixed** number of caches
//! `n`, with a visited set for pruning. Two pruning disciplines are
//! provided:
//!
//! * [`Dedup::Exact`] — prune exact duplicates (the algorithm of
//!   Figure 2 verbatim);
//! * [`Dedup::Counting`] — prune up to cache permutation (the counting
//!   equivalence of Definition 5, §3.1.1), collapsing the `n!`
//!   symmetric orderings of a tuple.
//!
//! The engine reports the number of *state visits* (generated
//! successors, the `n·k·mⁿ` quantity of §3.1) and the number of
//! distinct states, and checks every reached state for structural and
//! data violations — the quantities compared against the symbolic
//! engine in experiments E4 and E7.
//!
//! The per-state expansion step itself (`Search`) is shared with the
//! work-stealing engine in [`crate::parallel`]; this module's
//! scheduler contributes only the FIFO worklist, the (optionally
//! spilling) visited table and the BFS-level tracking.

use crate::fxhash::FxHashSet;
use crate::packed::{PackedState, MAX_CACHES};
use crate::spill::{SpillConfig, SpillVisited};
use crate::step::{
    describe_violations, is_violating, successors_attributed, successors_into, ConcreteStep,
};
use ccv_model::{ProcEvent, ProtocolSpec};
use ccv_observe::{
    CancelToken, CommonOptions, Counter, FaultKind, Gauge, Governor, Phase, RuleStat, SinkHandle,
    SpanKind, StopCause, StopInfo, Track,
};
use std::collections::VecDeque;
use std::time::Duration;

/// Duplicate-pruning discipline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Dedup {
    /// Prune exact duplicates only (Figure 2).
    Exact,
    /// Prune up to cache permutation (Definition 5).
    #[default]
    Counting,
}

impl Dedup {
    /// The dedup key of `s` in an `n`-cache system: `s` itself under
    /// [`Dedup::Exact`], its canonical permutation under
    /// [`Dedup::Counting`].
    #[inline]
    pub fn canon(self, s: PackedState, n: usize) -> PackedState {
        match self {
            Dedup::Exact => s,
            Dedup::Counting => s.canonical(n),
        }
    }
}

/// Options for an enumeration run.
///
/// `#[non_exhaustive]`: construct with [`EnumOptions::new`] and refine
/// with the builder methods. Settings shared with the other engines
/// live in the embedded [`CommonOptions`]; for the enumerator the
/// budget caps *distinct* states as an explosion backstop.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct EnumOptions {
    /// Number of caches (1 ..= 16).
    pub n: usize,
    /// Pruning discipline.
    pub dedup: Dedup,
    /// Settings shared by every engine (budget = max distinct states).
    pub common: CommonOptions,
    /// Capture the visited set and frontier into
    /// [`EnumResult::snapshot`] at the end of the run: a stopped run's
    /// snapshot can be checkpointed and resumed, a complete run's is
    /// its whole reachable set (one representative per orbit under
    /// [`Dedup::Counting`]) with an empty frontier.
    pub capture_snapshot: bool,
    /// Spill the visited table to disk segments past a resident-byte
    /// budget (out-of-core enumeration). Sequential engine only; the
    /// unified API routes spill requests there.
    pub spill: Option<SpillConfig>,
}

impl EnumOptions {
    /// Default options for `n` caches.
    pub fn new(n: usize) -> EnumOptions {
        EnumOptions {
            n,
            dedup: Dedup::Counting,
            common: CommonOptions::default().budget(50_000_000),
            capture_snapshot: false,
            spill: None,
        }
    }

    /// Selects exact-duplicate pruning (chainable).
    pub fn exact(mut self) -> EnumOptions {
        self.dedup = Dedup::Exact;
        self
    }

    /// Sets the pruning discipline.
    pub fn dedup(mut self, dedup: Dedup) -> EnumOptions {
        self.dedup = dedup;
        self
    }

    /// Caps the number of distinct states.
    pub fn max_states(mut self, max_states: usize) -> EnumOptions {
        self.common.budget = max_states;
        self
    }

    /// Stops at the first violation found.
    pub fn stop_at_first_error(mut self, stop: bool) -> EnumOptions {
        self.common.stop_at_first_error = stop;
        self
    }

    /// Attaches an observability sink.
    pub fn sink(mut self, sink: impl Into<ccv_observe::SinkHandle>) -> EnumOptions {
        self.common.sink = sink.into();
        self
    }

    /// Collects per-rule attribution (reported through
    /// [`rule_stats`](ccv_observe::EventSink::rule_stats) at exit).
    pub fn rule_stats(mut self, on: bool) -> EnumOptions {
        self.common.rule_stats = on;
        self
    }

    /// Stops the run once this much wall-clock time has elapsed.
    pub fn deadline(mut self, deadline: Duration) -> EnumOptions {
        self.common.deadline = Some(deadline);
        self
    }

    /// Stops the run once the visited table exceeds roughly this many
    /// bytes.
    pub fn max_bytes(mut self, max_bytes: u64) -> EnumOptions {
        self.common.max_bytes = Some(max_bytes);
        self
    }

    /// Uses `cancel` as the run's cooperative cancellation token.
    pub fn cancel(mut self, cancel: CancelToken) -> EnumOptions {
        self.common.cancel = cancel;
        self
    }

    /// Captures the visited set + frontier at the end of the run (see
    /// [`EnumResult::snapshot`]).
    pub fn capture_snapshot(mut self, on: bool) -> EnumOptions {
        self.capture_snapshot = on;
        self
    }

    /// Spills the visited table to disk segments under `config`
    /// (see [`crate::spill`]).
    pub fn spill(mut self, config: SpillConfig) -> EnumOptions {
        self.spill = Some(config);
        self
    }
}

/// Search state carried from a stopped run into a resumed one — the
/// payload of a checkpoint file (see [`crate::checkpoint`]).
///
/// Resuming is exact: every state in `visited` was already claimed
/// and violation-checked, every state in `frontier` is claimed but
/// not yet expanded, so the resumed run expands exactly the states
/// the uninterrupted run would have, and the combined `visits`,
/// `distinct` and violation totals are identical for any interleaving
/// of stops.
#[derive(Clone, Debug, Default)]
pub struct ResumeSeed {
    /// Every state claimed so far (includes the frontier).
    pub visited: Vec<PackedState>,
    /// Claimed-but-unexpanded states, in worklist order.
    pub frontier: Vec<PackedState>,
    /// Successor visits performed so far.
    pub visits: usize,
    /// Violations found so far, in discovery order.
    pub errors: Vec<EnumError>,
}

/// The visited set and frontier of a run, captured when
/// [`EnumOptions::capture_snapshot`] is set. The frontier is empty
/// unless the run stopped early.
#[derive(Clone, Debug)]
pub struct EnumSnapshot {
    /// Every claimed state.
    pub visited: Vec<PackedState>,
    /// Claimed-but-unexpanded states, in worklist order.
    pub frontier: Vec<PackedState>,
}

/// A violation found during enumeration.
#[derive(Clone, Debug)]
pub struct EnumError {
    /// The offending state.
    pub state: PackedState,
    /// Violation descriptions (structural and stale-access).
    pub descriptions: Vec<String>,
}

/// Result of an enumeration run.
#[derive(Clone, Debug)]
pub struct EnumResult {
    /// Number of caches.
    pub n: usize,
    /// Distinct states reached (after dedup).
    pub distinct: usize,
    /// Generated successors (the §3.1 "state visits" metric).
    pub visits: usize,
    /// Violations found, in discovery order.
    pub errors: Vec<EnumError>,
    /// True if the run stopped before exhausting the space (budget,
    /// deadline, memory cap, cancellation or a worker panic).
    pub truncated: bool,
    /// Why and in what state the run stopped early; always `Some`
    /// when `truncated` is true.
    pub stopped: Option<StopInfo>,
    /// Visited set + frontier, when [`EnumOptions::capture_snapshot`]
    /// was set (and, for a spilling run, its segments read back).
    pub snapshot: Option<EnumSnapshot>,
    /// The spill table's first I/O error, when a spilling run
    /// degraded to in-RAM operation. The run stays exact — no
    /// reachable state is dropped and the violation set is unchanged
    /// — but the memory bound is lost and states may be re-expanded.
    pub spill_degraded: Option<String>,
}

impl EnumResult {
    /// True iff the full space was explored without violations.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && !self.truncated
    }
}

/// The sequential enumerator's visited set: fully resident, or
/// sharded with disk spill for out-of-core runs (see [`crate::spill`]).
/// Either backend is an exact set — the reached states, visit counts
/// and violations are identical; only where the bytes live differs.
enum VisitedTable {
    Ram(FxHashSet<PackedState>),
    Spill(Box<SpillVisited>),
}

impl VisitedTable {
    fn new(opts: &EnumOptions) -> VisitedTable {
        match &opts.spill {
            None => VisitedTable::Ram(FxHashSet::default()),
            Some(config) => VisitedTable::Spill(Box::new(SpillVisited::with_fault(
                config,
                opts.common.fault.clone(),
            ))),
        }
    }

    fn insert(&mut self, key: PackedState) -> bool {
        match self {
            VisitedTable::Ram(set) => set.insert(key),
            VisitedTable::Spill(table) => table.insert(key),
        }
    }

    fn len(&self) -> usize {
        match self {
            VisitedTable::Ram(set) => set.len(),
            VisitedTable::Spill(table) => table.len(),
        }
    }

    /// Resident footprint — what the governor's memory cap polls.
    /// Deliberately excludes spilled segment bytes: flushing is what
    /// lets a run proceed under a `max_bytes` budget its full state
    /// space could never fit in.
    fn approx_ram_bytes(&self) -> u64 {
        match self {
            // Hash-table capacity, one control byte per slot besides
            // the state.
            VisitedTable::Ram(set) => {
                (set.capacity() * (std::mem::size_of::<PackedState>() + 1)) as u64
            }
            VisitedTable::Spill(table) => table.approx_ram_bytes(),
        }
    }

    /// Full footprint including on-disk segments — what the
    /// `visited_bytes` gauge reports.
    fn total_bytes(&self) -> u64 {
        match self {
            VisitedTable::Ram(_) => self.approx_ram_bytes(),
            VisitedTable::Spill(table) => table.total_bytes(),
        }
    }

    /// Every admitted state (snapshot capture); `None` if a spill
    /// segment could not be read back.
    fn states(&mut self) -> Option<Vec<PackedState>> {
        match self {
            VisitedTable::Ram(set) => Some(set.iter().copied().collect()),
            VisitedTable::Spill(table) => table.states(),
        }
    }

    /// `(segments written, bytes spilled)` when spilling is on.
    fn spill_stats(&self) -> Option<(u64, u64)> {
        match self {
            VisitedTable::Ram(_) => None,
            VisitedTable::Spill(table) => Some((table.segments_written(), table.spilled_bytes())),
        }
    }

    fn io_error(&self) -> Option<&str> {
        match self {
            VisitedTable::Ram(_) => None,
            VisitedTable::Spill(table) => table.io_error(),
        }
    }
}

/// The panic message of an injected `enum.worker` fault.
pub(crate) const INJECTED_PANIC: &str = "injected fault: panic at enum.worker";

/// The stop detail of a worker panic: which worker, and its message.
pub(crate) fn worker_panic_note(worker: usize, msg: &str) -> String {
    format!("worker {worker}: {msg}")
}

/// What a scheduler does with a claimed state it is about to expand.
pub(crate) enum Gate {
    /// Expand it.
    Expand,
    /// The governor or the budget stopped the run: keep the state on
    /// the frontier and stop.
    Stop,
    /// Fault site `enum.worker` fired a panic: keep the state on the
    /// frontier and stop with a `WorkerPanic`.
    Panic,
}

/// Counts one expansion context accumulates: the whole run for the
/// sequential engine, one worker for the work-stealing engine.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) visits: usize,
    pub(crate) dedup_hits: u64,
    pub(crate) dedup_misses: u64,
    pub(crate) errors: Vec<EnumError>,
    /// Per-rule attribution indexed by rule id; empty unless the run
    /// collects rule stats. Sized once, so expansion never allocates
    /// for observability.
    pub(crate) rules: Vec<RuleStat>,
}

impl Tally {
    /// Adds `other`'s counts into `self`, appending its errors.
    pub(crate) fn merge(&mut self, other: &mut Tally) {
        self.visits += other.visits;
        self.dedup_hits += other.dedup_hits;
        self.dedup_misses += other.dedup_misses;
        self.errors.append(&mut other.errors);
        for (total, r) in self.rules.iter_mut().zip(&other.rules) {
            total.merge(r);
        }
    }
}

/// The expansion step both schedulers share: seeding, the per-state
/// gate (governor, budget, fault site `enum.worker`), successor
/// generation, the per-successor bookkeeping and the end-of-run
/// report. A scheduler supplies only its frontier and its visited
/// table, through the `claim` and `push` closures.
pub(crate) struct Search<'a> {
    spec: &'a ProtocolSpec,
    opts: &'a EnumOptions,
    n: usize,
    dedup: Dedup,
    stop_at_first_error: bool,
    /// The run's resource governor: deadline, memory cap, cancel
    /// token, first-stop-cause arbitration.
    pub(crate) gov: Governor,
    /// `sink.is_enabled()`, queried once: hot loops must not re-poll
    /// every tee'd sink.
    pub(crate) events: bool,
    rules: bool,
}

impl<'a> Search<'a> {
    pub(crate) fn new(spec: &'a ProtocolSpec, opts: &'a EnumOptions) -> Search<'a> {
        assert!(
            opts.n >= 1 && opts.n <= MAX_CACHES,
            "n must be in 1..={MAX_CACHES}"
        );
        assert!(
            spec.num_states() <= 16,
            "packed encoding supports at most 16 protocol states"
        );
        let events = opts.common.sink.is_enabled();
        Search {
            spec,
            opts,
            n: opts.n,
            dedup: opts.dedup,
            stop_at_first_error: opts.common.stop_at_first_error,
            gov: opts.common.governor(),
            events,
            rules: opts.common.rule_stats && events,
        }
    }

    pub(crate) fn sink(&self) -> &'a SinkHandle {
        &self.opts.common.sink
    }

    /// An empty tally, with a rule table when the run attributes.
    pub(crate) fn tally(&self) -> Tally {
        let rules = if self.rules {
            vec![RuleStat::default(); self.spec.num_rules()]
        } else {
            Vec::new()
        };
        Tally {
            rules,
            ..Tally::default()
        }
    }

    /// Starts the run: claims the initial state's dedup key and checks
    /// it like any reached state, or restores a resume seed. Returns
    /// the starting tally and frontier. The frontier holds dedup
    /// keys, so the set of expanded states — and with it the violation
    /// set — is a deterministic function of the options.
    pub(crate) fn seed(
        &self,
        seed: Option<ResumeSeed>,
        mut claim: impl FnMut(PackedState),
    ) -> (Tally, Vec<PackedState>) {
        let sink = self.sink();
        let mut tally = self.tally();
        match seed {
            None => {
                sink.frontier(0, 1);
                let init = self.dedup.canon(PackedState::INITIAL, self.n);
                claim(init);
                if is_violating(self.spec, init, self.n) {
                    sink.violation("initial state violates coherence");
                    tally.errors.push(EnumError {
                        state: init,
                        descriptions: describe_violations(self.spec, init, self.n),
                    });
                    // An initial-state violation honors
                    // stop_at_first_error like any other: don't explore
                    // a space already known to be broken.
                    if self.stop_at_first_error {
                        return (tally, Vec::new());
                    }
                }
                (tally, vec![init])
            }
            Some(seed) => {
                // Seed states were already claimed and checked; the
                // frontier continues in its saved order, so a
                // budget-split run expands exactly the states the
                // uninterrupted run would have.
                for s in seed.visited {
                    claim(s);
                }
                sink.frontier(0, seed.frontier.len());
                tally.visits = seed.visits;
                tally.errors = seed.errors;
                (tally, seed.frontier)
            }
        }
    }

    /// Checks a claimed state before its expansion. Governed stops
    /// are taken at expansion granularity, so a stopped run's frontier
    /// plus visited set is an exact checkpoint. The full poll (clock
    /// and `bytes()`) runs every [`Governor::STRIDE`] expansions, the
    /// cancel-token load in between; the distinct-state budget is
    /// checked every time. Then fault site `enum.worker`: `slow`
    /// stalls the expansion, `panic` is handed back to the scheduler.
    #[inline]
    pub(crate) fn gate(
        &self,
        expansions: usize,
        distinct: usize,
        bytes: impl FnOnce() -> u64,
    ) -> Gate {
        let tripped = if expansions % Governor::STRIDE == 0 {
            self.gov.poll(bytes())
        } else {
            self.gov.cancelled()
        };
        let tripped = tripped.or_else(|| {
            (distinct >= self.opts.common.budget).then(|| self.gov.stop(StopCause::BudgetExhausted))
        });
        if tripped.is_some() {
            return Gate::Stop;
        }
        let fault = &self.opts.common.fault;
        if fault.is_enabled() {
            match fault.fire("enum.worker") {
                Some(FaultKind::Panic) => return Gate::Panic,
                Some(FaultKind::SlowRead) => {
                    let millis = fault.injector().map_or(5, |i| i.slow_millis());
                    std::thread::sleep(Duration::from_millis(millis));
                }
                _ => {}
            }
        }
        Gate::Expand
    }

    /// Expands `state`: generates its successors into `buf` and runs
    /// [`Search::successor`] on each. Returns `true` when
    /// `stop_at_first_error` ends the run; the remaining successors
    /// are then left unvisited.
    #[inline]
    pub(crate) fn expand(
        &self,
        state: PackedState,
        buf: &mut Vec<ConcreteStep>,
        tally: &mut Tally,
        mut claim: impl FnMut(PackedState) -> bool,
        mut push: impl FnMut(PackedState),
    ) -> bool {
        buf.clear();
        if self.rules {
            successors_attributed(self.spec, state, self.n, buf, &mut tally.rules);
        } else {
            successors_into(self.spec, state, self.n, buf);
        }
        buf.iter()
            .any(|s| self.successor(state, s, tally, &mut claim, &mut push))
    }

    /// The per-successor bookkeeping: records a stale access, claims
    /// the successor's dedup key unless it is `from`'s own, checks a
    /// newly claimed key for violations and schedules it through
    /// `push`. Returns `true` when a violation stops the run
    /// (`stop_at_first_error`); the violating key is then not
    /// scheduled.
    #[inline]
    fn successor(
        &self,
        from: PackedState,
        s: &ConcreteStep,
        tally: &mut Tally,
        claim: &mut impl FnMut(PackedState) -> bool,
        push: &mut impl FnMut(PackedState),
    ) -> bool {
        let sink = self.sink();
        let rule = || self.spec.rule_id(from.state(s.cache), s.event);
        tally.visits += 1;
        if !s.errors.is_empty() {
            if self.events {
                sink.violation(&format!("stale access via cache {} {}", s.cache, s.event));
            }
            if self.rules {
                tally.rules[rule()].violations += 1;
            }
            let descriptions = s
                .errors
                .iter()
                .map(|e| format!("{e:?} via cache {} {}", s.cache, s.event))
                .collect();
            tally.errors.push(EnumError {
                state: s.to,
                descriptions,
            });
            if self.stop_at_first_error {
                return true;
            }
        }
        let key = self.dedup.canon(s.to, self.n);
        // `from` is a dedup key already in the set, so a successor that
        // is its parent again (a stall loop, a silent hit) is a hit
        // without a claim.
        if key == from || !claim(key) {
            tally.dedup_hits += 1;
            if self.rules {
                tally.rules[rule()].dedup_hits += 1;
            }
            return false;
        }
        tally.dedup_misses += 1;
        if is_violating(self.spec, key, self.n) {
            if self.events {
                sink.violation(&format!(
                    "violating state reached via cache {} {}",
                    s.cache, s.event
                ));
            }
            if self.rules {
                tally.rules[rule()].violations += 1;
            }
            tally.errors.push(EnumError {
                state: key,
                descriptions: describe_violations(self.spec, key, self.n),
            });
            if self.stop_at_first_error {
                return true;
            }
        }
        push(key);
        false
    }

    /// Builds the run's stop info (a worker panic carries
    /// `panic_note` as its detail) and emits the report both engines
    /// share: visit, dedup, error and budget counters, the stop, and
    /// the rule rows.
    pub(crate) fn finish(
        &self,
        tally: &Tally,
        frontier: usize,
        panic_note: Option<String>,
    ) -> Option<StopInfo> {
        let mut stopped = self.gov.stop_info(frontier);
        if let Some(info) = &mut stopped {
            if info.cause == StopCause::WorkerPanic {
                info.detail = panic_note;
            }
        }
        let sink = self.sink();
        sink.count(Counter::Visits, tally.visits as u64);
        sink.count(Counter::DedupHits, tally.dedup_hits);
        sink.count(Counter::DedupMisses, tally.dedup_misses);
        sink.count(Counter::Errors, tally.errors.len() as u64);
        sink.count(Counter::BudgetPolls, self.gov.polls());
        if let Some(info) = &stopped {
            sink.count(Counter::BudgetStops, 1);
            sink.stopped(info.cause.name(), info.detail.as_deref());
        }
        if self.rules {
            let mut firings_total = 0u64;
            for (rid, stat) in tally.rules.iter().enumerate() {
                if stat.firings > 0 {
                    firings_total += stat.firings;
                    sink.rule_stats(&self.spec.rule_name(rid), *stat);
                }
            }
            sink.count(Counter::RuleFirings, firings_total);
        }
        stopped
    }
}

/// Approximate resident footprint of the sequential search state,
/// polled by the governor's memory cap: the visited table's RAM
/// portion plus worklist capacity.
fn approx_table_bytes(visited: &VisitedTable, work: &VecDeque<PackedState>) -> u64 {
    visited.approx_ram_bytes() + (work.capacity() * std::mem::size_of::<PackedState>()) as u64
}

/// Runs the exhaustive search from the all-invalid initial state.
pub fn enumerate(spec: &ProtocolSpec, opts: &EnumOptions) -> EnumResult {
    enumerate_resumed(spec, opts, None)
}

/// [`enumerate`], optionally continuing from a stopped run's
/// [`ResumeSeed`] instead of the initial state.
pub fn enumerate_resumed(
    spec: &ProtocolSpec,
    opts: &EnumOptions,
    seed: Option<ResumeSeed>,
) -> EnumResult {
    let search = Search::new(spec, opts);
    let sink = search.sink();
    sink.phase_enter(Phase::Enumerate);
    sink.gauge(Gauge::Threads, 1);

    let mut visited = VisitedTable::new(opts);
    let (mut tally, frontier) = search.seed(seed, |s| {
        visited.insert(s);
    });
    let mut work: VecDeque<PackedState> = frontier.into();
    // The FIFO worklist explores level by level; track the boundary so
    // per-level frontier sizes can be reported.
    let mut level = 0usize;
    let mut next_level = 0usize;
    let mut level_remaining = work.len().max(1);

    let mut expansions = 0usize;
    let mut panic_note = None;
    let mut succ_buf: Vec<ConcreteStep> = Vec::new();
    sink.span_begin(SpanKind::WorkerBusy, 0);
    while let Some(current) = work.pop_front() {
        // A stopped state goes back to the front of the worklist, so
        // the frontier is exact and a resumed run loses nothing. An
        // injected panic is contained as the same `WorkerPanic` stop
        // the work-stealing pool reports.
        match search.gate(expansions, visited.len(), || {
            approx_table_bytes(&visited, &work)
        }) {
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
        let stop = search.expand(
            current,
            &mut succ_buf,
            &mut tally,
            |key| visited.insert(key),
            |key| {
                work.push_back(key);
                next_level += 1;
            },
        );
        if stop {
            break;
        }
        level_remaining -= 1;
        if level_remaining == 0 {
            level += 1;
            if next_level > 0 {
                sink.frontier(level, next_level);
            }
            if search.events {
                sink.sample(Track::Pending, work.len() as u64);
                sink.sample(Track::Visited, visited.len() as u64);
            }
            level_remaining = next_level;
            next_level = 0;
        }
    }
    sink.span_end(SpanKind::WorkerBusy, 0);

    let stopped = search.finish(&tally, work.len(), panic_note);
    let truncated = stopped.is_some();
    sink.gauge(Gauge::DistinctStates, visited.len() as u64);
    sink.gauge(Gauge::Levels, level as u64);
    // Unlike the governor's poll, the gauge reports the *full* table
    // footprint, spilled segments included.
    sink.gauge(
        Gauge::VisitedBytes,
        visited.total_bytes() + (work.capacity() * std::mem::size_of::<PackedState>()) as u64,
    );
    if let Some((segments, bytes)) = visited.spill_stats() {
        sink.count(Counter::SpillSegments, segments);
        sink.count(Counter::SpillBytes, bytes);
    }
    if let Some(err) = visited.io_error() {
        sink.progress(&format!("spill degraded to in-RAM operation: {err}"));
    }
    if search.events {
        sink.progress(&format!(
            "enumerate(n={}): {} distinct states, {} visits",
            opts.n,
            visited.len(),
            tally.visits
        ));
    }
    sink.phase_exit(Phase::Enumerate);

    let snapshot = opts
        .capture_snapshot
        .then(|| visited.states())
        .flatten()
        .map(|all| EnumSnapshot {
            visited: all,
            frontier: work.into(),
        });
    EnumResult {
        n: opts.n,
        distinct: visited.len(),
        visits: tally.visits,
        errors: tally.errors,
        truncated,
        stopped,
        snapshot,
        spill_degraded: visited.io_error().map(str::to_string),
    }
}

/// Collects the full reachable set under exact dedup: a plain
/// breadth-first search with none of the enumerator's machinery, kept
/// as the independent oracle the enumerators are tested against.
///
/// # Panics
///
/// If the reachable set outgrows `max_states`.
pub fn reachable_states(spec: &ProtocolSpec, n: usize, max_states: usize) -> Vec<PackedState> {
    assert!((1..=MAX_CACHES).contains(&n));
    let mut visited: FxHashSet<PackedState> = FxHashSet::default();
    let mut work: VecDeque<PackedState> = VecDeque::new();
    visited.insert(PackedState::INITIAL);
    work.push_back(PackedState::INITIAL);
    let mut succ_buf: Vec<ConcreteStep> = Vec::new();
    while let Some(current) = work.pop_front() {
        succ_buf.clear();
        successors_into(spec, current, n, &mut succ_buf);
        for s in &succ_buf {
            if visited.insert(s.to) {
                assert!(
                    visited.len() <= max_states,
                    "reachable set exceeded {max_states} states"
                );
                work.push_back(s.to);
            }
        }
    }
    visited.into_iter().collect()
}

/// Upper bound `mⁿ` on the raw state space of §3.1 (protocol states
/// only, ignoring the data augmentation), saturating at `usize::MAX`.
pub fn raw_state_space(spec: &ProtocolSpec, n: usize) -> usize {
    let m = spec.num_states();
    let mut acc: usize = 1;
    for _ in 0..n {
        acc = acc.saturating_mul(m);
    }
    acc
}

/// The §3.1 lower estimate of exhaustive expansion work: `n · k · mⁿ`.
pub fn naive_visit_estimate(spec: &ProtocolSpec, n: usize) -> usize {
    raw_state_space(spec, n)
        .saturating_mul(n)
        .saturating_mul(ProcEvent::COUNT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccv_model::protocols::{illinois, illinois_missing_invalidation, msi};

    #[test]
    fn illinois_enumeration_is_clean_for_small_n() {
        let spec = illinois();
        for n in 1..=4 {
            let r = enumerate(&spec, &EnumOptions::new(n));
            assert!(r.is_clean(), "n={n}: {:?}", r.errors.first());
            assert!(r.distinct >= 2);
        }
    }

    #[test]
    fn counting_dedup_never_exceeds_exact() {
        let spec = illinois();
        for n in 1..=4 {
            let exact = enumerate(&spec, &EnumOptions::new(n).exact());
            let counting = enumerate(&spec, &EnumOptions::new(n));
            assert!(
                counting.distinct <= exact.distinct,
                "n={n}: counting {} > exact {}",
                counting.distinct,
                exact.distinct
            );
            assert!(exact.is_clean() && counting.is_clean());
        }
    }

    #[test]
    fn exact_state_count_grows_with_n() {
        let spec = illinois();
        let d2 = enumerate(&spec, &EnumOptions::new(2).exact()).distinct;
        let d3 = enumerate(&spec, &EnumOptions::new(3).exact()).distinct;
        let d4 = enumerate(&spec, &EnumOptions::new(4).exact()).distinct;
        assert!(d2 < d3 && d3 < d4, "explosion expected: {d2} {d3} {d4}");
    }

    #[test]
    fn counting_state_count_grows_polynomially() {
        // Counting equivalence should grow much slower than exact.
        let spec = illinois();
        let exact5 = enumerate(&spec, &EnumOptions::new(5).exact()).distinct;
        let count5 = enumerate(&spec, &EnumOptions::new(5)).distinct;
        assert!(count5 * 4 < exact5, "counting {count5} vs exact {exact5}");
    }

    #[test]
    fn buggy_protocol_is_caught_with_two_caches() {
        let spec = illinois_missing_invalidation();
        let r = enumerate(&spec, &EnumOptions::new(2));
        assert!(!r.errors.is_empty());
    }

    #[test]
    fn single_cache_systems_are_trivially_clean() {
        for spec in [msi(), illinois()] {
            let r = enumerate(&spec, &EnumOptions::new(1));
            assert!(r.is_clean(), "{}", spec.name());
        }
    }

    #[test]
    fn stop_at_first_error_returns_one() {
        let spec = illinois_missing_invalidation();
        let r = enumerate(&spec, &EnumOptions::new(3).stop_at_first_error(true));
        assert_eq!(r.errors.len(), 1);
    }

    #[test]
    fn reachable_states_contains_initial() {
        let spec = msi();
        let all = reachable_states(&spec, 2, 1 << 20);
        assert!(all.contains(&PackedState::INITIAL));
        assert!(all.len() >= 3);
    }

    #[test]
    fn estimates_match_section_3_1() {
        let spec = illinois(); // m = 4, k = 3
        assert_eq!(raw_state_space(&spec, 3), 64);
        assert_eq!(naive_visit_estimate(&spec, 3), 64 * 3 * 3);
    }

    #[test]
    fn max_states_truncates() {
        let spec = illinois();
        let r = enumerate(&spec, &EnumOptions::new(4).max_states(5));
        assert!(r.truncated);
        assert!(!r.is_clean());
        let info = r.stopped.expect("truncated runs carry stop info");
        assert_eq!(info.cause, StopCause::BudgetExhausted);
        assert!(info.frontier > 0, "budget stop leaves a frontier");
    }

    #[test]
    fn zero_deadline_stops_immediately() {
        let spec = illinois();
        let r = enumerate(&spec, &EnumOptions::new(3).deadline(Duration::ZERO));
        assert!(r.truncated);
        assert_eq!(r.stopped.unwrap().cause, StopCause::DeadlineExpired);
    }

    #[test]
    fn tiny_memory_cap_stops_the_run() {
        let spec = illinois();
        let r = enumerate(&spec, &EnumOptions::new(4).exact().max_bytes(1));
        assert!(r.truncated);
        assert_eq!(r.stopped.unwrap().cause, StopCause::MemoryExhausted);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_expansion() {
        let spec = illinois();
        let token = CancelToken::new();
        token.cancel();
        let r = enumerate(&spec, &EnumOptions::new(3).cancel(token));
        assert!(r.truncated);
        assert_eq!(r.stopped.unwrap().cause, StopCause::Cancelled);
        // The initial state was claimed but never expanded.
        assert_eq!(r.distinct, 1);
        assert_eq!(r.visits, 0);
    }

    #[test]
    fn untruncated_runs_capture_every_state_and_no_frontier() {
        let spec = illinois();
        let r = enumerate(&spec, &EnumOptions::new(2).capture_snapshot(true));
        assert!(!r.truncated);
        assert!(r.stopped.is_none());
        let snap = r.snapshot.expect("snapshot captured");
        assert_eq!(snap.visited.len(), r.distinct);
        assert!(snap.frontier.is_empty());
        // Without the option nothing is captured.
        assert!(enumerate(&spec, &EnumOptions::new(2)).snapshot.is_none());
    }

    #[test]
    fn budget_split_resume_matches_uninterrupted() {
        let spec = illinois();
        let full = enumerate(&spec, &EnumOptions::new(3).exact());
        assert!(!full.truncated);

        let leg1 = enumerate(
            &spec,
            &EnumOptions::new(3)
                .exact()
                .max_states(5)
                .capture_snapshot(true),
        );
        assert!(leg1.truncated);
        let snap = leg1.snapshot.expect("snapshot captured");
        assert_eq!(snap.visited.len(), leg1.distinct);
        let seed = ResumeSeed {
            visited: snap.visited,
            frontier: snap.frontier,
            visits: leg1.visits,
            errors: leg1.errors,
        };
        let leg2 = enumerate_resumed(&spec, &EnumOptions::new(3).exact(), Some(seed));
        assert!(!leg2.truncated);
        assert!(leg2.stopped.is_none());
        assert_eq!(leg2.distinct, full.distinct);
        assert_eq!(leg2.visits, full.visits);
        assert_eq!(leg2.errors.len(), full.errors.len());
    }

    fn spill_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccv-explicit-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spilled_run_equals_in_ram_run() {
        let spec = illinois();
        for (dedup, n) in [(Dedup::Exact, 4), (Dedup::Counting, 5)] {
            let ram = enumerate(&spec, &EnumOptions::new(n).dedup(dedup));
            let dir = spill_dir(&format!("eq{n}"));
            // A few hundred bytes of budget: constant segment churn.
            let spilled = enumerate(
                &spec,
                &EnumOptions::new(n)
                    .dedup(dedup)
                    .spill(SpillConfig::new(&dir, Some(512))),
            );
            assert_eq!(spilled.distinct, ram.distinct, "n={n} {dedup:?}");
            assert_eq!(spilled.visits, ram.visits, "n={n} {dedup:?}");
            assert_eq!(spilled.errors.len(), ram.errors.len());
            assert!(spilled.is_clean());
            assert!(
                std::fs::read_dir(&dir).unwrap().count() > 0,
                "tiny budget must produce segment files"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn spilled_run_finds_the_same_violations() {
        let spec = illinois_missing_invalidation();
        let ram = enumerate(&spec, &EnumOptions::new(3));
        let dir = spill_dir("bug");
        let spilled = enumerate(
            &spec,
            &EnumOptions::new(3).spill(SpillConfig::new(&dir, Some(256))),
        );
        assert_eq!(spilled.errors.len(), ram.errors.len());
        assert_eq!(spilled.distinct, ram.distinct);
        let mut a: Vec<_> = spilled.errors.iter().map(|e| e.state).collect();
        let mut b: Vec<_> = ram.errors.iter().map(|e| e.state).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilled_run_completes_under_a_budget_that_stops_the_ram_run() {
        let spec = illinois();
        // Pick a byte cap between the spill table's bounded resident
        // footprint and the full in-RAM table. n must be large enough
        // that the run crosses a governor poll stride (512 expansions)
        // while the table is big.
        let cap = 16 * 1024;
        let ram = enumerate(&spec, &EnumOptions::new(10).exact().max_bytes(cap));
        assert!(ram.truncated, "cap must stop the in-RAM run");
        assert_eq!(ram.stopped.unwrap().cause, StopCause::MemoryExhausted);

        let dir = spill_dir("cap");
        let spilled = enumerate(
            &spec,
            &EnumOptions::new(10)
                .exact()
                .max_bytes(cap)
                .spill(SpillConfig::new(&dir, Some(2 * 1024))),
        );
        assert!(
            !spilled.truncated,
            "spilling must complete under the same cap: {:?}",
            spilled.stopped
        );
        let unconstrained = enumerate(&spec, &EnumOptions::new(10).exact());
        assert_eq!(spilled.distinct, unconstrained.distinct);
        assert_eq!(spilled.visits, unconstrained.visits);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilled_run_survives_checkpoint_resume() {
        let spec = illinois();
        let full = enumerate(&spec, &EnumOptions::new(6).exact());

        let dir1 = spill_dir("ck1");
        let leg1 = enumerate(
            &spec,
            &EnumOptions::new(6)
                .exact()
                .max_states(40)
                .capture_snapshot(true)
                .spill(SpillConfig::new(&dir1, Some(256))),
        );
        assert!(leg1.truncated);
        let snap = leg1.snapshot.expect("spilled snapshot must read back");
        assert_eq!(snap.visited.len(), leg1.distinct);
        let seed = ResumeSeed {
            visited: snap.visited,
            frontier: snap.frontier,
            visits: leg1.visits,
            errors: leg1.errors,
        };
        // Resume into a *fresh* spill directory: the checkpoint is the
        // hand-off, not the segment files.
        let dir2 = spill_dir("ck2");
        let leg2 = enumerate_resumed(
            &spec,
            &EnumOptions::new(6)
                .exact()
                .spill(SpillConfig::new(&dir2, Some(256))),
            Some(seed),
        );
        assert!(!leg2.truncated);
        assert_eq!(leg2.distinct, full.distinct);
        assert_eq!(leg2.visits, full.visits);
        assert_eq!(leg2.errors.len(), full.errors.len());
        std::fs::remove_dir_all(&dir1).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn spill_metrics_are_reported() {
        use ccv_observe::Metrics;
        use std::sync::Arc;

        let spec = illinois();
        let dir = spill_dir("metrics");
        let metrics = Arc::new(Metrics::new());
        let r = enumerate(
            &spec,
            &EnumOptions::new(5)
                .spill(SpillConfig::new(&dir, Some(256)))
                .sink(metrics.clone() as Arc<_>),
        );
        assert!(r.is_clean());
        let snap = metrics.snapshot();
        assert!(snap.counter(Counter::SpillSegments) > 0);
        assert!(snap.counter(Counter::SpillBytes) > 0);
        // The gauge covers RAM + disk, so it must dominate the bytes
        // actually spilled.
        assert!(
            snap.gauge(Gauge::VisitedBytes).unwrap() >= snap.counter(Counter::SpillBytes),
            "visited_bytes must include on-disk segments"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rule_attribution_matches_the_run_totals() {
        use ccv_observe::{Counter, Metrics};
        use std::sync::Arc;

        let spec = illinois();
        let plain = enumerate(&spec, &EnumOptions::new(3));

        let metrics = Arc::new(Metrics::new());
        let attributed = enumerate(
            &spec,
            &EnumOptions::new(3)
                .sink(metrics.clone() as Arc<_>)
                .rule_stats(true),
        );
        // Attribution must not change what the engine explores.
        assert_eq!(attributed.distinct, plain.distinct);
        assert_eq!(attributed.visits, plain.visits);

        let snap = metrics.snapshot();
        let firings: u64 = snap.rules.values().map(|s| s.firings).sum();
        assert_eq!(firings, snap.counter(Counter::RuleFirings));
        let states: u64 = snap.rules.values().map(|s| s.states).sum();
        assert_eq!(states, attributed.visits as u64);
        let dedup: u64 = snap.rules.values().map(|s| s.dedup_hits).sum();
        assert_eq!(dedup, snap.counter(Counter::DedupHits));
        // Rule names come from the protocol's state shorts.
        for name in snap.rules.keys() {
            let (state, event) = name.split_once(':').unwrap();
            assert!(spec.state_by_name(state).is_some(), "unknown state {state}");
            assert!(matches!(event, "R" | "W" | "Z"));
        }
    }

    #[test]
    fn violations_are_attributed_to_rules() {
        use ccv_observe::Metrics;
        use std::sync::Arc;

        let spec = illinois_missing_invalidation();
        let metrics = Arc::new(Metrics::new());
        let r = enumerate(
            &spec,
            &EnumOptions::new(2)
                .sink(metrics.clone() as Arc<_>)
                .rule_stats(true),
        );
        assert!(!r.errors.is_empty());
        let snap = metrics.snapshot();
        let violations: u64 = snap.rules.values().map(|s| s.violations).sum();
        assert_eq!(violations, r.errors.len() as u64);
    }
}
