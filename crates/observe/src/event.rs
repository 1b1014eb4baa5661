//! The event vocabulary and the sink trait engines emit into.

use std::fmt;
use std::sync::Arc;

/// A top-level stage of a verification run.
///
/// Phases nest at most conceptually — sinks receive balanced
/// `phase_enter`/`phase_exit` pairs and may time them.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Symbolic worklist expansion (ccv-core).
    Expand,
    /// Reachability-graph construction over essential states.
    Graph,
    /// Explicit-state enumeration (ccv-enum).
    Enumerate,
    /// Trace simulation against the memory oracle (ccv-sim).
    Simulate,
    /// Theorem 1 crosscheck of symbolic vs. concrete state spaces.
    Crosscheck,
}

impl Phase {
    /// Every phase, in declaration order.
    pub const ALL: [Phase; 5] = [
        Phase::Expand,
        Phase::Graph,
        Phase::Enumerate,
        Phase::Simulate,
        Phase::Crosscheck,
    ];

    /// Stable lowercase name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Expand => "expand",
            Phase::Graph => "graph",
            Phase::Enumerate => "enumerate",
            Phase::Simulate => "simulate",
            Phase::Crosscheck => "crosscheck",
        }
    }

    /// Dense index for array-backed collectors.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A monotonic counter an engine increments as it works.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Composite states visited by the symbolic engine (paper's
    /// "number of visits"; 22 for Illinois, Appendix A.2).
    Visits,
    /// States removed by containment pruning: successors covered by a
    /// surviving state, plus survivors displaced by a new state.
    Prunes,
    /// Containment tests performed while deduplicating the worklist.
    ContainmentChecks,
    /// Protocol rules that fired during expansion.
    RuleFirings,
    /// Worklist states popped and expanded.
    Expansions,
    /// Coherence violations recorded.
    Errors,
    /// Explicit-enumeration states already present in the visited set.
    DedupHits,
    /// Explicit-enumeration states newly inserted into the visited set.
    DedupMisses,
    /// Latest-value oracle comparisons performed by the simulator.
    OracleChecks,
    /// Memory accesses the simulator consumed from its trace.
    Accesses,
    /// Bus transactions broadcast by the simulated machine.
    BusOps,
    /// Work batches a parallel enumeration worker stole from a peer.
    Steals,
    /// Visited-set claim attempts that collided with a concurrent
    /// claimer (lost CAS or observed an in-flight reservation).
    ClaimRaces,
    /// Visited-set slots examined by claims: `claim_probes` over the
    /// claims made is the mean probe depth of the lock-free table.
    ClaimProbes,
    /// Candidate composite states examined through the symbolic
    /// engine's containment index (signature prefilter passes that led
    /// to a full pairwise containment evaluation are counted by
    /// [`Counter::ContainmentChecks`]).
    IndexProbes,
    /// Successor composite states that hash-consed to an
    /// already-interned state in the composite arena.
    InternHits,
    /// Full governor polls (clock + memory checks) performed during
    /// the run. Cheap token-only checks are not counted.
    BudgetPolls,
    /// Early stops triggered by the resource governor (budget,
    /// deadline, memory cap, cancellation or worker panic). 0 or 1
    /// per engine run.
    BudgetStops,
    /// Nanoseconds the symbolic engine spent generating successors
    /// (`successors_into`). Like the other stage timers, accrued only
    /// while the run's sink is enabled.
    SuccessorsNs,
    /// Nanoseconds the symbolic engine spent interning successors in
    /// its composite arena.
    InternNs,
    /// Nanoseconds the symbolic engine spent in containment queries
    /// (`find_container` plus `prune_covered`).
    ContainNs,
    /// Nanoseconds the symbolic engine spent in the per-state
    /// coherence check of new and erroneous successors.
    CheckNs,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 22] = [
        Counter::Visits,
        Counter::Prunes,
        Counter::ContainmentChecks,
        Counter::RuleFirings,
        Counter::Expansions,
        Counter::Errors,
        Counter::DedupHits,
        Counter::DedupMisses,
        Counter::OracleChecks,
        Counter::Accesses,
        Counter::BusOps,
        Counter::Steals,
        Counter::ClaimRaces,
        Counter::ClaimProbes,
        Counter::IndexProbes,
        Counter::InternHits,
        Counter::BudgetPolls,
        Counter::BudgetStops,
        Counter::SuccessorsNs,
        Counter::InternNs,
        Counter::ContainNs,
        Counter::CheckNs,
    ];

    /// Stable snake_case name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Visits => "visits",
            Counter::Prunes => "prunes",
            Counter::ContainmentChecks => "containment_checks",
            Counter::RuleFirings => "rule_firings",
            Counter::Expansions => "expansions",
            Counter::Errors => "errors",
            Counter::DedupHits => "dedup_hits",
            Counter::DedupMisses => "dedup_misses",
            Counter::OracleChecks => "oracle_checks",
            Counter::Accesses => "accesses",
            Counter::BusOps => "bus_ops",
            Counter::Steals => "steals",
            Counter::ClaimRaces => "claim_races",
            Counter::ClaimProbes => "claim_probes",
            Counter::IndexProbes => "index_probes",
            Counter::InternHits => "intern_hits",
            Counter::BudgetPolls => "budget_polls",
            Counter::BudgetStops => "budget_stops",
            Counter::SuccessorsNs => "successors_ns",
            Counter::InternNs => "intern_ns",
            Counter::ContainNs => "contain_ns",
            Counter::CheckNs => "check_ns",
        }
    }

    /// Dense index for array-backed collectors.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A last-write-wins measurement reported at the end of a phase.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gauge {
    /// Essential states at the symbolic fixpoint (5 for Illinois).
    EssentialStates,
    /// Distinct concrete states found by explicit enumeration.
    DistinctStates,
    /// BFS levels completed by the enumerator.
    Levels,
    /// Worker threads used by the parallel enumerator.
    Threads,
    /// Peak number of discovered-but-unexpanded states observed by the
    /// work-stealing enumerator (its analogue of the largest frontier).
    PeakPending,
    /// Approximate bytes held by the symbolic engine's interned
    /// composite arena at fixpoint (inline storage plus spill).
    ArenaBytes,
    /// Approximate bytes held by the enumerator's visited table (and,
    /// for the sequential engine, its worklist) at the end of the run:
    /// the footprint the `--max-bytes` governor compares its cap
    /// against.
    VisitedBytes,
}

impl Gauge {
    /// Every gauge, in declaration order.
    pub const ALL: [Gauge; 7] = [
        Gauge::EssentialStates,
        Gauge::DistinctStates,
        Gauge::Levels,
        Gauge::Threads,
        Gauge::PeakPending,
        Gauge::ArenaBytes,
        Gauge::VisitedBytes,
    ];

    /// Stable snake_case name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::EssentialStates => "essential_states",
            Gauge::DistinctStates => "distinct_states",
            Gauge::Levels => "levels",
            Gauge::Threads => "threads",
            Gauge::PeakPending => "peak_pending",
            Gauge::ArenaBytes => "arena_bytes",
            Gauge::VisitedBytes => "visited_bytes",
        }
    }

    /// Dense index for array-backed collectors.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The kind of a timeline span reported through
/// [`EventSink::span_begin`] / [`EventSink::span_end`].
///
/// Span kinds are a *stable* vocabulary: trace exporters key track
/// names and categories off them. Spans carry a thread id (`tid`):
/// `0` is the coordinating thread, `w + 1` is enumeration worker `w`.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A top-level phase rendered as a span (trace exporters also
    /// derive these from `phase_enter`/`phase_exit`).
    Phase(Phase),
    /// A worker's continuous busy stretch: claimed work in hand,
    /// expanding states. Gaps between busy spans are idle time.
    WorkerBusy,
    /// The critical section of a successful steal (copying a batch out
    /// of a victim's public deque).
    Steal,
    /// The coordinator draining worker results and merging per-worker
    /// tallies after the pool joins.
    Drain,
    /// One leg of the Theorem 1 crosscheck (explicit enumeration, then
    /// the coverage scan).
    CrosscheckLeg,
}

impl SpanKind {
    /// Stable snake_case name used in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Phase(p) => p.name(),
            SpanKind::WorkerBusy => "worker_busy",
            SpanKind::Steal => "steal",
            SpanKind::Drain => "drain",
            SpanKind::CrosscheckLeg => "crosscheck_leg",
        }
    }

    /// Trace category: groups spans into Perfetto track categories.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Phase(_) => "phase",
            SpanKind::WorkerBusy | SpanKind::Steal => "worker",
            SpanKind::Drain => "coordinator",
            SpanKind::CrosscheckLeg => "crosscheck",
        }
    }
}

/// A counter track sampled at span boundaries (point-in-time values,
/// unlike the monotonic [`Counter`] deltas).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Track {
    /// Discovered-but-unexpanded states right now.
    Pending,
    /// Distinct states in the visited set right now.
    Visited,
}

impl Track {
    /// Stable snake_case name used in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            Track::Pending => "pending",
            Track::Visited => "visited",
        }
    }

    /// Dense index for array-backed collectors.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-rule attribution totals, merged from fixed-size per-worker
/// arrays at engine exit and reported once per rule through
/// [`EventSink::rule_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleStat {
    /// Times the rule fired (one `(state, event)` stimulus).
    pub firings: u64,
    /// Successor states the rule produced.
    pub states: u64,
    /// Produced successors that were already in the visited set (or
    /// covered by a surviving symbolic state).
    pub dedup_hits: u64,
    /// Violations observed on the rule's transitions or successors.
    pub violations: u64,
    /// Cumulative kernel wall time attributed to the rule, nanoseconds.
    pub nanos: u64,
}

impl RuleStat {
    /// Adds `other`'s totals into `self` (per-worker array merge).
    pub fn merge(&mut self, other: &RuleStat) {
        self.firings += other.firings;
        self.states += other.states;
        self.dedup_hits += other.dedup_hits;
        self.violations += other.violations;
        self.nanos += other.nanos;
    }
}

/// Receiver for engine events.
///
/// Every method has a no-op default, so implementations override only
/// what they record. Methods take `&self`: sinks are shared across
/// worker threads and must synchronise internally.
pub trait EventSink: Send + Sync {
    /// Whether the sink currently wants events. Engines may skip
    /// building expensive event payloads when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// A phase began.
    fn phase_enter(&self, phase: Phase) {
        let _ = phase;
    }

    /// A phase ended.
    fn phase_exit(&self, phase: Phase) {
        let _ = phase;
    }

    /// `counter` advanced by `delta`.
    fn count(&self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }

    /// `gauge` now reads `value`.
    fn gauge(&self, gauge: Gauge, value: u64) {
        let _ = (gauge, value);
    }

    /// A BFS frontier at `level` holds `size` states.
    fn frontier(&self, level: usize, size: usize) {
        let _ = (level, size);
    }

    /// A symbolic equivalence class covers `size` concrete states.
    fn class_size(&self, size: usize) {
        let _ = size;
    }

    /// The simulated machine broadcast bus operation `op`.
    fn bus_transaction(&self, op: &str) {
        let _ = op;
    }

    /// Worker `idx` has claimed `claims` frontier states so far.
    fn worker(&self, idx: usize, claims: u64) {
        let _ = (idx, claims);
    }

    /// Free-form progress note (human-readable, one line).
    fn progress(&self, message: &str) {
        let _ = message;
    }

    /// A timeline span began on thread `tid` (0 = coordinator,
    /// `w + 1` = worker `w`). Sinks pair it with the next
    /// [`span_end`](EventSink::span_end) of the same `(kind, tid)`.
    fn span_begin(&self, kind: SpanKind, tid: u32) {
        let _ = (kind, tid);
    }

    /// The innermost open span of `(kind, tid)` ended.
    fn span_end(&self, kind: SpanKind, tid: u32) {
        let _ = (kind, tid);
    }

    /// Point-in-time sample of a counter track (emitted at span
    /// boundaries, not per state).
    fn sample(&self, track: Track, value: u64) {
        let _ = (track, value);
    }

    /// A coherence violation was recorded (emitted at discovery time,
    /// unlike the end-of-run [`Counter::Errors`] total).
    fn violation(&self, description: &str) {
        let _ = description;
    }

    /// Merged per-rule attribution for `rule`, reported once per rule
    /// at engine exit.
    fn rule_stats(&self, rule: &str, stat: RuleStat) {
        let _ = (rule, stat);
    }

    /// The run stopped early (budget, deadline, memory cap,
    /// cancellation or worker panic). `cause` is a stable snake_case
    /// name ([`crate::govern::StopCause::name`]); `detail` carries
    /// free-form context such as a panic message. Emitted at most
    /// once per engine run, at the moment the stop is honoured.
    fn stopped(&self, cause: &str, detail: Option<&str>) {
        let _ = (cause, detail);
    }
}

/// A cheap handle engines hold: either attached to a sink or disabled.
///
/// `SinkHandle::default()` is disabled; every emission through it is a
/// single branch on `None`, which keeps instrumented hot loops at
/// their uninstrumented speed. Cloning shares the underlying sink.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Arc<dyn EventSink>>);

impl SinkHandle {
    /// The disabled handle — all emissions are no-ops.
    pub const fn disabled() -> SinkHandle {
        SinkHandle(None)
    }

    /// A handle attached to `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> SinkHandle {
        SinkHandle(Some(sink))
    }

    /// Whether a sink is attached and wants events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        match &self.0 {
            Some(sink) => sink.enabled(),
            None => false,
        }
    }

    /// See [`EventSink::phase_enter`].
    #[inline]
    pub fn phase_enter(&self, phase: Phase) {
        if let Some(sink) = &self.0 {
            sink.phase_enter(phase);
        }
    }

    /// See [`EventSink::phase_exit`].
    #[inline]
    pub fn phase_exit(&self, phase: Phase) {
        if let Some(sink) = &self.0 {
            sink.phase_exit(phase);
        }
    }

    /// See [`EventSink::count`].
    #[inline]
    pub fn count(&self, counter: Counter, delta: u64) {
        if let Some(sink) = &self.0 {
            sink.count(counter, delta);
        }
    }

    /// See [`EventSink::gauge`].
    #[inline]
    pub fn gauge(&self, gauge: Gauge, value: u64) {
        if let Some(sink) = &self.0 {
            sink.gauge(gauge, value);
        }
    }

    /// See [`EventSink::frontier`].
    #[inline]
    pub fn frontier(&self, level: usize, size: usize) {
        if let Some(sink) = &self.0 {
            sink.frontier(level, size);
        }
    }

    /// See [`EventSink::class_size`].
    #[inline]
    pub fn class_size(&self, size: usize) {
        if let Some(sink) = &self.0 {
            sink.class_size(size);
        }
    }

    /// See [`EventSink::bus_transaction`].
    #[inline]
    pub fn bus_transaction(&self, op: &str) {
        if let Some(sink) = &self.0 {
            sink.bus_transaction(op);
        }
    }

    /// See [`EventSink::worker`].
    #[inline]
    pub fn worker(&self, idx: usize, claims: u64) {
        if let Some(sink) = &self.0 {
            sink.worker(idx, claims);
        }
    }

    /// See [`EventSink::progress`].
    #[inline]
    pub fn progress(&self, message: &str) {
        if let Some(sink) = &self.0 {
            sink.progress(message);
        }
    }

    /// See [`EventSink::span_begin`].
    #[inline]
    pub fn span_begin(&self, kind: SpanKind, tid: u32) {
        if let Some(sink) = &self.0 {
            sink.span_begin(kind, tid);
        }
    }

    /// See [`EventSink::span_end`].
    #[inline]
    pub fn span_end(&self, kind: SpanKind, tid: u32) {
        if let Some(sink) = &self.0 {
            sink.span_end(kind, tid);
        }
    }

    /// See [`EventSink::sample`].
    #[inline]
    pub fn sample(&self, track: Track, value: u64) {
        if let Some(sink) = &self.0 {
            sink.sample(track, value);
        }
    }

    /// See [`EventSink::violation`].
    #[inline]
    pub fn violation(&self, description: &str) {
        if let Some(sink) = &self.0 {
            sink.violation(description);
        }
    }

    /// See [`EventSink::rule_stats`].
    #[inline]
    pub fn rule_stats(&self, rule: &str, stat: RuleStat) {
        if let Some(sink) = &self.0 {
            sink.rule_stats(rule, stat);
        }
    }

    /// See [`EventSink::stopped`].
    #[inline]
    pub fn stopped(&self, cause: &str, detail: Option<&str>) {
        if let Some(sink) = &self.0 {
            sink.stopped(cause, detail);
        }
    }
}

impl From<Arc<dyn EventSink>> for SinkHandle {
    fn from(sink: Arc<dyn EventSink>) -> SinkHandle {
        SinkHandle::new(sink)
    }
}

/// Fan-out sink: forwards every event to each attached sink in order.
///
/// Lets one run feed several consumers at once — e.g. a [`crate::Metrics`]
/// collector for the end-of-run summary *and* an [`crate::NdjsonSink`]
/// streaming progress lines.
#[derive(Default)]
pub struct Tee {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl Tee {
    /// An empty tee (reports itself disabled until a sink is added).
    pub fn new() -> Tee {
        Tee::default()
    }

    /// Adds a downstream sink; builder-style.
    pub fn with(mut self, sink: Arc<dyn EventSink>) -> Tee {
        self.sinks.push(sink);
        self
    }
}

impl EventSink for Tee {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn phase_enter(&self, phase: Phase) {
        for s in &self.sinks {
            s.phase_enter(phase);
        }
    }

    fn phase_exit(&self, phase: Phase) {
        for s in &self.sinks {
            s.phase_exit(phase);
        }
    }

    fn count(&self, counter: Counter, delta: u64) {
        for s in &self.sinks {
            s.count(counter, delta);
        }
    }

    fn gauge(&self, gauge: Gauge, value: u64) {
        for s in &self.sinks {
            s.gauge(gauge, value);
        }
    }

    fn frontier(&self, level: usize, size: usize) {
        for s in &self.sinks {
            s.frontier(level, size);
        }
    }

    fn class_size(&self, size: usize) {
        for s in &self.sinks {
            s.class_size(size);
        }
    }

    fn bus_transaction(&self, op: &str) {
        for s in &self.sinks {
            s.bus_transaction(op);
        }
    }

    fn worker(&self, idx: usize, claims: u64) {
        for s in &self.sinks {
            s.worker(idx, claims);
        }
    }

    fn progress(&self, message: &str) {
        for s in &self.sinks {
            s.progress(message);
        }
    }

    fn span_begin(&self, kind: SpanKind, tid: u32) {
        for s in &self.sinks {
            s.span_begin(kind, tid);
        }
    }

    fn span_end(&self, kind: SpanKind, tid: u32) {
        for s in &self.sinks {
            s.span_end(kind, tid);
        }
    }

    fn sample(&self, track: Track, value: u64) {
        for s in &self.sinks {
            s.sample(track, value);
        }
    }

    fn violation(&self, description: &str) {
        for s in &self.sinks {
            s.violation(description);
        }
    }

    fn rule_stats(&self, rule: &str, stat: RuleStat) {
        for s in &self.sinks {
            s.rule_stats(rule, stat);
        }
    }

    fn stopped(&self, cause: &str, detail: Option<&str>) {
        for s in &self.sinks {
            s.stopped(cause, detail);
        }
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "SinkHandle(attached)"
        } else {
            "SinkHandle(disabled)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingSink {
        events: AtomicU64,
    }

    impl EventSink for CountingSink {
        fn count(&self, _counter: Counter, delta: u64) {
            self.events.fetch_add(delta, Ordering::Relaxed);
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let handle = SinkHandle::disabled();
        assert!(!handle.is_enabled());
        handle.count(Counter::Visits, 5);
        handle.phase_enter(Phase::Expand);
        handle.progress("nothing listens");
    }

    #[test]
    fn attached_handle_dispatches() {
        let sink = Arc::new(CountingSink::default());
        let handle = SinkHandle::new(sink.clone());
        assert!(handle.is_enabled());
        handle.count(Counter::Visits, 3);
        handle.count(Counter::Prunes, 4);
        // Default no-op methods are safe to call too.
        handle.frontier(0, 1);
        assert_eq!(sink.events.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn tee_fans_out_to_every_sink() {
        let a = Arc::new(CountingSink::default());
        let b = Arc::new(CountingSink::default());
        let tee = Tee::new().with(a.clone()).with(b.clone());
        assert!(tee.enabled());
        let handle = SinkHandle::new(Arc::new(tee));
        handle.count(Counter::Visits, 2);
        assert_eq!(a.events.load(Ordering::Relaxed), 2);
        assert_eq!(b.events.load(Ordering::Relaxed), 2);
        assert!(!Tee::new().enabled(), "an empty tee is disabled");
    }

    #[test]
    fn names_are_stable_and_indices_dense() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        assert_eq!(Counter::Visits.name(), "visits");
        assert_eq!(Gauge::EssentialStates.name(), "essential_states");
        assert_eq!(Phase::Expand.name(), "expand");
    }

    #[test]
    fn span_kinds_have_stable_names_and_categories() {
        assert_eq!(SpanKind::Phase(Phase::Enumerate).name(), "enumerate");
        assert_eq!(SpanKind::Phase(Phase::Enumerate).category(), "phase");
        assert_eq!(SpanKind::WorkerBusy.name(), "worker_busy");
        assert_eq!(SpanKind::WorkerBusy.category(), "worker");
        assert_eq!(SpanKind::Steal.name(), "steal");
        assert_eq!(SpanKind::Drain.name(), "drain");
        assert_eq!(SpanKind::CrosscheckLeg.name(), "crosscheck_leg");
        assert_eq!(Track::Pending.name(), "pending");
        assert_eq!(Track::Visited.name(), "visited");
    }

    #[test]
    fn rule_stats_merge_adds_fields() {
        let mut a = RuleStat {
            firings: 1,
            states: 2,
            dedup_hits: 3,
            violations: 0,
            nanos: 10,
        };
        a.merge(&RuleStat {
            firings: 4,
            states: 5,
            dedup_hits: 6,
            violations: 1,
            nanos: 90,
        });
        assert_eq!(a.firings, 5);
        assert_eq!(a.states, 7);
        assert_eq!(a.dedup_hits, 9);
        assert_eq!(a.violations, 1);
        assert_eq!(a.nanos, 100);
    }

    #[test]
    fn new_events_flow_through_handle_and_tee() {
        #[derive(Default)]
        struct SpanSink {
            spans: AtomicU64,
            rules: AtomicU64,
            stops: AtomicU64,
        }
        impl EventSink for SpanSink {
            fn span_begin(&self, _kind: SpanKind, _tid: u32) {
                self.spans.fetch_add(1, Ordering::Relaxed);
            }
            fn span_end(&self, _kind: SpanKind, _tid: u32) {
                self.spans.fetch_add(1, Ordering::Relaxed);
            }
            fn rule_stats(&self, _rule: &str, stat: RuleStat) {
                self.rules.fetch_add(stat.firings, Ordering::Relaxed);
            }
            fn stopped(&self, _cause: &str, detail: Option<&str>) {
                assert_eq!(detail, Some("worker 3 panicked"));
                self.stops.fetch_add(1, Ordering::Relaxed);
            }
        }
        let sink = Arc::new(SpanSink::default());
        let tee = Tee::new().with(sink.clone());
        let handle = SinkHandle::new(Arc::new(tee));
        handle.span_begin(SpanKind::WorkerBusy, 1);
        handle.span_end(SpanKind::WorkerBusy, 1);
        handle.sample(Track::Pending, 7);
        handle.violation("stale read");
        handle.rule_stats(
            "Inv:R",
            RuleStat {
                firings: 3,
                ..RuleStat::default()
            },
        );
        handle.stopped("worker_panic", Some("worker 3 panicked"));
        assert_eq!(sink.spans.load(Ordering::Relaxed), 2);
        assert_eq!(sink.rules.load(Ordering::Relaxed), 3);
        assert_eq!(sink.stops.load(Ordering::Relaxed), 1);
    }
}
