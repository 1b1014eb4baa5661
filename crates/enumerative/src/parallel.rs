//! Lock-free work-stealing parallel reachability.
//!
//! The state-space explosion that motivates the paper (§3.1) is a
//! textbook irregular-parallel workload: every reached state can be
//! expanded independently, but the frontier's shape is unpredictable.
//! Earlier revisions parallelised the search level-synchronously —
//! respawning a thread pool per BFS level and joining at a barrier —
//! which serialised on the barrier exactly when levels were narrow and
//! on the mutex-sharded visited set exactly when they were wide. This
//! engine replaces both:
//!
//! * **one persistent worker pool** (`std::thread::scope`) spawned
//!   once per run, never joined until the search finishes;
//! * **work stealing** instead of level barriers: each worker owns a
//!   private LIFO stack plus a small mutex-guarded public deque. A
//!   worker expands from its stack, periodically publishing the older
//!   half when its public deque is empty; idle workers steal batches
//!   from the *front* of a victim's public deque (round-robin victim
//!   scan, `try_lock` only — a busy victim is skipped, never waited
//!   on), so the critical sections are short and amortised over up to
//!   `STEAL_CAP` states;
//! * **a lock-free visited set** ([`AtomicVisited`]): claiming a state
//!   is one CAS on the fast path, and the distinct-state count is a
//!   single atomic counter instead of locking all shards;
//! * **cooperative termination**: a global `pending` counter tracks
//!   claimed-but-unexpanded states (incremented *before* a state is
//!   pushed, decremented *after* its expansion completes), so an idle
//!   worker that observes `pending == 0` knows the search is complete.
//!   Budget exhaustion and `stop_at_first_error` propagate through a
//!   shared stop flag checked once per expansion.
//!
//! # Equivalence with the sequential engine
//!
//! Both engines run one shared expansion step (successor generation,
//! rule attribution, the per-successor bookkeeping, the governor and
//! fault checks); this module supplies only the scheduling. Both
//! enqueue the *dedup key* of each successor (see
//! [`Dedup::canon`](crate::explicit::Dedup::canon)), and
//! [`AtomicVisited::claim`] admits each key exactly once, so the set
//! of expanded states — and therefore the `distinct`/`visits` totals
//! and the violation *set* — is identical to
//! [`crate::explicit::enumerate`]'s, for any thread count. Discovery
//! *order*, and with it error ordering, is scheduling-dependent. The
//! unit tests and the differential matrix in
//! `tests/tests/engines_agree.rs` pin the agreement.

use crate::explicit::{
    worker_panic_note, EnumOptions, EnumResult, EnumSnapshot, Gate, ResumeSeed, Search, Tally,
    INJECTED_PANIC,
};
use crate::packed::PackedState;
use crate::step::ConcreteStep;
use crate::visited::AtomicVisited;
use ccv_model::ProtocolSpec;
use ccv_observe::{Counter, Gauge, Phase, SpanKind, StopCause, Track};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

/// Most states moved from a worker's public deque to its private
/// stack in one refill.
const REFILL_BATCH: usize = 64;

/// Most states taken from a victim in one steal.
const STEAL_CAP: usize = 64;

/// Locks `m`, recovering from poisoning. Every critical section leaves
/// its deque or note valid after each single operation, and a worker
/// panic (contained by `catch_unwind`) stops the run, so a poisoned
/// lock's data is still safe to drain and to report.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Non-blocking [`lock`]: `None` while another thread holds `m`.
fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Shared search state, borrowed by every worker.
struct Shared<'a> {
    /// The expansion step shared with the sequential engine.
    search: Search<'a>,
    visited: AtomicVisited,
    /// Claimed-but-unexpanded states; 0 ⇒ the search is complete.
    pending: AtomicUsize,
    stop: AtomicBool,
    /// One public deque per worker. Owners push/pop at the back,
    /// thieves steal batches from the front.
    queues: Vec<Mutex<VecDeque<PackedState>>>,
}

/// Per-worker tallies, merged after the pool joins.
#[derive(Default)]
struct WorkerStats {
    tally: Tally,
    steals: u64,
    claim_races: u64,
    claim_probes: u64,
    peak_pending: usize,
}

/// Moves up to [`REFILL_BATCH`] states from the worker's own public
/// deque (back first — the most recently published, preserving
/// locality) onto its private stack and pops one.
fn refill(w: usize, sh: &Shared<'_>, local: &mut Vec<PackedState>) -> Option<PackedState> {
    let mut q = lock(&sh.queues[w]);
    for _ in 0..REFILL_BATCH {
        match q.pop_back() {
            Some(s) => local.push(s),
            None => break,
        }
    }
    drop(q);
    local.pop()
}

/// Scans the other workers round-robin and steals up to half of the
/// first non-empty public deque found (front first — the states
/// published earliest, farthest from the victim's working set).
fn steal(
    w: usize,
    sh: &Shared<'_>,
    local: &mut Vec<PackedState>,
    stats: &mut WorkerStats,
) -> Option<PackedState> {
    let k = sh.queues.len();
    for off in 1..k {
        let victim = (w + off) % k;
        let Some(mut q) = try_lock(&sh.queues[victim]) else {
            continue;
        };
        let take = q.len().div_ceil(2).min(STEAL_CAP);
        if take == 0 {
            continue;
        }
        if sh.search.events {
            sh.search.sink().span_begin(SpanKind::Steal, w as u32 + 1);
        }
        for _ in 0..take {
            local.push(q.pop_front().expect("len checked"));
        }
        drop(q);
        if sh.search.events {
            sh.search.sink().span_end(SpanKind::Steal, w as u32 + 1);
        }
        stats.steals += 1;
        return local.pop();
    }
    None
}

/// Expands one state through the shared step, claiming successor keys
/// in the lock-free visited set and scheduling the newly claimed ones
/// on the private stack, then publishes work for idle workers.
fn expand(
    state: PackedState,
    w: usize,
    sh: &Shared<'_>,
    local: &mut Vec<PackedState>,
    buf: &mut Vec<ConcreteStep>,
    stats: &mut WorkerStats,
) {
    let stop = sh.search.expand(
        state,
        buf,
        &mut stats.tally,
        |key| {
            let claim = sh.visited.claim(key);
            stats.claim_races += claim.races as u64;
            stats.claim_probes += claim.probes as u64;
            claim.claimed
        },
        |key| {
            let now_pending = sh.pending.fetch_add(1, Ordering::Relaxed) + 1;
            stats.peak_pending = stats.peak_pending.max(now_pending);
            local.push(key);
        },
    );
    if stop {
        sh.stop.store(true, Ordering::Release);
    }

    // Publish the older (shallower) half of a grown private stack so
    // idle workers have something to steal; only when our own public
    // deque has drained, so publication stays rare on the hot path.
    if local.len() > 1 {
        if let Some(mut q) = try_lock(&sh.queues[w]) {
            if q.is_empty() {
                let give = local.len() / 2;
                for s in local.drain(..give) {
                    q.push_back(s);
                }
            }
        }
    }
}

/// One worker: expand from the private stack, refill from the own
/// public deque, steal when both are empty, exit when the global
/// pending count hits zero (or a stop is signalled).
///
/// `local` and `stats` are owned by the spawning closure so that a
/// panicking worker's private stack still reaches the frontier drain
/// and its partial tallies still merge.
fn worker_loop(w: usize, sh: &Shared<'_>, local: &mut Vec<PackedState>, stats: &mut WorkerStats) {
    let tid = w as u32 + 1;
    let sink = sh.search.sink();
    let mut buf: Vec<ConcreteStep> = Vec::new();
    let mut expansions = 0usize;
    let mut idle = 0u32;
    // Busy intervals become WorkerBusy spans on the worker's own trace
    // track: one span per contiguous stretch of expansions, closed when
    // the worker runs dry (and reopened when it finds work again).
    let mut busy = false;
    let mut spans = 0u32;
    loop {
        if sh.stop.load(Ordering::Relaxed) {
            break;
        }
        let state = local
            .pop()
            .or_else(|| refill(w, sh, local))
            .or_else(|| steal(w, sh, local, stats));
        let Some(state) = state else {
            if busy {
                busy = false;
                spans += 1;
                sink.span_end(SpanKind::WorkerBusy, tid);
                sink.sample(Track::Pending, sh.pending.load(Ordering::Relaxed) as u64);
                sink.sample(Track::Visited, sh.visited.len() as u64);
            }
            if sh.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            // All remaining work sits in other workers' private
            // stacks. Back off progressively: stay polite on machines
            // with fewer cores than workers.
            idle += 1;
            if idle <= 8 {
                std::thread::yield_now();
            } else {
                let micros = (50u64 << (idle - 8).min(5)).min(1_000);
                std::thread::sleep(Duration::from_micros(micros));
            }
            continue;
        };
        // A stopped state goes *back* on the private stack (it reaches
        // the checkpoint frontier), never half-expanded; so does the
        // state of an injected panic, before the unwind into the
        // pool's containment.
        match sh
            .search
            .gate(expansions, sh.visited.len(), || sh.visited.approx_bytes())
        {
            Gate::Expand => {}
            Gate::Stop => {
                sh.stop.store(true, Ordering::Release);
                local.push(state);
                break;
            }
            Gate::Panic => {
                local.push(state);
                panic!("{INJECTED_PANIC}");
            }
        }
        expansions += 1;
        if sh.search.events && !busy {
            busy = true;
            sink.span_begin(SpanKind::WorkerBusy, tid);
            sink.sample(Track::Pending, sh.pending.load(Ordering::Relaxed) as u64);
            sink.sample(Track::Visited, sh.visited.len() as u64);
        }
        idle = 0;
        expand(state, w, sh, local, &mut buf, stats);
        sh.pending.fetch_sub(1, Ordering::AcqRel);
    }
    if busy {
        spans += 1;
        sink.span_end(SpanKind::WorkerBusy, tid);
    }
    if sh.search.events && spans == 0 {
        // A worker that never found work still gets one (degenerate)
        // complete span, so every worker track exists in the trace.
        sink.span_begin(SpanKind::WorkerBusy, tid);
        sink.span_end(SpanKind::WorkerBusy, tid);
    }
}

/// Runs the exhaustive search on `threads` persistent workers with
/// work stealing.
///
/// Produces the same `distinct`/`visits` totals and the same violation
/// *set* as [`crate::explicit::enumerate`] for any thread count; error
/// ordering is scheduling-dependent. `stop_at_first_error` ends the
/// expansion that found the violation and propagates cooperatively to
/// the other workers, so a few extra states may be expanded (and extra
/// errors recorded) before all of them observe the stop.
pub fn enumerate_parallel(spec: &ProtocolSpec, opts: &EnumOptions, threads: usize) -> EnumResult {
    enumerate_parallel_resumed(spec, opts, threads, None)
}

/// [`enumerate_parallel`], optionally continuing from a checkpoint
/// seed. The resumed search pre-claims every previously visited state
/// and distributes the saved frontier round-robin across the workers;
/// totals are reported cumulatively, so a budget-split run's final
/// counts equal an uninterrupted run's.
pub fn enumerate_parallel_resumed(
    spec: &ProtocolSpec,
    opts: &EnumOptions,
    threads: usize,
    seed: Option<ResumeSeed>,
) -> EnumResult {
    assert!(threads >= 1);
    let sh = Shared {
        search: Search::new(spec, opts),
        visited: AtomicVisited::new(),
        pending: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
    };
    let sink = sh.search.sink();
    let events = sh.search.events;
    sink.phase_enter(Phase::Enumerate);
    sink.gauge(Gauge::Threads, threads as u64);

    // The coordinator claims the seed states itself, so the per-worker
    // claim counts sum to the states the workers discovered.
    let (mut tally, frontier) = sh.search.seed(seed, |s| {
        sh.visited.claim(s);
    });
    sh.pending.store(frontier.len(), Ordering::Relaxed);
    for (i, s) in frontier.into_iter().enumerate() {
        lock(&sh.queues[i % threads]).push_back(s);
    }

    // Worker panics are caught at the closure boundary: the first
    // payload becomes the run's stop detail, the governor records
    // `WorkerPanic`, and the surviving workers drain cooperatively —
    // the pending counter is never left dangling behind a dead thread.
    let panic_note: Mutex<Option<String>> = Mutex::new(None);
    let outcomes: Vec<(WorkerStats, Vec<PackedState>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let sh = &sh;
                let panic_note = &panic_note;
                scope.spawn(move || {
                    let mut stats = WorkerStats {
                        tally: sh.search.tally(),
                        ..WorkerStats::default()
                    };
                    let mut local: Vec<PackedState> = Vec::new();
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        worker_loop(w, sh, &mut local, &mut stats)
                    }));
                    if let Err(payload) = run {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "opaque panic payload".to_string());
                        let mut note = lock(panic_note);
                        if note.is_none() {
                            *note = Some(worker_panic_note(w, &msg));
                        }
                        sh.search.gov.stop(StopCause::WorkerPanic);
                        sh.stop.store(true, Ordering::Release);
                    }
                    (stats, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics are caught in the closure"))
            .collect()
    });
    let mut frontier: Vec<PackedState> = Vec::new();
    let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(threads);
    for (stats, local) in outcomes {
        frontier.extend(local);
        worker_stats.push(stats);
    }
    for q in &sh.queues {
        frontier.extend(lock(q).drain(..));
    }

    // The coordinator's merge of per-worker tallies and the report are
    // the Drain leg of the run's timeline (tid 0 = main thread).
    if events {
        sink.span_begin(SpanKind::Drain, 0);
    }
    let mut steals = 0u64;
    let mut claim_races = 0u64;
    let mut claim_probes = 0u64;
    let mut peak_pending = 1usize;
    for stats in &mut worker_stats {
        tally.merge(&mut stats.tally);
        steals += stats.steals;
        claim_races += stats.claim_races;
        claim_probes += stats.claim_probes;
        peak_pending = peak_pending.max(stats.peak_pending);
    }
    let panic_note = panic_note
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let stopped = sh.search.finish(&tally, frontier.len(), panic_note);
    let truncated = stopped.is_some();
    let distinct = sh.visited.len();
    if events {
        sink.count(Counter::Steals, steals);
        sink.count(Counter::ClaimRaces, claim_races);
        sink.count(Counter::ClaimProbes, claim_probes);
        sink.gauge(Gauge::DistinctStates, distinct as u64);
        sink.gauge(Gauge::PeakPending, peak_pending as u64);
        sink.sample(Track::Pending, sh.pending.load(Ordering::Relaxed) as u64);
        sink.sample(Track::Visited, distinct as u64);
        for (i, stats) in worker_stats.iter().enumerate() {
            sink.worker(i, stats.tally.dedup_misses);
        }
        sink.progress(&format!(
            "enumerated {distinct} distinct states in {} visits \
             ({threads} workers, {steals} steals)",
            tally.visits
        ));
        sink.span_end(SpanKind::Drain, 0);
    }
    sink.gauge(Gauge::VisitedBytes, sh.visited.approx_bytes());
    sink.phase_exit(Phase::Enumerate);

    let snapshot = opts.capture_snapshot.then(|| EnumSnapshot {
        visited: sh.visited.states(),
        frontier,
    });
    EnumResult {
        n: opts.n,
        distinct,
        visits: tally.visits,
        errors: tally.errors,
        truncated,
        stopped,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::enumerate;
    use ccv_model::protocols::{dragon, illinois, illinois_missing_writeback};

    #[test]
    fn parallel_matches_sequential_distinct_and_visits() {
        let spec = illinois();
        for n in 1..=4 {
            let seq = enumerate(&spec, &EnumOptions::new(n).exact());
            for threads in [1, 2, 4] {
                let par = enumerate_parallel(&spec, &EnumOptions::new(n).exact(), threads);
                assert_eq!(par.distinct, seq.distinct, "n={n} t={threads}");
                assert_eq!(par.visits, seq.visits, "n={n} t={threads}");
                assert!(par.is_clean());
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_with_counting_dedup() {
        let spec = dragon();
        let seq = enumerate(&spec, &EnumOptions::new(3));
        let par = enumerate_parallel(&spec, &EnumOptions::new(3), 4);
        assert_eq!(par.distinct, seq.distinct);
        assert_eq!(par.visits, seq.visits);
    }

    #[test]
    fn parallel_finds_the_same_bugs() {
        let spec = illinois_missing_writeback();
        let seq = enumerate(&spec, &EnumOptions::new(3));
        let par = enumerate_parallel(&spec, &EnumOptions::new(3), 4);
        assert!(!seq.errors.is_empty());
        assert!(!par.errors.is_empty());
        // Same violating state set (order-insensitive).
        let mut a: Vec<u128> = seq.errors.iter().map(|e| e.state.0).collect();
        let mut b: Vec<u128> = par.errors.iter().map(|e| e.state.0).collect();
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        assert_eq!(a, b);
    }

    #[test]
    fn single_thread_parallel_equals_sequential() {
        let spec = illinois();
        let seq = enumerate(&spec, &EnumOptions::new(3));
        let par = enumerate_parallel(&spec, &EnumOptions::new(3), 1);
        assert_eq!(seq.distinct, par.distinct);
        assert_eq!(seq.visits, par.visits);
    }

    #[test]
    fn oversubscribed_pool_still_agrees() {
        // More workers than states in early levels: most workers spend
        // the run stealing or idling; counts must still be exact.
        let spec = dragon();
        let seq = enumerate(&spec, &EnumOptions::new(2).exact());
        let par = enumerate_parallel(&spec, &EnumOptions::new(2).exact(), 8);
        assert_eq!(par.distinct, seq.distinct);
        assert_eq!(par.visits, seq.visits);
    }

    #[test]
    fn budget_truncates_parallel_run() {
        let spec = illinois();
        let r = enumerate_parallel(&spec, &EnumOptions::new(4).max_states(5), 4);
        assert!(r.truncated);
        assert!(!r.is_clean());
        assert!(r.distinct >= 5);
        let info = r.stopped.expect("truncated runs carry stop info");
        assert_eq!(info.cause, StopCause::BudgetExhausted);
    }

    /// Runs `f` under a watchdog so a deadlocked pool fails the test
    /// instead of hanging the suite forever.
    fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("enumeration deadlocked: no result within 30s")
    }

    #[test]
    fn panicking_worker_reports_instead_of_deadlocking() {
        // `None` is the sequential engine, the rest are pool sizes.
        for threads in [None, Some(1usize), Some(2), Some(8)] {
            let r = with_watchdog(move || {
                let spec = illinois();
                let mut opts = EnumOptions::new(4).exact();
                let fault = ccv_observe::FaultHandle::from_spec("enum.worker:panic@3").unwrap();
                opts.common = opts.common.fault(fault);
                match threads {
                    None => enumerate(&spec, &opts),
                    Some(t) => enumerate_parallel(&spec, &opts, t),
                }
            });
            assert!(r.truncated, "t={threads:?}");
            let info = r.stopped.expect("panic is a recorded stop cause");
            assert_eq!(info.cause, StopCause::WorkerPanic, "t={threads:?}");
            assert!(info.frontier > 0, "t={threads:?}: the panicked state stays");
            let detail = info.detail.expect("panic payload captured");
            assert!(detail.contains(INJECTED_PANIC), "t={threads:?}: {detail}");
        }
    }

    #[test]
    fn cancelled_token_drains_the_pool_cleanly() {
        use ccv_observe::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let r = with_watchdog({
            let token = token.clone();
            move || {
                let spec = illinois();
                enumerate_parallel(&spec, &EnumOptions::new(4).cancel(token), 4)
            }
        });
        assert!(r.truncated);
        assert_eq!(r.stopped.unwrap().cause, StopCause::Cancelled);
        // The token is an input: the engine must not un-cancel it.
        assert!(token.is_cancelled());
    }

    #[test]
    fn budget_split_parallel_resume_matches_uninterrupted() {
        let spec = dragon();
        let full = enumerate(&spec, &EnumOptions::new(3).exact());
        for threads in [2usize, 4] {
            let leg1 = enumerate_parallel(
                &spec,
                &EnumOptions::new(3)
                    .exact()
                    .max_states(20)
                    .capture_snapshot(true),
                threads,
            );
            assert!(leg1.truncated, "t={threads}");
            let snap = leg1.snapshot.expect("snapshot captured");
            assert_eq!(snap.visited.len(), leg1.distinct, "t={threads}");
            let seed = ResumeSeed {
                visited: snap.visited,
                frontier: snap.frontier,
                visits: leg1.visits,
                errors: leg1.errors,
            };
            let leg2 = enumerate_parallel_resumed(
                &spec,
                &EnumOptions::new(3).exact(),
                threads,
                Some(seed),
            );
            assert!(!leg2.truncated, "t={threads}");
            assert_eq!(leg2.distinct, full.distinct, "t={threads}");
            assert_eq!(leg2.visits, full.visits, "t={threads}");
        }
    }

    #[test]
    fn sequential_checkpoint_resumes_on_the_parallel_engine() {
        // Engines share the frontier/visited format, so a checkpoint
        // from one resumes on the other with identical totals.
        let spec = illinois();
        let full = enumerate(&spec, &EnumOptions::new(3).exact());
        let leg1 = enumerate(
            &spec,
            &EnumOptions::new(3)
                .exact()
                .max_states(5)
                .capture_snapshot(true),
        );
        assert!(leg1.truncated);
        let snap = leg1.snapshot.unwrap();
        let seed = ResumeSeed {
            visited: snap.visited,
            frontier: snap.frontier,
            visits: leg1.visits,
            errors: leg1.errors,
        };
        let leg2 = enumerate_parallel_resumed(&spec, &EnumOptions::new(3).exact(), 4, Some(seed));
        assert_eq!(leg2.distinct, full.distinct);
        assert_eq!(leg2.visits, full.visits);
    }

    #[test]
    fn parallel_rule_attribution_matches_sequential_totals() {
        use ccv_observe::{EventSink, Metrics};
        use std::sync::Arc;

        let spec = illinois();
        let plain = enumerate(&spec, &EnumOptions::new(3).exact());

        let metrics = Arc::new(Metrics::new());
        let opts = EnumOptions::new(3)
            .exact()
            .sink(metrics.clone() as Arc<dyn EventSink>)
            .rule_stats(true);
        let attributed = enumerate_parallel(&spec, &opts, 4);
        assert_eq!(attributed.distinct, plain.distinct);
        assert_eq!(attributed.visits, plain.visits);

        let snap = metrics.snapshot();
        let firings: u64 = snap.rules.values().map(|r| r.firings).sum();
        let states: u64 = snap.rules.values().map(|r| r.states).sum();
        let dedup: u64 = snap.rules.values().map(|r| r.dedup_hits).sum();
        assert_eq!(firings, snap.counter(Counter::RuleFirings));
        assert_eq!(states, attributed.visits as u64);
        assert_eq!(dedup, snap.counter(Counter::DedupHits));
    }

    #[test]
    fn every_worker_emits_balanced_busy_spans() {
        use ccv_observe::EventSink;
        use std::collections::HashMap;
        use std::sync::Arc;

        #[derive(Default)]
        struct SpanLedger {
            // tid → (begins, ends); `open` counts currently-open spans
            // per tid and must never go negative.
            per_tid: Mutex<HashMap<u32, (u64, u64)>>,
            unbalanced: AtomicBool,
        }
        impl EventSink for SpanLedger {
            fn span_begin(&self, _kind: SpanKind, tid: u32) {
                lock(&self.per_tid).entry(tid).or_default().0 += 1;
            }
            fn span_end(&self, _kind: SpanKind, tid: u32) {
                let mut map = lock(&self.per_tid);
                let e = map.entry(tid).or_default();
                e.1 += 1;
                if e.1 > e.0 {
                    self.unbalanced.store(true, Ordering::Relaxed);
                }
            }
        }

        let spec = illinois();
        let ledger = Arc::new(SpanLedger::default());
        let threads = 4;
        let opts = EnumOptions::new(4).sink(ledger.clone() as Arc<dyn EventSink>);
        enumerate_parallel(&spec, &opts, threads);

        assert!(!ledger.unbalanced.load(Ordering::Relaxed));
        let map = lock(&ledger.per_tid);
        // Coordinator track (Drain span) plus every worker track.
        assert!(map.contains_key(&0), "coordinator emitted no span");
        for w in 0..threads {
            let tid = w as u32 + 1;
            let (begins, ends) = map[&tid];
            assert!(begins >= 1, "worker {w} emitted no span");
            assert_eq!(begins, ends, "worker {w} spans unbalanced");
        }
    }
}
