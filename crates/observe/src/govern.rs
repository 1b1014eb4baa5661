//! Resource governance: budgets, deadlines, memory caps and
//! cooperative cancellation.
//!
//! Every engine loop in ccv is potentially unbounded — a buggy
//! protocol or a large cache count can run forever or exhaust memory
//! with no verdict to show for it. This module gives all engines one
//! shared vocabulary for stopping *early but honestly*:
//!
//! * [`CancelToken`] — a cheap cloneable flag (one `AtomicU8`) that a
//!   CLI signal handler, a sibling worker or a test flips to request
//!   a stop. Engines poll it cooperatively.
//! * [`Governor`] — wraps the token together with an optional
//!   wall-clock deadline and approximate memory cap, and arbitrates
//!   the *first* stop cause when several trip at once.
//! * [`StopCause`] / [`StopInfo`] — why and in what state a run
//!   stopped, attached to engine results so reports can render an
//!   `INCONCLUSIVE` verdict with the reason instead of silently
//!   pretending the run finished.
//!
//! Polling discipline: checking the token is one relaxed atomic load
//! and is fine at rule-firing granularity. Reading the clock is not —
//! engines call [`Governor::poll`] every [`Governor::STRIDE`] firings
//! and [`Governor::cancelled`] (token only) in between, so a
//! governed run costs a branch per firing and a clock read per
//! stride.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token state: the run is proceeding.
const RUNNING: u8 = 0;
/// Token state: an external party (Ctrl-C, a test, an embedding
/// application) asked the run to stop.
const CANCELLED: u8 = 1;
/// Token state: the run itself tripped a resource budget.
const EXHAUSTED: u8 = 2;
/// Token state: the party the run was serving went away (a client
/// dropped its connection mid-request), so the result has no
/// recipient and the work should stop.
const DISCONNECTED: u8 = 3;

/// Process-global cancellation flag backing [`CancelToken::global`].
/// Written by [`request_global_cancel`], which is async-signal-safe.
static GLOBAL_CANCEL: AtomicU8 = AtomicU8::new(RUNNING);

/// Flips the process-global cancellation flag (the one behind
/// [`CancelToken::global`]). Performs exactly one atomic store, so it
/// is safe to call from a signal handler.
pub fn request_global_cancel() {
    GLOBAL_CANCEL.store(CANCELLED, Ordering::Release);
}

/// Resets the process-global cancellation flag. For use between runs
/// in one process (tests, batch drivers) — not from signal handlers.
pub fn reset_global_cancel() {
    GLOBAL_CANCEL.store(RUNNING, Ordering::Release);
}

#[derive(Clone, Debug)]
enum Flag {
    Shared(Arc<AtomicU8>),
    Global,
}

/// A shared cooperative cancellation flag.
///
/// Clones observe the same underlying state (`Running`, `Cancelled`
/// or `BudgetExhausted`). Cancellation wins over exhaustion: once a
/// token is cancelled, [`CancelToken::exhaust`] no longer changes it,
/// so the user's Ctrl-C is never re-labelled as a budget stop.
#[derive(Clone, Debug)]
pub struct CancelToken(Flag);

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh token in the `Running` state, independent of all
    /// others.
    pub fn new() -> CancelToken {
        CancelToken(Flag::Shared(Arc::new(AtomicU8::new(RUNNING))))
    }

    /// The process-global token, shared by every call to this
    /// function. A signal handler flips it via
    /// [`request_global_cancel`]; the CLI hands this token to engines
    /// so Ctrl-C stops them cooperatively.
    pub fn global() -> CancelToken {
        CancelToken(Flag::Global)
    }

    fn cell(&self) -> &AtomicU8 {
        match &self.0 {
            Flag::Shared(cell) => cell,
            Flag::Global => &GLOBAL_CANCEL,
        }
    }

    /// Requests cancellation (external intent: Ctrl-C, test, caller).
    pub fn cancel(&self) {
        self.cell().store(CANCELLED, Ordering::Release);
    }

    /// Requests cancellation because the party the run is serving
    /// disconnected (e.g. a `ccv serve` client dropped its socket
    /// mid-stream). Engines observe it like any other cancellation
    /// but report it as [`StopCause::Disconnected`], so a vanished
    /// client is never mislabelled as a user's Ctrl-C. An explicit
    /// [`CancelToken::cancel`] is sticky and wins over a later
    /// disconnect.
    pub fn request_cancel(&self) {
        let _ = self.cell().compare_exchange(
            RUNNING,
            DISCONNECTED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Marks the run as budget-exhausted, unless it was already
    /// cancelled (cancellation is sticky and wins).
    pub fn exhaust(&self) {
        let _ =
            self.cell()
                .compare_exchange(RUNNING, EXHAUSTED, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Returns the token to `Running`. Use between runs that share a
    /// token; racing this against an in-flight run is a logic error.
    pub fn reset(&self) {
        self.cell().store(RUNNING, Ordering::Release);
    }

    /// True if the token is in any non-`Running` state.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.cell().load(Ordering::Relaxed) != RUNNING
    }

    /// True if the token was explicitly cancelled (as opposed to
    /// budget-exhausted).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cell().load(Ordering::Relaxed) == CANCELLED
    }

    /// True if cancellation was requested because the requesting
    /// party disconnected (see [`CancelToken::request_cancel`]).
    #[inline]
    pub fn is_disconnected(&self) -> bool {
        self.cell().load(Ordering::Relaxed) == DISCONNECTED
    }
}

/// Why a run stopped before reaching a conclusive verdict.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopCause {
    /// The state / visit budget was exhausted.
    BudgetExhausted,
    /// The wall-clock deadline expired.
    DeadlineExpired,
    /// The approximate memory cap was exceeded.
    MemoryExhausted,
    /// The run was cancelled externally (Ctrl-C, caller request).
    Cancelled,
    /// A worker thread panicked; the pool drained and reported
    /// instead of deadlocking.
    WorkerPanic,
    /// The party the run was serving disconnected mid-request (a
    /// `ccv serve` client dropped its socket), so the run stopped
    /// rather than compute a result nobody will read.
    Disconnected,
}

impl StopCause {
    /// Stable snake_case name, used in metrics exports, NDJSON events
    /// and checkpoint headers.
    pub fn name(self) -> &'static str {
        match self {
            StopCause::BudgetExhausted => "budget_exhausted",
            StopCause::DeadlineExpired => "deadline_expired",
            StopCause::MemoryExhausted => "memory_exhausted",
            StopCause::Cancelled => "cancelled",
            StopCause::WorkerPanic => "worker_panic",
            StopCause::Disconnected => "disconnected",
        }
    }

    /// Human-oriented phrasing for report rendering.
    pub fn describe(self) -> &'static str {
        match self {
            StopCause::BudgetExhausted => "state budget exhausted",
            StopCause::DeadlineExpired => "wall-clock deadline expired",
            StopCause::MemoryExhausted => "memory cap exceeded",
            StopCause::Cancelled => "cancelled",
            StopCause::WorkerPanic => "worker thread panicked",
            StopCause::Disconnected => "client disconnected",
        }
    }

    fn code(self) -> u8 {
        match self {
            StopCause::BudgetExhausted => 1,
            StopCause::DeadlineExpired => 2,
            StopCause::MemoryExhausted => 3,
            StopCause::Cancelled => 4,
            StopCause::WorkerPanic => 5,
            StopCause::Disconnected => 6,
        }
    }

    fn from_code(code: u8) -> Option<StopCause> {
        Some(match code {
            1 => StopCause::BudgetExhausted,
            2 => StopCause::DeadlineExpired,
            3 => StopCause::MemoryExhausted,
            4 => StopCause::Cancelled,
            5 => StopCause::WorkerPanic,
            6 => StopCause::Disconnected,
            _ => return None,
        })
    }
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

/// Why and in what state a run stopped early. Engines attach one of
/// these to their result when they give up before the fixpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StopInfo {
    /// The first cause that tripped.
    pub cause: StopCause,
    /// Free-form detail — e.g. the panic payload of a crashed worker.
    pub detail: Option<String>,
    /// States still awaiting expansion when the run stopped.
    pub frontier: usize,
    /// Wall-clock time from engine start to the stop.
    pub elapsed: Duration,
}

impl StopInfo {
    /// A stop with no detail message.
    pub fn new(cause: StopCause, frontier: usize, elapsed: Duration) -> StopInfo {
        StopInfo {
            cause,
            detail: None,
            frontier,
            elapsed,
        }
    }

    /// One-line rendering: cause, optional detail, frontier size.
    pub fn describe(&self) -> String {
        match &self.detail {
            Some(d) => format!("{} ({d})", self.cause),
            None => self.cause.to_string(),
        }
    }
}

/// Arbitrates early stops for one engine run.
///
/// A `Governor` is cheap to construct per run. It is thread-safe:
/// parallel workers share one by reference, and the first worker to
/// observe a tripped limit records the cause for everyone
/// (first-cause-wins arbitration via one `compare_exchange`).
#[derive(Debug)]
pub struct Governor {
    start: Instant,
    deadline: Option<Duration>,
    max_bytes: Option<u64>,
    token: CancelToken,
    /// First recorded stop cause as a `StopCause::code`, 0 = none.
    cause: AtomicU8,
    /// Full polls performed (clock + memory checks), for the
    /// `budget_polls` counter.
    polls: AtomicU64,
}

impl Governor {
    /// Suggested number of rule firings between full [`Governor::poll`]
    /// calls. Between polls, [`Governor::cancelled`] (one atomic load)
    /// is cheap enough for every firing.
    pub const STRIDE: usize = 512;

    /// A governor over the given limits, started now.
    pub fn new(deadline: Option<Duration>, max_bytes: Option<u64>, token: CancelToken) -> Governor {
        Governor {
            start: Instant::now(),
            deadline,
            max_bytes,
            token,
            cause: AtomicU8::new(0),
            polls: AtomicU64::new(0),
        }
    }

    /// Cheap check: has anyone (token or a sibling worker) already
    /// requested a stop? One relaxed load; no clock read.
    #[inline]
    pub fn cancelled(&self) -> Option<StopCause> {
        if let Some(cause) = StopCause::from_code(self.cause.load(Ordering::Relaxed)) {
            return Some(cause);
        }
        if self.token.is_stopped() {
            let cause = if self.token.is_cancelled() {
                StopCause::Cancelled
            } else if self.token.is_disconnected() {
                StopCause::Disconnected
            } else {
                StopCause::BudgetExhausted
            };
            return Some(self.stop(cause));
        }
        None
    }

    /// Full poll: token, deadline and memory. `bytes` is the caller's
    /// current approximate footprint (arena + visited table). Call
    /// every [`Governor::STRIDE`] firings.
    pub fn poll(&self, bytes: u64) -> Option<StopCause> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        if let Some(cause) = self.cancelled() {
            return Some(cause);
        }
        if let Some(deadline) = self.deadline {
            if self.start.elapsed() >= deadline {
                return Some(self.stop(StopCause::DeadlineExpired));
            }
        }
        if let Some(cap) = self.max_bytes {
            if bytes > cap {
                return Some(self.stop(StopCause::MemoryExhausted));
            }
        }
        None
    }

    /// Records `cause` as the run's stop cause if none is recorded
    /// yet and returns the winning (first) cause. Sibling workers
    /// sharing this governor observe it through
    /// [`Governor::cancelled`]. The external token is deliberately
    /// left untouched: it is an *input* — a budget stop in one run
    /// must not poison later runs that reuse the same options.
    pub fn stop(&self, cause: StopCause) -> StopCause {
        match self
            .cause
            .compare_exchange(0, cause.code(), Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => cause,
            Err(prev) => StopCause::from_code(prev).unwrap_or(cause),
        }
    }

    /// The recorded stop cause, if the run stopped early.
    pub fn cause(&self) -> Option<StopCause> {
        StopCause::from_code(self.cause.load(Ordering::Acquire))
    }

    /// Wall-clock time since the governor was constructed.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Number of full polls performed so far.
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Builds the [`StopInfo`] for this run, if it stopped early.
    pub fn stop_info(&self, frontier: usize) -> Option<StopInfo> {
        self.cause()
            .map(|cause| StopInfo::new(cause, frontier, self.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_running() {
        let token = CancelToken::new();
        assert!(!token.is_stopped());
        assert!(!token.is_cancelled());
    }

    #[test]
    fn cancel_wins_over_exhaust() {
        let token = CancelToken::new();
        token.cancel();
        token.exhaust();
        assert!(token.is_cancelled());
        token.reset();
        token.exhaust();
        assert!(token.is_stopped());
        assert!(!token.is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn global_token_reflects_signal_request() {
        reset_global_cancel();
        let token = CancelToken::global();
        assert!(!token.is_stopped());
        request_global_cancel();
        assert!(token.is_cancelled());
        reset_global_cancel();
        assert!(!token.is_stopped());
    }

    #[test]
    fn governor_unbounded_never_trips() {
        let gov = Governor::new(None, None, CancelToken::new());
        assert_eq!(gov.cancelled(), None);
        assert_eq!(gov.poll(u64::MAX), None);
        assert_eq!(gov.cause(), None);
        assert_eq!(gov.polls(), 1);
        assert!(gov.stop_info(10).is_none());
    }

    #[test]
    fn governor_trips_on_memory_cap() {
        let gov = Governor::new(None, Some(1024), CancelToken::new());
        assert_eq!(gov.poll(512), None);
        assert_eq!(gov.poll(2048), Some(StopCause::MemoryExhausted));
        // First cause is sticky.
        assert_eq!(gov.cause(), Some(StopCause::MemoryExhausted));
        let info = gov.stop_info(7).expect("stopped");
        assert_eq!(info.cause, StopCause::MemoryExhausted);
        assert_eq!(info.frontier, 7);
    }

    #[test]
    fn governor_trips_on_zero_deadline() {
        let gov = Governor::new(Some(Duration::ZERO), None, CancelToken::new());
        assert_eq!(gov.poll(0), Some(StopCause::DeadlineExpired));
    }

    #[test]
    fn governor_sees_token_cancel_on_cheap_path() {
        let token = CancelToken::new();
        let gov = Governor::new(None, None, token.clone());
        assert_eq!(gov.cancelled(), None);
        token.cancel();
        assert_eq!(gov.cancelled(), Some(StopCause::Cancelled));
    }

    #[test]
    fn first_cause_wins_and_leaves_token_alone() {
        let token = CancelToken::new();
        let gov = Governor::new(None, None, token.clone());
        assert_eq!(gov.stop(StopCause::WorkerPanic), StopCause::WorkerPanic);
        assert_eq!(gov.stop(StopCause::BudgetExhausted), StopCause::WorkerPanic);
        // Sibling workers observe the stop through the governor...
        assert_eq!(gov.cancelled(), Some(StopCause::WorkerPanic));
        // ...but the external token is an input and stays running, so
        // a later run reusing the same options is not poisoned.
        assert!(!token.is_stopped());
    }

    #[test]
    fn stop_cause_names_are_stable() {
        for cause in [
            StopCause::BudgetExhausted,
            StopCause::DeadlineExpired,
            StopCause::MemoryExhausted,
            StopCause::Cancelled,
            StopCause::WorkerPanic,
            StopCause::Disconnected,
        ] {
            assert_eq!(StopCause::from_code(cause.code()), Some(cause));
            assert!(!cause.name().is_empty());
            assert!(cause
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn disconnect_maps_to_its_own_cause() {
        let token = CancelToken::new();
        let gov = Governor::new(None, None, token.clone());
        token.request_cancel();
        assert!(token.is_stopped());
        assert!(token.is_disconnected());
        assert!(!token.is_cancelled());
        assert_eq!(gov.cancelled(), Some(StopCause::Disconnected));
    }

    #[test]
    fn explicit_cancel_is_sticky_over_disconnect() {
        let token = CancelToken::new();
        token.cancel();
        token.request_cancel();
        assert!(token.is_cancelled());
        assert!(!token.is_disconnected());
    }

    #[test]
    fn stop_info_describes_detail() {
        let mut info = StopInfo::new(StopCause::WorkerPanic, 3, Duration::from_millis(5));
        assert_eq!(info.describe(), "worker thread panicked");
        info.detail = Some("boom".to_string());
        assert_eq!(info.describe(), "worker thread panicked (boom)");
    }
}
