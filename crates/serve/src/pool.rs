//! Connection handlers: a capped set of threads, reused.
//!
//! The accept loop hands each accepted connection to the handler that
//! went idle most recently (a LIFO stack of parked handlers, each with
//! its own hand-off slot), so a closed loop of clients keeps reusing
//! the same few threads. A new handler starts only when none is idle
//! and fewer than the cap are alive. At the cap the accept loop waits
//! for a handler to park, and new connections queue in the kernel's
//! listen backlog meanwhile.
//!
//! The cap is `2 × (workers + queue_depth)`. Admission lets at most
//! `workers + queue_depth` requests hold a handler through an engine
//! run, so cache hits, errors and `/v1/metrics` always keep at least as
//! many handlers again.
//!
//! [`Pool::drain`] ends the pool: parked handlers exit at once, and
//! busy ones have their run cancelled, write their response and exit.
//! A connection's I/O is bounded ([`conn::IO_TIMEOUT`]), so a client
//! that is silent, trickles its request or stops reading holds a
//! handler for a bounded time, and cannot hold up the drain.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{Builder, JoinHandle};

use ccv_observe::{CancelToken, Json};

use crate::{conn, Service, ACCEPT_ERROR_BACKOFF, WAKE_POLL};

/// The `connections` group of `/v1/metrics`. The pool updates these
/// atomics as it changes its own state; reading them takes no lock.
pub(crate) struct Counters {
    cap: usize,
    accepted: AtomicU64,
    handlers: AtomicU64,
    idle: AtomicU64,
    cap_waits: AtomicU64,
}

impl Counters {
    /// Counters for a server with this admission gate, whose cap is
    /// `2 × (workers + queue_depth)`. Admission floors `workers` at 1,
    /// so the cap is at least 2.
    pub(crate) fn new(workers: usize, queue_depth: usize) -> Counters {
        Counters {
            cap: 2 * (workers.max(1) + queue_depth),
            accepted: AtomicU64::new(0),
            handlers: AtomicU64::new(0),
            idle: AtomicU64::new(0),
            cap_waits: AtomicU64::new(0),
        }
    }

    fn set_handlers(&self, alive: usize) {
        self.handlers.store(alive as u64, Ordering::Relaxed);
    }

    /// Counts one connection returned by `accept`.
    pub(crate) fn accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn json(&self) -> Json {
        let load = |c: &AtomicU64| Json::int(c.load(Ordering::Relaxed));
        Json::Obj(vec![
            ("accepted".into(), load(&self.accepted)),
            ("handlers".into(), load(&self.handlers)),
            ("idle".into(), load(&self.idle)),
            ("cap".into(), Json::int(self.cap as u64)),
            ("cap_waits".into(), load(&self.cap_waits)),
        ])
    }
}

/// What the accept loop has handed one handler.
struct Handoff {
    /// A connection not yet taken.
    next: Option<TcpStream>,
    /// The cancel token of the connection handed over last; the drain
    /// cancels it.
    cancel: CancelToken,
    /// Set by the drain: exit instead of waiting for more.
    exit: bool,
}

/// One handler's hand-off slot.
struct Slot {
    handoff: Mutex<Handoff>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            handoff: Mutex::new(Handoff {
                next: None,
                cancel: CancelToken::new(),
                exit: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Handoff> {
        self.handoff.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Hands over a connection with a fresh cancel token. The token is
    /// made here, not by the handler, so a drain that comes before the
    /// handler takes the connection still cancels its run.
    fn give(&self, stream: TcpStream) {
        let mut h = self.lock();
        h.next = Some(stream);
        h.cancel = CancelToken::new();
        self.ready.notify_one();
    }

    /// Waits for the next connection; `None` once told to exit.
    fn take(&self) -> Option<(TcpStream, CancelToken)> {
        let mut h = self.lock();
        loop {
            if let Some(stream) = h.next.take() {
                return Some((stream, h.cancel.clone()));
            }
            if h.exit {
                return None;
            }
            h = self.ready.wait(h).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Cancels the run in progress, if any, and tells the handler to
    /// exit once its connection is done.
    fn stop(&self) {
        let mut h = self.lock();
        h.exit = true;
        h.cancel.cancel();
        self.ready.notify_one();
    }
}

struct State {
    /// Parked handlers; the one that parked last is on top.
    idle: Vec<Arc<Slot>>,
    /// Every handler started and not yet joined. A handler that
    /// panicked is forgotten when the accept loop next looks for room.
    started: Vec<(Arc<Slot>, JoinHandle<()>)>,
    /// Set by the drain: handlers exit instead of parking.
    closing: bool,
}

/// The connection handlers of one [`crate::Server::run`].
pub(crate) struct Pool {
    service: Arc<Service>,
    state: Mutex<State>,
    /// Signalled when a handler parks, for an accept loop waiting at
    /// the cap.
    freed: Condvar,
}

impl Pool {
    pub(crate) fn new(service: Arc<Service>) -> Arc<Pool> {
        let cap = service.connections.cap;
        Arc::new(Pool {
            service,
            state: Mutex::new(State {
                idle: Vec::with_capacity(cap),
                started: Vec::with_capacity(cap),
                closing: false,
            }),
            freed: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn counters(&self) -> &Counters {
        &self.service.connections
    }

    /// Hands an accepted connection to the handler that parked last,
    /// else to a new handler while fewer than the cap are alive, else
    /// to the first handler to park. The connection is dropped unserved
    /// only when `stopping` turns true during a wait, or when no
    /// handler is alive and none can be started.
    pub(crate) fn dispatch(self: &Arc<Pool>, mut stream: TcpStream, stopping: impl Fn() -> bool) {
        let counters = self.counters();
        let mut state = self.lock();
        let mut waited = false;
        loop {
            if let Some(slot) = state.idle.pop() {
                counters.idle.fetch_sub(1, Ordering::Relaxed);
                drop(state);
                slot.give(stream);
                return;
            }
            state.started.retain(|(_, t)| !t.is_finished());
            if state.started.len() < counters.cap {
                match self.start(stream) {
                    Ok(handler) => {
                        state.started.push(handler);
                        counters.set_handlers(state.started.len());
                        return;
                    }
                    // The OS refused a thread: wait for a live handler
                    // to park. With none alive, none will: drop the
                    // connection and back off, as for a failed `accept`.
                    Err(back) if !state.started.is_empty() => stream = back,
                    Err(_) => {
                        counters.set_handlers(0);
                        drop(state);
                        std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                        return;
                    }
                }
            } else if !waited {
                waited = true;
                counters.cap_waits.fetch_add(1, Ordering::Relaxed);
            }
            counters.set_handlers(state.started.len());
            state = self
                .freed
                .wait_timeout(state, WAKE_POLL)
                .unwrap_or_else(|p| p.into_inner())
                .0;
            if stopping() {
                return;
            }
        }
    }

    /// Starts a handler serving `stream`. If the OS refuses the
    /// thread, the stream comes back.
    fn start(
        self: &Arc<Pool>,
        stream: TcpStream,
    ) -> Result<(Arc<Slot>, JoinHandle<()>), TcpStream> {
        let slot = Arc::new(Slot::new());
        let thread = Builder::new().name("ccv-serve-conn".into()).spawn({
            let pool = Arc::clone(self);
            let slot = Arc::clone(&slot);
            move || handler(pool, slot)
        });
        let Ok(thread) = thread else {
            return Err(stream);
        };
        slot.give(stream);
        Ok((slot, thread))
    }

    /// Puts a handler that finished a connection back on the idle
    /// stack. `false` once the pool is draining: the handler exits.
    fn park(&self, slot: &Arc<Slot>) -> bool {
        let mut state = self.lock();
        if state.closing {
            return false;
        }
        state.idle.push(Arc::clone(slot));
        self.counters().idle.fetch_add(1, Ordering::Relaxed);
        self.freed.notify_one();
        true
    }

    /// Ends the pool and joins every handler. Parked handlers exit at
    /// once. A busy handler has its run cancelled (the engine stops at
    /// its next poll and answers INCONCLUSIVE), writes its response and
    /// exits. Every read and write of a connection ends within
    /// [`conn::IO_TIMEOUT`], so no client can hold the drain up for
    /// longer.
    pub(crate) fn drain(&self) {
        let started = {
            let mut state = self.lock();
            state.closing = true;
            self.counters()
                .idle
                .fetch_sub(state.idle.len() as u64, Ordering::Relaxed);
            state.idle.clear();
            std::mem::take(&mut state.started)
        };
        for (slot, _) in &started {
            slot.stop();
        }
        for (_, thread) in started {
            let _ = thread.join();
        }
        self.counters().set_handlers(0);
    }
}

/// One handler thread: serve the connections handed over, parking
/// between them, until the drain.
fn handler(pool: Arc<Pool>, slot: Arc<Slot>) {
    while let Some((stream, cancel)) = slot.take() {
        conn::handle_connection(&pool.service, stream, cancel);
        if !pool.park(&slot) {
            return;
        }
    }
}
