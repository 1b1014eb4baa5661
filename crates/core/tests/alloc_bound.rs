//! Pins the steady-state allocation behaviour of the symbolic engine.
//!
//! The interned-arena refactor rebuilt the expansion around inline
//! class storage ([`ccv_core::small`]), reusable scratch buffers and a
//! recycled arena, so that a *warm* engine touches the allocator only
//! where state genuinely grows (new distinct composites, new nodes).
//! Two pins:
//!
//! * the successor kernel (`successors_into` with warm scratch) is
//!   **allocation-free** — classes stay inline and every intermediate
//!   buffer is reused;
//! * a warm full expansion stays under a small allocation budget per
//!   generated successor.
//!
//! Allocations are counted per thread, so the two tests can run on
//! parallel test threads without seeing each other's allocations.
//!
//! (This lives in an integration test because the library itself is
//! `#![forbid(unsafe_code)]`; implementing `GlobalAlloc` requires
//! `unsafe` and belongs in a separate compilation unit.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ccv_core::{
    expand_with, run_expansion, successors_into, Composite, EngineScratch, ExpandScratch, Options,
    Transition,
};
use ccv_model::protocols;

struct CountingAlloc;

thread_local! {
    // `const`-initialised, so touching it from inside the allocator
    // never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn warm_successor_kernel_is_allocation_free() {
    // Dragon has the largest class space in the library (7 states ×
    // 3 data tags); if its composites stay inline, every protocol's do.
    let spec = protocols::dragon();
    let exp = run_expansion(&spec, &Options::default());
    let essential: Vec<Composite> = exp.essential_states().into_iter().cloned().collect();
    assert!(essential.len() >= 7);

    // Cold phase: warm the scratch and the output buffer.
    let mut scratch = ExpandScratch::new();
    let mut out: Vec<Transition> = Vec::new();
    for s in &essential {
        successors_into(&spec, s, &mut scratch, &mut out);
    }

    // Hot phase: repeated full passes over the essential set.
    let before = allocations();
    let mut generated = 0usize;
    for _ in 0..100 {
        for s in &essential {
            successors_into(&spec, s, &mut scratch, &mut out);
            generated += out.len();
        }
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "successor kernel allocated on the hot path ({} allocations over {} successors)",
        after - before,
        generated
    );
    assert!(generated > 1000, "kernel pass did no work");
}

#[test]
fn warm_expansion_stays_under_the_per_step_allocation_budget() {
    let spec = protocols::dragon();
    let opts = Options::default();

    // Cold run warms the scratch (index buckets, successor buffers)
    // and donates its arena back to the pool.
    let mut scratch = EngineScratch::new();
    let cold = expand_with(&spec, Composite::initial(&spec), &opts, &mut scratch);
    scratch.recycle(cold);

    let before = allocations();
    let warm = expand_with(&spec, Composite::initial(&spec), &opts, &mut scratch);
    let after = allocations();

    assert!(warm.is_clean());
    let steps = warm.successors as u64;
    let allocs = after - before;
    // Steady state, the engine allocates only for genuinely new state:
    // intern buckets, node bookkeeping and result vectors. Two
    // allocations per generated successor is comfortable headroom over
    // the measured value; a regression that reintroduces per-step
    // cloning (class vectors, successor lists, eager error vectors)
    // blows well past it.
    assert!(
        allocs <= 2 * steps,
        "warm expansion allocated {allocs} times over {steps} successor steps"
    );
}
