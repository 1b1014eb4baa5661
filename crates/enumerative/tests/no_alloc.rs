//! Pins the allocation-freedom of the enumeration kernel.
//!
//! The successor kernel (`successors_into`), the violation fast path
//! (`is_violating`) and counting canonicalisation (`canonical`) run
//! millions of times per enumeration; PR 2 rebuilt them around
//! fixed-capacity stack storage and a packed error mask precisely so
//! that the hot loop never touches the allocator. This test installs a
//! counting `GlobalAlloc` and asserts that a warm kernel pass over an
//! entire reachable state space performs **zero** heap allocations.
//! Only the allocations of the thread running the pass are counted:
//! the test harness's own threads allocate at times of their choosing.
//!
//! (This lives in an integration test because the library itself is
//! `#![forbid(unsafe_code)]`; implementing `GlobalAlloc` requires
//! `unsafe` and belongs in a separate compilation unit.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ccv_enum::{is_violating, reachable_states, successors_into, ConcreteStep};
use ccv_model::protocols;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn warm_kernel_pass_performs_zero_allocations() {
    let spec = protocols::dragon();
    let n = 8;

    // Cold phase: collect the space and warm the successor buffer.
    // Allocations here are expected and uncounted.
    let states = reachable_states(&spec, n, 1 << 20);
    assert!(states.len() > 1000, "state space unexpectedly small");
    let mut buf: Vec<ConcreteStep> = Vec::with_capacity(1024);

    // Hot phase: one full kernel pass over every reachable state.
    COUNTED.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut violations = 0usize;
    let mut successors = 0usize;
    let mut canon_acc = 0u128;
    for &gs in &states {
        buf.clear();
        successors_into(&spec, gs, n, &mut buf);
        successors += buf.len();
        for s in &buf {
            if is_violating(&spec, s.to, n) {
                violations += 1;
            }
            canon_acc ^= s.to.canonical(n).0;
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTED.with(|c| c.set(false));

    assert_eq!(
        after - before,
        0,
        "kernel allocated on the hot path ({} allocations over {} states)",
        after - before,
        states.len()
    );
    // Sanity: the pass did real work and the compiler kept it.
    assert!(successors > states.len());
    assert_eq!(violations, 0, "Dragon is a correct protocol");
    std::hint::black_box(canon_acc);
}
