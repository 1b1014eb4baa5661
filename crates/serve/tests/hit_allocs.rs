//! Pins the heap allocations of a verdict-cache hit.
//!
//! A repeated `ccv serve` request is parsed and admitted, then found by
//! its source key (the admitted request as submitted) in the verdict
//! cache's alias index, which hands back the stored body; the protocol
//! is not resolved, fingerprinted or run. The allocation count of that
//! path is deterministic where its wall time on a shared host is not,
//! so this test installs a counting `GlobalAlloc` and bounds the
//! allocations per hit of [`Service::process_text`] for name and DSL
//! requests of Illinois and split-MESI. Only the allocations of the
//! thread running the hits are counted.
//!
//! (This lives in its own test binary because a `#[global_allocator]`
//! applies to everything linked into it.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ccv_core::api::{ProtocolSource, Request, RunContext};
use ccv_serve::{ServerConfig, Service};

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

/// The allocations of one hit of `text`, averaged over a run of warm
/// hits on a service that has already answered it once.
fn allocations_per_hit(text: &str) -> u64 {
    const HITS: u64 = 50;
    let service = Service::new(ServerConfig::loopback());
    let ctx = RunContext::default();
    let first = service.process_text(text, &ctx);
    assert_eq!(first.code, None, "{}", first.body);
    assert!(service.process_text(text, &ctx).cached, "not a hit");

    COUNTED.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut cached = 0;
    for _ in 0..HITS {
        cached += u64::from(service.process_text(text, &ctx).cached);
    }
    let total = ALLOCATIONS.load(Ordering::SeqCst) - before;
    COUNTED.with(|c| c.set(false));
    assert_eq!(cached, HITS, "every warm request must hit");
    total.div_ceil(HITS)
}

#[test]
fn a_cache_hit_allocates_at_most_its_pinned_count() {
    let dsl = |file: &str| {
        let path = format!("{}/../../protocols/{file}", env!("CARGO_MANIFEST_DIR"));
        ProtocolSource::Dsl(std::fs::read_to_string(path).expect("corpus file"))
    };
    // Bounds: the counts measured when they were pinned, the same in
    // debug and release builds. A change that lowers one should lower
    // its bound with it.
    let name = |name: &str| ProtocolSource::Name(name.into());
    let cases = [
        ("name illinois", name("illinois"), 13),
        ("name split-mesi", name("split-mesi"), 13),
        ("DSL illinois.ccv", dsl("illinois.ccv"), 18),
        ("DSL split-mesi.ccv", dsl("split-mesi.ccv"), 18),
    ];
    let mut over = Vec::new();
    for (what, source, bound) in cases {
        let text = Request::verify(source).to_json().render_compact();
        let per_hit = allocations_per_hit(&text);
        eprintln!("{what}: {per_hit} allocations per hit (bound {bound})");
        if per_hit > bound {
            over.push(format!("{what}: {per_hit} > {bound}"));
        }
    }
    assert!(
        over.is_empty(),
        "allocations per hit above their bounds: {over:?}"
    );
}
