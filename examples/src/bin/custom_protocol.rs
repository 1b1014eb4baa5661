//! Designing a new protocol against the verifier.
//!
//! Builds a protocol that is *not* in the library — a minimal
//! write-through protocol with two states (`Invalid`, `Valid`) where
//! every store is written through to memory and broadcast as an
//! invalidation — and walks the designer's loop:
//!
//! 1. write the spec with [`SpecBuilder`] (the builder statically
//!    rejects malformed tables);
//! 2. run the symbolic verifier;
//! 3. deliberately re-introduce a classic mistake (forgetting that
//!    snoopers must invalidate on a remote write) and watch the
//!    verifier produce a counterexample.
//!
//! Run: `cargo run -p ccv-examples --bin custom_protocol`

use ccv_core::{global_graph, verify, Verdict};
use ccv_model::{
    BusOp, DataOp, Outcome, ProcEvent, ProtocolSpec, SnoopOutcome, SpecBuilder, StateAttrs,
};

/// A minimal write-through invalidate protocol.
///
/// * Read miss loads `Valid` from memory (memory is always fresh in a
///   write-through design).
/// * Every write — hit or miss — updates memory and invalidates every
///   other copy.
fn write_through() -> ProtocolSpec {
    let mut b = SpecBuilder::new("Write-Through");
    let inv = b.state("Invalid", "Inv", StateAttrs::INVALID);
    let v = b.state("Valid", "V", StateAttrs::SHARED_CLEAN);

    b.on(inv, ProcEvent::Read, Outcome::read_miss(v));
    // A write miss allocates, writes through and invalidates.
    b.on(
        inv,
        ProcEvent::Write,
        Outcome {
            next: v,
            bus: Some(BusOp::ReadX),
            data: DataOp::Write {
                fill: true,
                through: true,
                broadcast: false,
            },
        },
    );
    b.on(inv, ProcEvent::Replace, Outcome::evict_clean(inv));

    b.on(v, ProcEvent::Read, Outcome::read_hit(v));
    // A write hit writes through and invalidates remote copies.
    b.on(
        v,
        ProcEvent::Write,
        Outcome::write_hit_through_invalidate(v),
    );
    b.on(v, ProcEvent::Replace, Outcome::evict_clean(inv)); // always clean

    // Snoop reactions: remote writes kill the local copy.
    b.snoop(v, BusOp::ReadX, SnoopOutcome::to(inv));
    b.snoop(v, BusOp::Upgrade, SnoopOutcome::to(inv));
    b.snoop(v, BusOp::Read, SnoopOutcome::to(v)); // memory supplies

    b.build().expect("well-formed spec")
}

fn main() {
    // --- The correct design --------------------------------------------
    let spec = write_through();
    let report = verify(&spec);
    println!("[1] verifying {} ...", spec.name());
    println!(
        "    verdict: {} ({} essential states, {} visits)",
        report.verdict,
        report.num_essential(),
        report.visits()
    );
    for (i, s) in global_graph(&spec, &report.expansion)
        .states
        .iter()
        .enumerate()
    {
        println!("      s{i}: {}", s.render(&spec));
    }
    assert_eq!(report.verdict, Verdict::Verified);

    // --- The classic mistake --------------------------------------------
    // "Snoopers don't need to do anything on a remote write, memory is
    // up to date anyway" — wrong: their *cached* copy goes stale.
    let v = spec.state_by_name("Valid").unwrap();
    let broken = spec
        .clone()
        .override_snoop(v, BusOp::Upgrade, SnoopOutcome::ignore(v))
        .renamed("Write-Through/no-invalidate");
    let report = verify(&broken);
    println!("\n[2] verifying {} ...", broken.name());
    println!("    verdict: {}", report.verdict);
    assert_eq!(report.verdict, Verdict::Erroneous);
    let finding = &report.expansion.errors[0];
    println!("    finding: {}", finding.descriptions(&broken).join("; "));
    let path = report.expansion.render_path(&broken, finding.node);
    println!("    counterexample:\n      {path}");

    println!("\nThe verifier caught the stale-copy bug with a concrete scenario.");
}
