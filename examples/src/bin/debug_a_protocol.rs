//! Debugging workflow: from counterexample to fix.
//!
//! Starts from the `Illinois/dirty-no-flush-on-read` mutant — a
//! subtle, *delayed* bug: the Dirty snooper supplies a remote read
//! miss correctly but forgets the simultaneous memory update the
//! Illinois protocol requires. Nothing is wrong immediately; the
//! system only fails several transitions later, when the last fresh
//! copy is silently replaced and a fill is served from the stale
//! memory.
//!
//! The example shows the debugging loop a protocol designer would run:
//!
//! 1. verify → get a minimal symbolic counterexample;
//! 2. read the path to localise the faulty transition;
//! 3. confirm the diagnosis by replaying the scenario on the trace
//!    simulator with a concrete trace derived from the path;
//! 4. apply the fix (restore the flush) and re-verify.
//!
//! Run: `cargo run -p ccv-examples --bin debug_a_protocol`

use ccv_core::{verify, Verdict};
use ccv_model::protocols::{illinois, illinois_dirty_no_flush_on_read};
use ccv_model::{BusOp, SnoopOutcome};
use ccv_sim::{Access, Machine, MachineConfig, Trace};

fn main() {
    // --- 1. Verification finds the bug -----------------------------------
    let broken = illinois_dirty_no_flush_on_read();
    println!("[1] verifying {} ...", broken.name());
    let report = verify(&broken);
    assert_eq!(report.verdict, Verdict::Erroneous);
    let finding = &report.expansion.errors[0];
    println!("    verdict : {}", report.verdict);
    println!("    finding : {}", finding.descriptions(&broken).join("; "));
    let path = report.expansion.render_path(&broken, finding.node);
    println!("    path    : {path}");

    // --- 2. Localise -------------------------------------------------------
    println!("\n[2] reading the counterexample:");
    println!("    W_inv  : a write miss leaves one Dirty copy, memory stale;");
    println!("    R_inv  : a remote read miss is served cache-to-cache, but");
    println!("             (the bug) memory is NOT updated -> all copies Shared,");
    println!("             memory still stale;");
    println!("    Z x2   : the Shared copies are clean, so they are replaced");
    println!("             silently -> no cached copy, memory stale;");
    println!("    R_inv  : the next read miss fills from stale memory. BUG.");

    // --- 3. Reproduce on the executable machine ----------------------------
    println!("\n[3] replaying the scenario on the trace simulator:");
    // A tiny direct-mapped cache so reads of block 2 evict block 0.
    let mut m = Machine::new(broken.clone(), MachineConfig::tiny(2));
    let trace = Trace::new(
        "counterexample",
        2,
        vec![
            Access::write(0, 0), // Dirty in P0, memory stale
            Access::read(1, 0),  // served by P0; memory SHOULD be updated
            Access::read(0, 2),  // evicts P0's clean Shared copy of 0
            Access::read(1, 2),  // evicts P1's clean Shared copy of 0
            Access::read(0, 0),  // fills from stale memory -> stale read
        ],
    );
    let r = m.run(&trace);
    assert!(!r.is_coherent(), "the replay must trip the oracle");
    let v = &r.violations[0];
    println!(
        "    oracle violation at access {} ({}): read version {} but latest is {}",
        v.access_index, v.access, v.got, v.expected
    );

    // --- 4. Fix and re-verify ------------------------------------------------
    println!("\n[4] applying the fix (Dirty snooper supplies AND flushes) ...");
    let d = broken.state_by_name("Dirty").unwrap();
    let sh = broken.state_by_name("Shared").unwrap();
    let fixed = broken
        .override_snoop(d, BusOp::Read, SnoopOutcome::supply_and_flush(sh))
        .renamed("Illinois/fixed");
    let report = verify(&fixed);
    println!("    verdict : {}", report.verdict);
    assert_eq!(report.verdict, Verdict::Verified);

    // The fixed protocol is exactly Illinois again.
    let reference = verify(&illinois());
    assert_eq!(report.num_essential(), reference.num_essential());
    println!(
        "\nfixed protocol verifies with the same {} essential states as Illinois. ∎",
        report.num_essential()
    );
}
