//! Runtime certification: the executing machine never leaves the
//! verified state families.
//!
//! Theorem 1 says the symbolic essential states cover everything the
//! FSM model can reach. The trace simulator is an *implementation* of
//! that model (caches, bus arbitration, LRU replacement, version-
//! stamped data); if the implementation is faithful, then at every
//! instant, for every block, the machine's per-block coherence
//! snapshot must lie inside some essential family. This suite runs the
//! monitor after every access of real workloads — a much stronger
//! faithfulness check than the latest-value oracle alone, because it
//! checks the *states*, not just the observable reads.

use ccv_core::{concrete_covered_by, run_expansion, Composite, Options};
use ccv_enum::PackedState;
use ccv_model::{protocols, CData, MData, ProtocolSpec, StateId};
use ccv_sim::{BlockSnapshot, Machine, MachineConfig, Trace, WorkloadParams};

/// Converts a [`BlockSnapshot`] into the packed augmented global state
/// of Definition 4.
fn snapshot_to_packed(snap: &BlockSnapshot) -> PackedState {
    let mut gs = PackedState::INITIAL.with_mdata(if snap.memory_fresh {
        MData::Fresh
    } else {
        MData::Obsolete
    });
    for (i, &(state, fresh)) in snap.caches.iter().enumerate() {
        gs = gs.with_state(i, state);
        let cd = if state == StateId::INVALID {
            CData::NoData
        } else if fresh {
            CData::Fresh
        } else {
            CData::Obsolete
        };
        gs = gs.with_cdata(i, cd);
    }
    gs
}

/// Runs `trace` on `spec`, asserting after every access that every
/// touched block's snapshot is covered by an essential state.
fn certify(spec: &ProtocolSpec, trace: &Trace, cfg: MachineConfig, essential: &[&Composite]) {
    let mut machine = Machine::new(spec.clone(), cfg);
    for (i, &a) in trace.accesses.iter().enumerate() {
        machine.step(a);
        for block in machine.touched_blocks() {
            let snap = machine.snapshot_block(block);
            let gs = snapshot_to_packed(&snap);
            let covered = essential
                .iter()
                .any(|c| concrete_covered_by(spec, gs, machine.procs(), c));
            assert!(
                covered,
                "{}: after access {i} ({a}), block {block} left the verified \
                 families: {}",
                spec.name(),
                gs.render(machine.procs(), spec)
            );
        }
    }
}

fn workload_params(accesses: usize, seed: u64) -> WorkloadParams {
    let mut p = WorkloadParams::new(3);
    p.accesses = accesses;
    p.blocks = 8;
    p.seed = seed;
    p
}

#[test]
fn every_protocol_stays_inside_its_essential_families() {
    for spec in protocols::all_correct() {
        let exp = run_expansion(&spec, &Options::default());
        let essential = exp.essential_states();
        let p = workload_params(2_000, 11);
        for trace in ccv_sim::all_workloads(&p) {
            certify(&spec, &trace, MachineConfig::small(3), &essential);
        }
    }
}

#[test]
fn certification_holds_under_eviction_pressure() {
    for spec in protocols::all_correct() {
        let exp = run_expansion(&spec, &Options::default());
        let essential = exp.essential_states();
        let p = workload_params(2_000, 13);
        for trace in ccv_sim::all_workloads(&p) {
            certify(&spec, &trace, MachineConfig::tiny(3), &essential);
        }
    }
}

#[test]
fn buggy_machines_escape_the_verified_families() {
    // The converse: a machine running a mutant must, at some point,
    // leave the *correct* protocol's essential families (using the
    // parent protocol's states for comparison).
    use ccv_model::protocols::illinois_missing_invalidation;
    let correct = protocols::illinois();
    let exp = run_expansion(&correct, &Options::default());
    let essential = exp.essential_states();

    let buggy = illinois_missing_invalidation();
    let p = workload_params(5_000, 17);
    let trace = ccv_sim::workload::hot_block(&p);
    let mut machine = Machine::new(buggy.clone(), MachineConfig::small(3));
    let mut escaped = false;
    for &a in &trace.accesses {
        machine.step(a);
        for block in machine.touched_blocks() {
            let gs = snapshot_to_packed(&machine.snapshot_block(block));
            if !essential
                .iter()
                .any(|c| concrete_covered_by(&buggy, gs, machine.procs(), c))
            {
                escaped = true;
            }
        }
        if escaped {
            break;
        }
    }
    assert!(escaped, "the mutant's run never left the verified families");
}

#[test]
fn snapshot_translation_is_faithful() {
    // Spot-check the snapshot → packed-state translation on a scripted
    // scenario.
    use ccv_sim::Access;
    let spec = protocols::illinois();
    let mut m = Machine::new(spec.clone(), MachineConfig::small(2));
    m.step(Access::write(0, 5));
    let gs = snapshot_to_packed(&m.snapshot_block(5));
    let dirty = spec.state_by_name("Dirty").unwrap();
    assert_eq!(gs.state(0), dirty);
    assert_eq!(gs.cdata(0), CData::Fresh);
    assert_eq!(gs.state(1), StateId::INVALID);
    assert_eq!(gs.mdata(), MData::Obsolete);

    m.step(Access::read(1, 5));
    let gs = snapshot_to_packed(&m.snapshot_block(5));
    let shared = spec.state_by_name("Shared").unwrap();
    assert_eq!(gs.state(0), shared);
    assert_eq!(gs.state(1), shared);
    assert_eq!(gs.mdata(), MData::Fresh, "Dirty flushed on the remote read");
}

#[test]
fn untouched_blocks_are_trivially_covered() {
    let spec = protocols::illinois();
    let exp = run_expansion(&spec, &Options::default());
    let essential = exp.essential_states();
    let m = Machine::new(spec.clone(), MachineConfig::small(2));
    // No accesses: (Inv⁺) with fresh memory must be covered (it is the
    // initial essential state).
    let gs = snapshot_to_packed(&m.snapshot_block(0));
    assert!(essential
        .iter()
        .any(|c| concrete_covered_by(&spec, gs, 2, c)));
}
