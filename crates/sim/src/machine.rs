//! The simulated multiprocessor: private caches, an atomic snooping
//! bus, main memory and a latest-value oracle.
//!
//! The machine executes a [`Trace`] against a [`ProtocolSpec`] — the
//! *same* validated object the symbolic and enumerative verifiers
//! analyse. Every access becomes a processor event on the owning
//! cache; the resulting bus transaction is snooped by all other caches
//! exactly as the spec's snoop table dictates; data moves as the
//! spec's [`ccv_model::DataOp`] dictates, carried as monotonically
//! increasing *version stamps*.
//!
//! The **latest-value oracle** is the operational counterpart of the
//! paper's Definition 3: each store is assigned a fresh version and
//! recorded as the block's latest; every load compares the version it
//! observes against that record. A mismatch is a coherence violation —
//! verified protocols must produce none on any trace, and the buggy
//! mutants must produce some (experiment E8).

use crate::cache::Cache;
use crate::stats::Stats;
use crate::trace::{Access, AccessKind, Trace};
use ccv_model::{BusOp, DataOp, GlobalCtx, ProcEvent, ProtocolSpec, StateId};
use ccv_observe::{CommonOptions, Counter, EventSink, Phase, SinkHandle, SpanKind};
use std::collections::HashMap;
use std::sync::Arc;

/// Machine geometry and run options.
///
/// Construct via [`MachineConfig::small`] / [`MachineConfig::tiny`]
/// and refine with the builder methods; the struct is
/// `#[non_exhaustive]` so new knobs can be added compatibly.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct MachineConfig {
    /// Number of processors (= private caches).
    pub procs: usize,
    /// Sets per cache (power of two).
    pub sets: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Cross-engine options (event sink, stop-at-first-error).
    ///
    /// The budget field is unused here: a run executes exactly the
    /// trace it is given.
    pub common: CommonOptions,
}

impl MachineConfig {
    /// A small default machine: 4 processors, 64-set 2-way caches.
    pub fn small(procs: usize) -> MachineConfig {
        MachineConfig {
            procs,
            sets: 64,
            assoc: 2,
            common: CommonOptions::default(),
        }
    }

    /// A tiny machine whose caches conflict readily — useful to
    /// exercise replacements.
    pub fn tiny(procs: usize) -> MachineConfig {
        MachineConfig {
            procs,
            sets: 2,
            assoc: 1,
            common: CommonOptions::default(),
        }
    }

    /// Sets the cache geometry (sets per cache, ways per set).
    pub fn geometry(mut self, sets: usize, assoc: usize) -> MachineConfig {
        self.sets = sets;
        self.assoc = assoc;
        self
    }

    /// Stops a [`Machine::run`] at the first oracle violation.
    pub fn stop_at_first_error(mut self, stop: bool) -> MachineConfig {
        self.common.stop_at_first_error = stop;
        self
    }

    /// Attaches an event sink (phase timing, access/bus counters).
    pub fn sink(mut self, sink: impl Into<SinkHandle>) -> MachineConfig {
        self.common.sink = sink.into();
        self
    }

    /// Attaches an event sink given as a trait object.
    pub fn with_sink(self, sink: Arc<dyn EventSink>) -> MachineConfig {
        self.sink(SinkHandle::new(sink))
    }

    /// Replaces the whole cross-engine option block.
    pub fn common(mut self, common: CommonOptions) -> MachineConfig {
        self.common = common;
        self
    }
}

/// A latest-value oracle violation: a load observed a version other
/// than the most recent store to the block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoherenceViolation {
    /// Index of the access in the trace.
    pub access_index: usize,
    /// The offending access.
    pub access: Access,
    /// Version the load observed.
    pub got: u64,
    /// Version of the latest store.
    pub expected: u64,
}

/// Report of a completed run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Execution statistics.
    pub stats: Stats,
    /// Oracle violations (empty for a coherent run).
    pub violations: Vec<CoherenceViolation>,
}

impl RunReport {
    /// True iff every load returned the latest stored value.
    pub fn is_coherent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Coherence status of one block across the machine (see
/// [`Machine::snapshot_block`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSnapshot {
    /// Per-processor `(protocol state, copy holds the latest value)`.
    pub caches: Vec<(StateId, bool)>,
    /// Memory holds the latest value.
    pub memory_fresh: bool,
}

/// The simulated multiprocessor.
pub struct Machine {
    spec: ProtocolSpec,
    cfg: MachineConfig,
    caches: Vec<Cache>,
    /// Memory version per block (absent = 0, the initial value).
    memory: HashMap<u64, u64>,
    /// Oracle: latest stored version per block (absent = 0).
    latest: HashMap<u64, u64>,
    next_version: u64,
    stats: Stats,
    violations: Vec<CoherenceViolation>,
    access_index: usize,
    /// Loads compared against the oracle so far.
    oracle_checks: u64,
    /// Whether the sink wants events; cached once, since the sink is
    /// fixed at construction.
    events: bool,
}

impl Machine {
    /// Builds a machine running `spec`.
    ///
    /// # Panics
    ///
    /// The simulated bus is atomic: an access's bus transaction
    /// completes before the next access runs, so transient states can
    /// never be observed and their stall semantics would wedge the
    /// machine. Protocols with transient states are therefore
    /// rejected here; callers exposed to untrusted input must check
    /// [`ProtocolSpec::has_transients`] first.
    pub fn new(spec: ProtocolSpec, cfg: MachineConfig) -> Machine {
        assert!(cfg.procs >= 1);
        assert!(
            !spec.has_transients(),
            "protocol '{}' has transient states; the trace simulator models an atomic bus",
            spec.name()
        );
        Machine {
            events: cfg.common.sink.is_enabled(),
            caches: (0..cfg.procs)
                .map(|_| Cache::new(cfg.sets, cfg.assoc))
                .collect(),
            spec,
            cfg,
            memory: HashMap::new(),
            latest: HashMap::new(),
            next_version: 0,
            stats: Stats::default(),
            violations: Vec::new(),
            access_index: 0,
            oracle_checks: 0,
        }
    }

    /// The protocol under execution.
    pub fn spec(&self) -> &ProtocolSpec {
        &self.spec
    }

    /// Statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.cfg.procs
    }

    /// Snapshot of one block's coherence status across the machine:
    /// per-processor `(protocol state, data is latest)` plus
    /// `(memory is latest, block was ever written)`.
    ///
    /// This is the bridge to the verifiers: a snapshot translates
    /// directly into the augmented global state of Definition 4
    /// (`version == latest` ⇔ `fresh`), which lets tests certify at
    /// run time that the executing machine never leaves the family of
    /// states the symbolic engine proved reachable-and-safe
    /// (Theorem 1 as a runtime monitor).
    pub fn snapshot_block(&self, block: u64) -> BlockSnapshot {
        let latest = self.latest.get(&block).copied().unwrap_or(0);
        let caches = (0..self.cfg.procs)
            .map(|p| {
                let state = self.caches[p].state_of(block);
                let fresh = self.caches[p]
                    .lookup(block)
                    .map(|l| l.version == latest)
                    .unwrap_or(false);
                (state, fresh)
            })
            .collect();
        BlockSnapshot {
            caches,
            memory_fresh: self.mem_version(block) == latest,
        }
    }

    /// Every block the machine has touched (cached or written).
    pub fn touched_blocks(&self) -> Vec<u64> {
        let mut blocks: Vec<u64> = self.latest.keys().copied().collect();
        for c in &self.caches {
            blocks.extend(c.valid_lines().map(|l| l.block));
        }
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// Executes a whole trace and reports.
    ///
    /// With `stop_at_first_error` set in the config, execution stops
    /// after the access that produced the first oracle violation.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        assert!(
            trace.procs <= self.cfg.procs,
            "trace assumes {} processors, machine has {}",
            trace.procs,
            self.cfg.procs
        );
        let events = self.events;
        self.cfg.common.sink.phase_enter(Phase::Simulate);
        if events {
            self.cfg.common.sink.span_begin(SpanKind::WorkerBusy, 0);
        }
        let violations_before = self.violations.len();
        let accesses_before = self.stats.accesses;
        let checks_before = self.oracle_checks;
        for &a in &trace.accesses {
            self.step(a);
            if self.cfg.common.stop_at_first_error && self.violations.len() > violations_before {
                break;
            }
        }
        let sink = &self.cfg.common.sink;
        sink.count(
            Counter::Accesses,
            (self.stats.accesses - accesses_before) as u64,
        );
        sink.count(Counter::OracleChecks, self.oracle_checks - checks_before);
        if events {
            sink.span_end(SpanKind::WorkerBusy, 0);
            let new_violations = self.violations.len() - violations_before;
            if new_violations > 0 {
                sink.count(Counter::Errors, new_violations as u64);
            }
            sink.progress(&format!(
                "trace '{}': {} accesses, {} hits, {} bus ops, {} violations",
                trace.name,
                self.stats.accesses,
                self.stats.hits,
                self.stats.bus_ops.iter().sum::<usize>(),
                self.violations.len()
            ));
        }
        sink.phase_exit(Phase::Simulate);
        RunReport {
            workload: trace.name.clone(),
            stats: self.stats.clone(),
            violations: self.violations.clone(),
        }
    }

    /// The sharing-detection context observed by `proc` for `block`.
    fn context_of(&self, proc: usize, block: u64) -> GlobalCtx {
        let mut others = false;
        let mut owner = false;
        for (j, c) in self.caches.iter().enumerate() {
            if j == proc {
                continue;
            }
            let s = c.state_of(block);
            let attrs = self.spec.attrs(s);
            others |= attrs.holds_copy;
            owner |= attrs.owned;
        }
        GlobalCtx {
            others_hold_copy: others,
            owner_exists: owner,
        }
    }

    fn mem_version(&self, block: u64) -> u64 {
        self.memory.get(&block).copied().unwrap_or(0)
    }

    /// Executes one access. Its `Accesses` and `OracleChecks` counts
    /// reach the sink in the totals [`Machine::run`] reports.
    pub fn step(&mut self, access: Access) {
        let idx = self.access_index;
        self.access_index += 1;
        let proc = access.proc;
        let block = access.block;
        assert!(proc < self.cfg.procs, "access for unknown processor");

        let state = self.caches[proc].state_of(block);
        let event = match access.kind {
            AccessKind::Read => ProcEvent::Read,
            AccessKind::Write => ProcEvent::Write,
        };
        self.stats.accesses += 1;
        match access.kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        let ctx = self.context_of(proc, block);
        let outcome = self.spec.outcome(state, event, ctx);
        if self.spec.attrs(state).holds_copy {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }

        // A store mints a fresh version and becomes the block's latest.
        let store = outcome.data.is_store();
        let new_version = if store {
            self.next_version += 1;
            self.latest.insert(block, self.next_version);
            Some(self.next_version)
        } else {
            None
        };

        // Broadcast the bus transaction to every other cache.
        let wants_fill = outcome.data.is_fill();
        let mut supplier_version: Option<u64> = None;
        if let Some(bus) = outcome.bus {
            self.stats.bus_ops[bus.index()] += 1;
            if self.events {
                self.cfg.common.sink.bus_transaction(bus.mnemonic());
            }
            for j in 0..self.cfg.procs {
                if j == proc {
                    continue;
                }
                let snoop_state = self.caches[j].state_of(block);
                if snoop_state.is_invalid() {
                    continue;
                }
                let sn = self.spec.snoop(snoop_state, bus);
                let line = self.caches[j]
                    .lookup_mut(block)
                    .expect("non-invalid state implies a present line");
                let line_version = line.version;
                if sn.flushes_to_memory {
                    self.memory.insert(block, line_version);
                    self.stats.writebacks += 1;
                }
                if sn.supplies_data && wants_fill && supplier_version.is_none() {
                    // Deterministic policy: the lowest-index supplier
                    // wins the bus arbitration; one transfer per
                    // transaction regardless of how many assert.
                    self.stats.cache_supplies += 1;
                    supplier_version = Some(line_version);
                }
                let line = self.caches[j].lookup_mut(block).unwrap();
                line.state = sn.next;
                if sn.receives_update {
                    if let Some(v) = new_version {
                        line.version = v;
                        self.stats.updates_received += 1;
                    }
                }
                if sn.next.is_invalid() {
                    self.stats.invalidations += 1;
                    self.caches[j].drop_block(block);
                }
            }
        }

        // Memory effect of the originator's data operation.
        match outcome.data {
            DataOp::Write { through: true, .. } => {
                self.memory
                    .insert(block, new_version.expect("store minted a version"));
                self.stats.through_writes += 1;
            }
            DataOp::Write { .. } => {
                // Write-back: memory keeps its (now stale) version.
            }
            _ => {}
        }

        // Resolve the fill source (flushes above already updated
        // memory, matching the atomic-transaction ordering of §2.4).
        let fill_version = if outcome.data.is_fill() {
            Some(match supplier_version {
                Some(v) => v,
                None => {
                    self.stats.memory_fills += 1;
                    self.mem_version(block)
                }
            })
        } else {
            None
        };

        // The originator's own line.
        match outcome.data {
            DataOp::Read { fill } => {
                let version = if fill {
                    fill_version.expect("fill resolved")
                } else {
                    self.caches[proc]
                        .lookup(block)
                        .expect("read hit implies a line")
                        .version
                };
                self.oracle_check(idx, access, version);
                self.finish_install(proc, block, outcome.next, version);
            }
            DataOp::Write { .. } => {
                let v = new_version.expect("store minted a version");
                self.finish_install(proc, block, outcome.next, v);
            }
            DataOp::None => {
                // No data movement; still apply the state change.
                if let Some(line) = self.caches[proc].lookup_mut(block) {
                    line.state = outcome.next;
                }
            }
            DataOp::Evict { .. } => {
                unreachable!("processor accesses never carry Evict; replacements are internal")
            }
        }
    }

    /// Installs the originator's line, running the protocol `Replace`
    /// transition for any conflict victim the installation displaces.
    fn finish_install(&mut self, proc: usize, block: u64, state: StateId, version: u64) {
        if state.is_invalid() {
            self.caches[proc].drop_block(block);
            return;
        }
        if let Some(victim) = self.caches[proc].install(block, state, version) {
            self.replace_line(proc, victim.block, victim.state, victim.version);
        }
    }

    /// Runs the protocol's `Replace` event for an evicted line.
    fn replace_line(&mut self, proc: usize, block: u64, state: StateId, version: u64) {
        self.stats.evictions += 1;
        let ctx = self.context_of(proc, block);
        let outcome = self.spec.outcome(state, ProcEvent::Replace, ctx);
        if let Some(bus) = outcome.bus {
            self.stats.bus_ops[bus.index()] += 1;
            if self.events {
                self.cfg.common.sink.bus_transaction(bus.mnemonic());
            }
            debug_assert_eq!(bus, BusOp::WriteBack, "replacements only write back");
        }
        if let DataOp::Evict { writeback: true } = outcome.data {
            self.memory.insert(block, version);
            self.stats.writebacks += 1;
        }
        // The line itself was already removed by `Cache::install`.
    }

    /// Oracle check: a load must observe the latest stored version.
    fn oracle_check(&mut self, idx: usize, access: Access, got: u64) {
        self.oracle_checks += 1;
        let expected = self.latest.get(&access.block).copied().unwrap_or(0);
        if got != expected {
            if self.events {
                self.cfg.common.sink.violation(&format!(
                    "access #{idx}: proc {} read v{got} from block {}, latest write was v{expected}",
                    access.proc, access.block
                ));
            }
            self.violations.push(CoherenceViolation {
                access_index: idx,
                access,
                got,
                expected,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccv_model::protocols::{berkeley, dragon, illinois, illinois_missing_invalidation, msi};

    fn run(spec: ccv_model::ProtocolSpec, accesses: Vec<Access>, procs: usize) -> RunReport {
        let mut m = Machine::new(spec, MachineConfig::small(procs));
        m.run(&Trace::new("test", procs, accesses))
    }

    #[test]
    fn private_reads_and_writes_are_coherent() {
        let r = run(
            illinois(),
            vec![
                Access::write(0, 1),
                Access::read(0, 1),
                Access::write(0, 1),
                Access::read(0, 1),
            ],
            2,
        );
        assert!(r.is_coherent(), "{:?}", r.violations);
        assert_eq!(r.stats.misses, 1, "only the first access misses");
    }

    #[test]
    fn producer_consumer_sees_latest_value() {
        let r = run(
            illinois(),
            vec![
                Access::write(0, 7),
                Access::read(1, 7),
                Access::write(1, 7),
                Access::read(0, 7),
            ],
            2,
        );
        assert!(r.is_coherent(), "{:?}", r.violations);
    }

    #[test]
    fn illinois_read_sharing_uses_cache_to_cache_transfer() {
        let r = run(
            illinois(),
            vec![Access::read(0, 3), Access::read(1, 3), Access::read(2, 3)],
            3,
        );
        assert!(r.is_coherent());
        assert_eq!(r.stats.cache_supplies, 2, "V-Ex then Shared supply");
        assert_eq!(r.stats.memory_fills, 1, "only the first fill from memory");
    }

    #[test]
    fn msi_shared_readers_fill_from_memory() {
        let r = run(msi(), vec![Access::read(0, 3), Access::read(1, 3)], 2);
        assert!(r.is_coherent());
        assert_eq!(r.stats.memory_fills, 2, "MSI has no cache-to-cache supply");
    }

    #[test]
    fn write_invalidation_counted() {
        let r = run(
            illinois(),
            vec![Access::read(0, 3), Access::read(1, 3), Access::write(0, 3)],
            2,
        );
        assert!(r.is_coherent());
        assert_eq!(r.stats.invalidations, 1);
    }

    #[test]
    fn dragon_updates_instead_of_invalidating() {
        let r = run(
            dragon(),
            vec![
                Access::read(0, 3),
                Access::read(1, 3),
                Access::write(0, 3),
                Access::read(1, 3), // must see the broadcast value
            ],
            2,
        );
        assert!(r.is_coherent(), "{:?}", r.violations);
        assert_eq!(r.stats.invalidations, 0);
        assert_eq!(r.stats.updates_received, 1);
    }

    #[test]
    fn berkeley_owner_serves_misses_without_memory_update() {
        let r = run(
            berkeley(),
            vec![Access::write(0, 3), Access::read(1, 3), Access::read(1, 3)],
            2,
        );
        assert!(r.is_coherent(), "{:?}", r.violations);
        assert!(r.stats.cache_supplies >= 1);
    }

    #[test]
    fn conflict_evictions_write_back_dirty_data() {
        // Tiny 2-set direct-mapped cache: blocks 0 and 2 collide.
        let spec = illinois();
        let mut m = Machine::new(spec, MachineConfig::tiny(2));
        let t = Trace::new(
            "conflict",
            2,
            vec![
                Access::write(0, 0), // Dirty block 0
                Access::read(0, 2),  // evicts block 0 (write-back)
                Access::read(1, 0),  // must read the written value from memory
            ],
        );
        let r = m.run(&t);
        assert!(r.is_coherent(), "{:?}", r.violations);
        assert!(r.stats.evictions >= 1);
        assert!(r.stats.writebacks >= 1);
    }

    #[test]
    fn buggy_protocol_violates_the_oracle() {
        let r = run(
            illinois_missing_invalidation(),
            vec![
                Access::read(0, 3),
                Access::read(1, 3),
                Access::write(0, 3), // cache 1 keeps its stale copy
                Access::read(1, 3),  // stale read
            ],
            2,
        );
        assert!(!r.is_coherent(), "the seeded bug must surface");
        assert_eq!(r.violations[0].access, Access::read(1, 3));
    }

    #[test]
    fn stats_accumulate_over_runs() {
        let mut m = Machine::new(illinois(), MachineConfig::small(2));
        m.run(&Trace::new("a", 2, vec![Access::read(0, 1)]));
        let r2 = m.run(&Trace::new("b", 2, vec![Access::read(1, 1)]));
        assert_eq!(r2.stats.accesses, 2);
    }
}
