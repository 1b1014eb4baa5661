//! Protocol specifications: the FSM `M = (Q, Σ, F, δ)` as data.
//!
//! A [`ProtocolSpec`] is a complete, validated, table-driven description
//! of a snooping cache coherence protocol:
//!
//! * the state symbols `Q` with their semantic attributes,
//! * the characteristic function `F` (null or sharing-detection),
//! * the transition function `δ : F × Q × Σ → Q` in the form of a dense
//!   *processor-outcome* table — for each (state, event, global context)
//!   the originator's next state, the bus transaction it emits, and the
//!   declarative data movement ([`DataOp`]),
//! * the *snoop* table — for each (state, bus op) the coincident
//!   reaction of every other cache ([`SnoopOutcome`]).
//!
//! One spec object drives all three engines in this repository: the
//! symbolic verifier (`ccv-core`), the explicit-state enumerator
//! (`ccv-enum`) and the trace simulator (`ccv-sim`). The object that is
//! proved correct is the object that is executed.
//!
//! Specs are constructed through [`SpecBuilder`], which statically
//! validates well-formedness: complete tables, null-`F` protocols truly
//! context-independent, data movement consistent with bus usage, and the
//! local FSM strongly connected (Definition 1 requires it).

use crate::bus::{BusOp, SnoopOutcome};
use crate::connectivity::strongly_connected;
use crate::context::{Characteristic, GlobalCtx};
use crate::data::{CData, DataOp};
use crate::event::ProcEvent;
use crate::state::{StateAttrs, StateId, StateInfo};
use core::fmt;

/// The originator-side result of applying a processor event to a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Outcome {
    /// The originating cache's next state.
    pub next: StateId,
    /// The bus transaction broadcast to all other caches (and memory),
    /// or `None` for a silent (purely local) transition.
    pub bus: Option<BusOp>,
    /// Declarative description of the data movement.
    pub data: DataOp,
}

impl Outcome {
    /// A silent transition to `next` with no data movement.
    pub const fn silent(next: StateId) -> Outcome {
        Outcome {
            next,
            bus: None,
            data: DataOp::None,
        }
    }

    /// A transition to `next` emitting `bus`.
    pub const fn with_bus(next: StateId, bus: BusOp) -> Outcome {
        Outcome {
            next,
            bus: Some(bus),
            data: DataOp::None,
        }
    }

    /// Sets the data operation (chainable).
    pub const fn data(mut self, data: DataOp) -> Outcome {
        self.data = data;
        self
    }

    /// A read hit: stay (or move) silently, observing the local value.
    pub const fn read_hit(next: StateId) -> Outcome {
        Outcome {
            next,
            bus: None,
            data: DataOp::Read { fill: false },
        }
    }

    /// A read miss filling from the bus via `BusRd`.
    pub const fn read_miss(next: StateId) -> Outcome {
        Outcome {
            next,
            bus: Some(BusOp::Read),
            data: DataOp::Read { fill: true },
        }
    }

    /// A silent write hit (the copy is already writable).
    pub const fn write_hit_silent(next: StateId) -> Outcome {
        Outcome {
            next,
            bus: None,
            data: DataOp::Write {
                fill: false,
                through: false,
                broadcast: false,
            },
        }
    }

    /// A write hit that invalidates remote copies via `BusUpgr`.
    pub const fn write_hit_invalidate(next: StateId) -> Outcome {
        Outcome {
            next,
            bus: Some(BusOp::Upgrade),
            data: DataOp::Write {
                fill: false,
                through: false,
                broadcast: false,
            },
        }
    }

    /// A write miss: fill with ownership via `BusRdX`, then write
    /// locally (remote copies invalidate in their snoop reaction).
    pub const fn write_miss_invalidate(next: StateId) -> Outcome {
        Outcome {
            next,
            bus: Some(BusOp::ReadX),
            data: DataOp::Write {
                fill: true,
                through: false,
                broadcast: false,
            },
        }
    }

    /// A write-through write hit with remote invalidation (Write-Once's
    /// first write: memory is updated and other copies are invalidated).
    pub const fn write_hit_through_invalidate(next: StateId) -> Outcome {
        Outcome {
            next,
            bus: Some(BusOp::Upgrade),
            data: DataOp::Write {
                fill: false,
                through: true,
                broadcast: false,
            },
        }
    }

    /// A clean eviction: the block is dropped silently.
    pub const fn evict_clean(invalid: StateId) -> Outcome {
        Outcome {
            next: invalid,
            bus: None,
            data: DataOp::Evict { writeback: false },
        }
    }

    /// A dirty eviction: the block is written back via `BusWB`.
    pub const fn evict_writeback(invalid: StateId) -> Outcome {
        Outcome {
            next: invalid,
            bus: Some(BusOp::WriteBack),
            data: DataOp::Evict { writeback: true },
        }
    }
}

/// The split-transaction description of a **transient** state.
///
/// The atomic model of the paper (§2) fires a processor event, its bus
/// transaction and every snoop reaction in one indivisible step. A
/// split-transaction protocol breaks that step in two: the *request
/// phase* moves the originator silently into a transient state (the
/// processor stalls, no bus traffic, no data moves), and the
/// *completion phase* — a separate global stimulus
/// ([`ProcEvent::Complete`]) that other caches' events may interleave
/// with — finally performs the pending bus transaction.
///
/// The completion row is an ordinary [`Outcome`] per global context
/// whose `bus` is always `Some(pending)`, so every piece of data-path
/// machinery (snoop reactions, fills, flushes, staleness tracking)
/// applies to completions verbatim. The global context is evaluated at
/// **completion time**, which is what makes e.g. a split MESI's
/// exclusive-vs-shared fill decision sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TransientInfo {
    /// The bus transaction this state is waiting to perform.
    pub pending: BusOp,
    /// Completion outcome per global context (indexed by
    /// [`GlobalCtx::index`]); `bus == Some(pending)` in every entry.
    pub completion: [Outcome; GlobalCtx::COUNT],
}

/// Errors detected while building or validating a [`ProtocolSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// Fewer than two states, or state 0 claims to hold a copy.
    BadStateSet(String),
    /// Two states share a name.
    DuplicateStateName(String),
    /// A (state, event, context) entry was never defined.
    MissingOutcome {
        /// State whose row is incomplete.
        state: String,
        /// Event with no outcome.
        event: ProcEvent,
        /// Context with no outcome.
        ctx: GlobalCtx,
    },
    /// A protocol declared with the null characteristic function has an
    /// outcome that differs across global contexts.
    NullCharacteristicCtxDependence {
        /// Offending state.
        state: String,
        /// Offending event.
        event: ProcEvent,
    },
    /// The data operation is inconsistent with the transition shape
    /// (e.g. a fill without a data-carrying bus transaction).
    InconsistentData {
        /// Offending state.
        state: String,
        /// Offending event.
        event: ProcEvent,
        /// Explanation.
        why: String,
    },
    /// The local FSM is not strongly connected (violates Definition 1).
    NotStronglyConnected,
    /// A transient-state declaration is inconsistent (missing or
    /// malformed completion row, illegal attributes, or a request rule
    /// that does not follow the two-phase shape).
    BadTransient {
        /// Offending state.
        state: String,
        /// Explanation.
        why: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadStateSet(why) => write!(f, "bad state set: {why}"),
            SpecError::DuplicateStateName(n) => write!(f, "duplicate state name: {n}"),
            SpecError::MissingOutcome { state, event, ctx } => {
                write!(f, "missing outcome for ({state}, {event}, {ctx})")
            }
            SpecError::NullCharacteristicCtxDependence { state, event } => write!(
                f,
                "null-F protocol has context-dependent outcome at ({state}, {event})"
            ),
            SpecError::InconsistentData { state, event, why } => {
                write!(f, "inconsistent data movement at ({state}, {event}): {why}")
            }
            SpecError::NotStronglyConnected => {
                write!(f, "local FSM is not strongly connected (Definition 1)")
            }
            SpecError::BadTransient { state, why } => {
                write!(f, "bad transient state {state}: {why}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete, validated snooping coherence protocol.
#[derive(Clone, Debug)]
pub struct ProtocolSpec {
    name: String,
    states: Vec<StateInfo>,
    characteristic: Characteristic,
    proc_table: Vec<[[Outcome; GlobalCtx::COUNT]; ProcEvent::COUNT]>,
    snoop_table: Vec<[SnoopOutcome; BusOp::COUNT]>,
    emitted_bus_ops: Vec<BusOp>,
    /// Split-transaction side table: `transients[s]` is `Some` exactly
    /// when state `s` is transient. Empty-equivalent (all `None`) for
    /// atomic protocols.
    transients: Vec<Option<TransientInfo>>,
    /// Bit `s` set iff state `s` is transient — the hot-path form of
    /// `transients[s].is_some()` (state ids fit in 4 bits, so 16 bits
    /// suffice).
    transient_mask: u16,
    /// Dense per-cache-code forms of `snoop_table` and the state
    /// attributes, for the explicit-state successor kernel. Refilled by
    /// every override that touches either.
    codes: CodeTables,
}

/// The hot-path tables of the explicit-state successor kernel, indexed
/// by the 6-bit **cache code** of a packed concrete state (defined by
/// `ccv_enum::PackedState::cache_code`; state ids below 16).
///
/// Inline arrays, so cloning a spec allocates no more than before.
#[derive(Clone, PartialEq, Eq)]
struct CodeTables {
    /// `image[slot * 2 + store][code]`: the code a snooping cache moves
    /// to when another cache's transition puts `BusOp::ALL[slot]` on
    /// the bus (slot [`BusOp::COUNT`]: no bus transaction), with
    /// `receives_update` applied to a store and a copy-less target
    /// holding no data.
    image: [[u8; 64]; 2 * (BusOp::COUNT + 1)],
    /// `roles[bus][code]`: the `FLUSH_*`/`SUPPLY_*` bits of a cache
    /// holding a copy that snoops `bus`.
    roles: [[u8; 64]; BusOp::COUNT],
    /// Bit `s` set iff state `s` holds a copy.
    holds: u16,
    /// Bit `s` set iff state `s` is owned.
    owned: u16,
}

impl CodeTables {
    fn new(states: &[StateInfo], snoop_table: &[[SnoopOutcome; BusOp::COUNT]]) -> CodeTables {
        let holds_copy = |s: StateId| states[s.index()].attrs.holds_copy;
        let mut t = CodeTables {
            image: [[0; 64]; 2 * (BusOp::COUNT + 1)],
            roles: [[0; 64]; BusOp::COUNT],
            holds: 0,
            owned: 0,
        };
        // Packed states encode ids below 16; the enumerators refuse
        // larger specs, so their extra states need no entries.
        for (si, info) in states.iter().enumerate().take(16) {
            let state = StateId(si as u8);
            t.holds |= u16::from(info.attrs.holds_copy) << si;
            t.owned |= u16::from(info.attrs.owned) << si;
            for cd in 0..4usize {
                let code = si << 2 | cd;
                // Code 3 never occurs; it decodes as obsolete.
                let held = match cd {
                    0 => CData::NoData,
                    1 => CData::Fresh,
                    _ => CData::Obsolete,
                };
                for slot in 0..=BusOp::COUNT {
                    let (target, received) = match BusOp::ALL.get(slot) {
                        Some(&bus) if !state.is_invalid() => {
                            let sn = snoop_table[si][bus.index()];
                            (sn.next, sn.receives_update)
                        }
                        _ => (state, false),
                    };
                    for store in [false, true] {
                        let next_cd = if !holds_copy(target) {
                            CData::NoData
                        } else if !store {
                            held
                        } else if received {
                            CData::Fresh
                        } else {
                            CData::Obsolete
                        };
                        t.image[slot * 2 + usize::from(store)][code] =
                            (target.index() << 2 | next_cd.index()) as u8;
                    }
                }
                if !info.attrs.holds_copy {
                    continue;
                }
                let (flush, supply) = match held {
                    CData::Fresh => (ProtocolSpec::FLUSH_FRESH, ProtocolSpec::SUPPLY_FRESH),
                    CData::Obsolete => {
                        (ProtocolSpec::FLUSH_OBSOLETE, ProtocolSpec::SUPPLY_OBSOLETE)
                    }
                    CData::NoData => (0, 0),
                };
                for bus in BusOp::ALL {
                    let sn = snoop_table[si][bus.index()];
                    t.roles[bus.index()][code] = if sn.flushes_to_memory { flush } else { 0 }
                        | if sn.supplies_data { supply } else { 0 };
                }
            }
        }
        t
    }
}

impl fmt::Debug for CodeTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeTables")
            .field("holds", &format_args!("{:#06x}", self.holds))
            .field("owned", &format_args!("{:#06x}", self.owned))
            .finish_non_exhaustive()
    }
}

impl ProtocolSpec {
    /// [`snoop_roles`](Self::snoop_roles) bit: the snooper flushes a
    /// fresh copy to memory.
    pub const FLUSH_FRESH: u8 = 1;
    /// [`snoop_roles`](Self::snoop_roles) bit: the snooper flushes an
    /// obsolete copy to memory.
    pub const FLUSH_OBSOLETE: u8 = 2;
    /// [`snoop_roles`](Self::snoop_roles) bit: the snooper can supply
    /// a fresh copy to the requester.
    pub const SUPPLY_FRESH: u8 = 4;
    /// [`snoop_roles`](Self::snoop_roles) bit: the snooper can supply
    /// an obsolete copy to the requester.
    pub const SUPPLY_OBSOLETE: u8 = 8;

    /// Protocol name, e.g. `"Illinois"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of state symbols `|Q|`.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// All state descriptions, indexed by [`StateId`].
    pub fn states(&self) -> &[StateInfo] {
        &self.states
    }

    /// Description of one state.
    pub fn state(&self, id: StateId) -> &StateInfo {
        &self.states[id.index()]
    }

    /// Attributes of one state.
    #[inline]
    pub fn attrs(&self, id: StateId) -> StateAttrs {
        self.states[id.index()].attrs
    }

    /// Looks a state up by (long or short) name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name == name || s.short == name)
            .map(|i| StateId(i as u8))
    }

    /// The conventional invalid state (`q0`).
    pub fn invalid(&self) -> StateId {
        StateId::INVALID
    }

    /// The characteristic function `F` of Definition 1.
    pub fn characteristic(&self) -> Characteristic {
        self.characteristic
    }

    /// The originator-side outcome `δ(F, q, σ)`. For
    /// [`ProcEvent::Complete`] this is the completion row of the
    /// transient side table (panics if `state` is not transient —
    /// engines only generate `Complete` for transient states).
    #[inline]
    pub fn outcome(&self, state: StateId, event: ProcEvent, ctx: GlobalCtx) -> Outcome {
        match event {
            ProcEvent::Complete => {
                self.transients[state.index()]
                    .as_ref()
                    .expect("Complete stimulus on a non-transient state")
                    .completion[ctx.index()]
            }
            _ => self.proc_table[state.index()][event.index()][ctx.index()],
        }
    }

    /// True iff `state` is transient (awaiting its pending bus
    /// transaction).
    #[inline]
    pub fn is_transient(&self, state: StateId) -> bool {
        // Transient states are validated to sit in the first 16 ids
        // (the packed-encoding range); anything beyond is atomic.
        state.index() < 16 && self.transient_mask & (1 << state.index()) != 0
    }

    /// True iff the protocol has any transient state — i.e. it is a
    /// non-atomic (split-transaction) protocol.
    #[inline]
    pub fn has_transients(&self) -> bool {
        self.transient_mask != 0
    }

    /// The split-transaction description of `state`, if transient.
    #[inline]
    pub fn transient_info(&self, state: StateId) -> Option<&TransientInfo> {
        self.transients[state.index()].as_ref()
    }

    /// Iterator over the transient states.
    pub fn transient_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.state_ids().filter(|&s| self.is_transient(s))
    }

    /// The coincident snoop reaction of a cache in `state` to `bus`.
    #[inline]
    pub fn snoop(&self, state: StateId, bus: BusOp) -> SnoopOutcome {
        self.snoop_table[state.index()][bus.index()]
    }

    /// The snoop reaction as a table over 6-bit cache codes (defined
    /// by `ccv_enum::PackedState::cache_code`): entry `code` is the
    /// code of a cache in that state after another cache's transition
    /// puts `bus` on the bus (`None`: a silent transition). Invalid
    /// caches ignore the bus, a cache that ends without a copy holds no
    /// data, and after a `store` a copy is fresh iff the snoop
    /// `receives_update`; otherwise the data is kept. Codes of states
    /// `>= 16` are not filled.
    #[inline]
    pub fn snoop_image(&self, bus: Option<BusOp>, store: bool) -> &[u8; 64] {
        let slot = bus.map_or(BusOp::COUNT, BusOp::index);
        &self.codes.image[slot * 2 + usize::from(store)]
    }

    /// The data roles of a snooping cache per 6-bit cache code (see
    /// [`snoop_image`](Self::snoop_image)): a set of the `FLUSH_*` and
    /// `SUPPLY_*` bits, named after the freshness of the copy it
    /// flushes or supplies. Zero for a code whose state holds no copy.
    #[inline]
    pub fn snoop_roles(&self, bus: BusOp) -> &[u8; 64] {
        &self.codes.roles[bus.index()]
    }

    /// Bit `s` set iff state `s` holds a copy (states below 16) — the
    /// hot-path form of `attrs(s).holds_copy`.
    #[inline]
    pub fn holds_mask(&self) -> u16 {
        self.codes.holds
    }

    /// Bit `s` set iff state `s` is owned (states below 16) — the
    /// hot-path form of `attrs(s).owned`.
    #[inline]
    pub fn owned_mask(&self) -> u16 {
        self.codes.owned
    }

    /// Bus operations actually emitted by some processor outcome.
    pub fn emitted_bus_ops(&self) -> &[BusOp] {
        &self.emitted_bus_ops
    }

    /// Iterator over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len() as u8).map(StateId)
    }

    /// Iterator over states that hold a copy (the paper's "valid"
    /// states, counted by the sharing-detection function).
    pub fn valid_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.state_ids().filter(|&s| self.attrs(s).holds_copy)
    }

    /// Iterator over owned states (memory may be stale w.r.t. them).
    pub fn owned_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.state_ids().filter(|&s| self.attrs(s).owned)
    }

    /// True iff the protocol uses the sharing-detection characteristic
    /// function.
    pub fn uses_sharing_detection(&self) -> bool {
        self.characteristic == Characteristic::SharingDetection
    }

    /// Number of protocol rules: one per `(state, processor event)`
    /// stimulus, plus — for non-atomic protocols only — one completion
    /// rule per state. Dense upper bound for rule-indexed attribution
    /// arrays (see [`rule_id`](ProtocolSpec::rule_id)). Atomic
    /// protocols keep the historical `|Q| * |Σ|` count.
    pub fn num_rules(&self) -> usize {
        let base = self.states.len() * ProcEvent::COUNT;
        if self.has_transients() {
            base + self.states.len()
        } else {
            base
        }
    }

    /// Dense id of the rule fired when a cache in `state` receives
    /// `event`: `state.index() * 3 + event.index()` for the processor
    /// alphabet, and `|Q| * 3 + state.index()` for completions, in
    /// `0..num_rules()`.
    #[inline]
    pub fn rule_id(&self, state: StateId, event: ProcEvent) -> usize {
        if event == ProcEvent::Complete {
            self.states.len() * ProcEvent::COUNT + state.index()
        } else {
            state.index() * ProcEvent::COUNT + event.index()
        }
    }

    /// Number of `(state, cdata)` class slots: one per protocol state
    /// and data-freshness value. Dense upper bound for slot-indexed
    /// structures (see [`class_slot`](ProtocolSpec::class_slot)), such
    /// as the symbolic engine's containment-index signatures.
    pub fn num_class_slots(&self) -> usize {
        self.states.len() * CData::ALL.len()
    }

    /// Dense id of the class of caches in `state` holding data of
    /// freshness `cdata`: `state.index() * 3 + cdata.index()`, in
    /// `0..num_class_slots()`.
    #[inline]
    pub fn class_slot(&self, state: StateId, cdata: CData) -> usize {
        state.index() * CData::ALL.len() + cdata.index()
    }

    /// Human-readable name of a rule id: `"<state short>:<event>"`,
    /// e.g. `"Inv:R"` for a read on an invalid line or `"IS_D:C"` for
    /// a transient state's completion.
    pub fn rule_name(&self, rule_id: usize) -> String {
        let base = self.states.len() * ProcEvent::COUNT;
        if rule_id >= base {
            let state = &self.states[rule_id - base];
            return format!("{}:{}", state.short, ProcEvent::Complete.label());
        }
        let state = &self.states[rule_id / ProcEvent::COUNT];
        let event = ProcEvent::ALL[rule_id % ProcEvent::COUNT];
        format!("{}:{}", state.short, event.label())
    }

    /// Returns a copy of this spec under a different name.
    ///
    /// Part of the *mutation API* used to seed deliberate protocol bugs
    /// for verifier robustness testing; see [`crate::protocols`]'s buggy
    /// mutants.
    pub fn renamed(mut self, name: impl Into<String>) -> ProtocolSpec {
        self.name = name.into();
        self
    }

    /// Returns a copy of this spec with one snoop reaction replaced.
    ///
    /// **This bypasses builder validation** — it exists precisely to
    /// construct plausible-but-incorrect protocols (forgotten
    /// invalidations, dropped flushes) that the verifier must reject.
    pub fn override_snoop(
        mut self,
        state: StateId,
        bus: BusOp,
        outcome: SnoopOutcome,
    ) -> ProtocolSpec {
        self.snoop_table[state.index()][bus.index()] = outcome;
        self.codes = CodeTables::new(&self.states, &self.snoop_table);
        self
    }

    /// Returns a copy of this spec with one state's semantic attributes
    /// replaced.
    ///
    /// **This bypasses builder validation** — see [`Self::override_snoop`].
    /// It can even violate the `q0`-is-invalid convention, producing a
    /// protocol whose *initial* global state is already structurally
    /// erroneous; the engine test suites use exactly that to pin down
    /// initial-state violation handling.
    pub fn override_attrs(mut self, state: StateId, attrs: StateAttrs) -> ProtocolSpec {
        self.states[state.index()].attrs = attrs;
        self.codes = CodeTables::new(&self.states, &self.snoop_table);
        self
    }

    /// Returns a copy of this spec with one processor outcome replaced
    /// for the given context, or for every context when `ctx` is `None`.
    ///
    /// **This bypasses builder validation** — see [`Self::override_snoop`].
    pub fn override_outcome(
        mut self,
        state: StateId,
        event: ProcEvent,
        ctx: Option<GlobalCtx>,
        outcome: Outcome,
    ) -> ProtocolSpec {
        match ctx {
            Some(c) => {
                self.proc_table[state.index()][event.index()][c.index()] = outcome;
            }
            None => {
                for c in GlobalCtx::ALL {
                    self.proc_table[state.index()][event.index()][c.index()] = outcome;
                }
            }
        }
        // Keep the emitted-bus-op summary in sync.
        self.emitted_bus_ops = emitted_ops(&self.proc_table, &self.transients);
        self
    }

    /// Returns a copy of this spec with one transient state's
    /// completion outcome replaced for the given context, or for every
    /// context when `ctx` is `None`.
    ///
    /// **This bypasses builder validation** — see [`Self::override_snoop`].
    /// It seeds split-transaction mutants: a completion that lands in
    /// the wrong state, fires the wrong bus transaction, or moves the
    /// wrong data. Panics if `state` is not transient.
    pub fn override_completion(
        mut self,
        state: StateId,
        ctx: Option<GlobalCtx>,
        outcome: Outcome,
    ) -> ProtocolSpec {
        let info = self.transients[state.index()]
            .as_mut()
            .expect("override_completion on a non-transient state");
        match ctx {
            Some(c) => info.completion[c.index()] = outcome,
            None => {
                for c in GlobalCtx::ALL {
                    info.completion[c.index()] = outcome;
                }
            }
        }
        self.emitted_bus_ops = emitted_ops(&self.proc_table, &self.transients);
        self
    }

    /// Renders the processor transition table as human-readable text
    /// (one row per (state, event, context)).
    pub fn describe(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "protocol {} ({:?} characteristic)",
            self.name, self.characteristic
        );
        for s in self.state_ids() {
            let info = self.state(s);
            let _ = writeln!(
                out,
                "  state {} [{}]{}{}{}{}",
                info.name,
                info.short,
                if info.attrs.holds_copy { " copy" } else { "" },
                if info.attrs.owned { " owned" } else { "" },
                if info.attrs.exclusive { " excl" } else { "" },
                match self.transient_info(s) {
                    Some(t) => format!(" transient(awaiting {})", t.pending),
                    None => String::new(),
                },
            );
            if self.is_transient(s) {
                // Σ rows are stalls; show the completion instead.
                for c in GlobalCtx::ALL {
                    let o = self.outcome(s, ProcEvent::Complete, c);
                    if c != GlobalCtx::ALONE
                        && o == self.outcome(s, ProcEvent::Complete, GlobalCtx::ALONE)
                    {
                        continue;
                    }
                    let bus = o
                        .bus
                        .map(|b| format!(" {b}"))
                        .unwrap_or_else(|| " silent".to_string());
                    let _ = writeln!(
                        out,
                        "    C [{c}] -> {}{bus} {:?}",
                        self.state(o.next).short,
                        o.data
                    );
                }
                continue;
            }
            for e in ProcEvent::ALL {
                for c in GlobalCtx::ALL {
                    let o = self.outcome(s, e, c);
                    if c != GlobalCtx::ALONE && o == self.outcome(s, e, GlobalCtx::ALONE) {
                        continue;
                    }
                    let bus = o
                        .bus
                        .map(|b| format!(" {b}"))
                        .unwrap_or_else(|| " silent".to_string());
                    let _ = writeln!(
                        out,
                        "    {e} [{c}] -> {}{bus} {:?}",
                        self.state(o.next).short,
                        o.data
                    );
                }
            }
        }
        out
    }
}

/// Bus operations emitted by any processor outcome or completion row,
/// sorted by index. Shared by [`SpecBuilder::build`] and the mutation
/// API so overrides keep the summary in sync.
fn emitted_ops(
    proc_table: &[[[Outcome; GlobalCtx::COUNT]; ProcEvent::COUNT]],
    transients: &[Option<TransientInfo>],
) -> Vec<BusOp> {
    let mut emitted: Vec<BusOp> = Vec::new();
    let mut push = |b: Option<BusOp>| {
        if let Some(b) = b {
            if !emitted.contains(&b) {
                emitted.push(b);
            }
        }
    };
    for row in proc_table {
        for e in ProcEvent::ALL {
            for c in GlobalCtx::ALL {
                push(row[e.index()][c.index()].bus);
            }
        }
    }
    for t in transients.iter().flatten() {
        for c in GlobalCtx::ALL {
            push(t.completion[c.index()].bus);
        }
    }
    emitted.sort_by_key(|b| b.index());
    emitted
}

/// Builder for [`ProtocolSpec`] with exhaustive validation.
///
/// ```
/// use ccv_model::{SpecBuilder, StateAttrs, ProcEvent, Outcome, BusOp, SnoopOutcome};
///
/// // The smallest coherent write-back protocol: Invalid / Modified.
/// let mut b = SpecBuilder::new("Two-State");
/// let inv = b.state("Invalid", "I", StateAttrs::INVALID);
/// let m = b.state("Modified", "M", StateAttrs::DIRTY);
/// b.on(inv, ProcEvent::Read, Outcome {
///     next: m,
///     bus: Some(BusOp::ReadX), // read-for-ownership
///     data: ccv_model::DataOp::Read { fill: true },
/// });
/// b.on(inv, ProcEvent::Write, Outcome::write_miss_invalidate(m));
/// b.on(inv, ProcEvent::Replace, Outcome::evict_clean(inv));
/// b.on(m, ProcEvent::Read, Outcome::read_hit(m));
/// b.on(m, ProcEvent::Write, Outcome::write_hit_silent(m));
/// b.on(m, ProcEvent::Replace, Outcome::evict_writeback(inv));
/// b.snoop(m, BusOp::ReadX, SnoopOutcome::flush(inv));
/// let spec = b.build().expect("well-formed");
/// assert_eq!(spec.num_states(), 2);
/// ```
pub struct SpecBuilder {
    name: String,
    states: Vec<StateInfo>,
    characteristic: Characteristic,
    proc_table: Vec<[[Option<Outcome>; GlobalCtx::COUNT]; ProcEvent::COUNT]>,
    snoop_table: Vec<[SnoopOutcome; BusOp::COUNT]>,
    pending: Vec<Option<BusOp>>,
    completion_table: Vec<[Option<Outcome>; GlobalCtx::COUNT]>,
    allow_disconnected: bool,
    skip_data_checks: bool,
}

impl SpecBuilder {
    /// Starts a new protocol with the given name. State `q0` must be the
    /// invalid state; add it first.
    pub fn new(name: impl Into<String>) -> SpecBuilder {
        SpecBuilder {
            name: name.into(),
            states: Vec::new(),
            characteristic: Characteristic::Null,
            proc_table: Vec::new(),
            snoop_table: Vec::new(),
            pending: Vec::new(),
            completion_table: Vec::new(),
            allow_disconnected: false,
            skip_data_checks: false,
        }
    }

    /// Declares the characteristic function (default: null).
    pub fn characteristic(mut self, c: Characteristic) -> SpecBuilder {
        self.characteristic = c;
        self
    }

    /// Permits a non-strongly-connected FSM (used by deliberately broken
    /// mutants and by property-test generators).
    pub fn allow_disconnected(mut self) -> SpecBuilder {
        self.allow_disconnected = true;
        self
    }

    /// Disables the data/bus consistency lints (used by deliberately
    /// broken mutants that model implementation bugs).
    pub fn skip_data_checks(mut self) -> SpecBuilder {
        self.skip_data_checks = true;
        self
    }

    /// Adds a state and returns its id. The first state added becomes
    /// `q0` and must be the invalid state.
    pub fn state(
        &mut self,
        name: impl Into<String>,
        short: impl Into<String>,
        attrs: StateAttrs,
    ) -> StateId {
        let id = StateId(self.states.len() as u8);
        self.states.push(StateInfo::new(name, short, attrs));
        self.proc_table
            .push([[None; GlobalCtx::COUNT]; ProcEvent::COUNT]);
        // Default snoop: ignore every transaction.
        self.snoop_table
            .push([SnoopOutcome::ignore(id); BusOp::COUNT]);
        self.pending.push(None);
        self.completion_table.push([None; GlobalCtx::COUNT]);
        id
    }

    /// Adds a **transient** state awaiting the bus transaction
    /// `pending` and returns its id. Processor events stall in a
    /// transient state (its `Σ` rows are auto-filled with silent
    /// self-loops); declare the completion with
    /// [`on_complete`](Self::on_complete) /
    /// [`on_complete_ctx`](Self::on_complete_ctx).
    pub fn transient(
        &mut self,
        name: impl Into<String>,
        short: impl Into<String>,
        attrs: StateAttrs,
        pending: BusOp,
    ) -> StateId {
        let id = self.state(name, short, attrs);
        self.pending[id.index()] = Some(pending);
        id
    }

    /// Sets the completion outcome of a transient `state` for **all**
    /// global contexts. The outcome's `bus` must be the state's
    /// pending transaction.
    pub fn on_complete(&mut self, state: StateId, outcome: Outcome) -> &mut Self {
        for c in GlobalCtx::ALL {
            self.completion_table[state.index()][c.index()] = Some(outcome);
        }
        self
    }

    /// Sets the completion outcome of a transient `state` for one
    /// specific context (a split-transaction protocol with sharing
    /// detection evaluates the context at completion time).
    pub fn on_complete_ctx(
        &mut self,
        state: StateId,
        ctx: GlobalCtx,
        outcome: Outcome,
    ) -> &mut Self {
        self.completion_table[state.index()][ctx.index()] = Some(outcome);
        self
    }

    /// Sets the outcome of `(state, event)` for **all** global contexts
    /// (the common case for null-`F` protocols).
    pub fn on(&mut self, state: StateId, event: ProcEvent, outcome: Outcome) -> &mut Self {
        for c in GlobalCtx::ALL {
            self.proc_table[state.index()][event.index()][c.index()] = Some(outcome);
        }
        self
    }

    /// Sets the outcome of `(state, event)` for one specific context.
    pub fn on_ctx(
        &mut self,
        state: StateId,
        event: ProcEvent,
        ctx: GlobalCtx,
        outcome: Outcome,
    ) -> &mut Self {
        self.proc_table[state.index()][event.index()][ctx.index()] = Some(outcome);
        self
    }

    /// Sharing-detection split: `alone` applies when no other cache
    /// holds a copy, `shared` applies otherwise (both the shared-clean
    /// and owned-elsewhere contexts).
    pub fn on_sharing(
        &mut self,
        state: StateId,
        event: ProcEvent,
        alone: Outcome,
        shared: Outcome,
    ) -> &mut Self {
        self.on_ctx(state, event, GlobalCtx::ALONE, alone);
        self.on_ctx(state, event, GlobalCtx::SHARED_CLEAN, shared);
        self.on_ctx(state, event, GlobalCtx::OWNED_ELSEWHERE, shared);
        self
    }

    /// Sets the snoop reaction of `state` to `bus`.
    pub fn snoop(&mut self, state: StateId, bus: BusOp, outcome: SnoopOutcome) -> &mut Self {
        self.snoop_table[state.index()][bus.index()] = outcome;
        self
    }

    /// Validates and finalises the specification.
    pub fn build(self) -> Result<ProtocolSpec, SpecError> {
        // --- State set sanity -------------------------------------------------
        if self.states.len() < 2 {
            return Err(SpecError::BadStateSet(
                "a protocol needs at least an invalid and one valid state".into(),
            ));
        }
        if self.states[0].attrs.holds_copy {
            return Err(SpecError::BadStateSet(
                "state q0 must be the invalid state (holds_copy = false)".into(),
            ));
        }
        for (i, a) in self.states.iter().enumerate() {
            for b in &self.states[i + 1..] {
                if a.name == b.name || a.short == b.short {
                    return Err(SpecError::DuplicateStateName(a.name.clone()));
                }
            }
        }

        // --- Transient sanity -------------------------------------------------
        let is_transient = |s: StateId| self.pending[s.index()].is_some();
        for (si, pending) in self.pending.iter().enumerate() {
            let bad = |why: &str| SpecError::BadTransient {
                state: self.states[si].name.clone(),
                why: why.into(),
            };
            let Some(_) = pending else {
                if self.completion_table[si].iter().any(Option::is_some) {
                    return Err(bad("completion declared for a non-transient state"));
                }
                continue;
            };
            if si == 0 {
                return Err(bad("q0 (the invalid state) cannot be transient"));
            }
            if si >= 16 {
                return Err(bad("transient states must sit in the first 16 state ids"));
            }
            let attrs = self.states[si].attrs;
            if attrs.owned || attrs.exclusive || attrs.writable_silently {
                return Err(bad(
                    "a transient state holds no granted rights (owned / exclusive / \
                     silently-writable are atomic-state attributes)",
                ));
            }
        }

        // --- Table completeness ----------------------------------------------
        // Processor events stall in transient states (the originator is
        // waiting for the bus): those rows are synthesised as silent
        // self-loops, never written by hand and never generated by the
        // engines.
        let mut proc_table = Vec::with_capacity(self.states.len());
        for (si, row) in self.proc_table.iter().enumerate() {
            let mut dense = [[Outcome::silent(StateId(0)); GlobalCtx::COUNT]; ProcEvent::COUNT];
            let stall = is_transient(StateId(si as u8));
            for e in ProcEvent::ALL {
                for c in GlobalCtx::ALL {
                    match row[e.index()][c.index()] {
                        Some(o) => dense[e.index()][c.index()] = o,
                        None if stall => {
                            dense[e.index()][c.index()] = Outcome::silent(StateId(si as u8))
                        }
                        None => {
                            return Err(SpecError::MissingOutcome {
                                state: self.states[si].name.clone(),
                                event: e,
                                ctx: c,
                            })
                        }
                    }
                }
            }
            proc_table.push(dense);
        }

        // --- Completion rows ---------------------------------------------------
        let mut transients: Vec<Option<TransientInfo>> = vec![None; self.states.len()];
        let mut transient_mask: u16 = 0;
        for (si, &pending) in self.pending.iter().enumerate() {
            let Some(pending) = pending else { continue };
            let bad = |why: String| SpecError::BadTransient {
                state: self.states[si].name.clone(),
                why,
            };
            let mut completion = [Outcome::silent(StateId(0)); GlobalCtx::COUNT];
            for c in GlobalCtx::ALL {
                let Some(o) = self.completion_table[si][c.index()] else {
                    return Err(bad(format!("missing completion outcome for context {c}")));
                };
                if o.bus != Some(pending) {
                    return Err(bad(format!(
                        "completion must perform the pending transaction {pending}, got {:?}",
                        o.bus
                    )));
                }
                if is_transient(o.next) {
                    return Err(bad(format!(
                        "completion must land in a stable state, got transient {}",
                        self.states[o.next.index()].name
                    )));
                }
                completion[c.index()] = o;
            }
            transients[si] = Some(TransientInfo {
                pending,
                completion,
            });
            transient_mask |= 1 << si;
        }

        // --- Null characteristic really is context-independent ----------------
        if self.characteristic == Characteristic::Null {
            for (si, row) in proc_table.iter().enumerate() {
                for e in ProcEvent::ALL {
                    let base = row[e.index()][0].next;
                    if row[e.index()].iter().any(|o| o.next != base) {
                        return Err(SpecError::NullCharacteristicCtxDependence {
                            state: self.states[si].name.clone(),
                            event: e,
                        });
                    }
                }
            }
            for (si, t) in transients.iter().enumerate() {
                let Some(t) = t else { continue };
                let base = t.completion[0].next;
                if t.completion.iter().any(|o| o.next != base) {
                    return Err(SpecError::NullCharacteristicCtxDependence {
                        state: self.states[si].name.clone(),
                        event: ProcEvent::Complete,
                    });
                }
            }
        }

        // --- Data/bus consistency ---------------------------------------------
        if !self.skip_data_checks {
            for (si, row) in proc_table.iter().enumerate() {
                let holds = self.states[si].attrs.holds_copy;
                if is_transient(StateId(si as u8)) {
                    // Transient Σ rows are synthesised stalls; the real
                    // transition shape is checked on the completion row.
                    continue;
                }
                for e in ProcEvent::ALL {
                    for c in GlobalCtx::ALL {
                        let o = row[e.index()][c.index()];
                        let fail = |why: &str| SpecError::InconsistentData {
                            state: self.states[si].name.clone(),
                            event: e,
                            why: why.into(),
                        };
                        if is_transient(o.next) {
                            // Request phase of a split transaction: the
                            // originator parks silently; bus traffic and
                            // data movement happen at completion.
                            if e == ProcEvent::Replace {
                                return Err(fail("replacement cannot enter a transient state"));
                            }
                            if o.bus.is_some() {
                                return Err(fail(
                                    "a request into a transient state is silent (the pending \
                                     transaction fires at completion)",
                                ));
                            }
                            if o.data != DataOp::None {
                                return Err(fail(
                                    "a request into a transient state moves no data (the \
                                     processor stalls until completion)",
                                ));
                            }
                            if self.states[o.next.index()].attrs.holds_copy && !holds {
                                return Err(fail(
                                    "a copy-holding transient state can only be entered \
                                     from a state that already holds the copy",
                                ));
                            }
                            continue;
                        }
                        // Write-update protocols (Firefly, Dragon) combine the
                        // fill and the update broadcast of a write miss into a
                        // single atomic transaction, so BusUpd is a legal
                        // data-carrying transaction as well.
                        if o.data.is_fill()
                            && !matches!(o.bus, Some(BusOp::Read | BusOp::ReadX | BusOp::Update))
                        {
                            return Err(fail("fill requires BusRd, BusRdX or BusUpd"));
                        }
                        if o.data.is_fill() && holds {
                            return Err(fail("fill from a state that already holds the copy"));
                        }
                        if let DataOp::Write {
                            fill, broadcast, ..
                        } = o.data
                        {
                            if !fill && !holds {
                                return Err(fail("write hit in a state without a copy"));
                            }
                            if broadcast && o.bus != Some(BusOp::Update) {
                                return Err(fail("broadcast write requires BusUpd"));
                            }
                        }
                        if matches!(o.data, DataOp::Evict { writeback: true })
                            && o.bus != Some(BusOp::WriteBack)
                        {
                            return Err(fail("writeback eviction requires BusWB"));
                        }
                        if e == ProcEvent::Replace && self.states[o.next.index()].attrs.holds_copy {
                            return Err(fail("replacement must end in a copy-less state"));
                        }
                        if e == ProcEvent::Read && !matches!(o.data, DataOp::Read { .. }) {
                            return Err(fail("read event must carry DataOp::Read"));
                        }
                        if e == ProcEvent::Write && !matches!(o.data, DataOp::Write { .. }) {
                            return Err(fail("write event must carry DataOp::Write"));
                        }
                        if e == ProcEvent::Replace && !matches!(o.data, DataOp::Evict { .. }) {
                            return Err(fail("replace event must carry DataOp::Evict"));
                        }
                    }
                }
            }

            // Completion rows obey the same data/bus lints as atomic
            // transitions, with the transient state as the origin.
            for (si, t) in transients.iter().enumerate() {
                let Some(t) = t else { continue };
                let holds = self.states[si].attrs.holds_copy;
                for c in GlobalCtx::ALL {
                    let o = t.completion[c.index()];
                    let fail = |why: &str| SpecError::InconsistentData {
                        state: self.states[si].name.clone(),
                        event: ProcEvent::Complete,
                        why: why.into(),
                    };
                    if o.data.is_fill()
                        && !matches!(o.bus, Some(BusOp::Read | BusOp::ReadX | BusOp::Update))
                    {
                        return Err(fail("fill requires BusRd, BusRdX or BusUpd"));
                    }
                    if o.data.is_fill() && holds {
                        return Err(fail("fill from a state that already holds the copy"));
                    }
                    if let DataOp::Write {
                        fill, broadcast, ..
                    } = o.data
                    {
                        if !fill && !holds {
                            return Err(fail("write completion in a state without a copy"));
                        }
                        if broadcast && o.bus != Some(BusOp::Update) {
                            return Err(fail("broadcast write requires BusUpd"));
                        }
                    }
                    if matches!(o.data, DataOp::Evict { writeback: true })
                        && o.bus != Some(BusOp::WriteBack)
                    {
                        return Err(fail("writeback eviction requires BusWB"));
                    }
                    if matches!(o.data, DataOp::Evict { .. })
                        && self.states[o.next.index()].attrs.holds_copy
                    {
                        return Err(fail("an eviction completion must end in a copy-less state"));
                    }
                }
            }

            // Snoop reactions must respect the copy-carrying discipline
            // around transient states: a snoop never conjures a copy in
            // a copy-less transient, and a stable state never enters the
            // transient (request-pending) regime via a snoop.
            if transient_mask != 0 {
                for (si, row) in self.snoop_table.iter().enumerate() {
                    for bus in BusOp::ALL {
                        let sn = row[bus.index()];
                        let fail = |why: String| SpecError::BadTransient {
                            state: self.states[si].name.clone(),
                            why,
                        };
                        if is_transient(StateId(si as u8)) {
                            if !self.states[si].attrs.holds_copy
                                && self.states[sn.next.index()].attrs.holds_copy
                            {
                                return Err(fail(format!(
                                    "snoop on {bus} moves a copy-less transient into \
                                     copy-holding {}",
                                    self.states[sn.next.index()].name
                                )));
                            }
                        } else if is_transient(sn.next) {
                            return Err(fail(format!(
                                "snoop on {bus} moves a stable state into transient {} \
                                 (transient states are entered by processor requests only)",
                                self.states[sn.next.index()].name
                            )));
                        }
                    }
                }
            }
        }

        // --- Emitted bus ops ---------------------------------------------------
        let emitted = emitted_ops(&proc_table, &transients);

        // --- Strong connectivity (Definition 1) --------------------------------
        let n = self.states.len();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (si, row) in proc_table.iter().enumerate() {
            for e in ProcEvent::ALL {
                for c in GlobalCtx::ALL {
                    edges.push((si, row[e.index()][c.index()].next.index()));
                }
            }
        }
        for (si, t) in transients.iter().enumerate() {
            let Some(t) = t else { continue };
            for c in GlobalCtx::ALL {
                edges.push((si, t.completion[c.index()].next.index()));
            }
        }
        for (si, row) in self.snoop_table.iter().enumerate() {
            for &b in &emitted {
                edges.push((si, row[b.index()].next.index()));
            }
        }
        if !self.allow_disconnected && !strongly_connected(n, &edges) {
            return Err(SpecError::NotStronglyConnected);
        }

        let codes = CodeTables::new(&self.states, &self.snoop_table);
        Ok(ProtocolSpec {
            name: self.name,
            states: self.states,
            characteristic: self.characteristic,
            proc_table,
            snoop_table: self.snoop_table,
            emitted_bus_ops: emitted,
            transients,
            transient_mask,
            codes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny two-state write-invalidate protocol used only by unit
    /// tests: Invalid and Modified.
    fn tiny() -> Result<ProtocolSpec, SpecError> {
        let mut b = SpecBuilder::new("Tiny");
        let inv = b.state("Invalid", "Inv", StateAttrs::INVALID);
        let m = b.state("Modified", "M", StateAttrs::DIRTY);
        b.on(
            inv,
            ProcEvent::Read,
            Outcome::write_miss_invalidate(m).data(DataOp::Read { fill: true }),
        );
        // Read miss loads exclusively with ownership (read-for-ownership).
        b.on(
            inv,
            ProcEvent::Read,
            Outcome {
                next: m,
                bus: Some(BusOp::ReadX),
                data: DataOp::Read { fill: true },
            },
        );
        b.on(inv, ProcEvent::Write, Outcome::write_miss_invalidate(m));
        b.on(inv, ProcEvent::Replace, Outcome::evict_clean(inv));
        b.on(m, ProcEvent::Read, Outcome::read_hit(m));
        b.on(m, ProcEvent::Write, Outcome::write_hit_silent(m));
        b.on(m, ProcEvent::Replace, Outcome::evict_writeback(inv));
        b.snoop(m, BusOp::ReadX, SnoopOutcome::flush(inv));
        b.build()
    }

    #[test]
    fn tiny_protocol_builds() {
        let p = tiny().expect("tiny protocol should validate");
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.name(), "Tiny");
        let m = p.state_by_name("Modified").unwrap();
        assert_eq!(p.state_by_name("M"), Some(m));
        assert!(p.attrs(m).owned);
        assert_eq!(p.emitted_bus_ops(), &[BusOp::ReadX, BusOp::WriteBack]);
        assert_eq!(p.valid_states().count(), 1);
        assert_eq!(p.owned_states().count(), 1);
    }

    #[test]
    fn rule_ids_are_dense_and_named_after_stimuli() {
        let p = tiny().unwrap();
        assert_eq!(p.num_rules(), 6);
        let mut seen = vec![false; p.num_rules()];
        for state in p.state_ids() {
            for &event in &ProcEvent::ALL {
                let rid = p.rule_id(state, event);
                assert!(rid < p.num_rules());
                assert!(!seen[rid], "rule ids must be distinct");
                seen[rid] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        let m = p.state_by_name("M").unwrap();
        assert_eq!(p.rule_name(p.rule_id(m, ProcEvent::Write)), "M:W");
        assert_eq!(
            p.rule_name(p.rule_id(p.invalid(), ProcEvent::Read)),
            "Inv:R"
        );
    }

    #[test]
    fn missing_outcome_is_rejected() {
        let mut b = SpecBuilder::new("Broken");
        let inv = b.state("Invalid", "Inv", StateAttrs::INVALID);
        let m = b.state("Modified", "M", StateAttrs::DIRTY);
        b.on(
            inv,
            ProcEvent::Read,
            Outcome {
                next: m,
                bus: Some(BusOp::ReadX),
                data: DataOp::Read { fill: true },
            },
        );
        // Write and Replace rows deliberately missing.
        let err = b.build().unwrap_err();
        assert!(matches!(err, SpecError::MissingOutcome { .. }));
    }

    #[test]
    fn null_characteristic_ctx_dependence_rejected() {
        let mut b = SpecBuilder::new("SneakyCtx");
        let inv = b.state("Invalid", "Inv", StateAttrs::INVALID);
        let e = b.state("Excl", "E", StateAttrs::VALID_EXCLUSIVE);
        let s = b.state("Shared", "S", StateAttrs::SHARED_CLEAN);
        b.on_sharing(
            inv,
            ProcEvent::Read,
            Outcome::read_miss(e),
            Outcome::read_miss(s),
        );
        b.on(inv, ProcEvent::Write, Outcome::write_miss_invalidate(e));
        b.on(inv, ProcEvent::Replace, Outcome::evict_clean(inv));
        for st in [e, s] {
            b.on(st, ProcEvent::Read, Outcome::read_hit(st));
            b.on(st, ProcEvent::Write, Outcome::write_hit_invalidate(e));
            b.on(st, ProcEvent::Replace, Outcome::evict_clean(inv));
        }
        b.snoop(e, BusOp::Read, SnoopOutcome::supply(s));
        b.snoop(s, BusOp::Read, SnoopOutcome::supply(s));
        b.snoop(e, BusOp::ReadX, SnoopOutcome::to(inv));
        b.snoop(s, BusOp::ReadX, SnoopOutcome::to(inv));
        b.snoop(e, BusOp::Upgrade, SnoopOutcome::to(inv));
        b.snoop(s, BusOp::Upgrade, SnoopOutcome::to(inv));
        // Declared Null but read-miss outcome depends on sharing.
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            SpecError::NullCharacteristicCtxDependence { .. }
        ));
    }

    #[test]
    fn fill_without_bus_rejected() {
        let mut b = SpecBuilder::new("NoBusFill");
        let inv = b.state("Invalid", "Inv", StateAttrs::INVALID);
        let m = b.state("Modified", "M", StateAttrs::DIRTY);
        b.on(
            inv,
            ProcEvent::Read,
            Outcome {
                next: m,
                bus: None, // fill with no bus transaction
                data: DataOp::Read { fill: true },
            },
        );
        b.on(inv, ProcEvent::Write, Outcome::write_miss_invalidate(m));
        b.on(inv, ProcEvent::Replace, Outcome::evict_clean(inv));
        b.on(m, ProcEvent::Read, Outcome::read_hit(m));
        b.on(m, ProcEvent::Write, Outcome::write_hit_silent(m));
        b.on(m, ProcEvent::Replace, Outcome::evict_writeback(inv));
        let err = b.build().unwrap_err();
        assert!(matches!(err, SpecError::InconsistentData { .. }));
    }

    #[test]
    fn replacement_must_leave_cache() {
        let mut b = SpecBuilder::new("StickyBlock");
        let inv = b.state("Invalid", "Inv", StateAttrs::INVALID);
        let m = b.state("Modified", "M", StateAttrs::DIRTY);
        b.on(
            inv,
            ProcEvent::Read,
            Outcome {
                next: m,
                bus: Some(BusOp::ReadX),
                data: DataOp::Read { fill: true },
            },
        );
        b.on(inv, ProcEvent::Write, Outcome::write_miss_invalidate(m));
        b.on(inv, ProcEvent::Replace, Outcome::evict_clean(inv));
        b.on(m, ProcEvent::Read, Outcome::read_hit(m));
        b.on(m, ProcEvent::Write, Outcome::write_hit_silent(m));
        // Replacement that stays in M.
        b.on(
            m,
            ProcEvent::Replace,
            Outcome {
                next: m,
                bus: Some(BusOp::WriteBack),
                data: DataOp::Evict { writeback: true },
            },
        );
        b.snoop(m, BusOp::ReadX, SnoopOutcome::flush(inv));
        let err = b.build().unwrap_err();
        assert!(matches!(err, SpecError::InconsistentData { .. }));
    }

    #[test]
    fn disconnected_fsm_rejected_unless_allowed() {
        // A valid state that can never be left again except it can't be
        // reached: make Invalid unreachable from M by replacing the
        // Replace outcome... Replace must leave the cache, so instead we
        // build a three-state machine where the third state is
        // unreachable.
        let build = |allow: bool| {
            let mut b = SpecBuilder::new("Island");
            let inv = b.state("Invalid", "Inv", StateAttrs::INVALID);
            let m = b.state("Modified", "M", StateAttrs::DIRTY);
            let island = b.state("Island", "X", StateAttrs::SHARED_CLEAN);
            if allow {
                b = {
                    let mut b2 = SpecBuilder::new("Island").allow_disconnected();
                    let inv2 = b2.state("Invalid", "Inv", StateAttrs::INVALID);
                    let m2 = b2.state("Modified", "M", StateAttrs::DIRTY);
                    let island2 = b2.state("Island", "X", StateAttrs::SHARED_CLEAN);
                    assert_eq!((inv2, m2, island2), (inv, m, island));
                    b2
                };
            }
            b.on(
                inv,
                ProcEvent::Read,
                Outcome {
                    next: m,
                    bus: Some(BusOp::ReadX),
                    data: DataOp::Read { fill: true },
                },
            );
            b.on(inv, ProcEvent::Write, Outcome::write_miss_invalidate(m));
            b.on(inv, ProcEvent::Replace, Outcome::evict_clean(inv));
            b.on(m, ProcEvent::Read, Outcome::read_hit(m));
            b.on(m, ProcEvent::Write, Outcome::write_hit_silent(m));
            b.on(m, ProcEvent::Replace, Outcome::evict_writeback(inv));
            b.on(island, ProcEvent::Read, Outcome::read_hit(island));
            b.on(island, ProcEvent::Write, Outcome::write_hit_invalidate(m));
            b.on(island, ProcEvent::Replace, Outcome::evict_clean(inv));
            b.snoop(m, BusOp::ReadX, SnoopOutcome::flush(inv));
            b.build()
        };
        assert_eq!(build(false).unwrap_err(), SpecError::NotStronglyConnected);
        assert!(build(true).is_ok());
    }

    #[test]
    fn overrides_refill_the_code_tables() {
        use crate::protocols::{illinois, illinois_missing_invalidation};
        let rebuilt = |p: &ProtocolSpec| CodeTables::new(&p.states, &p.snoop_table);
        let base = illinois();
        let sh = base.state_by_name("Shared").unwrap();
        let shared_fresh = sh.index() << 2 | CData::Fresh.index();

        // `override_snoop`: Shared ignores BusUpgr, so after the store
        // it keeps an obsolete copy instead of going invalid.
        let mutant = illinois_missing_invalidation();
        assert_eq!(mutant.codes, rebuilt(&mutant));
        let upgrade = |p: &ProtocolSpec| p.snoop_image(Some(BusOp::Upgrade), true)[shared_fresh];
        assert_eq!(upgrade(&base), 0);
        assert_eq!(
            upgrade(&mutant),
            (sh.index() << 2 | CData::Obsolete.index()) as u8
        );
        // The same rows through the builder give the same tables.
        let reparsed = crate::dsl::parse_protocol(&crate::dsl::to_dsl(&mutant)).unwrap();
        assert_eq!(mutant.codes, reparsed.codes);

        // `override_attrs`: a Shared that holds no copy drops out of
        // the holder mask, its data and its roles.
        let attrs = StateAttrs {
            holds_copy: false,
            ..base.attrs(sh)
        };
        let dropped = base.clone().override_attrs(sh, attrs);
        assert_eq!(dropped.codes, rebuilt(&dropped));
        assert_eq!(dropped.holds_mask() & 1 << sh.index(), 0);
        assert_ne!(base.holds_mask() & 1 << sh.index(), 0);
        assert_eq!(
            dropped.snoop_image(Some(BusOp::Read), false)[shared_fresh],
            (sh.index() << 2) as u8
        );
        assert_eq!(dropped.snoop_roles(BusOp::Read)[shared_fresh], 0);

        // Every single-edit mutant goes through the override API.
        for m in crate::mutate::single_mutants(&base) {
            assert!(m.spec.codes == rebuilt(&m.spec), "{}", m.description);
        }
    }

    #[test]
    fn describe_mentions_every_state() {
        let p = tiny().unwrap();
        let text = p.describe();
        assert!(text.contains("Invalid"));
        assert!(text.contains("Modified"));
        assert!(text.contains("BusRdX"));
    }
}
