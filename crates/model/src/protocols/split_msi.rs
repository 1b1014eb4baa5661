//! Split-transaction MSI — the textbook three-state protocol on a
//! **non-atomic bus**.
//!
//! The atomic [`super::msi`] fires a processor event and its bus
//! transaction in one indivisible step. On a split-transaction bus the
//! cache must first *win* the bus: between issuing a request and being
//! granted the bus, arbitrary transactions from other processors slide
//! in. Three transient states make that window observable:
//!
//! * `IS_D` — read miss in flight: no copy, waiting for `BusRd` data.
//! * `IM_D` — write miss in flight: no copy, waiting for `BusRdX` data.
//! * `SM_W` — upgrade in flight: a clean `Shared` copy is held, waiting
//!   for the `BusUpgr` grant.
//!
//! The interesting race is against `SM_W`: if a remote `BusRdX` or
//! `BusUpgr` wins the bus first, the local copy is invalidated while
//! the upgrade is still queued — the pending upgrade must *convert*
//! into a full read-exclusive (`SM_W → IM_D`), otherwise the completed
//! upgrade would resurrect a stale copy as `Modified`. The two seeded
//! mutants below break exactly that conversion; the resulting
//! double-`Modified` states are reachable **only** through a
//! request/request interleaving and are invisible to the atomic model.

use crate::{BusOp, ProtocolSpec, SnoopOutcome};

/// The split-transaction MSI protocol, parsed from
/// `protocols/split-msi.ccv`. Hits on `Modified` stay atomic.
pub fn split_msi() -> ProtocolSpec {
    super::library("split-msi")
}

/// Seeded bug: `SM_W` ignores a remote `BusUpgr`, keeping its stale
/// pending upgrade. Two racing upgraders both reach `Modified` — a
/// violation only a request/request interleaving can expose.
pub fn split_msi_upgrade_race_lost() -> ProtocolSpec {
    let p = split_msi();
    let sm_w = p.state_by_name("SM_W").unwrap();
    p.override_snoop(sm_w, BusOp::Upgrade, SnoopOutcome::ignore(sm_w))
        .renamed("Split-MSI/upgrade-race-lost")
}

/// Seeded bug: `SM_W` ignores a remote `BusRdX`, so the queued upgrade
/// later completes against a copy that was invalidated mid-flight and
/// coexists with the remote writer's `Modified` block.
pub fn split_msi_ignores_readx() -> ProtocolSpec {
    let p = split_msi();
    let sm_w = p.state_by_name("SM_W").unwrap();
    p.override_snoop(sm_w, BusOp::ReadX, SnoopOutcome::ignore(sm_w))
        .renamed("Split-MSI/ignores-readx")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataOp, GlobalCtx, Outcome, ProcEvent};

    #[test]
    fn builds_with_three_transients() {
        let p = split_msi();
        assert_eq!(p.num_states(), 6);
        assert!(p.has_transients());
        let tr: Vec<_> = p.transient_states().collect();
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn requests_are_silent_and_stall() {
        let p = split_msi();
        let inv = p.invalid();
        let is_d = p.state_by_name("IS_D").unwrap();
        let o = p.outcome(inv, ProcEvent::Read, GlobalCtx::ALONE);
        assert_eq!(o.next, is_d);
        assert_eq!(o.bus, None);
        assert_eq!(o.data, DataOp::None);
        // While waiting, processor events stall in place.
        for e in ProcEvent::ALL {
            for c in GlobalCtx::ALL {
                assert_eq!(p.outcome(is_d, e, c), Outcome::silent(is_d));
            }
        }
    }

    #[test]
    fn completion_fires_the_pending_transaction() {
        let p = split_msi();
        let is_d = p.state_by_name("IS_D").unwrap();
        let sh = p.state_by_name("S").unwrap();
        let o = p.outcome(is_d, ProcEvent::Complete, GlobalCtx::ALONE);
        assert_eq!(o.next, sh);
        assert_eq!(o.bus, Some(BusOp::Read));
        assert_eq!(o.data, DataOp::Read { fill: true });
        assert_eq!(p.transient_info(is_d).unwrap().pending, BusOp::Read);
    }

    #[test]
    fn remote_invalidation_converts_the_pending_upgrade() {
        let p = split_msi();
        let sm_w = p.state_by_name("SM_W").unwrap();
        let im_d = p.state_by_name("IM_D").unwrap();
        assert_eq!(p.snoop(sm_w, BusOp::ReadX).next, im_d);
        assert_eq!(p.snoop(sm_w, BusOp::Upgrade).next, im_d);
    }

    #[test]
    fn mutants_differ_only_in_the_race_window() {
        for mutant in [split_msi_upgrade_race_lost(), split_msi_ignores_readx()] {
            let sm_w = mutant.state_by_name("SM_W").unwrap();
            let bus = if mutant.name().contains("readx") {
                BusOp::ReadX
            } else {
                BusOp::Upgrade
            };
            assert_eq!(mutant.snoop(sm_w, bus).next, sm_w, "{}", mutant.name());
        }
    }
}
