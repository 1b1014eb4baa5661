//! Split-transaction MESI — Illinois-style sharing detection on a
//! **non-atomic bus**.
//!
//! The stable states are the MESI quartet (`Invalid`, `Exclusive`,
//! `Shared`, `Modified`); the transients mirror [`super::split_msi`]:
//! `IS_D` (read miss in flight), `IM_D` (write miss in flight) and
//! `SM_W` (upgrade in flight, clean copy held).
//!
//! The split bus makes the sharing-detection characteristic *timing
//! sensitive*: whether a read miss fills `Exclusive` or `Shared` is
//! decided by the copies present when the transaction **completes**,
//! not when the processor requested it. A cache that issues a read
//! miss while alone but is overtaken by another read miss must fill
//! `Shared` — the verifier explores both interleavings because the
//! completion outcome is evaluated against the context at grant time.

use crate::ProtocolSpec;

/// The split-transaction MESI protocol, parsed from
/// `protocols/split-mesi.ccv`. Snoops transfer cache to cache as in
/// Illinois.
pub fn split_mesi() -> ProtocolSpec {
    super::library("split-mesi")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusOp, GlobalCtx, ProcEvent};

    #[test]
    fn builds_with_transients_and_sharing() {
        let p = split_mesi();
        assert_eq!(p.num_states(), 7);
        assert!(p.has_transients());
        assert!(p.uses_sharing_detection());
    }

    #[test]
    fn read_completion_depends_on_grant_time_context() {
        let p = split_mesi();
        let is_d = p.state_by_name("IS_D").unwrap();
        let ex = p.state_by_name("E").unwrap();
        let sh = p.state_by_name("S").unwrap();
        assert_eq!(
            p.outcome(is_d, ProcEvent::Complete, GlobalCtx::ALONE).next,
            ex
        );
        assert_eq!(
            p.outcome(is_d, ProcEvent::Complete, GlobalCtx::SHARED_CLEAN)
                .next,
            sh
        );
        assert_eq!(
            p.outcome(is_d, ProcEvent::Complete, GlobalCtx::OWNED_ELSEWHERE)
                .next,
            sh
        );
    }

    #[test]
    fn upgrade_conversion_mirrors_split_msi() {
        let p = split_mesi();
        let sm_w = p.state_by_name("SM_W").unwrap();
        let im_d = p.state_by_name("IM_D").unwrap();
        assert_eq!(p.snoop(sm_w, BusOp::ReadX).next, im_d);
        assert_eq!(p.snoop(sm_w, BusOp::Upgrade).next, im_d);
    }
}
