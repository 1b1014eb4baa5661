//! Top-level verification entry points.
//!
//! Bundles the worklist expansion and the permissibility checks into a
//! single report: run [`verify`] on a [`ProtocolSpec`] and inspect the
//! [`Verdict`]. The report holds the run, not its views: a caller that
//! draws the global diagram (Fig. 4) builds it from the report's
//! expansion with [`global_graph`](crate::global_graph), and one that
//! prints findings renders those it prints from `expansion.errors`.

use crate::composite::Composite;
use crate::engine::{expand_with, EngineScratch, Expansion, Options};
use ccv_model::ProtocolSpec;
use core::fmt;
use std::time::Duration;

/// Outcome of a verification run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable composite state is permissible and every load
    /// returns the latest value: the protocol preserves data
    /// consistency for any number of caches.
    Verified,
    /// At least one erroneous state or stale access is reachable.
    Erroneous,
    /// The run stopped before reaching a fixpoint: its visit budget,
    /// deadline or memory cap tripped, it was cancelled, or a worker
    /// panicked (see [`Outcome::Inconclusive`]). Nothing is claimed
    /// either way.
    Inconclusive,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Verified => f.write_str("VERIFIED"),
            Verdict::Erroneous => f.write_str("ERRONEOUS"),
            Verdict::Inconclusive => f.write_str("INCONCLUSIVE"),
        }
    }
}

/// Detailed outcome of a verification run: the [`Verdict`] plus, for
/// runs that stopped early, *why* and how far the run got. An
/// inconclusive outcome is never conflated with "verified" — it
/// renders its reason and is mapped to a distinct CLI exit code.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The expansion reached its fixpoint with no violations.
    Verified,
    /// At least one erroneous state or stale access is reachable.
    Erroneous,
    /// The run stopped early (budget, deadline, memory cap,
    /// cancellation or a worker panic) before reaching a fixpoint.
    Inconclusive {
        /// Human-readable stop reason (cause plus any detail, e.g. a
        /// panic message).
        reason: String,
        /// States still awaiting expansion when the run stopped.
        frontier_size: usize,
        /// Visits performed before the stop.
        visits: usize,
        /// Wall-clock time from engine start to the stop.
        elapsed: Duration,
    },
}

impl Outcome {
    /// The coarse verdict this outcome maps to.
    pub fn verdict(&self) -> Verdict {
        match self {
            Outcome::Verified => Verdict::Verified,
            Outcome::Erroneous => Verdict::Erroneous,
            Outcome::Inconclusive { .. } => Verdict::Inconclusive,
        }
    }

    /// Builds the outcome for `expansion`: early-stopped runs are
    /// inconclusive (whatever partial findings they carry), otherwise
    /// the error list decides.
    pub fn of_expansion(expansion: &Expansion) -> Outcome {
        match &expansion.stopped {
            Some(info) => Outcome::Inconclusive {
                reason: info.describe(),
                frontier_size: info.frontier,
                visits: expansion.visits,
                elapsed: info.elapsed,
            },
            None if expansion.truncated => Outcome::Inconclusive {
                // Defensive: every truncated run should carry stop
                // info, but render honestly if one does not.
                reason: "stopped early".to_string(),
                frontier_size: 0,
                visits: expansion.visits,
                elapsed: Duration::ZERO,
            },
            None if expansion.errors.is_empty() => Outcome::Verified,
            None => Outcome::Erroneous,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Inconclusive {
                reason,
                frontier_size,
                visits,
                elapsed,
            } => write!(
                f,
                "INCONCLUSIVE: {reason} after {visits} visits ({frontier_size} states still pending, {:.3}s elapsed)",
                elapsed.as_secs_f64()
            ),
            other => other.verdict().fmt(f),
        }
    }
}

/// A complete verification report: the run and its verdict, the single
/// result type shared by `verify`, the request API and the CLI's
/// report rendering.
#[derive(Clone, Debug)]
pub struct VerificationReport {
    /// Name of the verified protocol.
    pub protocol: String,
    /// The raw expansion (arena, essential states, visit counts).
    pub expansion: Expansion,
    /// The verdict.
    pub verdict: Verdict,
    /// The detailed outcome behind the verdict; for inconclusive runs
    /// this carries the stop reason, frontier size and elapsed time.
    pub outcome: Outcome,
}

impl VerificationReport {
    /// Number of essential states.
    pub fn num_essential(&self) -> usize {
        self.expansion.essential.len()
    }

    /// Total state visits during expansion.
    pub fn visits(&self) -> usize {
        self.expansion.visits
    }

    /// One-line summary suitable for tables. Inconclusive runs render
    /// their stop reason so a partial result is never mistaken for a
    /// completed one.
    pub fn summary(&self) -> String {
        let base = format!(
            "{}: {} ({} essential states, {} visits)",
            self.protocol,
            self.verdict,
            self.num_essential(),
            self.visits()
        );
        match &self.outcome {
            Outcome::Inconclusive { reason, .. } => format!("{base} [{reason}]"),
            _ => base,
        }
    }
}

/// Verifies `spec` with default options.
pub fn verify(spec: &ProtocolSpec) -> VerificationReport {
    verify_with(spec, &Options::default())
}

/// Verifies `spec` with explicit engine options.
pub fn verify_with(spec: &ProtocolSpec, opts: &Options) -> VerificationReport {
    verify_with_scratch(spec, opts, &mut EngineScratch::new())
}

/// Verifies `spec` through caller-owned [`EngineScratch`] — the batch
/// entry point used by [`crate::session::Batch`].
pub fn verify_with_scratch(
    spec: &ProtocolSpec,
    opts: &Options,
    scratch: &mut EngineScratch,
) -> VerificationReport {
    let expansion = expand_with(spec, Composite::initial(spec), opts, scratch);
    let outcome = Outcome::of_expansion(&expansion);
    VerificationReport {
        protocol: spec.name().to_string(),
        expansion,
        verdict: outcome.verdict(),
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccv_model::protocols::{all_buggy, all_correct};

    #[test]
    fn every_correct_protocol_verifies() {
        for spec in all_correct() {
            let v = verify(&spec);
            assert_eq!(
                v.verdict,
                Verdict::Verified,
                "{} failed: {:?}",
                spec.name(),
                v.expansion.errors.first().map(|f| f.descriptions(&spec))
            );
            assert!(v.num_essential() >= 2, "{}", spec.name());
        }
    }

    #[test]
    fn every_buggy_mutant_is_rejected() {
        for (spec, why) in all_buggy() {
            let v = verify(&spec);
            assert_eq!(
                v.verdict,
                Verdict::Erroneous,
                "{} should be rejected ({why})",
                spec.name()
            );
            let f = &v.expansion.errors[0];
            assert!(!f.descriptions(&spec).is_empty(), "{}", spec.name());
            let path = v.expansion.render_path(&spec, f.node);
            assert!(path.contains("-->"), "{}: {path}", spec.name());
        }
    }

    #[test]
    fn summary_mentions_protocol_and_verdict() {
        let spec = ccv_model::protocols::illinois();
        let v = verify(&spec);
        let s = v.summary();
        assert!(s.contains("Illinois"));
        assert!(s.contains("VERIFIED"));
        assert!(s.contains("5 essential states"));
        assert_eq!(v.outcome, Outcome::Verified);
    }

    #[test]
    fn budget_stopped_run_reports_inconclusive_outcome() {
        let spec = ccv_model::protocols::illinois();
        let v = verify_with(&spec, &Options::default().max_visits(3));
        assert_eq!(v.verdict, Verdict::Inconclusive);
        match &v.outcome {
            Outcome::Inconclusive { reason, visits, .. } => {
                assert!(reason.contains("budget"), "reason: {reason}");
                assert_eq!(*visits, v.visits());
            }
            other => panic!("expected inconclusive outcome, got {other:?}"),
        }
        let s = v.summary();
        assert!(s.contains("INCONCLUSIVE"));
        assert!(s.contains("budget"), "summary renders the reason: {s}");
        assert_eq!(v.outcome.verdict(), Verdict::Inconclusive);
    }
}
