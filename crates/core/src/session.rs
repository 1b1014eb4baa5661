//! Batch verification sessions that amortise engine state across
//! many runs.
//!
//! A [`Batch`] holds one [`EngineScratch`] — successor buffers, the
//! containment index, a recycled composite arena — and threads it
//! through any number of verification runs, so sweeps over whole
//! protocol libraries (the CLI's `check-all`, the mutation sweep, the
//! DSL suite) expand without steady-state allocation:
//!
//! ```
//! use ccv_core::{Batch, Verdict};
//! use ccv_model::protocols;
//!
//! let mut batch = Batch::new();
//! for spec in protocols::all_correct() {
//!     assert_eq!(batch.verify(&spec).verdict, Verdict::Verified);
//! }
//! ```
//!
//! Callers that only need verdicts and counts use
//! [`Batch::summarize`], which additionally recycles the run's arena
//! storage into the scratch pool. One-shot runs call
//! [`verify`](crate::verify()) or [`verify_with`](crate::verify_with)
//! instead.

use crate::composite::Composite;
use crate::engine::{expand_with, EngineScratch, Options};
use crate::verify::{verify_with_scratch, Verdict, VerificationReport};
use ccv_model::ProtocolSpec;
use ccv_observe::StopInfo;

/// Verdict-level result of a summary-only batch run: what a library
/// sweep needs, without the error renderings or the arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Name of the verified protocol.
    pub protocol: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Number of essential states at fixpoint.
    pub essential: usize,
    /// Rule firings during expansion.
    pub visits: usize,
    /// Why the run stopped early, when the verdict is
    /// [`Verdict::Inconclusive`] (`None` for completed runs).
    pub stopped: Option<StopInfo>,
}

/// A batch verification session: engine options plus one
/// [`EngineScratch`] reused across every run.
///
/// Verifying through a batch is observably identical to fresh
/// [`verify_with`](crate::verify_with) runs — scratch reuse only
/// recycles allocations.
#[derive(Debug, Default)]
pub struct Batch {
    opts: Options,
    scratch: EngineScratch,
}

impl Batch {
    /// A batch with default engine options.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// A batch carrying explicit engine options.
    pub fn with_options(opts: Options) -> Batch {
        Batch {
            opts,
            scratch: EngineScratch::new(),
        }
    }

    /// Verifies one protocol through the shared scratch, returning the
    /// full report.
    pub fn verify(&mut self, spec: &ProtocolSpec) -> VerificationReport {
        verify_with_scratch(spec, &self.opts, &mut self.scratch)
    }

    /// Expands one protocol and reduces the outcome to a
    /// [`RunSummary`], recycling the run's arena storage into the
    /// scratch pool. The cheapest way to sweep a protocol library for
    /// verdicts: no error path is rendered and nothing survives the
    /// call but the summary.
    pub fn summarize(&mut self, spec: &ProtocolSpec) -> RunSummary {
        let expansion = expand_with(
            spec,
            Composite::initial(spec),
            &self.opts,
            &mut self.scratch,
        );
        let verdict = crate::verify::Outcome::of_expansion(&expansion).verdict();
        let summary = RunSummary {
            protocol: spec.name().to_string(),
            verdict,
            essential: expansion.essential.len(),
            visits: expansion.visits,
            stopped: expansion.stopped.clone(),
        };
        self.scratch.recycle(expansion);
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify, verify_with};
    use ccv_model::protocols::{all_buggy, all_correct, illinois, illinois_missing_invalidation};
    use ccv_observe::{Counter, Gauge, Metrics, Phase};
    use std::sync::Arc;

    #[test]
    fn session_defaults_match_verify() {
        let report = verify(&illinois());
        assert_eq!(report.verdict, Verdict::Verified);
        assert_eq!(report.num_essential(), 5);
        assert_eq!(report.visits(), 22);
    }

    #[test]
    fn session_threads_sink_through_the_run() {
        let metrics = Arc::new(Metrics::new());
        let opts = Options::default().sink(metrics.clone() as Arc<_>);
        let report = verify_with(&illinois(), &opts);
        assert_eq!(report.verdict, Verdict::Verified);

        let snap = metrics.snapshot();
        assert_eq!(snap.counter(Counter::Visits), 22);
        assert_eq!(snap.gauge(Gauge::EssentialStates), Some(5));
        assert!(snap.counter(Counter::Expansions) > 0);
        assert!(snap.counter(Counter::ContainmentChecks) > 0);
        // Every verification phase was timed (>= 0 is trivially true,
        // so assert the enter/exit pairs actually closed: the phase
        // list in the export is driven by non-zero wall time, which a
        // sub-microsecond phase may round to — check Expand at least).
        assert!(snap.phase_nanos(Phase::Expand) > 0);
    }

    #[test]
    fn session_reports_errors_with_options() {
        let report = verify_with(
            &illinois_missing_invalidation(),
            &Options::default().stop_at_first_error(true),
        );
        assert_eq!(report.verdict, Verdict::Erroneous);
        assert_eq!(report.expansion.errors.len(), 1);
    }

    #[test]
    fn batch_matches_fresh_sessions_across_the_library() {
        let mut batch = Batch::new();
        for spec in all_correct() {
            let fresh = verify(&spec);
            let batched = batch.verify(&spec);
            assert_eq!(batched.verdict, fresh.verdict, "{}", spec.name());
            assert_eq!(batched.visits(), fresh.visits(), "{}", spec.name());
            assert_eq!(
                batched.num_essential(),
                fresh.num_essential(),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn summarize_agrees_with_full_reports_and_recycles() {
        let mut batch = Batch::new();
        for spec in all_correct() {
            let summary = batch.summarize(&spec);
            let full = verify(&spec);
            assert_eq!(summary.verdict, full.verdict, "{}", spec.name());
            assert_eq!(summary.visits, full.visits(), "{}", spec.name());
            assert_eq!(summary.essential, full.num_essential(), "{}", spec.name());
        }
        for (spec, _) in all_buggy() {
            assert_eq!(batch.summarize(&spec).verdict, Verdict::Erroneous);
        }
    }
}
