//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] names *sites* (stable string identifiers compiled
//! into the code, e.g. `checkpoint.write` or `client.connect`), and
//! for each site a fault *kind* plus a trigger window: fire starting
//! at the N-th time the site is reached, for M occurrences. Plans are
//! parsed from a compact spec string so they travel through CLI flags
//! and request options unchanged:
//!
//! ```text
//! site:kind[@after][xtimes][,site:kind…][,seed=N]
//! ```
//!
//! * `kind` — one of `io` (the operation fails with an I/O error),
//!   `torn` (a write is truncated mid-way but still published, so the
//!   reader must detect it), `panic` (the worker panics), `disconnect`
//!   (the peer socket drops mid-stream) and `slow` (the operation is
//!   delayed).
//! * `@after` — 1-based index of the first hit that fires (default 1:
//!   the very first time the site is reached).
//! * `xtimes` — how many consecutive hits fire (default 1); `x*`
//!   means every hit from `@after` on.
//! * `seed=N` — seeds the deterministic delay used by `slow` faults,
//!   so a plan replays identically across runs.
//!
//! Example: `cache.write:io@2,client.connect:disconnect x0` is
//! invalid (`x0`), while `cache.write:io@2,client.connect:io` injects
//! one I/O error on the second verdict-cache write and one connect
//! failure. A site outside [`SITES`] is refused, so a misspelt plan
//! cannot pass a drill by injecting nothing.
//!
//! Engines hold a [`FaultHandle`] — the same shape as
//! [`SinkHandle`](crate::event::SinkHandle): a cheap clone wrapping
//! `Option<Arc<…>>`, so a disabled handle costs one branch per site
//! and injects nothing. Every trigger decision is a deterministic
//! function of the plan and the per-rule hit counter — replaying the
//! same plan against the same workload fires the same faults.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every site compiled into ccv; [`FaultPlan::parse`] refuses others.
pub const SITES: &[&str] = &[
    "checkpoint.write",
    "enum.worker",
    "cache.write",
    "serve.accept",
    "serve.response",
    "client.connect",
    "client.read",
    "cli.out",
];

/// What goes wrong when a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with a synthetic I/O error.
    IoError,
    /// A write is truncated part-way but still published; the
    /// consumer must detect the torn file on read.
    TornWrite,
    /// The worker thread panics at the site.
    Panic,
    /// The peer connection is dropped mid-stream.
    Disconnect,
    /// The operation is delayed by a deterministic, seed-derived
    /// duration before proceeding normally.
    SlowRead,
}

impl FaultKind {
    /// The spec-string name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::IoError => "io",
            FaultKind::TornWrite => "torn",
            FaultKind::Panic => "panic",
            FaultKind::Disconnect => "disconnect",
            FaultKind::SlowRead => "slow",
        }
    }

    fn parse(name: &str) -> Option<FaultKind> {
        match name {
            "io" => Some(FaultKind::IoError),
            "torn" => Some(FaultKind::TornWrite),
            "panic" => Some(FaultKind::Panic),
            "disconnect" => Some(FaultKind::Disconnect),
            "slow" => Some(FaultKind::SlowRead),
            _ => None,
        }
    }
}

/// One `site:kind[@after][xtimes]` entry of a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// The site identifier the rule arms (exact match).
    pub site: String,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// 1-based hit index of the first firing.
    pub after: u64,
    /// Number of consecutive firings; `None` means every hit from
    /// `after` on.
    pub times: Option<u64>,
}

impl FaultRule {
    fn parse(entry: &str) -> Result<FaultRule, String> {
        let (site, rest) = entry
            .split_once(':')
            .ok_or_else(|| format!("fault rule '{entry}' lacks ':kind'"))?;
        if site.is_empty() {
            return Err(format!("fault rule '{entry}' has an empty site"));
        }
        if !SITES.contains(&site) {
            return Err(format!(
                "fault rule '{entry}': unknown site '{site}' (expected {})",
                SITES.join("|")
            ));
        }
        // rest = kind[@after][xtimes]; kind names contain no '@'/'x'
        // ambiguity because every kind name is letter-only and the
        // suffixes are anchored by '@' and a trailing 'x<digits|*>'.
        let (rest, times) = match rest.rsplit_once('x') {
            Some((head, "*")) => (head, None),
            Some((head, tail)) if tail.chars().all(|c| c.is_ascii_digit()) && !tail.is_empty() => {
                let t: u64 = tail
                    .parse()
                    .map_err(|e| format!("fault rule '{entry}': bad repeat count: {e}"))?;
                if t == 0 {
                    return Err(format!("fault rule '{entry}': repeat count must be >= 1"));
                }
                (head, Some(t))
            }
            _ => (rest, Some(1)),
        };
        let (kind_name, after) = match rest.split_once('@') {
            Some((k, a)) => {
                let after: u64 = a
                    .parse()
                    .map_err(|e| format!("fault rule '{entry}': bad '@after' index: {e}"))?;
                if after == 0 {
                    return Err(format!("fault rule '{entry}': '@after' is 1-based"));
                }
                (k, after)
            }
            None => (rest, 1),
        };
        let kind = FaultKind::parse(kind_name)
            .ok_or_else(|| format!("fault rule '{entry}': unknown kind '{kind_name}' (expected io|torn|panic|disconnect|slow)"))?;
        Ok(FaultRule {
            site: site.to_string(),
            kind,
            after,
            times,
        })
    }
}

/// A parsed, replayable set of fault rules plus the delay seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the deterministic `slow` delay (and anything else
    /// that wants plan-scoped pseudo-randomness).
    pub seed: u64,
    /// The armed rules, in spec order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses a comma-separated plan spec (see the module docs for
    /// the grammar). Whitespace around entries is ignored.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',') {
            let entry: String = entry.chars().filter(|c| !c.is_whitespace()).collect();
            let entry = entry.as_str();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|e| format!("fault plan: bad seed '{seed}': {e}"))?;
                continue;
            }
            plan.rules.push(FaultRule::parse(entry)?);
        }
        if plan.rules.is_empty() {
            return Err("fault plan names no rules".to_string());
        }
        Ok(plan)
    }
}

/// The armed injector: a plan plus per-rule hit counters.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Times each rule's site was reached.
    hits: Vec<AtomicU64>,
    /// Times each rule actually fired.
    fired: Vec<AtomicU64>,
}

impl FaultInjector {
    /// Arms `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let n = plan.rules.len();
        FaultInjector {
            plan,
            hits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            fired: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The plan this injector was armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Registers one hit of `site` against every matching rule and
    /// returns the fault to inject, if any fired. Deterministic: the
    /// decision depends only on the plan and this rule's hit count.
    pub fn fire(&self, site: &str) -> Option<FaultKind> {
        let mut result = None;
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            let hit = self.hits[i].fetch_add(1, Ordering::Relaxed) + 1;
            let in_window = hit >= rule.after
                && match rule.times {
                    Some(t) => hit < rule.after + t,
                    None => true,
                };
            if in_window {
                self.fired[i].fetch_add(1, Ordering::Relaxed);
                if result.is_none() {
                    result = Some(rule.kind);
                }
            }
        }
        result
    }

    /// Total number of fault firings so far, across all rules.
    pub fn fired_total(&self) -> u64 {
        self.fired.iter().map(|f| f.load(Ordering::Relaxed)).sum()
    }

    /// Deterministic delay for `slow` faults, derived from the plan
    /// seed: 5–36 ms, identical across replays of the same plan.
    pub fn slow_millis(&self) -> u64 {
        5 + (self.plan.seed.wrapping_mul(0x9e3779b97f4a7c15) >> 59)
    }
}

/// A cheap, cloneable handle that is either armed with a
/// [`FaultInjector`] or disabled. Mirrors
/// [`SinkHandle`](crate::event::SinkHandle): engines hold one and
/// probe their sites through it; a disabled handle is one `None`
/// branch per probe.
#[derive(Clone, Debug, Default)]
pub struct FaultHandle(Option<Arc<FaultInjector>>);

impl FaultHandle {
    /// A handle injecting nothing (the default everywhere).
    pub fn disabled() -> FaultHandle {
        FaultHandle(None)
    }

    /// Arms a handle with `plan`.
    pub fn new(plan: FaultPlan) -> FaultHandle {
        FaultHandle(Some(Arc::new(FaultInjector::new(plan))))
    }

    /// Parses `spec` and arms a handle with the result.
    pub fn from_spec(spec: &str) -> Result<FaultHandle, String> {
        Ok(FaultHandle::new(FaultPlan::parse(spec)?))
    }

    /// True when a plan is armed.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The armed injector, if any (for post-run reporting).
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.0.as_deref()
    }

    /// Probes `site`: registers a hit and returns the fault to
    /// inject, if one fired. `None` (at zero cost) when disabled.
    pub fn fire(&self, site: &str) -> Option<FaultKind> {
        self.0.as_ref()?.fire(site)
    }

    /// Probes `site` for the I/O-flavoured kinds: an [`IoError`]
    /// firing returns a synthetic error, a [`Panic`] firing panics,
    /// a [`SlowRead`] firing sleeps its deterministic delay and
    /// proceeds. Other kinds (and no firing) return `Ok`.
    ///
    /// [`IoError`]: FaultKind::IoError
    /// [`Panic`]: FaultKind::Panic
    /// [`SlowRead`]: FaultKind::SlowRead
    pub fn io(&self, site: &str) -> io::Result<()> {
        let Some(inj) = self.0.as_ref() else {
            return Ok(());
        };
        match inj.fire(site) {
            Some(FaultKind::IoError) => Err(injected_io_error(site)),
            Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
            Some(FaultKind::SlowRead) => {
                std::thread::sleep(std::time::Duration::from_millis(inj.slow_millis()));
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// The synthetic error every injected [`FaultKind::IoError`] carries;
/// the message always embeds the site so failures are attributable.
pub fn injected_io_error(site: &str) -> io::Error {
    io::Error::other(format!("injected fault: io error at {site}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let plan = FaultPlan::parse(
            "cache.write:io, checkpoint.write:torn@3 ,enum.worker:panic@2x4,client.read:slow x*,seed=7",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(
            plan.rules[0],
            FaultRule {
                site: "cache.write".into(),
                kind: FaultKind::IoError,
                after: 1,
                times: Some(1)
            }
        );
        assert_eq!(
            plan.rules[1],
            FaultRule {
                site: "checkpoint.write".into(),
                kind: FaultKind::TornWrite,
                after: 3,
                times: Some(1)
            }
        );
        assert_eq!(
            plan.rules[2],
            FaultRule {
                site: "enum.worker".into(),
                kind: FaultKind::Panic,
                after: 2,
                times: Some(4)
            }
        );
        assert_eq!(
            plan.rules[3],
            FaultRule {
                site: "client.read".into(),
                kind: FaultKind::SlowRead,
                after: 1,
                times: None
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "nocolon",
            ":io",
            "cli.out:unknownkind",
            "cli.out:io@0",
            "cli.out:io@x",
            "cli.out:iox0",
            "seed=abc",
            "seed=1",
        ] {
            assert!(
                FaultPlan::parse(bad).is_err(),
                "spec '{bad}' must be rejected"
            );
        }
    }

    #[test]
    fn unknown_sites_are_named_in_the_refusal() {
        let err = FaultPlan::parse("cli.out:io,enum.wroker:panic").unwrap_err();
        assert!(err.contains("unknown site 'enum.wroker'"), "{err}");
        for site in SITES {
            assert!(FaultPlan::parse(&format!("{site}:io")).is_ok(), "{site}");
        }
    }

    #[test]
    fn fires_inside_the_window_only() {
        let h = FaultHandle::from_spec("cache.write:io@2x2").unwrap();
        assert_eq!(h.fire("cache.write"), None);
        assert_eq!(h.fire("cache.write"), Some(FaultKind::IoError));
        assert_eq!(h.fire("cache.write"), Some(FaultKind::IoError));
        assert_eq!(h.fire("cache.write"), None);
        assert_eq!(h.fire("cli.out"), None);
        assert_eq!(h.injector().unwrap().fired_total(), 2);
    }

    #[test]
    fn star_fires_forever() {
        let h = FaultHandle::from_spec("cache.write:torn x*").unwrap();
        for _ in 0..10 {
            assert_eq!(h.fire("cache.write"), Some(FaultKind::TornWrite));
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = FaultHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(h.fire("anything"), None);
        assert!(h.io("anything").is_ok());
    }

    #[test]
    fn io_probe_maps_kinds() {
        let h = FaultHandle::from_spec("checkpoint.write:io").unwrap();
        let err = h.io("checkpoint.write").unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(h.io("checkpoint.write").is_ok(), "window exhausted");
        // Torn is a writer-side kind; io() ignores it.
        let h = FaultHandle::from_spec("cache.write:torn").unwrap();
        assert!(h.io("cache.write").is_ok());
    }

    #[test]
    #[should_panic(expected = "injected fault: panic")]
    fn io_probe_panics_on_panic_kind() {
        let h = FaultHandle::from_spec("cli.out:panic").unwrap();
        let _ = h.io("cli.out");
    }

    #[test]
    fn replay_is_deterministic() {
        let run = |spec: &str| {
            let h = FaultHandle::from_spec(spec).unwrap();
            (0..6).map(|_| h.fire("cache.write")).collect::<Vec<_>>()
        };
        assert_eq!(
            run("cache.write:io@3x2,seed=9"),
            run("cache.write:io@3x2,seed=9")
        );
    }
}
