//! Deterministic, seeded fault injection for robustness testing (compiled
//! only with the non-default `fault-injection` cargo feature).
//!
//! A [`FaultPlan`] describes, per fault kind, a per-site-visit firing
//! probability and a hard cap on total fires; installing it on a solver with
//! [`SmtSolver::install_faults`](crate::SmtSolver::install_faults) arms a
//! [`FaultInjector`] whose pseudo-random stream is a fixed-seed SplitMix64 —
//! the same plan against the same query replays the same faults, so every
//! failure found by the randomized suite reproduces exactly.
//!
//! Four fault kinds are injected at fixed sites inside the solver:
//!
//! - **Clock jumps** — the run governor's view of `Instant::now` accumulates
//!   random forward skew, exercising deadline handling (a jump can fire a
//!   deadline "early"; skew is monotone so time never runs backwards).
//! - **Spurious cancellations** — the governor's cooperative checkpoint
//!   reports `Cancelled` without the [`CancelToken`](crate::CancelToken)
//!   being touched.
//! - **Forced theory-verdict divergence** — a feasible simplex verdict is
//!   replaced by "diverged", driving the tableau-rebuild recovery path.
//! - **NaN/inf perturbation** — a model value is corrupted *before* model
//!   validation, driving the validate-then-rebuild recovery path.
//!
//! Every fire is bounded by the plan's `max_fires`, so recovery paths that
//! retry (rebuild, re-solve) always terminate. The invariant enforced by the
//! suite in `crates/smt/tests/fault_injection.rs`: a faulted run returns the
//! correct verdict or a typed interruption — never a wrong `Sat`/`Unsat`,
//! never a panic, never a hang.

use std::time::Duration;

/// Firing policy for one fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability of firing per site visit, in `[0, 1]`.
    pub rate: f64,
    /// Hard cap on total fires over the injector's lifetime. Bounds every
    /// fault-driven retry loop.
    pub max_fires: u32,
}

impl FaultSpec {
    /// A kind that never fires.
    pub fn off() -> Self {
        Self::default()
    }

    /// Fires with probability `rate` per visit, at most `max_fires` times.
    pub fn new(rate: f64, max_fires: u32) -> Self {
        Self { rate, max_fires }
    }
}

/// A deterministic schedule of faults to inject into a solver run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's SplitMix64 stream.
    pub seed: u64,
    /// Simulated forward clock jumps at deadline checks.
    pub clock_jump: FaultSpec,
    /// Spurious `Cancelled` reports at governor checkpoints.
    pub spurious_cancel: FaultSpec,
    /// Feasible-to-diverged theory verdict flips (drives tableau rebuilds).
    pub forced_divergence: FaultSpec,
    /// NaN/inf corruption of model values ahead of model validation.
    pub nan_perturbation: FaultSpec,
}

impl FaultPlan {
    /// A plan with every kind disabled.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            clock_jump: FaultSpec::off(),
            spurious_cancel: FaultSpec::off(),
            forced_divergence: FaultSpec::off(),
            nan_perturbation: FaultSpec::off(),
        }
    }

    /// A plan arming **all four** kinds with the same rate and per-kind fire
    /// cap — the shape the randomized suite sweeps.
    pub fn all(seed: u64, rate: f64, max_fires: u32) -> Self {
        let spec = FaultSpec::new(rate, max_fires);
        Self {
            seed,
            clock_jump: spec,
            spurious_cancel: spec,
            forced_divergence: spec,
            nan_perturbation: spec,
        }
    }
}

/// Fault kinds, used as fire-count indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    ClockJump = 0,
    SpuriousCancel = 1,
    ForcedDivergence = 2,
    NanPerturbation = 3,
}

/// Live injector state: the plan plus the deterministic stream, fire counts
/// and accumulated clock skew. Owned by the solver, which lends it to each
/// check's governor and takes it back when the check ends.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// SplitMix64 state (inlined: the solver crate is dependency-free).
    rng: u64,
    fired: [u32; 4],
    skew: Duration,
}

impl FaultInjector {
    /// Arms a plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            rng: plan.seed,
            fired: [0; 4],
            skew: Duration::ZERO,
        }
    }

    /// Total fires across all kinds (test-side evidence that a sweep actually
    /// exercised the fault paths).
    pub fn total_fires(&self) -> u32 {
        self.fired.iter().sum()
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea & Flood) — matches the test generators.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn fire(&mut self, kind: Kind, spec: FaultSpec) -> bool {
        if spec.rate <= 0.0 || self.fired[kind as usize] >= spec.max_fires {
            return false;
        }
        // Always draw, so disabling one kind's cap does not shift the stream
        // consumed by the others within a visit sequence.
        let roll = self.unit();
        if roll < spec.rate {
            self.fired[kind as usize] += 1;
            true
        } else {
            false
        }
    }

    /// Current simulated clock skew; visiting this site may fire a jump of
    /// 1–500 ms. Skew only grows, preserving clock monotonicity.
    pub(crate) fn clock_skew(&mut self) -> Duration {
        let spec = self.plan.clock_jump;
        if self.fire(Kind::ClockJump, spec) {
            let jump_ms = 1 + self.next_u64() % 500;
            self.skew += Duration::from_millis(jump_ms);
        }
        self.skew
    }

    /// Whether this governor checkpoint spuriously reports cancellation.
    pub(crate) fn spurious_cancel(&mut self) -> bool {
        let spec = self.plan.spurious_cancel;
        self.fire(Kind::SpuriousCancel, spec)
    }

    /// Whether this feasible theory verdict is flipped to "diverged".
    pub(crate) fn forced_divergence(&mut self) -> bool {
        let spec = self.plan.forced_divergence;
        self.fire(Kind::ForcedDivergence, spec)
    }

    /// Possibly corrupts a model value with NaN or ±inf.
    pub(crate) fn perturb(&mut self, value: f64) -> f64 {
        let spec = self.plan.nan_perturbation;
        if !self.fire(Kind::NanPerturbation, spec) {
            return value;
        }
        match self.next_u64() % 3 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_are_deterministic_and_bounded() {
        let plan = FaultPlan::all(42, 0.5, 3);
        let run = || {
            let mut injector = FaultInjector::new(plan);
            let fires: Vec<bool> = (0..64).map(|_| injector.spurious_cancel()).collect();
            (fires, injector.total_fires())
        };
        let (a, fires_a) = run();
        let (b, fires_b) = run();
        assert_eq!(a, b, "same seed must replay the same faults");
        assert_eq!(fires_a, fires_b);
        assert!(fires_a <= 3, "per-kind cap must bound fires");
        assert!(fires_a > 0, "rate 0.5 over 64 visits must fire");
    }

    #[test]
    fn clock_skew_is_monotone() {
        let mut injector = FaultInjector::new(FaultPlan::all(7, 1.0, 8));
        let mut last = Duration::ZERO;
        for _ in 0..16 {
            let skew = injector.clock_skew();
            assert!(skew >= last);
            last = skew;
        }
        assert!(last > Duration::ZERO);
    }

    #[test]
    fn quiet_plan_never_fires() {
        let mut injector = FaultInjector::new(FaultPlan::quiet(9));
        for _ in 0..32 {
            assert!(!injector.spurious_cancel());
            assert!(!injector.forced_divergence());
            assert_eq!(injector.clock_skew(), Duration::ZERO);
            assert_eq!(injector.perturb(1.5), 1.5);
        }
        assert_eq!(injector.total_fires(), 0);
    }

    #[test]
    fn perturbation_yields_non_finite_values() {
        let mut injector = FaultInjector::new(FaultPlan::all(3, 1.0, 100));
        let corrupted = (0..16)
            .map(|_| injector.perturb(2.0))
            .filter(|v| !v.is_finite())
            .count();
        assert!(corrupted > 0);
    }
}
