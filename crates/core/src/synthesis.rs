use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cps_detectors::ThresholdSpec;
use cps_models::Benchmark;
use cps_smt::{InterruptReason, SmtError, SolverStats};

use crate::{
    partial_to_spec, AttackSynthesizer, PartialThreshold, SynthesisConfig, SynthesizedAttack,
};

/// Smallest threshold value the synthesis algorithms will install. A floor
/// avoids the degenerate "threshold zero" detector (which alarms on every
/// sample, including pure noise) when a counterexample attack happens to
/// produce a numerically zero residue at the chosen instant.
pub(crate) const MIN_THRESHOLD: f64 = 1e-6;

/// Errors of the CEGIS threshold-synthesis loops.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// An Algorithm 1 query failed for a reason other than a resource
    /// interruption (interruptions degrade gracefully into a report with
    /// [`ConvergenceStatus::Interrupted`] instead of erroring).
    Solver(SmtError),
    /// A panic escaped a synthesis run and was caught at the run boundary.
    /// The warm solver is discarded so the next run rebuilds it from the
    /// symbolic unrolling; the payload's message is preserved for diagnosis.
    Panicked(String),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Solver(err) => write!(f, "attack-synthesis query failed: {err}"),
            SynthesisError::Panicked(message) => {
                write!(
                    f,
                    "synthesis run panicked (solver state discarded): {message}"
                )
            }
        }
    }
}

impl Error for SynthesisError {}

impl From<SmtError> for SynthesisError {
    fn from(err: SmtError) -> Self {
        SynthesisError::Solver(err)
    }
}

/// How a threshold-synthesis run ended (recorded in
/// [`SynthesisReport::status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConvergenceStatus {
    /// The final query returned an `UNSAT` certificate at the full analysis
    /// horizon: no stealthy attack remains.
    Converged,
    /// The round limit stopped the loop before a certificate was obtained.
    RoundLimit,
    /// A counterexample admitted no progress (every residue numerically
    /// zero, or no staircase cut can exclude it); looping further would
    /// re-derive the same counterexample forever.
    Stalled,
    /// A query was interrupted — deadline, cancellation or a search cap —
    /// and the loop degraded gracefully: every round completed before the
    /// interruption is kept and the report carries the best-so-far
    /// thresholds.
    Interrupted {
        /// The CEGIS round whose query was interrupted (0 = the initial
        /// undefended-loop query).
        round: usize,
        /// Which budget axis tripped.
        reason: InterruptReason,
    },
}

impl ConvergenceStatus {
    /// `true` for [`ConvergenceStatus::Converged`].
    pub fn is_converged(self) -> bool {
        matches!(self, ConvergenceStatus::Converged)
    }
}

/// Runs `job` inside a synthesis run boundary, the one that both CEGIS loops
/// and the static bisection share. [`SynthesisConfig::timeout`] is armed as
/// an absolute deadline on the synthesizer's budget (keeping an earlier
/// deadline already installed there) and the saved budget is restored
/// afterwards. A panic in `job` is caught, the warm solver is discarded (the
/// next query rebuilds it from the symbolic unrolling) and the panic
/// surfaces as [`SynthesisError::Panicked`].
pub(crate) fn run_guarded<T>(
    synthesizer: &AttackSynthesizer<'_>,
    job: impl FnOnce() -> Result<T, SynthesisError>,
) -> Result<T, SynthesisError> {
    let saved = synthesizer.budget();
    if let Some(timeout) = synthesizer.config().timeout {
        let deadline = Instant::now() + timeout;
        let deadline = saved.deadline().map_or(deadline, |d| d.min(deadline));
        synthesizer.set_budget(saved.with_deadline(deadline));
    }
    let outcome = catch_unwind(AssertUnwindSafe(job));
    synthesizer.set_budget(saved);
    outcome.unwrap_or_else(|payload| {
        synthesizer.reset_warm_solver();
        Err(SynthesisError::Panicked(panic_message(payload)))
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Result of a threshold-synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisReport {
    /// The synthesised per-instant thresholds (`None` = no check there).
    pub partial: PartialThreshold,
    /// Number of CEGIS rounds (counterexample queries after the initial one).
    pub rounds: usize,
    /// Number of counterexample attacks that were found and eliminated.
    pub attacks_eliminated: usize,
    /// `true` when the final query proved that no stealthy attack remains —
    /// i.e. the run ended on a per-round **UNSAT certificate** at the full
    /// analysis horizon. Equivalent to `status.is_converged()`; kept as a
    /// field for ergonomic filtering.
    pub converged: bool,
    /// How the run ended: certificate, round limit, stall, or a typed
    /// interruption with the round it hit. A non-converged report still
    /// carries the best-so-far thresholds of every completed round.
    pub status: ConvergenceStatus,
    /// Solver statistics accumulated over every Algorithm 1 query of the run
    /// (including the certifying final UNSAT query), for perf attribution of
    /// the CEGIS loop as a whole.
    pub solver_stats: SolverStats,
    /// Per-query statistics in execution order (index 0 is the initial
    /// undefended-loop query). An interrupted query still contributes its
    /// entry — the work done before the trip is attributable.
    pub round_stats: Vec<SolverStats>,
}

impl SynthesisReport {
    /// The synthesised thresholds as a detector-ready [`ThresholdSpec`]
    /// (unchecked instants become `+∞`).
    pub fn threshold_spec(&self) -> ThresholdSpec {
        partial_to_spec(&self.partial)
    }

    /// `true` when the synthesised vector is monotonically decreasing over the
    /// *checked* instants — the structural property both algorithms maintain.
    pub fn is_monotone_decreasing(&self) -> bool {
        let values: Vec<f64> = self.partial.iter().filter_map(|v| *v).collect();
        values.windows(2).all(|w| w[1] <= w[0] + 1e-9)
    }
}

/// Convenience alias for the result of a synthesis run.
pub type SynthesisOutcome = Result<SynthesisReport, SynthesisError>;

/// The CEGIS loop of Algorithms 2 and 3, which differ only in `update`.
///
/// Round 0 asks Algorithm 1 for an attack on the monitors alone; round
/// `r ≥ 1` asks under the thresholds built so far. Each attack found is
/// passed to `update(round, thresholds, attack)`, which tightens the
/// thresholds so that they detect it and returns `false` when it cannot
/// (round 0's update always succeeds). The loop ends on the first `UNSAT`
/// ([`ConvergenceStatus::Converged`]), a failed update
/// ([`ConvergenceStatus::Stalled`]), an interrupted query, or when round
/// `max_rounds + 1` would start ([`ConvergenceStatus::RoundLimit`]).
/// `rounds` counts the rounds whose query was decided, round 0 excluded.
pub(crate) fn run_cegis(
    synthesizer: &AttackSynthesizer<'_>,
    max_rounds: usize,
    mut update: impl FnMut(usize, &mut PartialThreshold, &SynthesizedAttack) -> bool,
) -> SynthesisOutcome {
    run_guarded(synthesizer, || {
        let mut partial: PartialThreshold = vec![None; synthesizer.horizon()];
        let mut attacks = 0;
        let mut solver_stats = SolverStats::default();
        let mut round_stats = Vec::new();
        let mut round = 0;
        let (rounds, status) = loop {
            if round > max_rounds {
                break (max_rounds, ConvergenceStatus::RoundLimit);
            }
            let result = synthesizer.synthesize((round > 0).then_some(partial.as_slice()));
            // The per-query statistics are recorded even for an interrupted
            // query (the solver sets them before unwinding), so interrupted
            // work is attributable rather than silently discarded.
            let last = synthesizer.last_solver_stats();
            solver_stats.absorb(&last);
            round_stats.push(last);
            match result {
                Ok(Some(attack)) => {
                    attacks += 1;
                    if !update(round, &mut partial, &attack) {
                        break (round, ConvergenceStatus::Stalled);
                    }
                }
                Ok(None) => break (round, ConvergenceStatus::Converged),
                Err(SmtError::Interrupted { reason, .. }) => {
                    let status = ConvergenceStatus::Interrupted { round, reason };
                    break (round.saturating_sub(1), status);
                }
                Err(err) => return Err(err.into()),
            }
            round += 1;
        };
        Ok(SynthesisReport {
            partial,
            rounds,
            attacks_eliminated: attacks,
            converged: status.is_converged(),
            status,
            solver_stats,
            round_stats,
        })
    })
}

/// Applies the convergence margin when a CEGIS step installs a threshold at
/// a counterexample residue value (see
/// [`SynthesisConfig::convergence_margin`]).
pub(crate) fn shrink(synthesizer: &AttackSynthesizer<'_>, value: f64) -> f64 {
    (value * (1.0 - synthesizer.config().convergence_margin)).max(MIN_THRESHOLD)
}

/// Algorithm 2 — pivot-based threshold synthesis.
///
/// Starting from the undefended loop, the algorithm repeatedly asks
/// Algorithm 1 for a stealthy successful attack, then installs or tightens a
/// threshold at a *pivot* instant derived from that attack's residues:
///
/// - **Case 1a** — a new threshold before an existing one, at the instant with
///   the largest residue exceeding that existing threshold;
/// - **Case 1b** — a new threshold after the existing ones, at the instant
///   with the largest residue that still respects monotonicity;
/// - **Case 1c** — when no new instant helps, the existing threshold whose
///   value is closest to the attack's residue is reduced to that residue (and
///   later thresholds are clamped to keep the vector monotonically
///   decreasing).
///
/// The loop terminates when Algorithm 1 proves no stealthy attack remains.
///
/// Every round's query runs on **one** long-lived solver held by the
/// underlying [`AttackSynthesizer`]: the round-invariant encoding is asserted
/// once and each round's threshold constraints go through
/// [`cps_smt::SmtSolver::check_assuming`], so the per-round encoding cost
/// drops to the threshold atoms alone. The verdicts, models and synthesised
/// thresholds are bit-identical to a fresh solver per round, which measured
/// 1.2–1.6× slower on the Fig. 1 pipeline;
/// [`SynthesisReport::solver_stats`]'s `scopes_reused` counts the warm-served
/// rounds.
#[derive(Debug)]
pub struct PivotSynthesizer<'a> {
    synthesizer: AttackSynthesizer<'a>,
    max_rounds: usize,
}

impl<'a> PivotSynthesizer<'a> {
    /// Default bound on the number of CEGIS rounds.
    pub const DEFAULT_MAX_ROUNDS: usize = 64;

    /// Creates the synthesizer for a benchmark.
    pub fn new(benchmark: &'a Benchmark, config: SynthesisConfig) -> Self {
        Self {
            synthesizer: AttackSynthesizer::new(benchmark, config),
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
        }
    }

    /// Overrides the round limit (builder style).
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds.max(1);
        self
    }

    /// The underlying Algorithm 1 instance.
    pub fn attack_synthesizer(&self) -> &AttackSynthesizer<'a> {
        &self.synthesizer
    }

    /// Runs the CEGIS loop.
    ///
    /// A [`SynthesisConfig::timeout`] (or any budget installed via
    /// [`AttackSynthesizer::set_budget`]) degrades gracefully: an interrupted
    /// query ends the run with [`ConvergenceStatus::Interrupted`] and the
    /// best-so-far thresholds of every completed round. Panics anywhere in
    /// the run are caught at this boundary, the warm solver is discarded (the
    /// next run rebuilds it from the symbolic unrolling), and the panic
    /// surfaces as [`SynthesisError::Panicked`].
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Solver`] for non-interruption solver failures (e.g.
    /// a non-finite assertion) and [`SynthesisError::Panicked`] for a caught
    /// panic. Resource interruptions are **not** errors.
    pub fn run(&self) -> SynthesisOutcome {
        run_cegis(&self.synthesizer, self.max_rounds, |round, th, attack| {
            if round == 0 {
                // Lines 4–5: pivot at the instant of maximum residue.
                let (pivot, value) = attack.pivot();
                th[pivot] = Some(shrink(&self.synthesizer, value));
                return true;
            }
            // Fails only when every residue of the counterexample is
            // numerically zero: no threshold can exclude it (see
            // `MIN_THRESHOLD`).
            let z = &attack.residue_norms;
            self.case_1a(th, z) || self.case_1b(th, z) || self.case_1c(th, z)
        })
    }

    /// Largest existing threshold strictly after instant `i` (for the
    /// monotonicity check when inserting a new threshold at `i`).
    fn max_after(th: &[Option<f64>], i: usize) -> f64 {
        th.iter().skip(i + 1).filter_map(|v| *v).fold(0.0, f64::max)
    }

    /// Smallest existing threshold strictly before instant `i`.
    fn min_before(th: &[Option<f64>], i: usize) -> f64 {
        th.iter()
            .take(i)
            .filter_map(|v| *v)
            .fold(f64::INFINITY, f64::min)
    }

    /// Case 1a: a new threshold before an existing one, at the unchecked
    /// instant with the largest residue that reaches the existing threshold.
    fn case_1a(&self, th: &mut PartialThreshold, z: &[f64]) -> bool {
        let horizon = th.len();
        for p in 0..horizon {
            let Some(th_p) = th[p] else { continue };
            let candidate = (0..p)
                .filter(|k| th[*k].is_none() && z[*k] >= th_p && z[*k] > MIN_THRESHOLD)
                .max_by(|a, b| z[*a].total_cmp(&z[*b]));
            if let Some(i) = candidate {
                let value = shrink(&self.synthesizer, z[i])
                    .min(Self::min_before(th, i))
                    .max(MIN_THRESHOLD);
                if value >= Self::max_after(th, i) {
                    th[i] = Some(value);
                    return true;
                }
            }
        }
        false
    }

    /// Case 1b: a new threshold after the existing ones, at the unchecked
    /// instant with the largest residue, provided monotonicity survives.
    fn case_1b(&self, th: &mut PartialThreshold, z: &[f64]) -> bool {
        let horizon = th.len();
        for p in 0..horizon {
            if th[p].is_none() {
                continue;
            }
            let candidate = ((p + 1)..horizon)
                .filter(|k| th[*k].is_none() && z[*k] > MIN_THRESHOLD)
                .max_by(|a, b| z[*a].total_cmp(&z[*b]));
            if let Some(i) = candidate {
                let later_ok = ((i + 1)..horizon).all(|k| th[k].map_or(true, |v| z[i] >= v));
                if later_ok {
                    let value = shrink(&self.synthesizer, z[i])
                        .min(Self::min_before(th, i))
                        .max(MIN_THRESHOLD);
                    th[i] = Some(value);
                    return true;
                }
            }
        }
        false
    }

    /// Case 1c: reduce the threshold whose value is closest to the attack's
    /// residue at that instant ("minimum effort"), then clamp later
    /// thresholds to keep the vector monotonically decreasing.
    ///
    /// Only instants whose residue is large enough that the reduced threshold
    /// actually detects the current counterexample are candidates — otherwise
    /// the CEGIS loop would admit the same counterexample forever (a corner
    /// case the paper's pseudocode leaves implicit).
    fn case_1c(&self, th: &mut PartialThreshold, z: &[f64]) -> bool {
        let horizon = th.len();
        let candidate = (0..horizon)
            .filter(|k| z[*k] >= MIN_THRESHOLD)
            .filter(|k| th[*k].map_or(true, |v| v > shrink(&self.synthesizer, z[*k])))
            .min_by(|a, b| {
                let da = th[*a].unwrap_or(f64::INFINITY) - z[*a];
                let db = th[*b].unwrap_or(f64::INFINITY) - z[*b];
                da.total_cmp(&db)
            });
        let Some(i) = candidate else { return false };
        let value = shrink(&self.synthesizer, z[i]).min(Self::min_before(th, i));
        th[i] = Some(value);
        for k in (i + 1)..horizon {
            if let Some(v) = th[k] {
                if v > value {
                    th[k] = Some(value);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_control::ResidueNorm;
    use cps_detectors::{Detector, ThresholdDetector};

    /// Configuration used by the CEGIS unit tests: a larger convergence margin
    /// keeps the round count small enough for debug-mode test runs.
    fn test_config() -> SynthesisConfig {
        SynthesisConfig {
            convergence_margin: 0.25,
            ..SynthesisConfig::default()
        }
    }

    #[test]
    fn pivot_synthesis_secures_the_trajectory_benchmark() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let synthesizer = PivotSynthesizer::new(&benchmark, test_config()).with_max_rounds(400);
        let report = synthesizer.run().expect("synthesis runs");
        assert!(report.converged, "synthesis should converge");
        assert!(report.attacks_eliminated >= 1);
        assert!(report.is_monotone_decreasing());
        assert!(
            report.partial.iter().any(|v| v.is_some()),
            "at least one threshold must be installed"
        );

        // No stealthy attack remains under the synthesised thresholds.
        let attack_synth = synthesizer.attack_synthesizer();
        assert!(attack_synth
            .synthesize(Some(&report.partial))
            .unwrap()
            .is_none());

        // The attack found for the undefended loop is detected by the detector.
        let undefended = attack_synth.synthesize(None).unwrap().unwrap();
        let detector = ThresholdDetector::new(report.threshold_spec(), ResidueNorm::Linf);
        assert!(
            detector.detects(&undefended.trace),
            "synthesised detector must catch the undefended attack"
        );
    }

    /// A run stopped by its round limit `n` reports `n` rounds after `n + 1`
    /// queries, each of which found an attack. Algorithm 3 is stopped in
    /// step formation at limits 1 and 5 and in step reduction at 20.
    #[test]
    fn round_limit_is_honoured() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let checked = |report: &SynthesisReport| report.partial.iter().flatten().count();
        for (limit, alg2_checked, alg3_checked) in [(1, 2, 3), (5, 6, 7), (20, 10, 10)] {
            let alg2 = PivotSynthesizer::new(&benchmark, test_config())
                .with_max_rounds(limit)
                .run()
                .expect("synthesis runs");
            let alg3 = crate::StepwiseSynthesizer::new(&benchmark, test_config())
                .with_max_rounds(limit)
                .run()
                .expect("synthesis runs");
            for (report, checked_instants) in [(&alg2, alg2_checked), (&alg3, alg3_checked)] {
                assert_eq!(
                    (
                        report.status,
                        report.rounds,
                        report.attacks_eliminated,
                        report.round_stats.len(),
                        checked(report),
                    ),
                    (
                        ConvergenceStatus::RoundLimit,
                        limit,
                        limit + 1,
                        limit + 1,
                        checked_instants,
                    ),
                    "limit {limit}: {:?}",
                    report.partial
                );
                assert!(!report.converged);
            }
        }
    }

    #[test]
    fn report_helpers() {
        let report = SynthesisReport {
            partial: vec![None, Some(0.5), Some(0.25)],
            rounds: 3,
            attacks_eliminated: 3,
            converged: true,
            status: ConvergenceStatus::Converged,
            solver_stats: cps_smt::SolverStats::default(),
            round_stats: Vec::new(),
        };
        assert!(report.is_monotone_decreasing());
        let spec = report.threshold_spec();
        assert!(spec.value_at(0).is_infinite());
        assert_eq!(spec.value_at(2), 0.25);

        let bad = SynthesisReport {
            partial: vec![Some(0.1), Some(0.5)],
            rounds: 1,
            attacks_eliminated: 1,
            converged: true,
            status: ConvergenceStatus::Converged,
            solver_stats: cps_smt::SolverStats::default(),
            round_stats: Vec::new(),
        };
        assert!(!bad.is_monotone_decreasing());
    }
}
