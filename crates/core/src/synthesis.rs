use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cps_detectors::ThresholdSpec;
use cps_models::Benchmark;
use cps_smt::{Budget, InterruptReason, SmtError, SolverStats};

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

/// Converts a run-level [`SynthesisConfig::timeout`] into an absolute
/// deadline on `budget`, keeping the earlier deadline when both are set.
pub(crate) fn arm_budget(budget: Budget, timeout: Option<Duration>) -> Budget {
    match timeout {
        Some(timeout) => {
            let deadline = Instant::now() + timeout;
            let deadline = budget.deadline().map_or(deadline, |d| d.min(deadline));
            budget.with_deadline(deadline)
        }
        None => budget,
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One Algorithm 1 query as seen by the CEGIS loops: a decided verdict, or a
/// typed interruption the loop absorbs into a graceful partial report.
pub(crate) enum QueryOutcome {
    /// The query was decided: a counterexample attack, or `None` for an
    /// `UNSAT` certificate.
    Decided(Option<SynthesizedAttack>),
    /// The query was interrupted before a verdict.
    Interrupted(InterruptReason),
}

/// Runs one Algorithm 1 query, folds its statistics into the running totals
/// and the per-round log, and converts a typed interruption into
/// [`QueryOutcome::Interrupted`]. Any other solver error propagates.
pub(crate) fn cegis_query(
    synthesizer: &AttackSynthesizer<'_>,
    threshold: Option<&[Option<f64>]>,
    stats: &mut SolverStats,
    round_stats: &mut Vec<SolverStats>,
) -> Result<QueryOutcome, SynthesisError> {
    let result = synthesizer.synthesize(threshold);
    // The per-query statistics are recorded even for an interrupted query
    // (the solver sets them before unwinding), so interrupted work is
    // attributable rather than silently discarded.
    let last = synthesizer.last_solver_stats();
    stats.absorb(&last);
    round_stats.push(last);
    match result {
        Ok(attack) => Ok(QueryOutcome::Decided(attack)),
        Err(SmtError::Interrupted { reason, .. }) => Ok(QueryOutcome::Interrupted(reason)),
        Err(err) => Err(err.into()),
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

    /// Applies the convergence margin when installing a threshold at a
    /// counterexample residue value.
    fn shrink(&self, value: f64) -> f64 {
        (value * (1.0 - self.synthesizer.config().convergence_margin)).max(MIN_THRESHOLD)
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
        let saved = self.synthesizer.budget();
        self.synthesizer
            .set_budget(arm_budget(saved, self.synthesizer.config().timeout));
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run_inner()));
        self.synthesizer.set_budget(saved);
        match outcome {
            Ok(result) => result,
            Err(payload) => {
                self.synthesizer.reset_warm_solver();
                Err(SynthesisError::Panicked(panic_message(payload)))
            }
        }
    }

    fn run_inner(&self) -> SynthesisOutcome {
        let horizon = self.synthesizer.horizon();
        let mut th: PartialThreshold = vec![None; horizon];
        let mut rounds = 0;
        let mut attacks = 0;
        let mut stats = SolverStats::default();
        let mut round_stats = Vec::new();

        let report = |partial: PartialThreshold,
                      rounds: usize,
                      attacks: usize,
                      status: ConvergenceStatus,
                      stats: SolverStats,
                      round_stats: Vec<SolverStats>| {
            Ok(SynthesisReport {
                partial,
                rounds,
                attacks_eliminated: attacks,
                converged: status.is_converged(),
                status,
                solver_stats: stats,
                round_stats,
            })
        };

        // Line 3: can the existing monitors alone be bypassed?
        let initial = match cegis_query(&self.synthesizer, None, &mut stats, &mut round_stats)? {
            QueryOutcome::Decided(result) => result,
            QueryOutcome::Interrupted(reason) => {
                let status = ConvergenceStatus::Interrupted { round: 0, reason };
                return report(th, rounds, attacks, status, stats, round_stats);
            }
        };
        let Some(initial) = initial else {
            return report(
                th,
                rounds,
                attacks,
                ConvergenceStatus::Converged,
                stats,
                round_stats,
            );
        };
        attacks += 1;
        // Lines 4–5: pivot at the instant of maximum residue.
        let (pivot, value) = initial.pivot();
        th[pivot] = Some(self.shrink(value));

        loop {
            rounds += 1;
            if rounds > self.max_rounds {
                return report(
                    th,
                    rounds - 1,
                    attacks,
                    ConvergenceStatus::RoundLimit,
                    stats,
                    round_stats,
                );
            }
            let attack =
                match cegis_query(&self.synthesizer, Some(&th), &mut stats, &mut round_stats)? {
                    QueryOutcome::Decided(result) => result,
                    QueryOutcome::Interrupted(reason) => {
                        let status = ConvergenceStatus::Interrupted {
                            round: rounds,
                            reason,
                        };
                        return report(th, rounds - 1, attacks, status, stats, round_stats);
                    }
                };
            let Some(attack) = attack else {
                return report(
                    th,
                    rounds,
                    attacks,
                    ConvergenceStatus::Converged,
                    stats,
                    round_stats,
                );
            };
            attacks += 1;
            let z = &attack.residue_norms;
            let progressed =
                self.case_1a(&mut th, z) || self.case_1b(&mut th, z) || self.case_1c(&mut th, z);
            if !progressed {
                // Every residue of the counterexample is numerically zero:
                // no threshold adjustment can exclude it (see `MIN_THRESHOLD`).
                // Report the partial result instead of looping forever.
                return report(
                    th,
                    rounds,
                    attacks,
                    ConvergenceStatus::Stalled,
                    stats,
                    round_stats,
                );
            }
        }
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
                let value = self
                    .shrink(z[i])
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
                    let value = self
                        .shrink(z[i])
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
            .filter(|k| th[*k].map_or(true, |v| v > self.shrink(z[*k])))
            .min_by(|a, b| {
                let da = th[*a].unwrap_or(f64::INFINITY) - z[*a];
                let db = th[*b].unwrap_or(f64::INFINITY) - z[*b];
                da.total_cmp(&db)
            });
        let Some(i) = candidate else { return false };
        let value = self.shrink(z[i]).min(Self::min_before(th, i));
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

    #[test]
    fn round_limit_is_honoured() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let synthesizer = PivotSynthesizer::new(&benchmark, test_config()).with_max_rounds(1);
        let report = synthesizer.run().expect("synthesis runs");
        assert!(report.rounds <= 1);
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
