use std::panic::{catch_unwind, AssertUnwindSafe};

use cps_models::Benchmark;
use cps_smt::SolverStats;

use crate::synthesis::{
    arm_budget, cegis_query, panic_message, QueryOutcome, SynthesisOutcome, SynthesisReport,
    MIN_THRESHOLD,
};
use crate::{
    AttackSynthesizer, ConvergenceStatus, PartialThreshold, SynthesisConfig, SynthesisError,
};

/// Algorithm 3 — step-wise threshold synthesis.
///
/// Instead of placing individual pivots, the algorithm maintains a *staircase*
/// approximation of the threshold curve:
///
/// - **Phase 1 (step formation)** grows the staircase from the front: the
///   first step covers the prefix up to the undefended attack's residue peak;
///   each subsequent counterexample appends a lower step ending at its own
///   residue peak, until the staircase covers the whole horizon.
/// - **Phase 2 (step reduction)** handles counterexamples that slip under the
///   staircase: among all instants `k` where lowering the suffix of the
///   staircase to the attack's residue `‖z_k‖` would detect the attack, it
///   picks the one removing the *minimum area* from under the threshold curve
///   (the `MINAREARECTANGLE` heuristic of the paper) and applies that cut.
///
/// Both phases preserve the staircase's monotonically decreasing shape. The
/// loop terminates when Algorithm 1 proves that no stealthy attack remains.
///
/// Like [`PivotSynthesizer`](crate::PivotSynthesizer), the loop runs all its
/// Algorithm 1 queries on one warm solver: each round's thresholds are checked
/// with [`cps_smt::SmtSolver::check_assuming`] over the once-asserted base
/// encoding, with results bit-identical to a fresh solver per round.
#[derive(Debug)]
pub struct StepwiseSynthesizer<'a> {
    synthesizer: AttackSynthesizer<'a>,
    max_rounds: usize,
}

impl<'a> StepwiseSynthesizer<'a> {
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

    /// Applies the convergence margin when installing a step at a
    /// counterexample residue value (see
    /// [`SynthesisConfig::convergence_margin`]).
    fn shrink(&self, value: f64) -> f64 {
        (value * (1.0 - self.synthesizer.config().convergence_margin)).max(MIN_THRESHOLD)
    }

    /// Runs the CEGIS loop.
    ///
    /// Degrades and recovers exactly like
    /// [`PivotSynthesizer::run`](crate::PivotSynthesizer::run): a resource
    /// interruption ends the run with [`ConvergenceStatus::Interrupted`] and
    /// the best-so-far staircase, and a panic is caught at this boundary,
    /// discards the warm solver and surfaces as
    /// [`SynthesisError::Panicked`].
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Solver`] for non-interruption solver failures and
    /// [`SynthesisError::Panicked`] for a caught panic.
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

        // Can the monitors alone be bypassed?
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

        // First step: cover the prefix up to the residue peak.
        let (pivot, value) = initial.pivot();
        let first_height = self.shrink(value);
        for entry in th.iter_mut().take(pivot + 1) {
            *entry = Some(first_height);
        }
        let mut last_covered = pivot;

        // Phase 1: extend the staircase until it covers the whole horizon.
        while last_covered + 1 < horizon {
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
            let current_height = th[last_covered].expect("covered prefix has a value");
            // New step edge: the largest residue after the covered prefix,
            // clamped to the previous step height to keep the staircase
            // monotonically decreasing.
            let k = ((last_covered + 1)..horizon)
                .max_by(|a, b| z[*a].total_cmp(&z[*b]))
                .expect("suffix is non-empty");
            let height = self.shrink(z[k]).min(current_height);
            for entry in th.iter_mut().take(k + 1).skip(last_covered + 1) {
                *entry = Some(height);
            }
            last_covered = k;
        }

        // Phase 2: lower minimum-area portions of the staircase until no
        // stealthy attack remains.
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
            let cut = Self::min_area_cut(&th, z);
            match cut {
                Some((k, level)) => {
                    let level = self.shrink(level);
                    for entry in th.iter_mut().skip(k) {
                        match entry {
                            Some(v) if *v > level => *entry = Some(level),
                            None => *entry = Some(level),
                            _ => {}
                        }
                    }
                }
                None => {
                    // Every residue of the counterexample is either already
                    // above the staircase (impossible for checked instants) or
                    // numerically zero: no cut can exclude it. Report the
                    // partial result instead of looping forever.
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
    }

    /// The paper's `MINAREARECTANGLE`: among all instants whose residue lies
    /// strictly below the current threshold, pick the one where lowering the
    /// threshold suffix to that residue removes the least area. Returns the
    /// instant and the new level.
    fn min_area_cut(th: &[Option<f64>], z: &[f64]) -> Option<(usize, f64)> {
        let horizon = th.len();
        let mut best: Option<(usize, f64, f64)> = None; // (k, level, area)
        for k in 0..horizon {
            let Some(current) = th[k] else { continue };
            if z[k] >= current || z[k] < MIN_THRESHOLD {
                continue;
            }
            let level = z[k].max(MIN_THRESHOLD);
            let area: f64 = (k..horizon)
                .map(|j| th[j].map_or(0.0, |v| (v - level).max(0.0)))
                .sum();
            let better = match &best {
                Some((_, _, best_area)) => area < *best_area,
                None => true,
            };
            if better {
                best = Some((k, level, area));
            }
        }
        best.map(|(k, level, _)| (k, level))
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
    fn stepwise_synthesis_secures_the_trajectory_benchmark() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let synthesizer = StepwiseSynthesizer::new(&benchmark, test_config()).with_max_rounds(400);
        let report = synthesizer.run().expect("synthesis runs");
        assert!(report.converged, "synthesis should converge");
        assert!(report.is_monotone_decreasing());

        // The synthesised staircase blocks every stealthy attack.
        let attack_synth = synthesizer.attack_synthesizer();
        assert!(attack_synth
            .synthesize(Some(&report.partial))
            .unwrap()
            .is_none());

        // And detects the undefended counterexample.
        let undefended = attack_synth.synthesize(None).unwrap().unwrap();
        let detector = ThresholdDetector::new(report.threshold_spec(), ResidueNorm::Linf);
        assert!(detector.detects(&undefended.trace));
    }

    #[test]
    fn staircase_structure_is_contiguous() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let synthesizer = StepwiseSynthesizer::new(&benchmark, test_config()).with_max_rounds(400);
        let report = synthesizer.run().expect("synthesis runs");
        // Once a threshold is set, every later instant is also set (staircase
        // covers a prefix-contiguous region growing to the full horizon, or
        // the algorithm converged early).
        if report.converged {
            let first_set = report.partial.iter().position(|v| v.is_some());
            if let Some(first) = first_set {
                assert!(
                    report.partial[first..].iter().all(|v| v.is_some()),
                    "converged staircase leaves a gap after instant {first}: {:?}",
                    report.partial
                );
            }
        }
    }

    #[test]
    fn min_area_cut_picks_cheapest_instant() {
        let th = vec![Some(1.0), Some(1.0), Some(0.5), Some(0.5)];
        // Removed areas: cutting at instant 0 costs 2.2, at instant 1 costs
        // 0.3, at instant 2 costs 0.1, at instant 3 only 0.02.
        let z = vec![0.2, 0.7, 0.45, 0.48];
        let (k, level) = StepwiseSynthesizer::min_area_cut(&th, &z).unwrap();
        assert_eq!(k, 3);
        assert!((level - 0.48).abs() < 1e-12);
    }

    #[test]
    fn min_area_cut_returns_none_when_nothing_can_be_lowered() {
        let th = vec![Some(0.1), Some(0.1)];
        let z = vec![0.5, 0.2];
        assert!(StepwiseSynthesizer::min_area_cut(&th, &z).is_none());
    }
}
