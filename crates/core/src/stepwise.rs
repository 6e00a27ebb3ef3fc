use cps_models::Benchmark;

use crate::synthesis::{run_cegis, shrink, SynthesisOutcome, MIN_THRESHOLD};
use crate::{AttackSynthesizer, SynthesisConfig};

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

    /// Runs the CEGIS loop.
    ///
    /// Degrades and recovers exactly like
    /// [`PivotSynthesizer::run`](crate::PivotSynthesizer::run): a resource
    /// interruption ends the run with
    /// [`ConvergenceStatus::Interrupted`](crate::ConvergenceStatus::Interrupted)
    /// and the best-so-far staircase, and a panic is caught at this boundary,
    /// discards the warm solver and surfaces as
    /// [`SynthesisError::Panicked`](crate::SynthesisError::Panicked).
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Solver`](crate::SynthesisError::Solver) for
    /// non-interruption solver failures and
    /// [`SynthesisError::Panicked`](crate::SynthesisError::Panicked) for a
    /// caught panic.
    pub fn run(&self) -> SynthesisOutcome {
        let horizon = self.synthesizer.horizon();
        // The staircase covers `th[..=last_covered]`. Each update reads the
        // phase from the state the query was issued under.
        let mut last_covered = 0;
        run_cegis(&self.synthesizer, self.max_rounds, |round, th, attack| {
            let z = &attack.residue_norms;
            if round == 0 {
                // First step: cover the prefix up to the residue peak.
                let (pivot, value) = attack.pivot();
                th[..=pivot].fill(Some(shrink(&self.synthesizer, value)));
                last_covered = pivot;
            } else if last_covered + 1 < horizon {
                // Phase 1: a new step edge at the largest residue after the
                // covered prefix, clamped to the previous step height to keep
                // the staircase monotonically decreasing.
                let current_height = th[last_covered].expect("covered prefix has a value");
                let k = ((last_covered + 1)..horizon)
                    .max_by(|a, b| z[*a].total_cmp(&z[*b]))
                    .expect("suffix is non-empty");
                let height = shrink(&self.synthesizer, z[k]).min(current_height);
                th[last_covered + 1..=k].fill(Some(height));
                last_covered = k;
            } else {
                // Phase 2: lower the minimum-area portion of the staircase.
                // No cut exists when every residue of the counterexample is
                // either above the staircase (impossible for checked
                // instants) or numerically zero.
                let Some((k, level)) = Self::min_area_cut(th, z) else {
                    return false;
                };
                let level = shrink(&self.synthesizer, level);
                for entry in &mut th[k..] {
                    if entry.map_or(true, |v| v > level) {
                        *entry = Some(level);
                    }
                }
            }
            true
        })
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
