use cps_detectors::ThresholdSpec;
use cps_models::Benchmark;

use crate::synthesis::run_guarded;
use crate::{AttackSynthesizer, SynthesisConfig, SynthesisError};

/// Synthesises the *provably safe static* threshold the paper compares its
/// variable thresholds against.
///
/// A static detector uses the same bound at every sampling instant. Larger
/// bounds give the attacker more room, smaller bounds raise more false
/// alarms; the "provably safe" choice is the **largest** constant `th` such
/// that Algorithm 1 can prove no stealthy successful attack exists when every
/// residue must stay below `th`. The value is located by `bisection_steps`
/// bisection steps over `[0, 2·peak]`, where `peak` is the residue peak of
/// the undefended attack. That attack passes every constant above `peak`, so
/// the bracket's upper half needs no query, and the first step asks at
/// `peak` itself.
///
/// Returns the threshold specification together with the number of
/// Algorithm 1 queries spent: one for the undefended attack and one per
/// bisection step. When the monitors alone block every attack, any threshold
/// is safe, and the undefended query is the only one.
///
/// The bisection runs inside the same boundary as
/// [`PivotSynthesizer::run`](crate::PivotSynthesizer::run):
/// [`SynthesisConfig::timeout`] bounds the whole bisection, and a panic is
/// caught and surfaces as [`SynthesisError::Panicked`].
///
/// # Errors
///
/// [`SynthesisError::Solver`] when a query fails, an interruption by the
/// timeout or the solver's conflict cap included, and
/// [`SynthesisError::Panicked`] for a caught panic.
pub fn synthesize_static_threshold(
    benchmark: &Benchmark,
    config: SynthesisConfig,
    bisection_steps: usize,
) -> Result<(ThresholdSpec, usize), SynthesisError> {
    let synthesizer = AttackSynthesizer::new(benchmark, config);
    let horizon = synthesizer.horizon();
    run_guarded(&synthesizer, || {
        // The bracket: twice the undefended attack's residue peak (if the
        // monitors alone already block every attack, any threshold is safe).
        let Some(initial) = synthesizer.synthesize(None)? else {
            return Ok((ThresholdSpec::constant(f64::INFINITY, horizon), 1));
        };
        let (_, peak) = initial.pivot();
        let mut lo = 0.0_f64; // threshold 0 alarms on everything: trivially safe
        let mut hi = (2.0 * peak).max(1e-6);

        for _ in 0..bisection_steps {
            let mid = 0.5 * (lo + hi);
            let partial: Vec<Option<f64>> = vec![Some(mid); horizon];
            if synthesizer.synthesize(Some(&partial))?.is_none() {
                // mid is safe: try a larger (lower-FAR) threshold.
                lo = mid;
            } else {
                // an attack slips below mid: must tighten.
                hi = mid;
            }
        }

        Ok((ThresholdSpec::constant(lo, horizon), 1 + bisection_steps))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On the trajectory plant and on the VSC at T=10 the bisection spends
    /// one query on the undefended attack and one per step, and returns a
    /// safe constant no larger than that attack's residue peak: the attack
    /// passes every constant above it.
    #[test]
    fn static_threshold_is_safe_and_nontrivial() {
        let steps = 8;
        let trajectory = cps_models::trajectory_tracking().unwrap();
        let vsc = cps_models::vsc().unwrap();
        let short = SynthesisConfig {
            horizon_override: Some(10),
            ..SynthesisConfig::default()
        };
        for (benchmark, config) in [(&trajectory, SynthesisConfig::default()), (&vsc, short)] {
            let (spec, queries) =
                synthesize_static_threshold(benchmark, config, steps).expect("bisection runs");
            assert_eq!(queries, 1 + steps, "{}", benchmark.name);
            assert!(spec.is_static());
            let value = spec.value_at(0);
            assert!(value.is_finite());
            assert!(value >= 0.0);

            let synthesizer = AttackSynthesizer::new(benchmark, config);
            let undefended = synthesizer
                .synthesize(None)
                .unwrap()
                .expect("the plant is attackable");
            let (_, peak) = undefended.pivot();
            assert!(
                value <= peak,
                "{}: threshold {value} above the undefended peak {peak}",
                benchmark.name
            );
            // Safety: no stealthy attack exists below the returned threshold.
            let partial = synthesizer.spec_to_partial(&spec);
            assert!(synthesizer.synthesize(Some(&partial)).unwrap().is_none());
        }
    }

    #[test]
    fn bisection_converges_towards_the_boundary() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let config = SynthesisConfig::default();
        let (coarse, _) = synthesize_static_threshold(&benchmark, config, 3).unwrap();
        let (fine, _) = synthesize_static_threshold(&benchmark, config, 8).unwrap();
        // More bisection steps can only move the safe threshold upwards
        // (towards the true supremum), never below the coarse estimate.
        assert!(fine.value_at(0) + 1e-12 >= coarse.value_at(0));
    }
}
