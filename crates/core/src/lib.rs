//! Formal synthesis of residue-based attack detectors with variable
//! thresholds — the primary contribution of *Koley et al., "Formal Synthesis
//! of Monitoring and Detection Systems for Secure CPS Implementations"*
//! (DATE 2020).
//!
//! The crate ties the workspace's substrates together:
//!
//! - [`UnrolledLoop`] symbolically unrolls the closed-loop implementation of a
//!   [`Benchmark`](cps_models::Benchmark) over its horizon, expressing every
//!   residue, monitored measurement and the final state as affine functions of
//!   the attacker's per-step sensor injections;
//! - [`AttackSynthesizer`] is **Algorithm 1**: an SMT query (solved by
//!   [`cps_smt`], the crate's Z3 substitute) asking for a *stealthy but
//!   successful* false-data-injection attack — one that keeps every residue
//!   below the current threshold, never trips the plant monitors, yet
//!   prevents the performance criterion from being met;
//! - [`PivotSynthesizer`] is **Algorithm 2** (pivot-based threshold
//!   synthesis) and [`StepwiseSynthesizer`] is **Algorithm 3** (step-wise
//!   threshold synthesis): CEGIS loops that keep asking Algorithm 1 for
//!   counterexamples and tighten a threshold vector until no stealthy attack
//!   remains. Algorithm 3 keeps the vector monotonically decreasing;
//!   Algorithm 2's case 1b can install a threshold below a later one
//!   (`ROADMAP.md` item 1);
//! - [`synthesize_static_threshold`] is the provably-safe *static* baseline
//!   the paper compares against;
//! - [`FarExperiment`] runs the paper's false-alarm-rate experiment (1000
//!   random bounded noise rollouts, monitor-filtered, evaluated against each
//!   synthesised detector) as one streaming pass, with no trace
//!   materialised.
//!
//! # Quick start
//!
//! ```
//! use secure_cps::{AttackSynthesizer, SynthesisConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let benchmark = cps_models::trajectory_tracking()?;
//! let synthesizer = AttackSynthesizer::new(&benchmark, SynthesisConfig::default());
//! // Without any residue detector the tracking loop is attackable.
//! let attack = synthesizer.synthesize(None)?;
//! assert!(attack.is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attack;
mod encoder;
mod far;
mod static_baseline;
mod stepwise;
mod synthesis;

pub use attack::{AttackSynthesizer, MonitorEncoding, SynthesisConfig, SynthesizedAttack};
pub use encoder::UnrolledLoop;
pub use far::{FarExperiment, FarReport};
pub use static_baseline::synthesize_static_threshold;
pub use stepwise::StepwiseSynthesizer;
pub use synthesis::{
    ConvergenceStatus, PivotSynthesizer, SynthesisError, SynthesisOutcome, SynthesisReport,
};

/// Partial threshold vector used during synthesis: `None` means "no detector
/// check at this instant" (the paper's `Th[i] = 0`), `Some(v)` means the
/// residue norm must stay strictly below `v` to remain stealthy.
pub type PartialThreshold = Vec<Option<f64>>;

/// Converts a partial threshold vector into a [`ThresholdSpec`](cps_detectors::ThresholdSpec)
/// (unchecked instants become `+∞`, i.e. they never alarm).
///
/// # Panics
///
/// Panics if `partial` is empty.
pub fn partial_to_spec(partial: &PartialThreshold) -> cps_detectors::ThresholdSpec {
    assert!(!partial.is_empty(), "threshold horizon must be non-empty");
    cps_detectors::ThresholdSpec::variable(
        partial
            .iter()
            .map(|entry| entry.unwrap_or(f64::INFINITY))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_to_spec_maps_unchecked_to_infinity() {
        let partial = vec![None, Some(0.5), None];
        let spec = partial_to_spec(&partial);
        assert!(spec.value_at(0).is_infinite());
        assert_eq!(spec.value_at(1), 0.5);
        assert!(spec.value_at(2).is_infinite());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_partial_threshold_is_rejected() {
        let _ = partial_to_spec(&Vec::new());
    }
}
