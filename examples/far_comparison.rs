//! Reproduces the false-alarm-rate comparison of §IV: variable thresholds
//! synthesized by Algorithms 2 and 3 versus the provably-safe static
//! threshold, evaluated on monitor-filtered noise-only rollouts, with χ² and
//! CUSUM detectors as baselines beyond the paper.
//!
//! The experiment runs on the trajectory plant, because a full CEGIS run on
//! the VSC is still out of reach, so its numbers are this repository's
//! finding, not the paper's table (`ARCHITECTURE.md`, *Experiments*).
//!
//! Run with `cargo run --example far_comparison --release`.
//! Set `SECURE_CPS_TRIALS` to change the number of noise rollouts (default
//! 1000, the paper's count).

use cps_control::ResidueNorm;
use cps_detectors::{Chi2Detector, CusumDetector, Detector, ThresholdDetector};
use secure_cps::{
    synthesize_static_threshold, FarExperiment, PivotSynthesizer, StepwiseSynthesizer,
    SynthesisConfig,
};

/// Bisection steps of the static baseline: enough to resolve the largest
/// safe constant to ~1e-9 of the bracket, so the baseline is the paper's
/// "largest provably safe" threshold and not a coarse under-estimate.
const STATIC_STEPS: usize = 30;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trials: usize = std::env::var("SECURE_CPS_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);

    let benchmark = cps_models::trajectory_tracking()?;
    let config = SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    };

    println!("synthesizing detectors for `{}` ...", benchmark.name);
    let pivot = PivotSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()?;
    println!(
        "  Algorithm 2 (pivot): rounds={}, converged={}",
        pivot.rounds, pivot.converged
    );
    let stepwise = StepwiseSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()?;
    println!(
        "  Algorithm 3 (step-wise): rounds={}, converged={}",
        stepwise.rounds, stepwise.converged
    );
    let (static_spec, queries) = synthesize_static_threshold(&benchmark, config, STATIC_STEPS)?;
    let c_star = static_spec.value_at(0);
    println!("  static baseline: threshold={c_star:.4e} ({queries} queries)");

    let pivot_detector = ThresholdDetector::new(pivot.threshold_spec(), ResidueNorm::Linf);
    let stepwise_detector = ThresholdDetector::new(stepwise.threshold_spec(), ResidueNorm::Linf);
    let static_detector = ThresholdDetector::new(static_spec, ResidueNorm::Linf);
    let chi2 = Chi2Detector::new(5, c_star.powi(2) * 2.0, ResidueNorm::Linf);
    let cusum = CusumDetector::new(c_star * 0.5, c_star * 2.0, ResidueNorm::Linf);

    let experiment = FarExperiment::new(&benchmark, trials, 2026);
    let report = experiment.run(&[
        ("algorithm-2-pivot", &pivot_detector as &dyn Detector),
        ("algorithm-3-stepwise", &stepwise_detector),
        ("static-baseline", &static_detector),
        ("chi-squared", &chi2),
        ("cusum", &cusum),
    ]);

    println!(
        "\n# FAR comparison ({} rollouts generated, {} kept after mdc/pfc filter)",
        report.generated, report.kept
    );
    println!("detector, false_alarm_rate");
    for (name, rate) in &report.rates {
        println!("{name}, {rate:.3}");
    }
    println!("\npaper reference (VSC): Alg 2 = 0.615, Alg 3 = 0.456, static = 0.989");
    Ok(())
}
