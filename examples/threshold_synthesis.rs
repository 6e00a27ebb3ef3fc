//! Reproduces Fig. 3 and the §IV round counts: the variable threshold vectors
//! synthesized by Algorithm 2 (pivot-based) and Algorithm 3 (step-wise), and
//! the CEGIS rounds each needs to converge.
//!
//! Run with `cargo run --example threshold_synthesis --release`.

use secure_cps::{PivotSynthesizer, StepwiseSynthesizer, SynthesisConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = cps_models::trajectory_tracking()?;
    let config = SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    };
    let pivot = PivotSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()?;
    let stepwise = StepwiseSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()?;

    println!("# Fig 3: variable thresholds on `{}`", benchmark.name);
    println!(
        "pivot converged={} rounds={}, stepwise converged={} rounds={} (paper, VSC: 56 vs 37 rounds)",
        pivot.converged, pivot.rounds, stepwise.converged, stepwise.rounds
    );
    println!("k, pivot_threshold, stepwise_threshold");
    // Scientific notation: the tails sit near the 1e-6 threshold floor.
    let fmt = |v: &Option<f64>| v.map_or_else(|| "inf".to_string(), |v| format!("{v:.4e}"));
    for (k, (p, s)) in pivot.partial.iter().zip(&stepwise.partial).enumerate() {
        println!("{k}, {}, {}", fmt(p), fmt(s));
    }
    Ok(())
}
