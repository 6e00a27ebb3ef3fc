//! Reproduces the VSC attack demonstration of Fig. 2: a stealthy false-data
//! injection on the yaw-rate and lateral-acceleration sensors that bypasses
//! the stock monitoring system while preventing the yaw rate from reaching
//! its target.
//!
//! Run with `cargo run --example vsc_attack --release`.

use secure_cps::{AttackSynthesizer, SynthesisConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = cps_models::vsc()?;
    let vx = 15.0; // longitudinal speed used by the relation monitor

    // Exact dead-zone semantics at the paper's full 50-sample horizon: the
    // sequential-counter encoding plus the incremental simplex decide
    // this query in seconds (the paper allots 12 hours of Z3 for it).
    let config = SynthesisConfig::default();
    let synthesizer = AttackSynthesizer::new(&benchmark, config);
    let Some(attack) = synthesizer.synthesize(None)? else {
        println!("no stealthy attack found — monitors alone secure this configuration");
        return Ok(());
    };

    let trace = &attack.trace;
    let verdict = benchmark.monitors.evaluate(trace.measurements());
    println!(
        "# Fig 2: stealthy VSC attack (monitors alarmed: {}, pfc satisfied: {}, verified: {})",
        verdict.alarmed(),
        benchmark
            .performance
            .satisfied_by(trace.states().last().unwrap()),
        synthesizer.verify_attack(&attack, None)
    );
    println!("k, true_yaw_rate, measured_yaw_rate, measured_ay, gamma_est_from_ay, residue_norm");
    for k in 0..trace.len() {
        let x = &trace.states()[k];
        let y = &trace.measurements()[k];
        println!(
            "{k}, {:.4}, {:.4}, {:.4}, {:.4}, {:.4}",
            x[1],
            y[0],
            y[1],
            y[1] / vx,
            attack.residue_norms[k],
        );
    }
    println!(
        "\nfinal true yaw rate: {:.4} rad/s (target {:.4}, pfc needs ≥ {:.4})",
        trace.states().last().unwrap()[1],
        benchmark.performance.target(),
        0.8 * benchmark.performance.target()
    );
    Ok(())
}
