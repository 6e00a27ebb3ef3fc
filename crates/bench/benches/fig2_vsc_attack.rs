//! E3/E4/E5 — Fig. 2a/2b/2c: stealthy attack on the VSC that bypasses the
//! stock range/gradient/relation monitors.
//!
//! Since PR 2 the exact dead-zone semantics is encoded with the `O(T·k)`
//! sequential-counter construction and decided by the incremental DPLL(T)
//! core, so the paper's **full 50-sample horizon** runs to completion
//! here (the paper allots 12 hours per Z3 call for the same query). The
//! reduced-horizon query and the conjunctive under-approximation are kept for
//! comparison with the PR-1 numbers.

use cps_bench::{bench_config, print_row, vsc_scale_config};
use criterion::{criterion_group, criterion_main, Criterion};
use secure_cps::{AttackSynthesizer, SynthesisConfig};

const VX: f64 = 15.0;
const REDUCED_HORIZON: usize = 10;

fn regenerate() {
    let benchmark = cps_models::vsc().expect("model builds");

    // Full-horizon exact query: the paper's Fig. 2 attack, T = 50.
    let full_exact = AttackSynthesizer::new(&benchmark, bench_config());
    match full_exact.synthesize(None).expect("query decided") {
        Some(attack) => {
            let trace = &attack.trace;
            let alarmed = benchmark.monitors.evaluate(trace.measurements()).alarmed();
            let verified = full_exact.verify_attack(&attack, None);
            print_row(
                "fig2",
                &format!(
                    "exact encoding, T={}: stealthy attack found (monitors alarmed: {alarmed}, \
                     verified: {verified})",
                    benchmark.horizon
                ),
            );
            print_row(
                "fig2",
                "k, true_gamma, measured_gamma, measured_ay, gamma_est_from_ay, residue_norm",
            );
            for k in 0..trace.len() {
                let x = &trace.states()[k];
                let y = &trace.measurements()[k];
                print_row(
                    "fig2",
                    &format!(
                        "{k}, {:.4}, {:.4}, {:.4}, {:.4}, {:.4}",
                        x[1],
                        y[0],
                        y[1],
                        y[1] / VX,
                        attack.residue_norms[k]
                    ),
                );
            }
        }
        None => print_row(
            "fig2",
            "exact encoding: no stealthy attack at the full horizon",
        ),
    }
    print_row(
        "fig2",
        &format!(
            "exact T=50 solver stats: {}",
            full_exact.last_solver_stats()
        ),
    );

    // Reduced-horizon exact query (the PR-1 operating point).
    let config = SynthesisConfig {
        horizon_override: Some(REDUCED_HORIZON),
        ..bench_config()
    };
    let reduced = AttackSynthesizer::new(&benchmark, config);
    let outcome = reduced.synthesize(None).expect("query decided");
    print_row(
        "fig2",
        &format!(
            "exact encoding, T={REDUCED_HORIZON}: stealthy attack exists = {}",
            outcome.is_some()
        ),
    );

    // Conjunctive under-approximation (certificate for dead-zone-free attackers).
    let conjunctive = AttackSynthesizer::new(&benchmark, vsc_scale_config());
    let outcome = conjunctive.synthesize(None).expect("query decided");
    print_row(
        "fig2",
        &format!(
            "conjunctive encoding, T={}: stealthy attack exists = {}",
            benchmark.horizon,
            outcome.is_some()
        ),
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let benchmark = cps_models::vsc().expect("model builds");
    let config = SynthesisConfig {
        horizon_override: Some(REDUCED_HORIZON),
        ..bench_config()
    };
    let reduced = AttackSynthesizer::new(&benchmark, config);
    let full = AttackSynthesizer::new(&benchmark, bench_config());
    let mut group = c.benchmark_group("fig2_vsc_attack");
    group.sample_size(10);
    group.bench_function("vsc_attack_synthesis_exact_reduced_horizon", |b| {
        b.iter(|| reduced.synthesize(None).expect("query decided"))
    });
    group.sample_size(3);
    group.bench_function("vsc_attack_synthesis_exact_full_horizon", |b| {
        b.iter(|| full.synthesize(None).expect("query decided"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
