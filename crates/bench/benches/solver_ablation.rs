//! Ablation — the solver hot path, in two directions:
//!
//! 1. theory-level bound propagation (`SolverConfig::theory_propagation`) on
//!    versus off, on the unconstrained VSC query and on the
//!    threshold-constrained round where UNSAT-side conflict generalisation
//!    dominates;
//! 2. budget checking (`vsc_exact_governed_budget_checks`): the T=12 exact
//!    query with a [`Budget`] armed on **every** axis — far-future deadline,
//!    ample conflict and pivot caps — so each cooperative checkpoint runs its
//!    full check but never trips. The gap to `vsc_exact_incremental_simplex`
//!    is the whole cost of deadline/cancellation-safe solving (<1 % target).
//!
//! Solver statistics (theory checks, pivots, queue pops, implied bounds,
//! propagated literals, explanation lengths, simplex time) are printed for
//! each configuration so speedups are attributable to the theory core rather
//! than the SAT search. The undefended trajectory-tracking query
//! (`smt_attack_synthesis`) times one small Algorithm 1 query, and a
//! 10-round warm-started threshold synthesis (`vsc_cegis_10round_warm`)
//! times the CEGIS loop as a whole.

use std::time::Duration;

use cps_bench::{bench_config, first_round_threshold, print_row};
use cps_smt::{Budget, SolverConfig, SolverStats};
use criterion::{criterion_group, criterion_main, Criterion};
use secure_cps::{AttackSynthesizer, PivotSynthesizer, SynthesisConfig};

const VSC_ABLATION_HORIZON: usize = 12;
const CEGIS_ROUNDS: usize = 10;

fn stats_row(label: &str, stats: SolverStats) {
    print_row("ablation", &format!("{label}: {stats}"));
}

fn vsc_ablation_config(propagation: bool) -> SynthesisConfig {
    SynthesisConfig {
        horizon_override: Some(VSC_ABLATION_HORIZON),
        solver: SolverConfig {
            theory_propagation: propagation,
            ..SolverConfig::default()
        },
        ..bench_config()
    }
}

fn run_cegis(vsc: &cps_models::Benchmark) -> secure_cps::SynthesisReport {
    PivotSynthesizer::new(vsc, vsc_ablation_config(true))
        .with_max_rounds(CEGIS_ROUNDS)
        .run()
        .expect("synthesis runs")
}

fn regenerate() {
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let smt = AttackSynthesizer::new(&benchmark, bench_config());
    let smt_attack = smt.synthesize(None).expect("query decided");
    print_row(
        "ablation",
        &format!("undefended loop: smt_attack_found={}", smt_attack.is_some()),
    );
    stats_row("trajectory smt query", smt.last_solver_stats());

    // Propagation ablation on the VSC exact dead-zone query.
    let vsc = cps_models::vsc().expect("model builds");
    for (label, propagation) in [("propagation_on", true), ("propagation_off", false)] {
        let synthesizer = AttackSynthesizer::new(&vsc, vsc_ablation_config(propagation));
        let found = synthesizer
            .synthesize(None)
            .expect("query decided")
            .is_some();
        print_row(
            "ablation",
            &format!("vsc exact T={VSC_ABLATION_HORIZON} ({label}): attack_found={found}"),
        );
        stats_row(
            &format!("vsc exact T={VSC_ABLATION_HORIZON} ({label})"),
            synthesizer.last_solver_stats(),
        );
    }

    // Propagation ablation on the threshold-constrained CEGIS round — the
    // UNSAT-leaning query shape where conflict generalisation pays off.
    for (label, propagation) in [("propagation_on", true), ("propagation_off", false)] {
        let synthesizer = AttackSynthesizer::new(&vsc, vsc_ablation_config(propagation));
        let th = first_round_threshold(&synthesizer);
        let found = synthesizer
            .synthesize(Some(&th))
            .expect("query decided")
            .is_some();
        print_row(
            "ablation",
            &format!(
                "vsc threshold round T={VSC_ABLATION_HORIZON} ({label}): attack_found={found}"
            ),
        );
        stats_row(
            &format!("vsc threshold round T={VSC_ABLATION_HORIZON} ({label})"),
            synthesizer.last_solver_stats(),
        );
    }

    let cegis = run_cegis(&vsc);
    print_row(
        "ablation",
        &format!(
            "vsc cegis {CEGIS_ROUNDS}-round T={VSC_ABLATION_HORIZON}: rounds={}, converged={}",
            cegis.rounds, cegis.converged,
        ),
    );
    stats_row(
        &format!("vsc cegis {CEGIS_ROUNDS}-round T={VSC_ABLATION_HORIZON}"),
        cegis.solver_stats,
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let smt = AttackSynthesizer::new(&benchmark, bench_config());
    let vsc = cps_models::vsc().expect("model builds");
    let vsc_incremental = AttackSynthesizer::new(&vsc, vsc_ablation_config(true));
    let vsc_no_propagation = AttackSynthesizer::new(&vsc, vsc_ablation_config(false));
    let th = first_round_threshold(&vsc_incremental);
    let mut group = c.benchmark_group("solver_ablation");
    group.sample_size(10);
    group.bench_function("smt_attack_synthesis", |b| {
        b.iter(|| smt.synthesize(None).expect("query decided"))
    });
    group.bench_function("vsc_exact_incremental_simplex", |b| {
        b.iter(|| vsc_incremental.synthesize(None).expect("query decided"))
    });
    // Runs back-to-back with the ungoverned row above so the pair shares
    // cache/thermal state — the honest way to read a sub-1% delta.
    let vsc_governed = AttackSynthesizer::new(&vsc, vsc_ablation_config(true));
    vsc_governed.set_budget(
        Budget::unlimited()
            .with_timeout(Duration::from_secs(86_400))
            .with_conflict_cap(u64::MAX / 2)
            .with_pivot_cap(u64::MAX / 2),
    );
    group.bench_function("vsc_exact_governed_budget_checks", |b| {
        b.iter(|| vsc_governed.synthesize(None).expect("query decided"))
    });
    group.bench_function("vsc_threshold_round_propagation_on", |b| {
        b.iter(|| {
            vsc_incremental
                .synthesize(Some(&th))
                .expect("query decided")
        })
    });
    group.bench_function("vsc_threshold_round_propagation_off", |b| {
        b.iter(|| {
            vsc_no_propagation
                .synthesize(Some(&th))
                .expect("query decided")
        })
    });
    // Each iteration constructs its own synthesizer, so the row includes the
    // base encoding that warm rounds reuse within one run.
    group.bench_function("vsc_cegis_10round_warm", |b| b.iter(|| run_cegis(&vsc)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
