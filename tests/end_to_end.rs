//! Workspace-level integration tests: the full pipeline from benchmark model
//! through attack synthesis, threshold synthesis and FAR evaluation, crossing
//! every member crate.

use cps_control::ResidueNorm;
use cps_detectors::{Detector, ThresholdDetector};
use secure_cps::{
    synthesize_static_threshold, AttackSynthesizer, FarExperiment, MonitorEncoding,
    PivotSynthesizer, StepwiseSynthesizer, SynthesisConfig,
};

fn fast_config() -> SynthesisConfig {
    SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    }
}

#[test]
fn every_benchmark_model_builds_and_runs_nominally() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let plant = benchmark.closed_loop.plant();
        let trace = benchmark.closed_loop.simulate(
            &benchmark.initial_state,
            benchmark.horizon,
            &cps_control::NoiseModel::none(plant.num_states(), plant.num_outputs()),
            None,
            0,
        );
        assert!(
            benchmark
                .performance
                .satisfied_by(trace.states().last().unwrap()),
            "{}: nominal run misses its performance criterion",
            benchmark.name
        );
        assert!(
            !benchmark.monitors.evaluate(trace.measurements()).alarmed(),
            "{}: nominal run trips its own monitors",
            benchmark.name
        );
    }
}

#[test]
fn end_to_end_pivot_synthesis_and_detection() {
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let config = fast_config();

    // Algorithm 1 finds an attack on the undefended loop.
    let attack_synth = AttackSynthesizer::new(&benchmark, config);
    let undefended = attack_synth
        .synthesize(None)
        .expect("query decided")
        .expect("undefended loop attackable");
    assert!(attack_synth.verify_attack(&undefended, None));

    // Algorithm 2 produces thresholds under which Algorithm 1 proves safety.
    let report = PivotSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()
        .expect("synthesis runs");
    assert!(report.converged);
    assert!(report.is_monotone_decreasing());
    assert!(attack_synth
        .synthesize(Some(&report.partial))
        .expect("query decided")
        .is_none());

    // The synthesised detector flags the undefended attack.
    let detector = ThresholdDetector::new(report.threshold_spec(), ResidueNorm::Linf);
    assert!(detector.detects(&undefended.trace));
}

#[test]
fn end_to_end_stepwise_synthesis_and_far() {
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let config = fast_config();

    let stepwise = StepwiseSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()
        .expect("synthesis runs");
    assert!(stepwise.is_monotone_decreasing());

    let (static_spec, _) =
        synthesize_static_threshold(&benchmark, config, 6).expect("bisection runs");
    let static_detector = ThresholdDetector::new(static_spec, ResidueNorm::Linf);
    let stepwise_detector = ThresholdDetector::new(stepwise.threshold_spec(), ResidueNorm::Linf);

    let experiment = FarExperiment::new(&benchmark, 60, 3);
    let report = experiment.run(&[
        ("stepwise", &stepwise_detector as &dyn Detector),
        ("static", &static_detector),
    ]);
    assert_eq!(report.generated, 60);
    assert!(report.kept > 0, "some noise rollouts must pass the filter");
    for (_, rate) in &report.rates {
        assert!((0.0..=1.0).contains(rate));
    }
}

#[test]
fn vsc_attack_exists_under_exact_dead_zone_at_reduced_horizon() {
    let benchmark = cps_models::vsc().expect("model builds");
    let config = SynthesisConfig {
        horizon_override: Some(10),
        ..SynthesisConfig::default()
    };
    let synth = AttackSynthesizer::new(&benchmark, config);
    let attack = synth
        .synthesize(None)
        .expect("query decided")
        .expect("the T=10 VSC is attackable under the exact dead zone");
    // The attack prevents the loop from meeting its performance criterion.
    let final_state = attack.trace.states().last().expect("non-empty trace");
    assert!(!benchmark.performance.satisfied_by(final_state));
    // Re-simulated, it also passes the monitors.
    assert!(synth.verify_attack(&attack, None));
}

/// The trajectory plant does not reproduce the paper's FAR claim: the
/// largest provably safe constant c* is tight (1 % above it is attackable),
/// and the converged Algorithm 2 and 3 vectors are safe but alarm on noise at
/// least as often as c* does. A change that makes them beat c* fails here and
/// must update the finding in `ARCHITECTURE.md` (*Experiments*). The two
/// runs' round counts and work counters are pinned as well, so a solver
/// change that moves the Fig. 3 search fails here too.
#[test]
fn trajectory_synthesized_thresholds_do_not_beat_the_tight_static_baseline() {
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let config = fast_config();
    let synth = AttackSynthesizer::new(&benchmark, config);
    let constant = |c: f64| vec![Some(c); synth.horizon()];

    let (static_spec, queries) =
        synthesize_static_threshold(&benchmark, config, 30).expect("bisection runs");
    let c_star = static_spec.value_at(0);
    assert_eq!(format!("{c_star:.4e}"), "1.3044e-2");
    assert_eq!(queries, 32);
    assert!(synth
        .synthesize(Some(&constant(c_star)))
        .expect("query decided")
        .is_none());
    let above = constant(1.01 * c_star);
    let attack = synth
        .synthesize(Some(&above))
        .expect("query decided")
        .expect("1.01 c* is attackable");
    assert!(synth.verify_attack(&attack, Some(&above)));

    let pivot = PivotSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()
        .expect("synthesis runs");
    let stepwise = StepwiseSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()
        .expect("synthesis runs");
    for report in [&pivot, &stepwise] {
        assert!(report.converged);
        assert!(synth
            .synthesize(Some(&report.partial))
            .expect("query decided")
            .is_none());
    }
    // The Fig. 3 runs' search, pinned like the VSC T=14 run's below.
    assert_eq!(
        (pivot.rounds, work_columns(&pivot.solver_stats)),
        (243, [487, 245, 731, 245, 2414, 0, 0, 0, 506, 2902, 0, 0])
    );
    assert_eq!(
        (stepwise.rounds, work_columns(&stepwise.solver_stats)),
        (304, [609, 306, 914, 306, 3030, 0, 0, 0, 628, 3640, 0, 0])
    );

    let detector = |spec| ThresholdDetector::new(spec, ResidueNorm::Linf);
    let far = FarExperiment::new(&benchmark, 1000, 2026).run(&[
        ("pivot", &detector(pivot.threshold_spec()) as &dyn Detector),
        ("stepwise", &detector(stepwise.threshold_spec())),
        ("static", &detector(static_spec)),
    ]);
    let static_far = far.rate_of("static").expect("static rate");
    for name in ["pivot", "stepwise"] {
        let rate = far.rate_of(name).expect("rate");
        assert!(
            rate >= static_far,
            "{name}: FAR {rate} < static {static_far}"
        );
    }
}

/// Regression guard for PR 2's mis-reported-UNSAT bug: the dense from-scratch
/// core declared the T≥14 exact VSC query UNSAT after pivoting on ~1e-17
/// cancellation residue. The query is known SAT (the T=50 attack of Fig. 2
/// restricts to every prefix horizon), and it must *stay* SAT with theory
/// propagation on and off — a wrong UNSAT here is exactly the failure mode
/// that would fabricate CEGIS certificates.
#[test]
fn vsc_exact_t14_stays_sat_under_every_engine_configuration() {
    let benchmark = cps_models::vsc().unwrap();
    for propagation in [true, false] {
        let config = SynthesisConfig {
            horizon_override: Some(14),
            solver: cps_smt::SolverConfig {
                theory_propagation: propagation,
                ..cps_smt::SolverConfig::default()
            },
            ..fast_config()
        };
        let synthesizer = AttackSynthesizer::new(&benchmark, config);
        let attack = synthesizer
            .synthesize(None)
            .expect("query decided")
            .unwrap_or_else(|| {
                panic!("T=14 VSC query mis-reported UNSAT (propagation={propagation})")
            });
        assert!(
            synthesizer.verify_attack(&attack, None),
            "T=14 attack must verify under exact runtime semantics \
             (propagation={propagation})"
        );
    }
}

/// Thresholds of the 6-round VSC T=14 `PivotSynthesizer` run below, as
/// `f64::to_bits` (`None` = unchecked instant).
const VSC_T14_PARTIAL_BITS: [Option<u64>; 14] = [
    Some(4615626668101337088),
    None,
    None,
    None,
    None,
    Some(4614478619544731991),
    None,
    None,
    None,
    None,
    Some(4615184722476023244),
    Some(4613426530066874223),
    Some(4609510127731413014),
    Some(4610990490642916028),
];

/// Per-query search work of the same run, one row per query in execution
/// order: `decisions, conflicts, theory_checks, theory_conflicts, pivots,
/// theory_rebuilds, implied_bounds, propagated_literals,
/// explanation_literals, queue_pops, restarts, clauses_deleted`.
/// `queue_pops` counts leaving-row selections (one scan of the basic
/// variables each): one per pivot, plus one per solve that ends on a
/// selection without a pivot.
///
/// The run's tableaux have 28 columns, so on an AVX2 host every pivot
/// substitutes rows in the simplex's AVX2 instance, and these counters and
/// the thresholds above check that instance bit for bit end to end. The
/// Fig. 3 pins (10-column tableaux) run the inline instance.
const VSC_T14_ROUND_WORK: [[u64; 12]; 7] = [
    [97, 43, 97, 43, 260, 2, 2583, 55, 175, 321, 0, 0],
    [144, 60, 144, 60, 880, 2, 4471, 77, 868, 990, 0, 0],
    [141, 67, 141, 63, 1490, 2, 5891, 74, 1164, 1597, 0, 0],
    [106, 39, 106, 39, 439, 2, 5692, 72, 174, 513, 0, 0],
    [95, 41, 95, 41, 256, 2, 5001, 59, 155, 315, 0, 0],
    [93, 39, 93, 39, 244, 2, 4138, 62, 175, 305, 0, 0],
    [101, 41, 101, 41, 727, 2, 4794, 68, 385, 798, 0, 0],
];

/// The work counters of `stats` in the column order of
/// [`VSC_T14_ROUND_WORK`]: every counter but the wall-clock timer and the
/// warm-round count.
fn work_columns(s: &cps_smt::SolverStats) -> [u64; 12] {
    [
        s.decisions,
        s.conflicts,
        s.theory_checks,
        s.theory_conflicts,
        s.pivots,
        s.theory_rebuilds,
        s.implied_bounds,
        s.propagated_literals,
        s.explanation_literals,
        s.queue_pops,
        s.restarts,
        s.clauses_deleted,
    ]
}

/// Regression guard for warm-started CEGIS rounds on a short VSC threshold
/// synthesis: a second run on the same synthesizer, whose solver still
/// carries the first run's rounds, must repeat the first run exactly, and the
/// queries the run decided must match a fresh solver bit for bit. Warm
/// starting is a perf lever, never a semantic one.
///
/// The first run is also pinned against recorded constants: thresholds bit
/// for bit and every per-query work counter. Warm ≡ fresh holds within one
/// build; the pin catches a solver change (e.g. of the tableau storage) that
/// shifts a single pivot across versions.
#[test]
fn vsc_warm_started_synthesis_matches_fresh_solver_queries() {
    let benchmark = cps_models::vsc().expect("model builds");
    let config = SynthesisConfig {
        horizon_override: Some(14),
        ..fast_config()
    };
    let pivot = PivotSynthesizer::new(&benchmark, config).with_max_rounds(6);
    let first = pivot.run().expect("synthesis runs");
    let partial_bits: Vec<Option<u64>> = first
        .partial
        .iter()
        .map(|th| th.map(f64::to_bits))
        .collect();
    assert_eq!(
        partial_bits, VSC_T14_PARTIAL_BITS,
        "thresholds moved across versions"
    );
    let round_work: Vec<[u64; 12]> = first.round_stats.iter().map(work_columns).collect();
    assert_eq!(
        round_work, VSC_T14_ROUND_WORK,
        "search work moved across versions"
    );
    let again = pivot.run().expect("synthesis runs");
    assert_eq!(again.partial, first.partial, "thresholds diverged");
    assert_eq!(again.rounds, first.rounds, "round counts diverged");
    assert_eq!(again.status, first.status, "convergence verdicts diverged");
    assert_eq!(
        again.attacks_eliminated, first.attacks_eliminated,
        "counterexample counts diverged"
    );
    // Search work is deterministic; only the wall-clock timer and the
    // warm-round counter may differ between the runs.
    let work = |stats: &cps_smt::SolverStats| cps_smt::SolverStats {
        simplex_nanos: 0,
        scopes_reused: 0,
        ..*stats
    };
    let per_round = |report: &secure_cps::SynthesisReport| {
        report.round_stats.iter().map(work).collect::<Vec<_>>()
    };
    assert_eq!(per_round(&again), per_round(&first), "search work diverged");
    assert_eq!(
        first.solver_stats.scopes_reused as usize,
        first.round_stats.len() - 1,
        "every query after the first must be served warm"
    );
    assert_eq!(
        again.solver_stats.scopes_reused as usize,
        again.round_stats.len(),
        "a reused synthesizer serves every query warm"
    );

    let warm = pivot.attack_synthesizer();
    let fresh = || AttackSynthesizer::new(&benchmark, config);
    for threshold in [None, Some(first.partial.as_slice())] {
        assert_eq!(
            warm.synthesize(threshold).expect("query decided"),
            fresh().synthesize(threshold).expect("query decided"),
            "warm query diverged from a fresh solver (threshold {threshold:?})"
        );
    }
}

#[test]
fn vsc_conjunctive_monitors_block_dead_zone_free_attackers() {
    // With monitors enforced at every instant (no dead-zone slack), the
    // built-in solver proves that no stealthy attack defeats the VSC loop even
    // without a residue detector — evidence that the paper's attack relies on
    // the dead zone.
    let benchmark = cps_models::vsc().expect("model builds");
    let config = SynthesisConfig {
        monitor_encoding: MonitorEncoding::ConjunctiveAfter(5),
        ..SynthesisConfig::default()
    };
    let synth = AttackSynthesizer::new(&benchmark, config);
    assert!(synth.synthesize(None).expect("query decided").is_none());
}
