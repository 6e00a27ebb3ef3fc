//! The allocation bounds of the workspace's hot paths, one test each: the
//! steady-state rollouts of the FAR loop, a warm CEGIS round, and Algorithm
//! 1's symbolic unrolling of the VSC.
//!
//! The counting allocator (`tests/counting_alloc/mod.rs`) counts only the
//! allocations of the thread that opened the window.

mod counting_alloc;

use cps_control::{ResidueNorm, StepBuffers};
use cps_detectors::{Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec};
use secure_cps::{PivotSynthesizer, SynthesisConfig, UnrolledLoop};

/// Pins the "allocation-free" claim of the streaming FAR hot loop: after a
/// warm-up rollout has sized every reusable buffer, further
/// `ClosedLoop::simulate_into` rollouts — with the monitor scan and a
/// threshold, a χ² and a CUSUM detector scanner stepped on every instant and
/// reset per rollout — must perform **zero** heap allocations in steady
/// state.
#[test]
fn steady_state_rollouts_allocate_nothing() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let mut buffers = StepBuffers::new();
        let mut monitor_scan = benchmark.monitors.scanner();
        let threshold = ThresholdDetector::new(
            ThresholdSpec::constant(0.05, benchmark.horizon),
            ResidueNorm::Linf,
        );
        let chi2 = Chi2Detector::new(5, 0.01, ResidueNorm::L2);
        let cusum = CusumDetector::new(0.02, 0.08, ResidueNorm::Linf);
        let mut scanners = [threshold.scanner(), chi2.scanner(), cusum.scanner()];
        let mut checksum = 0.0f64;
        let mut alarms = 0usize;

        // Warm-up: the first rollout sizes the step buffers (and, for plants
        // wider than the inline capacity, spills them to the heap once).
        benchmark.closed_loop.simulate_into(
            &benchmark.initial_state,
            benchmark.horizon,
            &benchmark.noise,
            None,
            1,
            &mut buffers,
            |record| {
                monitor_scan.step(record.measurement);
                for scanner in &mut scanners {
                    scanner.step(record.k, record.residue);
                }
                true
            },
        );

        // Steady state: repeated rollouts through the same buffers — the
        // full closed-loop update, monitor scan, detector scans and a residue
        // reduction per step — must not touch the allocator at all.
        let ((), allocations) = counting_alloc::count(|| {
            for seed in 2..6u64 {
                monitor_scan.reset();
                for scanner in &mut scanners {
                    scanner.reset();
                }
                benchmark.closed_loop.simulate_into(
                    &benchmark.initial_state,
                    benchmark.horizon,
                    &benchmark.noise,
                    None,
                    seed,
                    &mut buffers,
                    |record| {
                        monitor_scan.step(record.measurement);
                        for scanner in &mut scanners {
                            alarms += usize::from(scanner.step(record.k, record.residue));
                        }
                        checksum += record.residue.as_slice().iter().sum::<f64>();
                        true
                    },
                );
            }
        });

        assert_eq!(
            allocations, 0,
            "{}: steady-state simulate_into hit the allocator",
            benchmark.name
        );
        // Keep the observer's arithmetic observable so it cannot be
        // optimised out along with a hypothetical allocation.
        assert!(checksum.is_finite());
        std::hint::black_box(alarms);
    }
}

/// Allocations per Algorithm 1 query of the run below, counting everything
/// the run allocates (the base encoding, pivots, simulations) over its
/// queries. Building the SAT core and the tableau per query measured
/// 370.1 per query in this test (debug and release builds alike);
/// restoring them from the image measured 172.4, and 167.5 once expressions
/// kept their terms in one vector. Adding clauses from slices through a
/// reused buffer, compacting watch lists in place and remembering the
/// re-check verdicts of base-atom explanations measured 97.5, and 96.5 once
/// the check's governor lost its `Arc`. Keeping the CNF's clauses in one
/// arena, lending the round's expressions to the solver instead of cloning
/// them, keeping each row's atom list across rounds and drawing no noise in
/// a silent re-simulation measured 22.2.
/// Explanations of `u32` tags, which collect into their learned clauses in
/// place (one allocation fewer per theory conflict), measured 21.1. Keeping
/// up to eight entries of capacity per tableau variable in the simplex's
/// bound trail and propagation worklist across restores, instead of one,
/// measured 15.2; the bound is 1.3 times that. Encoding the monitors from
/// the unrolling's measurement expressions in place, instead of from a
/// clone of them per solver, measured 15.1.
const MAX_ALLOCATIONS_PER_QUERY: f64 = 19.8;

/// Pins the allocation cost of a warm CEGIS round. Each Algorithm 1 query of
/// a run restores the solver's SAT core and tableau from a level-0 image of
/// the base encoding into reused allocations, instead of building both from
/// the whole CNF; this test bounds the heap allocations a query makes, so a
/// change that brings back a per-query build fails here.
#[test]
fn warm_rounds_restore_instead_of_rebuilding() {
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let config = SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    };
    let synthesizer = PivotSynthesizer::new(&benchmark, config).with_max_rounds(400);
    let (report, allocations) = counting_alloc::count(|| synthesizer.run());
    let report = report.expect("the run completes");
    assert!(
        report.converged,
        "margin 0.25 converges on the trajectory plant"
    );
    let queries = report.round_stats.len();
    let per_query = allocations as f64 / queries as f64;
    println!("{allocations} allocations over {queries} queries: {per_query:.1} per query");
    assert!(
        per_query < MAX_ALLOCATIONS_PER_QUERY,
        "{per_query:.1} allocations per query (bound {MAX_ALLOCATIONS_PER_QUERY})"
    );
}

/// Allocations of `UnrolledLoop::new` on the VSC (T=50), reallocations
/// included. Terms in a `BTreeMap` measured 41,742 in this test; one sorted
/// vector per expression measured 3,411 (debug and release builds alike),
/// and keeping only the final plant state instead of all `T + 1` states
/// 3,261. The bound is 1.3 times that.
const MAX_ALLOCATIONS: usize = 4_240;

/// Pins the allocation cost of Algorithm 1's symbolic unrolling. Every
/// plant state, estimate, input, measurement and residue of the VSC at its
/// 50-sample horizon is a `LinExpr` over up to 50 attack variables; a
/// `LinExpr` keeps its terms in one sorted vector, so an expression costs
/// one allocation, not one per tree node. This test bounds the heap
/// allocations of the unrolling, so a return to per-node term storage fails
/// here.
#[test]
fn vsc_unrolling_allocates_per_expression_not_per_term() {
    let benchmark = cps_models::vsc().expect("model builds");
    let (unrolled, allocations) = counting_alloc::count(|| UnrolledLoop::new(&benchmark));
    assert_eq!(unrolled.horizon(), 50);
    println!("{allocations} allocations to unroll the VSC over T=50");
    assert!(
        allocations < MAX_ALLOCATIONS,
        "{allocations} allocations (bound {MAX_ALLOCATIONS})"
    );
}
