//! Pins the "allocation-free" claim of the streaming FAR hot loop: after a
//! warm-up rollout has sized every reusable buffer, further
//! `ClosedLoop::simulate_into` rollouts — with the monitor scan and a
//! threshold, a χ² and a CUSUM detector scanner stepped on every instant and
//! reset per rollout — must perform **zero** heap allocations in steady
//! state.
//!
//! The counting allocator (`tests/counting_alloc/mod.rs`) counts only the
//! allocations of the thread that opened the window.

mod counting_alloc;

use cps_control::{ResidueNorm, StepBuffers};
use cps_detectors::{Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec};

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
