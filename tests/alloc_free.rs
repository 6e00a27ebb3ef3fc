//! Pins the "allocation-free" claim of the streaming FAR hot loop: after a
//! warm-up rollout has sized every reusable buffer, further
//! `ClosedLoop::simulate_into` rollouts — with the monitor scan and a
//! threshold, a χ² and a CUSUM detector scanner stepped on every instant and
//! reset per rollout — must perform **zero** heap allocations in steady
//! state.
//!
//! The counting `#[global_allocator]` below is process-wide, so this file
//! deliberately contains a single `#[test]`: a second test running
//! concurrently would attribute its allocations to ours. (The test harness
//! itself may allocate on other threads only before/after the measured
//! window; the measured section runs single-threaded.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cps_control::{ResidueNorm, StepBuffers};
use cps_detectors::{Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

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
        let before = ALLOCATIONS.load(Ordering::SeqCst);
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
        let after = ALLOCATIONS.load(Ordering::SeqCst);

        assert_eq!(
            after - before,
            0,
            "{}: steady-state simulate_into hit the allocator",
            benchmark.name
        );
        // Keep the observer's arithmetic observable so it cannot be
        // optimised out along with a hypothetical allocation.
        assert!(checksum.is_finite());
        std::hint::black_box(alarms);
    }
}
