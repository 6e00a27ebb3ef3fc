//! Differential suite for the streaming detection runtime: the small-vector
//! linalg backend, the allocation-free rollout engine and the batched
//! parallel FAR lanes must all be **bit-identical** to materialising,
//! sequential references built here from the public allocating APIs, on
//! every plant in the zoo, attacked and attack-free, across a seed matrix.
//!
//! `CPS_SMT_SEED` (the same knob the SMT differential suites use) shifts
//! every noise seed in the matrix, so each CI seed lane replays a disjoint
//! set of rollouts while staying exactly reproducible locally.

use cps_control::{ClosedLoop, NoiseModel, ResidueNorm, SensorAttack, StepBuffers, Trace};
use cps_detectors::{
    false_alarm_rate, Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec,
};
use cps_linalg::Vector;
use cps_models::Benchmark;
use secure_cps::FarExperiment;

/// Base noise seeds, shifted by `CPS_SMT_SEED` so CI's seed matrix exercises
/// disjoint rollouts per lane.
fn seed_matrix() -> [u64; 3] {
    let shift: u64 = std::env::var("CPS_SMT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    [0, 7, 1234].map(|s: u64| s.wrapping_add(shift.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A deterministic non-trivial attack on the benchmark's attacked sensors:
/// a ramp up to the attack bound, zero on untouched sensors.
fn ramp_attack(benchmark: &Benchmark) -> SensorAttack {
    let outputs = benchmark.num_outputs();
    let injections = (0..benchmark.horizon)
        .map(|k| {
            let scale = benchmark.attack_bound * (k + 1) as f64 / benchmark.horizon as f64;
            Vector::from_fn(outputs, |i| {
                if benchmark.attacked_sensors.contains(&i) {
                    scale
                } else {
                    0.0
                }
            })
        })
        .collect();
    SensorAttack::new(injections)
}

/// The allocating rollout the streaming engine replaced, rebuilt from the
/// public allocating kernels as the differential baseline for
/// `ClosedLoop::simulate` / `simulate_into`.
fn simulate_reference(
    loop_: &ClosedLoop,
    initial: &Vector,
    steps: usize,
    noise: &NoiseModel,
    attack: Option<&SensorAttack>,
    seed: u64,
) -> Trace {
    let plant = loop_.plant();
    let mut x = initial.clone();
    let mut xhat = Vector::zeros(plant.num_states());
    let mut states = vec![x.clone()];
    let mut estimates = vec![xhat.clone()];
    let (mut measurements, mut controls, mut residues) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..steps {
        let u = loop_.control_law(&xhat);
        let (w, v) = noise.sample(seed, k);
        let mut y = &plant.output(&x, &u) + &v;
        if let Some(attack) = attack {
            let injection = attack.injection(k);
            if !injection.is_empty() {
                y += &injection;
            }
        }
        let z = &y - &plant.output(&xhat, &u);
        x = &plant.step(&x, &u) + &w;
        xhat = &plant.step(&xhat, &u) + &loop_.estimator_gain().mul_vec(&z);
        measurements.push(y);
        controls.push(u);
        residues.push(z);
        states.push(x.clone());
        estimates.push(xhat.clone());
    }
    Trace::new(states, estimates, measurements, controls, residues)
}

fn simulate_streaming(
    loop_: &ClosedLoop,
    initial: &Vector,
    steps: usize,
    noise: &NoiseModel,
    attack: Option<&SensorAttack>,
    seed: u64,
) -> Trace {
    let mut buffers = StepBuffers::new();
    // `simulate` itself is built on `simulate_into`; drive the buffers
    // explicitly too so the final-state invariant below sees them.
    let trace = loop_.simulate(initial, steps, noise, attack, seed);
    let executed = loop_.simulate_into(initial, steps, noise, attack, seed, &mut buffers, |_| true);
    assert_eq!(executed, steps);
    assert_eq!(buffers.state(), trace.states().last().unwrap());
    assert_eq!(buffers.estimate(), trace.estimates().last().unwrap());
    trace
}

fn assert_traces_identical(a: &Trace, b: &Trace, context: &str) {
    assert_eq!(a.states(), b.states(), "{context}: states differ");
    assert_eq!(a.estimates(), b.estimates(), "{context}: estimates differ");
    assert_eq!(
        a.measurements(),
        b.measurements(),
        "{context}: measurements differ"
    );
    assert_eq!(a.controls(), b.controls(), "{context}: controls differ");
    assert_eq!(a.residues(), b.residues(), "{context}: residues differ");
}

/// The streaming rollout engine must reproduce `simulate_reference`
/// bit-for-bit on every plant, attack-free, under a full-horizon attack and
/// under an attack shorter than the horizon, for every seed in the matrix.
#[test]
fn streaming_rollouts_match_reference_on_every_plant() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let full = ramp_attack(&benchmark);
        let short = SensorAttack::new(full.injections()[..benchmark.horizon / 2].to_vec());
        for seed in seed_matrix() {
            for (label, attack) in [
                ("none", None),
                ("full", Some(&full)),
                ("short", Some(&short)),
            ] {
                let context = format!("{} seed={seed} attack={label}", benchmark.name);
                let reference = simulate_reference(
                    &benchmark.closed_loop,
                    &benchmark.initial_state,
                    benchmark.horizon,
                    &benchmark.noise,
                    attack,
                    seed,
                );
                let streaming = simulate_streaming(
                    &benchmark.closed_loop,
                    &benchmark.initial_state,
                    benchmark.horizon,
                    &benchmark.noise,
                    attack,
                    seed,
                );
                assert_traces_identical(&streaming, &reference, &context);
            }
        }
    }
}

/// A heap-backed initial state must produce the exact same trace as the
/// (inline) small-vector representation: the storage backend is invisible to
/// the dynamics.
#[test]
fn heap_backed_initial_state_is_indistinguishable() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let heap_initial = Vector::heap_backed(benchmark.initial_state.as_slice().to_vec());
        assert_eq!(heap_initial, benchmark.initial_state);
        for seed in seed_matrix() {
            let inline_trace = benchmark.closed_loop.simulate(
                &benchmark.initial_state,
                benchmark.horizon,
                &benchmark.noise,
                None,
                seed,
            );
            let heap_trace = benchmark.closed_loop.simulate(
                &heap_initial,
                benchmark.horizon,
                &benchmark.noise,
                None,
                seed,
            );
            assert_traces_identical(&heap_trace, &inline_trace, &benchmark.name);
        }
    }
}

fn zoo_detectors(benchmark: &Benchmark) -> (ThresholdDetector, Chi2Detector, CusumDetector) {
    (
        ThresholdDetector::new(
            ThresholdSpec::constant(0.05, benchmark.horizon),
            ResidueNorm::Linf,
        ),
        Chi2Detector::new(5, 0.01, ResidueNorm::L2),
        CusumDetector::new(0.02, 0.08, ResidueNorm::Linf),
    )
}

/// The FAR population materialised one trial at a time: seeded noise
/// rollouts that meet the performance criterion and pass the monitors.
fn kept_population(benchmark: &Benchmark, trials: usize, seed: u64) -> Vec<Trace> {
    (0..trials)
        .map(|trial| {
            benchmark.closed_loop.simulate(
                &benchmark.initial_state,
                benchmark.horizon,
                &benchmark.noise,
                None,
                seed.wrapping_add(trial as u64),
            )
        })
        .filter(|trace| {
            benchmark
                .performance
                .satisfied_by(trace.states().last().unwrap())
                && !benchmark.monitors.evaluate(trace.measurements()).alarmed()
        })
        .collect()
}

/// The streaming batched-lane `FarExperiment::run` must report bit-identical
/// rates for every lane count, and those rates must equal the per-detector
/// rates over the materialised kept population.
#[test]
fn far_lanes_are_bit_identical_across_widths_and_to_materialised_rates() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let (threshold, chi2, cusum) = zoo_detectors(&benchmark);
        let detectors: [(&str, &dyn Detector); 3] =
            [("static", &threshold), ("chi2", &chi2), ("cusum", &cusum)];
        for seed in seed_matrix() {
            let report_seq = FarExperiment::new(&benchmark, 48, seed)
                .with_parallelism(1)
                .run(&detectors);
            for lanes in [2, 3, 8] {
                let report_par = FarExperiment::new(&benchmark, 48, seed)
                    .with_parallelism(lanes)
                    .run(&detectors);
                assert_eq!(
                    report_seq, report_par,
                    "{} seed={seed}: {lanes}-lane report differs",
                    benchmark.name
                );
            }
            let kept = kept_population(&benchmark, 48, seed);
            assert_eq!(
                report_seq.kept,
                kept.len(),
                "{} seed={seed}",
                benchmark.name
            );
            for (name, detector) in detectors {
                let rate = report_seq.rate_of(name).unwrap();
                let reference = false_alarm_rate(detector, &kept);
                assert_eq!(
                    rate.to_bits(),
                    reference.to_bits(),
                    "{} seed={seed} {name}: streaming rate differs",
                    benchmark.name
                );
            }
        }
    }
}

/// The streaming monitor scanner must find the alarm instant of the
/// slice-based `MonitorSuite::evaluate` on real simulated measurement
/// streams — including attacked ones, which is where monitors actually fire.
#[test]
fn monitor_scanner_matches_first_alarm_on_simulated_streams() {
    for benchmark in cps_models::all_benchmarks().expect("models build") {
        let attack = ramp_attack(&benchmark);
        for seed in seed_matrix() {
            for attack in [None, Some(&attack)] {
                let trace = benchmark.closed_loop.simulate(
                    &benchmark.initial_state,
                    benchmark.horizon,
                    &benchmark.noise,
                    attack,
                    seed,
                );
                let reference = benchmark.monitors.evaluate(trace.measurements()).alarm_at;
                let mut scan = benchmark.monitors.scanner();
                let streamed = trace.measurements().iter().position(|y| scan.step(y));
                assert_eq!(
                    streamed,
                    reference,
                    "{} seed={seed} attacked={}: scanner verdict differs",
                    benchmark.name,
                    attack.is_some()
                );
            }
        }
    }
}
