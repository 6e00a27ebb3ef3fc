//! Differential suite for the streaming detection runtime: the small-vector
//! linalg backend, the allocation-free rollout engine and the batched
//! parallel FAR lanes must all be **bit-identical** to materialising,
//! sequential references built here from the public allocating APIs, on
//! every plant in the zoo, attacked and attack-free, across a seed matrix.
//!
//! `CPS_SMT_SEED` (the same knob the SMT differential suites use) shifts
//! every noise seed in the matrix, so each CI seed lane replays a disjoint
//! set of rollouts while staying exactly reproducible locally.

use cps_control::{
    kalman_gain, lqr_gain, ClosedLoop, NoiseModel, Reference, ResidueNorm, SensorAttack,
    StateSpace, StepBuffers, Trace,
};
use cps_detectors::{
    false_alarm_rate, Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec,
};
use cps_linalg::{Matrix, Vector, INLINE_CAP};
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

/// Every entry's bit pattern: `==` would take −0.0 for +0.0.
fn bits(vectors: &[Vector]) -> Vec<Vec<u64>> {
    vectors
        .iter()
        .map(|v| v.as_slice().iter().map(|e| e.to_bits()).collect())
        .collect()
}

fn assert_traces_identical(a: &Trace, b: &Trace, context: &str) {
    for (name, a, b) in [
        ("states", a.states(), b.states()),
        ("estimates", a.estimates(), b.estimates()),
        ("measurements", a.measurements(), b.measurements()),
        ("controls", a.controls(), b.controls()),
        ("residues", a.residues(), b.residues()),
    ] {
        assert_eq!(bits(a), bits(b), "{context}: {name} differ");
    }
}

/// A closed loop to roll out, with its initial state, horizon, nominal
/// noise and the attacks to replay besides none.
struct Case {
    name: String,
    closed_loop: ClosedLoop,
    initial_state: Vector,
    horizon: usize,
    noise: NoiseModel,
    attacks: Vec<SensorAttack>,
}

impl Case {
    /// A zoo plant under a full-horizon ramp and a ramp shorter than the
    /// horizon.
    fn zoo(benchmark: Benchmark) -> Self {
        let full = ramp_attack(&benchmark);
        let short = SensorAttack::new(full.injections()[..benchmark.horizon / 2].to_vec());
        Case {
            attacks: vec![full, short],
            name: benchmark.name,
            closed_loop: benchmark.closed_loop,
            initial_state: benchmark.initial_state,
            horizon: benchmark.horizon,
            noise: benchmark.noise,
        }
    }

    /// A closed loop of shape `(n, m, p)` outside the zoo's shapes, so it
    /// runs the step kernel's run-time-shape instance: a stable chain (0.9
    /// on A's diagonal, 0.1 above it) with a nonzero feed-through, LQR and
    /// Kalman gains, a nonzero set-point and equilibrium input and noise on
    /// every component, under a full-horizon ramp on every sensor, a
    /// shorter one and empty injections.
    fn generated(n: usize, m: usize, p: usize) -> Self {
        let plant = StateSpace::new(
            Matrix::from_fn(n, n, |i, j| match j.wrapping_sub(i) {
                0 => 0.9,
                1 => 0.1,
                _ => 0.0,
            }),
            Matrix::from_fn(n, m, |i, j| 0.05 + 0.1 * ((i + 2 * j) % 3) as f64),
            Matrix::from_fn(p, n, |i, j| if j % p == i { 1.0 } else { 0.0 }),
            Matrix::from_fn(p, m, |i, j| 0.01 * (i + j + 1) as f64),
        )
        .expect("conformable plant");
        let k = lqr_gain(&plant, &Matrix::identity(n), &Matrix::identity(m)).expect("LQR gain");
        let l = kalman_gain(
            &plant,
            &Matrix::identity(n).scale(1e-4),
            &Matrix::identity(p).scale(1e-4),
        )
        .expect("Kalman gain");
        let reference = Reference::with_equilibrium_input(
            Vector::from_fn(n, |i| 0.5 - 0.1 * i as f64),
            Vector::from_fn(m, |j| 0.02 * (j + 1) as f64),
        );
        let horizon = 30;
        let full = SensorAttack::new(
            (0..horizon)
                .map(|k| Vector::from_fn(p, |i| 0.01 * (k * (i + 1)) as f64))
                .collect(),
        );
        let short = SensorAttack::new(full.injections()[..horizon / 2].to_vec());
        let empty = SensorAttack::new(vec![Vector::zeros(0); horizon]);
        Case {
            name: format!("generated ({n}, {m}, {p})"),
            closed_loop: ClosedLoop::new(plant, k, l)
                .expect("designed gains")
                .with_reference(reference),
            initial_state: Vector::from_fn(n, |i| 0.1 * (i + 1) as f64),
            horizon,
            noise: NoiseModel::uniform_std(n, p, 1e-3, 1e-2),
            attacks: vec![full, short, empty],
        }
    }
}

/// Every zoo plant, and the two shapes the zoo never reaches: three
/// states, and more states than a `Vector` keeps inline, so every vector
/// of that rollout is heap-backed.
fn rollout_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = cps_models::all_benchmarks()
        .expect("models build")
        .into_iter()
        .map(Case::zoo)
        .collect();
    cases.push(Case::generated(3, 1, 2));
    let wide = Case::generated(INLINE_CAP + 2, 2, 3);
    assert!(!wide.initial_state.is_inline());
    cases.push(wide);
    cases
}

/// The streaming rollout engine must reproduce `simulate_reference`
/// bit-for-bit on every case, attack-free and under each of its attacks,
/// for every seed in the matrix.
#[test]
fn streaming_rollouts_match_reference_on_every_plant() {
    for case in rollout_cases() {
        for seed in seed_matrix() {
            for (i, attack) in std::iter::once(None)
                .chain(case.attacks.iter().map(Some))
                .enumerate()
            {
                let context = format!("{} seed={seed} attack={i}", case.name);
                let (loop_, initial) = (&case.closed_loop, &case.initial_state);
                let reference =
                    simulate_reference(loop_, initial, case.horizon, &case.noise, attack, seed);
                let streaming =
                    simulate_streaming(loop_, initial, case.horizon, &case.noise, attack, seed);
                assert_traces_identical(&streaming, &reference, &context);
            }
        }
    }
}

/// A silent model ([`NoiseModel::none`]) draws no noise where adding its
/// ±0.0 samples changes nothing; its rollouts must still match the
/// reference, which draws and adds them at every step. The plants of the
/// zoo never reach a −0.0 in a measurement or a state; the one-state loop
/// below (A = −0.5, B = C = −1, D = 0, zero gains) from a zero state does
/// at every step, where the sign of the sample decides the sum.
#[test]
fn silent_rollouts_match_reference() {
    let scalar = |v: f64| Matrix::from_rows(&[&[v]]).expect("1x1 matrix");
    let plant = StateSpace::new(scalar(-0.5), scalar(-1.0), scalar(-1.0), scalar(0.0))
        .expect("one-state plant");
    let mut cases = rollout_cases();
    cases.push(Case {
        name: "one-state".into(),
        closed_loop: ClosedLoop::new(plant, scalar(0.0), scalar(0.0)).expect("zero gains"),
        initial_state: Vector::zeros(1),
        horizon: 20,
        noise: NoiseModel::none(1, 1),
        attacks: Vec::new(),
    });
    let seeds = seed_matrix().into_iter().chain(0..64);
    for seed in seeds {
        for case in &cases {
            let (loop_, initial, steps) = (&case.closed_loop, &case.initial_state, case.horizon);
            let plant = loop_.plant();
            let silent = NoiseModel::none(plant.num_states(), plant.num_outputs());
            for (i, attack) in std::iter::once(None)
                .chain(case.attacks.iter().map(Some))
                .enumerate()
            {
                let context = format!("{} silent seed={seed} attack={i}", case.name);
                let reference = simulate_reference(loop_, initial, steps, &silent, attack, seed);
                let streaming = simulate_streaming(loop_, initial, steps, &silent, attack, seed);
                assert_traces_identical(&streaming, &reference, &context);
            }
        }
    }
}

/// The record contract FAR relies on: an observer that stops at step `k`
/// leaves the buffers' state and estimate where step `k + 1` would start,
/// and a rollout of zero steps leaves the initial state and a zero
/// estimate. One `StepBuffers` serves every plant and shape in turn.
#[test]
fn stopped_rollouts_leave_the_state_where_the_next_step_starts() {
    let mut buffers = StepBuffers::new();
    let seed = seed_matrix()[1];
    for case in rollout_cases() {
        let (name, loop_, initial) = (&case.name, &case.closed_loop, &case.initial_state);
        let (steps, noise) = (case.horizon, &case.noise);
        let reference = simulate_reference(loop_, initial, steps, noise, None, seed);
        for stop in [0, 1, steps / 2, steps - 1] {
            let executed =
                loop_.simulate_into(initial, steps, noise, None, seed, &mut buffers, |record| {
                    record.k < stop
                });
            assert_eq!(executed, stop + 1, "{name}: stopped at {stop}");
            assert_eq!(
                bits(&[buffers.state().clone(), buffers.estimate().clone()]),
                bits(&[
                    reference.states()[stop + 1].clone(),
                    reference.estimates()[stop + 1].clone()
                ]),
                "{name}: stopped at {stop}"
            );
        }
        let executed = loop_.simulate_into(initial, 0, noise, None, seed, &mut buffers, |_| {
            panic!("{name}: a rollout of zero steps observed a step")
        });
        assert_eq!(executed, 0);
        assert_eq!(
            bits(&[buffers.state().clone(), buffers.estimate().clone()]),
            bits(&[initial.clone(), Vector::zeros(initial.len())]),
            "{name}: zero steps"
        );
    }
}

/// A noise model whose process or measurement part does not match the plant
/// panics at its first draw, and so does an injection of the wrong length,
/// on every instance of the step kernel.
#[test]
fn noise_and_injections_of_the_wrong_length_panic() {
    for case in rollout_cases() {
        let plant = case.closed_loop.plant();
        let (n, p) = (plant.num_states(), plant.num_outputs());
        let long_injection = SensorAttack::new(vec![Vector::zeros(p + 1)]);
        for (what, noise, attack) in [
            (
                "process noise",
                NoiseModel::uniform_std(n + 1, p, 1e-3, 1e-3),
                None,
            ),
            (
                "measurement noise",
                NoiseModel::uniform_std(n, p + 1, 1e-3, 1e-3),
                None,
            ),
            ("injection", case.noise.clone(), Some(&long_injection)),
        ] {
            let rollout = std::panic::AssertUnwindSafe(|| {
                case.closed_loop
                    .simulate(&case.initial_state, 3, &noise, attack, 1);
            });
            let panic = std::panic::catch_unwind(rollout)
                .expect_err(&format!("{}: {what} of the wrong length", case.name));
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("requires equal lengths"),
                "{}: {what} panicked with {message:?}",
                case.name
            );
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
