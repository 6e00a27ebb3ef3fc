//! Per-layer timings of a FAR experiment, measured from outside by
//! replaying its trials layer by layer (traced runs only).
//!
//! `FarExperiment::run` fuses rollout, monitor filter and detector scan in
//! one loop, so the layers are timed by re-running the same trials (same
//! plant, horizon, noise and seeds) through each layer's public API:
//! `ClosedLoop::simulate_into` with a pass-through observer for
//! `cps_control`, `MonitorScan::step` over the recorded measurements for
//! `cps_monitors`, and `Detector::scanner` steps over the recorded residues
//! for `cps_detectors`. The replay also recounts kept trials and alarms, which
//! the FAR check compares with the report.

use std::hint::black_box;
use std::time::Instant;

use cps_control::StepBuffers;
use cps_detectors::Detector;
use cps_linalg::Vector;
use cps_models::Benchmark;

/// What one replay measured.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub rollout_s: f64,
    pub steps: u64,
    pub monitor_scan_s: f64,
    pub monitor_alarms: u64,
    pub detector_scan_s: f64,
    pub detector_steps: u64,
    /// Trials that pass the monitor filter and the performance criterion.
    pub kept: usize,
    /// Per-detector alarm counts over the kept trials.
    pub alarms: Vec<usize>,
}

impl Replay {
    /// Adds another replay's times and counts (kept and alarms stay per
    /// replay).
    pub fn absorb(&mut self, other: &Replay) {
        self.rollout_s += other.rollout_s;
        self.steps += other.steps;
        self.monitor_scan_s += other.monitor_scan_s;
        self.monitor_alarms += other.monitor_alarms;
        self.detector_scan_s += other.detector_scan_s;
        self.detector_steps += other.detector_steps;
    }
}

/// Replays trials `0..trials` of a `FarExperiment` with noise seed `seed`.
pub fn replay(
    benchmark: &Benchmark,
    trials: usize,
    seed: u64,
    detectors: &[(&str, &dyn Detector)],
) -> Replay {
    let h = benchmark.horizon;
    let closed_loop = &benchmark.closed_loop;
    let trial_seed = |t: usize| seed.wrapping_add(t as u64);
    let mut out = Replay {
        alarms: vec![0; detectors.len()],
        ..Replay::default()
    };
    let mut buffers = StepBuffers::new();

    // cps_control: the rollouts alone.
    let start = Instant::now();
    for t in 0..trials {
        out.steps += closed_loop.simulate_into(
            &benchmark.initial_state,
            h,
            &benchmark.noise,
            None,
            trial_seed(t),
            &mut buffers,
            |record| {
                black_box(record.residue);
                true
            },
        ) as u64;
    }
    out.rollout_s = start.elapsed().as_secs_f64();

    // Record measurements, residues and the pfc verdict (untimed).
    let mut measurements: Vec<Vector> = Vec::with_capacity(trials * h);
    let mut residues: Vec<Vector> = Vec::with_capacity(trials * h);
    let mut pfc_ok = Vec::with_capacity(trials);
    for t in 0..trials {
        closed_loop.simulate_into(
            &benchmark.initial_state,
            h,
            &benchmark.noise,
            None,
            trial_seed(t),
            &mut buffers,
            |record| {
                measurements.push(record.measurement.clone());
                residues.push(record.residue.clone());
                true
            },
        );
        pfc_ok.push(benchmark.performance.satisfied_by(buffers.state()));
    }

    // cps_monitors: scan each trial until its alarm.
    let mut monitor_alarm = vec![false; trials];
    let mut scan = benchmark.monitors.scanner();
    let start = Instant::now();
    for (t, alarm) in monitor_alarm.iter_mut().enumerate() {
        scan.reset();
        *alarm = measurements[t * h..(t + 1) * h]
            .iter()
            .any(|y| scan.step(y));
    }
    out.monitor_scan_s = start.elapsed().as_secs_f64();
    out.monitor_alarms = monitor_alarm.iter().filter(|a| **a).count() as u64;
    let kept: Vec<bool> = monitor_alarm
        .iter()
        .zip(&pfc_ok)
        .map(|(alarm, ok)| !alarm && *ok)
        .collect();
    out.kept = kept.iter().filter(|k| **k).count();

    // cps_detectors: scan each kept trial until the detector alarms.
    let start = Instant::now();
    for (d, (_, detector)) in detectors.iter().enumerate() {
        let mut scanner = detector.scanner();
        for t in (0..trials).filter(|t| kept[*t]) {
            scanner.reset();
            for (k, z) in residues[t * h..(t + 1) * h].iter().enumerate() {
                out.detector_steps += 1;
                if scanner.step(k, z) {
                    out.alarms[d] += 1;
                    break;
                }
            }
        }
    }
    out.detector_scan_s = start.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_control::ResidueNorm;
    use cps_detectors::{ThresholdDetector, ThresholdSpec};
    use secure_cps::FarExperiment;

    #[test]
    fn replay_recounts_the_far_report() {
        let plant = cps_models::vsc().unwrap();
        let th = ThresholdDetector::new(
            ThresholdSpec::constant(0.05, plant.horizon),
            ResidueNorm::Linf,
        );
        let detectors: [(&str, &dyn Detector); 1] = [("th", &th)];
        let report = FarExperiment::new(&plant, 40, 9).run(&detectors);
        let replay = replay(&plant, 40, 9, &detectors);
        assert_eq!(replay.kept, report.kept);
        assert_eq!(
            replay.alarms[0] as f64 / replay.kept as f64,
            report.rates[0].1
        );
        assert!(
            replay.monitor_alarms > 0,
            "the VSC monitors discard noisy trials"
        );
        assert_eq!(replay.steps, 40 * plant.horizon as u64);
    }
}
