//! Differential tests of the streaming [`Detector::scanner`] evaluators
//! against materialised references built from [`Trace::residue_norms`] over
//! randomized residue traces: a fresh scanner, a scanner reused after `reset`
//! and [`Detector::first_alarm`] must all find the reference's exact alarm
//! instant (including "no alarm").

use cps_control::{ResidueNorm, Trace};
use cps_detectors::{
    AlarmScan, Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec,
};
use cps_linalg::{SplitMix64, Vector};

const CASES: u64 = 200;

fn random_trace(rng: &mut SplitMix64) -> Trace {
    let steps = 1 + rng.usize_below(30);
    let dim = 1 + rng.usize_below(3);
    let residues: Vec<Vector> = (0..steps)
        .map(|_| Vector::from_slice(&(0..dim).map(|_| rng.range(-0.6, 0.6)).collect::<Vec<_>>()))
        .collect();
    Trace::new(
        vec![Vector::zeros(1); steps + 1],
        vec![Vector::zeros(1); steps + 1],
        vec![Vector::zeros(dim); steps],
        vec![Vector::zeros(dim); steps],
        residues,
    )
}

fn scan_first_alarm(scanner: &mut dyn AlarmScan, trace: &Trace) -> Option<usize> {
    scanner.reset();
    trace
        .residues()
        .iter()
        .enumerate()
        .position(|(k, z)| scanner.step(k, z))
}

fn assert_paths_agree(
    detector: &dyn Detector,
    reference: impl Fn(&Trace) -> Option<usize>,
    rng: &mut SplitMix64,
    label: &str,
) {
    // One scanner reused across all traces: `reset` must fully clear state.
    let mut reused = detector.scanner();
    for case in 0..CASES {
        let trace = random_trace(rng);
        let expected = reference(&trace);
        assert_eq!(
            scan_first_alarm(&mut *detector.scanner(), &trace),
            expected,
            "{label} case {case}: fresh scanner disagrees with the reference"
        );
        assert_eq!(
            scan_first_alarm(&mut *reused, &trace),
            expected,
            "{label} case {case}: reused scanner disagrees after reset"
        );
        assert_eq!(
            detector.first_alarm(&trace),
            expected,
            "{label} case {case}: first_alarm disagrees with the reference"
        );
    }
}

#[test]
fn threshold_scanner_agrees_with_first_alarm() {
    let mut rng = SplitMix64::new(0x7157);
    let spec = ThresholdSpec::variable(vec![0.5, 0.4, 0.3, 0.2, 0.1]);
    for norm in [ResidueNorm::Linf, ResidueNorm::L2] {
        let detector = ThresholdDetector::new(spec.clone(), norm);
        // Alarm at the first k with ‖z_k‖ ≥ Th[k].
        let reference = |trace: &Trace| {
            trace
                .residue_norms(norm)
                .iter()
                .enumerate()
                .position(|(k, &z)| z >= spec.value_at(k))
        };
        assert_paths_agree(&detector, reference, &mut rng, "threshold");
    }
}

#[test]
fn chi2_scanner_agrees_with_first_alarm() {
    let mut rng = SplitMix64::new(0xC412);
    for window in [1, 2, 5] {
        let threshold = 0.3;
        let detector = Chi2Detector::new(window, threshold, ResidueNorm::L2);
        // Running window sum: add the new square, then subtract the one
        // leaving the window; alarm once the window is full and the sum
        // exceeds the threshold.
        let reference = |trace: &Trace| {
            let squares: Vec<f64> = trace
                .residue_norms(ResidueNorm::L2)
                .iter()
                .map(|z| z * z)
                .collect();
            let mut sum = 0.0;
            (0..squares.len()).find(|&k| {
                sum += squares[k];
                if k >= window {
                    sum -= squares[k - window];
                }
                k + 1 >= window && sum > threshold
            })
        };
        assert_paths_agree(&detector, reference, &mut rng, "chi2");
    }
}

#[test]
fn cusum_scanner_agrees_with_first_alarm() {
    let mut rng = SplitMix64::new(0xC05A);
    let detector = CusumDetector::new(0.1, 0.5, ResidueNorm::Linf);
    let reference = |trace: &Trace| {
        detector
            .statistic(trace)
            .iter()
            .position(|&s| s > detector.threshold())
    };
    assert_paths_agree(&detector, reference, &mut rng, "cusum");
}
