use cps_control::{ResidueNorm, Trace};
use cps_linalg::Vector;

use crate::{AlarmScan, Detector};

/// Windowed chi-squared-style detector: alarm when the sum of squared residue
/// norms over a sliding window exceeds a threshold.
///
/// This is the classical alternative to per-sample threshold tests; it is not
/// part of the paper's contribution but serves as an additional baseline in
/// the FAR comparison (`examples/far_comparison.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct Chi2Detector {
    window: usize,
    threshold: f64,
    norm: ResidueNorm,
}

impl Chi2Detector {
    /// Creates a detector with the given window length (≥ 1) and threshold on
    /// the windowed sum of squared residue norms.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `threshold` is negative.
    pub fn new(window: usize, threshold: f64, norm: ResidueNorm) -> Self {
        assert!(window >= 1, "window must contain at least one sample");
        assert!(threshold >= 0.0, "threshold must be non-negative");
        Self {
            window,
            threshold,
            norm,
        }
    }

    /// The window length in samples.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The alarm threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl Detector for Chi2Detector {
    fn scanner(&self) -> Box<dyn AlarmScan + '_> {
        Box::new(Chi2Scan {
            detector: self,
            // Ring buffer of the squared norms inside the window, allocated
            // once per scanner and reused across traces.
            recent: vec![0.0; self.window],
            window_sum: 0.0,
        })
    }
}

/// Streaming evaluator for [`Chi2Detector`]: the window sum first adds the
/// new squared norm, then subtracts the one leaving the window.
#[derive(Debug)]
struct Chi2Scan<'a> {
    detector: &'a Chi2Detector,
    recent: Vec<f64>,
    window_sum: f64,
}

impl AlarmScan for Chi2Scan<'_> {
    fn reset(&mut self) {
        self.recent.fill(0.0);
        self.window_sum = 0.0;
    }

    fn step(&mut self, k: usize, residue: &Vector) -> bool {
        let window = self.detector.window;
        let sq = {
            let z = self.detector.norm.apply(residue);
            z * z
        };
        self.window_sum += sq;
        if k >= window {
            self.window_sum -= self.recent[k % window];
        }
        self.recent[k % window] = sq;
        k + 1 >= window && self.window_sum > self.detector.threshold
    }
}

/// One-sided CUSUM detector on the residue norm: the statistic
/// `S_k = max(0, S_{k−1} + ‖z_k‖ − drift)` is compared against a threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct CusumDetector {
    drift: f64,
    threshold: f64,
    norm: ResidueNorm,
}

impl CusumDetector {
    /// Creates a CUSUM detector with the given drift (expected residue level
    /// under no attack) and alarm threshold.
    ///
    /// # Panics
    ///
    /// Panics if `drift` or `threshold` are negative.
    pub fn new(drift: f64, threshold: f64, norm: ResidueNorm) -> Self {
        assert!(drift >= 0.0, "drift must be non-negative");
        assert!(threshold >= 0.0, "threshold must be non-negative");
        Self {
            drift,
            threshold,
            norm,
        }
    }

    /// The drift parameter.
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// The alarm threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The CUSUM statistic trajectory for a trace (useful for plotting).
    pub fn statistic(&self, trace: &Trace) -> Vec<f64> {
        let mut s = 0.0;
        trace
            .residue_norms(self.norm)
            .into_iter()
            .map(|z| {
                s = f64::max(0.0, s + z - self.drift);
                s
            })
            .collect()
    }
}

impl Detector for CusumDetector {
    fn scanner(&self) -> Box<dyn AlarmScan + '_> {
        Box::new(CusumScan {
            detector: self,
            statistic: 0.0,
        })
    }
}

/// Streaming evaluator for [`CusumDetector`]: carries the one-sided CUSUM
/// statistic between instants.
#[derive(Debug)]
struct CusumScan<'a> {
    detector: &'a CusumDetector,
    statistic: f64,
}

impl AlarmScan for CusumScan<'_> {
    fn reset(&mut self) {
        self.statistic = 0.0;
    }

    fn step(&mut self, _k: usize, residue: &Vector) -> bool {
        let z = self.detector.norm.apply(residue);
        self.statistic = f64::max(0.0, self.statistic + z - self.detector.drift);
        self.statistic > self.detector.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_linalg::Vector;

    fn trace_with_residues(residues: &[f64]) -> Trace {
        let steps = residues.len();
        Trace::new(
            vec![Vector::zeros(1); steps + 1],
            vec![Vector::zeros(1); steps + 1],
            vec![Vector::zeros(1); steps],
            vec![Vector::zeros(1); steps],
            residues.iter().map(|z| Vector::from_slice(&[*z])).collect(),
        )
    }

    #[test]
    fn chi2_ignores_isolated_spikes_below_energy_threshold() {
        let detector = Chi2Detector::new(3, 0.5, ResidueNorm::Linf);
        // Single spike of 0.6: windowed energy 0.36 < 0.5, no alarm.
        assert_eq!(
            detector.first_alarm(&trace_with_residues(&[0.0, 0.6, 0.0, 0.0])),
            None
        );
        // Sustained 0.5 residues: energy 0.75 > 0.5 once the window fills.
        assert_eq!(
            detector.first_alarm(&trace_with_residues(&[0.5, 0.5, 0.5, 0.5])),
            Some(2)
        );
    }

    #[test]
    fn chi2_accessors_and_validation() {
        let d = Chi2Detector::new(4, 1.0, ResidueNorm::L2);
        assert_eq!(d.window(), 4);
        assert_eq!(d.threshold(), 1.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn chi2_zero_window_is_rejected() {
        let _ = Chi2Detector::new(0, 1.0, ResidueNorm::L2);
    }

    #[test]
    fn cusum_accumulates_persistent_bias() {
        let detector = CusumDetector::new(0.1, 0.5, ResidueNorm::Linf);
        // Residues at the drift level never alarm.
        assert_eq!(detector.first_alarm(&trace_with_residues(&[0.1; 20])), None);
        // A persistent 0.3 residue accumulates 0.2 per step: the statistic is
        // 0.2, 0.4, 0.6, … and first exceeds 0.5 at step 2.
        assert_eq!(
            detector.first_alarm(&trace_with_residues(&[0.3; 10])),
            Some(2)
        );
    }

    #[test]
    fn cusum_statistic_resets_after_quiet_period() {
        let detector = CusumDetector::new(0.2, 10.0, ResidueNorm::Linf);
        let stats = detector.statistic(&trace_with_residues(&[0.5, 0.5, 0.0, 0.0, 0.0]));
        assert!(stats[1] > stats[0] - 1e-12);
        assert!(
            stats[4] < stats[1],
            "statistic should decay in quiet periods"
        );
    }

    #[test]
    fn cusum_accessors() {
        let d = CusumDetector::new(0.1, 0.5, ResidueNorm::L1);
        assert_eq!(d.drift(), 0.1);
        assert_eq!(d.threshold(), 0.5);
    }
}
