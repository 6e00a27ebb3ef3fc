use cps_control::Trace;

use crate::Detector;

/// False-alarm rate of a detector over a set of *attack-free* traces: the
/// fraction of traces on which the detector raises an alarm.
///
/// The caller is responsible for generating the traces the same way the paper
/// does for its FAR experiment — noise-only rollouts that already pass the
/// plant's monitoring constraints (`mdc`). The `secure-cps` crate's
/// [`FarExperiment`](https://docs.rs/secure-cps) applies that filter and this
/// rate to streamed rollouts without materialising them.
///
/// Returns zero for an empty trace set.
///
/// # Example
///
/// ```
/// use cps_control::ResidueNorm;
/// use cps_detectors::{false_alarm_rate, ThresholdDetector, ThresholdSpec};
///
/// let detector = ThresholdDetector::new(ThresholdSpec::constant(1.0, 10), ResidueNorm::Linf);
/// assert_eq!(false_alarm_rate(&detector, &[]), 0.0);
/// ```
pub fn false_alarm_rate<D: Detector + ?Sized>(detector: &D, noise_only_traces: &[Trace]) -> f64 {
    if noise_only_traces.is_empty() {
        return 0.0;
    }
    let alarms = noise_only_traces
        .iter()
        .filter(|trace| detector.detects(trace))
        .count();
    alarms as f64 / noise_only_traces.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThresholdDetector, ThresholdSpec};
    use cps_control::ResidueNorm;
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
    fn rates_count_alarmed_fraction() {
        let detector = ThresholdDetector::new(ThresholdSpec::constant(0.5, 4), ResidueNorm::Linf);
        let traces = vec![
            trace_with_residues(&[0.1, 0.2]), // quiet
            trace_with_residues(&[0.6, 0.0]), // alarms
            trace_with_residues(&[0.4, 0.4]), // quiet
            trace_with_residues(&[0.0, 0.9]), // alarms
        ];
        assert!((false_alarm_rate(&detector, &traces) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_population_gives_zero_rate() {
        let detector = ThresholdDetector::new(ThresholdSpec::constant(0.5, 4), ResidueNorm::Linf);
        assert_eq!(false_alarm_rate(&detector, &[]), 0.0);
    }

    #[test]
    fn tighter_thresholds_cannot_decrease_far() {
        let traces: Vec<Trace> = (0..20)
            .map(|i| trace_with_residues(&[0.05 * i as f64, 0.02 * i as f64]))
            .collect();
        let loose = ThresholdDetector::new(ThresholdSpec::constant(0.8, 2), ResidueNorm::Linf);
        let tight = ThresholdDetector::new(ThresholdSpec::constant(0.2, 2), ResidueNorm::Linf);
        assert!(false_alarm_rate(&tight, &traces) >= false_alarm_rate(&loose, &traces));
    }
}
