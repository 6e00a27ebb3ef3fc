use std::error::Error;
use std::fmt;

use cps_control::ResidueNorm;
use cps_linalg::Vector;

use crate::{AlarmScan, Detector};

/// A rejected threshold specification (see [`ThresholdSpec::try_variable`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThresholdError {
    /// The specification covers no sampling instant.
    Empty,
    /// An entry is negative or NaN. `+∞` is *allowed* — it encodes "no check
    /// at this instant" — but NaN makes every comparison silently false, so
    /// it is rejected at the boundary.
    Invalid {
        /// Index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThresholdError::Empty => write!(f, "threshold vector must be non-empty"),
            ThresholdError::Invalid { index, value } => {
                write!(f, "threshold entry {index} is {value}; thresholds must be non-negative and not NaN")
            }
        }
    }
}

impl Error for ThresholdError {}

/// A threshold specification `Th`, mapping each sampling instant to the
/// residue bound the detector compares against.
///
/// The paper distinguishes *static* thresholds (the same bound at every
/// instant) from *variable* thresholds (a length-`T` vector, synthesised to be
/// monotonically decreasing). Instants beyond the stored horizon reuse the
/// last stored value.
///
/// # Example
///
/// ```
/// use cps_detectors::ThresholdSpec;
///
/// let th = ThresholdSpec::variable(vec![0.5, 0.3, 0.1]);
/// assert_eq!(th.value_at(0), 0.5);
/// assert_eq!(th.value_at(2), 0.1);
/// assert_eq!(th.value_at(10), 0.1); // beyond the horizon: last value
/// assert!(th.is_monotone_decreasing());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSpec {
    values: Vec<f64>,
}

impl ThresholdSpec {
    /// A static threshold: the same `value` for `horizon` instants.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero or `value` is negative or NaN; use
    /// [`ThresholdSpec::try_constant`] for untrusted input.
    pub fn constant(value: f64, horizon: usize) -> Self {
        Self::try_constant(value, horizon).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ThresholdSpec::constant`] for untrusted input.
    ///
    /// # Errors
    ///
    /// [`ThresholdError::Empty`] if `horizon` is zero,
    /// [`ThresholdError::Invalid`] if `value` is negative or NaN (`+∞` is
    /// allowed: it encodes "no check at this instant").
    pub fn try_constant(value: f64, horizon: usize) -> Result<Self, ThresholdError> {
        if horizon == 0 {
            return Err(ThresholdError::Empty);
        }
        Self::try_variable(vec![value; horizon])
    }

    /// A variable threshold from an explicit per-instant vector.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains a negative or NaN entry; use
    /// [`ThresholdSpec::try_variable`] for untrusted input.
    pub fn variable(values: Vec<f64>) -> Self {
        Self::try_variable(values).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ThresholdSpec::variable`] for untrusted input.
    ///
    /// # Errors
    ///
    /// [`ThresholdError::Empty`] for an empty vector,
    /// [`ThresholdError::Invalid`] for a negative or NaN entry (`+∞` is
    /// allowed: it encodes "no check at this instant").
    pub fn try_variable(values: Vec<f64>) -> Result<Self, ThresholdError> {
        if values.is_empty() {
            return Err(ThresholdError::Empty);
        }
        if let Some(index) = values.iter().position(|v| v.is_nan() || *v < 0.0) {
            return Err(ThresholdError::Invalid {
                index,
                value: values[index],
            });
        }
        Ok(Self { values })
    }

    /// The stored horizon length.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: specifications are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Threshold at sampling instant `k` (instants beyond the horizon reuse
    /// the last stored value).
    pub fn value_at(&self, k: usize) -> f64 {
        let idx = k.min(self.values.len() - 1);
        self.values[idx]
    }

    /// The underlying per-instant values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Returns `true` when the threshold never increases over time — the shape
    /// the synthesis algorithms guarantee.
    pub fn is_monotone_decreasing(&self) -> bool {
        self.values.windows(2).all(|w| w[1] <= w[0] + 1e-12)
    }

    /// Returns `true` when every instant has the same threshold.
    pub fn is_static(&self) -> bool {
        self.values.windows(2).all(|w| (w[0] - w[1]).abs() <= 1e-12)
    }

    /// Largest stored threshold value.
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

/// The residue-based detector of the paper: alarm at instant `k` when
/// `‖z_k‖ ≥ Th[k]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdDetector {
    threshold: ThresholdSpec,
    norm: ResidueNorm,
}

impl ThresholdDetector {
    /// Creates a detector from a threshold specification and residue norm.
    pub fn new(threshold: ThresholdSpec, norm: ResidueNorm) -> Self {
        Self { threshold, norm }
    }

    /// The threshold specification.
    pub fn threshold(&self) -> &ThresholdSpec {
        &self.threshold
    }

    /// The residue norm.
    pub fn norm(&self) -> ResidueNorm {
        self.norm
    }
}

impl Detector for ThresholdDetector {
    fn scanner(&self) -> Box<dyn AlarmScan + '_> {
        Box::new(ThresholdScan { detector: self })
    }
}

/// Stateless streaming evaluator for [`ThresholdDetector`]: one norm and one
/// comparison per instant.
#[derive(Debug)]
struct ThresholdScan<'a> {
    detector: &'a ThresholdDetector,
}

impl AlarmScan for ThresholdScan<'_> {
    fn reset(&mut self) {}

    fn step(&mut self, k: usize, residue: &Vector) -> bool {
        self.detector.norm.apply(residue) >= self.detector.threshold.value_at(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_control::Trace;

    fn trace_with_residues(residues: &[f64]) -> Trace {
        let steps = residues.len();
        let states = vec![Vector::zeros(1); steps + 1];
        let estimates = vec![Vector::zeros(1); steps + 1];
        let measurements = vec![Vector::zeros(1); steps];
        let controls = vec![Vector::zeros(1); steps];
        let residues = residues.iter().map(|z| Vector::from_slice(&[*z])).collect();
        Trace::new(states, estimates, measurements, controls, residues)
    }

    #[test]
    fn constant_spec_repeats_value() {
        let spec = ThresholdSpec::constant(0.2, 5);
        assert_eq!(spec.len(), 5);
        assert!(spec.is_static());
        assert!(spec.is_monotone_decreasing());
        assert_eq!(spec.value_at(0), 0.2);
        assert_eq!(spec.value_at(100), 0.2);
        assert_eq!(spec.max_value(), 0.2);
    }

    #[test]
    fn variable_spec_detects_monotonicity() {
        assert!(ThresholdSpec::variable(vec![0.5, 0.4, 0.4, 0.1]).is_monotone_decreasing());
        assert!(!ThresholdSpec::variable(vec![0.5, 0.6]).is_monotone_decreasing());
        assert!(!ThresholdSpec::variable(vec![0.5, 0.4]).is_static());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_is_rejected() {
        let _ = ThresholdSpec::variable(vec![0.1, -0.1]);
    }

    #[test]
    fn try_constructors_reject_nan_but_allow_infinity() {
        // NaN ≠ NaN, so match structurally instead of with assert_eq.
        assert!(matches!(
            ThresholdSpec::try_variable(vec![0.1, f64::NAN]),
            Err(ThresholdError::Invalid { index: 1, value }) if value.is_nan()
        ));
        assert_eq!(
            ThresholdSpec::try_constant(-0.5, 3),
            Err(ThresholdError::Invalid {
                index: 0,
                value: -0.5
            })
        );
        assert_eq!(
            ThresholdSpec::try_constant(0.2, 0),
            Err(ThresholdError::Empty)
        );
        // +∞ is a legitimate "no check at this instant" marker.
        let spec = ThresholdSpec::try_variable(vec![f64::INFINITY, 0.3]).unwrap();
        assert_eq!(spec.value_at(0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_threshold_vector_is_rejected() {
        let _ = ThresholdSpec::variable(Vec::new());
    }

    #[test]
    fn detector_alarms_on_first_exceeding_instant() {
        let detector = ThresholdDetector::new(ThresholdSpec::constant(0.3, 10), ResidueNorm::Linf);
        let quiet = trace_with_residues(&[0.1, 0.2, 0.25]);
        assert_eq!(detector.first_alarm(&quiet), None);
        assert!(!detector.detects(&quiet));

        let loud = trace_with_residues(&[0.1, 0.5, 0.2, 0.9]);
        assert_eq!(detector.first_alarm(&loud), Some(1));
        assert!(detector.detects(&loud));
    }

    #[test]
    fn variable_threshold_changes_verdict_over_time() {
        // Decreasing threshold: a late small residue is caught while an early
        // identical residue is not — the central point of the paper's Fig. 1b.
        let spec = ThresholdSpec::variable(vec![0.5, 0.5, 0.1, 0.1]);
        let detector = ThresholdDetector::new(spec, ResidueNorm::Linf);
        let early_bump = trace_with_residues(&[0.3, 0.0, 0.0, 0.0]);
        assert_eq!(detector.first_alarm(&early_bump), None);
        let late_bump = trace_with_residues(&[0.0, 0.0, 0.0, 0.3]);
        assert_eq!(detector.first_alarm(&late_bump), Some(3));
    }

    #[test]
    fn exact_threshold_value_alarms() {
        let detector = ThresholdDetector::new(ThresholdSpec::constant(0.2, 4), ResidueNorm::Linf);
        let trace = trace_with_residues(&[0.2]);
        assert_eq!(detector.first_alarm(&trace), Some(0), "‖z‖ ≥ Th must alarm");
    }

    #[test]
    fn accessors() {
        let detector = ThresholdDetector::new(ThresholdSpec::constant(0.2, 4), ResidueNorm::L2);
        assert_eq!(detector.norm(), ResidueNorm::L2);
        assert_eq!(detector.threshold().len(), 4);
        assert!(!detector.threshold().is_empty());
    }
}
