//! Residue-based attack detectors and their statistical evaluation.
//!
//! Paper mapping: the detection system of §II–§III of *Koley et al.
//! (DATE 2020)* — static thresholds and the variable (monotonically
//! decreasing) thresholds produced by the synthesis algorithms — plus the
//! false-alarm-rate comparison of §IV.
//!
//! The paper's detector raises an alarm at sampling instant `k` when
//! `‖z_k‖ ≥ Th[k]`, where `Th` is either a single static threshold or the
//! variable (monotonically decreasing) threshold vector produced by the
//! synthesis algorithms. This crate provides:
//!
//! - [`ThresholdSpec`] — static or variable threshold specifications,
//! - [`ThresholdDetector`] — the residue detector of the paper,
//! - [`Chi2Detector`] and [`CusumDetector`] — classical windowed baselines
//!   used as additional comparison points,
//! - [`Detector`] — the common detection interface: a streaming
//!   [`AlarmScan`] per detector, and the first alarm on a closed-loop
//!   [`Trace`] derived from it,
//! - [`false_alarm_rate`] — the fraction of a materialised trace set a
//!   detector alarms on (the FAR experiment of §IV streams instead).
//!
//! # Example
//!
//! ```
//! use cps_detectors::{Detector, ThresholdDetector, ThresholdSpec};
//! use cps_control::ResidueNorm;
//!
//! let detector = ThresholdDetector::new(ThresholdSpec::constant(0.1, 10), ResidueNorm::Linf);
//! assert_eq!(detector.threshold().value_at(3), 0.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baselines;
mod evaluation;
mod threshold;

pub use baselines::{Chi2Detector, CusumDetector};
pub use evaluation::false_alarm_rate;
pub use threshold::{ThresholdDetector, ThresholdError, ThresholdSpec};

use cps_control::Trace;
use cps_linalg::Vector;

/// Common interface of residue-based detectors.
///
/// [`Detector::scanner`] is the one implementation of a detector's verdict;
/// [`Detector::first_alarm`] and [`Detector::detects`] drive it over a
/// materialised [`Trace`].
///
/// `Sync` is a supertrait so that `&dyn Detector` references can be shared
/// across the parallel lanes of the `FarExperiment` streaming engine;
/// detectors are plain parameter structs, so the bound costs implementations
/// nothing.
pub trait Detector: Sync {
    /// Creates a reusable streaming evaluator for this detector.
    ///
    /// A scanner consumes raw residues one instant at a time and reports the
    /// alarm the moment it fires, so a caller evaluating many detectors over
    /// many traces can allocate once, interleave all detectors per instant
    /// and stop a trace early — the [`FarExperiment`](https://docs.rs/secure-cps)
    /// hot loop.
    fn scanner(&self) -> Box<dyn AlarmScan + '_>;

    /// Returns the first sampling instant at which the detector raises an
    /// alarm on the given trace, or `None` when the trace passes undetected.
    fn first_alarm(&self, trace: &Trace) -> Option<usize> {
        let mut scan = self.scanner();
        trace
            .residues()
            .iter()
            .enumerate()
            .position(|(k, z)| scan.step(k, z))
    }

    /// Convenience wrapper: `true` when the detector alarms anywhere.
    fn detects(&self, trace: &Trace) -> bool {
        self.first_alarm(trace).is_some()
    }
}

/// Incremental per-instant evaluation state created by [`Detector::scanner`].
pub trait AlarmScan {
    /// Resets the scan state for a fresh trace.
    fn reset(&mut self);

    /// Feeds the residue of sampling instant `k` (instants must arrive in
    /// order from zero); returns `true` when the alarm fires at `k`.
    fn step(&mut self, k: usize, residue: &Vector) -> bool;
}
