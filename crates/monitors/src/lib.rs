//! Plant monitoring constraints (`mdc` in the paper).
//!
//! Paper mapping: the monitoring/diagnostics constraints of §II–§III of
//! *Koley et al. (DATE 2020)*, instantiated for the VSC case study in §IV
//! (range, gradient and relation checks with a 300 ms dead zone).
//!
//! Modern CPS implementations often ship sanity monitors alongside the
//! controller: range checks, gradient (rate-of-change) checks and relation
//! checks between redundant sensors, debounced by a *dead zone* so that a
//! transient violation does not immediately raise an alarm. The paper's VSC
//! case study models exactly this structure, and Algorithm 1 needs the same
//! constraints **twice**:
//!
//! - at *runtime*, to decide whether a simulated trace trips the monitors
//!   ([`MonitorSuite::evaluate`]), and
//! - *symbolically*, as SMT formulas over the per-step measurement
//!   expressions (`&[Vec<LinExpr>]`, indexed by instant, then component), to
//!   restrict the attacker to monitor-stealthy injections. Algorithm 1
//!   asserts the sequential-counter encoding
//!   ([`MonitorSuite::encode_stealth_counter`]); the window enumeration
//!   ([`MonitorSuite::encode_stealth`]) is its executable reference.
//!
//! Both views are generated from the same [`Monitor`] values so they cannot
//! drift apart.
//!
//! # Example
//!
//! ```
//! use cps_linalg::Vector;
//! use cps_monitors::{Monitor, MonitorSuite};
//!
//! let suite = MonitorSuite::new(vec![Monitor::range(0, -1.0, 1.0)], 2, 0.1);
//! let ok = vec![Vector::from_slice(&[0.5]); 5];
//! assert!(suite.evaluate(&ok).alarm_at.is_none());
//!
//! let bad = vec![Vector::from_slice(&[2.0]); 5];
//! // Violations start immediately; with a dead zone of 2 samples the alarm
//! // fires at the second consecutive violation.
//! assert_eq!(suite.evaluate(&bad).alarm_at, Some(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod monitor;
mod suite;

pub use monitor::Monitor;
pub use suite::{MonitorScan, MonitorSuite, MonitorVerdict};
