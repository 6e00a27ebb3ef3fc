use cps_linalg::Vector;
use cps_smt::Formula;

use crate::MeasurementSymbols;

/// A single monitoring constraint evaluated at every sampling instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Monitor {
    /// Range check: measurement component `signal` must stay in
    /// `[lower, upper]`.
    Range {
        /// Index of the monitored measurement component.
        signal: usize,
        /// Lower admissible value.
        lower: f64,
        /// Upper admissible value.
        upper: f64,
    },
    /// Rate-of-change check: the discrete rate of change of measurement
    /// component `signal` must not exceed `max_rate` in magnitude,
    /// `|y_k[s] − y_{k−1}[s]| / T_s ≤ max_rate`.
    Gradient {
        /// Index of the monitored measurement component.
        signal: usize,
        /// Maximum admissible rate of change (units of the signal per second).
        max_rate: f64,
    },
    /// Consistency check: two redundant measurements must agree,
    /// `|y_k[a] − coeff_b · y_k[b]| ≤ allowed_diff`.
    ///
    /// In the VSC case study `a` is the yaw-rate sensor and `coeff_b · y[b]`
    /// the yaw rate estimated from lateral acceleration (`a_y / v_x`).
    Relation {
        /// Index of the primary measurement component.
        signal_a: usize,
        /// Index of the redundant measurement component.
        signal_b: usize,
        /// Scaling applied to the redundant component before comparison.
        coeff_b: f64,
        /// Maximum admissible disagreement.
        allowed_diff: f64,
    },
}

impl Monitor {
    /// A [`Monitor::Range`] check.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`.
    pub fn range(signal: usize, lower: f64, upper: f64) -> Self {
        assert!(lower <= upper, "range monitor bounds are inverted");
        Monitor::Range {
            signal,
            lower,
            upper,
        }
    }

    /// A [`Monitor::Gradient`] check.
    ///
    /// # Panics
    ///
    /// Panics if `max_rate` is negative.
    pub fn gradient(signal: usize, max_rate: f64) -> Self {
        assert!(max_rate >= 0.0, "gradient bound must be non-negative");
        Monitor::Gradient { signal, max_rate }
    }

    /// A [`Monitor::Relation`] check.
    ///
    /// # Panics
    ///
    /// Panics if `allowed_diff` is negative.
    pub fn relation(signal_a: usize, signal_b: usize, coeff_b: f64, allowed_diff: f64) -> Self {
        assert!(
            allowed_diff >= 0.0,
            "allowed difference must be non-negative"
        );
        Monitor::Relation {
            signal_a,
            signal_b,
            coeff_b,
            allowed_diff,
        }
    }

    /// Returns `true` when the monitor is satisfied (not violated) at step `k`
    /// of the measurement sequence, with sampling period `ts`.
    ///
    /// Gradient monitors are trivially satisfied at `k = 0` (no predecessor).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or a signal index exceeds the measurement
    /// dimension.
    pub fn ok_at(&self, k: usize, measurements: &[Vector], ts: f64) -> bool {
        let prev = if k == 0 {
            None
        } else {
            Some(&measurements[k - 1])
        };
        self.ok_step(&measurements[k], prev, ts)
    }

    /// Streaming counterpart of [`Monitor::ok_at`]: evaluates the monitor on
    /// the current measurement and its predecessor (`None` at the first
    /// instant), which is all any monitor kind looks at. Same arithmetic as
    /// `ok_at`, so verdicts are identical.
    pub fn ok_step(&self, y: &Vector, prev: Option<&Vector>, ts: f64) -> bool {
        match *self {
            Monitor::Range {
                signal,
                lower,
                upper,
            } => y[signal] >= lower && y[signal] <= upper,
            Monitor::Gradient { signal, max_rate } => match prev {
                None => true,
                Some(prev) => {
                    let rate = (y[signal] - prev[signal]) / ts;
                    rate.abs() <= max_rate
                }
            },
            Monitor::Relation {
                signal_a,
                signal_b,
                coeff_b,
                allowed_diff,
            } => (y[signal_a] - coeff_b * y[signal_b]).abs() <= allowed_diff,
        }
    }

    /// Symbolic counterpart of [`Monitor::ok_at`]: a formula over the
    /// measurement expressions that is true exactly when the monitor is
    /// satisfied at step `k`.
    pub fn encode_ok_at(&self, k: usize, symbols: &MeasurementSymbols, ts: f64) -> Formula {
        self.encode_ok_at_margin(k, symbols, ts, 0.0)
    }

    /// Like [`Monitor::encode_ok_at`] but with every admissible interval
    /// shrunk by `margin` on each side.
    ///
    /// A linear-arithmetic solver parks satisfying assignments exactly on
    /// constraint boundaries; re-simulating such a model reproduces the
    /// monitored values only up to float round-off, which can push an
    /// exactly-on-the-bound instant across it at runtime. A small positive
    /// margin (well above round-off, well below model fidelity — the attack
    /// synthesiser uses `1e-6`) makes every symbolically-OK instant robustly
    /// OK under [`Monitor::ok_at`]. A margin larger than half the monitor's
    /// admissible width is clamped so the shrunk interval never inverts
    /// (i.e. the encoding degrades to "exactly on the interval midpoint"
    /// rather than silently becoming unsatisfiable).
    pub fn encode_ok_at_margin(
        &self,
        k: usize,
        symbols: &MeasurementSymbols,
        ts: f64,
        margin: f64,
    ) -> Formula {
        match *self {
            Monitor::Range {
                signal,
                lower,
                upper,
            } => {
                let margin = margin.min((upper - lower) / 2.0);
                let y = symbols.measurement(k, signal);
                Formula::and(vec![
                    Formula::atom(y.clone().ge(lower + margin)),
                    Formula::atom(y.le(upper - margin)),
                ])
            }
            Monitor::Gradient { signal, max_rate } => {
                if k == 0 {
                    Formula::True
                } else {
                    let diff = symbols.measurement(k, signal) - symbols.measurement(k - 1, signal);
                    let bound = (max_rate * ts - margin).max(0.0);
                    Formula::and(vec![
                        Formula::atom(diff.clone().le(bound)),
                        Formula::atom(diff.ge(-bound)),
                    ])
                }
            }
            Monitor::Relation {
                signal_a,
                signal_b,
                coeff_b,
                allowed_diff,
            } => {
                let diff = symbols.measurement(k, signal_a)
                    - symbols.measurement(k, signal_b).scale(coeff_b);
                let bound = (allowed_diff - margin).max(0.0);
                Formula::and(vec![
                    Formula::atom(diff.clone().le(bound)),
                    Formula::atom(diff.ge(-bound)),
                ])
            }
        }
    }

    /// The measurement components referenced by this monitor.
    pub fn signals(&self) -> Vec<usize> {
        match *self {
            Monitor::Range { signal, .. } | Monitor::Gradient { signal, .. } => vec![signal],
            Monitor::Relation {
                signal_a, signal_b, ..
            } => vec![signal_a, signal_b],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(values: &[&[f64]]) -> Vec<Vector> {
        values.iter().map(|v| Vector::from_slice(v)).collect()
    }

    #[test]
    fn range_monitor_detects_out_of_range() {
        let m = Monitor::range(0, -1.0, 1.0);
        let ys = meas(&[&[0.5], &[1.5], &[-2.0]]);
        assert!(m.ok_at(0, &ys, 0.1));
        assert!(!m.ok_at(1, &ys, 0.1));
        assert!(!m.ok_at(2, &ys, 0.1));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn range_monitor_rejects_inverted_bounds() {
        let _ = Monitor::range(0, 1.0, -1.0);
    }

    #[test]
    fn gradient_monitor_detects_fast_changes() {
        let m = Monitor::gradient(0, 2.0);
        let ts = 0.1;
        // Steps of 0.1 per sample = 1.0/s (ok); step of 0.5 per sample = 5.0/s (violation).
        let ys = meas(&[&[0.0], &[0.1], &[0.6]]);
        assert!(m.ok_at(0, &ys, ts), "first sample has no predecessor");
        assert!(m.ok_at(1, &ys, ts));
        assert!(!m.ok_at(2, &ys, ts));
    }

    #[test]
    fn relation_monitor_compares_scaled_signals() {
        // |y[0] - 2*y[1]| <= 0.1
        let m = Monitor::relation(0, 1, 2.0, 0.1);
        let ys = meas(&[&[2.0, 1.0], &[2.5, 1.0]]);
        assert!(m.ok_at(0, &ys, 0.1));
        assert!(!m.ok_at(1, &ys, 0.1));
    }

    #[test]
    fn signals_lists_referenced_components() {
        assert_eq!(Monitor::range(3, 0.0, 1.0).signals(), vec![3]);
        assert_eq!(Monitor::relation(0, 2, 1.0, 0.1).signals(), vec![0, 2]);
    }

    #[test]
    fn symbolic_and_runtime_agree_on_concrete_traces() {
        use cps_smt::{LinExpr, VarPool};

        let monitors = vec![
            Monitor::range(0, -1.0, 1.0),
            Monitor::gradient(0, 2.0),
            Monitor::relation(0, 1, 0.5, 0.3),
        ];
        let ts = 0.1;
        let ys = meas(&[&[0.2, 0.5], &[0.9, 1.0], &[0.95, 2.6]]);

        // Build symbolic measurements that are just fresh variables, then
        // evaluate the generated formulas at the concrete measurement values.
        let mut pool = VarPool::new();
        let mut exprs = Vec::new();
        let mut assignment = Vec::new();
        for y in &ys {
            let mut row = Vec::new();
            for j in 0..y.len() {
                let var = pool.fresh(format!("y_{j}"));
                row.push(LinExpr::var(var));
                assignment.push(y[j]);
            }
            exprs.push(row);
        }
        let symbols = MeasurementSymbols::new(exprs);

        for monitor in &monitors {
            for k in 0..ys.len() {
                let runtime = monitor.ok_at(k, &ys, ts);
                let symbolic = monitor.encode_ok_at(k, &symbols, ts).holds(&assignment);
                assert_eq!(
                    runtime, symbolic,
                    "monitor {monitor:?} disagrees at step {k}"
                );
            }
        }
    }
}
