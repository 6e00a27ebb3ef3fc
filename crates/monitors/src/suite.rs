use cps_linalg::Vector;
use cps_smt::{BoolVarPool, Formula};

use crate::{MeasurementSymbols, Monitor};

/// Verdict of running a [`MonitorSuite`] over a measurement sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorVerdict {
    /// `violations[k]` is `true` when at least one monitor is violated at
    /// sampling instant `k`.
    pub violations: Vec<bool>,
    /// First sampling instant at which the alarm fires (i.e. the end of the
    /// first run of `dead_zone` consecutive violations), if any.
    pub alarm_at: Option<usize>,
}

impl MonitorVerdict {
    /// Returns `true` when the monitoring system raised an alarm.
    pub fn alarmed(&self) -> bool {
        self.alarm_at.is_some()
    }
}

/// A set of monitors debounced by a dead zone, matching the paper's `mdc`.
///
/// A sampling instant is *violating* when any monitor check fails there; the
/// suite raises an alarm when `dead_zone` consecutive instants are violating.
/// With `dead_zone == 1` a single violation alarms immediately.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSuite {
    monitors: Vec<Monitor>,
    dead_zone: usize,
    sampling_period: f64,
}

impl MonitorSuite {
    /// Creates a suite from monitors, a dead zone length (in samples, at least
    /// one) and the sampling period in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dead_zone` is zero or `sampling_period` is not positive.
    pub fn new(monitors: Vec<Monitor>, dead_zone: usize, sampling_period: f64) -> Self {
        assert!(dead_zone >= 1, "dead zone must be at least one sample");
        assert!(sampling_period > 0.0, "sampling period must be positive");
        Self {
            monitors,
            dead_zone,
            sampling_period,
        }
    }

    /// A suite with no monitors (never alarms).
    pub fn empty(sampling_period: f64) -> Self {
        Self::new(Vec::new(), 1, sampling_period)
    }

    /// The monitors in the suite.
    pub fn monitors(&self) -> &[Monitor] {
        &self.monitors
    }

    /// The dead-zone length in samples.
    pub fn dead_zone(&self) -> usize {
        self.dead_zone
    }

    /// The sampling period in seconds.
    pub fn sampling_period(&self) -> f64 {
        self.sampling_period
    }

    /// Returns `true` when the suite contains no monitors.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// Returns `true` when no monitor is violated at step `k`.
    pub fn ok_at(&self, k: usize, measurements: &[Vector]) -> bool {
        self.monitors
            .iter()
            .all(|m| m.ok_at(k, measurements, self.sampling_period))
    }

    /// First sampling instant at which the alarm fires (the end of the first
    /// run of `dead_zone` consecutive violating instants), or `None`.
    ///
    /// Allocation-free short-circuiting variant of [`MonitorSuite::evaluate`]
    /// for callers that only need the alarm verdict: monitor checks stop at
    /// the instant the alarm is decided instead of materialising the full
    /// per-instant violation vector — the hot path of the FAR experiment's
    /// rollout filter.
    pub fn first_alarm(&self, measurements: &[Vector]) -> Option<usize> {
        let mut run = 0usize;
        for k in 0..measurements.len() {
            if self.ok_at(k, measurements) {
                run = 0;
            } else {
                run += 1;
                if run >= self.dead_zone {
                    return Some(k);
                }
            }
        }
        None
    }

    /// Creates a reusable streaming evaluator with the same verdicts as
    /// [`MonitorSuite::first_alarm`], for callers that produce measurements
    /// one instant at a time (the allocation-free FAR rollout engine).
    pub fn scanner(&self) -> MonitorScan<'_> {
        MonitorScan {
            suite: self,
            prev: Vector::zeros(0),
            has_prev: false,
            run: 0,
        }
    }

    /// Evaluates the suite over a measurement sequence.
    pub fn evaluate(&self, measurements: &[Vector]) -> MonitorVerdict {
        let violations: Vec<bool> = (0..measurements.len())
            .map(|k| !self.ok_at(k, measurements))
            .collect();
        let mut run = 0usize;
        let mut alarm_at = None;
        for (k, &violated) in violations.iter().enumerate() {
            if violated {
                run += 1;
                if run >= self.dead_zone {
                    alarm_at = Some(k);
                    break;
                }
            } else {
                run = 0;
            }
        }
        MonitorVerdict {
            violations,
            alarm_at,
        }
    }

    /// Symbolic "no violation at step `k`" formula with every monitor's
    /// admissible interval shrunk by `margin` (pass `0.0` for the exact
    /// bounds; see [`Monitor::encode_ok_at_margin`] for why synthesis queries
    /// need one).
    pub fn encode_ok_at_margin(
        &self,
        k: usize,
        symbols: &MeasurementSymbols,
        margin: f64,
    ) -> Formula {
        Formula::and(
            self.monitors
                .iter()
                .map(|m| m.encode_ok_at_margin(k, symbols, self.sampling_period, margin))
                .collect(),
        )
    }

    /// Symbolic stealthiness constraint over a whole horizon: the monitoring
    /// system never raises an alarm, i.e. in every window of `dead_zone`
    /// consecutive instants at least one instant is violation-free.
    ///
    /// This is the *naive window enumeration*: every per-step "ok" formula is
    /// cloned into each of the `dead_zone` windows covering it, so the
    /// encoding grows as `O(T·d·m)` duplicated sub-formulas and leaves the
    /// solver to rediscover the shared structure window by window. It is kept
    /// as the executable reference semantics (it is evaluable with
    /// [`Formula::holds`]) and as the differential-testing baseline for
    /// [`MonitorSuite::encode_stealth_counter`], which scales to the paper's
    /// 50-sample horizons.
    ///
    /// With an empty suite this is simply `true`.
    pub fn encode_stealth(&self, symbols: &MeasurementSymbols) -> Formula {
        self.encode_stealth_margin(symbols, 0.0)
    }

    /// [`MonitorSuite::encode_stealth`] with a robustness `margin` applied to
    /// every monitor interval (see [`Monitor::encode_ok_at_margin`]).
    pub fn encode_stealth_margin(&self, symbols: &MeasurementSymbols, margin: f64) -> Formula {
        if self.monitors.is_empty() {
            return Formula::True;
        }
        let horizon = symbols.len();
        if horizon < self.dead_zone {
            return Formula::True;
        }
        let ok: Vec<Formula> = (0..horizon)
            .map(|k| self.encode_ok_at_margin(k, symbols, margin))
            .collect();
        let mut windows = Vec::new();
        for start in 0..=(horizon - self.dead_zone) {
            windows.push(Formula::or(
                (start..start + self.dead_zone)
                    .map(|k| ok[k].clone())
                    .collect(),
            ));
        }
        Formula::and(windows)
    }

    /// Sequential-counter (unary running-count) encoding of the same
    /// stealthiness constraint as [`MonitorSuite::encode_stealth`]:
    /// equisatisfiable, but sized `O(T·d)` with every per-step "ok" formula
    /// encoded exactly once.
    ///
    /// For each instant `k` a fresh propositional variable `v_k` is forced
    /// true whenever some monitor check fails (`¬ok_k → v_k`), and unary
    /// run-length registers `r_{k,j}` ("the violation run ending at `k` has
    /// length ≥ j") accumulate via `v_k ∧ r_{k−1,j−1} → r_{k,j}`; a run
    /// reaching the dead-zone length `d` is forbidden by the clause
    /// `¬v_k ∨ ¬r_{k−1,d−1}`. All implications point upward only: a model may
    /// set registers spuriously high, which never *enables* anything, so a
    /// satisfying assignment exists iff one with exact counts exists — i.e.
    /// iff the attacker has a trace on which the monitors never alarm.
    ///
    /// Fresh propositional variables are drawn from `bools`; use one pool per
    /// solver instance. `margin` shrinks every monitor interval as in
    /// [`Monitor::encode_ok_at_margin`] (pass `0.0` for the exact bounds).
    pub fn encode_stealth_counter(
        &self,
        symbols: &MeasurementSymbols,
        bools: &mut BoolVarPool,
        margin: f64,
    ) -> Formula {
        if self.monitors.is_empty() {
            return Formula::True;
        }
        let horizon = symbols.len();
        let d = self.dead_zone;
        if horizon < d {
            return Formula::True;
        }
        if d == 1 {
            // No debouncing: every instant must be violation-free.
            return Formula::and(
                (0..horizon)
                    .map(|k| self.encode_ok_at_margin(k, symbols, margin))
                    .collect(),
            );
        }
        let mut parts = Vec::with_capacity(horizon * (d + 1));
        // v_k ⇐ "some monitor check fails at instant k".
        let viol: Vec<u32> = (0..horizon).map(|_| bools.fresh()).collect();
        for (k, &v) in viol.iter().enumerate() {
            parts.push(Formula::or(vec![
                self.encode_ok_at_margin(k, symbols, margin),
                Formula::BoolVar(v),
            ]));
        }
        // Unary run-length registers; `prev[j]` is r_{k-1, j+1}. A run ending
        // at step k is at most k+1 long, so only min(d−1, k+1) registers are
        // materialised per step.
        let mut prev: Vec<u32> = Vec::new();
        for (k, &v) in viol.iter().enumerate() {
            let mut cur = Vec::with_capacity((d - 1).min(k + 1));
            let r1 = bools.fresh();
            parts.push(Formula::or(vec![
                Formula::not(Formula::BoolVar(v)),
                Formula::BoolVar(r1),
            ]));
            cur.push(r1);
            for j in 1..(d - 1).min(k + 1) {
                let r = bools.fresh();
                parts.push(Formula::or(vec![
                    Formula::not(Formula::BoolVar(v)),
                    Formula::not(Formula::BoolVar(prev[j - 1])),
                    Formula::BoolVar(r),
                ]));
                cur.push(r);
            }
            if prev.len() >= d - 1 {
                parts.push(Formula::or(vec![
                    Formula::not(Formula::BoolVar(v)),
                    Formula::not(Formula::BoolVar(prev[d - 2])),
                ]));
            }
            prev = cur;
        }
        Formula::and(parts)
    }
}

/// Streaming evaluator created by [`MonitorSuite::scanner`]: feed
/// measurements one instant at a time (in order from instant zero) and learn
/// the moment the debounced `mdc` alarm fires.
///
/// The scan buffers one previous measurement (for gradient monitors) and the
/// current violation-run length; [`MonitorScan::reset`] rewinds it for a fresh
/// trace without dropping the buffer, so steady-state stepping is
/// allocation-free. Verdicts are identical to [`MonitorSuite::first_alarm`]
/// (same [`Monitor::ok_step`] arithmetic, same run counting), asserted by the
/// `streaming_runtime` differential suite.
#[derive(Debug, Clone)]
pub struct MonitorScan<'a> {
    suite: &'a MonitorSuite,
    prev: Vector,
    has_prev: bool,
    run: usize,
}

impl MonitorScan<'_> {
    /// Rewinds the scan for a fresh measurement sequence.
    pub fn reset(&mut self) {
        self.has_prev = false;
        self.run = 0;
    }

    /// Feeds the measurement of the next sampling instant; returns `true`
    /// when the alarm fires there (the end of a run of `dead_zone`
    /// consecutive violating instants). Callers may stop at the first alarm —
    /// continuing is allowed but verdicts after the first alarm are not
    /// meaningful (`first_alarm` stops there too).
    pub fn step(&mut self, y: &Vector) -> bool {
        let prev = if self.has_prev {
            Some(&self.prev)
        } else {
            None
        };
        let ok = self
            .suite
            .monitors
            .iter()
            .all(|m| m.ok_step(y, prev, self.suite.sampling_period));
        let alarmed = if ok {
            self.run = 0;
            false
        } else {
            self.run += 1;
            self.run >= self.suite.dead_zone
        };
        self.prev.copy_from(y);
        self.has_prev = true;
        alarmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_smt::{LinExpr, VarPool};

    fn meas(values: &[&[f64]]) -> Vec<Vector> {
        values.iter().map(|v| Vector::from_slice(v)).collect()
    }

    fn range_suite(dead_zone: usize) -> MonitorSuite {
        MonitorSuite::new(vec![Monitor::range(0, -1.0, 1.0)], dead_zone, 0.1)
    }

    #[test]
    fn empty_suite_never_alarms() {
        let suite = MonitorSuite::empty(0.04);
        assert!(suite.is_empty());
        let verdict = suite.evaluate(&meas(&[&[100.0], &[200.0]]));
        assert!(!verdict.alarmed());
    }

    #[test]
    fn dead_zone_debounces_transient_violations() {
        let suite = range_suite(3);
        // Two consecutive violations, then recovery: no alarm.
        let verdict = suite.evaluate(&meas(&[&[2.0], &[2.0], &[0.0], &[2.0], &[2.0], &[0.0]]));
        assert!(!verdict.alarmed());
        assert_eq!(
            verdict.violations,
            vec![true, true, false, true, true, false]
        );
        // Three consecutive violations: alarm at the third.
        let verdict = suite.evaluate(&meas(&[&[0.0], &[2.0], &[2.0], &[2.0]]));
        assert_eq!(verdict.alarm_at, Some(3));
    }

    #[test]
    fn dead_zone_of_one_alarms_immediately() {
        let suite = range_suite(1);
        let verdict = suite.evaluate(&meas(&[&[0.0], &[5.0]]));
        assert_eq!(verdict.alarm_at, Some(1));
    }

    #[test]
    #[should_panic(expected = "dead zone")]
    fn zero_dead_zone_is_rejected() {
        let _ = MonitorSuite::new(vec![], 0, 0.1);
    }

    fn symbols_for(values: &[&[f64]]) -> (MeasurementSymbols, Vec<f64>) {
        let mut pool = VarPool::new();
        let mut exprs = Vec::new();
        let mut assignment = Vec::new();
        for row in values {
            let mut step = Vec::new();
            for value in row.iter() {
                let var = pool.fresh("y");
                step.push(LinExpr::var(var));
                assignment.push(*value);
            }
            exprs.push(step);
        }
        (MeasurementSymbols::new(exprs), assignment)
    }

    #[test]
    fn symbolic_stealth_matches_runtime_alarm() {
        let suite = MonitorSuite::new(
            vec![Monitor::range(0, -1.0, 1.0), Monitor::gradient(0, 20.0)],
            2,
            0.1,
        );
        // Stealthy: a single isolated range violation (step 2) within the dead zone.
        let stealthy_values: Vec<&[f64]> = vec![&[0.2], &[0.4], &[1.5], &[0.3], &[0.2]];
        // Alarming: two consecutive range violations (steps 1 and 2).
        let alarming_values: Vec<&[f64]> = vec![&[0.2], &[1.5], &[1.6], &[0.3], &[0.2]];

        for (values, expect_alarm) in [(stealthy_values, false), (alarming_values, true)] {
            let runtime = suite.evaluate(&meas(&values)).alarmed();
            assert_eq!(runtime, expect_alarm, "runtime verdict mismatch");
            let (symbols, assignment) = symbols_for(&values);
            let stealth = suite.encode_stealth(&symbols);
            assert_eq!(
                stealth.holds(&assignment),
                !expect_alarm,
                "symbolic stealth disagrees with runtime for {values:?}"
            );
        }
    }

    #[test]
    fn stealth_formula_is_true_for_short_horizons() {
        let suite = range_suite(5);
        let (symbols, _) = symbols_for(&[&[0.0], &[0.0]]);
        assert_eq!(suite.encode_stealth(&symbols), Formula::True);
    }

    #[test]
    fn scanner_matches_first_alarm() {
        let suite = MonitorSuite::new(
            vec![Monitor::range(0, -1.0, 1.0), Monitor::gradient(0, 20.0)],
            2,
            0.1,
        );
        let sequences: Vec<Vec<Vector>> = vec![
            meas(&[&[0.2], &[0.4], &[1.5], &[0.3], &[0.2]]),
            meas(&[&[0.2], &[1.5], &[1.6], &[0.3], &[0.2]]),
            meas(&[&[0.0], &[5.0], &[9.0], &[9.0]]),
            meas(&[&[0.0]]),
            meas(&[]),
        ];
        let mut scan = suite.scanner();
        for measurements in &sequences {
            scan.reset();
            let mut streamed = None;
            for (k, y) in measurements.iter().enumerate() {
                if scan.step(y) {
                    streamed = Some(k);
                    break;
                }
            }
            assert_eq!(streamed, suite.first_alarm(measurements));
        }
    }

    #[test]
    fn accessors() {
        let suite = range_suite(4);
        assert_eq!(suite.monitors().len(), 1);
        assert_eq!(suite.dead_zone(), 4);
        assert_eq!(suite.sampling_period(), 0.1);
    }
}
