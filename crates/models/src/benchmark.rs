use cps_control::{ClosedLoop, NoiseModel};
use cps_linalg::Vector;
use cps_monitors::MonitorSuite;
use cps_smt::{Formula, LinExpr};

/// Performance criterion `pfc`: what the control loop must achieve within the
/// analysis horizon, and what an attacker therefore tries to prevent.
#[derive(Debug, Clone, PartialEq)]
pub enum PerformanceCriterion {
    /// State component `state` must end within `tolerance` of `target`:
    /// `|x_T[state] − target| ≤ tolerance`.
    ReachBand {
        /// Index of the state component.
        state: usize,
        /// Desired value.
        target: f64,
        /// Admissible deviation ε.
        tolerance: f64,
    },
    /// State component `state` must reach at least `fraction` of `target`
    /// (the paper's VSC criterion: "yaw rate must reach within 80 % of the
    /// desired value"). For a negative target the inequality direction flips.
    ReachFraction {
        /// Index of the state component.
        state: usize,
        /// Desired value.
        target: f64,
        /// Fraction of the target that must be attained (e.g. `0.8`).
        fraction: f64,
    },
}

impl PerformanceCriterion {
    /// The target value the loop is steering towards.
    pub fn target(&self) -> f64 {
        match self {
            PerformanceCriterion::ReachBand { target, .. }
            | PerformanceCriterion::ReachFraction { target, .. } => *target,
        }
    }

    /// Returns `true` when the criterion is satisfied by the given final state.
    ///
    /// # Panics
    ///
    /// Panics if the state vector is shorter than the constrained index.
    pub fn satisfied_by(&self, final_state: &Vector) -> bool {
        match self {
            PerformanceCriterion::ReachBand {
                state,
                target,
                tolerance,
            } => (final_state[*state] - target).abs() <= *tolerance,
            PerformanceCriterion::ReachFraction {
                state,
                target,
                fraction,
            } => {
                let bound = fraction * target;
                if *target >= 0.0 {
                    final_state[*state] >= bound
                } else {
                    final_state[*state] <= bound
                }
            }
        }
    }

    /// Symbolic version of [`PerformanceCriterion::satisfied_by`] over the
    /// affine expressions of the final state.
    pub fn encode(&self, final_state: &[LinExpr]) -> Formula {
        match self {
            PerformanceCriterion::ReachBand {
                state,
                target,
                tolerance,
            } => {
                let expr = final_state[*state].clone();
                Formula::and(vec![
                    Formula::atom(expr.clone().le(target + tolerance)),
                    Formula::atom(expr.ge(target - tolerance)),
                ])
            }
            PerformanceCriterion::ReachFraction {
                state,
                target,
                fraction,
            } => {
                let expr = final_state[*state].clone();
                let bound = fraction * target;
                if *target >= 0.0 {
                    Formula::atom(expr.ge(bound))
                } else {
                    Formula::atom(expr.le(bound))
                }
            }
        }
    }

    /// Symbolic violation of the criterion (the attacker's goal).
    pub fn encode_violation(&self, final_state: &[LinExpr]) -> Formula {
        Formula::not(self.encode(final_state))
    }
}

/// A complete benchmark: everything the attack-synthesis and threshold-
/// synthesis algorithms need about one CPS instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Human-readable benchmark name.
    pub name: String,
    /// Plant, controller gain, estimator gain and reference.
    pub closed_loop: ClosedLoop,
    /// The plant's existing monitoring constraints `mdc`.
    pub monitors: MonitorSuite,
    /// The performance criterion `pfc`.
    pub performance: PerformanceCriterion,
    /// Initial plant state `x_1` of the analysis.
    pub initial_state: Vector,
    /// Analysis horizon `T` in sampling instants.
    pub horizon: usize,
    /// Nominal process/measurement noise.
    pub noise: NoiseModel,
    /// Measurement components the attacker can falsify (sensor indices).
    pub attacked_sensors: Vec<usize>,
    /// Per-step bound on the magnitude of each injected value (models the
    /// saturation limits of the spoofed sensor interface).
    pub attack_bound: f64,
}

impl Benchmark {
    /// Sampling period of the benchmark in seconds.
    pub fn sampling_period(&self) -> f64 {
        self.monitors.sampling_period()
    }

    /// Number of measurement components of the plant.
    pub fn num_outputs(&self) -> usize {
        self.closed_loop.plant().num_outputs()
    }

    /// Number of state variables of the plant.
    pub fn num_states(&self) -> usize {
        self.closed_loop.plant().num_states()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_smt::VarPool;

    #[test]
    fn reach_band_runtime_semantics() {
        let pfc = PerformanceCriterion::ReachBand {
            state: 1,
            target: 2.0,
            tolerance: 0.1,
        };
        assert_eq!(pfc.target(), 2.0);
        assert!(pfc.satisfied_by(&Vector::from_slice(&[0.0, 1.95])));
        assert!(!pfc.satisfied_by(&Vector::from_slice(&[0.0, 1.7])));
    }

    #[test]
    fn reach_fraction_runtime_semantics() {
        let pfc = PerformanceCriterion::ReachFraction {
            state: 0,
            target: 0.15,
            fraction: 0.8,
        };
        assert!(pfc.satisfied_by(&Vector::from_slice(&[0.13])));
        assert!(!pfc.satisfied_by(&Vector::from_slice(&[0.10])));

        let negative = PerformanceCriterion::ReachFraction {
            state: 0,
            target: -0.15,
            fraction: 0.8,
        };
        assert!(negative.satisfied_by(&Vector::from_slice(&[-0.14])));
        assert!(!negative.satisfied_by(&Vector::from_slice(&[-0.10])));
    }

    #[test]
    fn symbolic_and_runtime_agree() {
        let mut pool = VarPool::new();
        let a = pool.fresh("x0");
        let b = pool.fresh("x1");
        let exprs = vec![LinExpr::var(a), LinExpr::var(b)];

        let criteria = vec![
            PerformanceCriterion::ReachBand {
                state: 1,
                target: 1.0,
                tolerance: 0.2,
            },
            PerformanceCriterion::ReachFraction {
                state: 0,
                target: 0.5,
                fraction: 0.8,
            },
        ];
        let states = [
            Vector::from_slice(&[0.5, 1.1]),
            Vector::from_slice(&[0.3, 0.5]),
            Vector::from_slice(&[0.41, 1.3]),
        ];
        for pfc in &criteria {
            for state in &states {
                let runtime = pfc.satisfied_by(state);
                let symbolic = pfc.encode(&exprs).holds(state.as_slice());
                assert_eq!(runtime, symbolic, "{pfc:?} disagrees on {state}");
                let violation = pfc.encode_violation(&exprs).holds(state.as_slice());
                assert_eq!(violation, !runtime);
            }
        }
    }
}
