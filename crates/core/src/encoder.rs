use cps_linalg::Matrix;
use cps_models::Benchmark;
use cps_monitors::MeasurementSymbols;
use cps_smt::{LinExpr, VarId, VarPool};

/// Symbolic unrolling of a benchmark's closed-loop implementation.
///
/// Every quantity of the loop — plant state, estimator state, control input,
/// (attacked) measurement, residue — is an *affine* function of the attacker's
/// per-step injections, because the plant, estimator and controller are all
/// linear and their gains are known numerically. `UnrolledLoop` performs that
/// forward substitution once and exposes the resulting [`LinExpr`]s; the
/// attack and threshold synthesis algorithms then only add constraints over
/// them.
///
/// The unrolling mirrors Algorithm 1 of the paper line by line (initialisation
/// at line 2, the per-step updates at lines 4–8), with process and measurement
/// noise set to zero exactly as in the algorithm.
#[derive(Debug)]
pub struct UnrolledLoop {
    vars: VarPool,
    /// `attack_vars[k][i]` is the injection on `attacked_sensors[i]` at step `k`.
    attack_vars: Vec<Vec<VarId>>,
    /// Which measurement component each attack variable column falsifies.
    attacked_sensors: Vec<usize>,
    /// Residue expressions `z_k[j]`, indexed `[k][j]`.
    residues: Vec<Vec<LinExpr>>,
    /// Attacked measurement expressions `ỹ_k[j]` (what the monitors see).
    measurements: Vec<Vec<LinExpr>>,
    /// Plant state expressions `x_k[i]`, indexed `[k][i]` with `k = 0..=T`.
    states: Vec<Vec<LinExpr>>,
    horizon: usize,
}

impl UnrolledLoop {
    /// Unrolls `benchmark.closed_loop` over `benchmark.horizon` steps.
    pub fn new(benchmark: &Benchmark) -> Self {
        Self::with_horizon(benchmark, benchmark.horizon)
    }

    /// Unrolls the loop over an explicit horizon (used by reduced-size tests
    /// and ablations).
    pub fn with_horizon(benchmark: &Benchmark, horizon: usize) -> Self {
        let plant = benchmark.closed_loop.plant();
        let n = plant.num_states();
        let p = plant.num_outputs();
        let attacked = benchmark.attacked_sensors.clone();

        let mut vars = VarPool::new();
        let mut attack_vars = Vec::with_capacity(horizon);
        for k in 0..horizon {
            attack_vars.push(
                attacked
                    .iter()
                    .map(|s| vars.fresh(format!("a_{k}_{s}")))
                    .collect::<Vec<_>>(),
            );
        }

        // Affine state vectors as vectors of expressions.
        let constant_vec = |values: &[f64]| -> Vec<LinExpr> {
            values.iter().map(|v| LinExpr::constant(*v)).collect()
        };
        let mat_vec = |m: &Matrix, v: &[LinExpr]| -> Vec<LinExpr> {
            (0..m.rows())
                .map(|i| {
                    let mut acc = LinExpr::zero();
                    for (j, expr) in v.iter().enumerate() {
                        let coeff = m[(i, j)];
                        if coeff != 0.0 {
                            acc = acc + expr.scale(coeff);
                        }
                    }
                    acc
                })
                .collect()
        };
        let add = |a: Vec<LinExpr>, b: Vec<LinExpr>| -> Vec<LinExpr> {
            a.into_iter().zip(b).map(|(x, y)| x + y).collect()
        };
        let sub = |a: Vec<LinExpr>, b: Vec<LinExpr>| -> Vec<LinExpr> {
            a.into_iter().zip(b).map(|(x, y)| x - y).collect()
        };

        let k_gain = benchmark.closed_loop.controller_gain();
        let l_gain = benchmark.closed_loop.estimator_gain();
        let x_des = constant_vec(benchmark.closed_loop.reference().x_des().as_slice());
        let u_eq = constant_vec(benchmark.closed_loop.reference().u_eq().as_slice());

        let mut x = constant_vec(benchmark.initial_state.as_slice());
        let mut xhat = constant_vec(&vec![0.0; n]);

        let mut residues = Vec::with_capacity(horizon);
        let mut measurements = Vec::with_capacity(horizon);
        let mut states = Vec::with_capacity(horizon + 1);
        states.push(x.clone());

        for step_vars in attack_vars.iter().take(horizon) {
            // u_k = u_eq − K (x̂_k − x_des)
            let error = sub(xhat.clone(), x_des.clone());
            let u = sub(u_eq.clone(), mat_vec(k_gain, &error));

            // ỹ_k = C x_k + D u_k + a_k (attacked sensors only)
            let mut y = add(mat_vec(plant.c(), &x), mat_vec(plant.d(), &u));
            for (i, sensor) in attacked.iter().enumerate() {
                y[*sensor] = std::mem::take(&mut y[*sensor]) + LinExpr::var(step_vars[i]);
            }

            // z_k = ỹ_k − (C x̂_k + D u_k)
            let y_hat = add(mat_vec(plant.c(), &xhat), mat_vec(plant.d(), &u));
            let z = sub(y.clone(), y_hat);

            // Plant and estimator updates.
            let x_next = add(mat_vec(plant.a(), &x), mat_vec(plant.b(), &u));
            let xhat_next = add(
                add(mat_vec(plant.a(), &xhat), mat_vec(plant.b(), &u)),
                mat_vec(l_gain, &z),
            );

            measurements.push(y);
            residues.push(z);
            x = x_next;
            xhat = xhat_next;
            states.push(x.clone());
        }

        let _ = p;
        Self {
            vars,
            attack_vars,
            attacked_sensors: attacked,
            residues,
            measurements,
            states,
            horizon,
        }
    }

    /// The variable pool containing all attack variables.
    pub fn vars(&self) -> &VarPool {
        &self.vars
    }

    /// Consumes the unrolling and returns the variable pool (needed to build a
    /// solver over the same variables).
    pub fn vars_cloned(&self) -> VarPool {
        self.vars.clone()
    }

    /// The analysis horizon `T`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Attack variable for step `k` and attacked-sensor column `i`.
    pub fn attack_var(&self, k: usize, i: usize) -> VarId {
        self.attack_vars[k][i]
    }

    /// The measurement components the attacker can falsify.
    pub fn attacked_sensors(&self) -> &[usize] {
        &self.attacked_sensors
    }

    /// Residue expressions `z_k[j]`.
    pub fn residue(&self, k: usize, j: usize) -> &LinExpr {
        &self.residues[k][j]
    }

    /// Number of residue components per step.
    pub fn num_residue_components(&self) -> usize {
        self.residues.first().map_or(0, Vec::len)
    }

    /// Attacked measurement expressions wrapped for the monitor encoders.
    pub fn measurement_symbols(&self) -> MeasurementSymbols {
        MeasurementSymbols::new(self.measurements.clone())
    }

    /// Affine expressions of the final plant state `x_T`.
    pub fn final_state(&self) -> &[LinExpr] {
        self.states.last().expect("at least the initial state")
    }

    /// Affine expressions of the plant state at step `k` (0-based, up to `T`).
    pub fn state(&self, k: usize) -> &[LinExpr] {
        &self.states[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_control::SensorAttack;
    use cps_linalg::Vector;

    /// The symbolic unrolling evaluated at a concrete attack vector must match
    /// the closed-loop simulator exactly (both are noise-free).
    #[test]
    fn unrolling_matches_simulation_on_concrete_attacks() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let unrolled = UnrolledLoop::new(&benchmark);
        let horizon = benchmark.horizon;

        // A concrete attack: ramp injection on the single attacked sensor.
        let injections: Vec<Vector> = (0..horizon)
            .map(|k| Vector::from_slice(&[0.01 * k as f64]))
            .collect();
        let attack = SensorAttack::new(injections.clone());

        // Assignment for the attack variables (one per step).
        let mut assignment = vec![0.0; unrolled.vars().len()];
        for (k, injection) in injections.iter().enumerate() {
            assignment[unrolled.attack_var(k, 0).index()] = injection[0];
        }

        let trace = benchmark.closed_loop.simulate(
            &benchmark.initial_state,
            horizon,
            &cps_control::NoiseModel::none(2, 1),
            Some(&attack),
            0,
        );

        for k in 0..horizon {
            let simulated = &trace.residues()[k];
            for j in 0..unrolled.num_residue_components() {
                let symbolic = unrolled.residue(k, j).evaluate(&assignment);
                assert!(
                    (symbolic - simulated[j]).abs() < 1e-9,
                    "residue mismatch at step {k}, component {j}: {symbolic} vs {}",
                    simulated[j]
                );
            }
            let simulated_y = &trace.measurements()[k];
            let symbols = unrolled.measurement_symbols();
            for j in 0..simulated_y.len() {
                let symbolic = symbols.measurement(k, j).evaluate(&assignment);
                assert!(
                    (symbolic - simulated_y[j]).abs() < 1e-9,
                    "measurement mismatch at step {k}, component {j}"
                );
            }
        }
        // Final state agreement.
        let final_sim = trace.states().last().unwrap();
        for (i, expr) in unrolled.final_state().iter().enumerate() {
            assert!((expr.evaluate(&assignment) - final_sim[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn attack_free_unrolling_has_zero_residues() {
        let benchmark = cps_models::trajectory_tracking().unwrap();
        let unrolled = UnrolledLoop::new(&benchmark);
        let assignment = vec![0.0; unrolled.vars().len()];
        for k in 0..unrolled.horizon() {
            for j in 0..unrolled.num_residue_components() {
                assert!(unrolled.residue(k, j).evaluate(&assignment).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reduced_horizon_unrolling() {
        let benchmark = cps_models::vsc().unwrap();
        let unrolled = UnrolledLoop::with_horizon(&benchmark, 5);
        assert_eq!(unrolled.horizon(), 5);
        assert_eq!(
            unrolled.vars().len(),
            5 * 2,
            "two attacked sensors per step"
        );
        assert_eq!(unrolled.num_residue_components(), 2);
        assert_eq!(unrolled.measurement_symbols().len(), 5);
        assert_eq!(unrolled.state(0).len(), 2);
    }
}
