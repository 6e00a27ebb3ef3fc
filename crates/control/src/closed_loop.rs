use cps_linalg::{dot, Matrix, Vector};

use crate::{ControlError, NoiseModel, StateSpace, Trace};

/// Reusable per-step vectors for [`ClosedLoop::simulate_into`].
///
/// A `StepBuffers` holds the vectors a [`StepRecord`] borrows (state,
/// estimate, control, measurement, residue, next state and estimate) and the
/// step's noise draw; the step kernel works in locals of its own and writes
/// here only what the observer sees. The buffers are sized lazily on first
/// use; once warm, a rollout performs zero heap allocations for plants with
/// at most [`cps_linalg::INLINE_CAP`] states, inputs and outputs (a wider
/// plant allocates its kernel locals once per rollout). Reuse one instance
/// across rollouts (the FAR hot loop keeps one per evaluation lane).
#[derive(Debug, Clone, Default)]
pub struct StepBuffers {
    x: Vector,
    xhat: Vector,
    u: Vector,
    w: Vector,
    v: Vector,
    y: Vector,
    z: Vector,
    x_next: Vector,
    xhat_next: Vector,
}

impl StepBuffers {
    /// Creates empty buffers (sized lazily by the first rollout).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current plant state `x_k` — after [`ClosedLoop::simulate_into`]
    /// returns, the final state `x_T` (or `x_{k+1}`, where the next step
    /// would start, when the observer ended the rollout at step `k`).
    pub fn state(&self) -> &Vector {
        &self.x
    }

    /// The current estimator state `x̂_k` (final estimate after a completed
    /// rollout).
    pub fn estimate(&self) -> &Vector {
        &self.xhat
    }

    /// Sizes the record's vectors for an `n`-state, `m`-input, `p`-output
    /// plant and sets the state to `initial_state` and the estimate to zero.
    fn start(&mut self, initial_state: &Vector, m: usize, p: usize) {
        let n = initial_state.len();
        self.x.copy_from(initial_state);
        self.xhat.resize_zeroed(n);
        self.xhat.as_mut_slice().fill(0.0);
        for (buffer, len) in [
            (&mut self.u, m),
            (&mut self.y, p),
            (&mut self.z, p),
            (&mut self.x_next, n),
            (&mut self.xhat_next, n),
        ] {
            buffer.resize_zeroed(len);
        }
    }
}

/// One streamed simulation step handed to the [`ClosedLoop::simulate_into`]
/// observer. All fields borrow from the caller's [`StepBuffers`] and are only
/// valid for the duration of the callback; clone what you need to keep.
#[derive(Debug)]
pub struct StepRecord<'a> {
    /// Sampling instant `k` (counting from zero).
    pub k: usize,
    /// Plant state `x_k` at the start of the step.
    pub state: &'a Vector,
    /// Estimator state `x̂_k` at the start of the step.
    pub estimate: &'a Vector,
    /// Control input `u_k`.
    pub control: &'a Vector,
    /// (Possibly attacked) measurement `ỹ_k` as seen by the estimator.
    pub measurement: &'a Vector,
    /// Residue `z_k = ỹ_k − ŷ_k`.
    pub residue: &'a Vector,
    /// Next plant state `x_{k+1}`.
    pub next_state: &'a Vector,
    /// Next estimator state `x̂_{k+1}`.
    pub next_estimate: &'a Vector,
}

/// Set-point of the closed loop: the state target `x_des` and the equilibrium
/// input `u_eq` around which the state-feedback law regulates,
/// `u_k = u_eq − K·(x̂_k − x_des)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    x_des: Vector,
    u_eq: Vector,
}

impl Reference {
    /// Regulation to the origin with zero equilibrium input.
    pub fn origin(num_states: usize, num_inputs: usize) -> Self {
        Self {
            x_des: Vector::zeros(num_states),
            u_eq: Vector::zeros(num_inputs),
        }
    }

    /// A state target with zero equilibrium input (sufficient when the target
    /// is an equilibrium of the autonomous plant, e.g. integrator chains).
    pub fn state_target(x_des: Vector) -> Self {
        Self {
            x_des,
            u_eq: Vector::zeros(0),
        }
    }

    /// A state target together with an explicit equilibrium input.
    pub fn with_equilibrium_input(x_des: Vector, u_eq: Vector) -> Self {
        Self { x_des, u_eq }
    }

    /// The state target `x_des`.
    pub fn x_des(&self) -> &Vector {
        &self.x_des
    }

    /// The equilibrium input `u_eq`.
    pub fn u_eq(&self) -> &Vector {
        &self.u_eq
    }
}

/// An additive false-data-injection attack on the sensor measurements:
/// `ỹ_k = y_k + a_k` for `k = 0 … T−1`.
///
/// # Example
///
/// ```
/// use cps_control::SensorAttack;
/// use cps_linalg::Vector;
///
/// let attack = SensorAttack::new(vec![Vector::from_slice(&[0.0]), Vector::from_slice(&[0.5])]);
/// assert_eq!(attack.len(), 2);
/// assert_eq!(attack.injection(1)[0], 0.5);
/// assert_eq!(attack.injection(7).as_slice(), &[0.0]); // past the end: no injection
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SensorAttack {
    injections: Vec<Vector>,
}

impl SensorAttack {
    /// Creates an attack from the per-step injection vectors.
    pub fn new(injections: Vec<Vector>) -> Self {
        Self { injections }
    }

    /// An attack that injects nothing for `steps` steps on `num_outputs`
    /// sensors (useful as a baseline).
    pub fn zeros(steps: usize, num_outputs: usize) -> Self {
        Self {
            injections: vec![Vector::zeros(num_outputs); steps],
        }
    }

    /// Number of steps covered by the attack.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// Returns `true` when the attack covers no steps.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// The injection added at step `k`; steps beyond the recorded horizon
    /// inject nothing.
    pub fn injection(&self, k: usize) -> Vector {
        self.injections
            .get(k)
            .cloned()
            .unwrap_or_else(|| Vector::zeros(self.injections.first().map_or(0, Vector::len)))
    }

    /// Borrowed, allocation-free variant of [`SensorAttack::injection`]:
    /// `None` beyond the recorded horizon (where `injection` materialises a
    /// zero vector instead).
    pub fn injection_at(&self, k: usize) -> Option<&Vector> {
        self.injections.get(k)
    }

    /// All injection vectors.
    pub fn injections(&self) -> &[Vector] {
        &self.injections
    }

    /// Largest absolute injected value over all steps and sensors.
    pub fn max_magnitude(&self) -> f64 {
        self.injections
            .iter()
            .map(|a| a.norm_inf())
            .fold(0.0, f64::max)
    }
}

/// The assembled closed loop: plant, state-feedback gain `K`, estimator gain
/// `L` and reference.
///
/// [`ClosedLoop::simulate`] reproduces exactly the update order that the SMT
/// encoder in the `secure-cps` crate unrolls, so simulated residues and
/// symbolically derived residues agree (up to noise).
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoop {
    plant: StateSpace,
    controller_gain: Matrix,
    estimator_gain: Matrix,
    reference: Reference,
}

impl ClosedLoop {
    /// Creates a closed loop from a plant and pre-designed gains.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] if `K` is not `m×n` or `L`
    /// is not `n×p` for an `n`-state, `m`-input, `p`-output plant, and
    /// [`ControlError::NonFinite`] if a gain entry is NaN or infinite.
    pub fn new(
        plant: StateSpace,
        controller_gain: Matrix,
        estimator_gain: Matrix,
    ) -> Result<Self, ControlError> {
        crate::require_finite("controller gain K", &controller_gain)?;
        crate::require_finite("estimator gain L", &estimator_gain)?;
        let (n, m, p) = (plant.num_states(), plant.num_inputs(), plant.num_outputs());
        if controller_gain.shape() != (m, n) {
            return Err(ControlError::DimensionMismatch(format!(
                "controller gain must be {m}x{n}, got {}x{}",
                controller_gain.rows(),
                controller_gain.cols()
            )));
        }
        if estimator_gain.shape() != (n, p) {
            return Err(ControlError::DimensionMismatch(format!(
                "estimator gain must be {n}x{p}, got {}x{}",
                estimator_gain.rows(),
                estimator_gain.cols()
            )));
        }
        let reference = Reference::origin(n, m);
        Ok(Self {
            plant,
            controller_gain,
            estimator_gain,
            reference,
        })
    }

    /// Replaces the reference (builder style).
    ///
    /// A reference created by [`Reference::state_target`] has an empty
    /// equilibrium input, which is expanded to the correct size here.
    pub fn with_reference(mut self, reference: Reference) -> Self {
        let u_eq = if reference.u_eq.is_empty() {
            Vector::zeros(self.plant.num_inputs())
        } else {
            reference.u_eq
        };
        self.reference = Reference {
            x_des: reference.x_des,
            u_eq,
        };
        self
    }

    /// The plant model.
    pub fn plant(&self) -> &StateSpace {
        &self.plant
    }

    /// The state-feedback gain `K`.
    pub fn controller_gain(&self) -> &Matrix {
        &self.controller_gain
    }

    /// The estimator gain `L`.
    pub fn estimator_gain(&self) -> &Matrix {
        &self.estimator_gain
    }

    /// The active reference.
    pub fn reference(&self) -> &Reference {
        &self.reference
    }

    /// The control law `u = u_eq − K·(x̂ − x_des)`.
    pub fn control_law(&self, estimate: &Vector) -> Vector {
        let error = estimate - self.reference.x_des();
        self.reference.u_eq() - &self.controller_gain.mul_vec(&error)
    }

    /// Simulates `steps` closed-loop iterations from `initial_state`.
    ///
    /// * `noise` — process/measurement noise model (use [`NoiseModel::none`]
    ///   for a deterministic rollout);
    /// * `attack` — optional false-data injection added to the measurements
    ///   before they reach the estimator;
    /// * `seed` — noise seed, making rollouts reproducible and allowing a
    ///   paired attacked/attack-free comparison on the same noise realisation.
    ///
    /// Implemented on top of [`ClosedLoop::simulate_into`]. The
    /// `streaming_runtime` test suite asserts it bit-identical to a rollout
    /// built from the allocating kernels ([`ClosedLoop::control_law`],
    /// [`NoiseModel::sample`], [`StateSpace::step`], [`StateSpace::output`]).
    pub fn simulate(
        &self,
        initial_state: &Vector,
        steps: usize,
        noise: &NoiseModel,
        attack: Option<&SensorAttack>,
        seed: u64,
    ) -> Trace {
        let mut states = Vec::with_capacity(steps + 1);
        let mut estimates = Vec::with_capacity(steps + 1);
        let mut measurements = Vec::with_capacity(steps);
        let mut controls = Vec::with_capacity(steps);
        let mut residues = Vec::with_capacity(steps);

        states.push(initial_state.clone());
        estimates.push(Vector::zeros(self.plant.num_states()));

        let mut buffers = StepBuffers::new();
        self.simulate_into(
            initial_state,
            steps,
            noise,
            attack,
            seed,
            &mut buffers,
            |step| {
                measurements.push(step.measurement.clone());
                controls.push(step.control.clone());
                residues.push(step.residue.clone());
                states.push(step.next_state.clone());
                estimates.push(step.next_estimate.clone());
                true
            },
        );

        Trace::new(states, estimates, measurements, controls, residues)
    }

    /// Streaming rollout: runs the same closed-loop update as
    /// [`ClosedLoop::simulate`] but hands each step to `observe` instead of
    /// materialising a [`Trace`], reusing the caller's [`StepBuffers`] so a
    /// warm steady state performs zero heap allocations.
    ///
    /// `observe` receives a [`StepRecord`] borrowing the step's vectors and
    /// returns `true` to continue; returning `false` stops the rollout after
    /// the current step (the FAR engine stops a trial the moment its monitor
    /// alarm fires), leaving the buffers' state and estimate where the next
    /// step would start. Returns the number of executed steps.
    ///
    /// One step kernel runs every rollout. It keeps the step's vectors in
    /// fixed-size locals whose lengths are compile-time constants for the
    /// plant shapes `(n, m, p)` of the workspace's benchmark plants, and in
    /// run-time-sized locals for any other shape. Every arithmetic operation
    /// happens in the same order and association as in the allocating
    /// kernels ([`ClosedLoop::control_law`], [`NoiseModel::sample`],
    /// [`StateSpace::step`], [`StateSpace::output`]), each matrix row
    /// through the [`dot`](cps_linalg::dot) of [`Matrix::mul_vec`], so
    /// streamed quantities are bit-identical to a rollout built from them.
    /// A silent model ([`NoiseModel::is_none`]) samples only ±0.0, and
    /// `a + (±0.0)` is `a` unless `a` is −0.0; so its rollout draws and adds
    /// a step's noise only when the measurement or the next state it would
    /// be added to holds a −0.0, with the same result.
    ///
    /// # Panics
    ///
    /// Panics if `initial_state` or the reference has the wrong dimension,
    /// and at the first step that adds a noise draw or a non-empty injection
    /// of the wrong length.
    pub fn simulate_into<F>(
        &self,
        initial_state: &Vector,
        steps: usize,
        noise: &NoiseModel,
        attack: Option<&SensorAttack>,
        seed: u64,
        buffers: &mut StepBuffers,
        observe: F,
    ) -> usize
    where
        F: FnMut(&StepRecord<'_>) -> bool,
    {
        let plant = &self.plant;
        let (n, m, p) = (plant.num_states(), plant.num_inputs(), plant.num_outputs());
        assert_eq!(initial_state.len(), n, "initial state has wrong dimension");
        assert_eq!(
            self.reference.x_des.len(),
            n,
            "reference state has wrong dimension"
        );
        assert_eq!(
            self.reference.u_eq.len(),
            m,
            "equilibrium input has wrong dimension"
        );
        // The shapes of the benchmark plants (trajectory and DC motor, VSC,
        // pendulum, tank) get a compile-time instance each.
        let kernel: Kernel<F> = match (n, m, p) {
            (2, 1, 1) => Self::rollout::<[f64; 2], [f64; 1], [f64; 1], F>,
            (2, 1, 2) => Self::rollout::<[f64; 2], [f64; 1], [f64; 2], F>,
            (4, 1, 2) => Self::rollout::<[f64; 4], [f64; 1], [f64; 2], F>,
            (4, 2, 2) => Self::rollout::<[f64; 4], [f64; 2], [f64; 2], F>,
            _ => Self::rollout::<Vector, Vector, Vector, F>,
        };
        kernel(
            self,
            initial_state,
            steps,
            noise,
            attack,
            seed,
            buffers,
            observe,
        )
    }

    /// The step kernel of [`ClosedLoop::simulate_into`], written once for
    /// every shape: `X`, `U` and `Y` hold the step's state-, input- and
    /// output-sized vectors. The caller has checked the initial state and
    /// the reference against the plant.
    fn rollout<X: Lane, U: Lane, Y: Lane, F>(
        &self,
        initial_state: &Vector,
        steps: usize,
        noise: &NoiseModel,
        attack: Option<&SensorAttack>,
        seed: u64,
        buffers: &mut StepBuffers,
        mut observe: F,
    ) -> usize
    where
        F: FnMut(&StepRecord<'_>) -> bool,
    {
        let plant = &self.plant;
        let mut x = X::zeroed(plant.num_states());
        let mut u = U::zeroed(plant.num_inputs());
        let mut y = Y::zeroed(plant.num_outputs());
        // Read the lengths off the locals: for an array instance they are
        // compile-time constants, which fixes every loop bound below.
        let (n, m, p) = (x.get().len(), u.get().len(), y.get().len());
        let mut xhat = X::zeroed(n);
        let mut err = X::zeroed(n);
        let mut x_next = X::zeroed(n);
        let mut xhat_next = X::zeroed(n);
        let mut z = Y::zeroed(p);

        // The matrices as flat row-major slices, checked once per rollout.
        let (a, b) = (plant.a().as_slice(), plant.b().as_slice());
        let (c, d) = (plant.c().as_slice(), plant.d().as_slice());
        let gain_k = self.controller_gain.as_slice();
        let gain_l = self.estimator_gain.as_slice();
        assert!(
            a.len() == n * n
                && b.len() == n * m
                && c.len() == p * n
                && d.len() == p * m
                && gain_k.len() == m * n
                && gain_l.len() == n * p,
            "closed-loop matrices do not match the plant's shape"
        );
        let x_des = self.reference.x_des.as_slice();
        let u_eq = self.reference.u_eq.as_slice();

        x.get_mut().copy_from_slice(initial_state.as_slice());
        buffers.start(initial_state, m, p);
        let silent = noise.is_none();

        for k in 0..steps {
            // u_k = u_eq − K·(x̂_k − x_des)
            for ((e, xh), xd) in err.get_mut().iter_mut().zip(xhat.get()).zip(x_des) {
                *e = xh - xd;
            }
            for (i, (ui, ue)) in u.get_mut().iter_mut().zip(u_eq).enumerate() {
                *ui = ue - dot(row(gain_k, i, n), err.get());
            }

            // Sensor measurement ỹ_k = C·x + D·u + v (+ attacker injection).
            for (i, yi) in y.get_mut().iter_mut().enumerate() {
                *yi = dot(row(c, i, n), x.get()) + dot(row(d, i, m), u.get());
            }
            let drawn = !silent || holds_negative_zero(y.get());
            if drawn {
                noise.sample_into(seed, k, &mut buffers.w, &mut buffers.v);
                add_assign(y.get_mut(), buffers.v.as_slice());
            }
            if let Some(injection) = attack.and_then(|a| a.injection_at(k)) {
                if !injection.is_empty() {
                    add_assign(y.get_mut(), injection.as_slice());
                }
            }
            // z_k = ỹ_k − ŷ_k with ŷ_k = C·x̂ + D·u
            for (i, (zi, yi)) in z.get_mut().iter_mut().zip(y.get()).enumerate() {
                *zi = yi - (dot(row(c, i, n), xhat.get()) + dot(row(d, i, m), u.get()));
            }

            // Plant and estimator updates (the estimator sees only ỹ via z).
            for (i, xi) in x_next.get_mut().iter_mut().enumerate() {
                *xi = dot(row(a, i, n), x.get()) + dot(row(b, i, m), u.get());
            }
            if drawn || holds_negative_zero(x_next.get()) {
                if !drawn {
                    noise.sample_into(seed, k, &mut buffers.w, &mut buffers.v);
                }
                add_assign(x_next.get_mut(), buffers.w.as_slice());
            }
            for (i, xi) in xhat_next.get_mut().iter_mut().enumerate() {
                *xi = dot(row(a, i, n), xhat.get())
                    + dot(row(b, i, m), u.get())
                    + dot(row(gain_l, i, p), z.get());
            }

            buffers.u.as_mut_slice().copy_from_slice(u.get());
            buffers.y.as_mut_slice().copy_from_slice(y.get());
            buffers.z.as_mut_slice().copy_from_slice(z.get());
            buffers.x_next.as_mut_slice().copy_from_slice(x_next.get());
            buffers
                .xhat_next
                .as_mut_slice()
                .copy_from_slice(xhat_next.get());
            let keep_going = observe(&StepRecord {
                k,
                state: &buffers.x,
                estimate: &buffers.xhat,
                control: &buffers.u,
                measurement: &buffers.y,
                residue: &buffers.z,
                next_state: &buffers.x_next,
                next_estimate: &buffers.xhat_next,
            });

            std::mem::swap(&mut x, &mut x_next);
            std::mem::swap(&mut xhat, &mut xhat_next);
            std::mem::swap(&mut buffers.x, &mut buffers.x_next);
            std::mem::swap(&mut buffers.xhat, &mut buffers.xhat_next);

            if !keep_going {
                return k + 1;
            }
        }
        steps
    }
}

/// [`ClosedLoop::simulate_into`]'s signature: the type of one instance of
/// the step kernel.
type Kernel<F> = fn(
    &ClosedLoop,
    &Vector,
    usize,
    &NoiseModel,
    Option<&SensorAttack>,
    u64,
    &mut StepBuffers,
    F,
) -> usize;

/// Storage of one vector of the step kernel: an array whose length is a
/// compile-time constant, or a [`Vector`] for a shape outside the
/// compile-time set.
trait Lane {
    /// A lane of `len` zeros.
    fn zeroed(len: usize) -> Self;
    /// The entries.
    fn get(&self) -> &[f64];
    /// The entries, mutably.
    fn get_mut(&mut self) -> &mut [f64];
}

impl<const N: usize> Lane for [f64; N] {
    #[inline(always)]
    fn zeroed(len: usize) -> Self {
        debug_assert_eq!(len, N, "lane length");
        [0.0; N]
    }

    #[inline(always)]
    fn get(&self) -> &[f64] {
        self
    }

    #[inline(always)]
    fn get_mut(&mut self) -> &mut [f64] {
        self
    }
}

impl Lane for Vector {
    fn zeroed(len: usize) -> Self {
        Vector::zeros(len)
    }

    #[inline]
    fn get(&self) -> &[f64] {
        self.as_slice()
    }

    #[inline]
    fn get_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

/// Row `i` of a row-major matrix with `cols` columns.
#[inline]
fn row(matrix: &[f64], i: usize, cols: usize) -> &[f64] {
    &matrix[i * cols..(i + 1) * cols]
}

/// `lhs += rhs` entry by entry, with the length check of `Vector`'s `+=`.
#[inline]
fn add_assign(lhs: &mut [f64], rhs: &[f64]) {
    assert_eq!(
        lhs.len(),
        rhs.len(),
        "vector addition requires equal lengths"
    );
    for (l, r) in lhs.iter_mut().zip(rhs) {
        *l += r;
    }
}

/// Whether an entry of `v` is −0.0, the one value that adding +0.0 changes.
#[inline]
fn holds_negative_zero(v: &[f64]) -> bool {
    v.iter().any(|e| e.to_bits() == (-0.0f64).to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kalman_gain, lqr_gain, ResidueNorm};

    fn double_integrator_loop() -> ClosedLoop {
        let plant = StateSpace::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
            Matrix::from_rows(&[&[0.005], &[0.1]]).unwrap(),
            Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        let k = lqr_gain(&plant, &Matrix::identity(2), &Matrix::from_diag(&[1.0])).unwrap();
        let l = kalman_gain(
            &plant,
            &Matrix::identity(2).scale(1e-4),
            &Matrix::from_diag(&[1e-4]),
        )
        .unwrap();
        ClosedLoop::new(plant, k, l).unwrap()
    }

    #[test]
    fn constructor_validates_gain_shapes() {
        let plant = StateSpace::new(
            Matrix::identity(2),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        assert!(ClosedLoop::new(plant.clone(), Matrix::zeros(2, 2), Matrix::zeros(2, 1)).is_err());
        assert!(ClosedLoop::new(plant.clone(), Matrix::zeros(1, 2), Matrix::zeros(1, 1)).is_err());
        assert!(ClosedLoop::new(plant, Matrix::zeros(1, 2), Matrix::zeros(2, 1)).is_ok());
    }

    #[test]
    fn regulation_to_origin_converges() {
        let closed_loop = double_integrator_loop();
        let trace = closed_loop.simulate(
            &Vector::from_slice(&[1.0, 0.0]),
            200,
            &NoiseModel::none(2, 1),
            None,
            0,
        );
        let final_state = trace.states().last().unwrap();
        assert!(
            final_state.norm_inf() < 0.05,
            "did not regulate: {final_state}"
        );
    }

    #[test]
    fn tracking_a_state_target_converges() {
        let closed_loop = double_integrator_loop()
            .with_reference(Reference::state_target(Vector::from_slice(&[2.0, 0.0])));
        let trace = closed_loop.simulate(&Vector::zeros(2), 300, &NoiseModel::none(2, 1), None, 0);
        let final_state = trace.states().last().unwrap();
        assert!(
            (final_state[0] - 2.0).abs() < 0.05,
            "did not track: {final_state}"
        );
    }

    #[test]
    fn residues_are_zero_without_noise_and_attack_from_known_state() {
        let closed_loop = double_integrator_loop();
        // Starting the plant at the estimator's initial value (origin) keeps
        // the residue identically zero in a noise-free, attack-free run.
        let trace = closed_loop.simulate(&Vector::zeros(2), 50, &NoiseModel::none(2, 1), None, 0);
        let max_residue = trace
            .residue_norms(ResidueNorm::Linf)
            .into_iter()
            .fold(0.0, f64::max);
        assert!(max_residue < 1e-12);
    }

    #[test]
    fn attack_increases_residues_and_perturbs_the_state() {
        let closed_loop = double_integrator_loop();
        let steps = 60;
        let attack = SensorAttack::new(
            (0..steps)
                .map(|k| Vector::from_slice(&[if k >= 10 { 0.5 } else { 0.0 }]))
                .collect(),
        );
        let clean =
            closed_loop.simulate(&Vector::zeros(2), steps, &NoiseModel::none(2, 1), None, 0);
        let attacked = closed_loop.simulate(
            &Vector::zeros(2),
            steps,
            &NoiseModel::none(2, 1),
            Some(&attack),
            0,
        );
        let clean_max = clean
            .residue_norms(ResidueNorm::Linf)
            .into_iter()
            .fold(0.0, f64::max);
        let attacked_max = attacked
            .residue_norms(ResidueNorm::Linf)
            .into_iter()
            .fold(0.0, f64::max);
        assert!(attacked_max > clean_max + 0.1);
        // The false data drives the physical state away from the origin.
        let clean_final = clean.states().last().unwrap().norm_inf();
        let attacked_final = attacked.states().last().unwrap().norm_inf();
        assert!(attacked_final > clean_final);
    }

    #[test]
    fn noise_produces_nonzero_but_bounded_residues() {
        let closed_loop = double_integrator_loop();
        let trace = closed_loop.simulate(
            &Vector::zeros(2),
            100,
            &NoiseModel::uniform_std(2, 1, 1e-4, 1e-3),
            None,
            42,
        );
        let norms = trace.residue_norms(ResidueNorm::Linf);
        assert!(norms.iter().any(|z| *z > 0.0));
        assert!(norms.iter().all(|z| *z < 0.1));
    }

    #[test]
    fn same_seed_gives_identical_rollout() {
        let closed_loop = double_integrator_loop();
        let noise = NoiseModel::uniform_std(2, 1, 1e-3, 1e-3);
        let a = closed_loop.simulate(&Vector::zeros(2), 30, &noise, None, 9);
        let b = closed_loop.simulate(&Vector::zeros(2), 30, &noise, None, 9);
        assert_eq!(a, b);
        let c = closed_loop.simulate(&Vector::zeros(2), 30, &noise, None, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn simulate_into_observer_can_stop_early() {
        let closed_loop = double_integrator_loop();
        let noise = NoiseModel::uniform_std(2, 1, 1e-3, 1e-3);
        let mut buffers = StepBuffers::new();
        let mut seen = Vec::new();
        let executed = closed_loop.simulate_into(
            &Vector::zeros(2),
            50,
            &noise,
            None,
            3,
            &mut buffers,
            |step| {
                seen.push(step.residue.clone());
                step.k < 9
            },
        );
        assert_eq!(executed, 10);
        assert_eq!(seen.len(), 10);
        let reference = closed_loop.simulate(&Vector::zeros(2), 50, &noise, None, 3);
        assert_eq!(seen.as_slice(), &reference.residues()[..10]);
        // After the early stop the buffers hold the state where the next
        // step would start.
        assert_eq!(buffers.state(), &reference.states()[10]);
        assert_eq!(buffers.estimate(), &reference.estimates()[10]);
    }

    #[test]
    fn buffers_final_state_matches_trace_after_full_rollout() {
        let closed_loop = double_integrator_loop();
        let noise = NoiseModel::uniform_std(2, 1, 1e-4, 1e-3);
        let mut buffers = StepBuffers::new();
        let executed = closed_loop.simulate_into(
            &Vector::zeros(2),
            30,
            &noise,
            None,
            11,
            &mut buffers,
            |_| true,
        );
        assert_eq!(executed, 30);
        let trace = closed_loop.simulate(&Vector::zeros(2), 30, &noise, None, 11);
        assert_eq!(buffers.state(), trace.states().last().unwrap());
        assert_eq!(buffers.estimate(), trace.estimates().last().unwrap());
    }

    #[test]
    fn attack_accessors() {
        let attack = SensorAttack::zeros(3, 2);
        assert_eq!(attack.len(), 3);
        assert!(!attack.is_empty());
        assert_eq!(attack.max_magnitude(), 0.0);
        assert_eq!(attack.injection(2).len(), 2);
        assert_eq!(attack.injections().len(), 3);
        assert_eq!(attack.injection_at(2), Some(&Vector::zeros(2)));
        assert_eq!(attack.injection_at(3), None);
    }
}
