use cps_linalg::{SplitMix64, Vector};

/// Independent zero-mean Gaussian process and measurement noise.
///
/// The paper's plant model uses `w_k ~ N(0, Q)` and `v_k ~ N(0, R)`; this
/// type keeps the per-component standard deviations (i.e. diagonal
/// covariances), which is what the evaluation section's "suitably small range"
/// noise amounts to.
///
/// # Example
///
/// ```
/// use cps_control::NoiseModel;
///
/// let noise = NoiseModel::uniform_std(2, 1, 0.01, 0.02);
/// let (w, v) = noise.sample(42, 0);
/// assert_eq!(w.len(), 2);
/// assert_eq!(v.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    process_std: Vec<f64>,
    measurement_std: Vec<f64>,
    /// Every standard deviation is zero ([`NoiseModel::is_none`]).
    silent: bool,
}

impl NoiseModel {
    /// Creates a noise model from per-component standard deviations.
    pub fn new(process_std: Vec<f64>, measurement_std: Vec<f64>) -> Self {
        let silent = process_std
            .iter()
            .chain(&measurement_std)
            .all(|s| *s == 0.0);
        Self {
            process_std,
            measurement_std,
            silent,
        }
    }

    /// A noise-free model for a plant with `num_states` states and
    /// `num_outputs` outputs.
    pub fn none(num_states: usize, num_outputs: usize) -> Self {
        Self::new(vec![0.0; num_states], vec![0.0; num_outputs])
    }

    /// A model with the same standard deviation for every state component and
    /// every measurement component.
    pub fn uniform_std(
        num_states: usize,
        num_outputs: usize,
        process_std: f64,
        measurement_std: f64,
    ) -> Self {
        Self::new(
            vec![process_std; num_states],
            vec![measurement_std; num_outputs],
        )
    }

    /// Returns `true` when both noise sources are identically zero: every
    /// sample is then ±0.0, and a rollout draws only where the sign of a
    /// zero can matter ([`ClosedLoop::simulate_into`](crate::ClosedLoop::simulate_into)).
    pub fn is_none(&self) -> bool {
        self.silent
    }

    /// Per-component process-noise standard deviations.
    pub fn process_std(&self) -> &[f64] {
        &self.process_std
    }

    /// Per-component measurement-noise standard deviations.
    pub fn measurement_std(&self) -> &[f64] {
        &self.measurement_std
    }

    /// Samples `(w_k, v_k)` for sampling instant `step` of the rollout with
    /// the given `seed`. The same `(seed, step)` pair always produces the same
    /// noise, which keeps simulations reproducible and lets paired experiments
    /// (with and without attack) share a noise realisation.
    pub fn sample(&self, seed: u64, step: usize) -> (Vector, Vector) {
        let mut w = Vector::zeros(self.process_std.len());
        let mut v = Vector::zeros(self.measurement_std.len());
        self.sample_into(seed, step, &mut w, &mut v);
        (w, v)
    }

    /// [`NoiseModel::sample`] written into caller-provided vectors, resizing
    /// them if needed — allocation-free in steady state and bit-identical to
    /// the allocating form (same RNG stream, same draw order: all process
    /// components first, then all measurement components).
    pub fn sample_into(&self, seed: u64, step: usize, w: &mut Vector, v: &mut Vector) {
        // Avalanche-mix the step before combining with the seed. A linear mix
        // (`step * G`) is NOT enough: G is also SplitMix64's state increment,
        // so per-step states would lie on the same additive orbit and nearby
        // steps would replay shifted copies of each other's stream.
        let step_mix = SplitMix64::new(step as u64).next_u64();
        let mut rng = SplitMix64::new(seed ^ step_mix);
        w.resize_zeroed(self.process_std.len());
        for (slot, std) in w.as_mut_slice().iter_mut().zip(&self.process_std) {
            *slot = gaussian(&mut rng) * std;
        }
        v.resize_zeroed(self.measurement_std.len());
        for (slot, std) in v.as_mut_slice().iter_mut().zip(&self.measurement_std) {
            *slot = gaussian(&mut rng) * std;
        }
    }
}

/// Standard normal sample via the Box–Muller transform (avoids a dependency on
/// `rand_distr`, which is not in the sanctioned crate set).
fn gaussian(rng: &mut SplitMix64) -> f64 {
    let u1: f64 = rng.next_f64().max(f64::EPSILON);
    let u2: f64 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_produces_zero_noise() {
        let noise = NoiseModel::none(3, 2);
        assert!(noise.is_none());
        let (w, v) = noise.sample(1, 5);
        assert_eq!(w.as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(v.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_step() {
        let noise = NoiseModel::uniform_std(2, 1, 0.1, 0.2);
        let (w1, v1) = noise.sample(7, 3);
        let (w2, v2) = noise.sample(7, 3);
        assert_eq!(w1, w2);
        assert_eq!(v1, v2);
        let (w3, _) = noise.sample(7, 4);
        assert_ne!(w1, w3, "different steps should give different noise");
        let (w4, _) = noise.sample(8, 3);
        assert_ne!(w1, w4, "different seeds should give different noise");
    }

    #[test]
    fn sample_statistics_are_plausible() {
        let noise = NoiseModel::uniform_std(1, 1, 1.0, 0.0);
        let n = 4000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for step in 0..n {
            let (w, _) = noise.sample(123, step);
            sum += w[0];
            sum_sq += w[0] * w[0];
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "sample mean {mean} too far from zero");
        assert!(
            (var - 1.0).abs() < 0.15,
            "sample variance {var} too far from one"
        );
    }

    #[test]
    fn per_step_streams_do_not_replay_each_other() {
        // Regression: with a linear `seed ^ step * G` reseed the raw stream of
        // step k+2 was an exact 2-draw-shifted copy of step k's stream (always
        // for seed 1, ~5 % of (seed, step) pairs in general), so gaussian i+1
        // of step k reappeared verbatim as gaussian i of step k+2.
        let noise = NoiseModel::uniform_std(2, 1, 1.0, 1.0);
        for seed in [0, 1, 2, 123] {
            for step in 0..40 {
                let (w, _) = noise.sample(seed, step);
                let (w_next, _) = noise.sample(seed, step + 2);
                assert_ne!(
                    w[1], w_next[0],
                    "seed {seed} step {step}: shifted stream replay"
                );
            }
        }
    }

    #[test]
    fn sample_into_matches_sample_bit_for_bit() {
        let noise = NoiseModel::uniform_std(3, 2, 0.1, 0.2);
        let mut w = Vector::zeros(0);
        let mut v = Vector::zeros(0);
        for seed in [0, 7, 42] {
            for step in 0..20 {
                let (w_ref, v_ref) = noise.sample(seed, step);
                noise.sample_into(seed, step, &mut w, &mut v);
                assert_eq!(w, w_ref);
                assert_eq!(v, v_ref);
            }
        }
    }

    #[test]
    fn accessors_expose_stds() {
        let noise = NoiseModel::new(vec![0.1, 0.2], vec![0.3]);
        assert_eq!(noise.process_std(), &[0.1, 0.2]);
        assert_eq!(noise.measurement_std(), &[0.3]);
        assert!(!noise.is_none());
    }
}
