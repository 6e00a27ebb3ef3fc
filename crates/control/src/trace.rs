use cps_linalg::Vector;

/// Norm applied to residue vectors before comparison with a threshold.
///
/// The paper writes `‖z_k‖` without fixing the norm; the formal synthesis
/// pipeline uses [`ResidueNorm::Linf`] so that threshold comparisons stay
/// linear, while simulation-based evaluation can use any of the three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResidueNorm {
    /// Sum of absolute components.
    L1,
    /// Euclidean norm.
    L2,
    /// Maximum absolute component (default; keeps SMT encodings linear).
    #[default]
    Linf,
}

impl ResidueNorm {
    /// Applies the norm to a vector.
    pub fn apply(self, v: &Vector) -> f64 {
        match self {
            ResidueNorm::L1 => v.norm_l1(),
            ResidueNorm::L2 => v.norm_l2(),
            ResidueNorm::Linf => v.norm_inf(),
        }
    }
}

/// The full record of one closed-loop rollout.
///
/// Index convention: `states()[k]`, `estimates()[k]`, `measurements()[k]`,
/// `controls()[k]` and `residues()[k]` all refer to sampling instant `k`,
/// with `k = 0` the initial condition; a rollout of `T` steps stores `T + 1`
/// states and `T` residues/controls/measurements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    states: Vec<Vector>,
    estimates: Vec<Vector>,
    measurements: Vec<Vector>,
    controls: Vec<Vector>,
    residues: Vec<Vector>,
}

impl Trace {
    /// Creates a trace from its component sequences.
    ///
    /// # Panics
    ///
    /// Panics if the sequences have inconsistent lengths (see the type-level
    /// index convention).
    pub fn new(
        states: Vec<Vector>,
        estimates: Vec<Vector>,
        measurements: Vec<Vector>,
        controls: Vec<Vector>,
        residues: Vec<Vector>,
    ) -> Self {
        assert_eq!(
            states.len(),
            estimates.len(),
            "state/estimate length mismatch"
        );
        assert_eq!(
            measurements.len(),
            controls.len(),
            "measurement/control length mismatch"
        );
        assert_eq!(
            measurements.len(),
            residues.len(),
            "measurement/residue length mismatch"
        );
        assert!(
            states.len() == measurements.len() + 1
                || (states.is_empty() && measurements.is_empty()),
            "a T-step trace stores T+1 states and T measurements"
        );
        Self {
            states,
            estimates,
            measurements,
            controls,
            residues,
        }
    }

    /// Number of simulated steps `T`.
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// Returns `true` for an empty rollout.
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }

    /// Plant states `x_0 … x_T`.
    pub fn states(&self) -> &[Vector] {
        &self.states
    }

    /// Estimator states `x̂_0 … x̂_T`.
    pub fn estimates(&self) -> &[Vector] {
        &self.estimates
    }

    /// (Possibly attacked) measurements `ỹ_0 … ỹ_{T−1}` as seen by the estimator.
    pub fn measurements(&self) -> &[Vector] {
        &self.measurements
    }

    /// Control inputs `u_0 … u_{T−1}`.
    pub fn controls(&self) -> &[Vector] {
        &self.controls
    }

    /// Residue vectors `z_0 … z_{T−1}`.
    pub fn residues(&self) -> &[Vector] {
        &self.residues
    }

    /// Residue norms `‖z_k‖` under the chosen norm.
    pub fn residue_norms(&self, norm: ResidueNorm) -> Vec<f64> {
        self.residues.iter().map(|z| norm.apply(z)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let states = vec![
            Vector::from_slice(&[0.0]),
            Vector::from_slice(&[1.0]),
            Vector::from_slice(&[2.0]),
        ];
        let estimates = states.clone();
        let measurements = vec![Vector::from_slice(&[0.1]), Vector::from_slice(&[1.1])];
        let controls = vec![Vector::from_slice(&[0.5]), Vector::from_slice(&[0.4])];
        let residues = vec![Vector::from_slice(&[0.1]), Vector::from_slice(&[-0.3])];
        Trace::new(states, estimates, measurements, controls, residues)
    }

    #[test]
    fn lengths_and_accessors() {
        let trace = sample_trace();
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert_eq!(trace.states().len(), 3);
        assert_eq!(trace.controls().len(), 2);
    }

    #[test]
    #[should_panic(expected = "T+1 states")]
    fn inconsistent_lengths_are_rejected() {
        let states = vec![Vector::zeros(1)];
        let estimates = vec![Vector::zeros(1)];
        let measurements = vec![Vector::zeros(1)];
        let controls = vec![Vector::zeros(1)];
        let residues = vec![Vector::zeros(1)];
        let _ = Trace::new(states, estimates, measurements, controls, residues);
    }

    #[test]
    fn residue_norms_and_max_instant() {
        let trace = sample_trace();
        let norms = trace.residue_norms(ResidueNorm::Linf);
        assert_eq!(norms, vec![0.1, 0.3]);
    }

    #[test]
    fn norms_differ_as_expected() {
        let v = Vector::from_slice(&[3.0, -4.0]);
        assert_eq!(ResidueNorm::L1.apply(&v), 7.0);
        assert_eq!(ResidueNorm::L2.apply(&v), 5.0);
        assert_eq!(ResidueNorm::Linf.apply(&v), 4.0);
        assert_eq!(ResidueNorm::default(), ResidueNorm::Linf);
    }

    #[test]
    fn empty_trace_is_supported() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert!(trace.residue_norms(ResidueNorm::L2).is_empty());
    }
}
