use cps_control::{NoiseModel, ResidueNorm, SensorAttack, Trace};
use cps_detectors::ThresholdSpec;
use cps_linalg::Vector;
use cps_models::Benchmark;
use cps_smt::{
    BoolVarPool, Budget, CancelToken, CheckResult, Formula, LinExpr, SmtError, SmtSolver,
    SolverConfig, SolverStats,
};
use std::cell::{Cell, RefCell};
use std::time::Duration;

use crate::UnrolledLoop;

/// How the plant monitors (`mdc`) are encoded in the attack-synthesis query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorEncoding {
    /// Faithful encoding of the dead-zone semantics: the attacker may violate
    /// monitor checks as long as no `dead_zone` consecutive instants are
    /// violating. Uses the `O(T·k)` sequential-counter construction
    /// ([`cps_monitors::MonitorSuite::encode_stealth_counter`]), which scales
    /// to the paper's 50-sample VSC horizon.
    #[default]
    Exact,
    /// Conjunctive under-approximation of the attacker: monitor checks must
    /// hold at *every* instant from the given start index onwards (the prefix
    /// is left unconstrained so the loop's own startup transient is not
    /// misclassified as an attack). Queries become pure conjunctions and scale
    /// to the paper's 50-sample horizon, but the `UNSAT` certificate only
    /// covers attackers that never exploit the dead zone.
    ///
    /// An attack found this way is also a valid attack under the exact
    /// semantics only when `start` is below the suite's dead zone: then the
    /// longest violation run the unconstrained prefix can hold is shorter
    /// than the dead zone, so it cannot raise an alarm. That holds for the
    /// VSC with `ConjunctiveAfter(5)` (dead zone 7) but not for the dc-motor,
    /// tank or pendulum plants at that start (dead zone 3), where an attack
    /// found this way may still raise a monitor alarm. See `ARCHITECTURE.md`
    /// ("Fidelity notes") for the substitution note.
    ConjunctiveAfter(usize),
}

/// Configuration of the attack-synthesis query (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisConfig {
    /// Configuration of the SMT search behind every query.
    pub solver: SolverConfig,
    /// Optional horizon override (use a smaller `T` than the benchmark's for
    /// faster exploratory queries).
    pub horizon_override: Option<usize>,
    /// Relative margin applied when a CEGIS step installs a threshold at a
    /// counterexample's residue value: the threshold is set to
    /// `(1 − margin) · ‖z‖` instead of exactly `‖z‖`.
    ///
    /// The paper sets the threshold to the residue itself; because the next
    /// counterexample only has to undercut it by an infinitesimal amount, the
    /// loop can take arbitrarily many rounds to converge. A small margin
    /// (default 5 %) forces geometric progress while keeping the result sound
    /// — the synthesised detector is only ever *tighter* than the paper's,
    /// and the final `UNSAT` certificate is unchanged.
    pub convergence_margin: f64,
    /// How the plant monitors are encoded (see [`MonitorEncoding`]).
    pub monitor_encoding: MonitorEncoding,
    /// Wall-clock budget for a **whole** synthesis run (the paper's 12-hour
    /// Z3 timeout, made explicit). `None` (the default) leaves the run
    /// unbounded. When set, [`PivotSynthesizer::run`](crate::PivotSynthesizer),
    /// [`StepwiseSynthesizer::run`](crate::StepwiseSynthesizer) and
    /// [`synthesize_static_threshold`](crate::synthesize_static_threshold)
    /// convert it into an absolute deadline at run start. An interrupted
    /// CEGIS run degrades gracefully, returning the best-so-far thresholds
    /// with [`ConvergenceStatus::Interrupted`](crate::ConvergenceStatus); an
    /// interrupted static bisection returns
    /// [`SynthesisError::Solver`](crate::SynthesisError::Solver).
    pub timeout: Option<Duration>,
}

/// Robustness margin by which monitor-OK constraints are shrunk in the
/// symbolic encoding. The solver parks models exactly on constraint
/// boundaries; re-simulating such an attack reproduces measurements only up
/// to float round-off (~1e-12), which can flip an on-the-bound instant into a
/// runtime violation. `1e-6` keeps every symbolically-OK instant robustly OK
/// at runtime while staying far below model fidelity; `UNSAT` certificates
/// then cover attackers that keep this clearance.
const MONITOR_MARGIN: f64 = 1e-6;

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self {
            solver: SolverConfig::default(),
            horizon_override: None,
            convergence_margin: 0.05,
            monitor_encoding: MonitorEncoding::Exact,
            timeout: None,
        }
    }
}

/// A stealthy, successful attack returned by Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizedAttack {
    /// The per-step sensor injections.
    pub attack: SensorAttack,
    /// Noise-free closed-loop rollout under the attack.
    pub trace: Trace,
    /// Residue ∞-norms `‖z_k‖∞` along that rollout: the norm whose
    /// per-instant bound the synthesis query encodes.
    pub residue_norms: Vec<f64>,
}

impl SynthesizedAttack {
    /// The sampling instant with the largest residue norm and its value (the
    /// pivot used by Algorithms 2 and 3).
    pub fn pivot(&self) -> (usize, f64) {
        self.residue_norms
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty horizon")
    }
}

/// Algorithm 1 — attack-vector synthesis.
///
/// Builds the SMT query
/// `(∀p. ‖z_p‖ < Th[p]) ∧ mdc ∧ ¬pfc` over the symbolic unrolling of the
/// closed loop and asks the [`SmtSolver`] for a model. A model is a concrete
/// false-data-injection sequence that stays below every detector threshold,
/// never trips the plant monitors, and still prevents the loop from meeting
/// its performance criterion.
#[derive(Debug)]
pub struct AttackSynthesizer<'a> {
    benchmark: &'a Benchmark,
    config: SynthesisConfig,
    unrolled: UnrolledLoop,
    /// Statistics of the most recent solver call (for perf attribution).
    last_stats: Cell<SolverStats>,
    /// Long-lived solver for warm-started CEGIS rounds: the round-invariant
    /// encoding (monitor stealth, attack bounds, performance violation) is
    /// asserted once on first use, and each round's threshold constraints
    /// are passed to [`SmtSolver::check_assuming`], which retracts them
    /// before returning.
    warm_solver: RefCell<Option<SmtSolver>>,
    /// Resource budget installed on the query solver before every check.
    /// Because the deadline axis is absolute, one budget can bound a whole
    /// CEGIS run spanning many queries.
    budget: Cell<Budget>,
    /// Cancellation token shared with every query solver, so an external
    /// caller can abort a running synthesis from another thread.
    cancel: CancelToken,
}

impl<'a> AttackSynthesizer<'a> {
    /// Prepares the synthesizer for a benchmark (the symbolic unrolling is
    /// done once and reused across threshold candidates).
    pub fn new(benchmark: &'a Benchmark, config: SynthesisConfig) -> Self {
        let horizon = config.horizon_override.unwrap_or(benchmark.horizon);
        let unrolled = UnrolledLoop::with_horizon(benchmark, horizon);
        Self {
            benchmark,
            config,
            unrolled,
            last_stats: Cell::new(SolverStats::default()),
            warm_solver: RefCell::new(None),
            budget: Cell::new(Budget::unlimited()),
            cancel: CancelToken::new(),
        }
    }

    /// Installs the resource budget applied to every subsequent query. The
    /// deadline axis is absolute, so one budget bounds a whole CEGIS run.
    pub fn set_budget(&self, budget: Budget) {
        self.budget.set(budget);
    }

    /// The currently installed resource budget.
    pub fn budget(&self) -> Budget {
        self.budget.get()
    }

    /// A clone of the cancellation token observed by every query: calling
    /// [`CancelToken::cancel`] on it (from any thread) makes a running
    /// query unwind with
    /// [`InterruptReason::Cancelled`](cps_smt::InterruptReason) at its next
    /// cooperative checkpoint.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Drops the warm solver, forcing the next query to rebuild it from the
    /// symbolic unrolling. Used by the CEGIS run boundary after catching a
    /// panic: a check that panics never retracts its round's formulas, so
    /// whatever state the solver was in is discarded and rebuilt. Results
    /// are unaffected — a warm round is bit-identical to a fresh solver by
    /// construction.
    pub fn reset_warm_solver(&self) {
        *self.warm_solver.borrow_mut() = None;
    }

    /// Solver statistics (theory checks, pivots, simplex time, …) of the most
    /// recent [`AttackSynthesizer::synthesize`] call, for perf attribution
    /// (the CEGIS loops' per-round stats and `perfbench`'s `smt.*` metrics).
    pub fn last_solver_stats(&self) -> SolverStats {
        self.last_stats.get()
    }

    /// The analysis horizon actually used.
    pub fn horizon(&self) -> usize {
        self.unrolled.horizon()
    }

    /// The configuration the synthesizer was created with.
    pub fn config(&self) -> SynthesisConfig {
        self.config
    }

    /// The benchmark under analysis.
    pub fn benchmark(&self) -> &Benchmark {
        self.benchmark
    }

    /// Runs Algorithm 1 against a (possibly partial) threshold vector.
    ///
    /// `threshold[k] = None` means no detector check at instant `k` (the
    /// paper's `Th[k] = 0`); `Some(v)` requires `‖z_k‖ < v` for stealthiness.
    /// Passing `None` for the whole vector checks whether the existing
    /// monitors alone can be bypassed.
    ///
    /// Returns `Ok(None)` when the solver proves that **no** stealthy
    /// successful attack exists — the guarantee the synthesis algorithms
    /// terminate on.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::Interrupted`] when the installed [`Budget`] (or
    /// the solver's own conflict cap) is spent, the deadline passes, or the
    /// [`CancelToken`] fires before the query is decided; the error carries
    /// the interrupt reason and the statistics gathered so far.
    pub fn synthesize(
        &self,
        threshold: Option<&[Option<f64>]>,
    ) -> Result<Option<SynthesizedAttack>, SmtError> {
        let round_assertions = self.threshold_assertions(threshold);
        // The base encoding is asserted once; each round only encodes its
        // thresholds, which `check_assuming` retracts again. The CNF — and
        // therefore the whole search — is bit-identical to a fresh solver
        // asserting base and round formulas in the same order.
        let mut warm = self.warm_solver.borrow_mut();
        let solver = warm.get_or_insert_with(|| self.base_solver());
        // Re-install each round: the budget may have been re-armed (e.g. a
        // run-level timeout) since the warm solver was built.
        solver.set_budget(self.budget.get());
        solver.set_cancel_token(self.cancel.clone());
        let outcome = solver.check_assuming(&round_assertions);
        self.last_stats.set(solver.stats());
        match outcome? {
            CheckResult::Unsat => Ok(None),
            CheckResult::Sat(model) => {
                let attack = self.attack_from_model(model.values());
                let trace = self.simulate(&attack);
                // The query bounds each residue component, i.e. the ∞-norm,
                // so pivots and `verify_attack` must compare that norm too.
                let residue_norms = trace.residue_norms(ResidueNorm::Linf);
                Ok(Some(SynthesizedAttack {
                    attack,
                    trace,
                    residue_norms,
                }))
            }
        }
    }

    /// Builds a solver holding the round-invariant encoding: monitor stealth
    /// (mdc), attack magnitude limits and the performance violation (¬pfc).
    fn base_solver(&self) -> SmtSolver {
        let horizon = self.unrolled.horizon();
        let mut solver = SmtSolver::with_config(self.unrolled.vars_cloned(), self.config.solver);
        let mut assertions = Vec::new();

        // Monitor stealth (mdc): the plant monitors never raise an alarm.
        let symbols = self.unrolled.measurement_symbols();
        let mut bools = BoolVarPool::new();
        match self.config.monitor_encoding {
            MonitorEncoding::Exact => {
                assertions.push(self.benchmark.monitors.encode_stealth_counter(
                    &symbols,
                    &mut bools,
                    MONITOR_MARGIN,
                ));
            }
            MonitorEncoding::ConjunctiveAfter(start) => {
                for k in start.min(horizon)..horizon {
                    assertions.push(self.benchmark.monitors.encode_ok_at_margin(
                        k,
                        &symbols,
                        MONITOR_MARGIN,
                    ));
                }
            }
        }

        // Attack magnitude limits.
        let bound = self.benchmark.attack_bound;
        for k in 0..horizon {
            for i in 0..self.unrolled.attacked_sensors().len() {
                let a = LinExpr::var(self.unrolled.attack_var(k, i));
                assertions.push(Formula::atom(a.clone().le(bound)));
                assertions.push(Formula::atom(a.ge(-bound)));
            }
        }

        // The attacker's goal: the performance criterion is violated.
        assertions.push(
            self.benchmark
                .performance
                .encode_violation(self.unrolled.final_state()),
        );

        solver.assert(Formula::and(assertions));
        solver
    }

    /// Builds the round-local residue-stealth assertions: for every instant
    /// with an active threshold, every residue component stays strictly
    /// inside (−Th[k], +Th[k]).
    fn threshold_assertions(&self, threshold: Option<&[Option<f64>]>) -> Vec<Formula> {
        let horizon = self.unrolled.horizon();
        let mut assertions = Vec::new();
        if let Some(threshold) = threshold {
            for (k, entry) in threshold.iter().enumerate().take(horizon) {
                if let Some(bound) = entry {
                    if !bound.is_finite() {
                        continue;
                    }
                    for j in 0..self.unrolled.num_residue_components() {
                        let z = self.unrolled.residue(k, j).clone();
                        assertions.push(Formula::atom(z.clone().lt(*bound)));
                        assertions.push(Formula::atom(z.gt(-*bound)));
                    }
                }
            }
        }
        assertions
    }

    /// Builds the concrete [`SensorAttack`] from a solver model.
    fn attack_from_model(&self, values: &[f64]) -> SensorAttack {
        let p = self.benchmark.num_outputs();
        let injections = (0..self.unrolled.horizon())
            .map(|k| {
                let mut injection = Vector::zeros(p);
                for (i, sensor) in self.unrolled.attacked_sensors().iter().enumerate() {
                    injection[*sensor] = values[self.unrolled.attack_var(k, i).index()];
                }
                injection
            })
            .collect();
        SensorAttack::new(injections)
    }

    /// Noise-free rollout of the closed loop under a concrete attack.
    pub fn simulate(&self, attack: &SensorAttack) -> Trace {
        let plant = self.benchmark.closed_loop.plant();
        self.benchmark.closed_loop.simulate(
            &self.benchmark.initial_state,
            self.unrolled.horizon(),
            &NoiseModel::none(plant.num_states(), plant.num_outputs()),
            Some(attack),
            0,
        )
    }

    /// Verifies end to end that a synthesized attack is indeed stealthy w.r.t.
    /// the given threshold and monitors, and defeats the performance
    /// criterion (used by tests and by the CEGIS loops as a sanity check).
    pub fn verify_attack(
        &self,
        attack: &SynthesizedAttack,
        threshold: Option<&[Option<f64>]>,
    ) -> bool {
        // Residue stealth on the simulated (noise-free) trace.
        if let Some(threshold) = threshold {
            for (k, entry) in threshold
                .iter()
                .enumerate()
                .take(attack.residue_norms.len())
            {
                if let Some(bound) = entry {
                    if attack.residue_norms[k] >= *bound {
                        return false;
                    }
                }
            }
        }
        // Monitor stealth.
        if self
            .benchmark
            .monitors
            .evaluate(attack.trace.measurements())
            .alarmed()
        {
            return false;
        }
        // Performance violation.
        let final_state = attack.trace.states().last().expect("non-empty trace");
        !self.benchmark.performance.satisfied_by(final_state)
    }

    /// Converts a detector [`ThresholdSpec`] into the partial-threshold form
    /// accepted by [`AttackSynthesizer::synthesize`].
    pub fn spec_to_partial(&self, spec: &ThresholdSpec) -> Vec<Option<f64>> {
        (0..self.unrolled.horizon())
            .map(|k| {
                let v = spec.value_at(k);
                if v.is_finite() {
                    Some(v)
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trajectory_synth() -> (cps_models::Benchmark, SynthesisConfig) {
        (
            cps_models::trajectory_tracking().unwrap(),
            SynthesisConfig::default(),
        )
    }

    #[test]
    fn attack_exists_without_any_detector() {
        let (benchmark, config) = trajectory_synth();
        let synthesizer = AttackSynthesizer::new(&benchmark, config);
        let attack = synthesizer
            .synthesize(None)
            .expect("query decided")
            .expect("undefended loop must be attackable");
        assert!(synthesizer.verify_attack(&attack, None));
        assert_eq!(attack.residue_norms.len(), benchmark.horizon);
        let (pivot_idx, pivot_val) = attack.pivot();
        assert!(pivot_idx < benchmark.horizon);
        assert!(pivot_val > 0.0);
    }

    #[test]
    fn tight_threshold_blocks_all_attacks() {
        let (benchmark, config) = trajectory_synth();
        let synthesizer = AttackSynthesizer::new(&benchmark, config);
        // A residue bound this small leaves the attacker no room to push the
        // state off target within ten samples.
        let tight: Vec<Option<f64>> = vec![Some(1e-4); benchmark.horizon];
        let result = synthesizer.synthesize(Some(&tight)).expect("query decided");
        assert!(result.is_none(), "tight threshold should be provably safe");
    }

    #[test]
    fn loose_threshold_still_admits_attacks() {
        let (benchmark, config) = trajectory_synth();
        let synthesizer = AttackSynthesizer::new(&benchmark, config);
        let loose: Vec<Option<f64>> = vec![Some(10.0); benchmark.horizon];
        let attack = synthesizer
            .synthesize(Some(&loose))
            .expect("query decided")
            .expect("a huge threshold cannot stop the attacker");
        assert!(synthesizer.verify_attack(&attack, Some(&loose)));
        // Every reported residue norm respects the loose threshold.
        assert!(attack.residue_norms.iter().all(|z| *z < 10.0));
    }

    #[test]
    fn partial_threshold_only_constrains_checked_instants() {
        let (benchmark, config) = trajectory_synth();
        let synthesizer = AttackSynthesizer::new(&benchmark, config);
        let mut partial: Vec<Option<f64>> = vec![None; benchmark.horizon];
        partial[benchmark.horizon - 1] = Some(0.05);
        if let Some(attack) = synthesizer
            .synthesize(Some(&partial))
            .expect("query decided")
        {
            assert!(
                attack.residue_norms[benchmark.horizon - 1] < 0.05,
                "checked instant must respect its threshold"
            );
            assert!(synthesizer.verify_attack(&attack, Some(&partial)));
        }
    }

    #[test]
    fn spec_round_trip() {
        let (benchmark, config) = trajectory_synth();
        let synthesizer = AttackSynthesizer::new(&benchmark, config);
        let spec = ThresholdSpec::variable(vec![f64::INFINITY, 0.5, 0.25]);
        let partial = synthesizer.spec_to_partial(&spec);
        assert_eq!(partial.len(), benchmark.horizon);
        assert_eq!(partial[0], None);
        assert_eq!(partial[1], Some(0.5));
        assert_eq!(partial[2], Some(0.25));
        // Beyond the spec's stored length the last value repeats.
        assert_eq!(partial[benchmark.horizon - 1], Some(0.25));
    }

    #[test]
    fn horizon_override_is_respected() {
        let benchmark = cps_models::vsc().unwrap();
        let config = SynthesisConfig {
            horizon_override: Some(8),
            ..SynthesisConfig::default()
        };
        let synthesizer = AttackSynthesizer::new(&benchmark, config);
        assert_eq!(synthesizer.horizon(), 8);
    }
}
