//! Verdict checks: every answer the benchmark gets back is checked, and a
//! wrong one counts as a failed operation, never as a fast one.
//!
//! - A SAT counterexample must pass `verify_attack` under the threshold that
//!   produced it (re-simulation of the closed loop under exact semantics).
//! - An UNSAT verdict, a converged CEGIS staircase (it ends on an UNSAT
//!   certificate) and a "provably safe" static threshold are cross-checked
//!   against the run's pool of verified attacks for the same plant and
//!   horizon: a pooled attack that stays stealthy and successful under the
//!   threshold contradicts the claim.
//! - A FAR report must add up: kept + discarded = generated, one rate per
//!   detector, and every rate is a whole number of alarms over the kept
//!   trials; a traced pass also recounts them by replay.

use std::collections::BTreeMap;

use cps_smt::SmtError;
use secure_cps::{
    AttackSynthesizer, ConvergenceStatus, FarReport, SynthesisError, SynthesisOutcome,
    SynthesizedAttack,
};

/// Verified attacks found so far in a run, keyed by plant name and horizon.
#[derive(Debug, Default)]
pub struct Pool {
    attacks: BTreeMap<(String, usize), Vec<SynthesizedAttack>>,
}

fn key(synth: &AttackSynthesizer<'_>) -> (String, usize) {
    (synth.benchmark().name.clone(), synth.horizon())
}

impl Pool {
    /// Adds a verified attack (identical repeats from later passes are
    /// kept once).
    pub fn add(&mut self, synth: &AttackSynthesizer<'_>, attack: &SynthesizedAttack) {
        let entry = self.attacks.entry(key(synth)).or_default();
        if !entry.contains(attack) {
            entry.push(attack.clone());
        }
    }

    /// `true` when a pooled attack stays stealthy and successful under
    /// `threshold`, i.e. contradicts a claim that none exists.
    pub fn witness(
        &self,
        synth: &AttackSynthesizer<'_>,
        threshold: Option<&[Option<f64>]>,
    ) -> bool {
        self.attacks
            .get(&key(synth))
            .is_some_and(|pool| pool.iter().any(|a| synth.verify_attack(a, threshold)))
    }
}

/// What the benchmark knows about a query before asking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The paper exhibits an attack here (the undefended Fig. 1 / Fig. 2
    /// loops), so UNSAT is wrong even before the pool holds a witness.
    Attack,
    /// Either verdict may be right; only the pool can contradict UNSAT.
    Either,
}

/// How a checked query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Sat,
    Unsat,
    Failed,
}

/// Operation and failure counts of a pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// SAT counterexamples that failed `verify_attack`.
    pub unverified_sat: u64,
    /// UNSAT verdicts, converged staircases and static thresholds
    /// contradicted by a verified attack.
    pub wrong_unsat: u64,
    /// Queries and CEGIS runs stopped by a deadline or cancellation.
    pub interrupted: u64,
}

impl Ledger {
    /// Failed operations over attempted ones (0 before any attempt).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn absorb(&mut self, other: &Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unverified_sat += other.unverified_sat;
        self.wrong_unsat += other.wrong_unsat;
        self.interrupted += other.interrupted;
    }

    fn error(&mut self, err: &SmtError) {
        if err.interrupt_reason().is_some() {
            self.interrupted += 1;
        }
        self.failed += 1;
    }

    /// Checks one Algorithm 1 query; a verified counterexample joins the
    /// pool.
    pub fn query(
        &mut self,
        synth: &AttackSynthesizer<'_>,
        pool: &mut Pool,
        threshold: Option<&[Option<f64>]>,
        result: &Result<Option<SynthesizedAttack>, SmtError>,
        expect: Expect,
    ) -> Verdict {
        self.attempted += 1;
        match result {
            Err(err) => {
                self.error(err);
                Verdict::Failed
            }
            Ok(Some(attack)) => {
                if synth.verify_attack(attack, threshold) {
                    pool.add(synth, attack);
                    Verdict::Sat
                } else {
                    self.unverified_sat += 1;
                    self.failed += 1;
                    Verdict::Failed
                }
            }
            Ok(None) => {
                if expect == Expect::Attack || pool.witness(synth, threshold) {
                    self.wrong_unsat += 1;
                    self.failed += 1;
                    Verdict::Failed
                } else {
                    Verdict::Unsat
                }
            }
        }
    }

    /// Checks an Algorithm 2/3 run; `synth` is its own Algorithm 1
    /// instance (same plant and horizon).
    pub fn cegis(
        &mut self,
        synth: &AttackSynthesizer<'_>,
        pool: &Pool,
        outcome: &SynthesisOutcome,
    ) {
        self.attempted += 1;
        let report = match outcome {
            Ok(report) => report,
            Err(SynthesisError::Solver(err)) => return self.error(err),
            Err(_) => {
                self.failed += 1;
                return;
            }
        };
        match report.status {
            ConvergenceStatus::Interrupted { .. } => {
                self.interrupted += 1;
                self.failed += 1;
            }
            ConvergenceStatus::Converged if pool.witness(synth, Some(&report.partial)) => {
                self.wrong_unsat += 1;
                self.failed += 1;
            }
            _ => {}
        }
    }

    /// Checks a static threshold claimed provably safe.
    pub fn static_threshold(
        &mut self,
        synth: &AttackSynthesizer<'_>,
        pool: &Pool,
        outcome: &Result<(cps_detectors::ThresholdSpec, usize), SynthesisError>,
    ) {
        self.attempted += 1;
        match outcome {
            Ok((spec, _)) => {
                if pool.witness(synth, Some(&synth.spec_to_partial(spec))) {
                    self.wrong_unsat += 1;
                    self.failed += 1;
                }
            }
            Err(SynthesisError::Solver(err)) => self.error(err),
            Err(_) => {
                self.failed += 1;
            }
        }
    }

    /// Checks a FAR report of `trials` rollouts over `detectors`
    /// detectors; `false` when its counts do not add up.
    pub fn far(&mut self, report: &FarReport, trials: usize, detectors: usize) -> bool {
        self.attempted += 1;
        let kept = report.kept as f64;
        let whole_alarms = |rate: f64| {
            let alarms = rate * kept;
            (0.0..=1.0).contains(&rate) && (alarms - alarms.round()).abs() < 1e-6
        };
        let ok = report.generated == trials
            && report.kept + report.discarded == trials
            && report.rates.len() == detectors
            && report.rates.iter().all(|(_, rate)| whole_alarms(*rate));
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Compares an already checked FAR report with an independent replay's
    /// kept count and per-detector alarm counts; a mismatch fails that
    /// operation.
    pub fn far_recount(&mut self, report: &FarReport, kept: usize, alarms: &[usize]) {
        let rate = |count: usize| {
            if kept == 0 {
                0.0
            } else {
                count as f64 / kept as f64
            }
        };
        let ok = kept == report.kept
            && alarms.len() == report.rates.len()
            && report
                .rates
                .iter()
                .zip(alarms)
                .all(|((_, r), &count)| r.to_bits() == rate(count).to_bits());
        if !ok {
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_smt::{InterruptReason, SolverStats};
    use secure_cps::{SynthesisConfig, SynthesisReport};

    fn constant(value: f64, horizon: usize) -> Vec<Option<f64>> {
        vec![Some(value); horizon]
    }

    #[test]
    fn failed_share_counts_every_kind_of_wrong_answer() {
        let plant = cps_models::trajectory_tracking().unwrap();
        let synth = AttackSynthesizer::new(&plant, SynthesisConfig::default());
        let h = synth.horizon();
        let mut pool = Pool::default();
        let mut ledger = Ledger::default();

        // A real undefended attack verifies and joins the pool.
        let found = synth.synthesize(None);
        let v = ledger.query(&synth, &mut pool, None, &found, Expect::Attack);
        assert_eq!(v, Verdict::Sat);
        let attack = found.unwrap().unwrap();
        let (_, peak) = attack.pivot();

        // A genuine UNSAT (tight staircase) is not contradicted.
        let tight = constant(1e-4, h);
        let real = synth.synthesize(Some(&tight));
        assert_eq!(
            ledger.query(&synth, &mut pool, Some(&tight), &real, Expect::Either),
            Verdict::Unsat
        );

        // A forged UNSAT above the pooled attack's peak is contradicted.
        let loose = constant(2.0 * peak, h);
        assert_eq!(
            ledger.query(&synth, &mut pool, Some(&loose), &Ok(None), Expect::Either),
            Verdict::Failed
        );
        assert_eq!(ledger.wrong_unsat, 1);

        // A forged SAT whose attack breaks its own threshold fails
        // verification.
        let forged = Ok(Some(attack.clone()));
        assert_eq!(
            ledger.query(&synth, &mut pool, Some(&tight), &forged, Expect::Either),
            Verdict::Failed
        );
        assert_eq!(ledger.unverified_sat, 1);

        // An interruption is a failure too.
        let interrupted = Err(SmtError::Interrupted {
            reason: InterruptReason::Deadline,
            stats: SolverStats::default(),
        });
        ledger.query(&synth, &mut pool, None, &interrupted, Expect::Attack);
        assert_eq!(ledger.interrupted, 1);

        assert_eq!(ledger.attempted, 5);
        assert_eq!(ledger.failed, 3);
        assert_eq!(ledger.failed_share(), 0.6);
    }

    #[test]
    fn undefended_unsat_is_wrong_even_with_an_empty_pool() {
        let plant = cps_models::trajectory_tracking().unwrap();
        let synth = AttackSynthesizer::new(&plant, SynthesisConfig::default());
        let mut ledger = Ledger::default();
        let v = ledger.query(
            &synth,
            &mut Pool::default(),
            None,
            &Ok(None),
            Expect::Attack,
        );
        assert_eq!(v, Verdict::Failed);
        assert_eq!(ledger.wrong_unsat, 1);
    }

    #[test]
    fn converged_staircase_and_static_threshold_are_cross_checked() {
        let plant = cps_models::trajectory_tracking().unwrap();
        let synth = AttackSynthesizer::new(&plant, SynthesisConfig::default());
        let h = synth.horizon();
        let mut pool = Pool::default();
        let mut ledger = Ledger::default();
        let found = synth.synthesize(None);
        ledger.query(&synth, &mut pool, None, &found, Expect::Attack);
        let (_, peak) = found.unwrap().unwrap().pivot();

        let report = |partial: Vec<Option<f64>>, status| {
            Ok(SynthesisReport {
                partial,
                rounds: 1,
                attacks_eliminated: 1,
                converged: status == ConvergenceStatus::Converged,
                status,
                solver_stats: SolverStats::default(),
                round_stats: Vec::new(),
            })
        };
        // Converged on a staircase the pooled attack slips under: wrong.
        ledger.cegis(
            &synth,
            &pool,
            &report(constant(2.0 * peak, h), ConvergenceStatus::Converged),
        );
        // The same staircase at the round limit claims nothing.
        ledger.cegis(
            &synth,
            &pool,
            &report(constant(2.0 * peak, h), ConvergenceStatus::RoundLimit),
        );
        // A tight converged staircase holds.
        ledger.cegis(
            &synth,
            &pool,
            &report(constant(1e-4, h), ConvergenceStatus::Converged),
        );
        assert_eq!(ledger.wrong_unsat, 1);

        let spec = cps_detectors::ThresholdSpec::constant(2.0 * peak, h);
        ledger.static_threshold(&synth, &pool, &Ok((spec, 10)));
        assert_eq!(ledger.wrong_unsat, 2);
        assert_eq!((ledger.attempted, ledger.failed), (5, 2));
    }

    #[test]
    fn far_reports_must_add_up() {
        let good = FarReport {
            generated: 10,
            kept: 8,
            discarded: 2,
            rates: vec![("a".into(), 0.25), ("b".into(), 1.0)],
        };
        let mut ledger = Ledger::default();
        assert!(ledger.far(&good, 10, 2));
        ledger.far_recount(&good, 8, &[2, 8]);
        assert_eq!(ledger.failed, 0);

        // Wrong trial count, a fractional alarm count, a replay mismatch.
        assert!(!ledger.far(&good, 11, 2));
        let fractional = FarReport {
            rates: vec![("a".into(), 0.3), ("b".into(), 1.0)],
            ..good.clone()
        };
        assert!(!ledger.far(&fractional, 10, 2));
        assert!(ledger.far(&good, 10, 2));
        ledger.far_recount(&good, 8, &[3, 8]);
        assert_eq!((ledger.attempted, ledger.failed), (4, 3));
    }
}
