//! The three workloads, built from the paper pipeline's public calls.
//!
//! Every workload runs the Fig. 1 pipeline on the trajectory-tracking plant
//! (T=10) at margin 0.25 at least — Algorithm 1 attack, Algorithms 2 and 3,
//! the static baseline, the tight-staircase certificate and a 1000-trial FAR
//! experiment over five detectors — so that every end-to-end metric exists on
//! every workload. Each workload then adds what it is for:
//!
//! - `vsc_cegis`: the VSC at the paper's scale (few huge queries);
//! - `fig1_sweep`: the Fig. 1 pipeline at seven margins (many tiny queries);
//! - `far_zoo`: FAR experiments on all five plants (no SMT).
//!
//! A stage metric is the time per pass of every call of that stage the
//! workload makes, in seconds at the reference speed (see `speed`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cps_control::ResidueNorm;
use cps_detectors::{Chi2Detector, CusumDetector, Detector, ThresholdDetector, ThresholdSpec};
use cps_models::Benchmark;
use cps_smt::{Budget, SolverStats};
use secure_cps::{
    synthesize_static_threshold, AttackSynthesizer, ConvergenceStatus, FarExperiment, FarReport,
    PivotSynthesizer, StepwiseSynthesizer, SynthesisConfig, SynthesisOutcome, SynthesisReport,
    SynthesizedAttack,
};

use crate::checks::{Expect, Ledger, Pool};
use crate::layers::{self, Replay};
use crate::speed::Meter;
use crate::stats::{far_seed, splitmix64};
use crate::trace::Tracer;

/// Convergence margins of the Fig. 1 sweep.
const MARGINS: [f64; 7] = [0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5];
/// The margin every workload runs (the workspace's bench configuration).
const ANCHOR_MARGIN: usize = 3;
/// Noise rollouts per FAR experiment (the paper's count).
pub const FAR_TRIALS: usize = 1000;
/// Round limit of the Fig. 1 CEGIS runs.
const FIG1_MAX_ROUNDS: usize = 400;
/// Round limit of the VSC Algorithm 2 run: the full run is out of reach.
const VSC_MAX_ROUNDS: usize = 2;
/// Bisection steps of the static baseline.
const STATIC_STEPS: usize = 8;
/// Horizon of the VSC static-baseline bracket.
const VSC_SHORT_HORIZON: usize = 25;
/// Constant thresholds of the bracket, as multiples of the undefended peak.
const BRACKET: [f64; 3] = [2.0, 1.5, 1.1];
/// Residue bound of the tight-staircase certificate.
const TIGHT: f64 = 1e-4;
/// FAR seeds per pass of `far_zoo`, and of the VSC FAR in `vsc_cegis`.
const ZOO_SEEDS: u64 = 4;
const VSC_FAR_SEEDS: u64 = 8;
/// Times a pipeline issues its undefended query and its certificate per
/// margin: one call takes ~0.1 ms, too short to time steadily on its own.
const PROBE_REPEATS: usize = 8;
/// FAR seed streams (see `stats::far_seed`): margin `i` of the Fig. 1
/// pipeline uses stream `i`.
const STREAM_VSC: u64 = 100;
const STREAM_ZOO: u64 = 200;
/// Longest any single query or CEGIS run may take before it is interrupted
/// (and counted as failed).
const CALL_CAP: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VscCegis,
    Fig1Sweep,
    FarZoo,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "vsc_cegis" => Some(Self::VscCegis),
            "fig1_sweep" => Some(Self::Fig1Sweep),
            "far_zoo" => Some(Self::FarZoo),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::VscCegis => "vsc_cegis",
            Self::Fig1Sweep => "fig1_sweep",
            Self::FarZoo => "far_zoo",
        }
    }

    /// FAR lanes: `far_zoo` runs `FarExperiment`'s default (one per core);
    /// the others run one lane, because their FAR calls are short (~4 ms on
    /// the trajectory plant) and two-lane timings of such calls on a shared
    /// 2-core host spread by up to 28 % between runs.
    pub fn far_lanes(self) -> Option<usize> {
        match self {
            Self::FarZoo => None,
            _ => Some(1),
        }
    }

    /// Fewest passes of each kind a run measures, however long they take:
    /// a `vsc_cegis` pass takes 7–13 s, and medians over five of them still
    /// spread up to 12 % between runs (its stage times rest on a few calls
    /// of about a second, each corrected by two probes).
    pub fn min_passes(self) -> usize {
        match self {
            Self::VscCegis => 7,
            _ => 3,
        }
    }

    /// Margins of the Fig. 1 pipeline this workload runs.
    pub fn margins(self) -> &'static [f64] {
        match self {
            Self::Fig1Sweep => &MARGINS,
            _ => &MARGINS[ANCHOR_MARGIN..=ANCHOR_MARGIN],
        }
    }

    /// Builds the workload's plants (LQR / Kalman design); the
    /// trajectory-tracking plant comes first.
    pub fn build_plants(self) -> Vec<Benchmark> {
        let plants = match self {
            Self::VscCegis => vec![cps_models::trajectory_tracking(), cps_models::vsc()],
            Self::Fig1Sweep => vec![cps_models::trajectory_tracking()],
            Self::FarZoo => return cps_models::all_benchmarks().expect("benchmark zoo builds"),
        };
        plants
            .into_iter()
            .map(|p| p.expect("benchmark builds"))
            .collect()
    }

    /// Every horizon the workload analyses or rolls out.
    pub fn horizons(self, plants: &[Benchmark]) -> Vec<usize> {
        let mut horizons: Vec<usize> = plants.iter().map(|p| p.horizon).collect();
        if self == Self::VscCegis {
            horizons.push(VSC_SHORT_HORIZON);
        }
        horizons
    }
}

/// Synthesis configuration with exact dead-zone semantics.
pub fn config(margin: f64, horizon: Option<usize>) -> SynthesisConfig {
    SynthesisConfig {
        convergence_margin: margin,
        horizon_override: horizon,
        ..SynthesisConfig::default()
    }
}

/// The Algorithm 1 instances a workload queries directly (built, i.e.
/// unrolled, during set-up).
#[derive(Debug)]
pub struct Synths<'a> {
    traj: AttackSynthesizer<'a>,
    vsc: Option<(AttackSynthesizer<'a>, AttackSynthesizer<'a>)>,
}

impl<'a> Synths<'a> {
    pub fn new(workload: Workload, plants: &'a [Benchmark]) -> Self {
        let anchor = config(MARGINS[ANCHOR_MARGIN], None);
        let vsc = (workload == Workload::VscCegis).then(|| {
            (
                AttackSynthesizer::new(&plants[1], anchor),
                AttackSynthesizer::new(
                    &plants[1],
                    config(MARGINS[ANCHOR_MARGIN], Some(VSC_SHORT_HORIZON)),
                ),
            )
        });
        Self {
            traj: AttackSynthesizer::new(&plants[0], anchor),
            vsc,
        }
    }
}

/// The stage a call's wall time is charged to (a slot of the pass's
/// [`Meter`], in the order of `Pass::set_stage_times`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Attack,
    Alg2,
    Alg3,
    Static,
    Certificate,
    Far,
}

const STAGES: usize = 6;

/// Everything one pass measured and counted.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Wall time of the pass without the traced run's layer replays.
    pub wall_s: f64,
    /// Median factor that turned the pass's wall seconds into seconds at the
    /// reference speed (see `speed`).
    pub speed_factor: f64,
    /// Stage times, in seconds at the reference speed.
    pub attack_s: f64,
    pub alg2_s: f64,
    pub alg3_s: f64,
    pub static_s: f64,
    pub certificate_s: f64,
    pub far_s: f64,
    pub far_generated: u64,
    pub far_kept: u64,
    /// Mean FAR of the Algorithm 2, Algorithm 3 and static detectors over
    /// the margins run (`None` if no margin produced all three).
    pub quality: Option<[f64; 3]>,
    pub smt: SolverStats,
    /// Solver statistics records absorbed into `smt` (one per query).
    pub smt_queries: u64,
    pub cegis_s: f64,
    pub cegis_theory_s: f64,
    pub attack_queries: u64,
    pub attack_sat: u64,
    pub attack_unsat: u64,
    pub rounds_alg2: u64,
    pub rounds_alg3: u64,
    pub attacks_eliminated: u64,
    pub converged: u64,
    pub round_limit: u64,
    pub stalled: u64,
    pub interrupted_runs: u64,
    pub static_queries: u64,
    pub replay: Replay,
    pub monitor_trials: u64,
    pub ledger: Ledger,
    /// Digest of every verdict, threshold and FAR rate of the pass; passes
    /// of one run must agree (the pipeline is deterministic).
    pub fingerprint: u64,
}

impl Pass {
    fn set_stage_times(&mut self, (totals, speed_factor): ([f64; STAGES], f64)) {
        [
            self.attack_s,
            self.alg2_s,
            self.alg3_s,
            self.static_s,
            self.certificate_s,
            self.far_s,
        ] = totals;
        self.speed_factor = speed_factor;
    }

    fn mix(&mut self, value: u64) {
        self.fingerprint = splitmix64(self.fingerprint ^ value);
    }

    fn mix_threshold(&mut self, partial: &[Option<f64>]) {
        for entry in partial {
            self.mix(entry.map_or(u64::MAX, f64::to_bits));
        }
    }
}

/// Named detectors of one FAR experiment, owned so that a traced pass can
/// replay the experiment after its timer stops.
type Detectors = Vec<(&'static str, Box<dyn Detector>)>;

fn borrowed(detectors: &Detectors) -> Vec<(&str, &dyn Detector)> {
    detectors
        .iter()
        .map(|(name, d)| (*name, d.as_ref()))
        .collect()
}

/// A FAR experiment of a traced pass, replayed layer by layer once the pass
/// is timed (replaying inline would disturb the calls that follow it).
struct ReplayJob {
    plant: usize,
    seed: u64,
    detectors: Detectors,
    report: FarReport,
}

/// Run-wide state threaded through a pass.
pub struct Ctx {
    seed: u64,
    deadline: Instant,
    pub tracer: Tracer,
    pool: Pool,
    far_lanes: Option<usize>,
    /// Lanes the last FAR experiment ran on.
    pub lanes: usize,
    /// Noise seed of every FAR stream used, by stream.
    far_seeds: BTreeMap<u64, u64>,
    jobs: Vec<ReplayJob>,
    pass: Pass,
    meter: Meter<STAGES>,
}

impl Ctx {
    pub fn new(seed: u64, deadline: Instant, tracer: Tracer) -> Self {
        Self {
            seed,
            deadline,
            tracer,
            pool: Pool::default(),
            far_lanes: None,
            lanes: 0,
            far_seeds: BTreeMap::new(),
            jobs: Vec::new(),
            pass: Pass::default(),
            meter: Meter::new(),
        }
    }

    /// Runs one call of `stage` through the tracer, charging its wall time
    /// to the stage through the speed meter; returns the wall time.
    fn timed<T>(&mut self, stage: Stage, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.meter.ready();
        let (out, secs) = self.tracer.call(name, f);
        self.meter.record(stage as usize, secs);
        (out, secs)
    }

    pub fn far_seeds(&self) -> &BTreeMap<u64, u64> {
        &self.far_seeds
    }

    /// Time left for one call: the call cap, cut at the run deadline.
    fn allowance(&self) -> Duration {
        CALL_CAP.min(self.deadline.saturating_duration_since(Instant::now()))
    }

    /// Runs one pass of `workload`; a traced pass then replays its FAR
    /// experiments layer by layer, outside the pass's wall time.
    pub fn pass(
        &mut self,
        workload: Workload,
        index: usize,
        plants: &[Benchmark],
        synths: &Synths<'_>,
    ) -> Pass {
        self.pass = Pass::default();
        self.far_lanes = workload.far_lanes();
        let start = Instant::now();
        self.tracer.open("pass", index);
        match workload {
            Workload::VscCegis => self.vsc(plants, synths),
            Workload::Fig1Sweep => self.pipeline(plants, &synths.traj, &MARGINS),
            Workload::FarZoo => {
                self.pipeline(plants, &synths.traj, workload.margins());
                self.zoo(plants);
            }
        }
        self.tracer.close();
        self.pass.wall_s = start.elapsed().as_secs_f64();
        self.pass.set_stage_times(self.meter.finish());
        self.tracer.open("layers", index);
        for job in std::mem::take(&mut self.jobs) {
            let detectors = borrowed(&job.detectors);
            let (replay, _) = self.tracer.call("far.replay", || {
                layers::replay(&plants[job.plant], FAR_TRIALS, job.seed, &detectors)
            });
            self.tracer.count("control.rollout_s", replay.rollout_s);
            self.tracer.count("monitors.scan_s", replay.monitor_scan_s);
            self.tracer
                .count("detectors.scan_s", replay.detector_scan_s);
            let pass = &mut self.pass;
            pass.ledger
                .far_recount(&job.report, replay.kept, &replay.alarms);
            pass.replay.absorb(&replay);
            pass.monitor_trials += FAR_TRIALS as u64;
        }
        self.tracer.close();
        std::mem::take(&mut self.pass)
    }

    /// One Algorithm 1 query, checked.
    fn query(
        &mut self,
        stage: Stage,
        name: &'static str,
        synth: &AttackSynthesizer<'_>,
        threshold: Option<&[Option<f64>]>,
        expect: Expect,
    ) -> Option<SynthesizedAttack> {
        synth.set_budget(Budget::unlimited().with_deadline(Instant::now() + self.allowance()));
        let (result, _) = self.timed(stage, name, || synth.synthesize(threshold));
        let stats = synth.last_solver_stats();
        self.tracer
            .count("theory_s", stats.simplex_time().as_secs_f64());
        self.tracer.count("pivots", stats.pivots as f64);
        let pass = &mut self.pass;
        pass.smt.absorb(&stats);
        pass.smt_queries += 1;
        pass.attack_queries += 1;
        if stage == Stage::Static {
            pass.static_queries += 1;
        }
        match &result {
            Ok(Some(_)) => pass.attack_sat += 1,
            Ok(None) => pass.attack_unsat += 1,
            Err(_) => {}
        }
        let verdict = pass
            .ledger
            .query(synth, &mut self.pool, threshold, &result, expect);
        let attack = result.ok().flatten();
        pass.mix(verdict as u64);
        if let Some(attack) = &attack {
            pass.mix(attack.pivot().1.to_bits());
        }
        attack
    }

    /// One Algorithm 2 or 3 run (construction and unrolling included),
    /// checked against the pool through `check`, an Algorithm 1 instance for
    /// the same plant and horizon.
    fn cegis(
        &mut self,
        stage: Stage,
        benchmark: &Benchmark,
        config: SynthesisConfig,
        max_rounds: usize,
        check: &AttackSynthesizer<'_>,
    ) -> Option<SynthesisReport> {
        let config = SynthesisConfig {
            timeout: Some(self.allowance()),
            ..config
        };
        let (outcome, secs): (SynthesisOutcome, f64) = if stage == Stage::Alg2 {
            self.timed(stage, "cegis.alg2", || {
                PivotSynthesizer::new(benchmark, config)
                    .with_max_rounds(max_rounds)
                    .run()
            })
        } else {
            self.timed(stage, "cegis.alg3", || {
                StepwiseSynthesizer::new(benchmark, config)
                    .with_max_rounds(max_rounds)
                    .run()
            })
        };
        let pass = &mut self.pass;
        pass.cegis_s += secs;
        pass.ledger.cegis(check, &self.pool, &outcome);
        let Ok(report) = outcome else {
            pass.mix(u64::MAX);
            return None;
        };
        let theory_s = report.solver_stats.simplex_time().as_secs_f64();
        self.tracer.count("rounds", report.rounds as f64);
        self.tracer.count("theory_s", theory_s);
        self.tracer
            .count("pivots", report.solver_stats.pivots as f64);
        let queries = report.round_stats.len() as u64;
        pass.smt.absorb(&report.solver_stats);
        pass.smt_queries += queries;
        pass.cegis_theory_s += theory_s;
        pass.attack_queries += queries;
        pass.attack_sat += report.attacks_eliminated as u64;
        pass.attack_unsat += u64::from(report.converged);
        pass.attacks_eliminated += report.attacks_eliminated as u64;
        if stage == Stage::Alg2 {
            pass.rounds_alg2 += report.rounds as u64;
        } else {
            pass.rounds_alg3 += report.rounds as u64;
        }
        match report.status {
            ConvergenceStatus::Converged => pass.converged += 1,
            ConvergenceStatus::RoundLimit => pass.round_limit += 1,
            ConvergenceStatus::Stalled => pass.stalled += 1,
            _ => pass.interrupted_runs += 1,
        }
        pass.mix(report.rounds as u64);
        pass.mix_threshold(&report.partial);
        Some(report)
    }

    /// One `synthesize_static_threshold` call, checked.
    fn static_baseline(
        &mut self,
        benchmark: &Benchmark,
        config: SynthesisConfig,
        check: &AttackSynthesizer<'_>,
    ) -> Option<ThresholdSpec> {
        let (outcome, _) = self.timed(Stage::Static, "static.baseline", || {
            synthesize_static_threshold(benchmark, config, STATIC_STEPS)
        });
        let pass = &mut self.pass;
        pass.ledger.static_threshold(check, &self.pool, &outcome);
        match outcome {
            Ok((spec, queries)) => {
                self.tracer.count("queries", queries as f64);
                pass.static_queries += queries as u64;
                pass.attack_queries += queries as u64;
                pass.mix(spec.value_at(0).to_bits());
                Some(spec)
            }
            Err(_) => {
                pass.mix(u64::MAX);
                None
            }
        }
    }

    /// One 1000-trial FAR experiment of plant `plant` on noise stream
    /// `stream`, checked; a traced pass queues it for a layer replay.
    /// Returns the report when its counts add up.
    fn far(
        &mut self,
        plants: &[Benchmark],
        plant: usize,
        stream: u64,
        detectors: Detectors,
    ) -> Option<FarReport> {
        let seed = far_seed(self.seed, stream);
        self.far_seeds.insert(stream, seed);
        let mut experiment = FarExperiment::new(&plants[plant], FAR_TRIALS, seed);
        if let Some(lanes) = self.far_lanes {
            experiment = experiment.with_parallelism(lanes);
        }
        self.lanes = experiment.parallelism();
        let refs = borrowed(&detectors);
        let (report, _) = self.timed(Stage::Far, "far.run", || experiment.run(&refs));
        self.tracer.count("trials", FAR_TRIALS as f64);
        self.tracer.count("kept", report.kept as f64);
        let pass = &mut self.pass;
        pass.far_generated += report.generated as u64;
        pass.far_kept += report.kept as u64;
        for (_, rate) in &report.rates {
            pass.mix(rate.to_bits());
        }
        let ok = pass.ledger.far(&report, FAR_TRIALS, refs.len());
        drop(refs);
        if ok && self.tracer.enabled() {
            self.jobs.push(ReplayJob {
                plant,
                seed,
                detectors,
                report: report.clone(),
            });
        }
        ok.then_some(report)
    }

    /// The Fig. 1 pipeline on the trajectory plant: per margin the
    /// undefended attack and the tight certificate (see `PROBE_REPEATS`), Algorithm 2,
    /// Algorithm 3, the static baseline and FAR over five detectors (as in
    /// the `far_comparison` bench).
    fn pipeline(&mut self, plants: &[Benchmark], synth: &AttackSynthesizer<'_>, margins: &[f64]) {
        let traj = &plants[0];
        let tight = vec![Some(TIGHT); synth.horizon()];
        let mut sum = [0.0; 3];
        let mut runs = 0;
        for &margin in margins {
            for _ in 0..PROBE_REPEATS {
                self.query(Stage::Attack, "attack.fig1", synth, None, Expect::Attack);
                let tight = Some(tight.as_slice());
                self.query(
                    Stage::Certificate,
                    "certificate.fig1",
                    synth,
                    tight,
                    Expect::Either,
                );
            }
            let stream = MARGINS
                .iter()
                .position(|m| *m == margin)
                .expect("a sweep margin") as u64;
            let config = config(margin, None);
            let alg2 = self.cegis(Stage::Alg2, traj, config, FIG1_MAX_ROUNDS, synth);
            let alg3 = self.cegis(Stage::Alg3, traj, config, FIG1_MAX_ROUNDS, synth);
            let fixed = self.static_baseline(traj, config, synth);
            let (Some(alg2), Some(alg3), Some(fixed)) = (alg2, alg3, fixed) else {
                continue;
            };
            let value = fixed.value_at(0);
            let detectors: Detectors = vec![
                ("algorithm-2-pivot", Box::new(staircase(&alg2))),
                ("algorithm-3-stepwise", Box::new(staircase(&alg3))),
                (
                    "static-baseline",
                    Box::new(ThresholdDetector::new(fixed, ResidueNorm::Linf)),
                ),
                (
                    "chi-squared",
                    Box::new(Chi2Detector::new(5, value.powi(2) * 2.0, ResidueNorm::Linf)),
                ),
                (
                    "cusum",
                    Box::new(CusumDetector::new(
                        value * 0.5,
                        value * 2.0,
                        ResidueNorm::Linf,
                    )),
                ),
            ];
            if let Some(report) = self.far(plants, 0, stream, detectors) {
                for (total, (_, rate)) in sum.iter_mut().zip(&report.rates) {
                    *total += rate;
                }
                runs += 1;
            }
        }
        self.pass.quality = (runs > 0).then(|| sum.map(|total| total / f64::from(runs)));
    }

    /// The VSC at the paper's scale: the Fig. 2 attack, Algorithm 2 capped
    /// at two rounds and the tight certificate at T=50; the static-baseline
    /// bracket at T=25 (whose 1.1 × peak UNSAT a verified attack
    /// contradicts); FAR of the capped staircase and the fixed suite.
    ///
    /// A run makes only about seven of these long passes, so the Fig. 1
    /// pipeline (margin 0.25) runs 8 times per pass, spread between the VSC
    /// calls: its short stages are then timed across the whole pass rather
    /// than in one burst. For the same reason the T=50 attack, which
    /// dominates `attack_s`, is issued twice, early and late in the pass.
    fn vsc(&mut self, plants: &[Benchmark], synths: &Synths<'_>) {
        let vsc = &plants[1];
        let (full, short) = synths.vsc.as_ref().expect("vsc_cegis unrolls the VSC");
        let anchor = &MARGINS[ANCHOR_MARGIN..=ANCHOR_MARGIN];
        self.pipeline(plants, &synths.traj, anchor);
        self.query(Stage::Attack, "attack.vsc_t50", full, None, Expect::Attack);
        self.pipeline(plants, &synths.traj, anchor);
        let alg2 = self.cegis(
            Stage::Alg2,
            vsc,
            config(MARGINS[ANCHOR_MARGIN], None),
            VSC_MAX_ROUNDS,
            full,
        );
        self.pipeline(plants, &synths.traj, anchor);
        let tight = vec![Some(TIGHT); full.horizon()];
        self.query(
            Stage::Certificate,
            "certificate.vsc_t50",
            full,
            Some(&tight),
            Expect::Either,
        );
        self.pipeline(plants, &synths.traj, anchor);
        if let Some(attack) =
            self.query(Stage::Attack, "attack.vsc_t25", short, None, Expect::Attack)
        {
            let (_, peak) = attack.pivot();
            for factor in BRACKET {
                let constant = vec![Some(factor * peak); short.horizon()];
                self.query(
                    Stage::Static,
                    "static.bracket",
                    short,
                    Some(&constant),
                    Expect::Either,
                );
            }
        }
        self.query(Stage::Attack, "attack.vsc_t50", full, None, Expect::Attack);
        for j in 0..VSC_FAR_SEEDS {
            if j % 2 == 0 {
                self.pipeline(plants, &synths.traj, anchor);
            }
            let mut detectors = fixed_suite(vsc.horizon);
            if let Some(alg2) = &alg2 {
                detectors.push(("algorithm-2-capped", Box::new(staircase(alg2))));
            }
            self.far(plants, 1, STREAM_VSC + j, detectors);
        }
    }

    /// FAR experiments on every plant of the zoo with the fixed suite.
    fn zoo(&mut self, plants: &[Benchmark]) {
        for j in 0..ZOO_SEEDS {
            for (p, plant) in plants.iter().enumerate() {
                self.far(
                    plants,
                    p,
                    STREAM_ZOO + 8 * j + p as u64,
                    fixed_suite(plant.horizon),
                );
            }
        }
    }
}

/// Detector of a synthesised threshold staircase.
fn staircase(report: &SynthesisReport) -> ThresholdDetector {
    ThresholdDetector::new(report.threshold_spec(), ResidueNorm::Linf)
}

/// Fixed detector suite of the FAR zoo: a constant threshold, a variable
/// staircase threshold (four steps halving from 0.1), χ² and CUSUM.
fn fixed_suite(horizon: usize) -> Detectors {
    let steps = (0..horizon)
        .map(|k| 0.1 * 0.5_f64.powi((4 * k / horizon) as i32))
        .collect();
    vec![
        (
            "constant",
            Box::new(ThresholdDetector::new(
                ThresholdSpec::constant(0.05, horizon),
                ResidueNorm::Linf,
            )),
        ),
        (
            "staircase",
            Box::new(ThresholdDetector::new(
                ThresholdSpec::variable(steps),
                ResidueNorm::Linf,
            )),
        ),
        (
            "chi-squared",
            Box::new(Chi2Detector::new(5, 0.01, ResidueNorm::L2)),
        ),
        (
            "cusum",
            Box::new(CusumDetector::new(0.02, 0.08, ResidueNorm::Linf)),
        ),
    ]
}
