//! The paper-pipeline benchmark: drives the workspace's public API the way
//! a user does (Algorithm 1 attacks, Algorithms 2 and 3, the static
//! baseline, UNSAT certificates, FAR experiments), checks every verdict, and
//! prints the metrics named in `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload vsc_cegis|fig1_sweep|far_zoo --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. `--trace 0` measures untraced passes for
//! `S` seconds and reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes over identical inputs for `2·S` seconds,
//! reports the per-layer metrics and the tracing overhead, and writes the
//! spans to `.bench_out/`. The last line of standard output is the JSON
//! result. See `perfbench/METRICS.md` for what each metric measures.

mod checks;
mod layers;
mod report;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use checks::Ledger;
use report::{json_number, json_string, Metric};
use trace::Tracer;
use workloads::{Ctx, Pass, Synths, Workload};

/// Set-up repeats before each pass; `setup_s` is the median over all of
/// them, so it samples the whole run like the pass metrics do.
const SETUP_REPEATS: usize = 5;
/// No pass starts that would end later than this after the run began
/// (single calls are interrupted there too), so a run ends in time even if
/// the code under test gets much slower.
const RUN_LIMIT: Duration = Duration::from_secs(150);

const USAGE: &str =
    "usage: perfbench --workload vsc_cegis|fig1_sweep|far_zoo --seed N --seconds S --trace 0|1";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(args) => {
            run(&args);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn run(args: &Args) {
    let started = Instant::now();
    let workload = args.workload;

    let deadline = started + RUN_LIMIT;
    let mut ctx = Ctx::new(args.seed, deadline, Tracer::new(false));
    let budget = Duration::from_secs(args.seconds * if args.trace { 2 } else { 1 });
    let (mut build_s, mut unroll_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut plants = Vec::new();
    let measuring = Instant::now();
    let mut round = Duration::ZERO;
    let mut index = 0;
    let min_passes = workload.min_passes();
    loop {
        let enough = measuring.elapsed() >= budget
            && untraced.len() >= min_passes
            && (!args.trace || traced.len() >= min_passes);
        if !untraced.is_empty() && (enough || Instant::now() + round > deadline) {
            break;
        }
        let round_start = Instant::now();
        // A trace run measures untraced/traced pairs, alternating which goes
        // first so that drift in machine speed hits both kinds alike.
        let kinds: &[bool] = match (args.trace, untraced.len() % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_pass in kinds {
            // Set-up: build the plants and unroll the Algorithm 1 instances,
            // repeated; the pass uses the last repeat, so every pass starts
            // from the same cold state. Speed probes around the repeats turn
            // their wall time into `setup_s` at the reference speed.
            let first_setup = build_s.len();
            let before = speed::probe();
            for _ in 1..SETUP_REPEATS {
                let (fresh, build) = timed(|| workload.build_plants());
                let (synths, unroll) = timed(|| Synths::new(workload, &fresh));
                drop(synths);
                build_s.push(build);
                unroll_s.push(unroll);
            }
            let build;
            (plants, build) = timed(|| workload.build_plants());
            let (synths, unroll) = timed(|| Synths::new(workload, &plants));
            build_s.push(build);
            unroll_s.push(unroll);
            let factor = speed::factor(before, speed::probe());
            setup_s.extend(
                build_s[first_setup..]
                    .iter()
                    .zip(&unroll_s[first_setup..])
                    .map(|(b, u)| (b + u) * factor),
            );

            ctx.tracer.set_enabled(traced_pass);
            let pass = ctx.pass(workload, index, &plants, &synths);
            index += 1;
            if traced_pass {
                traced.push(pass);
            } else {
                untraced.push(pass);
            }
        }
        round = round_start.elapsed();
    }

    // Every pass repeats the same deterministic computation.
    let first = untraced[0].fingerprint;
    let correct = untraced
        .iter()
        .chain(&traced)
        .all(|p| p.fingerprint == first);
    let mut ledger = Ledger::default();
    for pass in untraced.iter().chain(&traced) {
        ledger.absorb(&pass.ledger);
    }

    let end_to_end = end_to_end_metrics(&setup_s, &untraced, &ledger);
    let record = run_record(args, &plants, &ctx, untraced.len(), traced.len());
    println!(
        "# perfbench {} seed={} seconds={} trace={}: {} untraced and {} traced passes, correct={correct}, \
         speed factor {:.4}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        untraced.len(),
        traced.len(),
        stats::median(&column(&untraced, |p| p.speed_factor)).unwrap_or(f64::NAN)
    );
    println!("{{\"run_record\":{record}}}");
    println!("# end-to-end metrics (untraced passes): name, median, unit, tail, samples");
    print!("{}", report::table(&end_to_end));
    let reported = if args.trace {
        let per_layer =
            per_layer_metrics(&build_s, &unroll_s, &untraced, &traced, &ledger, ctx.lanes);
        println!("# per-layer metrics (traced passes): name, median, unit, tail, samples");
        print!("{}", report::table(&per_layer));
        write_spans(args, &record, &ctx.tracer);
        per_layer
    } else {
        end_to_end
    };
    println!(
        "{}",
        report::result_line(correct, ledger.attempted, ledger.failed, &reported)
    );
}

fn column(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn end_to_end_metrics(setup_s: &[f64], passes: &[Pass], ledger: &Ledger) -> Vec<Metric> {
    // A margin whose detectors could not all be synthesised counts as the
    // worst FAR (its failure is already in the ledger).
    let quality = |i: usize| column(passes, |p| p.quality.map_or(1.0, |q| q[i]));
    vec![
        Metric::median("setup_s", "s", setup_s),
        Metric::median("attack_s", "s", &column(passes, |p| p.attack_s)),
        Metric::median("alg2_s", "s", &column(passes, |p| p.alg2_s)),
        Metric::median("alg3_s", "s", &column(passes, |p| p.alg3_s)),
        Metric::median("static_s", "s", &column(passes, |p| p.static_s)),
        Metric::median("certificate_s", "s", &column(passes, |p| p.certificate_s)),
        Metric::median(
            "far_traces_per_s",
            "1/s",
            &column(passes, |p| ratio(p.far_generated as f64, p.far_s)),
        ),
        Metric::median("far_alg2", "ratio", &quality(0)),
        Metric::median("far_alg3", "ratio", &quality(1)),
        Metric::median("far_static", "ratio", &quality(2)),
        Metric::single("ok_share", "ratio", 1.0 - ledger.failed_share()),
        Metric::single(
            "peak_rss_mb",
            "MB",
            report::peak_rss_mb().unwrap_or(f64::NAN),
        ),
    ]
}

fn per_layer_metrics(
    build_s: &[f64],
    unroll_s: &[f64],
    untraced: &[Pass],
    traced: &[Pass],
    ledger: &Ledger,
    lanes: usize,
) -> Vec<Metric> {
    let m = |name, unit, f: &dyn Fn(&Pass) -> f64| Metric::median(name, unit, &column(traced, f));
    let untraced_wall = stats::median(&column(untraced, |p| p.wall_s)).unwrap_or(0.0);
    let traced_wall = stats::median(&column(traced, |p| p.wall_s)).unwrap_or(0.0);
    let overhead = traced_wall - untraced_wall;
    vec![
        Metric::median("models.build_s", "s", build_s),
        Metric::median("encoder.unroll_s", "s", unroll_s),
        m("smt.theory_s", "s", &|p| p.smt.simplex_time().as_secs_f64()),
        m("smt.pivots", "count", &|p| p.smt.pivots as f64),
        m("smt.queue_pops", "count", &|p| p.smt.queue_pops as f64),
        m("smt.queue_pops_per_pivot", "ratio", &|p| {
            ratio(p.smt.queue_pops as f64, p.smt.pivots as f64)
        }),
        m("smt.theory_rebuilds", "count", &|p| {
            p.smt.theory_rebuilds as f64
        }),
        m("smt.rebuilds_per_query", "ratio", &|p| {
            ratio(p.smt.theory_rebuilds as f64, p.smt_queries as f64)
        }),
        m("smt.implied_bounds", "count", &|p| {
            p.smt.implied_bounds as f64
        }),
        m("smt.propagated_literals", "count", &|p| {
            p.smt.propagated_literals as f64
        }),
        m("smt.decisions", "count", &|p| p.smt.decisions as f64),
        m("smt.conflicts", "count", &|p| p.smt.conflicts as f64),
        m("smt.theory_checks", "count", &|p| {
            p.smt.theory_checks as f64
        }),
        m("smt.theory_conflicts_per_check", "ratio", &|p| {
            ratio(p.smt.theory_conflicts as f64, p.smt.theory_checks as f64)
        }),
        m("smt.explanation_len_mean", "count", &|p| {
            p.smt.mean_explanation_len()
        }),
        m("smt.restarts", "count", &|p| p.smt.restarts as f64),
        m("smt.clauses_deleted", "count", &|p| {
            p.smt.clauses_deleted as f64
        }),
        m("smt.scopes_reused", "count", &|p| {
            p.smt.scopes_reused as f64
        }),
        m("cegis.nontheory_s", "s", &|p| p.cegis_s - p.cegis_theory_s),
        m("attack.queries", "count", &|p| p.attack_queries as f64),
        m("attack.sat", "count", &|p| p.attack_sat as f64),
        m("attack.unsat", "count", &|p| p.attack_unsat as f64),
        m("cegis.rounds_alg2", "count", &|p| p.rounds_alg2 as f64),
        m("cegis.rounds_alg3", "count", &|p| p.rounds_alg3 as f64),
        m("cegis.attacks_eliminated", "count", &|p| {
            p.attacks_eliminated as f64
        }),
        m("cegis.converged", "count", &|p| p.converged as f64),
        m("cegis.round_limit", "count", &|p| p.round_limit as f64),
        m("cegis.stalled", "count", &|p| p.stalled as f64),
        m("cegis.interrupted", "count", &|p| p.interrupted_runs as f64),
        m("static.queries", "count", &|p| p.static_queries as f64),
        m("control.rollout_s", "s", &|p| p.replay.rollout_s),
        m("control.steps", "count", &|p| p.replay.steps as f64),
        m("control.ns_per_step", "ns", &|p| {
            ratio(p.replay.rollout_s * 1e9, p.replay.steps as f64)
        }),
        m("monitors.scan_s", "s", &|p| p.replay.monitor_scan_s),
        m("monitors.discard_ratio", "ratio", &|p| {
            ratio(p.replay.monitor_alarms as f64, p.monitor_trials as f64)
        }),
        m("detectors.scan_s", "s", &|p| p.replay.detector_scan_s),
        m("detectors.steps", "count", &|p| {
            p.replay.detector_steps as f64
        }),
        m("far.kept_ratio", "ratio", &|p| {
            ratio(p.far_kept as f64, p.far_generated as f64)
        }),
        Metric::single("far.lanes", "count", lanes as f64),
        m("check.unverified_sat", "count", &|p| {
            p.ledger.unverified_sat as f64
        }),
        m("check.wrong_unsat", "count", &|p| {
            p.ledger.wrong_unsat as f64
        }),
        m("check.interrupted", "count", &|p| {
            p.ledger.interrupted as f64
        }),
        Metric::single("check.failed_share", "ratio", ledger.failed_share()),
        Metric::median(
            "trace.untraced_pass_s",
            "s",
            &column(untraced, |p| p.wall_s),
        ),
        m("trace.traced_pass_s", "s", &|p| p.wall_s),
        Metric::single("trace.overhead_s", "s", overhead),
        Metric::single(
            "trace.overhead_share",
            "ratio",
            ratio(overhead, untraced_wall),
        ),
    ]
}

/// What a tool comparing two runs must see match: inputs, parallelism and
/// code version.
fn run_record(
    args: &Args,
    plants: &[cps_models::Benchmark],
    ctx: &Ctx,
    untraced: usize,
    traced: usize,
) -> String {
    let root = Path::new(".");
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let list = |items: Vec<String>| format!("[{}]", items.join(","));
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"far_lanes\":{},\
         \"plants\":{},\"horizons\":{},\"margins\":{},\"far_trials\":{},\"far_seeds\":{},\
         \"setup_repeats\":{SETUP_REPEATS},\"passes_untraced\":{untraced},\"passes_traced\":{traced},\
         \"git_commit\":{},\"source_digest\":{}}}",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.lanes,
        list(plants.iter().map(|p| json_string(&p.name)).collect()),
        list(args.workload.horizons(plants).iter().map(usize::to_string).collect()),
        list(args.workload.margins().iter().map(|m| json_number(*m)).collect()),
        workloads::FAR_TRIALS,
        list(ctx.far_seeds().values().map(u64::to_string).collect()),
        report::git_commit(root).map_or_else(|| "null".to_string(), |c| json_string(&c)),
        report::source_digest(root).map_or_else(|| "null".to_string(), |d| json_string(&d)),
    );
    out
}

/// Writes the traced run's spans, after its run record, to
/// `.bench_out/spans-<workload>-seed<seed>.jsonl`.
fn write_spans(args: &Args, record: &str, tracer: &Tracer) {
    let dir = Path::new(".bench_out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let contents = format!("{{\"run_record\":{record}}}\n{}", tracer.to_json_lines());
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(err) => eprintln!("perfbench: could not write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "far_zoo",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::FarZoo);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "far_zoo",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "far_zoo", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
