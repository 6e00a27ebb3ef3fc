//! Shared helpers for the figure/table regeneration benches.
//!
//! Each Criterion bench in `benches/` regenerates the data series of one
//! figure or table of the paper (printed to stdout as CSV-like rows) and then
//! times a representative kernel of that experiment. The printed series are
//! what `ARCHITECTURE.md` ("Experiments") records; the timings are secondary.
//!
//! Paper mapping: `fig1_trajectory` → Fig. 1a/1b (motivational example),
//! `fig2_vsc_attack` → Fig. 2 (VSC attack trace, §IV), `fig3_threshold_synthesis`
//! → Fig. 3 (synthesised variable thresholds), `far_comparison` → the §IV
//! false-alarm-rate table, `convergence` → the Algorithm 2 vs 3 round counts,
//! and `solver_ablation` → solver ablations beyond the paper (bound
//! propagation on/off, budget checking).
//!
//! Run them with `cargo bench` (the offline `criterion` stand-in prints median
//! and min–max wall-clock times; see `crates/criterion_shim`).
//!
//! # Example
//!
//! ```
//! let config = cps_bench::bench_config();
//! // A 25 % convergence margin bounds the CEGIS round count (243 rounds with
//! // Algorithm 2 and 304 with Algorithm 3 on the trajectory benchmark).
//! assert!(config.convergence_margin >= 0.25);
//! let benchmark = cps_bench::synthesis_benchmark();
//! assert_eq!(benchmark.name, "trajectory-tracking");
//! ```

use cps_models::Benchmark;
use secure_cps::{AttackSynthesizer, MonitorEncoding, PartialThreshold, SynthesisConfig};

/// Synthesis configuration used by the benches: exact dead-zone semantics,
/// encoded with the `O(T·k)` sequential-counter construction
/// (`MonitorEncoding::Exact`), with a 25 % convergence margin.
/// `fig2_vsc_attack` and `unsat_certificate` use it on the VSC at the
/// paper's full 50-sample horizon. On
/// [`synthesis_benchmark`] (trajectory tracking) the CEGIS loops still take
/// 243 rounds with Algorithm 2 and 304 with Algorithm 3 (the `convergence`
/// bench and `perfbench`'s `cegis.rounds_alg2`/`cegis.rounds_alg3` report
/// them).
pub fn bench_config() -> SynthesisConfig {
    SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    }
}

/// Synthesis configuration for full-horizon VSC queries with the conjunctive
/// monitor under-approximation (see `MonitorEncoding::ConjunctiveAfter`) —
/// kept for comparison against the exact encoding of [`bench_config`].
pub fn vsc_scale_config() -> SynthesisConfig {
    SynthesisConfig {
        monitor_encoding: MonitorEncoding::ConjunctiveAfter(5),
        convergence_margin: 0.1,
        ..SynthesisConfig::default()
    }
}

/// The benchmark used for the synthesis-pipeline experiments (E6–E8). The
/// paper uses the VSC. The bundled DPLL(T) solver decides a single exact
/// dead-zone VSC query at the full 50-sample horizon in seconds
/// (`fig2_vsc_attack`, `examples/vsc_attack.rs`), but a full CEGIS run on
/// the VSC, one threshold-constrained query per round until convergence, is
/// out of reach of a bench-friendly budget (the paper allots 12 hours per
/// Z3 call; `perfbench` caps Algorithm 2 on the VSC at two rounds). So the
/// CEGIS pipeline is exercised end-to-end on the trajectory-tracking
/// benchmark and the VSC is used for the attack-demonstration experiments
/// (E3–E5). See `ARCHITECTURE.md` ("Experiments") for the fidelity
/// discussion.
pub fn synthesis_benchmark() -> Benchmark {
    cps_models::trajectory_tracking().expect("benchmark builds")
}

/// Reproduces round 1 of `PivotSynthesizer::run` for a prepared Algorithm 1
/// instance: the undefended counterexample's residue pivot, shrunk by the
/// convergence margin, becomes the first installed threshold. This is the
/// query shape of every CEGIS certificate round; the `unsat_certificate` and
/// `solver_ablation` benches share it so they keep timing the same query.
///
/// # Panics
///
/// Panics if the undefended query errors or comes back UNSAT (the benches
/// only call this on attackable benchmarks).
pub fn first_round_threshold(synth: &AttackSynthesizer<'_>) -> PartialThreshold {
    let attack = synth
        .synthesize(None)
        .expect("query decided")
        .expect("the undefended benchmark is attackable");
    let (pivot, value) = attack.pivot();
    let mut th: PartialThreshold = vec![None; synth.horizon()];
    th[pivot] = Some((value * (1.0 - synth.config().convergence_margin)).max(1e-6));
    th
}

/// Prints one CSV row with a label prefix so bench output can be grepped.
pub fn print_row(figure: &str, row: &str) {
    println!("[{figure}] {row}");
}
