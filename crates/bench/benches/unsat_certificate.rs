//! UNSAT certificates at the paper's scale: one threshold-constrained
//! `PivotSynthesizer` round on the VSC at the **full 50-sample horizon**.
//!
//! This is the query that gates the paper's CEGIS loop (Algorithm 2, line 6):
//! after the first counterexample installs a threshold at its residue pivot,
//! the next Algorithm 1 call must either produce a new stealthy attack or
//! certify that none remains. PR 2 made the unconstrained (SAT) side of the
//! T=50 query decide in seconds, but the threshold-constrained round blew
//! past 8 minutes; the conflict-generalising theory engine (bound
//! propagation + implication-graph explanations + violation queue) is what
//! makes it tractable. The bench prints the verdict, verifies it (a found
//! attack must re-verify under exact runtime semantics; an UNSAT certificate
//! is cross-checked by the solver's explanation validation), and reports the
//! new `SolverStats` counters so the conflict-generalisation quality is
//! visible alongside the wall-clock number.

use std::time::Instant;

use cps_bench::{bench_config, first_round_threshold, print_row};
use cps_smt::SolverStats;
use criterion::{criterion_group, criterion_main, Criterion};
use secure_cps::{AttackSynthesizer, PartialThreshold};

fn stats_row(label: &str, stats: SolverStats) {
    print_row("unsat_certificate", &format!("{label}: {stats}"));
}

fn regenerate(synth: &AttackSynthesizer<'_>, th: &PartialThreshold) {
    let started = Instant::now();
    let outcome = synth.synthesize(Some(th)).expect("query decided");
    let elapsed = started.elapsed();
    match &outcome {
        Some(attack) => {
            let verified = synth.verify_attack(attack, Some(th));
            print_row(
                "unsat_certificate",
                &format!(
                    "threshold-constrained round, T={}: counterexample found in {elapsed:?} \
                     (verified: {verified})",
                    synth.horizon()
                ),
            );
            assert!(verified, "counterexample must verify under exact semantics");
        }
        None => print_row(
            "unsat_certificate",
            &format!(
                "threshold-constrained round, T={}: certified UNSAT in {elapsed:?}",
                synth.horizon()
            ),
        ),
    }
    stats_row("threshold-constrained round", synth.last_solver_stats());
}

/// A tight staircase far below the attack's reachable residues: the round
/// must come back UNSAT — the pure certificate side of the CEGIS loop.
fn tight_threshold(synth: &AttackSynthesizer<'_>) -> PartialThreshold {
    vec![Some(1e-4); synth.horizon()]
}

fn regenerate_certificate(synth: &AttackSynthesizer<'_>, th: &PartialThreshold) {
    let started = Instant::now();
    let outcome = synth.synthesize(Some(th)).expect("query decided");
    let elapsed = started.elapsed();
    assert!(
        outcome.is_none(),
        "a 1e-4 residue budget leaves no room for a successful attack"
    );
    print_row(
        "unsat_certificate",
        &format!(
            "tight staircase, T={}: certified UNSAT in {elapsed:?}",
            synth.horizon()
        ),
    );
    stats_row("tight staircase", synth.last_solver_stats());
}

fn bench(c: &mut Criterion) {
    let benchmark = cps_models::vsc().expect("model builds");
    let synth = AttackSynthesizer::new(&benchmark, bench_config());
    let th = first_round_threshold(&synth);
    regenerate(&synth, &th);
    let tight = tight_threshold(&synth);
    regenerate_certificate(&synth, &tight);
    let mut group = c.benchmark_group("unsat_certificate");
    group.sample_size(3);
    group.bench_function("vsc_t50_pivot_round", |b| {
        b.iter(|| synth.synthesize(Some(&th)).expect("query decided"))
    });
    group.bench_function("vsc_t50_unsat_certificate", |b| {
        b.iter(|| {
            assert!(synth
                .synthesize(Some(&tight))
                .expect("query decided")
                .is_none())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
