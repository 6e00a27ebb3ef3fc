//! Differential tests for the sequential-counter dead-zone encoding: on
//! randomized monitor suites and measurement patterns (horizons ≤ 12), the
//! `O(T·k)` sequential-counter construction must agree with the naive window
//! enumeration *and* with the runtime alarm semantics, and with the naive
//! enumeration again once the monitor intervals are shrunk by a margin.
//!
//! The measurement sequence is pinned with equality atoms, so the stealth
//! formula's truth is fully determined and SAT/UNSAT of the resulting query
//! is exactly "the monitors never alarm on this trace".

use cps_linalg::{SplitMix64, Vector};
use cps_monitors::{MeasurementSymbols, Monitor, MonitorSuite};
use cps_smt::{BoolVarPool, Formula, LinExpr, SmtSolver, VarPool};

const CASES: u64 = 120;

/// Monitor margins decided besides the exact bounds: the margin of `1e-6`
/// that every synthesis query uses (`MONITOR_MARGIN` in the core crate's
/// `attack.rs`), and a coarse margin that turns instants near a bound into
/// violations.
const MARGINS: [f64; 2] = [1e-6, 0.05];

/// Fresh-variable measurement symbols for `horizon` steps of `signals`
/// components, plus the pinned concrete values.
fn pinned_measurements(
    rng: &mut SplitMix64,
    horizon: usize,
    signals: usize,
) -> (VarPool, MeasurementSymbols, Vec<Vector>, Vec<Formula>) {
    let mut pool = VarPool::new();
    let mut exprs = Vec::new();
    let mut values = Vec::new();
    let mut pins = Vec::new();
    for k in 0..horizon {
        let mut row_exprs = Vec::new();
        let mut row_values = Vec::new();
        for j in 0..signals {
            let var = pool.fresh(format!("y_{k}_{j}"));
            // Values concentrated around the monitor bounds so both OK and
            // violating instants are common.
            let value = rng.range(-2.0, 2.0);
            pins.push(Formula::atom(LinExpr::var(var).eq_to(value)));
            row_exprs.push(LinExpr::var(var));
            row_values.push(value);
        }
        exprs.push(row_exprs);
        values.push(Vector::from_slice(&row_values));
    }
    (pool, MeasurementSymbols::new(exprs), values, pins)
}

fn random_suite(rng: &mut SplitMix64, signals: usize, horizon: usize) -> MonitorSuite {
    let mut monitors = Vec::new();
    let count = 1 + rng.usize_below(3);
    for _ in 0..count {
        let signal = rng.usize_below(signals);
        match rng.usize_below(3) {
            0 => {
                let half_width = rng.range(0.3, 1.5);
                monitors.push(Monitor::range(signal, -half_width, half_width));
            }
            1 => monitors.push(Monitor::gradient(signal, rng.range(1.0, 12.0))),
            _ => {
                if signals > 1 {
                    let other = (signal + 1) % signals;
                    monitors.push(Monitor::relation(signal, other, 1.0, rng.range(0.3, 2.0)));
                } else {
                    monitors.push(Monitor::range(signal, -1.0, 1.0));
                }
            }
        }
    }
    let dead_zone = 1 + rng.usize_below(horizon.min(5));
    MonitorSuite::new(monitors, dead_zone, 0.1)
}

fn decide(pool: &VarPool, pins: &[Formula], stealth: Formula) -> bool {
    let mut solver = SmtSolver::new(pool.clone());
    for pin in pins {
        solver.assert(pin.clone());
    }
    solver.assert(stealth);
    solver.check().expect("query decided").is_sat()
}

#[test]
fn counter_encoding_agrees_with_naive_and_runtime() {
    let mut rng = SplitMix64::new(0x5E9u64);
    let mut margin_alarms = 0;
    for case in 0..CASES {
        let horizon = 2 + rng.usize_below(11); // ≤ 12
        let signals = 1 + rng.usize_below(2);
        let (pool, symbols, values, pins) = pinned_measurements(&mut rng, horizon, signals);
        let suite = random_suite(&mut rng, signals, horizon);

        let runtime_stealthy = !suite.evaluate(&values).alarmed();
        let naive_sat = decide(&pool, &pins, suite.encode_stealth(&symbols));
        let mut bools = BoolVarPool::new();
        let counter_sat = decide(
            &pool,
            &pins,
            suite.encode_stealth_counter(&symbols, &mut bools, 0.0),
        );

        assert_eq!(
            naive_sat,
            runtime_stealthy,
            "case {case}: naive window encoding disagrees with runtime (horizon {horizon}, \
             dead zone {})",
            suite.dead_zone()
        );
        assert_eq!(
            counter_sat,
            runtime_stealthy,
            "case {case}: sequential-counter encoding disagrees with runtime (horizon {horizon}, \
             dead zone {})",
            suite.dead_zone()
        );

        // The runtime has no margin, so shrunk intervals are checked only
        // encoding against encoding.
        for margin in MARGINS {
            let naive_sat = decide(&pool, &pins, suite.encode_stealth_margin(&symbols, margin));
            let mut bools = BoolVarPool::new();
            let counter_sat = decide(
                &pool,
                &pins,
                suite.encode_stealth_counter(&symbols, &mut bools, margin),
            );
            assert_eq!(
                counter_sat,
                naive_sat,
                "case {case}: encodings disagree at margin {margin} (horizon {horizon}, \
                 dead zone {})",
                suite.dead_zone()
            );
            if naive_sat != runtime_stealthy {
                margin_alarms += 1;
            }
        }
    }
    assert!(
        margin_alarms > 0,
        "no margin turned a stealthy trace into an alarming one"
    );
}

#[test]
fn counter_encoding_is_satisfiable_when_attacker_may_choose_measurements() {
    // Free (unpinned) measurements: the solver must find a stealthy trace
    // whenever the monitors admit one, under both encodings.
    let mut rng = SplitMix64::new(77);
    for case in 0..40 {
        let horizon = 2 + rng.usize_below(11);
        let (pool, symbols, _, _) = pinned_measurements(&mut rng, horizon, 1);
        let suite = random_suite(&mut rng, 1, horizon);
        let naive_sat = decide(&pool, &[], suite.encode_stealth(&symbols));
        let mut bools = BoolVarPool::new();
        let counter_sat = decide(
            &pool,
            &[],
            suite.encode_stealth_counter(&symbols, &mut bools, 0.0),
        );
        assert!(naive_sat, "case {case}: all-zero measurements are stealthy");
        assert_eq!(naive_sat, counter_sat, "case {case}: encodings disagree");
    }
}

#[test]
fn counter_encoding_size_is_linear_in_horizon_times_dead_zone() {
    // The naive enumeration duplicates each per-step formula `dead_zone`
    // times; the counter encoding references it once. Compare atom counts
    // (theory atoms only — Boolean counter variables are free).
    let mut rng = SplitMix64::new(5);
    let horizon = 50;
    let (_, symbols, _, _) = pinned_measurements(&mut rng, horizon, 2);
    let suite = MonitorSuite::new(
        vec![
            Monitor::range(0, -0.2, 0.2),
            Monitor::gradient(0, 4.4),
            Monitor::relation(0, 1, 1.0, 0.9),
        ],
        7,
        0.1,
    );
    let naive = suite.encode_stealth(&symbols);
    let mut bools = BoolVarPool::new();
    let counter = suite.encode_stealth_counter(&symbols, &mut bools, 0.0);
    assert!(
        counter.atom_count() * 5 < naive.atom_count(),
        "counter encoding should be ~dead_zone× smaller: {} vs {}",
        counter.atom_count(),
        naive.atom_count()
    );
    assert!(bools.len() > 0, "counter encoding allocates Boolean vars");
}
