//! Graceful-degradation acceptance tests: synthesis runs interrupted by a
//! wall-clock deadline, a cancellation token, or a conflict budget must end
//! with a typed [`ConvergenceStatus::Interrupted`] report carrying the
//! best-so-far staircase and per-round solver statistics — never a panic, a
//! hang, or a silently discarded round. The static bisection shares their
//! run boundary, so its timeout interrupts it too.

use std::time::Duration;

use cps_smt::{Budget, InterruptReason, SmtError};
use secure_cps::{
    synthesize_static_threshold, AttackSynthesizer, ConvergenceStatus, PivotSynthesizer,
    StepwiseSynthesizer, SynthesisConfig, SynthesisError, SynthesisOutcome,
};

/// A horizon large enough that a single CEGIS query takes well over a
/// millisecond, so a tight deadline reliably lands mid-solve.
const LONG_HORIZON: usize = 50;

fn long_config() -> SynthesisConfig {
    SynthesisConfig {
        horizon_override: Some(LONG_HORIZON),
        ..SynthesisConfig::default()
    }
}

#[test]
fn tight_deadline_yields_interrupted_report_with_round_stats() {
    let benchmark = cps_models::vsc().unwrap();
    let config = SynthesisConfig {
        timeout: Some(Duration::from_micros(50)),
        ..long_config()
    };
    let synthesizer = PivotSynthesizer::new(&benchmark, config);
    let report = synthesizer
        .run()
        .expect("an interruption degrades gracefully instead of erroring");

    assert!(
        matches!(report.status, ConvergenceStatus::Interrupted { .. }),
        "a 50 microsecond deadline cannot finish a T={LONG_HORIZON} synthesis, got {:?}",
        report.status
    );
    assert!(!report.converged);
    assert!(
        !report.round_stats.is_empty(),
        "the interrupted query still contributes its per-round stats entry"
    );
    assert_eq!(report.partial.len(), LONG_HORIZON);
    if let ConvergenceStatus::Interrupted { reason, .. } = report.status {
        assert_eq!(reason, InterruptReason::Deadline);
    }
}

/// A token cancelled before the run stops both algorithms at their first
/// query, with nothing installed; once reset, the same synthesizers converge
/// in the Fig. 3 round counts.
#[test]
fn pre_cancelled_token_interrupts_pivot_synthesis() {
    let benchmark = cps_models::trajectory_tracking().unwrap();
    let config = SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    };
    let pivot = PivotSynthesizer::new(&benchmark, config).with_max_rounds(400);
    let stepwise = StepwiseSynthesizer::new(&benchmark, config).with_max_rounds(400);
    let runs: [(&AttackSynthesizer<'_>, &dyn Fn() -> SynthesisOutcome, usize); 2] = [
        (pivot.attack_synthesizer(), &|| pivot.run(), 243),
        (stepwise.attack_synthesizer(), &|| stepwise.run(), 304),
    ];
    for (attack_synthesizer, run, converged_rounds) in runs {
        attack_synthesizer.cancel_token().cancel();
        let report = run().expect("cancellation degrades gracefully");
        assert!(
            matches!(
                report.status,
                ConvergenceStatus::Interrupted {
                    round: 0,
                    reason: InterruptReason::Cancelled,
                }
            ),
            "got {:?}",
            report.status
        );
        assert_eq!(report.rounds, 0);
        assert_eq!(report.attacks_eliminated, 0);
        assert_eq!(report.round_stats.len(), 1);
        assert!(report.partial.iter().all(Option::is_none));

        // Clearing the token makes the same synthesizer usable again.
        attack_synthesizer.cancel_token().reset();
        let report = run().expect("synthesis runs after reset");
        assert!(report.converged, "got {:?}", report.status);
        assert_eq!(report.rounds, converged_rounds);
    }
}

/// The static bisection runs inside the same boundary as the CEGIS loops, so
/// [`SynthesisConfig::timeout`] bounds it too; an interruption surfaces as a
/// solver error, as a budget trip does.
#[test]
fn static_bisection_honours_the_run_timeout() {
    let benchmark = cps_models::trajectory_tracking().unwrap();
    let config = SynthesisConfig {
        timeout: Some(Duration::ZERO),
        ..SynthesisConfig::default()
    };
    let outcome = synthesize_static_threshold(&benchmark, config, 8);
    assert!(
        matches!(
            outcome,
            Err(SynthesisError::Solver(SmtError::Interrupted {
                reason: InterruptReason::Deadline,
                ..
            }))
        ),
        "got {outcome:?}"
    );
}

#[test]
fn conflict_budget_interrupts_stepwise_synthesis() {
    let benchmark = cps_models::vsc().unwrap();
    let synthesizer = StepwiseSynthesizer::new(&benchmark, long_config());
    synthesizer
        .attack_synthesizer()
        .set_budget(Budget::unlimited().with_conflict_cap(1));
    let report = synthesizer.run().expect("budget exhaustion degrades");
    assert!(
        matches!(
            report.status,
            ConvergenceStatus::Interrupted {
                reason: InterruptReason::ConflictBudget,
                ..
            }
        ),
        "got {:?}",
        report.status
    );
    assert!(!report.round_stats.is_empty());
}

#[test]
fn interrupted_run_retried_with_real_budget_converges_identically() {
    let benchmark = cps_models::trajectory_tracking().unwrap();
    let config = SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    };

    // Reference: an uninterrupted run on a fresh synthesizer.
    let reference = PivotSynthesizer::new(&benchmark, config)
        .with_max_rounds(400)
        .run()
        .expect("reference synthesis runs");
    assert!(reference.converged);

    // Interrupted run: starved of conflicts, then retried on the SAME
    // synthesizer with the budget lifted. The warm solver re-derives all
    // search state from its clause database, so the retry must agree
    // bit-for-bit with the fresh reference.
    let synthesizer = PivotSynthesizer::new(&benchmark, config).with_max_rounds(400);
    synthesizer
        .attack_synthesizer()
        .set_budget(Budget::unlimited().with_conflict_cap(1));
    let starved = synthesizer.run().expect("starved run degrades");
    assert!(matches!(
        starved.status,
        ConvergenceStatus::Interrupted { .. }
    ));

    synthesizer
        .attack_synthesizer()
        .set_budget(Budget::unlimited());
    let retried = synthesizer.run().expect("retried synthesis runs");
    assert!(retried.converged);
    assert_eq!(retried.rounds, reference.rounds);
    assert_eq!(
        retried.partial, reference.partial,
        "bit-identical staircase"
    );
}

#[test]
fn panicked_error_formats_payload() {
    // `SynthesisError::Panicked` is user-visible; check the Display plumbing
    // without needing to provoke an organic solver panic.
    let err = SynthesisError::Panicked("index out of bounds".into());
    assert!(err.to_string().contains("index out of bounds"));
}
