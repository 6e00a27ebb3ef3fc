//! Resource governance for solver runs: wall-clock deadlines, conflict and
//! pivot caps, and cooperative cancellation.
//!
//! A [`Budget`] bounds a single [`SmtSolver::check`](crate::SmtSolver::check)
//! run along three axes — wall-clock time, propositional conflicts and simplex
//! pivots — and a [`CancelToken`] lets another thread abort the run from
//! outside. All checks are *cooperative*. Each check owns one governor, built
//! from the budget and the token: the DPLL(T) loop polls it once per
//! iteration, which every conflict passes through, and lends it to the
//! simplex, which polls it once per batch of 64 pivots. The overhead stays
//! well under 1 % of the search, and the reaction latency stays at a few
//! conflicts or pivots.
//!
//! An exceeded budget or an observed cancellation never corrupts state and
//! never fabricates a verdict: the run unwinds with
//! [`SmtError::Interrupted`](crate::SmtError::Interrupted) carrying the
//! [`InterruptReason`] and the statistics gathered so far, so "Unknown" is a
//! first-class, attributable outcome.

use std::cell::Cell;
#[cfg(feature = "fault-injection")]
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use crate::fault::FaultInjector;

/// Why a [`check`](crate::SmtSolver::check) run stopped before deciding its
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InterruptReason {
    /// The wall-clock deadline of the [`Budget`] passed.
    Deadline,
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
    /// The conflict cap — [`Budget::with_conflict_cap`] or the solver's own
    /// cap of 2,000,000 conflicts, whichever is smaller — was reached.
    ConflictBudget,
    /// The pivot cap ([`Budget::with_pivot_cap`]) was reached.
    PivotBudget,
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptReason::Deadline => write!(f, "wall-clock deadline"),
            InterruptReason::Cancelled => write!(f, "cancelled"),
            InterruptReason::ConflictBudget => write!(f, "conflict budget"),
            InterruptReason::PivotBudget => write!(f, "pivot budget"),
        }
    }
}

/// Resource budget for a single [`check`](crate::SmtSolver::check) run.
///
/// Defaults to unlimited on every axis; compose caps builder-style:
///
/// ```
/// use cps_smt::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::unlimited()
///     .with_timeout(Duration::from_secs(5))
///     .with_pivot_cap(1_000_000);
/// assert_ne!(budget, Budget::unlimited());
/// ```
///
/// The deadline is *absolute*: a budget built once and installed on several
/// solvers (or reused across warm CEGIS rounds) bounds the **whole** run, not
/// each query separately — exactly the semantics a synthesis loop wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    pub(crate) deadline: Option<Instant>,
    pub(crate) max_conflicts: Option<u64>,
    pub(crate) max_pivots: Option<u64>,
}

impl Budget {
    /// A budget with no caps (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps the run at an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the run at `timeout` from **now** (the moment this builder is
    /// called, not the moment the check starts).
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Caps the number of propositional + theory conflicts. The effective cap
    /// is the smaller of this and the solver's own cap of 2,000,000
    /// conflicts.
    pub fn with_conflict_cap(mut self, cap: u64) -> Self {
        self.max_conflicts = Some(cap);
        self
    }

    /// Caps the total simplex pivots across all theory checks of the run
    /// (counted at batch granularity, so the run may overshoot by one batch).
    pub fn with_pivot_cap(mut self, cap: u64) -> Self {
        self.max_pivots = Some(cap);
        self
    }

    /// The absolute wall-clock deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Shared cancellation flag for cooperative run abortion.
///
/// Clone the token, hand one clone to the solver
/// ([`SmtSolver::set_cancel_token`](crate::SmtSolver::set_cancel_token)) and
/// keep the other; calling [`CancelToken::cancel`] from any thread makes the
/// running check unwind with
/// [`InterruptReason::Cancelled`] at its next cooperative checkpoint.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Clears the flag so the token can govern another run.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

/// The governor of one check: the solver builds it when the check starts,
/// polls it in the DPLL(T) loop and lends it to the simplex.
///
/// Wraps the budget axes in one latched checkpoint object: the first trip
/// wins and every later poll observes the same [`InterruptReason`], so the
/// nested loops (simplex inside theory check inside DPLL(T)) unwind
/// coherently without threading error values through every return type.
#[derive(Debug)]
pub(crate) struct Governor {
    deadline: Option<Instant>,
    max_conflicts: Option<u64>,
    max_pivots: Option<u64>,
    cancel: CancelToken,
    /// Pivots noted so far (batch granularity; see [`Governor::note_pivots`]).
    pivots: Cell<u64>,
    /// The first reason the check tripped on; `None` while it is healthy.
    tripped: Cell<Option<InterruptReason>>,
    /// The solver's fault injector (see [`crate::fault`]), lent for the
    /// check: the solver takes it back when the check ends, so fire counts
    /// persist across warm CEGIS rounds.
    #[cfg(feature = "fault-injection")]
    pub(crate) faults: RefCell<Option<FaultInjector>>,
}

impl Governor {
    pub(crate) fn new(budget: Budget, cancel: CancelToken) -> Self {
        Self {
            deadline: budget.deadline,
            max_conflicts: budget.max_conflicts,
            max_pivots: budget.max_pivots,
            cancel,
            pivots: Cell::new(0),
            tripped: Cell::new(None),
            #[cfg(feature = "fault-injection")]
            faults: RefCell::new(None),
        }
    }

    /// The latched interrupt reason, if the run has tripped.
    pub(crate) fn tripped(&self) -> Option<InterruptReason> {
        self.tripped.get()
    }

    /// Latches `reason` (first trip wins) and returns the winning reason.
    fn trip(&self, reason: InterruptReason) -> InterruptReason {
        let first = self.tripped.get().unwrap_or(reason);
        self.tripped.set(Some(first));
        first
    }

    /// Wall clock as the governor sees it — identical to [`Instant::now`]
    /// except under fault injection, where simulated clock jumps add a
    /// monotone skew.
    fn now(&self) -> Instant {
        let now = Instant::now();
        #[cfg(feature = "fault-injection")]
        let now = now + self.fault(Duration::ZERO, FaultInjector::clock_skew);
        now
    }

    /// Deadline + cancellation checkpoint. Cheap enough for every conflict:
    /// a read of the latch and one relaxed load of the cancel flag, plus one
    /// `Instant::now` only when a deadline is actually set.
    pub(crate) fn check(&self) -> Option<InterruptReason> {
        if let Some(reason) = self.tripped() {
            return Some(reason);
        }
        #[cfg(feature = "fault-injection")]
        if self.fault(false, FaultInjector::spurious_cancel) {
            return Some(self.trip(InterruptReason::Cancelled));
        }
        if self.cancel.is_cancelled() {
            return Some(self.trip(InterruptReason::Cancelled));
        }
        if let Some(deadline) = self.deadline {
            if self.now() >= deadline {
                return Some(self.trip(InterruptReason::Deadline));
            }
        }
        None
    }

    /// Conflict-boundary checkpoint: conflict cap first, then
    /// [`Governor::check`].
    pub(crate) fn check_conflicts(&self, conflicts: u64) -> Option<InterruptReason> {
        if let Some(cap) = self.max_conflicts {
            if conflicts >= cap {
                return Some(self.trip(InterruptReason::ConflictBudget));
            }
        }
        self.check()
    }

    /// Pivot-batch checkpoint: adds `batch` to the run's pivot total, trips
    /// on the pivot cap, then falls through to [`Governor::check`]. Callers
    /// poll every few dozen pivots, so the cap is enforced at batch
    /// granularity.
    pub(crate) fn note_pivots(&self, batch: u64) -> Option<InterruptReason> {
        let total = self.pivots.get() + batch;
        self.pivots.set(total);
        if let Some(cap) = self.max_pivots {
            if total >= cap {
                return Some(self.trip(InterruptReason::PivotBudget));
            }
        }
        self.check()
    }

    /// Fault hook (see [`crate::fault`]): `site` applied to the lent
    /// injector, or `quiet` when none is armed.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn fault<T>(&self, quiet: T, site: impl FnOnce(&mut FaultInjector) -> T) -> T {
        self.faults.borrow_mut().as_mut().map_or(quiet, site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let governor = Governor::new(Budget::unlimited(), CancelToken::new());
        assert_eq!(governor.check(), None);
        assert_eq!(governor.check_conflicts(u64::MAX - 1), None);
        assert_eq!(governor.note_pivots(1 << 40), None);
        assert_eq!(governor.tripped(), None);
    }

    #[test]
    fn expired_deadline_trips_and_latches() {
        let budget = Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        let governor = Governor::new(budget, CancelToken::new());
        assert_eq!(governor.check(), Some(InterruptReason::Deadline));
        // Later (different-axis) checks observe the same latched reason.
        assert_eq!(
            governor.check_conflicts(u64::MAX - 1),
            Some(InterruptReason::Deadline)
        );
        assert_eq!(governor.tripped(), Some(InterruptReason::Deadline));
    }

    #[test]
    fn cancellation_is_observed() {
        let token = CancelToken::new();
        let governor = Governor::new(Budget::unlimited(), token.clone());
        assert_eq!(governor.check(), None);
        token.cancel();
        assert_eq!(governor.check(), Some(InterruptReason::Cancelled));
        token.reset();
        // The trip is latched: resetting the token does not un-interrupt a run.
        assert_eq!(governor.tripped(), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn conflict_and_pivot_caps_trip() {
        let budget = Budget::unlimited()
            .with_conflict_cap(10)
            .with_pivot_cap(100);
        let governor = Governor::new(budget, CancelToken::new());
        assert_eq!(governor.check_conflicts(9), None);
        assert_eq!(
            governor.check_conflicts(10),
            Some(InterruptReason::ConflictBudget)
        );

        let governor = Governor::new(budget, CancelToken::new());
        assert_eq!(governor.note_pivots(64), None);
        assert_eq!(governor.note_pivots(64), Some(InterruptReason::PivotBudget));
    }
}
