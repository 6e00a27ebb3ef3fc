//! Pins the allocation cost of a warm CEGIS round. Each Algorithm 1 query of
//! a run restores the solver's SAT core and tableau from a level-0 image of
//! the base encoding into reused allocations, instead of building both from
//! the whole CNF; this test bounds the heap allocations a query makes, so a
//! change that brings back a per-query build fails here.
//!
//! The counting allocator (`tests/counting_alloc/mod.rs`) counts only the
//! allocations of the thread that opened the window.

mod counting_alloc;

use secure_cps::{PivotSynthesizer, SynthesisConfig};

/// Allocations per Algorithm 1 query of the run below, counting everything
/// the run allocates (the base encoding, pivots, simulations) over its
/// queries. Building the SAT core and the tableau per query measured
/// 370.1 per query in this test (debug and release builds alike);
/// restoring them from the image measured 172.4, and 167.5 once expressions
/// kept their terms in one vector. Adding clauses from slices through a
/// reused buffer, compacting watch lists in place and remembering the
/// re-check verdicts of base-atom explanations measured 97.5, and 96.5 once
/// the check's governor lost its `Arc`. Keeping the CNF's clauses in one
/// arena, lending the round's expressions to the solver instead of cloning
/// them, keeping each row's atom list across rounds and drawing no noise in
/// a silent re-simulation measured 22.2; the bound is 1.3 times that.
/// Explanations of `u32` tags, which collect into their learned clauses in
/// place (one allocation fewer per theory conflict), measured 21.1.
const MAX_ALLOCATIONS_PER_QUERY: f64 = 28.9;

#[test]
fn warm_rounds_restore_instead_of_rebuilding() {
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let config = SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    };
    let synthesizer = PivotSynthesizer::new(&benchmark, config).with_max_rounds(400);
    let (report, allocations) = counting_alloc::count(|| synthesizer.run());
    let report = report.expect("the run completes");
    assert!(
        report.converged,
        "margin 0.25 converges on the trajectory plant"
    );
    let queries = report.round_stats.len();
    let per_query = allocations as f64 / queries as f64;
    println!("{allocations} allocations over {queries} queries: {per_query:.1} per query");
    assert!(
        per_query < MAX_ALLOCATIONS_PER_QUERY,
        "{per_query:.1} allocations per query (bound {MAX_ALLOCATIONS_PER_QUERY})"
    );
}
