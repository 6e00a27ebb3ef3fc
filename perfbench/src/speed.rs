//! Speed correction for a shared machine.
//!
//! On the 2-vCPU virtual machine this benchmark was tuned on, the same
//! single-threaded loop runs up to ~50 % slower from one moment to the next
//! with no steal time reported (the host's other guests share its cores and
//! its frequency budget), and slow or fast spells can outlast a whole run.
//! Raw wall times of identical code then differ by 25–46 % between runs.
//!
//! So the benchmark measures the machine's speed next to the program: around
//! its timed calls it times a fixed reference kernel, code of the
//! benchmark's own that no change to the program can touch, and scales each
//! call's wall time by `NOMINAL_S / kernel time` of the probes just before
//! and after it: seconds at the reference speed, at which the kernel takes
//! `NOMINAL_S`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{median, splitmix64};

/// Kernel time at the reference speed (about what the kernel takes on the
/// tuning machine at its fast speed).
pub const NOMINAL_S: f64 = 100e-6;
/// Size of the kernel's linear systems.
const N: usize = 16;
/// Systems the kernel solves per run.
const SYSTEMS: usize = 10;
/// Hash maps the kernel fills per run, and entries per map.
const CHURN_ROUNDS: u64 = 5;
const CHURN_ITEMS: u64 = 200;
/// Kernel runs per probe; the probe keeps the fastest (an interrupt can
/// only lengthen a run).
const RUNS: usize = 3;
/// Probes are at most this far apart in wall time and no closer, so that
/// runs of many short calls cost no more probing than runs of a few long
/// ones.
const PROBE_EVERY: Duration = Duration::from_millis(10);

/// The reference kernel, two halves like the solver's work: Gaussian
/// elimination with partial pivoting on `SYSTEMS` dense `N × N` systems
/// drawn from SplitMix64 (branches, float arithmetic, row indexing), and
/// hash-map inserts and small vector allocations (bookkeeping). Either half
/// alone tracked the program's slowdowns less well than their sum: on the
/// Fig. 1 pipeline the first under-corrects and the second over-corrects.
fn kernel(seed: u64) -> f64 {
    let mut state = seed;
    let mut acc = 0.0;
    for round in 0..CHURN_ROUNDS {
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut vectors: Vec<Vec<u64>> = Vec::new();
        for i in 0..CHURN_ITEMS {
            map.insert(splitmix64(seed ^ (round << 32 | i)), i);
            vectors.push(vec![i; (i % 13) as usize]);
        }
        acc += (map.len() + vectors.iter().map(Vec::len).sum::<usize>()) as f64;
    }
    for _ in 0..SYSTEMS {
        let mut a = [[0.0_f64; N + 1]; N];
        for x in a.iter_mut().flatten() {
            state = splitmix64(state);
            *x = (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5;
        }
        for col in 0..N {
            let pivot_row = (col..N)
                .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
                .unwrap_or(col);
            a.swap(col, pivot_row);
            let pivot = a[col][col];
            if pivot.abs() < 1e-12 {
                continue;
            }
            for r in col + 1..N {
                let f = a[r][col] / pivot;
                for c in col..=N {
                    a[r][c] -= f * a[col][c];
                }
            }
        }
        acc += a[N - 1][N] / a[N - 1][N - 1];
    }
    acc
}

/// Times the reference kernel: the fastest of `RUNS` runs, in seconds.
pub fn probe() -> f64 {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel(black_box(0x5EED)));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that turns wall seconds into seconds at the reference speed,
/// for work between two probes that timed the kernel at `before` and
/// `after` seconds.
pub fn factor(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

/// Corrects the timed calls of a pass and sums them per slot (a stage).
///
/// Before a call, [`Meter::ready`] probes unless the last probe is fresher
/// than `PROBE_EVERY`; after it, [`Meter::record`] probes once `PROBE_EVERY`
/// has passed. A long call thus lies between two probes of its own, and
/// short calls share the probes around them.
#[derive(Debug)]
pub struct Meter<const SLOTS: usize> {
    probe: fn() -> f64,
    /// When the last probe ended, and its kernel time.
    last: Option<(Instant, f64)>,
    /// Calls since the last probe: slot and wall seconds.
    pending: Vec<(usize, f64)>,
    totals: [f64; SLOTS],
    factors: Vec<f64>,
}

impl<const SLOTS: usize> Meter<SLOTS> {
    pub fn new() -> Self {
        Self::with_probe(probe)
    }

    fn with_probe(probe: fn() -> f64) -> Self {
        Self {
            probe,
            last: None,
            pending: Vec::new(),
            totals: [0.0; SLOTS],
            factors: Vec::new(),
        }
    }

    fn due(&self) -> bool {
        self.last
            .map_or(true, |(at, _)| at.elapsed() >= PROBE_EVERY)
    }

    /// Call right before a timed call.
    pub fn ready(&mut self) {
        if self.due() {
            self.settle();
        }
    }

    /// Records a call of `secs` wall seconds charged to `slot`.
    pub fn record(&mut self, slot: usize, secs: f64) {
        self.pending.push((slot, secs));
        if self.due() {
            self.settle();
        }
    }

    /// Probes, and scales the calls made since the previous probe.
    fn settle(&mut self) {
        let kernel_s = (self.probe)();
        if !self.pending.is_empty() {
            let before = self.last.map_or(kernel_s, |(_, k)| k);
            let factor = factor(before, kernel_s);
            for (slot, secs) in self.pending.drain(..) {
                self.totals[slot] += secs * factor;
            }
            self.factors.push(factor);
        }
        self.last = Some((Instant::now(), kernel_s));
    }

    /// Scales the calls still pending, then returns the corrected total of
    /// each slot and the median factor applied (1 if none), and starts over.
    pub fn finish(&mut self) -> ([f64; SLOTS], f64) {
        if !self.pending.is_empty() {
            self.settle();
        }
        let factor = median(&self.factors).unwrap_or(1.0);
        self.factors.clear();
        (std::mem::replace(&mut self.totals, [0.0; SLOTS]), factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_finite() {
        let value = kernel(0x5EED);
        assert!(value.is_finite());
        assert_eq!(value.to_bits(), kernel(0x5EED).to_bits());
        assert_ne!(value.to_bits(), kernel(0x5EEE).to_bits());
        assert!(probe() > 0.0);
    }

    #[test]
    fn factor_averages_the_probes_around_the_work() {
        assert_eq!(factor(NOMINAL_S, NOMINAL_S), 1.0);
        // A machine twice as slow as the reference halves measured times.
        assert_eq!(factor(NOMINAL_S, 3.0 * NOMINAL_S), 0.5);
    }

    #[test]
    fn meter_scales_every_call_into_its_slot() {
        fn half_speed() -> f64 {
            2.0 * NOMINAL_S
        }
        let mut meter = Meter::<3>::with_probe(half_speed);
        assert_eq!(meter.finish(), ([0.0; 3], 1.0));
        for (slot, secs) in [(0, 1.0), (2, 4.0), (0, 2.0)] {
            meter.ready();
            meter.record(slot, secs);
        }
        assert_eq!(meter.finish(), ([1.5, 0.0, 2.0], 0.5));
        // Totals start over after `finish`.
        meter.ready();
        meter.record(1, 8.0);
        assert_eq!(meter.finish(), ([0.0, 4.0, 0.0], 0.5));
    }
}
