//! Differential test of [`LinExpr`], whose terms are one sorted vector,
//! against the `BTreeMap`-backed implementation it replaced. The reference
//! below is that implementation operation for operation (`term`,
//! `from_terms`, `add_term`, `+`, `−`, `scale`, negation and `evaluate`),
//! with the tiny-coefficient drop written `!(|c| <= COEFF_EPS)` everywhere,
//! so `term` keeps a NaN coefficient as every other constructor does.
//!
//! Random expressions over up to 120 variables are built through `term`,
//! `from_terms` and `add_term`, in random variable order and with repeated
//! variables, and combined with every operator. After each step the terms,
//! the coefficient of every variable, the constant and the value at a random
//! point must match the reference bit for bit. The coefficients include
//! exact cancellations, sums landing on `COEFF_EPS` and one ulp either side
//! of it, products at and below it, ±inf and NaN; the test asserts that
//! each of these outcomes occurred. `CPS_SMT_SEED` reseeds the stream (see
//! `testutil::env_seed`).
//!
//! A NaN matches any NaN: Rust leaves the sign and payload of a NaN produced
//! by arithmetic unspecified (the compiler may turn `c * -1.0` into a sign
//! flip in one build and not in another). Every other value is compared by
//! `f64::to_bits`.

mod testutil;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use cps_linalg::SplitMix64;
use cps_smt::{LinExpr, VarId, VarPool};
use testutil::env_seed;

/// `LinExpr`'s drop threshold: a coefficient with `|c| <= COEFF_EPS` is zero.
const COEFF_EPS: f64 = 1e-12;

const ROUNDS: usize = 2_000;
const STEPS_PER_ROUND: usize = 8;
const MAX_VARS: usize = 120;

/// The `BTreeMap`-backed linear expression `LinExpr` replaced.
#[derive(Debug, Clone)]
struct Reference {
    coeffs: BTreeMap<VarId, f64>,
    constant: f64,
}

impl Reference {
    fn constant(value: f64) -> Self {
        Self {
            coeffs: BTreeMap::new(),
            constant: value,
        }
    }

    fn term(var: VarId, coeff: f64) -> Self {
        let mut coeffs = BTreeMap::new();
        if !(coeff.abs() <= COEFF_EPS) {
            coeffs.insert(var, coeff);
        }
        Self {
            coeffs,
            constant: 0.0,
        }
    }

    fn from_terms(terms: &[(VarId, f64)], constant: f64) -> Self {
        let mut expr = Reference::constant(constant);
        for &(var, coeff) in terms {
            expr.add_term(var, coeff);
        }
        expr
    }

    fn add_term(&mut self, var: VarId, coeff: f64) {
        if coeff.abs() <= COEFF_EPS {
            seen_dropped_input(coeff);
            return;
        }
        let entry = self.coeffs.entry(var).or_insert(0.0);
        *entry += coeff;
        seen_sum(*entry);
        if entry.abs() <= COEFF_EPS {
            self.coeffs.remove(&var);
        }
    }

    fn add(mut self, rhs: Reference) -> Reference {
        self.constant += rhs.constant;
        for (v, c) in rhs.coeffs {
            self.add_term(v, c);
        }
        self
    }

    fn sub(self, rhs: Reference) -> Reference {
        self.add(rhs.neg())
    }

    fn scale(&self, factor: f64) -> Reference {
        let mut out = Reference::constant(self.constant * factor);
        for (v, c) in &self.coeffs {
            out.add_term(*v, c * factor);
        }
        out
    }

    fn neg(self) -> Reference {
        self.scale(-1.0)
    }

    fn evaluate(&self, assignment: &[f64]) -> f64 {
        self.constant
            + self
                .coeffs
                .iter()
                .map(|(v, c)| c * assignment[v.index()])
                .sum::<f64>()
    }
}

/// Outcomes of the reference's arithmetic the generator must produce.
const CANCELLED: usize = 0;
const SUM_AT_EPS: usize = 1;
const SUM_ABOVE_EPS: usize = 2;
const SUM_BELOW_EPS: usize = 3;
const DROPPED_AT_EPS: usize = 4;
const DROPPED_BELOW_EPS: usize = 5;
const NAN_KEPT: usize = 6;
const INF_KEPT: usize = 7;
const OUTCOME_NAMES: [&str; 8] = [
    "exact cancellation",
    "sum at COEFF_EPS",
    "sum one ulp above COEFF_EPS",
    "sum one ulp below COEFF_EPS",
    "coefficient or product at COEFF_EPS",
    "coefficient or product below COEFF_EPS",
    "NaN kept",
    "±inf kept",
];

const UNSEEN: AtomicUsize = AtomicUsize::new(0);
static SEEN: [AtomicUsize; 8] = [UNSEEN; 8];

fn seen(outcome: usize) {
    SEEN[outcome].fetch_add(1, Ordering::Relaxed);
}

/// Records a coefficient `add_term` dropped before adding it.
fn seen_dropped_input(coeff: f64) {
    if coeff.abs() == COEFF_EPS {
        seen(DROPPED_AT_EPS);
    } else if coeff != 0.0 {
        seen(DROPPED_BELOW_EPS);
    }
}

/// Records a coefficient sum `add_term` computed.
fn seen_sum(sum: f64) {
    let magnitude = sum.abs();
    if sum == 0.0 {
        seen(CANCELLED);
    } else if magnitude == COEFF_EPS {
        seen(SUM_AT_EPS);
    } else if magnitude == next_up(COEFF_EPS) {
        seen(SUM_ABOVE_EPS);
    } else if magnitude == next_down(COEFF_EPS) {
        seen(SUM_BELOW_EPS);
    } else if sum.is_nan() {
        seen(NAN_KEPT);
    } else if sum.is_infinite() {
        seen(INF_KEPT);
    }
}

/// The next representable value above a positive finite `x`.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The next representable value below a positive finite `x`.
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// A value's bits, with every NaN mapped to one pattern.
fn bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// One expression built both ways.
#[derive(Debug, Clone)]
struct Pair {
    fast: LinExpr,
    reference: Reference,
}

struct Gen {
    rng: SplitMix64,
    vars: Vec<VarId>,
}

impl Gen {
    fn sign(&mut self) -> f64 {
        if self.rng.bool() {
            1.0
        } else {
            -1.0
        }
    }

    /// A coefficient: mostly ordinary, often at or near `COEFF_EPS` or one
    /// whose products and sums land there exactly, rarely ±inf or NaN.
    fn coeff(&mut self) -> f64 {
        let s = self.sign();
        match self.rng.usize_below(20) {
            0..=7 => self.rng.range(-2.0, 2.0),
            8 => s * COEFF_EPS,
            9 => s * next_up(COEFF_EPS),
            10 => s * next_down(COEFF_EPS),
            11 => s * 2.0 * COEFF_EPS,
            12 => s * 2.0 * next_up(COEFF_EPS),
            13 => s * COEFF_EPS / 2.0,
            14 | 15 => s * [1.0, 0.5, 2.0][self.rng.usize_below(3)],
            16 => s * self.rng.range(0.5, 1.0) * 2f64.powi(-(self.rng.usize_below(50) as i32)),
            17 => s * f64::INFINITY,
            18 => f64::NAN,
            _ => s * 0.0,
        }
    }

    /// A scale factor, with products at and below `COEFF_EPS` among the
    /// results for the coefficients of [`Gen::coeff`].
    fn factor(&mut self) -> f64 {
        let s = self.sign();
        match self.rng.usize_below(12) {
            0..=3 => self.rng.range(-3.0, 3.0),
            4 => -1.0,
            5 => s * 0.5,
            6 => s * 2.0,
            7 => s * COEFF_EPS,
            8 => s * COEFF_EPS / 4.0,
            9 => s * 0.0,
            10 => s * f64::INFINITY,
            _ => f64::NAN,
        }
    }

    /// A constant term, rarely non-finite.
    fn constant(&mut self) -> f64 {
        match self.rng.usize_below(40) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            3 => 0.0,
            _ => self.rng.range(-5.0, 5.0),
        }
    }

    fn var(&mut self) -> VarId {
        self.vars[self.rng.usize_below(self.vars.len())]
    }

    /// Random `(variable, coefficient)` pairs, in random order, with
    /// repeated variables.
    fn terms(&mut self) -> Vec<(VarId, f64)> {
        let count = self.rng.usize_below(2 * self.vars.len() + 2);
        (0..count).map(|_| (self.var(), self.coeff())).collect()
    }

    /// An expression built by `term`, `from_terms` or an `add_term` chain.
    fn expr(&mut self) -> Pair {
        match self.rng.usize_below(3) {
            0 => {
                let (var, coeff) = (self.var(), self.coeff());
                Pair {
                    fast: LinExpr::term(var, coeff),
                    reference: Reference::term(var, coeff),
                }
            }
            1 => {
                let terms = self.terms();
                let constant = self.constant();
                Pair {
                    fast: LinExpr::from_terms(terms.iter().copied(), constant),
                    reference: Reference::from_terms(&terms, constant),
                }
            }
            _ => {
                let constant = self.constant();
                let mut pair = Pair {
                    fast: LinExpr::constant(constant),
                    reference: Reference::constant(constant),
                };
                for (var, coeff) in self.terms() {
                    pair.fast.add_term(var, coeff);
                    pair.reference.add_term(var, coeff);
                }
                pair
            }
        }
    }

    /// A right-hand side for `lhs`: a random expression, or one over some of
    /// `lhs`'s variables whose coefficients cancel `lhs`'s exactly under `+`
    /// or `−`, or sit 0–2 ulps above half their magnitude. Against `lhs`'s
    /// `±2ε` and `±2·next_up(ε)` (ε = `COEFF_EPS`) the latter land the sum
    /// exactly on `ε` and one ulp either side of it.
    fn operand(&mut self, lhs: &Pair) -> Pair {
        if self.rng.bool() {
            return self.expr();
        }
        let mut terms: Vec<(VarId, f64)> = lhs
            .reference
            .coeffs
            .iter()
            .filter(|_| self.rng.usize_below(4) != 0)
            .map(|(&v, &c)| (v, c))
            .collect();
        for (_, c) in terms.iter_mut() {
            let s = self.sign();
            *c = match self.rng.usize_below(4) {
                0 => -*c,
                1 => *c,
                2 => {
                    let half = (*c / 2.0).abs();
                    s * f64::from_bits(half.to_bits() + self.rng.usize_below(3) as u64)
                }
                _ => self.coeff(),
            };
        }
        terms.extend(self.terms().into_iter().take(3));
        // Shuffle, so `from_terms` sees the variables in random order.
        for i in (1..terms.len()).rev() {
            terms.swap(i, self.rng.usize_below(i + 1));
        }
        let constant = self.constant();
        Pair {
            fast: LinExpr::from_terms(terms.iter().copied(), constant),
            reference: Reference::from_terms(&terms, constant),
        }
    }
}

fn assert_same(pair: &Pair, vars: &[VarId], point: &[f64], what: &str) {
    let Pair { fast, reference } = pair;
    let got: Vec<(VarId, u64)> = fast.terms().map(|(v, c)| (v, bits(c))).collect();
    let want: Vec<(VarId, u64)> = reference
        .coeffs
        .iter()
        .map(|(&v, &c)| (v, bits(c)))
        .collect();
    assert_eq!(got, want, "terms after {what}");
    assert_eq!(fast.num_terms(), want.len(), "num_terms after {what}");
    assert_eq!(
        fast.is_constant(),
        want.is_empty(),
        "is_constant after {what}"
    );
    for &v in vars {
        let want = reference.coeffs.get(&v).copied().unwrap_or(0.0);
        assert_eq!(
            bits(fast.coefficient(v)),
            bits(want),
            "coefficient of {v} after {what}"
        );
    }
    assert_eq!(
        bits(fast.constant_term()),
        bits(reference.constant),
        "constant after {what}"
    );
    let finite = reference.constant.is_finite() && reference.coeffs.values().all(|c| c.is_finite());
    assert_eq!(fast.is_finite(), finite, "is_finite after {what}");
    assert_eq!(
        bits(fast.evaluate(point)),
        bits(reference.evaluate(point)),
        "evaluate after {what}"
    );
}

#[test]
fn sorted_terms_match_the_btree_implementation_bit_for_bit() {
    let mut pool = VarPool::new();
    let all_vars = pool.fresh_block("x", MAX_VARS);
    let mut gen = Gen {
        rng: SplitMix64::new(env_seed(0xE8B5)),
        vars: Vec::new(),
    };
    for round in 0..ROUNDS {
        let num_vars = 1 + gen.rng.usize_below(MAX_VARS);
        // A random subset of the pool, so variable ids have gaps.
        let offset = gen.rng.usize_below(MAX_VARS - num_vars + 1);
        gen.vars = all_vars[offset..offset + num_vars].to_vec();
        let point: Vec<f64> = (0..MAX_VARS)
            .map(|_| gen.rng.range(-3.0, 3.0) * 2f64.powi(gen.rng.usize_below(9) as i32 - 4))
            .collect();
        let mut acc = gen.expr();
        assert_same(&acc, &gen.vars, &point, &format!("round {round}: build"));
        for step in 0..STEPS_PER_ROUND {
            let Pair { fast, reference } = acc.clone();
            let (next, what) = match gen.rng.usize_below(7) {
                0 => {
                    let rhs = gen.operand(&acc);
                    let next = Pair {
                        fast: fast + rhs.fast,
                        reference: reference.add(rhs.reference),
                    };
                    (next, "+")
                }
                1 => {
                    let rhs = gen.operand(&acc);
                    let next = Pair {
                        fast: fast - rhs.fast,
                        reference: reference.sub(rhs.reference),
                    };
                    (next, "-")
                }
                2 => {
                    let factor = gen.factor();
                    let next = Pair {
                        fast: fast * factor,
                        reference: reference.scale(factor),
                    };
                    (next, "*")
                }
                3 => {
                    let factor = gen.factor();
                    let next = Pair {
                        fast: fast.scale(factor),
                        reference: reference.scale(factor),
                    };
                    (next, "scale")
                }
                4 => {
                    let next = Pair {
                        fast: -fast,
                        reference: reference.neg(),
                    };
                    (next, "neg")
                }
                5 => {
                    let (var, coeff) = (gen.var(), gen.coeff());
                    let mut next = Pair { fast, reference };
                    next.fast.add_term(var, coeff);
                    next.reference.add_term(var, coeff);
                    (next, "add_term")
                }
                _ => {
                    // A fresh expression restarts the chain, so later steps
                    // also start from `term` and `from_terms` results.
                    (gen.expr(), "rebuild")
                }
            };
            acc = next;
            let what = format!("round {round}, step {step}: {what}");
            assert_same(&acc, &gen.vars, &point, &what);
        }
    }
    for (count, name) in SEEN.iter().zip(OUTCOME_NAMES) {
        let count = count.load(Ordering::Relaxed);
        assert!(count > 0, "the generator never produced: {name}");
    }
}
