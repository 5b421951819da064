//! A small Mamdani fuzzy-inference engine.
//!
//! The paper's second baseline (its ref [10]) is a fuzzy temperature
//! controller; this module provides the inference machinery it needs:
//! triangular/trapezoidal membership functions, min–max Mamdani
//! composition and centroid defuzzification.

use std::ops::Range;

/// Resolution of the centroid integration: the output universe is
/// sampled at this many evenly spaced points, ends included.
const SAMPLES: usize = 101;

/// Capacity of the degree buffer `infer` keeps on the stack: the most
/// terms an engine's inputs may have, summed over all of them.
const MAX_INPUT_TERMS: usize = 32;

/// A membership function over a real universe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MembershipFunction {
    /// Triangle with feet at `a` and `c` and peak at `b`.
    Triangle {
        /// Left foot.
        a: f64,
        /// Peak.
        b: f64,
        /// Right foot.
        c: f64,
    },
    /// Trapezoid with feet at `a`/`d` and plateau `b..c`.
    Trapezoid {
        /// Left foot.
        a: f64,
        /// Plateau start.
        b: f64,
        /// Plateau end.
        c: f64,
        /// Right foot.
        d: f64,
    },
}

impl MembershipFunction {
    /// Degree of membership of `x`, in `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ev_control::fuzzy::MembershipFunction;
    ///
    /// let tri = MembershipFunction::Triangle { a: 0.0, b: 1.0, c: 2.0 };
    /// assert_eq!(tri.degree(1.0), 1.0);
    /// assert_eq!(tri.degree(0.5), 0.5);
    /// assert_eq!(tri.degree(3.0), 0.0);
    /// ```
    #[must_use]
    pub fn degree(&self, x: f64) -> f64 {
        match *self {
            Self::Triangle { a, b, c } => {
                if x <= a || x >= c {
                    // A foot shared with the peak means a shoulder.
                    if (x <= a && a == b) || (x >= c && c == b) {
                        1.0
                    } else {
                        0.0
                    }
                } else if x <= b {
                    if b == a {
                        1.0
                    } else {
                        (x - a) / (b - a)
                    }
                } else if c == b {
                    1.0
                } else {
                    (c - x) / (c - b)
                }
            }
            Self::Trapezoid { a, b, c, d } => {
                if x < a || x > d {
                    0.0
                } else if x < b {
                    if b == a {
                        1.0
                    } else {
                        (x - a) / (b - a)
                    }
                } else if x <= c || d == c {
                    1.0
                } else {
                    (d - x) / (d - c)
                }
            }
        }
    }

    /// Whether the parameters are ordered (`a ≤ b ≤ c [≤ d]`) and span a
    /// finite width, which also makes each one finite. Every degree of a
    /// well-formed function is then finite and in `[0, 1]`.
    fn is_well_formed(&self) -> bool {
        match *self {
            Self::Triangle { a, b, c } => a <= b && b <= c && (c - a).is_finite(),
            Self::Trapezoid { a, b, c, d } => a <= b && b <= c && c <= d && (d - a).is_finite(),
        }
    }
}

/// A named linguistic term: a label plus its membership function.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// The label (e.g. `"negative-large"`).
    pub label: &'static str,
    /// The membership function.
    pub mf: MembershipFunction,
}

/// A fuzzy rule: IF input₀ is term(i₀) AND input₁ is term(i₁) … THEN
/// output is term(o). Antecedent indices refer to each input variable's
/// term list; `None` means "don't care".
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// One optional term index per input variable.
    pub antecedents: Vec<Option<usize>>,
    /// Output term index.
    pub consequent: usize,
}

/// A Mamdani fuzzy system with any number of inputs and one output.
///
/// # Examples
///
/// ```
/// use ev_control::fuzzy::{FuzzyEngine, MembershipFunction, Rule, Term};
///
/// // One input (error in [−1, 1]) with two terms, one output (duty).
/// let neg = Term { label: "neg", mf: MembershipFunction::Triangle { a: -1.0, b: -1.0, c: 0.0 } };
/// let pos = Term { label: "pos", mf: MembershipFunction::Triangle { a: 0.0, b: 1.0, c: 1.0 } };
/// let engine = FuzzyEngine::new(
///     vec![vec![neg.clone(), pos.clone()]],
///     vec![neg, pos],
///     (-1.0, 1.0),
///     vec![
///         Rule { antecedents: vec![Some(0)], consequent: 0 },
///         Rule { antecedents: vec![Some(1)], consequent: 1 },
///     ],
/// );
/// assert!(engine.infer(&[0.8]) > 0.3);
/// assert!(engine.infer(&[-0.8]) < -0.3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzyEngine {
    inputs: Vec<Vec<Term>>,
    output_terms: Vec<Term>,
    output_universe: (f64, f64),
    rules: Vec<Rule>,
    /// The centroid samples spanning the output universe.
    samples: [f64; SAMPLES],
    /// One tabulated consequent per output term, in `output_terms` order.
    consequents: Vec<Consequent>,
}

/// An output term tabulated once at the centroid samples, with the rules
/// that conclude it.
#[derive(Debug, Clone, PartialEq)]
struct Consequent {
    /// One entry per rule that concludes this term, in rule order: the
    /// slots of the rule's antecedents in `infer`'s degree buffer, which
    /// holds every input's terms one after another.
    rules: Vec<Vec<usize>>,
    /// The term's degree at each centroid sample.
    degree: [f64; SAMPLES],
    /// From the first sample with a non-zero degree to one past the
    /// last; empty when the term is zero at every sample.
    support: Range<usize>,
}

impl FuzzyEngine {
    /// Creates an engine, tabulating every output term at the centroid
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if there are no inputs, output terms or rules, if the
    /// inputs have more than 32 terms in all, if the output universe is
    /// not a finite, non-empty interval, if any membership function has
    /// non-finite or unordered parameters, or if any rule index is out of
    /// range.
    #[must_use]
    pub fn new(
        inputs: Vec<Vec<Term>>,
        output_terms: Vec<Term>,
        output_universe: (f64, f64),
        rules: Vec<Rule>,
    ) -> Self {
        assert!(!inputs.is_empty(), "fuzzy engine needs at least one input");
        assert!(!output_terms.is_empty(), "fuzzy engine needs output terms");
        assert!(!rules.is_empty(), "fuzzy engine needs rules");
        let mut offsets = Vec::with_capacity(inputs.len());
        let mut input_terms = 0;
        for terms in &inputs {
            offsets.push(input_terms);
            input_terms += terms.len();
        }
        assert!(
            input_terms <= MAX_INPUT_TERMS,
            "fuzzy engine inputs may have at most {MAX_INPUT_TERMS} terms in all"
        );
        let (lo, hi) = output_universe;
        assert!(
            hi > lo && (hi - lo).is_finite(),
            "output universe must be a finite, non-empty interval"
        );
        for term in inputs.iter().flatten().chain(&output_terms) {
            assert!(
                term.mf.is_well_formed(),
                "membership function of term {:?} must have finite, ordered parameters",
                term.label
            );
        }
        for rule in &rules {
            assert_eq!(
                rule.antecedents.len(),
                inputs.len(),
                "rule antecedent count must match input count"
            );
            for (var, term) in rule.antecedents.iter().enumerate() {
                if let Some(t) = term {
                    assert!(*t < inputs[var].len(), "rule antecedent index out of range");
                }
            }
            assert!(
                rule.consequent < output_terms.len(),
                "rule consequent index out of range"
            );
        }
        let samples: [f64; SAMPLES] =
            std::array::from_fn(|k| lo + (hi - lo) * (k as f64) / ((SAMPLES - 1) as f64));
        let consequents = output_terms
            .iter()
            .enumerate()
            .map(|(t, term)| {
                let degree = samples.map(|y| term.mf.degree(y));
                let first = degree.iter().position(|&d| d > 0.0).unwrap_or(0);
                let end = degree.iter().rposition(|&d| d > 0.0).map_or(0, |k| k + 1);
                Consequent {
                    rules: rules
                        .iter()
                        .filter(|rule| rule.consequent == t)
                        .map(|rule| {
                            rule.antecedents
                                .iter()
                                .zip(&offsets)
                                .filter_map(|(term, &offset)| term.map(|t| offset + t))
                                .collect()
                        })
                        .collect(),
                    degree,
                    support: first..end,
                }
            })
            .collect();
        Self {
            inputs,
            output_terms,
            output_universe,
            rules,
            samples,
            consequents,
        }
    }

    /// Runs Mamdani inference (min AND, max aggregation, centroid
    /// defuzzification) for crisp input values.
    ///
    /// Returns the centroid of the aggregated output set, or the universe
    /// midpoint when no rule fires.
    ///
    /// Each output term is clipped once, at the strongest of its rules'
    /// firing strengths: `max_r min(s_r, μ) = min(max_r s_r, μ)` holds
    /// bit for bit because `min` and `max` return an operand. The clipped
    /// terms are aggregated only over the samples where their tabulated
    /// degree can be non-zero. A skipped sample would add `±0.0` to the
    /// centroid sums, and those sums never become `−0.0`, so skipping it
    /// changes no bit either.
    ///
    /// Each input term's degree is evaluated once, into a stack buffer
    /// the rules read their antecedents from. The clip and the aggregate
    /// are plain comparisons, which equal `min` and `max` unless an
    /// operand is NaN or `−0.0`, and none is: a tabulated degree is
    /// finite and never `−0.0`; a rule's strength folds from `1.0` with
    /// `f64::min`, which drops the NaN degree of a NaN input, and a
    /// term's strength folds those from `0.0` with `f64::max`; and the
    /// aggregate starts at `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not match the number of inputs.
    #[must_use]
    pub fn infer(&self, values: &[f64]) -> f64 {
        assert_eq!(
            values.len(),
            self.inputs.len(),
            "fuzzy input count mismatch"
        );
        // Every input term's degree, once, in input order.
        let mut degrees = [0.0_f64; MAX_INPUT_TERMS];
        let evaluated = self
            .inputs
            .iter()
            .zip(values)
            .flat_map(|(terms, &x)| terms.iter().map(move |term| term.mf.degree(x)));
        for (slot, degree) in degrees.iter_mut().zip(evaluated) {
            *slot = degree;
        }
        // Aggregate (max of clipped consequents) over the fired terms.
        let mut mu = [0.0_f64; SAMPLES];
        let (mut first, mut end) = (SAMPLES, 0);
        for consequent in &self.consequents {
            let strength = consequent
                .rules
                .iter()
                .map(|slots| slots.iter().map(|&k| degrees[k]).fold(1.0, f64::min))
                .fold(0.0, f64::max);
            if strength > 0.0 {
                let support = consequent.support.clone();
                for (m, &d) in mu[support.clone()]
                    .iter_mut()
                    .zip(&consequent.degree[support])
                {
                    let clipped = if d < strength { d } else { strength };
                    *m = if clipped > *m { clipped } else { *m };
                }
                first = first.min(consequent.support.start);
                end = end.max(consequent.support.end);
            }
        }

        // Centroid over the samples any fired term reaches.
        let walked = first..end.max(first);
        let mut num = 0.0;
        let mut den = 0.0;
        for (&m, &y) in mu[walked.clone()].iter().zip(&self.samples[walked]) {
            num += m * y;
            den += m;
        }
        if den == 0.0 {
            let (lo, hi) = self.output_universe;
            0.5 * (lo + hi)
        } else {
            num / den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FuzzyController;
    use proptest::prelude::*;

    fn tri(a: f64, b: f64, c: f64) -> MembershipFunction {
        MembershipFunction::Triangle { a, b, c }
    }

    /// The per-sample Mamdani evaluation that `infer` replaced, kept as
    /// its oracle: every fired rule clips its consequent, evaluated
    /// afresh, at every centroid sample.
    fn per_sample_infer(e: &FuzzyEngine, values: &[f64]) -> f64 {
        assert_eq!(values.len(), e.inputs.len(), "fuzzy input count mismatch");
        let strengths: Vec<f64> = e
            .rules
            .iter()
            .map(|rule| {
                rule.antecedents
                    .iter()
                    .enumerate()
                    .filter_map(|(var, term)| term.map(|t| e.inputs[var][t].mf.degree(values[var])))
                    .fold(1.0, f64::min)
            })
            .collect();
        let (lo, hi) = e.output_universe;
        let mut num = 0.0;
        let mut den = 0.0;
        for k in 0..SAMPLES {
            let y = lo + (hi - lo) * (k as f64) / ((SAMPLES - 1) as f64);
            let mut mu: f64 = 0.0;
            for (rule, &s) in e.rules.iter().zip(&strengths) {
                if s > 0.0 {
                    let clipped = s.min(e.output_terms[rule.consequent].mf.degree(y));
                    mu = mu.max(clipped);
                }
            }
            num += mu * y;
            den += mu;
        }
        if den == 0.0 {
            0.5 * (lo + hi)
        } else {
            num / den
        }
    }

    /// Deterministic uniform draws in [0, 1) (splitmix64).
    fn uniform(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n`.
    fn pick(seed: &mut u64, n: usize) -> usize {
        ((uniform(seed) * n as f64) as usize).min(n - 1)
    }

    /// A random well-formed membership function reaching a quarter span
    /// past `[lo, hi]` on either side: shoulders, plain and
    /// sub-sample-narrow triangles, and trapezoids with sloped or
    /// vertical sides. Half the time the parameters sit exactly on
    /// centroid samples of `[lo, hi]`, so feet and peaks land on them.
    fn random_mf(seed: &mut u64, lo: f64, hi: f64) -> MembershipFunction {
        let on_samples = uniform(seed) < 0.5;
        let mut p = [0.0; 4];
        for x in &mut p {
            let k = -25.0 + 150.0 * uniform(seed);
            *x = if on_samples {
                lo + (hi - lo) * k.round() / ((SAMPLES - 1) as f64)
            } else {
                lo + (hi - lo) * k / ((SAMPLES - 1) as f64)
            };
        }
        p.sort_by(f64::total_cmp);
        let [a, b, c, d] = p;
        match pick(seed, 6) {
            0 => tri(a, a, c),
            1 => tri(a, c, c),
            2 => tri(a, b, c),
            3 => {
                let width = (hi - lo) / (SAMPLES - 1) as f64 * uniform(seed);
                tri(b, b + 0.5 * width, b + width)
            }
            4 => MembershipFunction::Trapezoid { a, b, c, d },
            _ => MembershipFunction::Trapezoid { a, b: a, c: d, d },
        }
    }

    /// A random engine: one to three inputs on `[−1, 1]` of one to five
    /// terms each or, a quarter of the time, of `MAX_INPUT_TERMS` terms
    /// in all, filling the degree buffer; one to five output terms on a
    /// random universe; and one to 24 rules with a quarter of their
    /// antecedents don't-care.
    fn random_engine(seed: &mut u64) -> FuzzyEngine {
        let mut counts: Vec<usize> = (0..1 + pick(seed, 3)).map(|_| 1 + pick(seed, 5)).collect();
        if uniform(seed) < 0.25 {
            counts.fill(1);
            for _ in counts.len()..MAX_INPUT_TERMS {
                let var = pick(seed, counts.len());
                counts[var] += 1;
            }
        }
        let inputs: Vec<Vec<Term>> = counts
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| Term {
                        label: "in",
                        mf: random_mf(seed, -1.0, 1.0),
                    })
                    .collect()
            })
            .collect();
        let (lo, hi) = if uniform(seed) < 0.5 {
            (-1.0, 1.0)
        } else {
            let lo = -3.0 + 4.0 * uniform(seed);
            (lo, lo + 0.1 + 4.0 * uniform(seed))
        };
        let outputs: Vec<Term> = (0..1 + pick(seed, 5))
            .map(|_| Term {
                label: "out",
                mf: random_mf(seed, lo, hi),
            })
            .collect();
        let mut rules = Vec::new();
        for _ in 0..1 + pick(seed, 24) {
            let mut antecedents = Vec::new();
            for terms in &inputs {
                let care = uniform(seed) < 0.75;
                antecedents.push(care.then(|| pick(seed, terms.len())));
            }
            rules.push(Rule {
                antecedents,
                consequent: pick(seed, outputs.len()),
            });
        }
        FuzzyEngine::new(inputs, outputs, (lo, hi), rules)
    }

    /// The values worth probing for one input: its terms' feet and peaks,
    /// the universe ends ±1 and NaN.
    fn landmarks(terms: &[Term]) -> Vec<f64> {
        let mut xs = vec![-1.0, 1.0, f64::NAN];
        for term in terms {
            match term.mf {
                MembershipFunction::Triangle { a, b, c } => xs.extend([a, b, c]),
                MembershipFunction::Trapezoid { a, b, c, d } => xs.extend([a, b, c, d]),
            }
        }
        xs
    }

    fn assert_infer_matches_oracle(e: &FuzzyEngine, values: &[f64]) {
        assert_eq!(
            e.infer(values).to_bits(),
            per_sample_infer(e, values).to_bits(),
            "inputs {values:?}"
        );
    }

    #[test]
    fn paper_engine_matches_per_sample_evaluation_bit_for_bit() {
        let e = FuzzyController::paper_engine();
        let axis = |var: usize| {
            let mut xs = landmarks(&e.inputs[var]);
            xs.extend((0..=200).map(|k| -1.0 + f64::from(k) / 100.0));
            xs
        };
        let (errors, rates) = (axis(0), axis(1));
        for &error in &errors {
            for &rate in &rates {
                assert_infer_matches_oracle(e, &[error, rate]);
            }
        }
    }

    /// Two thirds of the fuzzy steps a fleet of soaked cabins serves have
    /// the error clamped at ±1: walk the paper engine along all four
    /// clamp edges of its input square.
    #[test]
    fn paper_engine_matches_per_sample_evaluation_along_the_clamp_edges() {
        let e = FuzzyController::paper_engine();
        for k in 0..=2000 {
            let x = -1.0 + f64::from(k) / 1000.0;
            for edge in [-1.0, 1.0] {
                assert_infer_matches_oracle(e, &[edge, x]);
                assert_infer_matches_oracle(e, &[x, edge]);
            }
        }
    }

    proptest! {
        #[test]
        fn infer_matches_per_sample_evaluation_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut seed = seed;
            let e = random_engine(&mut seed);
            let candidates: Vec<Vec<f64>> = e
                .inputs
                .iter()
                .map(|terms| {
                    let mut xs = landmarks(terms);
                    xs.push(-1.25 + 2.5 * uniform(&mut seed));
                    xs
                })
                .collect();
            for _ in 0..32 {
                let values: Vec<f64> = candidates
                    .iter()
                    .map(|xs| xs[pick(&mut seed, xs.len())])
                    .collect();
                let (fast, oracle) = (e.infer(&values), per_sample_infer(&e, &values));
                prop_assert_eq!(fast.to_bits(), oracle.to_bits(), "inputs {:?}", values);
            }
        }
    }

    #[test]
    fn triangle_degrees() {
        let m = tri(-1.0, 0.0, 2.0);
        assert_eq!(m.degree(-1.0), 0.0);
        assert_eq!(m.degree(0.0), 1.0);
        assert_eq!(m.degree(1.0), 0.5);
        assert_eq!(m.degree(2.0), 0.0);
        assert_eq!(m.degree(5.0), 0.0);
    }

    #[test]
    fn shoulder_triangles_saturate() {
        // Left shoulder: a == b.
        let left = tri(-1.0, -1.0, 0.0);
        assert_eq!(left.degree(-1.0), 1.0);
        assert_eq!(left.degree(-2.0), 1.0);
        assert_eq!(left.degree(-0.5), 0.5);
        // Right shoulder: b == c.
        let right = tri(0.0, 1.0, 1.0);
        assert_eq!(right.degree(1.0), 1.0);
        assert_eq!(right.degree(2.0), 1.0);
    }

    #[test]
    fn trapezoid_degrees() {
        let m = MembershipFunction::Trapezoid {
            a: 0.0,
            b: 1.0,
            c: 2.0,
            d: 4.0,
        };
        assert_eq!(m.degree(0.5), 0.5);
        assert_eq!(m.degree(1.5), 1.0);
        assert_eq!(m.degree(3.0), 0.5);
        assert_eq!(m.degree(5.0), 0.0);
    }

    fn two_term_engine() -> FuzzyEngine {
        let neg = Term {
            label: "neg",
            mf: tri(-1.0, -1.0, 0.0),
        };
        let pos = Term {
            label: "pos",
            mf: tri(0.0, 1.0, 1.0),
        };
        FuzzyEngine::new(
            vec![vec![neg.clone(), pos.clone()]],
            vec![neg, pos],
            (-1.0, 1.0),
            vec![
                Rule {
                    antecedents: vec![Some(0)],
                    consequent: 0,
                },
                Rule {
                    antecedents: vec![Some(1)],
                    consequent: 1,
                },
            ],
        )
    }

    #[test]
    fn inference_tracks_input_sign() {
        let e = two_term_engine();
        assert!(e.infer(&[0.9]) > 0.3);
        assert!(e.infer(&[-0.9]) < -0.3);
        // Balanced input fires both rules equally: centroid near zero.
        assert!(e.infer(&[0.0]).abs() < 0.05);
    }

    #[test]
    fn inference_is_monotone_for_monotone_rules() {
        let e = two_term_engine();
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=20 {
            let x = -1.0 + 0.1 * f64::from(k);
            let y = e.infer(&[x]);
            assert!(y >= prev - 1e-9, "non-monotone at {x}");
            prev = y;
        }
    }

    #[test]
    fn dont_care_antecedents() {
        let any = Term {
            label: "any",
            mf: MembershipFunction::Trapezoid {
                a: -2.0,
                b: -1.0,
                c: 1.0,
                d: 2.0,
            },
        };
        let e = FuzzyEngine::new(
            vec![vec![any.clone()], vec![any.clone()]],
            vec![any],
            (0.0, 2.0),
            vec![Rule {
                antecedents: vec![None, Some(0)],
                consequent: 0,
            }],
        );
        // First input ignored entirely.
        assert_eq!(e.infer(&[99.0, 0.0]), e.infer(&[-99.0, 0.0]));
    }

    #[test]
    fn no_firing_returns_midpoint() {
        let narrow = Term {
            label: "narrow",
            mf: tri(0.4, 0.5, 0.6),
        };
        let e = FuzzyEngine::new(
            vec![vec![narrow.clone()]],
            vec![narrow],
            (0.0, 1.0),
            vec![Rule {
                antecedents: vec![Some(0)],
                consequent: 0,
            }],
        );
        assert_eq!(e.infer(&[-5.0]), 0.5);
        assert_infer_matches_oracle(&e, &[-5.0]);
        // A rule fires, but its consequent is zero at every centroid
        // sample: nothing is aggregated either.
        let between_samples = Term {
            label: "between",
            mf: tri(0.501, 0.502, 0.503),
        };
        let e = FuzzyEngine::new(
            vec![vec![Term {
                label: "narrow",
                mf: tri(0.4, 0.5, 0.6),
            }]],
            vec![between_samples],
            (0.0, 1.0),
            vec![Rule {
                antecedents: vec![Some(0)],
                consequent: 0,
            }],
        );
        assert_eq!(e.infer(&[0.5]), 0.5);
        assert_infer_matches_oracle(&e, &[0.5]);
    }

    #[test]
    #[should_panic(expected = "antecedent count")]
    fn rejects_malformed_rule() {
        let t = Term {
            label: "t",
            mf: tri(0.0, 0.5, 1.0),
        };
        let _ = FuzzyEngine::new(
            vec![vec![t.clone()], vec![t.clone()]],
            vec![t],
            (0.0, 1.0),
            vec![Rule {
                antecedents: vec![Some(0)],
                consequent: 0,
            }],
        );
    }

    /// A one-input, one-rule engine whose input and output terms are `mf`.
    fn engine_with(mf: MembershipFunction, universe: (f64, f64)) -> FuzzyEngine {
        let t = Term { label: "t", mf };
        FuzzyEngine::new(
            vec![vec![t.clone()]],
            vec![t],
            universe,
            vec![Rule {
                antecedents: vec![Some(0)],
                consequent: 0,
            }],
        )
    }

    #[test]
    #[should_panic(expected = "finite, ordered parameters")]
    fn rejects_nan_parameters() {
        let _ = engine_with(tri(f64::NAN, 0.5, 1.0), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "finite, ordered parameters")]
    fn rejects_infinite_parameters() {
        let _ = engine_with(
            MembershipFunction::Trapezoid {
                a: f64::NEG_INFINITY,
                b: 0.0,
                c: 0.5,
                d: 1.0,
            },
            (0.0, 1.0),
        );
    }

    #[test]
    #[should_panic(expected = "finite, ordered parameters")]
    fn rejects_parameters_spanning_an_infinite_width() {
        let _ = engine_with(tri(-f64::MAX, 0.0, f64::MAX), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "finite, ordered parameters")]
    fn rejects_inverted_triangle() {
        let _ = engine_with(tri(1.0, 0.5, 0.0), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "finite, ordered parameters")]
    fn rejects_inverted_trapezoid() {
        let _ = engine_with(
            MembershipFunction::Trapezoid {
                a: 0.0,
                b: 0.25,
                c: 1.0,
                d: 0.75,
            },
            (0.0, 1.0),
        );
    }

    #[test]
    #[should_panic(expected = "finite, non-empty interval")]
    fn rejects_infinite_universe() {
        let _ = engine_with(tri(0.0, 0.5, 1.0), (0.0, f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "at most 32 terms in all")]
    fn rejects_more_input_terms_than_the_degree_buffer_holds() {
        let t = Term {
            label: "t",
            mf: tri(0.0, 0.5, 1.0),
        };
        let _ = FuzzyEngine::new(
            vec![
                vec![t.clone(); MAX_INPUT_TERMS / 2],
                vec![t.clone(); MAX_INPUT_TERMS / 2 + 1],
            ],
            vec![t],
            (0.0, 1.0),
            vec![Rule {
                antecedents: vec![Some(0), Some(0)],
                consequent: 0,
            }],
        );
    }
}
