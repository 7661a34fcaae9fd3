//! Stationary (history-agnostic) policies: `μ(d | c)`.

use ddn_stats::rng::Rng;
use ddn_trace::{Context, ContextKey, Decision, DecisionSpace};
use std::collections::HashMap;

/// Boxed score function used by [`GreedyPolicy`] and [`SoftmaxPolicy`].
pub type ScoreFn = Box<dyn Fn(&Context, Decision) -> f64 + Send + Sync>;

/// A stationary decision policy.
///
/// Implementors must guarantee that for every context the probabilities
/// over the decision space are non-negative and sum to 1 (within floating
/// point). The default `probabilities`/`sample` methods are derived from
/// [`Policy::prob`].
pub trait Policy {
    /// The decision space this policy selects from.
    fn space(&self) -> &DecisionSpace;

    /// The probability `μ(d | c)` of choosing decision `d` for context `c`.
    fn prob(&self, ctx: &Context, d: Decision) -> f64;

    /// The full probability vector over decisions for `ctx`.
    fn probabilities(&self, ctx: &Context) -> Vec<f64> {
        self.space().iter().map(|d| self.prob(ctx, d)).collect()
    }

    /// Samples a decision for `ctx`.
    fn sample(&self, ctx: &Context, rng: &mut dyn Rng) -> Decision {
        self.sample_with_prob(ctx, rng).0
    }

    /// Samples a decision and returns it with its probability — exactly
    /// what a logging pipeline should record as the propensity.
    fn sample_with_prob(&self, ctx: &Context, rng: &mut dyn Rng) -> (Decision, f64) {
        let probs = self.probabilities(ctx);
        let u = rng.next_f64();
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return (Decision::from_index(i), p);
            }
        }
        // Floating-point slack: fall back to the last decision with
        // positive probability.
        let i = probs
            .iter()
            .rposition(|&p| p > 0.0)
            .expect("policy assigned zero probability to every decision");
        (Decision::from_index(i), probs[i])
    }

    /// Whether the policy is deterministic for this context (one decision
    /// carries all the mass).
    fn is_deterministic_at(&self, ctx: &Context) -> bool {
        self.probabilities(ctx).iter().any(|&p| p >= 1.0 - 1e-12)
    }
}

/// Uniform random policy over the whole decision space — the logging
/// policy used by CFA's randomized data collection (paper §2.2.2).
#[derive(Debug, Clone)]
pub struct UniformRandomPolicy {
    space: DecisionSpace,
}

impl UniformRandomPolicy {
    /// Creates a uniform policy on `space`.
    pub fn new(space: DecisionSpace) -> Self {
        Self { space }
    }
}

impl Policy for UniformRandomPolicy {
    fn space(&self) -> &DecisionSpace {
        &self.space
    }

    fn prob(&self, _ctx: &Context, d: Decision) -> f64 {
        assert!(d.index() < self.space.len(), "decision out of range");
        1.0 / self.space.len() as f64
    }
}

/// Deterministic policy defined by a score function: always picks the
/// decision with the highest score for the context (ties broken toward the
/// lower index). Models production policies that are "designed to optimize
/// performance or save cost" (paper §4.1).
pub struct GreedyPolicy {
    space: DecisionSpace,
    score: ScoreFn,
}

impl GreedyPolicy {
    /// Creates a greedy policy from a score function.
    pub fn new(
        space: DecisionSpace,
        score: impl Fn(&Context, Decision) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Self {
            space,
            score: Box::new(score),
        }
    }

    /// The argmax decision for `ctx`.
    pub fn best(&self, ctx: &Context) -> Decision {
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for d in self.space.iter() {
            let s = (self.score)(ctx, d);
            assert!(!s.is_nan(), "score function returned NaN");
            if s > best_score {
                best_score = s;
                best = d.index();
            }
        }
        Decision::from_index(best)
    }
}

impl std::fmt::Debug for GreedyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GreedyPolicy")
            .field("space", &self.space)
            .finish_non_exhaustive()
    }
}

impl Policy for GreedyPolicy {
    fn space(&self) -> &DecisionSpace {
        &self.space
    }

    fn prob(&self, ctx: &Context, d: Decision) -> f64 {
        if self.best(ctx) == d {
            1.0
        } else {
            0.0
        }
    }
}

/// Tabular deterministic policy: an explicit context → decision map with a
/// default decision for unseen contexts.
#[derive(Debug, Clone)]
pub struct LookupPolicy {
    space: DecisionSpace,
    table: HashMap<ContextKey, usize>,
    default: usize,
}

impl LookupPolicy {
    /// Creates a lookup policy with the given default decision index.
    ///
    /// # Panics
    /// Panics if `default` is out of range.
    pub fn new(space: DecisionSpace, default: usize) -> Self {
        assert!(default < space.len(), "default decision out of range");
        Self {
            space,
            table: HashMap::new(),
            default,
        }
    }

    /// A constant policy: every context maps to `decision`.
    pub fn constant(space: DecisionSpace, decision: usize) -> Self {
        Self::new(space, decision)
    }

    /// Assigns `decision` to `ctx`.
    ///
    /// # Panics
    /// Panics if `decision` is out of range.
    pub fn insert(&mut self, ctx: &Context, decision: usize) {
        assert!(decision < self.space.len(), "decision out of range");
        self.table.insert(ctx.key(), decision);
    }

    /// The decision this policy takes for `ctx`. A constant policy (an
    /// empty table) answers without building the context's key, so it
    /// allocates nothing.
    pub fn decide(&self, ctx: &Context) -> Decision {
        if self.table.is_empty() {
            return Decision::from_index(self.default);
        }
        Decision::from_index(*self.table.get(&ctx.key()).unwrap_or(&self.default))
    }
}

impl Policy for LookupPolicy {
    fn space(&self) -> &DecisionSpace {
        &self.space
    }

    fn prob(&self, ctx: &Context, d: Decision) -> f64 {
        if self.decide(ctx) == d {
            1.0
        } else {
            0.0
        }
    }
}

/// ε-greedy: with probability `1 − ε` follow a base deterministic choice,
/// with probability `ε` pick uniformly at random.
pub struct EpsilonGreedyPolicy {
    inner: EpsilonSmoothedPolicy,
}

impl EpsilonGreedyPolicy {
    /// Wraps a greedy score function with ε exploration.
    pub fn new(
        space: DecisionSpace,
        epsilon: f64,
        score: impl Fn(&Context, Decision) -> f64 + Send + Sync + 'static,
    ) -> Self {
        let greedy = GreedyPolicy::new(space, score);
        Self {
            inner: EpsilonSmoothedPolicy::new(Box::new(greedy), epsilon),
        }
    }
}

impl Policy for EpsilonGreedyPolicy {
    fn space(&self) -> &DecisionSpace {
        self.inner.space()
    }

    fn prob(&self, ctx: &Context, d: Decision) -> f64 {
        self.inner.prob(ctx, d)
    }
}

/// ε-smoothing wrapper: mixes any base policy with the uniform distribution.
///
/// `μ'(d|c) = (1 − ε) μ(d|c) + ε / |D|`.
///
/// This is the paper's §4.1 recommendation made concrete: it bounds every
/// propensity below by `ε / |D|`, capping IPS/DR importance weights at
/// `|D| / ε` while perturbing the base policy's decisions only with
/// probability ε.
pub struct EpsilonSmoothedPolicy {
    base: Box<dyn Policy + Send + Sync>,
    epsilon: f64,
}

impl EpsilonSmoothedPolicy {
    /// Wraps `base` with smoothing parameter `epsilon`.
    ///
    /// # Panics
    /// Panics unless `0 <= epsilon <= 1`.
    pub fn new(base: Box<dyn Policy + Send + Sync>, epsilon: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "epsilon must be in [0,1], got {epsilon}"
        );
        Self { base, epsilon }
    }

    /// The smoothing parameter.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The guaranteed lower bound on any propensity: `ε / |D|`.
    pub fn propensity_floor(&self) -> f64 {
        self.epsilon / self.space().len() as f64
    }
}

impl std::fmt::Debug for EpsilonSmoothedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpsilonSmoothedPolicy")
            .field("epsilon", &self.epsilon)
            .finish_non_exhaustive()
    }
}

impl Policy for EpsilonSmoothedPolicy {
    fn space(&self) -> &DecisionSpace {
        self.base.space()
    }

    fn prob(&self, ctx: &Context, d: Decision) -> f64 {
        let k = self.space().len() as f64;
        (1.0 - self.epsilon) * self.base.prob(ctx, d) + self.epsilon / k
    }
}

/// Softmax (Boltzmann) policy over a score function with temperature `tau`:
/// `μ(d|c) ∝ exp(score(c,d) / tau)`.
pub struct SoftmaxPolicy {
    space: DecisionSpace,
    score: ScoreFn,
    tau: f64,
}

impl SoftmaxPolicy {
    /// Creates a softmax policy.
    ///
    /// # Panics
    /// Panics unless `tau > 0`.
    pub fn new(
        space: DecisionSpace,
        tau: f64,
        score: impl Fn(&Context, Decision) -> f64 + Send + Sync + 'static,
    ) -> Self {
        assert!(
            tau > 0.0 && tau.is_finite(),
            "temperature must be positive, got {tau}"
        );
        Self {
            space,
            score: Box::new(score),
            tau,
        }
    }
}

impl std::fmt::Debug for SoftmaxPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftmaxPolicy")
            .field("space", &self.space)
            .field("tau", &self.tau)
            .finish_non_exhaustive()
    }
}

impl Policy for SoftmaxPolicy {
    fn space(&self) -> &DecisionSpace {
        &self.space
    }

    fn prob(&self, ctx: &Context, d: Decision) -> f64 {
        self.probabilities(ctx)[d.index()]
    }

    fn probabilities(&self, ctx: &Context) -> Vec<f64> {
        let scores: Vec<f64> = self
            .space
            .iter()
            .map(|d| (self.score)(ctx, d) / self.tau)
            .collect();
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
        let total: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / total).collect()
    }
}

/// Weighted mixture of policies: `μ(d|c) = Σ_i w_i μ_i(d|c)`.
pub struct MixturePolicy {
    components: Vec<(f64, Box<dyn Policy + Send + Sync>)>,
}

impl MixturePolicy {
    /// Creates a mixture; weights are normalized.
    ///
    /// # Panics
    /// Panics if empty, weights are invalid, or the components disagree on
    /// the decision space.
    pub fn new(components: Vec<(f64, Box<dyn Policy + Send + Sync>)>) -> Self {
        assert!(
            !components.is_empty(),
            "mixture needs at least one component"
        );
        assert!(
            components.iter().all(|(w, _)| w.is_finite() && *w >= 0.0),
            "mixture weights must be finite and non-negative"
        );
        let total: f64 = components.iter().map(|(w, _)| w).sum();
        assert!(total > 0.0, "mixture weights must not all be zero");
        let space = components[0].1.space().clone();
        assert!(
            components.iter().all(|(_, p)| *p.space() == space),
            "mixture components must share a decision space"
        );
        let components = components
            .into_iter()
            .map(|(w, p)| (w / total, p))
            .collect();
        Self { components }
    }
}

impl std::fmt::Debug for MixturePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixturePolicy")
            .field("components", &self.components.len())
            .finish_non_exhaustive()
    }
}

impl Policy for MixturePolicy {
    fn space(&self) -> &DecisionSpace {
        self.components[0].1.space()
    }

    fn prob(&self, ctx: &Context, d: Decision) -> f64 {
        self.components
            .iter()
            .map(|(w, p)| w * p.prob(ctx, d))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_stats::rng::Xoshiro256;
    use ddn_trace::ContextSchema;

    fn schema() -> ContextSchema {
        ContextSchema::builder().numeric("x").build()
    }

    fn ctx(x: f64) -> Context {
        Context::build(&schema()).set_numeric("x", x).finish()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b", "c"])
    }

    fn assert_normalized(p: &dyn Policy, c: &Context) {
        let probs = p.probabilities(c);
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "probs {probs:?} sum to {total}");
        assert!(probs.iter().all(|&q| (0.0..=1.0 + 1e-12).contains(&q)));
    }

    #[test]
    fn uniform_probabilities() {
        let p = UniformRandomPolicy::new(space());
        let c = ctx(0.0);
        assert_normalized(&p, &c);
        assert!((p.prob(&c, Decision::from_index(1)) - 1.0 / 3.0).abs() < 1e-12);
        assert!(!p.is_deterministic_at(&c));
    }

    #[test]
    fn uniform_sampling_frequency() {
        let p = UniformRandomPolicy::new(space());
        let c = ctx(0.0);
        let mut g = Xoshiro256::seed_from(1);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[p.sample(&c, &mut g).index()] += 1;
        }
        for &n in &counts {
            assert!((n as f64 / 10_000.0 - 1.0).abs() < 0.06, "{counts:?}");
        }
    }

    #[test]
    fn greedy_picks_argmax() {
        // score = decision index unless x < 0, then reversed.
        let p = GreedyPolicy::new(space(), |c, d| {
            if c.num(0) >= 0.0 {
                d.index() as f64
            } else {
                -(d.index() as f64)
            }
        });
        assert_eq!(p.best(&ctx(1.0)).index(), 2);
        assert_eq!(p.best(&ctx(-1.0)).index(), 0);
        assert_eq!(p.prob(&ctx(1.0), Decision::from_index(2)), 1.0);
        assert_eq!(p.prob(&ctx(1.0), Decision::from_index(0)), 0.0);
        assert!(p.is_deterministic_at(&ctx(1.0)));
        assert_normalized(&p, &ctx(1.0));
    }

    #[test]
    fn greedy_tie_breaks_low_index() {
        let p = GreedyPolicy::new(space(), |_, _| 1.0);
        assert_eq!(p.best(&ctx(0.0)).index(), 0);
    }

    #[test]
    fn lookup_table_and_default() {
        let mut p = LookupPolicy::new(space(), 2);
        let c0 = ctx(0.0);
        p.insert(&c0, 1);
        assert_eq!(p.decide(&c0).index(), 1);
        assert_eq!(p.decide(&ctx(9.0)).index(), 2);
        assert_normalized(&p, &c0);
    }

    #[test]
    fn epsilon_smoothing_mixes_uniform() {
        let base = LookupPolicy::constant(space(), 0);
        let p = EpsilonSmoothedPolicy::new(Box::new(base), 0.3);
        let c = ctx(0.0);
        assert!((p.prob(&c, Decision::from_index(0)) - (0.7 + 0.1)).abs() < 1e-12);
        assert!((p.prob(&c, Decision::from_index(1)) - 0.1).abs() < 1e-12);
        assert_normalized(&p, &c);
        assert!((p.propensity_floor() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn epsilon_zero_is_base_epsilon_one_is_uniform() {
        let c = ctx(0.0);
        let p0 = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 1)), 0.0);
        assert_eq!(p0.prob(&c, Decision::from_index(1)), 1.0);
        let p1 = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 1)), 1.0);
        for d in 0..3 {
            assert!((p1.prob(&c, Decision::from_index(d)) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn epsilon_greedy_sampling_matches_probs() {
        let p = EpsilonGreedyPolicy::new(space(), 0.3, |_, d| d.index() as f64);
        let c = ctx(0.0);
        let mut g = Xoshiro256::seed_from(2);
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[p.sample(&c, &mut g).index()] += 1;
        }
        // Expect 0.1 / 0.1 / 0.8.
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.8).abs() < 0.01);
    }

    #[test]
    fn softmax_orders_by_score_and_sharpens_with_low_tau() {
        let c = ctx(0.0);
        let hot = SoftmaxPolicy::new(space(), 10.0, |_, d| d.index() as f64);
        let cold = SoftmaxPolicy::new(space(), 0.1, |_, d| d.index() as f64);
        assert_normalized(&hot, &c);
        assert_normalized(&cold, &c);
        let ph = hot.probabilities(&c);
        let pc = cold.probabilities(&c);
        assert!(ph[2] > ph[1] && ph[1] > ph[0]);
        assert!(
            pc[2] > 0.99,
            "cold softmax should be nearly deterministic: {pc:?}"
        );
    }

    #[test]
    fn sample_with_prob_returns_consistent_propensity() {
        let p = SoftmaxPolicy::new(space(), 1.0, |_, d| d.index() as f64);
        let c = ctx(0.0);
        let mut g = Xoshiro256::seed_from(3);
        for _ in 0..100 {
            let (d, q) = p.sample_with_prob(&c, &mut g);
            assert!((q - p.prob(&c, d)).abs() < 1e-12);
        }
    }

    #[test]
    fn mixture_combines_components() {
        let m = MixturePolicy::new(vec![
            (
                1.0,
                Box::new(LookupPolicy::constant(space(), 0)) as Box<dyn Policy + Send + Sync>,
            ),
            (3.0, Box::new(UniformRandomPolicy::new(space()))),
        ]);
        let c = ctx(0.0);
        assert_normalized(&m, &c);
        // 0.25 * [1,0,0] + 0.75 * [1/3,1/3,1/3]
        assert!((m.prob(&c, Decision::from_index(0)) - 0.5).abs() < 1e-12);
        assert!((m.prob(&c, Decision::from_index(1)) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "share a decision space")]
    fn mixture_space_mismatch_panics() {
        let _ = MixturePolicy::new(vec![
            (
                1.0,
                Box::new(UniformRandomPolicy::new(space())) as Box<dyn Policy + Send + Sync>,
            ),
            (
                1.0,
                Box::new(UniformRandomPolicy::new(DecisionSpace::of(&["x"]))),
            ),
        ]);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0,1]")]
    fn bad_epsilon_panics() {
        let _ = EpsilonSmoothedPolicy::new(Box::new(UniformRandomPolicy::new(space())), 1.5);
    }
}
