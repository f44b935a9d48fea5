//! Workload generators: the tree instances the experiments run on.
//!
//! The paper analyzes uniform `d`-ary trees of height `n` (`B(d,n)` for
//! NOR/AND-OR trees, `M(d,n)` for MIN/MAX trees).  This module provides:
//!
//! * [`UniformSource`] — `B(d,n)` / `M(d,n)` with pluggable leaf values;
//! * [`IidBernoulli`] — i.i.d. Boolean leaves (Section 6's i.i.d. model),
//!   including the Althöfer-critical bias `p = (√5−1)/2`;
//! * [`WorstCaseNor`] — instances on which Sequential SOLVE must evaluate
//!   *every* leaf (Section 6: "any deterministic algorithm would have to
//!   evaluate all the leaves in the worst case");
//! * [`ConstLeaf`] — all-equal MIN/MAX leaves: with the `α ≥ β` pruning
//!   rule these meet the Knuth–Moore minimum `d^⌊n/2⌋ + d^⌈n/2⌉ − 1`
//!   exactly (Fact 2 / experiment E10);
//! * [`WorstOrderedMinMax`] — MIN/MAX instances whose children are ordered
//!   worst-to-best at every node, defeating all α-β cutoffs;
//! * [`IidMinMax`] — i.i.d. integer leaves for MIN/MAX trees;
//! * [`NearUniformSource`] — the "close to uniform" trees of Corollary 2
//!   (arity in `[⌈αd⌉, d]`, leaf depth in `[⌈βn⌉, n]`).

use crate::source::{path_hash, path_hash_step, TreeSource, Value};

/// The golden-ratio leaf bias `p = (√5 − 1)/2 ≈ 0.618` from Althöfer's
/// i.i.d. analysis cited in Section 6.  At this bias a uniform binary
/// NOR tree is "critical": the root value does not converge to a
/// constant as the height grows.  (It is the complement of the d = 2
/// fixpoint returned by [`critical_bias`].)
pub const CRITICAL_BIAS: f64 = 0.618_033_988_749_894_9;

/// The level-invariant ("critical") leaf bias for uniform `d`-ary NOR
/// trees: the fixpoint of `x = (1 − x)^d`, so that every level of the
/// tree has the same probability of being 1 and the root value stays
/// non-degenerate at any height.  For `d = 2` this is
/// `(3 − √5)/2 ≈ 0.382`.
pub fn critical_bias(d: u32) -> f64 {
    assert!(d >= 1);
    // g(x) = (1-x)^d - x is strictly decreasing on [0,1] with g(0) > 0,
    // g(1) < 0: bisect.
    let g = |x: f64| (1.0 - x).powi(d as i32) - x;
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if g(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Pluggable leaf-value assignment for [`UniformSource`].
///
/// The key methods are those of [`TreeSource`] (see
/// [`TreeSource::walk_key`]), which [`UniformSource`] forwards here: an
/// assignment implements all three or none, and the defaults read
/// [`value`](LeafValues::value).
pub trait LeafValues: Sync {
    /// The value of the leaf at `path` (the full root-to-leaf path).
    fn value(&self, path: &[u32]) -> Value;

    /// The walk key of the node at `path`.
    fn walk_key(&self, _path: &[u32]) -> u64 {
        0
    }

    /// The walk key of child `child` of the node whose key is `key`.
    fn child_key(&self, _key: u64, _child: u32) -> u64 {
        0
    }

    /// The value of the leaf at `path`, whose walk key is `key`.
    fn value_keyed(&self, path: &[u32], _key: u64) -> Value {
        self.value(path)
    }
}

impl<F: Fn(&[u32]) -> Value + Sync> LeafValues for F {
    fn value(&self, path: &[u32]) -> Value {
        self(path)
    }
}

/// A uniform `d`-ary tree of height `n` (`B(d,n)` or `M(d,n)` depending
/// on how the leaves are interpreted).
pub struct UniformSource<L> {
    degree: u32,
    height: u32,
    leaves: L,
}

impl<L: LeafValues> UniformSource<L> {
    /// A uniform tree with the given leaf-value assignment.
    pub fn new(degree: u32, height: u32, leaves: L) -> Self {
        assert!(degree >= 1);
        Self {
            degree,
            height,
            leaves,
        }
    }

    /// Branching factor `d`.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Height `n`.
    pub fn height(&self) -> u32 {
        self.height
    }
}

impl UniformSource<IidBernoulli> {
    /// `B(d,n)` with i.i.d. Bernoulli(`p`) leaves.
    pub fn nor_iid(degree: u32, height: u32, p: f64, seed: u64) -> Self {
        Self::new(degree, height, IidBernoulli::new(p, seed))
    }

    /// `B(d,n)` at the critical bias `p = (√5−1)/2`.
    pub fn nor_critical(degree: u32, height: u32, seed: u64) -> Self {
        Self::nor_iid(degree, height, CRITICAL_BIAS, seed)
    }
}

impl UniformSource<WorstCaseNor> {
    /// `B(d,n)` on which Sequential SOLVE evaluates all `d^n` leaves.
    pub fn nor_worst_case(degree: u32, height: u32) -> Self {
        Self::new(degree, height, WorstCaseNor::new(degree))
    }
}

impl UniformSource<IidMinMax> {
    /// `M(d,n)` with i.i.d. integer leaves in `[lo, hi]`.
    pub fn minmax_iid(degree: u32, height: u32, lo: Value, hi: Value, seed: u64) -> Self {
        Self::new(degree, height, IidMinMax::new(lo, hi, seed))
    }
}

impl UniformSource<ConstLeaf> {
    /// `M(d,n)` with all-equal leaves — the best-ordered (minimal-work)
    /// instance under the `α ≥ β` pruning rule.
    pub fn minmax_best_ordered(degree: u32, height: u32, value: Value) -> Self {
        Self::new(degree, height, ConstLeaf(value))
    }
}

impl UniformSource<WorstOrderedMinMax> {
    /// `M(d,n)` whose children are ordered worst-to-best everywhere, so
    /// that sequential α-β evaluates all `d^n` leaves.
    pub fn minmax_worst_ordered(degree: u32, height: u32) -> Self {
        Self::new(degree, height, WorstOrderedMinMax::new(degree, height))
    }
}

impl<L: LeafValues> TreeSource for UniformSource<L> {
    fn arity(&self, path: &[u32]) -> u32 {
        if (path.len() as u32) < self.height {
            self.degree
        } else {
            0
        }
    }

    fn leaf_value(&self, path: &[u32]) -> Value {
        debug_assert_eq!(path.len() as u32, self.height);
        self.leaves.value(path)
    }

    fn height_hint(&self) -> Option<u32> {
        Some(self.height)
    }

    fn walk_key(&self, path: &[u32]) -> u64 {
        self.leaves.walk_key(path)
    }

    fn child_key(&self, key: u64, child: u32) -> u64 {
        self.leaves.child_key(key, child)
    }

    fn leaf_value_keyed(&self, path: &[u32], key: u64) -> Value {
        debug_assert_eq!(path.len() as u32, self.height);
        self.leaves.value_keyed(path, key)
    }
}

/// I.i.d. Bernoulli leaf values: leaf is `1` with probability `p`,
/// deterministically derived from `(seed, path)` so the instance is
/// reproducible and never materialized.
pub struct IidBernoulli {
    /// Probability threshold scaled to `u64` range.
    threshold: u64,
    seed: u64,
}

impl IidBernoulli {
    /// Bernoulli(`p`) leaves seeded by `seed`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let threshold = if p >= 1.0 {
            u64::MAX
        } else {
            (p * (u64::MAX as f64)) as u64
        };
        Self { threshold, seed }
    }
}

/// The walk key is the running [`path_hash`], so a search pays one hash
/// step per node instead of one per level at every leaf.
impl LeafValues for IidBernoulli {
    fn value(&self, path: &[u32]) -> Value {
        self.value_keyed(path, self.walk_key(path))
    }

    fn walk_key(&self, path: &[u32]) -> u64 {
        path_hash(self.seed, path)
    }

    fn child_key(&self, key: u64, child: u32) -> u64 {
        path_hash_step(key, child)
    }

    fn value_keyed(&self, _path: &[u32], key: u64) -> Value {
        Value::from(key <= self.threshold)
    }
}

/// The worst-case NOR instance: leaf values chosen so the left-to-right
/// sequential algorithm can never stop early and evaluates all `d^n`
/// leaves.
///
/// Construction (propagating a *target value* down the tree): a node with
/// target `1` gives all children target `0`; a node with target `0` gives
/// its last child target `1` and all the others target `0`.  A NOR node
/// whose children are all `0` has value `1` but forces the sequential
/// algorithm to look at every child; a node with a single `1` in last
/// position has value `0` and again no early exit is possible.
pub struct WorstCaseNor {
    degree: u32,
    root_target: Value,
}

impl WorstCaseNor {
    /// Worst-case leaves for a `d`-ary tree, root value `1`.
    pub fn new(degree: u32) -> Self {
        Self {
            degree,
            root_target: 1,
        }
    }

    /// Worst-case leaves with a chosen root value (`0` or `1`).
    pub fn with_root_target(degree: u32, root_target: Value) -> Self {
        assert!(root_target == 0 || root_target == 1);
        Self {
            degree,
            root_target,
        }
    }

    /// The target value at `path` — for a leaf path this is its value.
    pub fn target(&self, path: &[u32]) -> Value {
        let mut t = self.root_target;
        for &i in path {
            t = if t == 1 {
                0
            } else {
                Value::from(i == self.degree - 1)
            };
        }
        t
    }
}

impl LeafValues for WorstCaseNor {
    fn value(&self, path: &[u32]) -> Value {
        self.target(path)
    }
}

/// All leaves equal.  Under the `α ≥ β` pruning rule this is the
/// best-ordered MIN/MAX instance: sequential α-β evaluates exactly the
/// Knuth–Moore minimum `d^⌊n/2⌋ + d^⌈n/2⌉ − 1` leaves.
pub struct ConstLeaf(pub Value);

impl LeafValues for ConstLeaf {
    fn value(&self, _path: &[u32]) -> Value {
        self.0
    }
}

/// I.i.d. integer MIN/MAX leaves uniform in `[lo, hi]`.
pub struct IidMinMax {
    lo: Value,
    span: u64,
    seed: u64,
}

impl IidMinMax {
    /// Uniform leaves in the inclusive range `[lo, hi]`.
    pub fn new(lo: Value, hi: Value, seed: u64) -> Self {
        assert!(lo <= hi);
        Self {
            lo,
            span: (hi - lo) as u64 + 1,
            seed,
        }
    }
}

/// Keyed like [`IidBernoulli`]: the walk key is the running [`path_hash`].
impl LeafValues for IidMinMax {
    fn value(&self, path: &[u32]) -> Value {
        self.value_keyed(path, self.walk_key(path))
    }

    fn walk_key(&self, path: &[u32]) -> u64 {
        path_hash(self.seed, path)
    }

    fn child_key(&self, key: u64, child: u32) -> u64 {
        path_hash_step(key, child)
    }

    fn value_keyed(&self, _path: &[u32], key: u64) -> Value {
        self.lo + (key % self.span) as Value
    }
}

/// Worst-ordered MIN/MAX leaves: at every node the children are ordered
/// from worst to best for the player to move, so α-β never achieves a
/// cutoff and evaluates all `d^n` leaves.
///
/// Construction: each node owns a half-open value interval; a MAX node
/// splits its interval into `d` increasing bands (child values improve
/// left to right), a MIN node into `d` decreasing bands.  All values in a
/// subtree stay inside the subtree's band, so no window `(α, β)` ever
/// closes before the last child.
pub struct WorstOrderedMinMax {
    degree: u32,
    height: u32,
}

impl WorstOrderedMinMax {
    /// Worst-ordered leaves for `M(d,n)`.
    pub fn new(degree: u32, height: u32) -> Self {
        // Interval width d^height must fit comfortably in i64.
        let bits = (degree as f64).log2() * height as f64;
        assert!(bits < 61.0, "d^n too large for the interval construction");
        Self { degree, height }
    }
}

impl LeafValues for WorstOrderedMinMax {
    fn value(&self, path: &[u32]) -> Value {
        let d = self.degree as i64;
        let mut lo: i64 = 0;
        let mut width: i64 = d.pow(self.height);
        for (depth, &i) in path.iter().enumerate() {
            width /= d;
            let is_max = depth % 2 == 0;
            let band = if is_max { i as i64 } else { d - 1 - i as i64 };
            lo += band * width;
        }
        lo // width is 1 at leaf depth
    }
}

/// Depth-correlated MIN/MAX leaves: each edge contributes a bounded
/// pseudo-random increment and the leaf value is the sum along its
/// path — a random-walk model in which sibling subtrees have similar
/// values, like the incremental evaluations of real game programs.
/// Correlation makes the left-to-right ordering informative, so α-β
/// behaves between the best-ordered and i.i.d. extremes.
pub struct CorrelatedMinMax {
    seed: u64,
    /// Per-edge increments are drawn uniformly from `[-spread, spread]`.
    spread: Value,
}

impl CorrelatedMinMax {
    /// Random-walk leaves with the given per-edge spread.
    pub fn new(spread: Value, seed: u64) -> Self {
        assert!(spread >= 0);
        CorrelatedMinMax { seed, spread }
    }
}

impl LeafValues for CorrelatedMinMax {
    fn value(&self, path: &[u32]) -> Value {
        let span = 2 * self.spread as u64 + 1;
        let mut sum: Value = 0;
        for i in 0..path.len() {
            let h = path_hash(self.seed, &path[..=i]);
            sum += (h % span) as Value - self.spread;
        }
        sum
    }
}

impl UniformSource<CorrelatedMinMax> {
    /// `M(d,n)` with random-walk (depth-correlated) leaves.
    pub fn minmax_correlated(degree: u32, height: u32, spread: Value, seed: u64) -> Self {
        Self::new(degree, height, CorrelatedMinMax::new(spread, seed))
    }
}

/// The near-uniform trees of Corollary 2: every internal node has between
/// `⌈α·d⌉` and `d` children and every root-leaf path has length between
/// `⌈β·n⌉` and `n`.  Shape decisions are deterministic functions of
/// `(seed, path)` so the tree is consistent and reproducible.
pub struct NearUniformSource<L> {
    degree: u32,
    height: u32,
    min_degree: u32,
    min_height: u32,
    seed: u64,
    leaves: L,
}

impl<L: LeafValues> NearUniformSource<L> {
    /// A near-uniform tree: arity in `[⌈alpha·d⌉, d]`, leaf depth in
    /// `[⌈beta·n⌉, n]`.
    pub fn new(degree: u32, height: u32, alpha: f64, beta: f64, seed: u64, leaves: L) -> Self {
        assert!((0.0..=1.0).contains(&alpha) && alpha > 0.0);
        assert!((0.0..=1.0).contains(&beta) && beta > 0.0);
        let min_degree = ((alpha * degree as f64).ceil() as u32).clamp(1, degree);
        let min_height = ((beta * height as f64).ceil() as u32).min(height);
        Self {
            degree,
            height,
            min_degree,
            min_height,
            seed,
            leaves,
        }
    }
}

impl<L: LeafValues> TreeSource for NearUniformSource<L> {
    fn arity(&self, path: &[u32]) -> u32 {
        let depth = path.len() as u32;
        if depth >= self.height {
            return 0;
        }
        let h = path_hash(self.seed ^ 0x5eed_1234, path);
        // After the minimum depth, roughly one node in four becomes an
        // early leaf.
        if depth >= self.min_height && h.is_multiple_of(4) {
            return 0;
        }
        let span = self.degree - self.min_degree + 1;
        self.min_degree + ((h >> 32) % span as u64) as u32
    }

    fn leaf_value(&self, path: &[u32]) -> Value {
        self.leaves.value(path)
    }

    fn height_hint(&self) -> Option<u32> {
        Some(self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitTree;

    #[test]
    fn uniform_source_shape() {
        let s = UniformSource::nor_iid(3, 2, 0.5, 1);
        assert_eq!(s.arity(&[]), 3);
        assert_eq!(s.arity(&[0]), 3);
        assert_eq!(s.arity(&[0, 2]), 0);
        let t = ExplicitTree::from_source(&&s, 10);
        assert!(t.is_uniform(3, 2));
    }

    #[test]
    fn iid_bernoulli_extremes() {
        let ones = IidBernoulli::new(1.0, 7);
        let zeros = IidBernoulli::new(0.0, 7);
        for path in [&[0u32, 1][..], &[2, 2], &[1, 0]] {
            assert_eq!(ones.value(path), 1);
            assert_eq!(zeros.value(path), 0);
        }
    }

    #[test]
    fn iid_bernoulli_is_seed_dependent_and_reproducible() {
        let a = IidBernoulli::new(0.5, 1);
        let b = IidBernoulli::new(0.5, 1);
        let c = IidBernoulli::new(0.5, 2);
        let paths: Vec<Vec<u32>> = (0..64).map(|i| vec![i % 2, i / 2]).collect();
        let va: Vec<_> = paths.iter().map(|p| a.value(p)).collect();
        let vb: Vec<_> = paths.iter().map(|p| b.value(p)).collect();
        let vc: Vec<_> = paths.iter().map(|p| c.value(p)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc, "different seeds should differ somewhere");
    }

    #[test]
    fn iid_bernoulli_frequency_tracks_p() {
        let g = IidBernoulli::new(0.25, 42);
        let mut ones = 0;
        let trials = 4000u32;
        for i in 0..trials {
            ones += g.value(&[i, i >> 8]) as u32;
        }
        let freq = ones as f64 / trials as f64;
        assert!((freq - 0.25).abs() < 0.05, "freq {freq} too far from 0.25");
    }

    #[test]
    fn worst_case_targets_binary() {
        // Root target 1, d = 2: children targets (0,0); a 0-node's
        // children are (0,1).
        let w = WorstCaseNor::new(2);
        assert_eq!(w.target(&[]), 1);
        assert_eq!(w.target(&[0]), 0);
        assert_eq!(w.target(&[1]), 0);
        assert_eq!(w.target(&[0, 0]), 0);
        assert_eq!(w.target(&[0, 1]), 1);
    }

    #[test]
    fn worst_ordered_minmax_values_are_distinct_and_in_range() {
        let g = WorstOrderedMinMax::new(2, 3);
        let mut vals = Vec::new();
        for a in 0..2u32 {
            for b in 0..2u32 {
                for c in 0..2u32 {
                    vals.push(g.value(&[a, b, c]));
                }
            }
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "values must be distinct: {vals:?}");
        assert!(vals.iter().all(|&v| (0..8).contains(&v)));
    }

    #[test]
    fn worst_ordered_children_improve_for_the_mover() {
        // At the MAX root, subtree values must increase left to right.
        let g = WorstOrderedMinMax::new(3, 2);
        let s = UniformSource::new(3, 2, g);
        let t = ExplicitTree::from_source(&&s, 5);
        let vals: Vec<Value> = match &t {
            ExplicitTree::Internal(c) => c
                .iter()
                .map(|child| match child {
                    // child is a MIN node: its value is the min leaf.
                    ExplicitTree::Internal(leaves) => leaves
                        .iter()
                        .map(|l| match l {
                            ExplicitTree::Leaf(v) => *v,
                            _ => unreachable!(),
                        })
                        .min()
                        .unwrap(),
                    _ => unreachable!(),
                })
                .collect(),
            _ => unreachable!(),
        };
        assert!(vals.windows(2).all(|w| w[0] < w[1]), "{vals:?}");
    }

    #[test]
    fn near_uniform_respects_bounds() {
        let s = NearUniformSource::new(4, 8, 0.5, 0.5, 3, IidBernoulli::new(0.5, 3));
        // Probe a bunch of paths; arity must be 0 or within [2, 4], and no
        // leaf may appear above depth 4.
        fn walk(s: &NearUniformSource<IidBernoulli>, path: &mut Vec<u32>, depth: u32) {
            let d = s.arity(path);
            if d == 0 {
                assert!(depth >= 4, "leaf too shallow at {path:?}");
                return;
            }
            assert!((2..=4).contains(&d), "arity {d} out of range");
            if depth < 8 {
                for i in 0..d {
                    path.push(i);
                    walk(s, path, depth + 1);
                    path.pop();
                }
            }
        }
        walk(&s, &mut Vec::new(), 0);
    }

    #[test]
    fn correlated_leaves_are_path_correlated() {
        // Sibling leaves share all but the last edge, so their values
        // differ by at most 2*spread; distant leaves can drift further.
        let g = CorrelatedMinMax::new(5, 3);
        let a = g.value(&[0, 0, 0, 0]);
        let b = g.value(&[0, 0, 0, 1]);
        assert!((a - b).abs() <= 10, "siblings too far apart: {a} vs {b}");
        // Deterministic.
        assert_eq!(a, CorrelatedMinMax::new(5, 3).value(&[0, 0, 0, 0]));
    }

    #[test]
    fn correlated_ordering_helps_alpha_beta() {
        use crate::minimax::seq_alphabeta;
        // Correlated trees should cost alpha-beta no more than i.i.d.
        // trees of the same size on average (ordering information).
        let mut corr = 0u64;
        let mut iid = 0u64;
        for seed in 0..10 {
            let c = UniformSource::minmax_correlated(2, 10, 4, seed);
            corr += seq_alphabeta(&c, false).leaves_evaluated;
            let u = UniformSource::minmax_iid(2, 10, -40, 40, seed);
            iid += seq_alphabeta(&u, false).leaves_evaluated;
        }
        assert!(
            corr < iid * 2,
            "correlated {corr} unexpectedly dwarfs iid {iid}"
        );
    }

    #[test]
    fn critical_bias_value() {
        assert!((CRITICAL_BIAS - (5f64.sqrt() - 1.0) / 2.0).abs() < 1e-15);
    }

    #[test]
    fn critical_bias_fixpoints() {
        // d = 2: x = (1-x)² ⇒ x = (3-√5)/2.
        let x2 = critical_bias(2);
        assert!((x2 - (3.0 - 5f64.sqrt()) / 2.0).abs() < 1e-12);
        assert!(
            (x2 + CRITICAL_BIAS - 1.0).abs() < 1e-9,
            "complement relation"
        );
        for d in [1u32, 3, 5, 8] {
            let x = critical_bias(d);
            assert!((0.0..=1.0).contains(&x));
            assert!(((1.0 - x).powi(d as i32) - x).abs() < 1e-12, "d={d}");
        }
    }
}
