//! Reference (ground-truth) evaluators.
//!
//! Everything here is a plain recursive algorithm over a [`TreeSource`]:
//!
//! * [`nor_value`] / [`minimax_value`] — exhaustive evaluation with no
//!   pruning (the definitionally-correct value every other algorithm must
//!   agree with);
//! * [`seq_solve`] — the paper's *Sequential SOLVE* (program `S-SOLVE`):
//!   left-to-right NOR evaluation with early exit, reporting `S(T)` and,
//!   optionally, the evaluated leaf set `L(T)` (needed to build the
//!   skeleton `H_T`);
//! * [`seq_alphabeta`] — the paper's *Sequential α-β* realized as the
//!   classical fail-hard depth-first procedure with `α ≥ β` cutoffs,
//!   reporting `S̃(T)` and `L̃(T)`.
//!
//! [`seq_solve_cancellable`], [`seq_alphabeta_windowed`] and
//! [`seq_alphabeta_windowed_cancellable`] also take a `root` path and
//! evaluate the subtree hanging there, in place: the path buffer starts
//! as `root` and children are pushed and popped on it, so the source
//! sees whole-tree paths and the subtree needs no adapter.  Counters
//! are those of the subtree alone, and recorded `leaf_paths` are
//! absolute (each begins with `root`).  Those kernels also carry the
//! source's walk key down the recursion ([`TreeSource::walk_key`]): the
//! root's key is derived once, each child's from its parent's, and
//! leaves are read with [`TreeSource::leaf_value_keyed`], so a keyed
//! source answers a leaf in constant time instead of re-walking its
//! path.  The exhaustive evaluators stay path-based, an independent
//! oracle for the keyed kernels.
//!
//! These recursive versions exist alongside the step-driven simulators in
//! `gt-sim` for two reasons: they are *fast* (no per-step frontier scan),
//! and they provide an independent implementation to cross-check the
//! simulators against (width 0 of the parallel algorithms must reproduce
//! them step for step).

use crate::source::{Cancelled, NodeKind, TreeSource, Value};
use std::sync::atomic::{AtomicBool, Ordering};

/// How many leaf evaluations pass between cancellation-flag checks in
/// the cancellable baselines.  Power of two so the check is a mask.
const CANCEL_CHECK_MASK: u64 = 1024 - 1;

/// Statistics from a sequential evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqStats {
    /// The value computed for the root.
    pub value: Value,
    /// Leaves evaluated — the paper's `S(T)` (or `S̃(T)` for α-β).
    pub leaves_evaluated: u64,
    /// Nodes expanded (visited), the node-expansion model's `S*(T)`.
    pub nodes_expanded: u64,
    /// Pruning events: internal nodes whose remaining children were
    /// skipped (NOR short-circuit on a nonzero child; `α ≥ β` cutoffs).
    pub cutoffs: u64,
    /// The evaluated leaf paths in evaluation order, when requested.
    /// Paths are absolute: a rooted run's paths begin with its root.
    pub leaf_paths: Option<Vec<Vec<u32>>>,
}

/// Exhaustively evaluate a NOR tree: a node is `1` iff all children are
/// `0`; leaves carry their own values.
pub fn nor_value<S: TreeSource>(source: &S) -> Value {
    fn go<S: TreeSource>(s: &S, path: &mut Vec<u32>) -> Value {
        let d = s.arity(path);
        if d == 0 {
            return s.leaf_value(path);
        }
        let mut all_zero = true;
        for i in 0..d {
            path.push(i);
            if go(s, path) != 0 {
                all_zero = false;
            }
            path.pop();
        }
        Value::from(all_zero)
    }
    go(source, &mut Vec::new())
}

/// Exhaustively evaluate a MIN/MAX tree (root is MAX, levels alternate).
pub fn minimax_value<S: TreeSource>(source: &S) -> Value {
    fn go<S: TreeSource>(s: &S, path: &mut Vec<u32>, maximizing: bool) -> Value {
        let d = s.arity(path);
        if d == 0 {
            return s.leaf_value(path);
        }
        let mut best = if maximizing { Value::MIN } else { Value::MAX };
        for i in 0..d {
            path.push(i);
            let v = go(s, path, !maximizing);
            path.pop();
            best = if maximizing { best.max(v) } else { best.min(v) };
        }
        best
    }
    go(source, &mut Vec::new(), true)
}

/// The value of an AND/OR tree whose NOR representation is `source`:
/// identical up to the complementation noted in Section 2.  Provided so
/// users thinking in AND/OR terms get the conventional answer (root is an
/// OR node).
pub fn and_or_value<S: TreeSource>(source: &S) -> Value {
    // An AND/OR tree with OR root converts to a NOR tree computing the
    // complement of the OR-root value when leaves are complemented; for
    // the uniform trees studied here we simply evaluate by minimax over
    // booleans: OR = max, AND = min.
    fn go<S: TreeSource>(s: &S, path: &mut Vec<u32>, or_level: bool) -> Value {
        let d = s.arity(path);
        if d == 0 {
            return s.leaf_value(path);
        }
        let mut best = if or_level { 0 } else { 1 };
        for i in 0..d {
            path.push(i);
            let v = go(s, path, !or_level);
            path.pop();
            best = if or_level { best.max(v) } else { best.min(v) };
        }
        best
    }
    go(source, &mut Vec::new(), true)
}

/// Sequential SOLVE (the left-to-right algorithm, program `S-SOLVE`).
///
/// Set `record_leaves` to also collect `L(T)`, the evaluated leaf set, in
/// evaluation order — the ingredient of the skeleton `H_T`.
pub fn seq_solve<S: TreeSource>(source: &S, record_leaves: bool) -> SeqStats {
    let never = AtomicBool::new(false);
    seq_solve_cancellable(source, &[], record_leaves, &never).expect("never cancelled")
}

/// [`seq_solve`] of the subtree at `root` (empty for the whole tree),
/// with cooperative cancellation: the flag is sampled every
/// [`CANCEL_CHECK_MASK`]` + 1` leaf evaluations (cheap enough to be free)
/// and a set flag abandons the run with [`Cancelled`].  NOR subtrees
/// are NOR trees, so no player or window is needed.
pub fn seq_solve_cancellable<S: TreeSource>(
    source: &S,
    root: &[u32],
    record_leaves: bool,
    cancel: &AtomicBool,
) -> Result<SeqStats, Cancelled> {
    #[inline(always)]
    fn node<S: TreeSource>(
        w: &mut Walk<'_, S>,
        path: &mut Vec<u32>,
        key: u64,
    ) -> Result<Value, Cancelled> {
        match w.expand(path, key)? {
            NodeKind::Leaf(v) => Ok(v),
            NodeKind::Internal(d) => children(w, path, key, d),
        }
    }
    fn children<S: TreeSource>(
        w: &mut Walk<'_, S>,
        path: &mut Vec<u32>,
        key: u64,
        d: u32,
    ) -> Result<Value, Cancelled> {
        for i in 0..d {
            path.push(i);
            let b = node(w, path, w.s.child_key(key, i));
            path.pop();
            if b? != 0 {
                if i + 1 < d {
                    w.cutoffs += 1;
                }
                return Ok(0);
            }
        }
        Ok(1)
    }
    let mut w = Walk::new(source, cancel, record_leaves);
    let value = node(&mut w, &mut root.to_vec(), source.walk_key(root))?;
    Ok(w.stats(value))
}

/// Sequential α-β: fail-hard depth-first search with the paper's `α ≥ β`
/// pruning rule (which realizes both shallow and deep cutoffs).
pub fn seq_alphabeta<S: TreeSource>(source: &S, record_leaves: bool) -> SeqStats {
    let never = AtomicBool::new(false);
    seq_alphabeta_cancellable(source, record_leaves, &never).expect("never cancelled")
}

/// [`seq_alphabeta`] with cooperative cancellation (see
/// [`seq_solve_cancellable`] for the sampling cadence).
pub fn seq_alphabeta_cancellable<S: TreeSource>(
    source: &S,
    record_leaves: bool,
    cancel: &AtomicBool,
) -> Result<SeqStats, Cancelled> {
    seq_alphabeta_windowed_cancellable(
        source,
        &[],
        record_leaves,
        Value::MIN,
        Value::MAX,
        true,
        cancel,
    )
}

/// α-β of the subtree at `root` from an arbitrary starting window and
/// player: the entry point for *partial* (subtree) evaluation, where
/// the caller has already established bounds at an ancestor and knows
/// which player moves at the subtree root (`maximizing`).  With
/// `(&[], Value::MIN, Value::MAX, true)` this is exactly
/// [`seq_alphabeta`].
///
/// The search is fail-soft: the returned value may fall outside
/// `(alpha, beta)`, in which case it is a bound on the true value (an
/// upper bound when `value <= alpha`, a lower bound when
/// `value >= beta`) rather than the value itself.
pub fn seq_alphabeta_windowed<S: TreeSource>(
    source: &S,
    root: &[u32],
    record_leaves: bool,
    alpha: Value,
    beta: Value,
    maximizing: bool,
) -> SeqStats {
    let never = AtomicBool::new(false);
    seq_alphabeta_windowed_cancellable(source, root, record_leaves, alpha, beta, maximizing, &never)
        .expect("never cancelled")
}

/// [`seq_alphabeta_windowed`] with cooperative cancellation.
pub fn seq_alphabeta_windowed_cancellable<S: TreeSource>(
    source: &S,
    root: &[u32],
    record_leaves: bool,
    alpha: Value,
    beta: Value,
    maximizing: bool,
    cancel: &AtomicBool,
) -> Result<SeqStats, Cancelled> {
    #[inline(always)]
    fn node<S: TreeSource>(
        w: &mut Walk<'_, S>,
        path: &mut Vec<u32>,
        key: u64,
        alpha: Value,
        beta: Value,
        maximizing: bool,
    ) -> Result<Value, Cancelled> {
        match w.expand(path, key)? {
            NodeKind::Leaf(v) => Ok(v),
            NodeKind::Internal(d) => children(w, path, key, d, alpha, beta, maximizing),
        }
    }
    fn children<S: TreeSource>(
        w: &mut Walk<'_, S>,
        path: &mut Vec<u32>,
        key: u64,
        d: u32,
        mut alpha: Value,
        mut beta: Value,
        maximizing: bool,
    ) -> Result<Value, Cancelled> {
        let mut best = if maximizing { Value::MIN } else { Value::MAX };
        for i in 0..d {
            path.push(i);
            let v = node(w, path, w.s.child_key(key, i), alpha, beta, !maximizing);
            path.pop();
            let v = v?;
            if maximizing {
                best = best.max(v);
                alpha = alpha.max(best);
            } else {
                best = best.min(v);
                beta = beta.min(best);
            }
            if alpha >= beta {
                if i + 1 < d {
                    w.cutoffs += 1;
                }
                break;
            }
        }
        Ok(best)
    }
    let mut w = Walk::new(source, cancel, record_leaves);
    let key = source.walk_key(root);
    let value = node(&mut w, &mut root.to_vec(), key, alpha, beta, maximizing)?;
    Ok(w.stats(value))
}

/// The state both sequential kernels carry down their recursion.  Each
/// kernel splits a node's visit into [`Walk::expand`] and a recursive
/// search of its children, and inlines the first into the second's
/// loop, so reading a leaf costs no call.
struct Walk<'a, S> {
    s: &'a S,
    cancel: &'a AtomicBool,
    leaves: u64,
    expanded: u64,
    cutoffs: u64,
    record: Option<Vec<Vec<u32>>>,
}

impl<'a, S: TreeSource> Walk<'a, S> {
    fn new(s: &'a S, cancel: &'a AtomicBool, record_leaves: bool) -> Self {
        Walk {
            s,
            cancel,
            leaves: 0,
            expanded: 0,
            cutoffs: 0,
            record: record_leaves.then(Vec::new),
        }
    }

    /// Expand the node at `path`, whose walk key is `key`: its arity,
    /// or its value if it is a leaf.  Leaves sample the cancel flag.
    #[inline(always)]
    fn expand(&mut self, path: &[u32], key: u64) -> Result<NodeKind, Cancelled> {
        self.expanded += 1;
        let d = self.s.arity(path);
        if d > 0 {
            return Ok(NodeKind::Internal(d));
        }
        if self.leaves & CANCEL_CHECK_MASK == 0 && self.cancel.load(Ordering::Relaxed) {
            return Err(Cancelled);
        }
        self.leaves += 1;
        if let Some(r) = &mut self.record {
            r.push(path.to_vec());
        }
        Ok(NodeKind::Leaf(self.s.leaf_value_keyed(path, key)))
    }

    fn stats(self, value: Value) -> SeqStats {
        SeqStats {
            value,
            leaves_evaluated: self.leaves,
            nodes_expanded: self.expanded,
            cutoffs: self.cutoffs,
            leaf_paths: self.record,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitTree;
    use crate::gen::UniformSource;

    fn nor_sample() -> ExplicitTree {
        // NOR tree: root(NOR) over [NOR(1,0)=0, leaf 0] → children (0,0) → 1.
        ExplicitTree::internal(vec![
            ExplicitTree::internal(vec![ExplicitTree::leaf(1), ExplicitTree::leaf(0)]),
            ExplicitTree::leaf(0),
        ])
    }

    #[test]
    fn nor_value_ground_truth() {
        assert_eq!(nor_value(&nor_sample()), 1);
        assert_eq!(nor_value(&ExplicitTree::leaf(0)), 0);
        assert_eq!(nor_value(&ExplicitTree::leaf(1)), 1);
    }

    #[test]
    fn seq_solve_early_exit() {
        // Root children: first child evaluates to 1 ⇒ root 0 without
        // touching the second subtree.
        let t = ExplicitTree::internal(vec![
            ExplicitTree::internal(vec![ExplicitTree::leaf(0), ExplicitTree::leaf(0)]),
            ExplicitTree::internal(vec![ExplicitTree::leaf(0), ExplicitTree::leaf(0)]),
        ]);
        let st = seq_solve(&t, true);
        assert_eq!(st.value, 0);
        assert_eq!(st.leaves_evaluated, 2);
        assert_eq!(st.leaf_paths.unwrap(), vec![vec![0, 0], vec![0, 1]]);
    }

    #[test]
    fn seq_solve_stops_within_a_node_on_a_one() {
        let t = ExplicitTree::internal(vec![
            ExplicitTree::leaf(1),
            ExplicitTree::leaf(0),
            ExplicitTree::leaf(0),
        ]);
        let st = seq_solve(&t, false);
        assert_eq!(st.value, 0);
        assert_eq!(st.leaves_evaluated, 1);
        assert_eq!(st.nodes_expanded, 2); // root + first leaf
    }

    #[test]
    fn worst_case_nor_evaluates_everything() {
        for (d, n) in [(2u32, 6u32), (3, 4), (4, 3)] {
            let s = UniformSource::nor_worst_case(d, n);
            let st = seq_solve(&s, false);
            assert_eq!(st.leaves_evaluated, (d as u64).pow(n), "d={d} n={n}");
            assert_eq!(st.value, nor_value(&s));
        }
    }

    #[test]
    fn minimax_matches_exhaustive_on_small_tree() {
        let t = ExplicitTree::internal(vec![
            ExplicitTree::internal(vec![ExplicitTree::leaf(3), ExplicitTree::leaf(9)]),
            ExplicitTree::internal(vec![ExplicitTree::leaf(7), ExplicitTree::leaf(1)]),
        ]);
        // MAX( MIN(3,9)=3, MIN(7,1)=1 ) = 3
        assert_eq!(minimax_value(&t), 3);
        let st = seq_alphabeta(&t, true);
        assert_eq!(st.value, 3);
        // Alpha-beta: after MIN(3,9)=3, second MIN sees 7 then 1; with
        // fail-hard windows the 1 closes the window after being read.
        assert!(st.leaves_evaluated <= 4);
    }

    #[test]
    fn alphabeta_cutoff_happens() {
        // MAX(MIN(5, _), MIN(4, X)): after the first MIN returns ≤5 is
        // known exactly (5 if second leaf ≥5); second MIN's first leaf 4
        // with α=5 ⇒ β=4 ≤ α ⇒ X never evaluated.
        let t = ExplicitTree::internal(vec![
            ExplicitTree::internal(vec![ExplicitTree::leaf(5), ExplicitTree::leaf(8)]),
            ExplicitTree::internal(vec![ExplicitTree::leaf(4), ExplicitTree::leaf(100)]),
        ]);
        let st = seq_alphabeta(&t, true);
        assert_eq!(st.value, 5);
        assert_eq!(st.leaves_evaluated, 3);
        assert_eq!(
            st.leaf_paths.unwrap(),
            vec![vec![0, 0], vec![0, 1], vec![1, 0]]
        );
    }

    #[test]
    fn alphabeta_agrees_with_minimax_on_iid_trees() {
        for seed in 0..10 {
            let s = UniformSource::minmax_iid(3, 4, 0, 100, seed);
            assert_eq!(seq_alphabeta(&s, false).value, minimax_value(&s));
        }
    }

    #[test]
    fn best_ordered_meets_knuth_moore_minimum() {
        for (d, n) in [(2u32, 6u32), (3, 4), (4, 4), (5, 3)] {
            let s = UniformSource::minmax_best_ordered(d, n, 42);
            let st = seq_alphabeta(&s, false);
            let expect = (d as u64).pow(n / 2) + (d as u64).pow(n.div_ceil(2)) - 1;
            assert_eq!(st.leaves_evaluated, expect, "d={d} n={n}");
        }
    }

    #[test]
    fn worst_ordered_defeats_all_pruning() {
        for (d, n) in [(2u32, 6u32), (3, 4), (4, 3)] {
            let s = UniformSource::minmax_worst_ordered(d, n);
            let st = seq_alphabeta(&s, false);
            assert_eq!(st.leaves_evaluated, (d as u64).pow(n), "d={d} n={n}");
            assert_eq!(st.value, minimax_value(&s));
        }
    }

    #[test]
    fn windowed_alphabeta_full_window_is_plain_alphabeta() {
        let s = UniformSource::minmax_iid(3, 4, 0, 100, 13);
        let plain = seq_alphabeta(&s, true);
        let windowed = seq_alphabeta_windowed(&s, &[], true, Value::MIN, Value::MAX, true);
        assert_eq!(plain, windowed);
    }

    #[test]
    fn windowed_alphabeta_narrow_window_prunes_more_but_bounds_truth() {
        for seed in 0..20 {
            let s = UniformSource::minmax_iid(3, 4, 0, 100, seed);
            let truth = minimax_value(&s);
            let full = seq_alphabeta(&s, false);
            let (alpha, beta) = (truth - 5, truth + 5);
            let narrow = seq_alphabeta_windowed(&s, &[], false, alpha, beta, true);
            // The truth lies strictly inside the window, so the windowed
            // search returns it exactly — with no more work than the
            // full-window search.
            assert_eq!(narrow.value, truth, "seed {seed}");
            assert!(narrow.leaves_evaluated <= full.leaves_evaluated);
            // A window strictly above the truth fails low: the result is
            // an upper bound on the truth, at or below α.
            let lo = seq_alphabeta_windowed(&s, &[], false, truth + 1, truth + 10, true);
            assert!(lo.value >= truth && lo.value <= truth + 1, "seed {seed}");
            // A window strictly below fails high: a lower bound, ≥ β.
            let hi = seq_alphabeta_windowed(&s, &[], false, truth - 10, truth - 1, true);
            assert!(hi.value <= truth && hi.value >= truth - 1, "seed {seed}");
        }
    }

    #[test]
    fn cancellable_baselines_match_plain_runs_when_never_cancelled() {
        let never = AtomicBool::new(false);
        let s = UniformSource::nor_iid(2, 8, 0.5, 7);
        let plain = seq_solve(&s, true);
        let c = seq_solve_cancellable(&s, &[], true, &never).unwrap();
        assert_eq!(plain, c);
        let m = UniformSource::minmax_iid(3, 4, 0, 50, 7);
        let plain = seq_alphabeta(&m, true);
        let c = seq_alphabeta_cancellable(&m, true, &never).unwrap();
        assert_eq!(plain, c);
    }

    #[test]
    fn preset_flag_cancels_before_any_leaf() {
        let set = AtomicBool::new(true);
        let s = UniformSource::nor_worst_case(2, 10);
        assert_eq!(seq_solve_cancellable(&s, &[], false, &set), Err(Cancelled));
        let m = UniformSource::minmax_worst_ordered(2, 10);
        assert_eq!(seq_alphabeta_cancellable(&m, false, &set), Err(Cancelled));
    }

    #[test]
    fn flag_set_mid_run_stops_within_one_check_window() {
        // A source that flips the flag after 3000 leaf reads: the run
        // must abandon at the next 1024-boundary check, well short of
        // the tree's 2^14 leaves.
        struct Tripwire<'a, L> {
            inner: UniformSource<L>,
            reads: std::sync::atomic::AtomicU64,
            flag: &'a AtomicBool,
        }
        impl<L> TreeSource for Tripwire<'_, L>
        where
            UniformSource<L>: TreeSource,
        {
            fn arity(&self, path: &[u32]) -> u32 {
                self.inner.arity(path)
            }
            fn leaf_value(&self, path: &[u32]) -> Value {
                if self.reads.fetch_add(1, Ordering::Relaxed) == 3000 {
                    self.flag.store(true, Ordering::Relaxed);
                }
                self.inner.leaf_value(path)
            }
        }
        let flag = AtomicBool::new(false);
        let s = Tripwire {
            inner: UniformSource::nor_worst_case(2, 14),
            reads: std::sync::atomic::AtomicU64::new(0),
            flag: &flag,
        };
        assert_eq!(seq_solve_cancellable(&s, &[], false, &flag), Err(Cancelled));
        let reads = s.reads.load(Ordering::Relaxed);
        assert!(
            (3000..3000 + 2048).contains(&reads),
            "stopped after {reads} leaves"
        );
    }

    #[test]
    fn and_or_value_single_leaf() {
        assert_eq!(and_or_value(&ExplicitTree::leaf(1)), 1);
        let t = ExplicitTree::internal(vec![ExplicitTree::leaf(0), ExplicitTree::leaf(1)]);
        // OR(0, 1) = 1.
        assert_eq!(and_or_value(&t), 1);
    }
}
