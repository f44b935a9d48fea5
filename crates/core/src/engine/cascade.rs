//! Fork-join cascade engine: the top-down view of Parallel SOLVE /
//! Parallel α-β (programs `P-SOLVE` / `P-SOLVE*` in the paper), on the
//! persistent fork-join pool of [`gt_tree::par`] with cooperative
//! cancellation.
//!
//! At every node whose children are worth a fork, up to `width + 1`
//! consecutive children run concurrently: the leftmost with the full
//! width budget (the paper's "parallel on left subtree"), and the
//! `j`-th look-ahead sibling with budget `width − j`.  When a child's
//! result decides the node (a `1` child of a NOR node, an `α ≥ β`
//! cutoff of a MIN/MAX node), its batch siblings are pre-empted through
//! a shared flag, which they poll at every node and batch boundary
//! above the grain.
//!
//! Two kinds of node run as one rooted sequential search instead, a
//! *macro-leaf* in the paper's model: a node whose children fall below
//! [`par::worth_a_fork`] by shape (see [`super::children_worth_a_fork`]),
//! and every width-0 arm (the paper's `S-SOLVE` look-ahead).  A
//! macro-leaf polls only the request's cancel flag: it is too small to
//! be worth aborting, and it always finishes, so its leaf count depends
//! on the input alone.  On trees whose forks pay only near the root,
//! the leaf count is therefore exact; where the whole tree is below
//! the grain it equals sequential α-β's.
//!
//! The paper's algorithm *re-budgets* pruning numbers dynamically as
//! siblings die; this engine assigns budgets statically per batch, which
//! keeps it lock-free and allocation-light.  The exact dynamic semantics
//! (and the paper's step counts) live in `gt-sim` / [`super::round`];
//! this engine trades a small amount of model fidelity for practical
//! fork-join performance.  Root values are always exact: a fail-soft
//! macro-leaf value outside its window is a bound on the correct side.

use gt_tree::minimax::seq_solve_cancellable;
use gt_tree::{par, TreeSource, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use super::round::EngineResult;
use super::{children_worth_a_fork, macro_leaf_ab};

/// Marker returned when a search was pre-empted — the workspace-wide
/// [`gt_tree::Cancelled`], re-exported here because engine signatures
/// carry it in their `Err` case.
pub use gt_tree::Cancelled;

/// A chain of cancellation flags: a task is cancelled when any flag on
/// its path to the root is set.
#[derive(Clone, Copy)]
struct CancelChain<'a> {
    flag: &'a AtomicBool,
    parent: Option<&'a CancelChain<'a>>,
}

impl<'a> CancelChain<'a> {
    fn root(flag: &'a AtomicBool) -> Self {
        CancelChain { flag, parent: None }
    }

    fn child(&'a self, flag: &'a AtomicBool) -> CancelChain<'a> {
        CancelChain {
            flag,
            parent: Some(self),
        }
    }

    fn is_cancelled(&self) -> bool {
        let mut cur = Some(self);
        while let Some(c) = cur {
            if c.flag.load(Ordering::Relaxed) {
                return true;
            }
            cur = c.parent;
        }
        false
    }

    /// The request's own flag, at the root of the chain.
    fn request(&self) -> &'a AtomicBool {
        match self.parent {
            Some(p) => p.request(),
            None => self.flag,
        }
    }
}

/// Fork-join engine with the paper's width parameter.
#[derive(Debug, Clone, Copy)]
pub struct CascadeEngine {
    /// Width `w`: up to `w+1` sibling searches run concurrently per node.
    pub width: u32,
}

impl Default for CascadeEngine {
    fn default() -> Self {
        CascadeEngine { width: 1 }
    }
}

impl CascadeEngine {
    /// Engine with the given width (0 = fully sequential).
    pub fn with_width(width: u32) -> Self {
        CascadeEngine { width }
    }

    /// Evaluate a NOR tree.
    pub fn solve_nor<S: TreeSource>(&self, source: &S) -> EngineResult {
        self.solve_nor_cancellable(source, &AtomicBool::new(false))
            .expect("root search cannot be cancelled")
    }

    /// Evaluate a MIN/MAX tree (root is MAX).
    pub fn solve_minmax<S: TreeSource>(&self, source: &S) -> EngineResult {
        self.solve_minmax_cancellable(source, &AtomicBool::new(false))
            .expect("root search cannot be cancelled")
    }

    /// Like [`CascadeEngine::solve_nor`], but aborts when `cancel`
    /// becomes `true` (set it from another thread — a deadline watcher,
    /// a serving layer shedding load, a user interrupt).  The flag is
    /// checked at every node entry and between sibling batches.
    pub fn solve_nor_cancellable<S: TreeSource>(
        &self,
        source: &S,
        cancel: &AtomicBool,
    ) -> Result<EngineResult, Cancelled> {
        let start = Instant::now();
        let leaves = AtomicU64::new(0);
        let chain = CancelChain::root(cancel);
        let v = self.nor(source, &[], self.width, chain, &leaves);
        let v = Value::from(v.ok_or(Cancelled)?);
        Ok(self.result(v, leaves.into_inner(), start))
    }

    /// Like [`CascadeEngine::solve_minmax`], but aborts when `cancel`
    /// becomes `true`.
    pub fn solve_minmax_cancellable<S: TreeSource>(
        &self,
        source: &S,
        cancel: &AtomicBool,
    ) -> Result<EngineResult, Cancelled> {
        let start = Instant::now();
        let (v, leaves) = self.ab_root(source, Value::MIN, Value::MAX, true, cancel)?;
        Ok(self.result(v, leaves, start))
    }

    fn result(&self, value: Value, leaves: u64, start: Instant) -> EngineResult {
        EngineResult {
            value,
            rounds: 0, // not a round-synchronous engine
            leaves_evaluated: leaves,
            max_round_size: self.width + 1,
            elapsed: start.elapsed(),
        }
    }

    /// Alpha-beta search of the subtree at the source's root with an
    /// explicit window and orientation — the building block move
    /// selection uses (`Err(Cancelled)` can only occur for non-root
    /// calls, so callers passing a fresh window never see it).
    pub fn alphabeta_window<S: TreeSource>(
        &self,
        source: &S,
        alpha: Value,
        beta: Value,
        maximizing: bool,
    ) -> Result<Value, Cancelled> {
        self.alphabeta_window_counted(source, alpha, beta, maximizing)
            .map(|(v, _)| v)
    }

    /// Like [`CascadeEngine::alphabeta_window`] but also reports the
    /// number of leaves evaluated — used by the iterative-deepening
    /// driver to account for search effort.
    pub fn alphabeta_window_counted<S: TreeSource>(
        &self,
        source: &S,
        alpha: Value,
        beta: Value,
        maximizing: bool,
    ) -> Result<(Value, u64), Cancelled> {
        self.ab_root(source, alpha, beta, maximizing, &AtomicBool::new(false))
    }

    /// α-β from the source's root: the value and the leaves evaluated.
    fn ab_root<S: TreeSource>(
        &self,
        source: &S,
        alpha: Value,
        beta: Value,
        maximizing: bool,
        cancel: &AtomicBool,
    ) -> Result<(Value, u64), Cancelled> {
        let leaves = AtomicU64::new(0);
        let chain = CancelChain::root(cancel);
        let v = self.ab(
            source,
            &[],
            alpha,
            beta,
            maximizing,
            self.width,
            chain,
            &leaves,
        );
        Ok((v.ok_or(Cancelled)?, leaves.into_inner()))
    }

    /// NOR search.  `None` = pre-empted.
    fn nor<S: TreeSource>(
        &self,
        src: &S,
        path: &[u32],
        width: u32,
        cancel: CancelChain<'_>,
        leaves: &AtomicU64,
    ) -> Option<bool> {
        if cancel.is_cancelled() {
            return None;
        }
        let d = src.arity(path);
        if width == 0 || !children_worth_a_fork(src, path, d) {
            let st = seq_solve_cancellable(src, path, false, cancel.request()).ok()?;
            leaves.fetch_add(st.leaves_evaluated, Ordering::Relaxed);
            return Some(st.value != 0);
        }
        let mut i: u32 = 0;
        while i < d {
            if cancel.is_cancelled() {
                return None;
            }
            let k = (width + 1).min(d - i);
            let batch_flag = AtomicBool::new(false);
            let chain = cancel.child(&batch_flag);
            let results: Vec<Option<bool>> = par::map(k as usize, |j| {
                let j = j as u32;
                // One exact-size allocation per task instead of a
                // clone that would regrow on push.
                let mut p = Vec::with_capacity(path.len() + 1);
                p.extend_from_slice(path);
                p.push(i + j);
                let r = self.nor(src, &p, width - j, chain, leaves);
                if r == Some(true) {
                    // This child decides the node: pre-empt siblings.
                    batch_flag.store(true, Ordering::Relaxed);
                }
                r
            });
            if cancel.is_cancelled() {
                return None;
            }
            if results.contains(&Some(true)) {
                return Some(false);
            }
            debug_assert!(
                results.iter().all(|r| *r == Some(false)),
                "batch member aborted without a deciding sibling"
            );
            i += k;
        }
        Some(true)
    }

    /// Fail-soft alpha-beta.  `None` = pre-empted.
    #[allow(clippy::too_many_arguments)]
    fn ab<S: TreeSource>(
        &self,
        src: &S,
        path: &[u32],
        mut alpha: Value,
        mut beta: Value,
        maximizing: bool,
        width: u32,
        cancel: CancelChain<'_>,
        leaves: &AtomicU64,
    ) -> Option<Value> {
        if cancel.is_cancelled() {
            return None;
        }
        let d = src.arity(path);
        if width == 0 || !children_worth_a_fork(src, path, d) {
            return macro_leaf_ab(src, path, alpha, beta, maximizing, cancel.request(), leaves);
        }
        let mut best = if maximizing { Value::MIN } else { Value::MAX };
        let mut i: u32 = 0;
        while i < d {
            if cancel.is_cancelled() {
                return None;
            }
            let k = (width + 1).min(d - i);
            let batch_flag = AtomicBool::new(false);
            let chain = cancel.child(&batch_flag);
            let (snap_a, snap_b) = (alpha, beta);
            let results: Vec<Option<Value>> = par::map(k as usize, |j| {
                let j = j as u32;
                let mut p = Vec::with_capacity(path.len() + 1);
                p.extend_from_slice(path);
                p.push(i + j);
                let r = self.ab(
                    src,
                    &p,
                    snap_a,
                    snap_b,
                    !maximizing,
                    width - j,
                    chain,
                    leaves,
                );
                if let Some(v) = r {
                    // A fail-high (fail-low for MIN) decides the node.
                    let cutoff = if maximizing { v >= snap_b } else { v <= snap_a };
                    if cutoff {
                        batch_flag.store(true, Ordering::Relaxed);
                    }
                }
                r
            });
            if cancel.is_cancelled() {
                return None;
            }
            for v in results.into_iter().flatten() {
                if maximizing {
                    best = best.max(v);
                    alpha = alpha.max(best);
                } else {
                    best = best.min(v);
                    beta = beta.min(best);
                }
            }
            if alpha >= beta {
                return Some(best);
            }
            i += k;
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_tree::gen::UniformSource;
    use gt_tree::minimax::{minimax_value, nor_value, seq_alphabeta};
    use gt_tree::ExplicitTree;

    // Tests of the fork path also run a d=2, n=14 input, whose root
    // and depth-1 nodes fork: smaller trees are single macro-leaves.

    #[test]
    fn nor_value_exact_for_all_widths() {
        for (seed, n) in (0..10).map(|seed| (seed, 9)).chain([(10, 14)]) {
            let s = UniformSource::nor_iid(2, n, 0.5, seed);
            let truth = nor_value(&s);
            for w in [0u32, 1, 2, 3] {
                let r = CascadeEngine::with_width(w).solve_nor(&s);
                assert_eq!(r.value, truth, "w={w} seed={seed}");
            }
        }
    }

    #[test]
    fn minmax_value_exact_for_all_widths() {
        let sources = (0..10)
            .map(|seed| UniformSource::minmax_iid(3, 5, -100, 100, seed))
            .chain([UniformSource::minmax_iid(2, 14, -100, 100, 10)]);
        for (seed, s) in sources.enumerate() {
            let truth = minimax_value(&s);
            for w in [0u32, 1, 2, 3] {
                let r = CascadeEngine::with_width(w).solve_minmax(&s);
                assert_eq!(r.value, truth, "w={w} seed={seed}");
            }
        }
    }

    #[test]
    fn width_zero_evaluates_exactly_the_sequential_leaf_set() {
        for seed in 0..10 {
            let s = UniformSource::nor_iid(2, 8, 0.5, seed);
            let r = CascadeEngine::with_width(0).solve_nor(&s);
            let seq = gt_tree::minimax::seq_solve(&s, false);
            assert_eq!(r.leaves_evaluated, seq.leaves_evaluated, "seed {seed}");
            let s = UniformSource::minmax_iid(2, 6, 0, 50, seed);
            let r = CascadeEngine::with_width(0).solve_minmax(&s);
            let seq = gt_tree::minimax::seq_alphabeta(&s, false);
            assert_eq!(r.leaves_evaluated, seq.leaves_evaluated, "seed {seed}");
        }
    }

    #[test]
    fn width_one_leaf_count_depends_only_on_the_input() {
        // The benchmark's `cold` shapes: M(4,6) is one macro-leaf, and
        // M(4,7) forks at the root only, where a MAX node under the
        // full window never cuts off.
        for n in [6, 7] {
            let s = UniformSource::minmax_iid(4, n, -1000, 1000, 7);
            let first = CascadeEngine::with_width(1).solve_minmax(&s);
            for run in 1..50 {
                let r = CascadeEngine::with_width(1).solve_minmax(&s);
                assert_eq!(
                    r.leaves_evaluated, first.leaves_evaluated,
                    "n={n} run {run}"
                );
            }
            let seq = seq_alphabeta(&s, false);
            assert_eq!(first.value, seq.value);
            if n == 6 {
                assert_eq!(first.leaves_evaluated, seq.leaves_evaluated);
            }
        }
    }

    #[test]
    fn speculation_is_bounded_overhead() {
        // Corollary 1: total work of the width-1 algorithm is within a
        // constant factor of sequential.  The cascade engine speculates,
        // so check a generous factor on random instances.
        for (seed, n) in (0..10).map(|seed| (seed, 10)).chain([(10, 14)]) {
            let s = UniformSource::nor_iid(2, n, 0.5, seed);
            let seq = gt_tree::minimax::seq_solve(&s, false).leaves_evaluated;
            let par = CascadeEngine::with_width(1).solve_nor(&s).leaves_evaluated;
            assert!(
                par <= 6 * seq + 16,
                "speculative blow-up {par} vs {seq} (seed {seed})"
            );
        }
    }

    #[test]
    fn alphabeta_window_orientation() {
        // MIN at the root of the subtree: value is the min of leaves.
        let t = ExplicitTree::internal(vec![ExplicitTree::leaf(5), ExplicitTree::leaf(2)]);
        let e = CascadeEngine::with_width(1);
        let v = e
            .alphabeta_window(&t, Value::MIN, Value::MAX, false)
            .unwrap();
        assert_eq!(v, 2);
        let v = e
            .alphabeta_window(&t, Value::MIN, Value::MAX, true)
            .unwrap();
        assert_eq!(v, 5);
    }

    #[test]
    fn single_leaf_and_unary_chain() {
        let e = CascadeEngine::default();
        assert_eq!(e.solve_nor(&ExplicitTree::leaf(1)).value, 1);
        let chain =
            ExplicitTree::internal(vec![ExplicitTree::internal(vec![ExplicitTree::leaf(0)])]);
        // NOR(NOR(0)) = NOR(1) = 0.
        assert_eq!(e.solve_nor(&chain).value, 0);
    }

    #[test]
    fn pre_set_cancel_flag_aborts_immediately() {
        let s = UniformSource::nor_worst_case(2, 12);
        let flag = AtomicBool::new(true);
        let r = CascadeEngine::with_width(1).solve_nor_cancellable(&s, &flag);
        assert_eq!(r.unwrap_err(), Cancelled);
        let s = UniformSource::minmax_iid(2, 8, 0, 9, 1);
        let r = CascadeEngine::with_width(1).solve_minmax_cancellable(&s, &flag);
        assert_eq!(r.unwrap_err(), Cancelled);
    }

    #[test]
    fn unset_cancel_flag_matches_plain_solve() {
        let flag = AtomicBool::new(false);
        for n in [9, 14] {
            let s = UniformSource::nor_iid(2, n, 0.5, 4);
            let plain = CascadeEngine::with_width(1).solve_nor(&s);
            let cancellable = CascadeEngine::with_width(1)
                .solve_nor_cancellable(&s, &flag)
                .unwrap();
            assert_eq!(cancellable.value, plain.value);
        }
        for (d, n) in [(3, 5), (2, 14)] {
            let s = UniformSource::minmax_iid(d, n, -50, 50, 4);
            let plain = CascadeEngine::with_width(2).solve_minmax(&s);
            let cancellable = CascadeEngine::with_width(2)
                .solve_minmax_cancellable(&s, &flag)
                .unwrap();
            assert_eq!(cancellable.value, plain.value);
        }
    }

    #[test]
    fn mid_flight_cancellation_from_another_thread() {
        // A deliberately huge worst-case tree; cancel shortly after
        // launch and require the engine to come back with Err quickly.
        let s = UniformSource::nor_worst_case(2, 26);
        let flag = AtomicBool::new(false);
        let engine = CascadeEngine::with_width(1);
        std::thread::scope(|scope| {
            let h = scope.spawn(|| engine.solve_nor_cancellable(&s, &flag));
            std::thread::sleep(std::time::Duration::from_millis(20));
            flag.store(true, Ordering::Relaxed);
            assert!(matches!(h.join().unwrap(), Err(Cancelled)));
        });
    }

    #[test]
    fn worst_case_tree_parallel_still_exact() {
        for n in [10, 14] {
            let s = UniformSource::nor_worst_case(2, n);
            let r = CascadeEngine::with_width(2).solve_nor(&s);
            assert_eq!(r.value, 1);
            // The worst-case ordering forces the *sequential* algorithm
            // to visit every leaf; speculative siblings racing each
            // other can cancel in-flight work, so the parallel engine
            // may do less.  The leaf count is nondeterministic but
            // never exceeds the tree.
            assert!(r.leaves_evaluated > 0 && r.leaves_evaluated <= 1 << n);
        }
    }
}
