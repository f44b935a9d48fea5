//! Young Brothers Wait (YBW): the classical parallel α-β scheme that
//! grew out of this line of work (Feldmann et al.), as an ablation
//! baseline against the paper-faithful engines.
//!
//! YBW's rule: search the *eldest* child of a node first (sequentially
//! with respect to its siblings — it establishes the window), then
//! search all the *younger brothers* in parallel with the narrowed
//! window, aborting them on a cutoff.  Compared to the paper's width-1
//! cascade, YBW spawns unbounded sibling parallelism below the first
//! child instead of a fixed-width look-ahead.
//!
//! Forks stop at the grain of [`gt_tree::par::worth_a_fork`]: a node
//! whose children fall below it by shape (see
//! [`super::children_worth_a_fork`]) runs as one rooted sequential α-β,
//! a macro-leaf that polls only the request's cancel flag.

use gt_tree::{par, TreeSource, Value};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use super::cascade::Cancelled;
use super::round::EngineResult;
use super::{children_worth_a_fork, macro_leaf_ab};

/// Young-Brothers-Wait parallel α-β.
#[derive(Debug, Clone, Copy, Default)]
pub struct YbwEngine;

impl YbwEngine {
    /// Evaluate a MIN/MAX tree (root MAX).
    pub fn solve_minmax<S: TreeSource>(&self, source: &S) -> EngineResult {
        let never = AtomicBool::new(false);
        self.solve_minmax_cancellable(source, &never)
            .expect("unset flag cannot cancel")
    }

    /// Like [`YbwEngine::solve_minmax`], but aborts when `cancel`
    /// becomes `true` (checked at every node entry; in-flight brothers
    /// observe the same flag).
    pub fn solve_minmax_cancellable<S: TreeSource>(
        &self,
        source: &S,
        cancel: &AtomicBool,
    ) -> Result<EngineResult, Cancelled> {
        let start = Instant::now();
        let leaves = AtomicU64::new(0);
        match self.ab(
            source,
            &mut Vec::new(),
            Value::MIN,
            Value::MAX,
            true,
            cancel,
            &leaves,
        ) {
            Some(v) => Ok(EngineResult {
                value: v,
                rounds: 0,
                leaves_evaluated: leaves.load(Ordering::Relaxed),
                max_round_size: 0,
                elapsed: start.elapsed(),
            }),
            None => Err(Cancelled),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn ab<S: TreeSource>(
        &self,
        src: &S,
        path: &mut Vec<u32>,
        alpha: Value,
        beta: Value,
        maximizing: bool,
        cancel: &AtomicBool,
        leaves: &AtomicU64,
    ) -> Option<Value> {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        let d = src.arity(path);
        if !children_worth_a_fork(src, path, d) {
            return macro_leaf_ab(src, path, alpha, beta, maximizing, cancel, leaves);
        }
        // Eldest brother first, full window.
        path.push(0);
        let best = self.ab(src, path, alpha, beta, !maximizing, cancel, leaves)?;
        path.pop();
        let (mut alpha, mut beta) = (alpha, beta);
        if maximizing {
            alpha = alpha.max(best);
        } else {
            beta = beta.min(best);
        }
        if alpha >= beta || d == 1 {
            return Some(best);
        }
        // Younger brothers in parallel with the narrowed window; a
        // cutoff by any brother aborts the rest.
        let local_cutoff = AtomicBool::new(false);
        let best_atomic = AtomicI64::new(best);
        let base: &[u32] = path;
        let results: Vec<Option<Value>> = par::map(d as usize - 1, |j| {
            if cancel.load(Ordering::Relaxed) || local_cutoff.load(Ordering::Relaxed) {
                return None;
            }
            let mut p = base.to_vec();
            p.push(j as u32 + 1);
            // Brothers share the parent's cancel; the local cutoff flag
            // is checked at entry (cheap best-effort abort without
            // chaining a new flag per node).
            let r = self.ab(src, &mut p, alpha, beta, !maximizing, cancel, leaves);
            if let Some(v) = r {
                // Fail-high (fail-low for MIN) triggers a cutoff.
                let cut = if maximizing { v >= beta } else { v <= alpha };
                if cut {
                    local_cutoff.store(true, Ordering::Relaxed);
                }
                // Fold into the running best.
                best_atomic
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                        Some(if maximizing { cur.max(v) } else { cur.min(v) })
                    })
                    .ok();
            }
            r
        });
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        let mut best = best_atomic.load(Ordering::Relaxed);
        // Brothers skipped by the best-effort cutoff check never ran;
        // with a cutoff their values cannot change the fail-hard result.
        // Without a cutoff every brother must have completed.
        if !local_cutoff.load(Ordering::Relaxed) {
            debug_assert!(results.iter().all(|r| r.is_some()));
            for v in results.into_iter().flatten() {
                best = if maximizing { best.max(v) } else { best.min(v) };
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_tree::gen::UniformSource;
    use gt_tree::minimax::minimax_value;
    use gt_tree::ExplicitTree;

    // Most tests also run a d=2, n=14 input, whose root and depth-1
    // nodes fork: smaller trees are single macro-leaves.

    #[test]
    fn exact_on_random_uniform_trees() {
        let sources = (0..15)
            .map(|seed| UniformSource::minmax_iid(3, 5, -100, 100, seed))
            .chain([UniformSource::minmax_iid(2, 14, -100, 100, 15)]);
        for (seed, s) in sources.enumerate() {
            let truth = minimax_value(&s);
            assert_eq!(YbwEngine.solve_minmax(&s).value, truth, "seed {seed}");
        }
    }

    #[test]
    fn exact_with_duplicate_leaf_values() {
        for (seed, n) in (0..10).map(|seed| (seed, 7)).chain([(10, 14)]) {
            let s = UniformSource::minmax_iid(2, n, 0, 3, seed);
            assert_eq!(
                YbwEngine.solve_minmax(&s).value,
                minimax_value(&s),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn exact_on_ordered_extremes() {
        for n in [8, 14] {
            let best = UniformSource::minmax_best_ordered(2, n, 5);
            assert_eq!(YbwEngine.solve_minmax(&best).value, 5);
            let worst = UniformSource::minmax_worst_ordered(2, n);
            assert_eq!(YbwEngine.solve_minmax(&worst).value, minimax_value(&worst));
        }
    }

    #[test]
    fn single_leaf_and_irregular_trees() {
        assert_eq!(YbwEngine.solve_minmax(&ExplicitTree::leaf(9)).value, 9);
        let t = ExplicitTree::internal(vec![
            ExplicitTree::leaf(4),
            ExplicitTree::internal(vec![ExplicitTree::leaf(6), ExplicitTree::leaf(2)]),
            ExplicitTree::leaf(5),
        ]);
        assert_eq!(YbwEngine.solve_minmax(&t).value, minimax_value(&t));
    }

    #[test]
    fn cancellation_aborts_and_unset_flag_is_invisible() {
        let s = UniformSource::minmax_iid(3, 5, -100, 100, 7);
        let flag = AtomicBool::new(true);
        assert!(matches!(
            YbwEngine.solve_minmax_cancellable(&s, &flag),
            Err(Cancelled)
        ));
        flag.store(false, Ordering::Relaxed);
        let r = YbwEngine.solve_minmax_cancellable(&s, &flag).unwrap();
        assert_eq!(r.value, minimax_value(&s));
    }

    #[test]
    fn eldest_first_keeps_speculation_bounded_on_best_ordered() {
        // With perfect ordering the eldest brother always causes the
        // cutoff, so YBW's total work stays close to sequential.
        for n in [10, 14] {
            let s = UniformSource::minmax_best_ordered(2, n, 0);
            let seq = gt_tree::minimax::seq_alphabeta(&s, false).leaves_evaluated;
            let ybw = YbwEngine.solve_minmax(&s).leaves_evaluated;
            assert!(
                ybw <= 2 * seq,
                "YBW speculation too high on ordered tree: {ybw} vs {seq}"
            );
        }
    }
}
