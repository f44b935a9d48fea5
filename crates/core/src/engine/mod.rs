//! Threaded engines: the paper's algorithms on real processors.
//!
//! Two implementation strategies are provided, mirroring the two ways
//! the paper describes its algorithms:
//!
//! * [`round`] — the *global* view ("at each step, evaluate all live
//!   leaves with pruning number ≤ w"): a round-synchronous engine that
//!   computes the exact frontier of the step-driven simulation and
//!   evaluates it on the fork-join pool of [`gt_tree::par`].  Step
//!   counts match the model simulation exactly, so the model-level
//!   speed-ups of Theorem 1/3 translate to wall-clock whenever leaf
//!   evaluation dominates.
//! * [`cascade`] — the *top-down* view (program `P-SOLVE`: parallel on
//!   the leftmost live subtree, sequential look-ahead on its right
//!   siblings, with aborts): a fork-join engine built on
//!   [`gt_tree::par::map`] and cancellation flags.  It approximates the
//!   dynamic re-budgeting of pruning numbers with static budgets (child
//!   `j` of a batch gets width `w−j`), which keeps it lock-free;
//!   correctness is exact, step-optimality is approximate.  See
//!   DESIGN.md §5.
//!
//! [`ybw`] forks its younger brothers on the same pool.  No engine
//! spawns a thread per fork: the pool's threads are started once per
//! process.  Every fork site asks [`gt_tree::par::worth_a_fork`] first:
//! cascade and YBW estimate an arm from the tree's shape
//! ([`children_worth_a_fork`]) and run a node whose children fall
//! below the grain as one sequential search; round estimates a round
//! from its size and the per-leaf time it measured.
//!
//! [`gameplay`] drives either engine for move selection in real games.

pub mod cascade;
pub mod gameplay;
pub mod iterative;
pub mod memo;
pub mod mtdf;
pub mod round;
pub mod ybw;

pub use cascade::{Cancelled, CascadeEngine};
pub use gameplay::{best_move, SearchConfig};
pub use iterative::{iterative_best_move, DeepeningConfig, DeepeningOutcome};
pub use memo::{TtSearch, TtStats};
pub use mtdf::{mtdf, MtdfStats};
pub use round::{EngineResult, RoundEngine};
pub use ybw::YbwEngine;

use gt_tree::minimax::seq_alphabeta_windowed_cancellable;
use gt_tree::{par, TreeSource, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Are the children of the node at `path`, of arity `d`, worth a fork
/// by shape alone?  Each child is taken to have `d^r` leaves, `r` being
/// its remaining height under the source's `height_hint`, each costing
/// [`par::SHAPE_LEAF_NS`].  The answer depends only on the input.  A
/// leaf never forks, and a source with no height hint always does.
pub(crate) fn children_worth_a_fork<S: TreeSource>(src: &S, path: &[u32], d: u32) -> bool {
    d > 0
        && src.height_hint().is_none_or(|h| {
            let r = h.saturating_sub(path.len() as u32 + 1);
            par::worth_a_fork(u64::from(d).saturating_pow(r), par::SHAPE_LEAF_NS)
        })
}

/// A macro-leaf of the α-β engines: the subtree at `path` as one rooted
/// sequential α-β under `(alpha, beta)`, polling only the request's
/// `cancel` flag.  Adds its leaves to `leaves`; `None` = cancelled.
pub(crate) fn macro_leaf_ab<S: TreeSource>(
    src: &S,
    path: &[u32],
    alpha: Value,
    beta: Value,
    maximizing: bool,
    cancel: &AtomicBool,
    leaves: &AtomicU64,
) -> Option<Value> {
    let st = seq_alphabeta_windowed_cancellable(src, path, false, alpha, beta, maximizing, cancel)
        .ok()?;
    leaves.fetch_add(st.leaves_evaluated, Ordering::Relaxed);
    Some(st.value)
}
