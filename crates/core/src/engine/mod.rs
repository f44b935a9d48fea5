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
//! process.
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
