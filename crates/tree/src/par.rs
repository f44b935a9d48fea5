//! The process-wide fork-join pool, and the rule that decides when a
//! fork pays.
//!
//! The paper's central result is that *one* game-tree evaluation can be
//! spread over processors with linear speed-up (Theorems 1 and 3).  Its
//! Section 7 machine is a fixed bank of processors that work is handed
//! to.  This module is that bank: [`join`] and the index-ordered [`map`]
//! run on one set of threads, sized once from `available_parallelism()`
//! and started at the first fork or at [`start_pool`] (see the `pool`
//! submodule).  The fork-join engines of `gt-core` (cascade, YBW and
//! round) cross cores only through it, so no evaluation spawns a
//! thread.
//!
//! ## The fork rule
//!
//! [`worth_a_fork`] is the one rule every fork site applies: an arm is
//! forked only when its estimated cost exceeds [`FORK_WAKE_NS`], the
//! cost of waking a parked pool thread.  Below that grain a fork site
//! runs the arm inline, as a sequential *macro-leaf* in the paper's
//! leaf-evaluation model.

mod pool;
pub use pool::{join, map, start_pool};

/// What a fork must beat: waking a parked pool thread and handing it
/// an arm.  Measured on a 2-vCPU VM by timing [`join`] of two spinning
/// arms against running them back to back, each after the pool had
/// idled 200 µs: the fork took the arm's time plus 25–34 µs (medians
/// over 200 forks per arm size, arms of 20–100 µs), so it broke even
/// at arms of 25–30 µs.
pub const FORK_WAKE_NS: u64 = 30_000;

/// What one leaf of a full uniform subtree costs a rooted sequential
/// α-β search, pruned leaves included: the per-leaf time for estimates
/// made from a tree's shape alone.  `cargo run --release --example
/// leaf_cost` prints it: the median over 200 random M(4,6) trees of
/// `seq_alphabeta`'s time per leaf of the full tree.  The constant was
/// set when every leaf re-hashed its path from the root, at 8.3 ns
/// (6.5 ns at M(4,7)) on a 2-vCPU VM.  Since the sequential kernels
/// carry walk keys ([`crate::TreeSource::walk_key`]), the command reads 5.1 ns
/// where the path-hashing kernels read 10.8 ns (3.6 and 8.5 ns at
/// M(4,7)): medians of 15 alternating runs on a 2-vCPU VM.
///
/// It stays 8 so that no fork decision and no leaf count moves with
/// the cheaper leaves.  At 4, `cold`'s M(4,7) roots stop forking, and
/// so does E12's (4,7) game at every leaf work, which takes cascade's
/// and YBW's wins there (1.2–1.4× at leaf work 256–1024) to about 1.0.
/// Lowering it belongs with a fork rule that knows each source's leaf
/// cost.
pub const SHAPE_LEAF_NS: u64 = 8;

/// Is an arm of `leaves` leaves, each costing `leaf_ns`, worth a fork?
/// Yes when it costs more than [`FORK_WAKE_NS`].  Shape estimates pass
/// [`SHAPE_LEAF_NS`], which puts the grain at 3751 leaves; a fork site
/// with no per-leaf time yet passes 0 and runs inline.
pub fn worth_a_fork(leaves: u64, leaf_ns: u64) -> bool {
    leaves.saturating_mul(leaf_ns) > FORK_WAKE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fork_rule_pins_its_grain_on_the_benchmark_shapes() {
        assert_eq!((FORK_WAKE_NS, SHAPE_LEAF_NS), (30_000, 8));
        // `cold`'s M(4,6): the root's children have 4^5 leaves each, so
        // the whole tree is one macro-leaf.
        assert!(!worth_a_fork(4u64.pow(5), SHAPE_LEAF_NS));
        // `cold`'s M(4,7) and E12's (4,7) game: the root forks over
        // children of 4^6 leaves, and each child is a macro-leaf.
        assert!(worth_a_fork(4u64.pow(6), SHAPE_LEAF_NS));
        // The grain itself, and no fork without a per-leaf time.
        assert!(!worth_a_fork(3750, SHAPE_LEAF_NS));
        assert!(worth_a_fork(3751, SHAPE_LEAF_NS));
        assert!(!worth_a_fork(u64::MAX, 0));
        assert!(worth_a_fork(u64::MAX, u64::MAX));
    }
}
