//! # gt-tree — game-tree substrate
//!
//! This crate provides the tree machinery that every other crate in the
//! Karp–Zhang reproduction builds on:
//!
//! * [`TreeSource`] — an *implicit* description of a game tree: given the
//!   path of a node, report its arity and (for leaves) its value.  This is
//!   exactly the interface the paper's *node-expansion model* assumes: the
//!   algorithm is handed only the root and discovers the rest by expanding
//!   nodes.
//! * [`LazyTree`] — an arena that materializes a `TreeSource` on demand.
//!   Both evaluation models in the paper run on top of it; in the
//!   leaf-evaluation model expansion is free, in the node-expansion model
//!   it is the unit of work.
//! * [`gen`] — workload generators: uniform trees `B(d,n)` / `M(d,n)` with
//!   i.i.d. leaves, worst-case instances that defeat all pruning,
//!   best-ordered instances that meet the Knuth–Moore minimum, and
//!   near-uniform trees (Corollary 2).
//! * [`explicit`] — small owned trees used by tests, proptest strategies
//!   and the skeleton construction.
//! * [`minimax`] — reference (ground-truth) evaluators: full NOR / minimax
//!   evaluation with no pruning, plus classical sequential left-to-right
//!   SOLVE and fail-hard alpha-beta leaf counters.
//! * [`skeleton`] — the skeleton `H_T` of Section 3: the subtree spanned
//!   by the leaves the sequential algorithm evaluates.
//! * [`proof`] — proof trees and the Fact 1 / Fact 2 lower bounds.

pub mod andor;
pub mod arena;
pub mod explicit;
pub mod gen;
#[macro_use]
pub mod macros;
pub mod minimax;
pub mod par;
pub mod path;
pub mod proof;
pub mod render;
pub mod scout;
pub mod skeleton;
pub mod source;
pub mod spec;
pub mod split;
pub mod sss;
pub mod stats;
pub mod text;

pub use arena::{LazyTree, NodeId, NONE};
pub use explicit::ExplicitTree;
pub use source::{Cancelled, NodeKind, TreeSource, Value};
pub use spec::{GenSpec, SourceVisitor};
pub use split::{Aggregator, NodeMode, SubtreeSpec};

/// `B(d, n)`: the class of uniform `d`-ary NOR (AND/OR) trees of height `n`.
///
/// This is a convenience descriptor used by generators and experiment
/// drivers; the trees themselves are produced by [`gen::UniformSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uniform {
    /// Branching factor `d ≥ 1`.
    pub degree: u32,
    /// Height `n ≥ 0` (leaves are at depth `n`).
    pub height: u32,
}

impl Uniform {
    /// Create a descriptor for `B(d,n)` / `M(d,n)`.
    pub fn new(degree: u32, height: u32) -> Self {
        assert!(degree >= 1, "degree must be at least 1");
        Self { degree, height }
    }

    /// Total number of leaves `d^n` (saturating at `u64::MAX`).
    pub fn leaf_count(&self) -> u64 {
        (self.degree as u64)
            .checked_pow(self.height)
            .unwrap_or(u64::MAX)
    }

    /// Total number of nodes `(d^{n+1} - 1)/(d - 1)` (saturating).
    pub fn node_count(&self) -> u64 {
        if self.degree == 1 {
            return self.height as u64 + 1;
        }
        let mut total: u64 = 0;
        let mut level: u64 = 1;
        for _ in 0..=self.height {
            total = total.saturating_add(level);
            level = level.saturating_mul(self.degree as u64);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_counts() {
        let u = Uniform::new(2, 3);
        assert_eq!(u.leaf_count(), 8);
        assert_eq!(u.node_count(), 15);
        let u = Uniform::new(3, 2);
        assert_eq!(u.leaf_count(), 9);
        assert_eq!(u.node_count(), 13);
        let u = Uniform::new(1, 5);
        assert_eq!(u.leaf_count(), 1);
        assert_eq!(u.node_count(), 6);
    }

    #[test]
    fn uniform_height_zero_is_single_leaf() {
        let u = Uniform::new(4, 0);
        assert_eq!(u.leaf_count(), 1);
        assert_eq!(u.node_count(), 1);
    }

    #[test]
    #[should_panic]
    fn uniform_zero_degree_rejected() {
        Uniform::new(0, 3);
    }
}
