//! The [`TreeSource`] abstraction: an implicit description of a game tree.
//!
//! The paper's node-expansion model hands the algorithm only the root of
//! the input tree; everything else is discovered through *node expansion*.
//! A `TreeSource` is the oracle behind that operation: it answers, for the
//! node identified by a root-to-node path, how many children it has (zero
//! meaning the node is a leaf) and, for leaves, what the leaf's value is.

/// Leaf values.  NOR (Boolean) trees use `0` / `1`; MIN/MAX trees use the
/// full range.  Using one integer type everywhere keeps the simulators
/// monomorphic and fast.
pub type Value = i64;

/// Marker for a run abandoned through a cooperative cancellation flag.
///
/// Every cancellable evaluator in the workspace — the sequential
/// baselines here, the step simulators in `gt-sim`, and the threaded
/// engines in `gt-core` — reports abandonment with this one type, so a
/// serving layer can thread a single `AtomicBool` through any algorithm
/// and handle the outcome uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

/// What a node turned out to be when expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An internal node with the given number of children (`≥ 1`).
    Internal(u32),
    /// A leaf carrying a value.
    Leaf(Value),
}

/// An implicit game tree.
///
/// Nodes are addressed by their root-to-node path: the empty slice is the
/// root, `&[i]` is the root's `i`-th child (0-based), and so on.  A source
/// must be *consistent*: repeated queries for the same path must return
/// the same answer, and `arity` must only be interrogated for paths that
/// exist (each prefix step `p[i]` is less than the arity at that prefix).
///
/// Sources are required to be `Sync` so that frontier leaves can be
/// evaluated from multiple threads.
pub trait TreeSource: Sync {
    /// Number of children of the node at `path`; `0` means the node is a
    /// leaf.
    fn arity(&self, path: &[u32]) -> u32;

    /// Value of the leaf at `path`.  Only called when `arity(path) == 0`.
    fn leaf_value(&self, path: &[u32]) -> Value;

    /// Expand the node at `path` in one query.
    fn expand(&self, path: &[u32]) -> NodeKind {
        match self.arity(path) {
            0 => NodeKind::Leaf(self.leaf_value(path)),
            d => NodeKind::Internal(d),
        }
    }

    /// An upper bound on the height of the tree, if known.  Simulators use
    /// this only for pre-sizing buffers; `None` is always safe.
    fn height_hint(&self) -> Option<u32> {
        None
    }

    /// The *walk key* of the node at `path`, derived from the root.
    ///
    /// Walk keys let a depth-first search read a leaf in constant time
    /// when the source would otherwise recompute something along the
    /// whole root-to-leaf path (as [`path_hash`] does).  A search derives
    /// its root's key once with this method, each child's key from its
    /// parent's with [`child_key`](TreeSource::child_key), and reads a
    /// leaf with [`leaf_value_keyed`](TreeSource::leaf_value_keyed).
    ///
    /// A source implements all three key methods or none of them: a keyed
    /// leaf read paired with default child keys would read the wrong
    /// value.  The defaults ignore the key, so a source or wrapper that
    /// does not opt in is read through [`leaf_value`](TreeSource::leaf_value).
    fn walk_key(&self, _path: &[u32]) -> u64 {
        0
    }

    /// The walk key of child `child` of the node whose key is `key`.
    fn child_key(&self, _key: u64, _child: u32) -> u64 {
        0
    }

    /// Value of the leaf at `path`, whose walk key is `key`.  Equals
    /// `leaf_value(path)`.
    fn leaf_value_keyed(&self, path: &[u32], _key: u64) -> Value {
        self.leaf_value(path)
    }
}

impl<S: TreeSource + ?Sized> TreeSource for &S {
    fn arity(&self, path: &[u32]) -> u32 {
        (**self).arity(path)
    }
    fn leaf_value(&self, path: &[u32]) -> Value {
        (**self).leaf_value(path)
    }
    fn height_hint(&self) -> Option<u32> {
        (**self).height_hint()
    }
    fn walk_key(&self, path: &[u32]) -> u64 {
        (**self).walk_key(path)
    }
    fn child_key(&self, key: u64, child: u32) -> u64 {
        (**self).child_key(key, child)
    }
    fn leaf_value_keyed(&self, path: &[u32], key: u64) -> Value {
        (**self).leaf_value_keyed(path, key)
    }
}

impl<S: TreeSource + ?Sized> TreeSource for Box<S> {
    fn arity(&self, path: &[u32]) -> u32 {
        (**self).arity(path)
    }
    fn leaf_value(&self, path: &[u32]) -> Value {
        (**self).leaf_value(path)
    }
    fn height_hint(&self) -> Option<u32> {
        (**self).height_hint()
    }
    fn walk_key(&self, path: &[u32]) -> u64 {
        (**self).walk_key(path)
    }
    fn child_key(&self, key: u64, child: u32) -> u64 {
        (**self).child_key(key, child)
    }
    fn leaf_value_keyed(&self, path: &[u32], key: u64) -> Value {
        (**self).leaf_value_keyed(path, key)
    }
}

/// A source that presents another source with the children of every node
/// permuted by a deterministic, seeded pseudo-random permutation.
///
/// This is exactly the conceptual device of Section 6: *"R-Sequential
/// SOLVE is like Sequential SOLVE acting on a randomly permuted input
/// tree"*.  Running any deterministic algorithm on `Permuted<S>` realizes
/// its randomized counterpart (R-Sequential SOLVE, R-Parallel SOLVE,
/// R-Sequential α-β, R-Parallel α-β).
///
/// The permutation at each node is derived lazily from `(seed, path)`, so
/// the permuted tree is never materialized — matching the paper's remark
/// that "randomizations are performed only to the extent necessary".
pub struct Permuted<S> {
    inner: S,
    seed: u64,
}

impl<S: TreeSource> Permuted<S> {
    /// Wrap `inner`, permuting children with randomness derived from
    /// `seed`.
    pub fn new(inner: S, seed: u64) -> Self {
        Self { inner, seed }
    }

    /// Access the wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Translate a path in the permuted tree into the corresponding path
    /// in the underlying tree.
    fn translate(&self, path: &[u32]) -> Vec<u32> {
        let mut real = Vec::with_capacity(path.len());
        for (i, &c) in path.iter().enumerate() {
            let d = self.inner.arity(&real[..]);
            debug_assert!(c < d, "path step {i} out of range");
            real.push(permute_index(self.seed, &real, c, d));
        }
        real
    }
}

impl<S: TreeSource> TreeSource for Permuted<S> {
    fn arity(&self, path: &[u32]) -> u32 {
        let real = self.translate(path);
        self.inner.arity(&real)
    }

    fn leaf_value(&self, path: &[u32]) -> Value {
        let real = self.translate(path);
        self.inner.leaf_value(&real)
    }

    fn height_hint(&self) -> Option<u32> {
        self.inner.height_hint()
    }
}

/// Mix a 64-bit value (splitmix64 finalizer).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic hash of `(seed, path)`: one [`path_hash_step`] per
/// level from a seeded root state.
#[inline]
pub fn path_hash(seed: u64, path: &[u32]) -> u64 {
    let root = mix64(seed ^ 0xa076_1d64_78bd_642f);
    path.iter().fold(root, |h, &c| path_hash_step(h, c))
}

/// One level of [`path_hash`]: the hash of `path ++ [c]` from the hash
/// `h` of `path`.  Sources that hash paths use it as their
/// [`TreeSource::child_key`], so the walk and the path hash cannot
/// drift apart.
#[inline]
pub fn path_hash_step(h: u64, c: u32) -> u64 {
    mix64(h ^ u64::from(c).wrapping_mul(0xe703_7ed1_a0b4_28db))
}

/// The image of child index `c` (out of `d`) under the pseudo-random
/// permutation attached to the node at `path`.
///
/// The permutation is the one produced by the Fisher–Yates shuffle driven
/// by a splitmix64 stream seeded from `(seed, path)`; we recompute only
/// the column we need, which costs `O(d)` time and `O(d)` stack-free
/// scratch via a small local buffer.
fn permute_index(seed: u64, path: &[u32], c: u32, d: u32) -> u32 {
    debug_assert!(c < d);
    if d == 1 {
        return 0;
    }
    // For the small arities used in practice (d ≤ 64) recomputing the full
    // Fisher–Yates shuffle is cheap and keeps the permutation honest.
    let mut perm: Vec<u32> = (0..d).collect();
    let mut state = path_hash(seed, path);
    for i in (1..d as usize).rev() {
        state = mix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm[c as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitTree;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn path_hash_depends_on_path() {
        assert_ne!(path_hash(1, &[0]), path_hash(1, &[1]));
        assert_ne!(path_hash(1, &[0, 1]), path_hash(1, &[1, 0]));
        assert_ne!(path_hash(1, &[]), path_hash(2, &[]));
    }

    #[test]
    fn permute_index_is_a_permutation() {
        for d in 1..10u32 {
            for seed in 0..5u64 {
                let mut seen = vec![false; d as usize];
                for c in 0..d {
                    let img = permute_index(seed, &[2, 0, 1], c, d);
                    assert!(img < d);
                    assert!(!seen[img as usize], "collision at d={d} seed={seed}");
                    seen[img as usize] = true;
                }
            }
        }
    }

    #[test]
    fn permuted_preserves_multiset_of_leaves() {
        // A 3-leaf tree; permuting children must preserve the multiset of
        // leaf values reachable.
        let t = ExplicitTree::internal(vec![
            ExplicitTree::leaf(10),
            ExplicitTree::leaf(20),
            ExplicitTree::leaf(30),
        ]);
        for seed in 0..20 {
            let p = Permuted::new(&t, seed);
            assert_eq!(p.arity(&[]), 3);
            let mut vals: Vec<i64> = (0..3).map(|i| p.leaf_value(&[i])).collect();
            vals.sort_unstable();
            assert_eq!(vals, vec![10, 20, 30]);
        }
    }

    #[test]
    fn permuted_identity_on_unary_chain() {
        let t = ExplicitTree::internal(vec![ExplicitTree::internal(vec![ExplicitTree::leaf(7)])]);
        let p = Permuted::new(&t, 99);
        assert_eq!(p.arity(&[]), 1);
        assert_eq!(p.arity(&[0]), 1);
        assert_eq!(p.leaf_value(&[0, 0]), 7);
    }

    #[test]
    fn permuted_actually_permutes_somewhere() {
        let t = ExplicitTree::internal(vec![ExplicitTree::leaf(0), ExplicitTree::leaf(1)]);
        let mut saw_swap = false;
        for seed in 0..64 {
            let p = Permuted::new(&t, seed);
            if p.leaf_value(&[0]) == 1 {
                saw_swap = true;
            }
        }
        assert!(saw_swap, "no seed out of 64 swapped a binary node");
    }
}
