//! Walk keys ([`TreeSource::walk_key`]) must never change what a search
//! reads.
//!
//! * Leaf equivalence: for every generator family, a leaf read through
//!   a key derived from any ancestor equals `leaf_value(path)`, through
//!   the concrete source, `&S`, `Box<dyn TreeSource>` and a wrapper that
//!   does not opt in; references and boxes see the source's own keys.
//! * Kernel differential: both sequential kernels, rooted anywhere and
//!   under any window, return identical statistics (value, counts and
//!   recorded leaf paths) on a keyed source and on an opt-out wrapper
//!   of it, whose every leaf is read by path.

use gt_tree::minimax::{seq_alphabeta_windowed, seq_solve_cancellable, SeqStats};
use gt_tree::source::path_hash;
use gt_tree::{GenSpec, SourceVisitor, TreeSource, Value};
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;

const KINDS: [&str; 8] = [
    "nor",
    "crit",
    "worst",
    "allones",
    "minmax",
    "minmax-best",
    "minmax-worst",
    "minmax-corr",
];

/// The families whose leaves hash their path, and so carry keys.
const KEYED: [&str; 3] = ["nor", "crit", "minmax"];

/// Minmax leaves are kept in a narrow band so random windows bite.
fn spec(kind: &str, d: u32, n: u32, seed: u64) -> GenSpec {
    let text = if kind == "minmax" {
        format!("{kind}:d={d},n={n},seed={seed},lo=-16,hi=16")
    } else {
        format!("{kind}:d={d},n={n},seed={seed}")
    };
    GenSpec::parse(&text).unwrap()
}

/// A wrapper that forwards only the required methods, so every leaf it
/// serves is read by path.
struct OptOut<S>(S);

impl<S: TreeSource> TreeSource for OptOut<S> {
    fn arity(&self, path: &[u32]) -> u32 {
        self.0.arity(path)
    }
    fn leaf_value(&self, path: &[u32]) -> Value {
        self.0.leaf_value(path)
    }
    fn height_hint(&self) -> Option<u32> {
        self.0.height_hint()
    }
}

/// The key of the node at `path`, derived at `path[..from]` and walked
/// down the rest.
fn key_at<S: TreeSource + ?Sized>(s: &S, path: &[u32], from: usize) -> u64 {
    let (root, rest) = path.split_at(from);
    rest.iter()
        .fold(s.walk_key(root), |k, &c| s.child_key(k, c))
}

fn keyed_leaf<S: TreeSource>(s: &S, path: &[u32], from: usize) -> Value {
    s.leaf_value_keyed(path, key_at(s, path, from))
}

/// Checks one leaf of the concrete source handed over by `build_visit`.
struct LeafCheck<'a> {
    path: &'a [u32],
    from: usize,
    boxed: Box<dyn TreeSource + Send>,
    hashed_seed: Option<u64>,
}

impl SourceVisitor for LeafCheck<'_> {
    type Out = ();
    fn visit<S: TreeSource + Send + 'static>(self, s: S) {
        let LeafCheck {
            path,
            from,
            boxed,
            hashed_seed,
        } = self;
        let truth = s.leaf_value(path);
        assert_eq!(keyed_leaf(&s, path, from), truth, "concrete source");
        assert_eq!(keyed_leaf(&&s, path, from), truth, "through &S");
        assert_eq!(keyed_leaf(&boxed, path, from), truth, "through Box<dyn>");
        assert_eq!(keyed_leaf(&OptOut(&s), path, from), truth, "opt-out");
        // References and boxes forward the source's own keys rather
        // than falling back.
        for depth in from..=path.len() {
            let key = key_at(&s, &path[..depth], from);
            assert_eq!(key_at(&&s, &path[..depth], from), key, "&S key");
            assert_eq!(key_at(&boxed, &path[..depth], from), key, "boxed key");
        }
        // The i.i.d. families key by their running path hash.
        if let Some(seed) = hashed_seed {
            assert_eq!(key_at(&s, path, from), path_hash(seed, path));
        }
    }
}

/// Runs both kernels on the concrete source, by reference, boxed and
/// behind an opt-out wrapper, and returns the four results of each.
struct KernelRun<'a> {
    root: &'a [u32],
    window: (Value, Value),
    boxed: Box<dyn TreeSource + Send>,
}

impl SourceVisitor for KernelRun<'_> {
    type Out = [(SeqStats, SeqStats); 4];
    fn visit<S: TreeSource + Send + 'static>(self, s: S) -> Self::Out {
        let KernelRun {
            root,
            window: (alpha, beta),
            boxed,
        } = self;
        let maximizing = root.len() % 2 == 0;
        let never = AtomicBool::new(false);
        fn both<T: TreeSource>(
            t: &T,
            root: &[u32],
            (alpha, beta, max): (Value, Value, bool),
            never: &AtomicBool,
        ) -> (SeqStats, SeqStats) {
            (
                seq_alphabeta_windowed(t, root, true, alpha, beta, max),
                seq_solve_cancellable(t, root, true, never).unwrap(),
            )
        }
        let w = (alpha, beta, maximizing);
        [
            both(&s, root, w, &never),
            both(&&s, root, w, &never),
            both(&boxed, root, w, &never),
            both(&OptOut(&s), root, w, &never),
        ]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn keyed_leaves_equal_path_leaves_for_every_family(
        kind_ix in 0usize..8,
        d in 1u32..6,
        n in 0u32..9,
        seed in any::<u64>(),
        steps in prop::collection::vec(any::<u32>(), 8),
        from in 0usize..9,
    ) {
        let kind = KINDS[kind_ix];
        let g = spec(kind, d, n, seed);
        let path: Vec<u32> = steps[..n as usize].iter().map(|s| s % d).collect();
        g.build_visit(LeafCheck {
            path: &path,
            from: from.min(path.len()),
            boxed: g.build().unwrap(),
            hashed_seed: KEYED.contains(&kind).then_some(seed),
        })
        .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernels_agree_keyed_and_by_path(
        kind_ix in 0usize..8,
        d in 1u32..5,
        n in 0u32..8,
        seed in any::<u64>(),
        steps in prop::collection::vec(any::<u32>(), 8),
        depth in 0usize..4,
        full_window in any::<bool>(),
        lo in -24i64..24,
        width in 1i64..48,
    ) {
        let kind = KINDS[kind_ix];
        let g = spec(kind, d, n, seed);
        let root: Vec<u32> = steps[..depth.min(n as usize)].iter().map(|s| s % d).collect();
        let window = if full_window { (Value::MIN, Value::MAX) } else { (lo, lo + width) };
        let boxed = g.build().unwrap();
        let runs = g.build_visit(KernelRun { root: &root, window, boxed }).unwrap();
        let [keyed, by_ref, by_box, by_path] = runs;
        let case = format!("{kind} d={d} n={n} seed={seed} root={root:?} window={window:?}");
        prop_assert_eq!(&keyed, &by_path, "keyed vs by path: {}", case);
        prop_assert_eq!(&by_ref, &by_path, "&S vs by path: {}", case);
        prop_assert_eq!(&by_box, &by_path, "Box<dyn> vs by path: {}", case);
    }
}
