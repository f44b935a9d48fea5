//! Values and leaf counts pinned from the code before leaf values were
//! read through walk keys.
//!
//! The benchmark's value oracle and the served engines share one
//! `gt-tree`, so a keyed-leaf bug that shifted every leaf alike would
//! still agree with itself there.  These literals were computed by the
//! path-hash-from-the-root implementation and do not move with the
//! kernels: whole-tree sequential searches of every family
//! [`GenSpec`] builds, the served `alphabeta` and `cascade:w=1` runs of
//! the `cold` tree sizes, and rooted windowed subevaluations of the
//! `split` tree size.

use gt_serve::workload::{evaluate, AlgoSpec};
use gt_tree::minimax::{seq_alphabeta, seq_solve};
use gt_tree::split::{parse_path, sub_evaluate};
use gt_tree::{GenSpec, SubtreeSpec, Value};
use std::sync::atomic::AtomicBool;

/// `(spec, value, leaves, nodes, cutoffs)` of `seq_alphabeta` (MIN/MAX
/// families) or `seq_solve` (NOR families) over the whole tree.
const WHOLE_TREE: &[(&str, Value, u64, u64, u64)] = &[
    ("nor:d=2,n=10,seed=1", 1, 68, 196, 61),
    ("nor:d=3,n=6,seed=2", 1, 55, 119, 40),
    ("nor:d=4,n=5,p=0.3,seed=3", 0, 102, 168, 43),
    ("nor:d=2,n=12,p=0.7,seed=4", 1, 89, 287, 110),
    ("crit:d=2,n=10,seed=5", 0, 174, 445, 98),
    ("crit:d=3,n=7,seed=6", 0, 231, 427, 102),
    ("crit:d=4,n=5,seed=7", 0, 217, 341, 73),
    ("crit:d=2,n=14,seed=8", 0, 1095, 2877, 688),
    ("worst:d=2,n=8", 1, 256, 511, 0),
    ("worst:d=3,n=5", 1, 243, 364, 0),
    ("worst:d=4,n=4", 1, 256, 341, 0),
    ("allones:d=2,n=8", 1, 16, 61, 30),
    ("allones:d=3,n=5", 0, 9, 26, 13),
    ("allones:d=4,n=4", 1, 16, 41, 20),
    ("minmax:d=2,n=10,seed=1", 482390, 343, 831, 146),
    ("minmax:d=3,n=6,seed=2", 347708, 237, 418, 79),
    ("minmax:d=4,n=6,seed=3", 326124, 765, 1194, 234),
    ("minmax:d=4,n=7,seed=4", 781512, 2785, 4340, 838),
    ("minmax:d=5,n=4,hi=50,lo=-50,seed=5", -31, 189, 267, 43),
    ("minmax:d=2,n=12,hi=3,lo=0,seed=6", 1, 297, 751, 158),
    ("minmax-best:d=2,n=8", 0, 31, 98, 37),
    ("minmax-best:d=3,n=6,value=7", 7, 53, 125, 46),
    ("minmax-best:d=4,n=5", 0, 79, 141, 36),
    ("minmax-worst:d=2,n=8", 170, 256, 511, 0),
    ("minmax-worst:d=3,n=5", 182, 243, 364, 0),
    ("minmax-worst:d=4,n=4", 204, 256, 341, 0),
    ("minmax-corr:d=2,n=10,seed=1", 9, 165, 424, 95),
    ("minmax-corr:d=3,n=6,spread=4,seed=2", 4, 108, 209, 52),
    ("minmax-corr:d=4,n=5,seed=3", 9, 118, 196, 43),
];

/// `(spec, algo, value, work)` of `workload::evaluate`.
const SERVED: &[(&str, &str, Value, u64)] = &[
    ("minmax:d=4,n=6,seed=0", "alphabeta", 339742, 668),
    ("minmax:d=4,n=6,seed=1", "alphabeta", 335137, 635),
    ("minmax:d=4,n=6,seed=2", "alphabeta", 290949, 1234),
    ("minmax:d=4,n=6,seed=3", "alphabeta", 326124, 765),
    ("minmax:d=4,n=6,seed=101", "alphabeta", 265064, 996),
    ("minmax:d=4,n=6,seed=202", "alphabeta", 318479, 671),
    ("minmax:d=4,n=6,seed=9999", "alphabeta", 340306, 780),
    ("minmax:d=4,n=6,seed=123456789", "alphabeta", 275559, 854),
    ("minmax:d=4,n=6,seed=0", "cascade:w=1", 339742, 668),
    ("minmax:d=4,n=6,seed=1", "cascade:w=1", 335137, 635),
    ("minmax:d=4,n=6,seed=2", "cascade:w=1", 290949, 1234),
    ("minmax:d=4,n=6,seed=3", "cascade:w=1", 326124, 765),
    ("minmax:d=4,n=6,seed=101", "cascade:w=1", 265064, 996),
    ("minmax:d=4,n=6,seed=202", "cascade:w=1", 318479, 671),
    ("minmax:d=4,n=6,seed=9999", "cascade:w=1", 340306, 780),
    ("minmax:d=4,n=6,seed=123456789", "cascade:w=1", 275559, 854),
    ("minmax:d=4,n=7,seed=0", "alphabeta", 795987, 3483),
    ("minmax:d=4,n=7,seed=1", "alphabeta", 786858, 2007),
    ("minmax:d=4,n=7,seed=2", "alphabeta", 781393, 2712),
    ("minmax:d=4,n=7,seed=3", "alphabeta", 747233, 2345),
    ("minmax:d=4,n=7,seed=101", "alphabeta", 741943, 2723),
    ("minmax:d=4,n=7,seed=202", "alphabeta", 761250, 2720),
    ("minmax:d=4,n=7,seed=9999", "alphabeta", 803111, 3057),
    ("minmax:d=4,n=7,seed=123456789", "alphabeta", 729334, 3361),
    ("minmax:d=4,n=7,seed=0", "cascade:w=1", 795987, 3894),
    ("minmax:d=4,n=7,seed=1", "cascade:w=1", 786858, 2224),
    ("minmax:d=4,n=7,seed=2", "cascade:w=1", 781393, 3335),
    ("minmax:d=4,n=7,seed=3", "cascade:w=1", 747233, 2698),
    ("minmax:d=4,n=7,seed=101", "cascade:w=1", 741943, 3155),
    ("minmax:d=4,n=7,seed=202", "cascade:w=1", 761250, 3324),
    ("minmax:d=4,n=7,seed=9999", "cascade:w=1", 803111, 3155),
    ("minmax:d=4,n=7,seed=123456789", "cascade:w=1", 729334, 3465),
];

/// A subevaluation's `(alpha, beta)`; `None` is the full window.
type Window = Option<(Value, Value)>;

/// `(seed, path, window, value, leaves)` of `sub_evaluate` on the
/// subtree at `path` of `minmax:d=4,n=8,seed=S`.
const SPLIT_SUBEVALS: &[(u64, &str, Window, Value, u64)] = &[
    (0, "", None, 303462, 7488),
    (0, "", Some((283462, 323462)), 303462, 6208),
    (0, "0", None, 270632, 2007),
    (0, "0", Some((283462, 323462)), 270632, 1125),
    (0, "3", None, 253937, 3097),
    (0, "3", Some((283462, 323462)), 276952, 1726),
    (0, "1.2", None, 297741, 924),
    (0, "1.2", Some((283462, 323462)), 297741, 567),
    (0, "2.0.3", None, 256972, 224),
    (0, "2.0.3", Some((283462, 323462)), 278797, 62),
    (5, "", None, 284643, 6359),
    (5, "", Some((264643, 304643)), 284643, 4969),
    (5, "0", None, 273557, 2957),
    (5, "0", Some((264643, 304643)), 273557, 2143),
    (5, "3", None, 284643, 2693),
    (5, "3", Some((264643, 304643)), 284643, 1647),
    (5, "1.2", None, 362564, 890),
    (5, "1.2", Some((264643, 304643)), 321805, 492),
    (5, "2.0.3", None, 277854, 291),
    (5, "2.0.3", Some((264643, 304643)), 277854, 192),
    (77, "", None, 291634, 6256),
    (77, "", Some((271634, 311634)), 291634, 5022),
    (77, "0", None, 283877, 2059),
    (77, "0", Some((271634, 311634)), 283877, 1395),
    (77, "3", None, 286863, 2484),
    (77, "3", Some((271634, 311634)), 286863, 1739),
    (77, "1.2", None, 315199, 795),
    (77, "1.2", Some((271634, 311634)), 312792, 544),
    (77, "2.0.3", None, 269051, 246),
    (77, "2.0.3", Some((271634, 311634)), 269051, 48),
    (4242, "", None, 301087, 7713),
    (4242, "", Some((281087, 321087)), 301087, 6073),
    (4242, "0", None, 293664, 2967),
    (4242, "0", Some((281087, 321087)), 293664, 1806),
    (4242, "3", None, 283688, 3019),
    (4242, "3", Some((281087, 321087)), 283688, 2234),
    (4242, "1.2", None, 299152, 1155),
    (4242, "1.2", Some((281087, 321087)), 299152, 762),
    (4242, "2.0.3", None, 192626, 332),
    (4242, "2.0.3", Some((281087, 321087)), 278902, 116),
];

/// `(spec, path, value, leaves)` of full-window NOR subevaluations.
const NOR_SUBEVALS: &[(&str, &str, Value, u64)] = &[
    ("nor:d=2,n=12,seed=3", "0.1", 1, 116),
    ("crit:d=3,n=7,seed=4", "2", 0, 166),
];

#[test]
fn whole_tree_searches_keep_their_values_and_counts() {
    for &(spec, value, leaves, nodes, cutoffs) in WHOLE_TREE {
        let g = GenSpec::parse(spec).unwrap();
        let src = g.build().unwrap();
        let st = if g.is_minmax() {
            seq_alphabeta(&src, false)
        } else {
            seq_solve(&src, false)
        };
        assert_eq!(
            (st.value, st.leaves_evaluated, st.nodes_expanded, st.cutoffs),
            (value, leaves, nodes, cutoffs),
            "{spec}"
        );
    }
}

#[test]
fn served_evaluations_keep_their_values_and_work() {
    let never = AtomicBool::new(false);
    for &(spec, algo, value, work) in SERVED {
        let g = GenSpec::parse(spec).unwrap();
        let a = AlgoSpec::parse(algo).unwrap();
        let out = evaluate(&g, &a, &never).unwrap();
        assert_eq!((out.value, out.work), (value, work), "{spec} {algo}");
    }
}

#[test]
fn subevaluations_keep_their_values_and_leaves() {
    let minmax = SPLIT_SUBEVALS
        .iter()
        .map(|&(seed, path, window, value, leaves)| {
            let spec = format!("minmax:d=4,n=8,seed={seed}");
            (spec, path, window, value, leaves)
        });
    let nor = NOR_SUBEVALS
        .iter()
        .map(|&(spec, path, value, leaves)| (spec.to_string(), path, None, value, leaves));
    for (spec, path, window, value, leaves) in minmax.chain(nor) {
        let (alpha, beta) = window.unwrap_or((Value::MIN, Value::MAX));
        let sub = SubtreeSpec {
            spec: GenSpec::parse(&spec).unwrap(),
            path: parse_path(path).unwrap(),
            alpha,
            beta,
        };
        let st = sub_evaluate(&sub).unwrap();
        let got = (st.value, st.leaves_evaluated);
        assert_eq!(got, (value, leaves), "{}", sub.render());
    }
}
