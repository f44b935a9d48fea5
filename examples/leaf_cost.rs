//! What one leaf of a full uniform tree costs sequential α-β: the
//! figure behind `gt_tree::par::SHAPE_LEAF_NS`, the per-leaf time the
//! fork rule charges a subtree it sizes by shape alone.
//!
//! Times `seq_alphabeta` once on each of 200 unseen `minmax:d=4,n=6`
//! and `n=7` trees and divides by the full tree's `d^n` leaves, pruned
//! ones included.  Prints the median and interquartile range per size.
//!
//! ```text
//! cargo run --release --example leaf_cost [-- --quick]
//! ```
//!
//! `--quick` times 20 trees per size: it only checks that the command
//! runs.  Timings vary with the host; compare runs from one session.

use karp_zhang::analysis::stats::percentile;
use karp_zhang::tree::gen::UniformSource;
use karp_zhang::tree::minimax::seq_alphabeta;
use karp_zhang::tree::source::mix64;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trees: u64 = if quick { 20 } else { 200 };
    let degree = 4u32;
    println!("seq_alphabeta ns per full-tree leaf, {trees} unseen trees per size");
    for height in [6u32, 7] {
        let full = f64::from(degree).powi(height as i32);
        let tree = |i: u64| UniformSource::minmax_iid(degree, height, 0, 1 << 20, mix64(i));
        // Warm the caches and the branch predictor on trees not timed.
        for i in 0..10 {
            black_box(seq_alphabeta(&tree(u64::MAX - i), false));
        }
        let mut ns = Vec::with_capacity(trees as usize);
        let mut leaves = 0u64;
        for i in 0..trees {
            let src = tree(i);
            let start = Instant::now();
            let st = black_box(seq_alphabeta(black_box(&src), false));
            ns.push(start.elapsed().as_nanos() as f64 / full);
            leaves += st.leaves_evaluated;
        }
        let (q1, q2, q3) = (
            percentile(&ns, 0.25),
            percentile(&ns, 0.5),
            percentile(&ns, 0.75),
        );
        println!(
            "M({degree},{height}): median {q2:.2} ns, IQR {:.2} ns ({q1:.2}..{q3:.2}); \
             {:.0} of {full} leaves evaluated on average",
            q3 - q1,
            leaves as f64 / trees as f64,
        );
    }
}
