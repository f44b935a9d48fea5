//! Differential harness: generate many random instances (seeded, so
//! failures reproduce) and require *every* implementation in the
//! workspace to agree — the broadest net against divergence between
//! the model simulators, the reference algorithms, the best-first
//! baselines and the threaded engines.

use karp_zhang::core::engine::{CascadeEngine, RoundEngine, YbwEngine};
use karp_zhang::msgsim::simulate_with_processors;
use karp_zhang::sim::randomized::{r_parallel_alphabeta, r_parallel_solve};
use karp_zhang::sim::{n_parallel_alphabeta, n_parallel_solve, parallel_alphabeta, parallel_solve};
use karp_zhang::tree::gen::{critical_bias, IidBernoulli, NearUniformSource, UniformSource};
use karp_zhang::tree::minimax::{minimax_value, nor_value, seq_alphabeta, seq_solve};
use karp_zhang::tree::scout::scout;
use karp_zhang::tree::source::{mix64, TreeSource, Value};
use karp_zhang::tree::sss::sss_star;

/// One fully cross-checked NOR instance.
fn check_nor<S: TreeSource>(src: &S, binary: bool, ctx: &str) {
    let truth = nor_value(src);
    assert_eq!(seq_solve(src, false).value, truth, "{ctx}: seq");
    for w in [0u32, 1, 3] {
        assert_eq!(
            parallel_solve(src, w, false).value,
            truth,
            "{ctx}: par w={w}"
        );
        assert_eq!(
            n_parallel_solve(src, w, false).value,
            truth,
            "{ctx}: npar w={w}"
        );
    }
    assert_eq!(
        r_parallel_solve(src, 1, 99, false).value,
        truth,
        "{ctx}: randomized"
    );
    assert_eq!(
        RoundEngine::with_width(1).solve_nor(src).value,
        truth,
        "{ctx}: round engine"
    );
    check_nor_forks(src, truth, ctx);
    // The message machine handles any arity now; exercise it with a
    // small processor budget to stress multiplexing too.
    let _ = binary;
    assert_eq!(
        simulate_with_processors(src, 3).value,
        truth,
        "{ctx}: message machine"
    );
}

/// One fully cross-checked MIN/MAX instance.
fn check_minmax<S: TreeSource>(src: &S, ctx: &str) {
    let truth = minimax_value(src);
    assert_eq!(seq_alphabeta(src, false).value, truth, "{ctx}: seq ab");
    assert_eq!(scout(src).value, truth, "{ctx}: scout");
    assert_eq!(sss_star(src).value, truth, "{ctx}: sss*");
    for w in [0u32, 1, 2] {
        assert_eq!(
            parallel_alphabeta(src, w, false).value,
            truth,
            "{ctx}: par ab w={w}"
        );
        assert_eq!(
            n_parallel_alphabeta(src, w, false).value,
            truth,
            "{ctx}: npar ab w={w}"
        );
    }
    assert_eq!(
        r_parallel_alphabeta(src, 1, 7, false).value,
        truth,
        "{ctx}: randomized ab"
    );
    check_minmax_forks(src, truth, ctx);
    assert_eq!(
        RoundEngine::with_width(1).solve_minmax(src).value,
        truth,
        "{ctx}: round ab"
    );
}

// The engines that fork by the tree's shape.  Each test also runs them
// alone on one input big enough that they fork (d=2, n=14 and the
// like), where the simulators above would be slow.

fn check_nor_forks<S: TreeSource>(src: &S, truth: Value, ctx: &str) {
    assert_eq!(
        CascadeEngine::with_width(2).solve_nor(src).value,
        truth,
        "{ctx}: cascade engine"
    );
}

fn check_minmax_forks<S: TreeSource>(src: &S, truth: Value, ctx: &str) {
    assert_eq!(
        CascadeEngine::with_width(2).solve_minmax(src).value,
        truth,
        "{ctx}: cascade ab"
    );
    assert_eq!(YbwEngine.solve_minmax(src).value, truth, "{ctx}: ybw");
}

#[test]
fn differential_nor_uniform() {
    for i in 0..30u64 {
        let seed = mix64(i);
        let d = 2 + (seed % 3) as u32; // 2..4
        let n = 3 + (seed % 5) as u32; // 3..7
        let p = match seed % 4 {
            0 => 0.25,
            1 => 0.5,
            2 => 0.75,
            _ => critical_bias(d),
        };
        let src = UniformSource::nor_iid(d, n, p, seed);
        check_nor(&src, d == 2, &format!("B({d},{n}) p={p} seed={seed}"));
    }
    let big = UniformSource::nor_iid(2, 14, critical_bias(2), mix64(30));
    check_nor_forks(&big, nor_value(&big), "B(2,14)");
}

#[test]
fn differential_nor_near_uniform() {
    for i in 0..15u64 {
        let seed = mix64(i ^ 0xABCD);
        let src = NearUniformSource::new(3, 6, 0.5, 0.5, seed, IidBernoulli::new(0.4, seed));
        check_nor(&src, false, &format!("near-uniform seed={seed}"));
    }
    let seed = mix64(15 ^ 0xABCD);
    let big = NearUniformSource::new(3, 12, 0.5, 0.5, seed, IidBernoulli::new(0.4, seed));
    check_nor_forks(&big, nor_value(&big), "near-uniform n=12");
}

#[test]
fn differential_minmax_uniform() {
    for i in 0..30u64 {
        let seed = mix64(i ^ 0x5555);
        let d = 2 + (seed % 2) as u32; // 2..3
        let n = 3 + (seed % 3) as u32; // 3..5
        let hi = 1 + (seed % 100) as i64;
        let src = UniformSource::minmax_iid(d, n, -hi, hi, seed);
        check_minmax(&src, &format!("M({d},{n}) hi={hi} seed={seed}"));
    }
    let big = UniformSource::minmax_iid(2, 14, -100, 100, mix64(30 ^ 0x5555));
    check_minmax_forks(&big, minimax_value(&big), "M(2,14)");
}

#[test]
fn differential_minmax_extreme_orderings() {
    for (d, n) in [(2u32, 6u32), (3, 4)] {
        check_minmax(
            &UniformSource::minmax_best_ordered(d, n, 3),
            &format!("best-ordered M({d},{n})"),
        );
        check_minmax(
            &UniformSource::minmax_worst_ordered(d, n),
            &format!("worst-ordered M({d},{n})"),
        );
    }
    let big = UniformSource::minmax_best_ordered(2, 14, 3);
    check_minmax_forks(&big, 3, "best-ordered M(2,14)");
    let big = UniformSource::minmax_worst_ordered(2, 14);
    check_minmax_forks(&big, minimax_value(&big), "worst-ordered M(2,14)");
}

#[test]
fn differential_nor_extremes() {
    // All-zeros, all-ones and worst-case instances.
    use karp_zhang::tree::gen::ConstLeaf;
    for v in [0i64, 1] {
        let src = UniformSource::new(2, 6, ConstLeaf(v));
        check_nor(&src, true, &format!("const-{v} B(2,6)"));
    }
    let src = UniformSource::nor_worst_case(3, 4);
    check_nor(&src, false, "worst-case B(3,4)");
    let big = UniformSource::nor_worst_case(2, 14);
    check_nor_forks(&big, nor_value(&big), "worst-case B(2,14)");
}
