//! Criterion benches for the threaded engines (experiment E12): the
//! wall-clock counterpart of the paper's model-level speed-ups.
//!
//! The interesting axis is per-leaf cost: the leaf-evaluation model
//! charges only for leaves, so the parallel engines should pull ahead
//! exactly as the synthetic game's `eval_work` grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gt_core::engine::{CascadeEngine, RoundEngine, YbwEngine};
use gt_games::{Connect4, GameTreeSource, SyntheticGame};
use gt_tree::minimax::seq_alphabeta;
use std::hint::black_box;

fn bench_leaf_cost_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_leaf_cost");
    g.sample_size(10);
    for work in [0u32, 512, 4096] {
        let game = SyntheticGame::new(4, 6, work, 1);
        let src = GameTreeSource::from_initial(game, 6);
        g.bench_with_input(BenchmarkId::new("sequential", work), &work, |b, _| {
            b.iter(|| black_box(seq_alphabeta(&src, false).value))
        });
        g.bench_with_input(BenchmarkId::new("round_w2", work), &work, |b, _| {
            let e = RoundEngine::with_width(2);
            b.iter(|| black_box(e.solve_minmax(&src).value))
        });
        g.bench_with_input(BenchmarkId::new("cascade_w2", work), &work, |b, _| {
            let e = CascadeEngine::with_width(2);
            b.iter(|| black_box(e.solve_minmax(&src).value))
        });
        g.bench_with_input(BenchmarkId::new("ybw", work), &work, |b, _| {
            let e = YbwEngine;
            b.iter(|| black_box(e.solve_minmax(&src).value))
        });
    }
    g.finish();
}

fn bench_connect4(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_connect4");
    g.sample_size(10);
    for depth in [5u32, 6] {
        let src = GameTreeSource::from_initial(Connect4::default(), depth);
        g.bench_with_input(BenchmarkId::new("sequential", depth), &depth, |b, _| {
            b.iter(|| black_box(seq_alphabeta(&src, false).value))
        });
        g.bench_with_input(BenchmarkId::new("cascade_w2", depth), &depth, |b, _| {
            let e = CascadeEngine::with_width(2);
            b.iter(|| black_box(e.solve_minmax(&src).value))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_leaf_cost_sweep, bench_connect4);
criterion_main!(benches);
