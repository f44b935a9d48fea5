//! Cross-crate consistency: every algorithm, in every model, on every
//! engine, must report the same root value — and their work/step
//! metrics must relate the way the paper says they do.

use karp_zhang::core::engine::{CascadeEngine, RoundEngine};
use karp_zhang::msgsim::simulate;
use karp_zhang::sim::randomized::{r_parallel_alphabeta, r_parallel_solve};
use karp_zhang::sim::{
    n_parallel_alphabeta, n_parallel_solve, parallel_alphabeta, parallel_solve, team_solve,
};
use karp_zhang::tree::gen::{critical_bias, UniformSource};
use karp_zhang::tree::minimax::{minimax_value, nor_value, seq_alphabeta, seq_solve};

#[test]
fn every_nor_algorithm_agrees_on_the_value() {
    for seed in 0..10 {
        let src = UniformSource::nor_iid(2, 9, critical_bias(2), seed);
        let truth = nor_value(&src);
        assert_eq!(seq_solve(&src, false).value, truth);
        for w in 0..3 {
            assert_eq!(parallel_solve(&src, w, false).value, truth, "w={w}");
            assert_eq!(n_parallel_solve(&src, w, false).value, truth, "nw={w}");
            assert_eq!(r_parallel_solve(&src, w, seed, false).value, truth);
        }
        for p in [1u32, 3, 8] {
            assert_eq!(team_solve(&src, p, false).value, truth, "team p={p}");
        }
        assert_eq!(simulate(&src).value, truth, "message-passing machine");
        assert_eq!(RoundEngine::with_width(1).solve_nor(&src).value, truth);
        assert_eq!(CascadeEngine::with_width(1).solve_nor(&src).value, truth);
    }
    // Big enough that the cascade engine forks.
    let src = UniformSource::nor_iid(2, 14, critical_bias(2), 10);
    assert_eq!(
        CascadeEngine::with_width(1).solve_nor(&src).value,
        nor_value(&src)
    );
}

#[test]
fn every_minmax_algorithm_agrees_on_the_value() {
    for seed in 0..10 {
        let src = UniformSource::minmax_iid(3, 4, -100, 100, seed);
        let truth = minimax_value(&src);
        assert_eq!(seq_alphabeta(&src, false).value, truth);
        for w in 0..3 {
            assert_eq!(parallel_alphabeta(&src, w, false).value, truth, "w={w}");
            assert_eq!(n_parallel_alphabeta(&src, w, false).value, truth, "nw={w}");
            assert_eq!(r_parallel_alphabeta(&src, w, seed, false).value, truth);
        }
        assert_eq!(RoundEngine::with_width(2).solve_minmax(&src).value, truth);
        assert_eq!(CascadeEngine::with_width(2).solve_minmax(&src).value, truth);
    }
    let src = UniformSource::minmax_iid(2, 14, -100, 100, 10);
    assert_eq!(
        CascadeEngine::with_width(2).solve_minmax(&src).value,
        minimax_value(&src)
    );
}

#[test]
fn engine_rounds_equal_model_steps() {
    // The round-synchronous engine is the model algorithm on threads.
    for seed in 0..5 {
        let src = UniformSource::nor_iid(2, 8, 0.5, seed);
        for w in [1u32, 2] {
            let model = parallel_solve(&src, w, false);
            let engine = RoundEngine::with_width(w).solve_nor(&src);
            assert_eq!(engine.rounds, model.steps, "w={w} seed={seed}");
            assert_eq!(engine.leaves_evaluated, model.total_work);
        }
    }
}

#[test]
fn sequential_work_equals_width0_steps_equals_recursive_count() {
    for seed in 0..5 {
        let src = UniformSource::nor_iid(3, 5, 0.5, seed);
        let rec = seq_solve(&src, false);
        let sim = parallel_solve(&src, 0, false);
        assert_eq!(sim.steps, rec.leaves_evaluated);
        assert_eq!(sim.total_work, rec.leaves_evaluated);
    }
}

#[test]
fn expansion_work_is_at_least_leaf_work() {
    // Every evaluated leaf costs one expansion, and internal nodes cost
    // more: S*(T) >= S(T).
    for seed in 0..5 {
        let src = UniformSource::nor_iid(2, 8, 0.5, seed);
        let leaves = seq_solve(&src, false).leaves_evaluated;
        let expansions = seq_solve(&src, false).nodes_expanded;
        assert!(expansions >= leaves);
        let nsim = n_parallel_solve(&src, 0, false);
        assert_eq!(nsim.total_work, expansions);
    }
}

#[test]
fn parallel_steps_never_exceed_sequential_steps() {
    for seed in 0..5 {
        let nor = UniformSource::nor_iid(2, 9, critical_bias(2), seed);
        let s = seq_solve(&nor, false).leaves_evaluated;
        for w in 1..4 {
            assert!(parallel_solve(&nor, w, false).steps <= s);
        }
        let mm = UniformSource::minmax_iid(2, 7, 0, 1000, seed);
        let s = seq_alphabeta(&mm, false).leaves_evaluated;
        for w in 1..4 {
            assert!(parallel_alphabeta(&mm, w, false).steps <= s);
        }
    }
}

#[test]
fn games_round_trip_through_all_machinery() {
    use karp_zhang::games::{GameTreeSource, SyntheticGame, TicTacToe};
    // Tic-Tac-Toe at shallow depth.
    let src = GameTreeSource::from_initial(TicTacToe, 4);
    let truth = minimax_value(&src);
    assert_eq!(parallel_alphabeta(&src, 1, false).value, truth);
    assert_eq!(CascadeEngine::with_width(1).solve_minmax(&src).value, truth);
    // Synthetic game (binary so the message machine applies to its NOR
    // interpretation is skipped — MIN/MAX engines only).
    let g = SyntheticGame::new(3, 5, 2, 11);
    let src = GameTreeSource::from_initial(g, 5);
    let truth = minimax_value(&src);
    assert_eq!(parallel_alphabeta(&src, 2, false).value, truth);
    assert_eq!(RoundEngine::with_width(2).solve_minmax(&src).value, truth);
    // Tic-Tac-Toe six plies deep: the cascade forks at the top two
    // plies (9^5 and 8^4 leaves below each child).
    let src = GameTreeSource::from_initial(TicTacToe, 6);
    assert_eq!(
        CascadeEngine::with_width(1).solve_minmax(&src).value,
        minimax_value(&src)
    );
}
