//! Round-synchronous threaded engine.
//!
//! Drives the exact frontier logic of the `gt-sim` simulators, but
//! evaluates each round's leaves on the fork-join pool of
//! [`gt_tree::par`].  Because the frontier is identical to the model
//! simulation's, the number of rounds equals the paper's `P(T)`
//! exactly; wall-clock speed-up then follows the model speed-up
//! whenever per-leaf evaluation cost dominates the (serial) frontier
//! bookkeeping — which is precisely the leaf-evaluation model's
//! accounting.
//!
//! A round forks only when half of it is worth a fork under
//! [`par::worth_a_fork`], at the per-leaf time measured on the last
//! round that ran inline; the first round always runs inline.  Rounds
//! and work do not depend on the schedule, so deciding by time costs
//! nothing in exactness.

use gt_sim::alphabeta::Model;
use gt_sim::nor::Policy;
use gt_sim::{AlphaBetaSim, ExpansionSim, NorSim, RunStats};
use gt_tree::{par, TreeSource, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use super::cascade::Cancelled;

/// Outcome of a threaded engine run.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// Root value.
    pub value: Value,
    /// Rounds executed (equals the model's `P(T)` for this width).
    pub rounds: u64,
    /// Leaves evaluated.
    pub leaves_evaluated: u64,
    /// Largest round (processors that could be used at once).
    pub max_round_size: u32,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl EngineResult {
    fn from_stats(stats: &RunStats, elapsed: Duration) -> Self {
        EngineResult {
            value: stats.value,
            rounds: stats.steps,
            leaves_evaluated: stats.total_work,
            max_round_size: stats.processors_used,
            elapsed,
        }
    }
}

/// Round-synchronous parallel engine.  A round too cheap to pay for a
/// fork runs on the calling thread; larger rounds fork.
#[derive(Debug, Clone, Copy)]
pub struct RoundEngine {
    /// The paper's width parameter `w` (0 = sequential).
    pub width: u32,
}

impl Default for RoundEngine {
    fn default() -> Self {
        RoundEngine { width: 1 }
    }
}

impl RoundEngine {
    /// Engine with the given width.
    pub fn with_width(width: u32) -> Self {
        RoundEngine { width }
    }

    /// Evaluate a NOR tree (Parallel SOLVE of width `w`, threaded).
    pub fn solve_nor<S: TreeSource>(&self, source: S) -> EngineResult {
        let never = AtomicBool::new(false);
        self.solve_nor_cancellable(source, &never)
            .expect("unset flag cannot cancel")
    }

    /// Like [`RoundEngine::solve_nor`], but aborts between rounds when
    /// `cancel` becomes `true` (the round in flight completes first —
    /// the frontier is the engine's natural preemption boundary).
    pub fn solve_nor_cancellable<S: TreeSource>(
        &self,
        source: S,
        cancel: &AtomicBool,
    ) -> Result<EngineResult, Cancelled> {
        let start = Instant::now();
        let mut sim = NorSim::new(source);
        let mut stats = RunStats::new(false);
        // The frontier buffer lives outside the loop so every round
        // after the first reuses it instead of reallocating.
        let mut frontier: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut leaf_ns = 0;
        loop {
            if cancel.load(Ordering::Relaxed) {
                return Err(Cancelled);
            }
            sim.frontier_paths_into(Policy::Width(self.width), &mut frontier);
            if frontier.is_empty() {
                break;
            }
            let values = evaluate_batch(sim.tree().source(), &frontier, &mut leaf_ns);
            sim.apply_step(&values, &mut stats);
        }
        Ok(EngineResult::from_stats(&stats, start.elapsed()))
    }

    /// Evaluate a MIN/MAX tree (Parallel α-β of width `w`, threaded).
    pub fn solve_minmax<S: TreeSource>(&self, source: S) -> EngineResult {
        let never = AtomicBool::new(false);
        self.solve_minmax_cancellable(source, &never)
            .expect("unset flag cannot cancel")
    }

    /// Like [`RoundEngine::solve_minmax`], but aborts between rounds
    /// when `cancel` becomes `true`.
    pub fn solve_minmax_cancellable<S: TreeSource>(
        &self,
        source: S,
        cancel: &AtomicBool,
    ) -> Result<EngineResult, Cancelled> {
        let start = Instant::now();
        let mut sim = AlphaBetaSim::new(source, Model::LeafEvaluation);
        let mut stats = RunStats::new(false);
        let mut frontier: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut leaf_ns = 0;
        loop {
            if cancel.load(Ordering::Relaxed) {
                return Err(Cancelled);
            }
            sim.frontier_paths_into(self.width, &mut frontier);
            if frontier.is_empty() {
                break;
            }
            let values = evaluate_batch(sim.tree().source(), &frontier, &mut leaf_ns);
            sim.apply_step(&values, &mut stats);
        }
        Ok(EngineResult::from_stats(&stats, start.elapsed()))
    }

    /// Evaluate a NOR tree in the node-expansion model, expanding each
    /// round's frontier in parallel (for game trees this parallelizes
    /// move generation, the dominant cost of real engines).
    pub fn solve_nor_expansion<S: TreeSource>(&self, source: S) -> EngineResult {
        let start = Instant::now();
        let mut sim = ExpansionSim::new(source);
        let mut stats = RunStats::new(false);
        let mut frontier: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut node_ns = 0;
        loop {
            sim.frontier_paths_into(self.width, &mut frontier);
            if frontier.is_empty() {
                break;
            }
            let src = sim.tree().source();
            let kinds = map_round(frontier.len(), &mut node_ns, |j| {
                let (id, path) = &frontier[j];
                (*id, src.expand(path))
            });
            sim.apply_expansions(&kinds, &mut stats);
        }
        EngineResult::from_stats(&stats, start.elapsed())
    }
}

/// Evaluate one round's leaves in frontier order (see [`map_round`]).
fn evaluate_batch<S: TreeSource>(
    source: &S,
    frontier: &[(u32, Vec<u32>)],
    leaf_ns: &mut u64,
) -> Vec<(u32, Value)> {
    map_round(frontier.len(), leaf_ns, |j| {
        let (id, path) = &frontier[j];
        (*id, source.leaf_value(path))
    })
}

/// `(0..n).map(f)` for one non-empty round: on the pool when half the
/// round, at `item_ns` per item, is worth a fork; otherwise inline,
/// timed, and `item_ns` set to the time per item it measured.
fn map_round<T: Send>(n: usize, item_ns: &mut u64, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if par::worth_a_fork(n as u64 / 2, *item_ns) {
        return par::map(n, f);
    }
    let start = Instant::now();
    let out: Vec<T> = (0..n).map(f).collect();
    *item_ns = (start.elapsed().as_nanos() / n as u128) as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_tree::gen::UniformSource;
    use gt_tree::minimax::{minimax_value, nor_value};

    #[test]
    fn nor_value_matches_ground_truth() {
        for seed in 0..10 {
            let s = UniformSource::nor_iid(2, 8, 0.5, seed);
            for w in [0u32, 1, 2] {
                let r = RoundEngine::with_width(w).solve_nor(&s);
                assert_eq!(r.value, nor_value(&s), "w={w} seed={seed}");
            }
        }
    }

    #[test]
    fn minmax_value_matches_ground_truth() {
        for seed in 0..10 {
            let s = UniformSource::minmax_iid(3, 4, 0, 100, seed);
            for w in [0u32, 1, 2] {
                let r = RoundEngine::with_width(w).solve_minmax(&s);
                assert_eq!(r.value, minimax_value(&s), "w={w} seed={seed}");
            }
        }
        // Leaves expensive enough that the wider rounds fork.
        use gt_games::{GameTreeSource, SyntheticGame};
        let s = GameTreeSource::from_initial(SyntheticGame::new(3, 5, 20_000, 1), 5);
        let truth = minimax_value(&s);
        for w in [1u32, 2] {
            assert_eq!(RoundEngine::with_width(w).solve_minmax(&s).value, truth);
        }
    }

    #[test]
    fn round_counts_match_model_simulation() {
        for seed in 0..6 {
            let s = UniformSource::nor_iid(2, 9, 0.5, seed);
            let model = gt_sim::parallel_solve(&s, 1, false);
            let engine = RoundEngine::with_width(1).solve_nor(&s);
            assert_eq!(engine.rounds, model.steps, "seed {seed}");
            assert_eq!(engine.leaves_evaluated, model.total_work);
            assert_eq!(engine.max_round_size, model.processors_used);
        }
    }

    #[test]
    fn alphabeta_rounds_match_model_simulation() {
        for seed in 0..6 {
            let s = UniformSource::minmax_iid(2, 6, 0, 1000, seed);
            let model = gt_sim::parallel_alphabeta(&s, 1, false);
            let engine = RoundEngine::with_width(1).solve_minmax(&s);
            assert_eq!(engine.rounds, model.steps, "seed {seed}");
            assert_eq!(engine.leaves_evaluated, model.total_work);
        }
    }

    #[test]
    fn expansion_engine_matches_model_simulation() {
        for seed in 0..6 {
            let s = UniformSource::nor_iid(2, 8, 0.5, seed);
            let model = gt_sim::n_parallel_solve(&s, 1, false);
            let engine = RoundEngine::with_width(1).solve_nor_expansion(&s);
            assert_eq!(engine.value, model.value, "seed {seed}");
            assert_eq!(engine.rounds, model.steps);
            assert_eq!(engine.leaves_evaluated, model.total_work);
        }
    }

    #[test]
    fn expansion_engine_on_a_real_game() {
        use gt_games::{GameTreeSource, TicTacToe};
        // NOR interpretation of a game tree is not meaningful, but the
        // expansion engine must still terminate and agree with the model
        // run on the same source.
        let src = GameTreeSource::from_initial(TicTacToe, 3);
        let engine = RoundEngine::with_width(2).solve_nor_expansion(&src);
        let model = gt_sim::n_parallel_solve(&src, 2, false);
        assert_eq!(engine.value, model.value);
        assert_eq!(engine.rounds, model.steps);
    }

    #[test]
    fn cancellation_aborts_between_rounds() {
        let s = UniformSource::nor_worst_case(2, 12);
        let flag = AtomicBool::new(true);
        assert!(matches!(
            RoundEngine::with_width(1).solve_nor_cancellable(&s, &flag),
            Err(Cancelled)
        ));
        let s = UniformSource::minmax_iid(2, 6, 0, 9, 1);
        assert!(matches!(
            RoundEngine::with_width(1).solve_minmax_cancellable(&s, &flag),
            Err(Cancelled)
        ));
        // An unset flag is invisible.
        flag.store(false, Ordering::Relaxed);
        let r = RoundEngine::with_width(1)
            .solve_minmax_cancellable(&s, &flag)
            .unwrap();
        assert_eq!(r.value, minimax_value(&s));
    }

    #[test]
    fn width_zero_equals_sequential_leaf_count() {
        let s = UniformSource::nor_iid(2, 8, 0.5, 3);
        let r = RoundEngine::with_width(0).solve_nor(&s);
        let re = gt_tree::minimax::seq_solve(&s, false);
        assert_eq!(r.leaves_evaluated, re.leaves_evaluated);
        assert_eq!(r.rounds, re.leaves_evaluated);
    }
}
