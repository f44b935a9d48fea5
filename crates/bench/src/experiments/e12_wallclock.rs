//! E12 — wall-clock behaviour of the threaded engines.
//!
//! The leaf-evaluation model charges only for leaf evaluations, so the
//! model-level speed-ups of Theorems 1/3 surface as wall-clock speed-ups
//! exactly when per-leaf cost dominates the serial bookkeeping.  We
//! sweep the artificial leaf cost of the synthetic game and report the
//! wall-clock speed-up of the round-synchronous and cascade engines over
//! the sequential baselines, plus a Connect-Four depth sweep.

use gt_analysis::table::f2;
use gt_analysis::Table;
use gt_core::engine::{CascadeEngine, RoundEngine, YbwEngine};
use gt_games::{Connect4, GameTreeSource, SyntheticGame};
use gt_tree::minimax::seq_alphabeta;
use std::time::Instant;

/// `(eval_work, t_seq_ms, t_round_ms, t_cascade_ms, t_ybw_ms)` over the
/// leaf-cost sweep.
pub fn leaf_cost_sweep(quick: bool) -> Vec<(u32, f64, f64, f64, f64)> {
    let (branching, depth) = if quick { (3, 5) } else { (4, 7) };
    let costs: &[u32] = if quick {
        &[0, 256]
    } else {
        &[0, 64, 256, 1024, 4096]
    };
    // Start the pool untimed, as `gtree serve` does at boot, so the
    // first engine to fork does not pay for spawning it.
    gt_tree::par::start_pool();
    costs
        .iter()
        .map(|&work| {
            let game = SyntheticGame::new(branching, depth, work, 99);
            let src = GameTreeSource::from_initial(game, depth);
            let t0 = Instant::now();
            let seq = seq_alphabeta(&src, false);
            let t_seq = t0.elapsed().as_secs_f64() * 1e3;
            let round = RoundEngine::with_width(2).solve_minmax(&src);
            assert_eq!(round.value, seq.value);
            let casc = CascadeEngine::with_width(2).solve_minmax(&src);
            assert_eq!(casc.value, seq.value);
            let ybw = YbwEngine.solve_minmax(&src);
            assert_eq!(ybw.value, seq.value);
            (
                work,
                t_seq,
                round.elapsed.as_secs_f64() * 1e3,
                casc.elapsed.as_secs_f64() * 1e3,
                ybw.elapsed.as_secs_f64() * 1e3,
            )
        })
        .collect()
}

/// Render the E12 report.
pub fn run(quick: bool) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        "E12  Wall-clock: threaded engines vs sequential (leaf-cost sweep)\n\
         host parallelism: {cores} core(s)\n\
         expectation: with multiple cores, parallel wins grow as per-leaf cost\n\
         dominates bookkeeping; on a single-core host the sweep instead measures\n\
         the engines' overhead (the paper's speed-ups are model-level: see E1-E8)\n\n",
    );
    let mut t = Table::new([
        "leaf work",
        "seq ms",
        "round ms",
        "cascade ms",
        "ybw ms",
        "round speedup",
        "cascade speedup",
        "ybw speedup",
    ]);
    for (w, seq, round, casc, ybw) in leaf_cost_sweep(quick) {
        t.row([
            w.to_string(),
            f2(seq),
            f2(round),
            f2(casc),
            f2(ybw),
            f2(seq / round.max(1e-9)),
            f2(seq / casc.max(1e-9)),
            f2(seq / ybw.max(1e-9)),
        ]);
    }
    out.push_str(&t.render());

    // Connect Four: realistic "wide and shallow" trees (Section 8).
    let depths: &[u32] = if quick { &[4, 5] } else { &[5, 6, 7, 8] };
    let mut t2 = Table::new(["depth", "seq leaves", "seq ms", "cascade ms", "speedup"]);
    for &depth in depths {
        let src = GameTreeSource::from_initial(Connect4::default(), depth);
        let t0 = Instant::now();
        let seq = seq_alphabeta(&src, false);
        let t_seq = t0.elapsed().as_secs_f64() * 1e3;
        let casc = CascadeEngine::with_width(2).solve_minmax(&src);
        assert_eq!(casc.value, seq.value, "depth {depth}");
        let t_casc = casc.elapsed.as_secs_f64() * 1e3;
        t2.row([
            depth.to_string(),
            seq.leaves_evaluated.to_string(),
            f2(t_seq),
            f2(t_casc),
            f2(t_seq / t_casc.max(1e-9)),
        ]);
    }
    out.push_str(&format!(
        "\nConnect Four depth sweep (cascade width 2, heuristic leaves):\n{}",
        t2.render()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_with_sequential_on_synthetic_game() {
        let rows = leaf_cost_sweep(true);
        assert!(!rows.is_empty());
        // Agreement is asserted inside the sweep; here just sanity-check
        // timings are positive.
        for (_, a, b, c, y) in rows {
            assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && y >= 0.0);
        }
    }

    #[test]
    fn report_renders() {
        assert!(run(true).contains("Wall-clock"));
    }
}
