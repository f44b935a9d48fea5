//! Property tests for the work-stealing engine ([`gt_tree::par`]):
//! evaluating a random generated tree in parallel must yield the same
//! *value* as the sequential reference — for every generator family,
//! every worker count 1..8, and arbitrary tree widths/heights.  Visit
//! order is not deterministic (siblings settle in arrival order);
//! these properties pin down exactly what is.
//!
//! Under a non-trivial starting window fail-soft semantics make the
//! reported *bound* legitimately order-dependent when the root fails
//! low or high, so the windowed property asserts:
//!
//! * value strictly inside `(α, β)` → exact equality with sequential;
//! * sequential fails low (`≤ α`) → parallel also reports `≤ α`;
//! * sequential fails high (`≥ β`) → parallel also reports `≥ β`.
//!
//! Run in CI with `RUST_TEST_THREADS=4` so the 1..8-worker pools
//! genuinely interleave.

use gt_tree::minimax::{seq_alphabeta, seq_alphabeta_windowed, seq_solve};
use gt_tree::par::{par_alphabeta, par_alphabeta_windowed, par_solve};
use gt_tree::GenSpec;
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

const MINMAX_KINDS: [&str; 4] = ["minmax", "minmax-best", "minmax-worst", "minmax-corr"];

/// The spec text for one generated case.  Minmax leaf values are kept
/// in a narrow band so random windows actually bite (cut and fail
/// soft) instead of always containing every value.
fn spec_text(kind: &str, d: u32, n: u32, seed: u64) -> String {
    if kind == "minmax" {
        format!("{kind}:d={d},n={n},seed={seed},lo=-16,hi=16")
    } else {
        format!("{kind}:d={d},n={n},seed={seed}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full-window parity: for every family, width, and height, the
    /// parallel value equals the sequential one at every worker count
    /// 1..8 (`par_solve` ≡ `seq_solve` for NOR families,
    /// `par_alphabeta` ≡ `seq_alphabeta` for minmax families).
    #[test]
    fn par_value_equals_seq_value_for_every_family_and_worker_count(
        kind_ix in 0usize..8,
        d in 1u32..5,
        n in 0u32..6,
        seed in 0u64..1000,
    ) {
        let kind = KINDS[kind_ix];
        let spec = GenSpec::parse(&spec_text(kind, d, n, seed)).unwrap();
        let minmax = spec.is_minmax();
        let source = spec.build().unwrap();
        let expected = if minmax {
            seq_alphabeta(&source, false).value
        } else {
            seq_solve(&source, false).value
        };
        let never = AtomicBool::new(false);
        for workers in 1..=8u32 {
            let got = if minmax {
                par_alphabeta(&source, workers, &never).unwrap().value
            } else {
                par_solve(&source, workers, &never).unwrap().value
            };
            prop_assert_eq!(
                got, expected,
                "kind={} d={} n={} seed={} workers={}",
                kind, d, n, seed, workers
            );
        }
    }

    /// Windowed parity: under a non-trivial starting `(α, β)` the
    /// parallel engine agrees with the sequential fail-soft search —
    /// exactly when the value lands strictly inside the window, and on
    /// the same fail side (with a bound at least as informative as the
    /// window edge) when it does not.
    #[test]
    fn par_windowed_value_agrees_with_seq_fail_soft(
        kind_ix in 0usize..4,
        d in 1u32..5,
        n in 0u32..6,
        seed in 0u64..1000,
        lo in -24i64..24,
        width in 1i64..48,
    ) {
        let kind = MINMAX_KINDS[kind_ix];
        let spec = GenSpec::parse(&spec_text(kind, d, n, seed)).unwrap();
        let source = spec.build().unwrap();
        let (alpha, beta) = (lo, lo + width);
        let seq = seq_alphabeta_windowed(&source, &[], false, alpha, beta, true).value;
        let never = AtomicBool::new(false);
        for workers in 1..=8u32 {
            let par = par_alphabeta_windowed(&source, workers, alpha, beta, true, &never)
                .unwrap()
                .value;
            if seq > alpha && seq < beta {
                // Strictly inside the window: the value is exact and
                // order-independent.
                prop_assert_eq!(
                    par, seq,
                    "kind={} d={} n={} seed={} window={}..{} workers={}",
                    kind, d, n, seed, alpha, beta, workers
                );
            } else if seq <= alpha {
                prop_assert!(
                    par <= alpha,
                    "seq failed low ({} <= {}) but par reported {} \
                     (kind={} d={} n={} seed={} window={}..{} workers={})",
                    seq, alpha, par, kind, d, n, seed, alpha, beta, workers
                );
            } else {
                prop_assert!(
                    par >= beta,
                    "seq failed high ({} >= {}) but par reported {} \
                     (kind={} d={} n={} seed={} window={}..{} workers={})",
                    seq, beta, par, kind, d, n, seed, alpha, beta, workers
                );
            }
        }
    }
}
