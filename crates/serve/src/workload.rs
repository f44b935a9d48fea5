//! Request validation and engine dispatch.
//!
//! A request names a workload with the [`GenSpec`] string format and an
//! algorithm with the same `name:key=val,...` syntax.  Validation is
//! front-loaded on the connection thread so malformed work is rejected
//! *before* it occupies a queue slot; [`evaluate`] then runs on a
//! worker with the request's cancellation flag threaded into every
//! engine.  All algorithms honour the flag cooperatively, so a
//! deadline bounds any admitted workload and no size ceiling is
//! needed.  A miss whose engine is [`walk_priced`] and whose
//! [`estimated_cost`] is small runs on its connection thread instead,
//! bounded by that estimate rather than by a deadline.

use gt_core::engine::{Cancelled, CascadeEngine, EngineResult, RoundEngine, TtSearch, YbwEngine};
use gt_games::{Connect4, Game, Nim, TicTacToe};
use gt_sim::{parallel_alphabeta_cancellable, parallel_solve_cancellable, RunStats};
use gt_tree::minimax::{seq_alphabeta_cancellable, seq_solve_cancellable, SeqStats};
use gt_tree::split::{parse_path, sub_evaluate_cancellable};
use gt_tree::{GenSpec, SourceVisitor, SubtreeSpec, TreeSource, Value};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;

/// A parsed algorithm selector: `name` or `name:key=val,...`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoSpec {
    /// Algorithm name (`seq-solve`, `alphabeta`, `parallel-solve`,
    /// `round`, `cascade`, `ybw`, `tt`).
    pub name: String,
    /// Key/value parameters (`w`, ...); ones an algorithm does not use
    /// are ignored.
    pub params: BTreeMap<String, String>,
}

impl AlgoSpec {
    /// Parse an algorithm selector (same grammar as [`GenSpec`]).
    pub fn parse(text: &str) -> Result<AlgoSpec, String> {
        let g = GenSpec::parse(text)?;
        Ok(AlgoSpec {
            name: g.kind,
            params: g.params,
        })
    }

    fn u32_param(&self, key: &str, default: u32) -> Result<u32, String> {
        match self.params.get(key) {
            Some(v) => v.parse().map_err(|e| format!("bad {key}={v}: {e}")),
            None => Ok(default),
        }
    }

    /// Evaluation width (`w`), defaulting to 1.
    pub fn width(&self) -> Result<u32, String> {
        let w = self.u32_param("w", 1)?;
        if w == 0 {
            return Err("width w must be at least 1".into());
        }
        Ok(w)
    }

    /// Canonical string form: name plus sorted parameters.
    pub fn canonical(&self) -> String {
        canonical_text(&self.name, &self.params)
    }
}

fn canonical_text(kind: &str, params: &BTreeMap<String, String>) -> String {
    let mut out = kind.to_string();
    for (i, (k, v)) in params.iter().enumerate() {
        out.push(if i == 0 { ':' } else { ',' });
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out
}

/// The result cache key: canonical spec and algorithm, joined.  Two
/// textually different requests naming the same work (reordered or
/// re-spaced parameters) collapse to one key.
pub fn canonical_key(spec: &GenSpec, algo: &AlgoSpec) -> String {
    format!(
        "{}|{}",
        canonical_text(&spec.kind, &spec.params),
        algo.canonical()
    )
}

/// What an engine produced for one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Root value.
    pub value: Value,
    /// Work performed: leaves evaluated (tree engines) or positions
    /// evaluated (game search).
    pub work: u64,
    /// Parallel steps/rounds, where the algorithm counts them; 0 for
    /// purely sequential algorithms.
    pub steps: u64,
    /// Largest parallel degree of any step — the paper's "processors
    /// used" (1 for sequential algorithms; for the fork-join engines,
    /// the configured concurrency bound).
    pub max_width: u32,
    /// Pruning events: α≥β cutoffs, NOR short-circuits, or (for `tt`)
    /// transposition-table hits — searches avoided rather than done.
    pub pruned: u64,
}

impl EvalOutcome {
    /// The reply's `work` object: the root value plus the paper's work
    /// counters (leaves ≈ W(T), steps ≈ rounds, max_width ≈ processors
    /// used, and the pruning events).
    pub fn work_json(&self) -> gt_analysis::Json {
        use gt_analysis::Json;
        Json::obj([
            ("value", Json::from(self.value)),
            ("leaves", Json::from(self.work)),
            ("steps", Json::from(self.steps)),
            ("max_width", Json::from(self.max_width)),
            ("pruned", Json::from(self.pruned)),
        ])
    }
}

impl From<SeqStats> for EvalOutcome {
    fn from(st: SeqStats) -> Self {
        EvalOutcome {
            value: st.value,
            work: st.leaves_evaluated,
            max_width: 1,
            pruned: st.cutoffs,
            ..Default::default()
        }
    }
}

impl From<RunStats> for EvalOutcome {
    fn from(st: RunStats) -> Self {
        EvalOutcome {
            value: st.value,
            work: st.total_work,
            steps: st.steps,
            max_width: st.processors_used,
            pruned: st.cutoffs,
        }
    }
}

impl From<EngineResult> for EvalOutcome {
    fn from(r: EngineResult) -> Self {
        EvalOutcome {
            value: r.value,
            work: r.leaves_evaluated,
            steps: r.rounds,
            // YBW does not track its own frontier width and reports 0.
            max_width: r.max_round_size.max(1),
            ..Default::default()
        }
    }
}

/// Why an evaluation did not produce an outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The request was invalid in a way validation did not catch.
    Bad(String),
    /// The cancellation flag was set mid-flight.
    Cancelled,
}

impl From<Cancelled> for EvalError {
    fn from(_: Cancelled) -> Self {
        EvalError::Cancelled
    }
}

/// A request that passed validation and may enter the queue.
#[derive(Debug, Clone)]
pub struct ValidatedRequest {
    /// The workload.
    pub spec: GenSpec,
    /// The algorithm.
    pub algo: AlgoSpec,
    /// Result-cache key.
    pub cache_key: String,
}

/// The workloads an algorithm accepts: NOR trees, minmax trees, either
/// tree family (the engine follows the spec), or a game ([`GAMES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Nor,
    Minmax,
    Tree,
    Game,
}

/// How an engine's run time relates to its [`estimated_cost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pricing {
    /// The sequential walk prices it: time tracks the estimated leaves.
    /// The fork-join engines count too, since below the fork grain
    /// they run as one sequential search.
    Walk,
    /// Nothing prices it: the step simulators run 26–38× slower than
    /// sequential α-β, and `tt`'s estimate is a guessed
    /// `branching^depth` of hashed positions, not walk leaves.
    Unpriced,
}

/// Every algorithm the server runs, with the workload family it accepts
/// and how its engine is priced.
const ALGOS: &[(&str, Family, Pricing)] = &[
    ("seq-solve", Family::Nor, Pricing::Walk),
    ("alphabeta", Family::Minmax, Pricing::Walk),
    ("parallel-solve", Family::Tree, Pricing::Unpriced),
    ("round", Family::Tree, Pricing::Unpriced),
    ("cascade", Family::Tree, Pricing::Walk),
    ("ybw", Family::Minmax, Pricing::Walk),
    ("tt", Family::Game, Pricing::Unpriced),
];

/// An algorithm only this crate's tests can name: it validates as a
/// walk-priced tree engine and panics when it runs.
#[cfg(test)]
pub(crate) const PANIC_ALGO: &str = "panic";

/// The [`ALGOS`] row named `name`.
fn algo_entry(name: &str) -> Option<&'static (&'static str, Family, Pricing)> {
    #[cfg(test)]
    if name == PANIC_ALGO {
        return Some(&(PANIC_ALGO, Family::Tree, Pricing::Walk));
    }
    ALGOS.iter().find(|a| a.0 == name)
}

/// Whether the sequential walk prices `algo`, so that an
/// [`estimated_cost`] at or below `--small-cost` bounds its run time.
/// A subeval always is: it runs the sequential kernels.
pub fn walk_priced(algo: &AlgoSpec) -> bool {
    algo_entry(&algo.name).is_some_and(|a| a.2 == Pricing::Walk)
}

/// Names of games the `tt` algorithm accepts as `spec` kinds.
const GAMES: &[&str] = &["ttt", "tictactoe", "connect4", "nim"];

/// Names of the algorithms whose family admits `ok`, joined for a message.
fn algo_names(ok: impl Fn(Family) -> bool) -> String {
    let names: Vec<&str> = ALGOS.iter().filter(|a| ok(a.1)).map(|a| a.0).collect();
    names.join(", ")
}

/// Check a request end to end: both strings parse, the algorithm
/// exists, the workload builds, and the workload's family is one the
/// algorithm accepts.
pub fn validate(spec_text: &str, algo_text: &str) -> Result<ValidatedRequest, String> {
    let spec = GenSpec::parse(spec_text)?;
    let algo = AlgoSpec::parse(algo_text)?;
    let Some(&(_, family, _)) = algo_entry(&algo.name) else {
        return Err(format!(
            "unknown algorithm {:?} (expected one of {})",
            algo.name,
            algo_names(|_| true)
        ));
    };
    algo.width()?;
    if family == Family::Game {
        if !GAMES.contains(&spec.kind.as_str()) {
            return Err(format!(
                "algorithm {:?} searches a game, not a generated tree; \
                 spec kind must be one of {} (got {:?})",
                algo.name,
                GAMES.join(", "),
                spec.kind
            ));
        }
        // Depth must parse; the search itself is cancellable, so no
        // size ceiling is needed.
        tt_depth(&spec)?;
    } else {
        spec.build()?;
        let (kind, wanted) = if spec.is_minmax() {
            ("minmax", Family::Minmax)
        } else {
            ("NOR", Family::Nor)
        };
        if family != Family::Tree && family != wanted {
            return Err(format!(
                "{} does not evaluate {kind} trees; for {kind} specs use one of {}",
                algo.name,
                algo_names(|f| f == Family::Tree || f == wanted)
            ));
        }
    }
    let cache_key = canonical_key(&spec, &algo);
    Ok(ValidatedRequest {
        spec,
        algo,
        cache_key,
    })
}

/// A `subeval` request that passed validation.
#[derive(Debug, Clone)]
pub struct ValidatedSubeval {
    /// The subtree and its window.
    pub sub: SubtreeSpec,
    /// Result-cache key.  Embeds the path *and* the window, so a
    /// result computed under a narrow window can never satisfy a
    /// wider-window probe — fail-soft values are only bounds outside
    /// their own window.
    pub cache_key: String,
}

/// Check a `subeval` request: the spec parses and builds, the path
/// stays inside the generated tree, and the window is non-empty.
/// Absent bounds default to the full window.
pub fn validate_subeval(
    spec_text: &str,
    path_text: &str,
    alpha: Option<Value>,
    beta: Option<Value>,
) -> Result<ValidatedSubeval, String> {
    let spec = GenSpec::parse(spec_text)?;
    if GAMES.contains(&spec.kind.as_str()) {
        return Err(format!(
            "subeval decomposes generated trees, not games (got {:?})",
            spec.kind
        ));
    }
    spec.build()?;
    let path = parse_path(path_text)?;
    let alpha = alpha.unwrap_or(Value::MIN);
    let beta = beta.unwrap_or(Value::MAX);
    if alpha >= beta {
        return Err(format!("empty window {alpha}..{beta}"));
    }
    // Walk the path against the real generator so an out-of-range
    // segment is a 400, not a silently mis-seeded subtree.
    struct PathCheck<'a> {
        path: &'a [u32],
    }
    impl SourceVisitor for PathCheck<'_> {
        type Out = Result<(), String>;
        fn visit<S: TreeSource + Send + 'static>(self, src: S) -> Self::Out {
            for depth in 0..self.path.len() {
                let arity = src.arity(&self.path[..depth]);
                if arity == 0 {
                    return Err(format!(
                        "path {} descends through a leaf at depth {depth}",
                        gt_tree::split::path_text(self.path)
                    ));
                }
                if self.path[depth] >= arity {
                    return Err(format!(
                        "path segment {} at depth {depth} exceeds arity {arity}",
                        self.path[depth]
                    ));
                }
            }
            Ok(())
        }
    }
    spec.build_visit(PathCheck { path: &path })??;
    let sub = SubtreeSpec {
        spec,
        path,
        alpha,
        beta,
    };
    let cache_key = format!("sub:{}", sub.render());
    Ok(ValidatedSubeval { sub, cache_key })
}

/// Run one validated subtree evaluation on the calling thread: NOR
/// families run the short-circuit solver rooted at the path, minmax
/// families run windowed fail-soft α-β with the player chosen by the
/// path's depth parity (see [`sub_evaluate_cancellable`]).
pub fn evaluate_subtree(sub: &SubtreeSpec, cancel: &AtomicBool) -> Result<EvalOutcome, EvalError> {
    Ok(sub_evaluate_cancellable(sub, cancel)
        .map_err(EvalError::Bad)??
        .into())
}

/// [`estimated_cost`] for a subtree: the whole tree's uniform leaf
/// count shrunk by the levels the path has already descended.
pub fn estimated_subtree_cost(sub: &SubtreeSpec) -> u64 {
    uniform_leaves(&sub.spec, sub.path.len())
}

/// Rough size of the workload in positions/leaves, saturating.  The
/// executor classifies jobs with this: cheap deterministic specs are
/// served before anything big.  Precision does
/// not matter — only which side of the small/large threshold a job
/// lands on, and a uniform-tree leaf count (`d^n`, or `b^d` for game
/// search) tracks real cost well enough for that.
pub fn estimated_cost(spec: &GenSpec, algo: &AlgoSpec) -> u64 {
    if algo.name == "tt" {
        let depth = tt_depth(spec).unwrap_or(8);
        let branching: u64 = match spec.kind.as_str() {
            "nim" => 3,
            "connect4" => 7,
            // ttt, tictactoe, and anything new default high.
            _ => 8,
        };
        return branching.saturating_pow(depth.min(64));
    }
    uniform_leaves(spec, 0)
}

/// `d^(n − levels)`: the leaves below one node `levels` deep in a
/// uniform tree with the spec's arity and height, saturating.
fn uniform_leaves(spec: &GenSpec, levels: usize) -> u64 {
    let d: u64 = spec
        .params
        .get("d")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let n: u32 = spec
        .params
        .get("n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    d.max(1).saturating_pow(n.saturating_sub(levels as u32))
}

fn tt_depth(spec: &GenSpec) -> Result<u32, String> {
    match spec.params.get("d") {
        Some(v) => v.parse().map_err(|e| format!("bad d={v}: {e}")),
        None => Ok(8),
    }
}

fn run_tt<G: Game>(game: G, depth: u32, cancel: &AtomicBool) -> Result<EvalOutcome, EvalError>
where
    G::State: Eq + std::hash::Hash,
{
    let initial = game.initial();
    let mut tt = TtSearch::new(game, 1 << 20);
    let value = tt.search_cancellable(&initial, depth, cancel)?;
    Ok(EvalOutcome {
        value,
        work: tt.stats.evals,
        max_width: 1,
        pruned: tt.stats.hits,
        ..Default::default()
    })
}

/// Run one validated request to completion (or cancellation) on the
/// calling thread.  The fork-join engines (`round`, `cascade`, `ybw`)
/// also fork onto the pool of [`gt_tree::par`]; every arm polls the
/// one cancellation flag, so a deadline timer flipping it stops the
/// whole evaluation.
pub fn evaluate(
    spec: &GenSpec,
    algo: &AlgoSpec,
    cancel: &AtomicBool,
) -> Result<EvalOutcome, EvalError> {
    #[cfg(test)]
    if algo.name == PANIC_ALGO {
        panic!("the {PANIC_ALGO:?} test algorithm ran");
    }
    if algo.name == "tt" {
        let depth = tt_depth(spec).map_err(EvalError::Bad)?;
        return match spec.kind.as_str() {
            "ttt" | "tictactoe" => run_tt(TicTacToe, depth, cancel),
            "connect4" => run_tt(Connect4::default(), depth, cancel),
            "nim" => run_tt(Nim::default(), depth, cancel),
            other => Err(EvalError::Bad(format!("unknown game {other:?}"))),
        };
    }
    let width = algo.width().map_err(EvalError::Bad)?;
    // Run the engines through the monomorphizing visitor: each engine's
    // `arity`/`leaf_value` loop compiles against the concrete source
    // type, so the hot path pays no virtual call per node.  (On small
    // specs the dyn-dispatch tax rivals the protocol overhead.)
    struct EngineRun<'a> {
        algo: &'a AlgoSpec,
        minmax: bool,
        width: u32,
        cancel: &'a AtomicBool,
    }
    impl SourceVisitor for EngineRun<'_> {
        type Out = Result<EvalOutcome, EvalError>;
        fn visit<S: TreeSource + Send + 'static>(self, src: S) -> Self::Out {
            let EngineRun {
                algo,
                minmax,
                width,
                cancel,
            } = self;
            let round = RoundEngine::with_width(width);
            let cascade = CascadeEngine::with_width(width);
            Ok(match (algo.name.as_str(), minmax) {
                ("seq-solve", _) => seq_solve_cancellable(&src, &[], false, cancel)?.into(),
                ("alphabeta", _) => seq_alphabeta_cancellable(&src, false, cancel)?.into(),
                ("parallel-solve", true) => {
                    parallel_alphabeta_cancellable(&src, width, false, cancel)?.into()
                }
                ("parallel-solve", false) => {
                    parallel_solve_cancellable(&src, width, false, cancel)?.into()
                }
                ("round", true) => round.solve_minmax_cancellable(&src, cancel)?.into(),
                ("round", false) => round.solve_nor_cancellable(&src, cancel)?.into(),
                ("cascade", true) => cascade.solve_minmax_cancellable(&src, cancel)?.into(),
                ("cascade", false) => cascade.solve_nor_cancellable(&src, cancel)?.into(),
                ("ybw", _) => YbwEngine.solve_minmax_cancellable(&src, cancel)?.into(),
                (other, _) => return Err(EvalError::Bad(format!("unknown algorithm {other:?}"))),
            })
        }
    }
    spec.build_visit(EngineRun {
        algo,
        minmax: spec.is_minmax(),
        width,
        cancel,
    })
    .map_err(EvalError::Bad)?
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn never() -> AtomicBool {
        AtomicBool::new(false)
    }

    #[test]
    fn validates_and_canonicalizes() {
        let v = validate("worst: n=4 , d=2", "cascade:w=2").unwrap();
        assert_eq!(v.cache_key, "worst:d=2,n=4|cascade:w=2");
        // Reordered parameters produce the same key.
        let v2 = validate("worst:d=2,n=4", "cascade:w=2").unwrap();
        assert_eq!(v.cache_key, v2.cache_key);
    }

    #[test]
    fn rejects_unknown_or_mismatched_algorithms() {
        assert!(validate("worst:n=4", "quantum").is_err());
        assert!(validate("worst:n=4", "cascade:w=0").is_err());
        assert!(validate("minmax:n=4", "seq-solve").is_err());
        assert!(validate("worst:n=4", "alphabeta").is_err());
        assert!(validate("worst:n=4", "ybw").is_err());
        assert!(validate("nope:n=4", "cascade").is_err());
        assert!(validate("worst:n=4", "tt").is_err(), "tt needs a game");
        assert!(validate("ttt:d=5", "tt").is_ok());
        // The retired work-stealing algorithms are unknown, and the
        // message lists the ones that remain.
        for algo in ["par-alphabeta", "par-solve"] {
            let err = validate("minmax:n=4,seed=1", algo).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "unknown algorithm {algo:?} (expected one of seq-solve, \
                     alphabeta, parallel-solve, round, cascade, ybw, tt)"
                )
            );
        }
    }

    #[test]
    fn large_workloads_are_admitted_for_every_algorithm() {
        // worst:d=2,n=20 has 2^20 leaves; with cancellation threaded
        // through every engine there is no admission ceiling.
        for algo in ["seq-solve", "parallel-solve:w=4", "cascade:w=4"] {
            assert!(validate("worst:d=2,n=20", algo).is_ok(), "{algo}");
        }
    }

    #[test]
    fn engines_agree_on_a_nor_workload() {
        let spec = GenSpec::parse("crit:d=2,n=8,seed=11").unwrap();
        let flag = never();
        let baseline = evaluate(&spec, &AlgoSpec::parse("seq-solve").unwrap(), &flag)
            .unwrap()
            .value;
        for algo in ["parallel-solve:w=3", "round:w=2", "cascade:w=2"] {
            let got = evaluate(&spec, &AlgoSpec::parse(algo).unwrap(), &flag).unwrap();
            assert_eq!(got.value, baseline, "{algo}");
            assert!(got.work >= 1, "{algo}");
        }
    }

    #[test]
    fn engines_agree_on_a_minmax_workload() {
        let spec = GenSpec::parse("minmax:d=3,n=4,lo=-9,hi=9,seed=3").unwrap();
        let flag = never();
        let baseline = evaluate(&spec, &AlgoSpec::parse("alphabeta").unwrap(), &flag)
            .unwrap()
            .value;
        for algo in ["parallel-solve:w=2", "round:w=2", "cascade:w=2", "ybw"] {
            let got = evaluate(&spec, &AlgoSpec::parse(algo).unwrap(), &flag).unwrap();
            assert_eq!(got.value, baseline, "{algo}");
        }
    }

    #[test]
    fn work_json_renders_exactly_the_paper_counters() {
        let o = EvalOutcome {
            value: 3,
            work: 10,
            steps: 4,
            max_width: 2,
            pruned: 5,
        };
        assert_eq!(
            o.work_json().render(),
            r#"{"value":3,"leaves":10,"steps":4,"max_width":2,"pruned":5}"#
        );
    }

    #[test]
    fn tt_solves_tictactoe_to_a_draw() {
        let spec = GenSpec::parse("ttt:d=9").unwrap();
        let got = evaluate(&spec, &AlgoSpec::parse("tt").unwrap(), &never()).unwrap();
        assert_eq!(got.value, 0, "perfect tic-tac-toe is a draw");
        assert!(got.work > 0);
    }

    #[test]
    fn estimated_cost_tracks_leaf_counts() {
        let cost = |s: &str, a: &str| {
            estimated_cost(&GenSpec::parse(s).unwrap(), &AlgoSpec::parse(a).unwrap())
        };
        assert_eq!(cost("worst:d=2,n=6", "seq-solve"), 64);
        assert_eq!(cost("worst:d=2,n=12", "seq-solve"), 4096);
        assert_eq!(cost("crit:d=3,n=4,seed=1", "cascade:w=2"), 81);
        // Saturates instead of overflowing.
        assert_eq!(cost("worst:d=2,n=4000", "seq-solve"), u64::MAX);
        // Game search scales with depth.
        assert!(cost("ttt:d=9", "tt") > cost("ttt:d=3", "tt"));
        assert!(cost("nim:d=6", "tt") < cost("connect4:d=6", "tt"));
    }

    #[test]
    fn only_the_walk_engines_are_walk_priced() {
        for (algo, want) in [
            ("seq-solve", true),
            ("alphabeta", true),
            ("cascade:w=2", true),
            ("ybw", true),
            ("round:w=2", false),
            ("parallel-solve", false),
            ("tt", false),
            ("quantum", false),
        ] {
            assert_eq!(walk_priced(&AlgoSpec::parse(algo).unwrap()), want, "{algo}");
        }
    }

    #[test]
    fn subeval_validation_checks_path_and_window() {
        assert!(validate_subeval("minmax:d=3,n=4,seed=2", "2.0", None, None).is_ok());
        assert!(validate_subeval("crit:d=2,n=6,seed=1", "", None, None).is_ok());
        // Segment 3 exceeds arity 3 (indices are 0..3).
        assert!(validate_subeval("minmax:d=3,n=4", "3", None, None).is_err());
        // A path longer than the tree descends through a leaf.
        assert!(validate_subeval("worst:d=2,n=2", "0.1.0", None, None).is_err());
        assert!(validate_subeval("minmax:d=3,n=4", "1", Some(5), Some(5)).is_err());
        assert!(
            validate_subeval("ttt:d=9", "", None, None).is_err(),
            "games don't split"
        );
        assert!(validate_subeval("minmax:d=3,n=4", "x.y", None, None).is_err());
    }

    #[test]
    fn subeval_cache_keys_are_window_and_path_scoped() {
        let key = |path: &str, a: Option<i64>, b: Option<i64>| {
            validate_subeval("minmax:d=3,n=4,seed=2", path, a, b)
                .unwrap()
                .cache_key
        };
        // A result computed under a narrow window must never satisfy a
        // wider-window probe: every distinct (path, α, β) triple gets
        // its own exact-match key.
        assert_ne!(key("1", Some(0), Some(5)), key("1", None, None));
        assert_ne!(key("1", Some(0), Some(5)), key("1", Some(0), Some(6)));
        assert_ne!(key("1", None, None), key("2", None, None));
        // Same triple, same key (and the full window is canonical
        // whether spelled out or defaulted).
        assert_eq!(
            key("1", Some(i64::MIN), Some(i64::MAX)),
            key("1", None, None)
        );
    }

    #[test]
    fn subeval_matches_the_tree_layer_reference() {
        use gt_tree::split::sub_evaluate;
        for (spec, path, a, b) in [
            ("minmax:d=3,n=4,seed=7", "2", Some(-4), Some(9)),
            ("minmax-best:d=2,n=6,value=3", "0.1", None, None),
            ("crit:d=2,n=7,seed=5", "1", None, None),
            ("nor:d=3,n=4,seed=9", "", None, None),
        ] {
            let v = validate_subeval(spec, path, a, b).unwrap();
            let got = evaluate_subtree(&v.sub, &never()).unwrap();
            let want = sub_evaluate(&v.sub).unwrap();
            assert_eq!(got.value, want.value, "{spec}#{path}");
            assert_eq!(got.work, want.leaves_evaluated, "{spec}#{path}");
        }
    }

    #[test]
    fn subeval_cost_shrinks_with_depth() {
        let cost = |spec: &str, path: &str| {
            estimated_subtree_cost(&validate_subeval(spec, path, None, None).unwrap().sub)
        };
        assert_eq!(cost("worst:d=2,n=6", ""), 64);
        assert_eq!(cost("worst:d=2,n=6", "0"), 32);
        assert_eq!(cost("worst:d=2,n=6", "0.1.0"), 8);
        assert_eq!(cost("minmax:d=3,n=4", "2.1"), 9);
    }

    #[test]
    fn subeval_cancellation_surfaces() {
        let flag = AtomicBool::new(true);
        let v = validate_subeval("minmax:d=2,n=14,seed=1", "0", None, None).unwrap();
        assert_eq!(evaluate_subtree(&v.sub, &flag), Err(EvalError::Cancelled));
    }

    #[test]
    fn cancellation_surfaces_as_eval_error() {
        let flag = AtomicBool::new(false);
        flag.store(true, Ordering::Relaxed);
        // Every engine family honours the flag, including the
        // formerly-uncancellable baselines.
        for (spec, algo) in [
            ("worst:d=2,n=12", "cascade:w=2"),
            ("worst:d=2,n=12", "seq-solve"),
            ("worst:d=2,n=12", "parallel-solve:w=2"),
            ("minmax:d=2,n=12,seed=1", "alphabeta"),
            ("minmax-worst:d=2,n=14", "ybw"),
            ("minmax-worst:d=2,n=14", "round:w=2"),
        ] {
            let spec = GenSpec::parse(spec).unwrap();
            let got = evaluate(&spec, &AlgoSpec::parse(algo).unwrap(), &flag);
            assert_eq!(got, Err(EvalError::Cancelled), "{algo}");
        }
    }
}
