//! Subtree decomposition for scatter-gather evaluation: the tree-layer
//! half of **gt-split**.
//!
//! The paper's Section 7 machine evaluates *one* game tree across many
//! fixed processors: a master hands each worker a subtree, workers
//! report values back, and the master folds them through the NOR (or
//! MIN/MAX) recursion, pre-empting work that a reported value has made
//! irrelevant.  This module provides the three deterministic pieces
//! that protocol needs, with no I/O attached:
//!
//! * [`SubtreeSpec`] — a canonical, wire-serializable name for a
//!   subtree *plus the search window it must be evaluated under*: the
//!   generator spec, the path from the whole-tree root to the subtree
//!   root, and `(α, β)`.  Because every generator in this repo derives
//!   leaf values from `(seed, full path)`, any replica can regenerate
//!   its assigned subtree locally from the spec alone — the wire
//!   carries a few dozen bytes, never tree data.
//! * [`sub_evaluate`] — what a replica computes for a spec: the
//!   sequential evaluators run *rooted* at the subtree's path on the
//!   concrete generated source (see [`crate::minimax`]), so a subtree
//!   costs what its leaves cost, with no path-prefixing adapter.
//! * [`split_children`] / [`Aggregator`] — the splitter that
//!   decomposes a spec into the root's child subtrees, and the fold
//!   that absorbs child values through the NOR / minimax recursion
//!   with monotone window narrowing and `α ≥ β` cutoff detection.
//!
//! The aggregator is deliberately a plain state machine (no threads,
//! no channels): gt-router drives one per split level and feeds it
//! values in *arrival* order.  Absorbing fail-soft child results out
//! of order is sound because the window only ever narrows — a child
//! evaluated under a stale (wider) window returns a value at least as
//! exact as required — and a fail-low result can never raise the
//! running maximum (symmetrically for MIN).  When children are
//! absorbed strictly eldest-first with the window narrowed between
//! them, the fold reproduces [`seq_alphabeta_windowed`] bit for bit;
//! [`sub_evaluate`] plus [`split_value_reference`] encode that
//! equivalence and the proptests in `tests/split_proptest.rs` hold it
//! over every generator family.
//!
//! [`seq_alphabeta_windowed`]: crate::minimax::seq_alphabeta_windowed

use crate::minimax::{seq_alphabeta_windowed_cancellable, seq_solve_cancellable, SeqStats};
use crate::source::{Cancelled, TreeSource, Value};
use crate::spec::{GenSpec, SourceVisitor};
use std::sync::atomic::AtomicBool;

/// Render a subtree root path as dot-joined indices (`"0.2.1"`); the
/// whole-tree root is the empty string.
pub fn path_text(path: &[u32]) -> String {
    path.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// Parse the output of [`path_text`].
pub fn parse_path(text: &str) -> Result<Vec<u32>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split('.')
        .map(|piece| {
            piece
                .parse::<u32>()
                .map_err(|e| format!("bad path segment {piece:?}: {e}"))
        })
        .collect()
}

/// A canonical, wire-serializable description of one unit of partial
/// evaluation: *this subtree of that generated tree, searched under
/// this window*.
#[derive(Debug, Clone, PartialEq)]
pub struct SubtreeSpec {
    /// The whole-tree generator.
    pub spec: GenSpec,
    /// Path from the whole-tree root to the subtree root; empty means
    /// the whole tree.
    pub path: Vec<u32>,
    /// Lower search bound (exclusive interest region is `(alpha, beta)`).
    pub alpha: Value,
    /// Upper search bound.
    pub beta: Value,
}

impl SubtreeSpec {
    /// The whole tree under the full window.
    pub fn whole(spec: GenSpec) -> SubtreeSpec {
        SubtreeSpec {
            spec,
            path: Vec::new(),
            alpha: Value::MIN,
            beta: Value::MAX,
        }
    }

    /// Does the subtree root belong to the maximizing player?  The
    /// whole-tree root is MAX and levels alternate, so this is just
    /// depth parity.  (NOR trees are depth-uniform — a NOR subtree is
    /// a NOR tree — and ignore this.)
    pub fn maximizing(&self) -> bool {
        self.path.len().is_multiple_of(2)
    }

    /// Is the window the trivial full-width one?
    pub fn full_window(&self) -> bool {
        self.alpha == Value::MIN && self.beta == Value::MAX
    }

    /// Canonical text form, `spec#path#alpha..beta` — stable under
    /// parse/render round trips because [`GenSpec`] params are sorted
    /// and path segments are plain decimal.
    pub fn render(&self) -> String {
        let mut spec_text = self.spec.kind.clone();
        let mut sep = ':';
        for (k, v) in &self.spec.params {
            spec_text.push(sep);
            spec_text.push_str(k);
            spec_text.push('=');
            spec_text.push_str(v);
            sep = ',';
        }
        format!(
            "{spec_text}#{}#{}..{}",
            path_text(&self.path),
            self.alpha,
            self.beta
        )
    }

    /// Parse the output of [`render`](SubtreeSpec::render).
    pub fn parse(text: &str) -> Result<SubtreeSpec, String> {
        let mut pieces = text.splitn(3, '#');
        let spec_text = pieces.next().unwrap_or("");
        let path_piece = pieces
            .next()
            .ok_or_else(|| format!("subtree spec {text:?} missing '#path' section"))?;
        let window_piece = pieces
            .next()
            .ok_or_else(|| format!("subtree spec {text:?} missing '#window' section"))?;
        let (a, b) = window_piece
            .split_once("..")
            .ok_or_else(|| format!("bad window {window_piece:?} (want alpha..beta)"))?;
        let alpha: Value = a.parse().map_err(|e| format!("bad alpha {a:?}: {e}"))?;
        let beta: Value = b.parse().map_err(|e| format!("bad beta {b:?}: {e}"))?;
        if alpha >= beta {
            return Err(format!("empty window {alpha}..{beta}"));
        }
        Ok(SubtreeSpec {
            spec: GenSpec::parse(spec_text)?,
            path: parse_path(path_piece)?,
            alpha,
            beta,
        })
    }
}

/// Decompose a subtree into its root's child subtrees.  Each child
/// inherits the parent's window verbatim (levels alternate player, but
/// the window is shared — narrowing is the aggregator's job as values
/// land).  Returns an empty vector when the subtree root is a leaf.
pub fn split_children<S: TreeSource>(source: &S, sub: &SubtreeSpec) -> Vec<SubtreeSpec> {
    let d = source.arity(&sub.path);
    (0..d)
        .map(|i| {
            let mut path = sub.path.clone();
            path.push(i);
            SubtreeSpec {
                spec: sub.spec.clone(),
                path,
                alpha: sub.alpha,
                beta: sub.beta,
            }
        })
        .collect()
}

/// How one node combines its children's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMode {
    /// NOR fold: node is `1` iff every child is `0`; a nonzero child
    /// settles the node at `0` immediately.
    Nor,
    /// Maximizing minimax node (raises `α`).
    Max,
    /// Minimizing minimax node (lowers `β`).
    Min,
}

/// The fold mode of the node at depth `path_len` of the tree `spec`
/// generates.
pub fn node_mode(spec: &GenSpec, path_len: usize) -> NodeMode {
    if !spec.is_minmax() {
        NodeMode::Nor
    } else if path_len.is_multiple_of(2) {
        NodeMode::Max
    } else {
        NodeMode::Min
    }
}

/// Folds child subtree values into one node value, narrowing the
/// window and detecting cutoffs — the aggregation half of the master's
/// loop in the Section 7 machine.
///
/// Drive it with [`absorb`](Aggregator::absorb) once per child value
/// (in any order; see the module docs for why out-of-order is sound),
/// or [`cut_short`](Aggregator::settled) the node as soon as `absorb`
/// reports a cutoff.  The `(α, β)` accessors expose the narrowed
/// window that *remaining* children should be searched under.
#[derive(Debug, Clone)]
pub struct Aggregator {
    mode: NodeMode,
    expected: u32,
    seen: u32,
    alpha: Value,
    beta: Value,
    best: Value,
    cut: bool,
}

impl Aggregator {
    /// A fold over `expected` children under the starting window.
    pub fn new(mode: NodeMode, expected: u32, alpha: Value, beta: Value) -> Aggregator {
        let best = match mode {
            NodeMode::Nor => 1,
            NodeMode::Max => Value::MIN,
            NodeMode::Min => Value::MAX,
        };
        Aggregator {
            mode,
            expected,
            seen: 0,
            alpha,
            beta,
            best,
            cut: false,
        }
    }

    /// Absorb one child value.  Returns `true` when this value fired a
    /// cutoff: the node is settled and every remaining child —
    /// dispatched or not — is now irrelevant.
    pub fn absorb(&mut self, value: Value) -> bool {
        if self.settled() {
            return false;
        }
        self.seen += 1;
        match self.mode {
            NodeMode::Nor => {
                if value != 0 {
                    self.best = 0;
                    self.cut = true;
                }
            }
            NodeMode::Max => {
                self.best = self.best.max(value);
                self.alpha = self.alpha.max(self.best);
                self.cut = self.alpha >= self.beta;
            }
            NodeMode::Min => {
                self.best = self.best.min(value);
                self.beta = self.beta.min(self.best);
                self.cut = self.alpha >= self.beta;
            }
        }
        self.cut
    }

    /// Has the node's value been decided — every child absorbed, or a
    /// cutoff fired?
    pub fn settled(&self) -> bool {
        self.cut || self.seen >= self.expected
    }

    /// Did a cutoff settle this node early?
    pub fn cut(&self) -> bool {
        self.cut
    }

    /// The window remaining children should be searched under.
    pub fn window(&self) -> (Value, Value) {
        (self.alpha, self.beta)
    }

    /// The node's value.  Exact once [`settled`](Aggregator::settled);
    /// before that, the running fold (a valid fail-soft bound).
    pub fn value(&self) -> Value {
        self.best
    }
}

/// Evaluate one [`SubtreeSpec`] sequentially: the reference for what a
/// replica computes when handed the spec over the wire.  NOR families
/// run `seq_solve` rooted at the path (NOR subtrees are NOR trees; the
/// window is irrelevant to a boolean short-circuit fold); minimax
/// families run windowed α-β with the player chosen by depth parity.
pub fn sub_evaluate(sub: &SubtreeSpec) -> Result<SeqStats, String> {
    let never = AtomicBool::new(false);
    Ok(sub_evaluate_cancellable(sub, &never)?.expect("never cancelled"))
}

/// [`sub_evaluate`] with cooperative cancellation.  The outer error is
/// a spec that does not build; the inner one a set `cancel` flag.  The
/// evaluator runs on the concrete source [`GenSpec::build_visit`] hands
/// over, so every `arity`/`leaf_value` call is direct.
pub fn sub_evaluate_cancellable(
    sub: &SubtreeSpec,
    cancel: &AtomicBool,
) -> Result<Result<SeqStats, Cancelled>, String> {
    struct Rooted<'a> {
        sub: &'a SubtreeSpec,
        cancel: &'a AtomicBool,
    }
    impl SourceVisitor for Rooted<'_> {
        type Out = Result<SeqStats, Cancelled>;
        fn visit<S: TreeSource + Send + 'static>(self, source: S) -> Self::Out {
            let Rooted { sub, cancel } = self;
            if sub.spec.is_minmax() {
                seq_alphabeta_windowed_cancellable(
                    &source,
                    &sub.path,
                    false,
                    sub.alpha,
                    sub.beta,
                    sub.maximizing(),
                    cancel,
                )
            } else {
                seq_solve_cancellable(&source, &sub.path, false, cancel)
            }
        }
    }
    sub.spec.build_visit(Rooted { sub, cancel })
}

/// Split → sub-evaluate → aggregate, strictly eldest-first with the
/// window narrowed between children, recursing while `depth > 0` (a
/// leaf or `depth == 0` falls back to [`sub_evaluate`]).  Returns the
/// value and the total leaves evaluated across all sub-evaluations —
/// the in-order scatter-gather reference that must agree with
/// [`seq_solve`](crate::minimax::seq_solve) /
/// [`seq_alphabeta_windowed`](crate::minimax::seq_alphabeta_windowed)
/// on the whole tree.
pub fn split_value_reference(sub: &SubtreeSpec, depth: u32) -> Result<(Value, u64), String> {
    let source = sub.spec.build()?;
    split_value_inner(&source, sub, depth)
}

fn split_value_inner<S: TreeSource>(
    source: &S,
    sub: &SubtreeSpec,
    depth: u32,
) -> Result<(Value, u64), String> {
    let children = split_children(source, sub);
    if depth == 0 || children.is_empty() {
        let st = sub_evaluate(sub)?;
        return Ok((st.value, st.leaves_evaluated));
    }
    let mut agg = Aggregator::new(
        node_mode(&sub.spec, sub.path.len()),
        children.len() as u32,
        sub.alpha,
        sub.beta,
    );
    let mut leaves = 0;
    for child in children {
        if agg.settled() {
            break; // cutoff: remaining children are never evaluated
        }
        let (alpha, beta) = agg.window();
        let narrowed = SubtreeSpec {
            alpha,
            beta,
            ..child
        };
        let (v, l) = split_value_inner(source, &narrowed, depth - 1)?;
        leaves += l;
        agg.absorb(v);
    }
    Ok((agg.value(), leaves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimax::{seq_alphabeta, seq_alphabeta_windowed, seq_solve};

    fn spec(text: &str) -> GenSpec {
        GenSpec::parse(text).unwrap()
    }

    #[test]
    fn path_text_round_trips() {
        for p in [vec![], vec![0], vec![3, 0, 12]] {
            assert_eq!(parse_path(&path_text(&p)).unwrap(), p);
        }
        assert!(parse_path("0..1").is_err());
        assert!(parse_path("a").is_err());
    }

    #[test]
    fn subtree_spec_round_trips() {
        let s = SubtreeSpec {
            spec: spec("minmax:d=3,n=6,seed=9"),
            path: vec![2, 0, 1],
            alpha: -17,
            beta: 404,
        };
        let text = s.render();
        assert_eq!(SubtreeSpec::parse(&text).unwrap(), s);
        let whole = SubtreeSpec::whole(spec("worst:d=2,n=8"));
        assert_eq!(SubtreeSpec::parse(&whole.render()).unwrap(), whole);
        assert!(whole.full_window());
        assert!(whole.maximizing());
        assert!(
            SubtreeSpec::parse("worst:n=4#0#5..5").is_err(),
            "empty window"
        );
        assert!(SubtreeSpec::parse("worst:n=4#0").is_err(), "no window");
    }

    #[test]
    fn rooted_evaluation_matches_an_explicit_copy_of_the_subtree() {
        use crate::explicit::ExplicitTree;
        use crate::minimax::minimax_value;
        let never = AtomicBool::new(false);
        let counters =
            |st: &SeqStats| (st.value, st.leaves_evaluated, st.nodes_expanded, st.cutoffs);
        for text in [
            "nor:d=3,n=5,seed=11",
            "crit:d=2,n=7,seed=3",
            "worst:d=2,n=6",
            "allones:d=3,n=4",
            "minmax:d=3,n=5,seed=7",
            "minmax-best:d=2,n=7,value=42",
            "minmax-worst:d=3,n=4",
            "minmax-corr:d=3,n=5,seed=2",
        ] {
            let g = spec(text);
            let n: u32 = g.params["n"].parse().unwrap();
            let whole = ExplicitTree::from_source(&g.build().unwrap(), n);
            // The whole tree, a mid-level subtree, and a leaf parent.
            let mid = vec![1; (n / 2) as usize];
            let leaf_parent = vec![0; (n - 1) as usize];
            for path in [Vec::new(), mid, leaf_parent] {
                let copy = whole.descend(&path).unwrap().clone();
                let truth = minimax_value(&copy);
                let windows = [(Value::MIN, Value::MAX), (truth - 2, truth + 3)];
                for (alpha, beta) in windows {
                    let sub = SubtreeSpec {
                        spec: g.clone(),
                        path: path.clone(),
                        alpha,
                        beta,
                    };
                    let source = g.build().unwrap();
                    let (rooted, reference) = if g.is_minmax() {
                        let max = sub.maximizing();
                        (
                            seq_alphabeta_windowed(&source, &path, true, alpha, beta, max),
                            seq_alphabeta_windowed(&copy, &[], true, alpha, beta, max),
                        )
                    } else {
                        (
                            seq_solve_cancellable(&source, &path, true, &never).unwrap(),
                            seq_solve(&copy, true),
                        )
                    };
                    let at = format!("{text} at {path:?} window {alpha}..{beta}");
                    assert_eq!(counters(&rooted), counters(&reference), "{at}");
                    // Recorded leaves are absolute: the root, then the
                    // copy's relative path.
                    let absolute: Vec<Vec<u32>> = reference
                        .leaf_paths
                        .unwrap()
                        .into_iter()
                        .map(|rel| [path.clone(), rel].concat())
                        .collect();
                    // The wire entry point is the same rooted run.
                    let wire = sub_evaluate(&sub).unwrap();
                    assert_eq!(counters(&wire), counters(&rooted), "{at}");
                    assert_eq!(rooted.leaf_paths, Some(absolute), "{at}");
                }
            }
        }
    }

    #[test]
    fn split_children_inherit_the_window() {
        let sub = SubtreeSpec {
            spec: spec("minmax:d=3,n=4"),
            path: Vec::new(),
            alpha: 10,
            beta: 90,
        };
        let source = sub.spec.build().unwrap();
        let kids = split_children(&source, &sub);
        assert_eq!(kids.len(), 3);
        for (i, k) in kids.iter().enumerate() {
            assert_eq!(k.path, vec![i as u32]);
            assert_eq!((k.alpha, k.beta), (10, 90));
            assert!(!k.maximizing(), "depth-1 nodes are MIN");
        }
    }

    #[test]
    fn nor_aggregator_short_circuits() {
        let mut agg = Aggregator::new(NodeMode::Nor, 3, Value::MIN, Value::MAX);
        assert!(!agg.absorb(0));
        assert!(!agg.settled());
        assert!(agg.absorb(1), "nonzero child fires the cutoff");
        assert!(agg.settled() && agg.cut());
        assert_eq!(agg.value(), 0);
        // All-zero children settle at 1 with no cutoff.
        let mut agg = Aggregator::new(NodeMode::Nor, 2, Value::MIN, Value::MAX);
        agg.absorb(0);
        agg.absorb(0);
        assert!(agg.settled() && !agg.cut());
        assert_eq!(agg.value(), 1);
    }

    #[test]
    fn minimax_aggregator_narrows_and_cuts() {
        // MAX node with β = 10: a child ≥ 10 fires the cutoff.
        let mut agg = Aggregator::new(NodeMode::Max, 3, Value::MIN, 10);
        assert!(!agg.absorb(4));
        assert_eq!(agg.window(), (4, 10), "α rises to the running best");
        assert!(agg.absorb(12));
        assert!(agg.cut());
        assert_eq!(agg.value(), 12, "fail-soft: the bound is reported");
        // MIN node mirrors with β.
        let mut agg = Aggregator::new(NodeMode::Min, 3, 5, Value::MAX);
        assert!(!agg.absorb(9));
        assert_eq!(agg.window(), (5, 9));
        assert!(agg.absorb(3), "value ≤ α fires at a MIN node");
        assert_eq!(agg.value(), 3);
    }

    #[test]
    fn absorbing_after_settle_is_inert() {
        let mut agg = Aggregator::new(NodeMode::Nor, 4, Value::MIN, Value::MAX);
        agg.absorb(1);
        let v = agg.value();
        assert!(!agg.absorb(1), "late (discarded) arrivals do not re-fire");
        assert_eq!(agg.value(), v);
        assert!(agg.settled());
    }

    #[test]
    fn one_level_split_matches_sequential_everywhere() {
        for text in [
            "nor:d=3,n=5,seed=11",
            "crit:d=2,n=8,seed=3",
            "worst:d=2,n=6",
            "allones:d=2,n=5",
        ] {
            let sub = SubtreeSpec::whole(spec(text));
            let (v, _) = split_value_reference(&sub, 1).unwrap();
            let whole = spec(text).build().unwrap();
            assert_eq!(v, seq_solve(&whole, false).value, "{text}");
        }
        for text in [
            "minmax:d=3,n=4,seed=5",
            "minmax-best:d=2,n=6,value=42",
            "minmax-worst:d=2,n=6",
            "minmax-corr:d=3,n=4,seed=2",
        ] {
            let sub = SubtreeSpec::whole(spec(text));
            let (v, _) = split_value_reference(&sub, 1).unwrap();
            let whole = spec(text).build().unwrap();
            assert_eq!(v, seq_alphabeta(&whole, false).value, "{text}");
        }
    }

    #[test]
    fn narrowed_sibling_windows_do_less_work() {
        // Best-ordered tree: the eldest subtree already carries the
        // exact value, so siblings searched under the narrowed window
        // collapse almost immediately — strictly fewer leaves than the
        // naive split that hands every child the full window.
        let g = spec("minmax-best:d=2,n=10,value=7");
        let whole = SubtreeSpec::whole(g.clone());
        let (v, narrowed_leaves) = split_value_reference(&whole, 1).unwrap();
        assert_eq!(v, 7);
        let source = g.build().unwrap();
        let naive_leaves: u64 = split_children(&source, &whole)
            .iter()
            .map(|c| sub_evaluate(c).unwrap().leaves_evaluated)
            .sum();
        assert!(
            narrowed_leaves < naive_leaves,
            "windowed {narrowed_leaves} vs naive {naive_leaves}"
        );
    }
}
