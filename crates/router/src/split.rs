//! Scatter-gather split planning: the router-side master of the
//! Karp–Zhang Section 7 machine.
//!
//! An eval whose estimated cost clears the split threshold is not
//! forwarded whole.  Instead the router walks the tree's *eldest
//! chain* — root, its first child, that node's first child, … — and
//! builds one [`SplitMachine`] level per chain node, each level owning
//! the children of its node.  Evaluation then runs as distributed
//! PV-split: the deepest eldest subtree is dispatched first; when its
//! value lands it narrows the level's α/β window and the remaining
//! siblings fan out to replicas under the narrowed window; levels
//! settle bottom-up through the minimax/NOR fold of
//! [`gt_tree::split::Aggregator`].
//!
//! Cutoffs follow the paper's pre-emption rule: the router never sends
//! an abort.  A cutoff merely *skips* children not yet dispatched and
//! marks the level settled; in-flight losers run to completion on
//! their replicas and are *discarded on arrival* (the replica's cache
//! keeps the work reusable).  Both events are counted
//! (`subevals_skipped_on_cutoff`, `subevals_discarded_on_cutoff`).
//!
//! The machine is deliberately pure: it consumes events (a subtree
//! value landed, a subeval failed hard, the deadline expired) and
//! returns [`Effects`] — subevals to dispatch, counter deltas, and
//! possibly the final outcome.  All sockets, locks, and retry pacing
//! live in `router.rs`, which makes the cutoff/window logic testable
//! by replaying value arrivals in any order.

use gt_serve::workload::estimated_subtree_cost;
use gt_tree::split::{node_mode, split_children, Aggregator, SubtreeSpec};
use gt_tree::Value;

/// Split-planner knobs, carried inside `RouterConfig`.
#[derive(Debug, Clone)]
pub struct SplitConfig {
    /// Estimated-leaf-count threshold above which an eval is split
    /// across the fleet; `None` disables splitting entirely.
    pub cost_threshold: Option<u64>,
    /// Baseline mode for benchmarks: dispatch every child of every
    /// level immediately, all under the root window — no eldest-first
    /// ordering, no narrowing.  Values still fold correctly.
    pub naive: bool,
    /// Maximum levels in the eldest chain (plan recursion depth).  The
    /// default is 1: a plan dispatches one level's siblings at a time,
    /// so each level deeper adds a serial wave and `d - 1` subevals,
    /// each paying a router round trip, without running more of them
    /// at once.
    pub max_depth: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            cost_threshold: None,
            naive: false,
            max_depth: 1,
        }
    }
}

/// Why a plan failed without producing a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// No replica would take a subeval (fleet busy/unreachable).
    Busy,
    /// The plan's deadline expired.
    Timeout,
    /// An upstream returned a non-retryable error.
    Internal,
}

/// Terminal state of a plan.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The root value, with the leaves absorbed into it and the number
    /// of subeval results that contributed.  Work done by discarded
    /// losers is *not* included — it lands after the answer.
    Value {
        value: Value,
        work: u64,
        subevals: u64,
    },
    /// The plan failed; the router answers the client with an error.
    Fail { kind: FailKind, message: String },
}

/// One subeval the router should place on the fleet now.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Level index in the plan (0 = root).
    pub level: usize,
    /// Child index within the level.
    pub child: usize,
    /// What to send: subtree plus the window stamped at decision time.
    pub sub: SubtreeSpec,
}

/// What an event made the machine want to do.
#[derive(Debug, Default)]
pub struct Effects {
    /// Subevals to place on replicas.
    pub dispatch: Vec<Dispatch>,
    /// Children a cutoff skipped before they were ever dispatched.
    pub skipped: u64,
    /// In-flight results that arrived after their level settled and
    /// were thrown away (the no-abort rule's losers).
    pub discarded: u64,
    /// Set exactly once, when the plan reaches a terminal state.
    pub done: Option<Outcome>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildState {
    /// Not yet dispatched (waiting for the eldest to narrow the
    /// window).
    Waiting,
    /// On a replica (or, for a chain child, being computed by the
    /// level below).
    InFlight,
    /// Value absorbed.
    Done,
    /// Never dispatched: a cutoff made it irrelevant.
    Skipped,
}

struct MachineLevel {
    /// Children of this level's chain node, windows as inherited at
    /// plan time; the live window comes from `agg` at dispatch time.
    children: Vec<SubtreeSpec>,
    state: Vec<ChildState>,
    agg: Aggregator,
    /// Settled indirectly: an ancestor level cut while this one was
    /// still working, so its value no longer matters.
    moot: bool,
}

impl MachineLevel {
    fn settled(&self) -> bool {
        self.moot || self.agg.settled()
    }
}

/// One plan level: an eldest-chain node and its child subtrees.
pub type PlanLevel = (SubtreeSpec, Vec<SubtreeSpec>);

/// Decide whether `root` is worth splitting and lay out the plan: one
/// level per eldest-chain node whose subtree still clears `threshold`,
/// bounded by `max_depth`.  Returns `None` for trees too cheap, too
/// narrow (arity < 2), or too shallow to split.
pub fn plan_levels(
    root: &SubtreeSpec,
    threshold: u64,
    max_depth: usize,
) -> Result<Option<Vec<PlanLevel>>, String> {
    if estimated_subtree_cost(root) < threshold {
        return Ok(None);
    }
    let source = root.spec.build()?;
    let mut levels = Vec::new();
    let mut node = root.clone();
    loop {
        let children = split_children(&source, &node);
        if children.len() < 2 {
            break;
        }
        let eldest = children[0].clone();
        levels.push((node, children));
        if levels.len() >= max_depth.max(1) || estimated_subtree_cost(&eldest) < threshold {
            break;
        }
        node = eldest;
    }
    Ok(if levels.is_empty() {
        None
    } else {
        Some(levels)
    })
}

/// The pure scatter-gather state machine for one split plan.
pub struct SplitMachine {
    levels: Vec<MachineLevel>,
    naive: bool,
    /// Leaves absorbed from subeval replies.
    work: u64,
    /// Subeval values absorbed (chain propagations excluded).
    subevals_ok: u64,
    done: bool,
}

impl SplitMachine {
    /// Build the machine from [`plan_levels`] output and return it
    /// with the initial dispatch wave.
    pub fn new(shape: Vec<PlanLevel>, config: &SplitConfig) -> (SplitMachine, Effects) {
        let depth = shape.len();
        let levels: Vec<MachineLevel> = shape
            .into_iter()
            .enumerate()
            .map(|(k, (node, children))| {
                let mode = node_mode(&node.spec, node.path.len());
                let expected = children.len() as u32;
                let mut state = vec![ChildState::Waiting; children.len()];
                if k + 1 < depth {
                    // A chain level: child 0 is the level below's
                    // value, supplied from the start.
                    state[0] = ChildState::InFlight;
                }
                MachineLevel {
                    state,
                    agg: Aggregator::new(mode, expected, node.alpha, node.beta),
                    children,
                    moot: false,
                }
            })
            .collect();
        let mut machine = SplitMachine {
            levels,
            naive: config.naive,
            work: 0,
            subevals_ok: 0,
            done: false,
        };
        let mut fx = Effects::default();
        if config.naive {
            for k in 0..machine.levels.len() {
                for i in 0..machine.levels[k].children.len() {
                    machine.stage(k, i, &mut fx);
                }
            }
        } else {
            let deepest = machine.levels.len() - 1;
            machine.stage(deepest, 0, &mut fx);
        }
        (machine, fx)
    }

    /// Number of levels in the plan.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Mark `child` in-flight and emit its dispatch under the level's
    /// current window.  No-op unless the child is `Waiting`.
    fn stage(&mut self, level: usize, child: usize, fx: &mut Effects) {
        let lv = &mut self.levels[level];
        if child >= lv.children.len() || lv.state[child] != ChildState::Waiting {
            return;
        }
        lv.state[child] = ChildState::InFlight;
        let (alpha, beta) = lv.agg.window();
        let mut sub = lv.children[child].clone();
        sub.alpha = alpha;
        sub.beta = beta;
        fx.dispatch.push(Dispatch { level, child, sub });
    }

    /// A subeval reply landed: absorb it (or discard it, if its level
    /// already settled).
    pub fn on_value(&mut self, level: usize, child: usize, value: Value, leaves: u64) -> Effects {
        let mut fx = Effects::default();
        if self.done || level >= self.levels.len() || self.levels[level].settled() {
            fx.discarded += 1;
            return fx;
        }
        self.work = self.work.saturating_add(leaves);
        self.subevals_ok += 1;
        self.absorb(level, child, value, &mut fx);
        fx
    }

    /// A subeval failed for good (retries exhausted, hard upstream
    /// error): the whole plan fails — a missing child value cannot be
    /// folded around.
    pub fn on_fail(&mut self, kind: FailKind, message: &str) -> Effects {
        let mut fx = Effects::default();
        if self.done {
            return fx;
        }
        self.done = true;
        fx.done = Some(Outcome::Fail {
            kind,
            message: message.to_string(),
        });
        fx
    }

    /// The window a re-dispatch of `(level, child)` should carry right
    /// now, or `None` when the result no longer matters (plan done or
    /// level settled) and the copy should simply be dropped.
    pub fn redispatch(&self, level: usize, child: usize) -> Option<SubtreeSpec> {
        if self.done || level >= self.levels.len() || self.levels[level].settled() {
            return None;
        }
        let lv = &self.levels[level];
        let (alpha, beta) = lv.agg.window();
        let mut sub = lv.children.get(child)?.clone();
        sub.alpha = alpha;
        sub.beta = beta;
        Some(sub)
    }

    /// Has the plan reached a terminal state?
    pub fn finished(&self) -> bool {
        self.done
    }

    fn absorb(&mut self, level: usize, child: usize, value: Value, fx: &mut Effects) {
        self.levels[level].state[child] = ChildState::Done;
        self.levels[level].agg.absorb(value);
        if self.levels[level].settled() {
            self.settle(level, fx);
        } else if !self.naive && self.levels[level].state[0] == ChildState::Done {
            // The eldest (or its chain) is in: fan the remaining
            // siblings out under the narrowed window.
            for i in 1..self.levels[level].children.len() {
                self.stage(level, i, fx);
            }
        }
    }

    /// Level `level` has its value.  Skip what a cutoff made
    /// irrelevant (here and in every deeper level), then fold the
    /// value into the parent level — or finish the plan at the root.
    fn settle(&mut self, level: usize, fx: &mut Effects) {
        for k in level..self.levels.len() {
            let lv = &mut self.levels[k];
            if k > level && !lv.settled() {
                lv.moot = true;
            }
            for st in lv.state.iter_mut() {
                if *st == ChildState::Waiting {
                    *st = ChildState::Skipped;
                    fx.skipped += 1;
                }
            }
        }
        let value = self.levels[level].agg.value();
        if level == 0 {
            self.done = true;
            fx.done = Some(Outcome::Value {
                value,
                work: self.work,
                subevals: self.subevals_ok,
            });
        } else {
            self.absorb(level - 1, 0, value, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_tree::minimax::{seq_alphabeta, seq_solve};
    use gt_tree::split::sub_evaluate;
    use gt_tree::GenSpec;

    fn whole(spec: &str) -> SubtreeSpec {
        SubtreeSpec::whole(GenSpec::parse(spec).unwrap())
    }

    /// Drive a machine to completion the way the router would, serving
    /// dispatches with the sequential reference evaluator.  `stride`
    /// permutes delivery order so out-of-order arrival is exercised.
    fn run_to_completion(
        shape: Vec<PlanLevel>,
        config: &SplitConfig,
        stride: usize,
    ) -> (Outcome, u64, u64, u64) {
        let (mut m, fx) = SplitMachine::new(shape, config);
        let mut queue = fx.dispatch;
        let (mut skipped, mut discarded, mut dispatched) = (fx.skipped, fx.discarded, 0u64);
        let mut outcome = fx.done;
        while outcome.is_none() {
            assert!(!queue.is_empty(), "machine stalled with no outcome");
            let pick = (queue.len() - 1).min(stride % queue.len());
            let d = queue.swap_remove(pick);
            dispatched += 1;
            let st = sub_evaluate(&d.sub).unwrap();
            let fx = m.on_value(d.level, d.child, st.value, st.leaves_evaluated);
            queue.extend(fx.dispatch);
            skipped += fx.skipped;
            discarded += fx.discarded;
            if fx.done.is_some() {
                outcome = fx.done;
            }
        }
        // Anything left in the queue was never sent; in-flight copies
        // landing late would be counted discarded by on_value.
        (outcome.unwrap(), skipped, discarded, dispatched)
    }

    fn plan(spec: &str, threshold: u64, depth: usize) -> Vec<PlanLevel> {
        plan_levels(&whole(spec), threshold, depth)
            .unwrap()
            .expect("spec should be splittable")
    }

    #[test]
    fn cheap_or_narrow_trees_do_not_split() {
        assert!(plan_levels(&whole("minmax:d=2,n=3"), 1000, 3)
            .unwrap()
            .is_none());
        // Arity 1: cost clears the (tiny) threshold but there is
        // nothing to fan out.
        assert!(plan_levels(&whole("minmax:d=1,n=12"), 1, 3)
            .unwrap()
            .is_none());
    }

    #[test]
    fn chain_descends_while_the_eldest_clears_the_threshold() {
        let levels = plan("minmax:d=2,n=8,seed=5", 16, 8);
        // Costs along the chain: 256, 128, 64, 32, 16 — five levels.
        assert_eq!(levels.len(), 5);
        for (k, (node, children)) in levels.iter().enumerate() {
            assert_eq!(node.path, vec![0u32; k]);
            assert_eq!(children.len(), 2);
        }
        let capped = plan("minmax:d=2,n=8,seed=5", 16, 2);
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn split_evaluation_matches_sequential_for_minmax() {
        for spec in [
            "minmax:d=3,n=5,seed=11",
            "minmax-best:d=2,n=8,value=7",
            "minmax-worst:d=2,n=7",
            "minmax-corr:d=3,n=5,seed=2",
        ] {
            let src = GenSpec::parse(spec).unwrap().build().unwrap();
            let want = seq_alphabeta(&src, false).value;
            for stride in [0, 1, 3] {
                let shape = plan(spec, 8, 4);
                let (outcome, ..) = run_to_completion(shape, &SplitConfig::default(), stride);
                match outcome {
                    Outcome::Value { value, work, .. } => {
                        assert_eq!(value, want, "{spec} stride={stride}");
                        assert!(work > 0);
                    }
                    other => panic!("{spec}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn split_evaluation_matches_sequential_for_nor() {
        for spec in [
            "nor:d=2,n=9,p=0.3,seed=4",
            "crit:d=3,n=6,seed=9",
            "worst:d=2,n=9",
        ] {
            let src = GenSpec::parse(spec).unwrap().build().unwrap();
            let want = seq_solve(&src, false).value;
            let shape = plan(spec, 8, 4);
            let (outcome, ..) = run_to_completion(shape, &SplitConfig::default(), 1);
            match outcome {
                Outcome::Value { value, .. } => assert_eq!(value, want, "{spec}"),
                other => panic!("{spec}: {other:?}"),
            }
        }
    }

    #[test]
    fn nor_cutoffs_skip_undispatched_siblings() {
        // allones NOR values alternate with height: leaves are 1, so
        // height-1 nodes are 0, height-2 nodes are 1, and so on.  In a
        // three-level plan over n=6 the middle level's eldest child
        // has value 1 and cuts the level the moment it folds in —
        // its three siblings must never be dispatched.
        let shape = plan("allones:d=4,n=6", 8, 3);
        let (outcome, skipped, _discarded, dispatched) =
            run_to_completion(shape, &SplitConfig::default(), 0);
        match outcome {
            Outcome::Value { value, .. } => assert_eq!(value, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(skipped, 3, "the cut level strands its siblings");
        assert_eq!(
            dispatched, 7,
            "deepest eldest + its 3 siblings + the root's 3 siblings"
        );
    }

    #[test]
    fn late_arrivals_after_a_cutoff_are_discarded() {
        let shape = plan("allones:d=3,n=5", 4, 2);
        let (mut m, fx) = SplitMachine::new(
            shape,
            &SplitConfig {
                naive: true,
                ..SplitConfig::default()
            },
        );
        // Naive mode dispatches every child at once: the root's two
        // siblings, then the chain level's three children.
        assert_eq!(fx.dispatch.len(), 5);
        let mut fx_all = Effects::default();
        let mut queue = fx.dispatch;
        let mut outcome = None;
        // Deliver every dispatched result last-first, even after the
        // plan settles.  The chain level's value (1) cuts the root
        // before its siblings land: both must be counted as discarded.
        while let Some(d) = queue.pop() {
            let st = sub_evaluate(&d.sub).unwrap();
            let fx = m.on_value(d.level, d.child, st.value, st.leaves_evaluated);
            queue.extend(fx.dispatch);
            fx_all.discarded += fx.discarded;
            if fx.done.is_some() {
                outcome = fx.done;
            }
        }
        match outcome.expect("plan should settle") {
            Outcome::Value { value, .. } => assert_eq!(value, 0),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            fx_all.discarded, 2,
            "in-flight losers should be discarded on arrival"
        );
    }

    #[test]
    fn windowed_dispatch_does_less_leaf_work_than_naive() {
        let spec = "minmax-best:d=3,n=7,value=9";
        let work_of = |config: &SplitConfig| {
            let shape = plan(spec, 27, 4);
            match run_to_completion(shape, config, 0).0 {
                Outcome::Value { value, work, .. } => {
                    assert_eq!(value, 9);
                    work
                }
                other => panic!("{other:?}"),
            }
        };
        let pv = work_of(&SplitConfig::default());
        let naive = work_of(&SplitConfig {
            naive: true,
            ..SplitConfig::default()
        });
        assert!(
            pv < naive,
            "narrowed windows should prune: pv={pv} naive={naive}"
        );
    }

    #[test]
    fn a_hard_failure_fails_the_plan_once() {
        let shape = plan("minmax:d=2,n=6,seed=1", 4, 2);
        let (mut m, _fx) = SplitMachine::new(shape, &SplitConfig::default());
        let fx = m.on_fail(FailKind::Busy, "no routable replica");
        match fx.done {
            Some(Outcome::Fail { kind, .. }) => assert_eq!(kind, FailKind::Busy),
            other => panic!("{other:?}"),
        }
        assert!(m.finished());
        // Late events after failure are inert.
        assert!(m.on_fail(FailKind::Timeout, "late").done.is_none());
        assert_eq!(m.on_value(0, 1, 3, 10).discarded, 1);
        assert!(m.redispatch(0, 1).is_none());
    }

    #[test]
    fn redispatch_restamps_the_current_window() {
        let shape = plan("minmax:d=2,n=6,seed=3", 4, 1);
        let (mut m, fx) = SplitMachine::new(shape, &SplitConfig::default());
        let eldest = &fx.dispatch[0].sub;
        assert!(eldest.full_window());
        let st = sub_evaluate(eldest).unwrap();
        let fx2 = m.on_value(0, 0, st.value, st.leaves_evaluated);
        assert_eq!(fx2.dispatch.len(), 1, "sibling follows the eldest");
        // A lost sibling re-dispatches under the narrowed window, not
        // the original one.
        let again = m.redispatch(0, 1).unwrap();
        assert_eq!((again.alpha, again.beta), (st.value, Value::MAX));
    }
}
