//! Work-stealing intra-evaluation parallelism: **gt-par**, one
//! evaluation across 1..K real threads.
//!
//! The paper's central result is that *one* game-tree evaluation can be
//! spread over processors with linear speed-up (Theorems 1 and 3); its
//! Section 7 machine realizes that with a static processor-per-level
//! assignment and a *pre-emption rule* — work made moot by a reported
//! value is simply never started, and losers already running are
//! ignored rather than aborted.  This module is the intra-process
//! translation:
//!
//! * a [`ParTask`] names one unit of stealable work — *evaluate the
//!   subtree at this path and fold the value into this node* — exactly
//!   the shape `gt-split` ships across a fleet as a `SubtreeSpec`, kept
//!   in-process here (path in the task, window read at execution time);
//! * each worker owns a deque ([`Chase–Lev`-style discipline]: the
//!   owner pushes and pops at the back, idle workers steal from the
//!   front — realized with a mutexed `VecDeque`, std-only);
//! * every split node carries a shared [`AtomicWindow`] — α and β
//!   packed into one `AtomicU64` — that stealers re-probe before
//!   running a task, so a cutoff anywhere *retires* descendants'
//!   pending tasks without any abort message (the pre-emption rule);
//!   tasks already running simply finish and their late values are
//!   discarded by the settled [`Aggregator`];
//! * [`par_solve`] / [`par_alphabeta`] split PV-style (Young Brothers
//!   Wait): a node's eldest child is evaluated first and settles the
//!   window; only then do its siblings become stealable.
//!
//! [`Chase–Lev`-style discipline]: https://doi.org/10.1145/1073970.1073974
//!
//! The workers run on the process-wide fork-join pool ([`join`],
//! [`map`], [`start_pool`]; see the `pool` submodule) that the
//! fork-join engines of `gt-core` also run on.  Worker 0 is the caller
//! and the others are pool jobs, so an evaluation spawns no thread,
//! and it finishes even when no pool thread is free: a worker job
//! taken back after the root settled returns at once.
//!
//! ## The fork rule
//!
//! [`worth_a_fork`] is the one rule every fork site applies: an arm is
//! forked only when its estimated cost exceeds [`FORK_WAKE_NS`], the
//! cost of waking a parked pool thread.  Below that grain a fork site
//! runs the arm inline, as a sequential *macro-leaf* in the paper's
//! leaf-evaluation model.
//!
//! ## Value determinism
//!
//! Sibling results are absorbed in *arrival* order, which varies run to
//! run.  The root value is still deterministic: under the full window
//! the fold returns the exact minimax (or NOR) value for any absorption
//! order, and under a non-trivial `(α, β)` a value strictly inside the
//! window is returned exactly (see `tests/par_proptest.rs`).  Only the
//! fail-soft *bound* reported when the root fails low/high may differ
//! from the sequential one — both are correct bounds on the same side.
//!
//! ## Cancellation
//!
//! One `AtomicBool` — the serving layer's per-flight flag — is polled
//! by every worker loop and threaded into every sequential
//! sub-evaluation, so a deadline reaper flipping that single flag
//! stops *all* threads of a multi-worker grant cooperatively.

use crate::minimax::{seq_alphabeta_windowed_cancellable, seq_solve_cancellable};
use crate::source::{Cancelled, TreeSource, Value};
use crate::split::{Aggregator, NodeMode};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod pool;
pub use pool::{join, map, start_pool};

/// What a fork must beat: waking a parked pool thread and handing it
/// an arm.  Measured on a 2-vCPU VM by timing [`join`] of two spinning
/// arms against running them back to back, each after the pool had
/// idled 200 µs: the fork took the arm's time plus 25–34 µs (medians
/// over 200 forks per arm size, arms of 20–100 µs), so it broke even
/// at arms of 25–30 µs.
pub const FORK_WAKE_NS: u64 = 30_000;

/// What one leaf of a full uniform subtree costs a rooted sequential
/// α-β search, pruned leaves included: the per-leaf time for estimates
/// made from a tree's shape alone.  `cargo run --release --example
/// leaf_cost` prints it: the median over 200 random M(4,6) trees of
/// `seq_alphabeta`'s time per leaf of the full tree.  The constant was
/// set when every leaf re-hashed its path from the root, at 8.3 ns
/// (6.5 ns at M(4,7)) on a 2-vCPU VM.  Since the sequential kernels
/// carry walk keys ([`TreeSource::walk_key`]), the command reads 5.1 ns
/// where the path-hashing kernels read 10.8 ns (3.6 and 8.5 ns at
/// M(4,7)): medians of 15 alternating runs on a 2-vCPU VM.
///
/// It stays 8 so that no fork decision and no leaf count moves with
/// the cheaper leaves.  At 4, `cold`'s M(4,7) roots stop forking, and
/// so does E12's (4,7) game at every leaf work, which takes cascade's
/// and YBW's wins there (1.2–1.4× at leaf work 256–1024) to about 1.0.
/// Lowering it belongs with a fork rule that knows each source's leaf
/// cost.
pub const SHAPE_LEAF_NS: u64 = 8;

/// Is an arm of `leaves` leaves, each costing `leaf_ns`, worth a fork?
/// Yes when it costs more than [`FORK_WAKE_NS`].  Shape estimates pass
/// [`SHAPE_LEAF_NS`], which puts the grain at 3751 leaves; a fork site
/// with no per-leaf time yet passes 0 and runs inline.
pub fn worth_a_fork(leaves: u64, leaf_ns: u64) -> bool {
    leaves.saturating_mul(leaf_ns) > FORK_WAKE_NS
}

/// A shared α/β window packed into one `AtomicU64`, so stealers can
/// re-probe the current bounds (and detect `α ≥ β`) with a single
/// relaxed load, no lock.
///
/// Bounds are stored as two `i32` halves.  Values outside the `i32`
/// range are rounded *outward* (α down, β up, with `i32::MIN`/`MAX`
/// decoding back to `Value::MIN`/`MAX`), so the stored window is never
/// narrower than the true one — out-of-range bounds can only cost
/// pruning, never correctness.  Every generator in this workspace
/// produces leaf values far inside `i32`, so in practice the packing
/// is exact.
#[derive(Debug)]
pub struct AtomicWindow(AtomicU64);

fn enc_alpha(v: Value) -> i32 {
    if v <= i32::MIN as Value {
        i32::MIN
    } else if v >= i32::MAX as Value {
        i32::MAX - 1 // round α down: wider window, still sound
    } else {
        v as i32
    }
}

fn enc_beta(v: Value) -> i32 {
    if v >= i32::MAX as Value {
        i32::MAX
    } else if v <= i32::MIN as Value {
        i32::MIN + 1 // round β up: wider window, still sound
    } else {
        v as i32
    }
}

fn dec_alpha(e: i32) -> Value {
    if e == i32::MIN {
        Value::MIN
    } else {
        e as Value
    }
}

fn dec_beta(e: i32) -> Value {
    if e == i32::MAX {
        Value::MAX
    } else {
        e as Value
    }
}

fn pack(a: i32, b: i32) -> u64 {
    ((a as u32 as u64) << 32) | (b as u32 as u64)
}

fn unpack(x: u64) -> (i32, i32) {
    ((x >> 32) as u32 as i32, x as u32 as i32)
}

impl AtomicWindow {
    /// A window starting at `(alpha, beta)`.
    pub fn new(alpha: Value, beta: Value) -> AtomicWindow {
        AtomicWindow(AtomicU64::new(pack(enc_alpha(alpha), enc_beta(beta))))
    }

    /// The current `(α, β)`.
    pub fn load(&self) -> (Value, Value) {
        let (a, b) = unpack(self.0.load(Ordering::Relaxed));
        (dec_alpha(a), dec_beta(b))
    }

    /// Narrow toward `(alpha, beta)`: each bound only ever moves
    /// inward (α up, β down), so concurrent narrowings commute.
    /// Returns how many bounds actually moved (0, 1 or 2).
    pub fn narrow(&self, alpha: Value, beta: Value) -> u32 {
        let (na, nb) = (enc_alpha(alpha), enc_beta(beta));
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let (ca, cb) = unpack(cur);
            let (ta, tb) = (ca.max(na), cb.min(nb));
            if ta == ca && tb == cb {
                return 0;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(ta, tb),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return u32::from(ta != ca) + u32::from(tb != cb),
                Err(now) => cur = now,
            }
        }
    }

    /// Has the window closed (`α ≥ β`)?  A closed window means a
    /// cutoff fired somewhere: pending tasks under it are moot.
    pub fn is_cut(&self) -> bool {
        let (a, b) = self.load();
        a >= b
    }
}

/// Counters and result of one parallel evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParStats {
    /// Root value.
    pub value: Value,
    /// Leaves evaluated across all workers (the paper's `W(T)`).
    pub leaves_evaluated: u64,
    /// Nodes expanded across all workers.
    pub nodes_expanded: u64,
    /// Pruning events: α ≥ β cutoffs and NOR short-circuits.
    pub cutoffs: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Tasks retired unrun (or discarded on late arrival) because a
    /// cutoff settled their node first — Section 7's pre-emption rule.
    pub retired: u64,
    /// Successful [`AtomicWindow::narrow`] bound movements.
    pub window_narrowings: u64,
    /// Worker loops that started before the root settled: the caller
    /// plus the pool threads that joined in time.
    pub workers: u32,
}

/// How values combine up the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvalKind {
    Nor,
    /// MIN/MAX with the given root player.
    Minmax {
        root_maximizing: bool,
    },
}

impl EvalKind {
    fn mode_at(self, depth: usize) -> NodeMode {
        match self {
            EvalKind::Nor => NodeMode::Nor,
            EvalKind::Minmax { root_maximizing } => {
                if depth.is_multiple_of(2) == root_maximizing {
                    NodeMode::Max
                } else {
                    NodeMode::Min
                }
            }
        }
    }
}

/// One split node: an internal tree node whose children are evaluated
/// by (possibly) different workers and folded through a shared
/// [`Aggregator`].
struct NodeState {
    path: Vec<u32>,
    parent: Option<Arc<NodeState>>,
    agg: Mutex<Aggregator>,
    window: AtomicWindow,
    /// Set the instant the aggregator settles; probed lock-free by
    /// workers deciding whether a pending task is moot.
    done: AtomicBool,
    /// Set once the eldest child's value has been absorbed and the
    /// younger brothers have been made stealable (YBW).
    published: AtomicBool,
}

/// One stealable unit of work: evaluate the subtree at `path` (a child
/// of `node`) under the node's *current* window and fold the value
/// into the node.  The in-process counterpart of gt-split's
/// `SubtreeSpec`: same path-plus-window identity, but the window is
/// read from the shared [`AtomicWindow`] at execution time instead of
/// being frozen at dispatch.
struct ParTask {
    node: Arc<NodeState>,
    path: Vec<u32>,
}

struct Pool<'a, S> {
    source: &'a S,
    kind: EvalKind,
    cancel: &'a AtomicBool,
    split_depth: usize,
    deques: Vec<Mutex<VecDeque<ParTask>>>,
    finished: AtomicBool,
    result: Mutex<Option<Value>>,
    leaves: AtomicU64,
    expanded: AtomicU64,
    cutoffs: AtomicU64,
    steals: AtomicU64,
    retired: AtomicU64,
    narrowings: AtomicU64,
    workers: AtomicU32,
}

impl<'a, S: TreeSource> Pool<'a, S> {
    fn push(&self, worker: usize, task: ParTask) {
        self.deques[worker].lock().unwrap().push_back(task);
    }

    /// Owner pops from the back of its own deque; failing that, steals
    /// from the front of the others' (round-robin from its neighbour).
    fn pop_or_steal(&self, worker: usize) -> Option<ParTask> {
        if let Some(t) = self.deques[worker].lock().unwrap().pop_back() {
            return Some(t);
        }
        let k = self.deques.len();
        for step in 1..k {
            let victim = (worker + step) % k;
            if let Some(t) = self.deques[victim].lock().unwrap().pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Evaluate the subtree at `path` sequentially under `(alpha, beta)`,
    /// rooted in place on the shared source.
    fn eval_leafward(&self, path: &[u32], alpha: Value, beta: Value) -> Result<Value, Cancelled> {
        let st = match self.kind {
            EvalKind::Nor => seq_solve_cancellable(self.source, path, false, self.cancel)?,
            EvalKind::Minmax { .. } => {
                let maximizing = self.kind.mode_at(path.len()) == NodeMode::Max;
                seq_alphabeta_windowed_cancellable(
                    self.source,
                    path,
                    false,
                    alpha,
                    beta,
                    maximizing,
                    self.cancel,
                )?
            }
        };
        self.leaves
            .fetch_add(st.leaves_evaluated, Ordering::Relaxed);
        self.expanded
            .fetch_add(st.nodes_expanded, Ordering::Relaxed);
        self.cutoffs.fetch_add(st.cutoffs, Ordering::Relaxed);
        Ok(st.value)
    }

    /// Fold `value` into `node`; on settle, cascade into the parent.
    /// The first value a node absorbs is always its eldest child's
    /// (YBW guarantees no sibling runs earlier), so absorption doubles
    /// as the publication trigger for the younger brothers.
    fn absorb(&self, worker: usize, node: &Arc<NodeState>, value: Value) -> Result<(), Cancelled> {
        let (settle, publish) = {
            let mut agg = node.agg.lock().unwrap();
            if agg.settled() {
                // A loser finishing after the cutoff: ignored, per the
                // pre-emption rule.
                self.retired.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if agg.absorb(value) {
                self.cutoffs.fetch_add(1, Ordering::Relaxed);
            }
            let (a, b) = agg.window();
            let moved = node.window.narrow(a, b);
            if moved > 0 {
                self.narrowings
                    .fetch_add(u64::from(moved), Ordering::Relaxed);
            }
            let settled = agg.settled();
            if settled {
                node.done.store(true, Ordering::Relaxed);
            }
            let was_published = node.published.swap(true, Ordering::Relaxed);
            let publish = (!was_published && !settled).then(|| agg.expected());
            let settle = settled.then(|| {
                // Children absorbed so far plus the ones queued (if
                // publication happened) count themselves; children a
                // pre-publication cutoff kept from ever being queued
                // are only visible here.
                let unqueued = if was_published {
                    0
                } else {
                    agg.expected() - agg.seen()
                };
                (agg.value(), unqueued)
            });
            (settle, publish)
        };
        if let Some(expected) = publish {
            // Eldest absorbed, node still open: the younger brothers
            // become stealable now.
            for i in 1..expected {
                let mut path = node.path.clone();
                path.push(i);
                self.push(
                    worker,
                    ParTask {
                        node: Arc::clone(node),
                        path,
                    },
                );
            }
        }
        if let Some((value, unqueued)) = settle {
            if unqueued > 0 {
                self.retired
                    .fetch_add(u64::from(unqueued), Ordering::Relaxed);
            }
            match &node.parent {
                Some(parent) => self.absorb(worker, parent, value)?,
                None => {
                    *self.result.lock().unwrap() = Some(value);
                    self.finished.store(true, Ordering::Release);
                }
            }
        }
        Ok(())
    }

    /// Run one task: re-probe, then either expand the child into a new
    /// split node (PV-first: its eldest grandchild is evaluated before
    /// returning) or evaluate it sequentially and fold the value in.
    fn run_task(&self, worker: usize, task: ParTask) -> Result<(), Cancelled> {
        let ParTask { node, path } = task;
        // The pre-emption probe: a settled node (or closed window)
        // retires the task before any work happens.
        if node.done.load(Ordering::Relaxed) || node.window.is_cut() {
            self.retired.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let d = self.source.arity(&path);
        let splittable = d >= 2
            && path.len() < self.split_depth
            && match self.source.height_hint() {
                // Don't split nodes whose subtrees are trivial.
                Some(h) => path.len() as u32 + 2 <= h,
                None => true,
            };
        if !splittable {
            let (alpha, beta) = node.window.load();
            let value = self.eval_leafward(&path, alpha, beta)?;
            return self.absorb(worker, &node, value);
        }
        // Split: the child becomes a node of its own, inheriting the
        // parent's *current* window (later parent narrowings do not
        // chase it — sound, merely less pruning; see gt-tree::split).
        let (alpha, beta) = node.window.load();
        self.expanded.fetch_add(1, Ordering::Relaxed);
        let depth = path.len();
        let child = Arc::new(NodeState {
            path,
            parent: Some(node),
            agg: Mutex::new(Aggregator::new(self.kind.mode_at(depth), d, alpha, beta)),
            window: AtomicWindow::new(alpha, beta),
            done: AtomicBool::new(false),
            published: AtomicBool::new(false),
        });
        // Young Brothers Wait: the eldest grandchild is evaluated
        // before anything under this node is stealable.
        let mut eldest = child.path.clone();
        eldest.push(0);
        self.run_task(
            worker,
            ParTask {
                node: child,
                path: eldest,
            },
        )
    }

    fn worker_loop(&self, worker: usize) -> Result<(), Cancelled> {
        if self.finished.load(Ordering::Acquire) {
            // Taken back by its caller after the root settled.
            return Ok(());
        }
        self.workers.fetch_add(1, Ordering::Relaxed);
        let mut idle_spins = 0u32;
        loop {
            if self.finished.load(Ordering::Acquire) {
                return Ok(());
            }
            if self.cancel.load(Ordering::Relaxed) {
                return Err(Cancelled);
            }
            match self.pop_or_steal(worker) {
                Some(task) => {
                    idle_spins = 0;
                    self.run_task(worker, task)?;
                }
                None => {
                    // Nothing to do: someone else holds the last task.
                    // Yield first (cheap on a loaded host), then back
                    // off to a short sleep.
                    idle_spins += 1;
                    if idle_spins < 16 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                }
            }
        }
    }
}

/// Map a sequential run onto [`ParStats`] (the 1-worker degenerate
/// case, and trees too small to split).
fn seq_fallback<S: TreeSource>(
    source: &S,
    kind: EvalKind,
    alpha: Value,
    beta: Value,
    cancel: &AtomicBool,
) -> Result<ParStats, Cancelled> {
    let st = match kind {
        EvalKind::Nor => seq_solve_cancellable(source, &[], false, cancel)?,
        EvalKind::Minmax { root_maximizing } => seq_alphabeta_windowed_cancellable(
            source,
            &[],
            false,
            alpha,
            beta,
            root_maximizing,
            cancel,
        )?,
    };
    Ok(ParStats {
        value: st.value,
        leaves_evaluated: st.leaves_evaluated,
        nodes_expanded: st.nodes_expanded,
        cutoffs: st.cutoffs,
        steals: 0,
        retired: 0,
        window_narrowings: 0,
        workers: 1,
    })
}

/// How deep the PV split descends: deep enough that the per-level
/// sibling tasks can feed `workers` threads, shallow enough that tasks
/// stay chunky.
fn split_depth(d: u32, workers: u32) -> usize {
    let per_level = d.saturating_sub(1).max(1);
    ((2 * workers).div_ceil(per_level)).clamp(2, 8) as usize
}

fn par_evaluate<S: TreeSource>(
    source: &S,
    kind: EvalKind,
    workers: u32,
    alpha: Value,
    beta: Value,
    cancel: &AtomicBool,
) -> Result<ParStats, Cancelled> {
    let d = source.arity(&[]);
    if workers <= 1 || d < 2 {
        return seq_fallback(source, kind, alpha, beta, cancel);
    }
    let workers = workers as usize;
    let pool = Pool {
        source,
        kind,
        cancel,
        split_depth: split_depth(d, workers as u32),
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        finished: AtomicBool::new(false),
        result: Mutex::new(None),
        leaves: AtomicU64::new(0),
        expanded: AtomicU64::new(1), // the root
        cutoffs: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        retired: AtomicU64::new(0),
        narrowings: AtomicU64::new(0),
        workers: AtomicU32::new(0),
    };
    let root = Arc::new(NodeState {
        path: Vec::new(),
        parent: None,
        agg: Mutex::new(Aggregator::new(kind.mode_at(0), d, alpha, beta)),
        window: AtomicWindow::new(alpha, beta),
        done: AtomicBool::new(false),
        published: AtomicBool::new(false),
    });
    pool.push(
        0,
        ParTask {
            node: root,
            path: vec![0],
        },
    );
    // Worker 0 runs on the caller and the rest are pool jobs.
    map(workers, |w| pool.worker_loop(w))
        .into_iter()
        .collect::<Result<(), Cancelled>>()?;
    let value = pool
        .result
        .lock()
        .unwrap()
        .expect("pool finished without a root value");
    Ok(ParStats {
        value,
        leaves_evaluated: pool.leaves.load(Ordering::Relaxed),
        nodes_expanded: pool.expanded.load(Ordering::Relaxed),
        cutoffs: pool.cutoffs.load(Ordering::Relaxed),
        steals: pool.steals.load(Ordering::Relaxed),
        retired: pool.retired.load(Ordering::Relaxed),
        window_narrowings: pool.narrowings.load(Ordering::Relaxed),
        workers: pool.workers.load(Ordering::Relaxed),
    })
}

/// Parallel SOLVE over up to `workers` threads: the work-stealing
/// counterpart of [`seq_solve`](crate::minimax::seq_solve), with an
/// identical root value for every worker count (NOR values are exact
/// under any absorption order).
pub fn par_solve<S: TreeSource>(
    source: &S,
    workers: u32,
    cancel: &AtomicBool,
) -> Result<ParStats, Cancelled> {
    par_evaluate(
        source,
        EvalKind::Nor,
        workers,
        Value::MIN,
        Value::MAX,
        cancel,
    )
}

/// Parallel α-β over up to `workers` threads from the full window: root
/// value identical to [`seq_alphabeta`](crate::minimax::seq_alphabeta)
/// for every worker count.
pub fn par_alphabeta<S: TreeSource>(
    source: &S,
    workers: u32,
    cancel: &AtomicBool,
) -> Result<ParStats, Cancelled> {
    par_alphabeta_windowed(source, workers, Value::MIN, Value::MAX, true, cancel)
}

/// Parallel α-β from an arbitrary starting window and root player —
/// the entry point the serving layer uses for windowed subtree grants.
/// Fail-soft: a value strictly inside `(alpha, beta)` is exact; a
/// value at or outside a bound is a bound on the same side the
/// sequential search would fail.
pub fn par_alphabeta_windowed<S: TreeSource>(
    source: &S,
    workers: u32,
    alpha: Value,
    beta: Value,
    maximizing: bool,
    cancel: &AtomicBool,
) -> Result<ParStats, Cancelled> {
    if alpha >= beta {
        // An empty window settles without visiting anything.
        return Ok(ParStats {
            value: if maximizing { alpha } else { beta },
            leaves_evaluated: 0,
            nodes_expanded: 0,
            cutoffs: 1,
            steals: 0,
            retired: 0,
            window_narrowings: 0,
            workers: 1,
        });
    }
    par_evaluate(
        source,
        EvalKind::Minmax {
            root_maximizing: maximizing,
        },
        workers,
        alpha,
        beta,
        cancel,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimax::{seq_alphabeta, seq_solve};
    use crate::spec::GenSpec;

    fn never() -> AtomicBool {
        AtomicBool::new(false)
    }

    #[test]
    fn atomic_window_round_trips_and_narrows_monotonically() {
        let w = AtomicWindow::new(Value::MIN, Value::MAX);
        assert_eq!(w.load(), (Value::MIN, Value::MAX));
        assert!(!w.is_cut());
        assert_eq!(w.narrow(-5, 9), 2);
        assert_eq!(w.load(), (-5, 9));
        // Widening attempts are ignored.
        assert_eq!(w.narrow(-100, 100), 0);
        assert_eq!(w.load(), (-5, 9));
        assert_eq!(w.narrow(3, Value::MAX), 1);
        assert_eq!(w.load(), (3, 9));
        assert_eq!(w.narrow(9, 9), 1); // only α moves: 3 → 9
        assert!(w.is_cut());
    }

    #[test]
    fn atomic_window_out_of_range_bounds_round_outward() {
        let w = AtomicWindow::new(Value::MIN, Value::MAX);
        // Narrowing to astronomically large bounds keeps a sound
        // (possibly wider) window rather than inverting it.
        w.narrow(Value::MIN + 1, Value::MAX - 1);
        let (a, b) = w.load();
        assert!(a <= Value::MIN + 1 && b >= Value::MAX - 1);
        assert!(!w.is_cut());
    }

    #[test]
    fn par_solve_matches_seq_solve_for_every_worker_count() {
        for spec in [
            "crit:d=2,n=8,seed=11",
            "nor:d=3,n=5,seed=4",
            "worst:d=2,n=6",
        ] {
            let g = GenSpec::parse(spec).unwrap();
            let src = g.build().unwrap();
            let want = seq_solve(&src, false).value;
            for workers in [1, 2, 4, 8] {
                let st = par_solve(&src, workers, &never()).unwrap();
                assert_eq!(st.value, want, "{spec} workers={workers}");
            }
        }
    }

    #[test]
    fn par_alphabeta_matches_seq_alphabeta_for_every_worker_count() {
        for spec in [
            "minmax:d=3,n=5,seed=7,lo=-50,hi=50",
            "minmax-best:d=2,n=8,value=13",
            "minmax-worst:d=2,n=7",
            "minmax-corr:d=3,n=4,seed=2",
        ] {
            let g = GenSpec::parse(spec).unwrap();
            let src = g.build().unwrap();
            let want = seq_alphabeta(&src, false).value;
            for workers in [1, 2, 3, 4, 8] {
                let st = par_alphabeta(&src, workers, &never()).unwrap();
                assert_eq!(st.value, want, "{spec} workers={workers}");
            }
        }
    }

    #[test]
    fn windowed_root_inside_window_is_exact() {
        let g = GenSpec::parse("minmax:d=3,n=4,seed=9,lo=-16,hi=16").unwrap();
        let src = g.build().unwrap();
        let truth = seq_alphabeta(&src, false).value;
        let st = par_alphabeta_windowed(&src, 4, truth - 3, truth + 3, true, &never()).unwrap();
        assert_eq!(st.value, truth);
    }

    #[test]
    fn windowed_root_failures_land_on_the_right_side() {
        let g = GenSpec::parse("minmax:d=3,n=4,seed=5,lo=-16,hi=16").unwrap();
        let src = g.build().unwrap();
        let truth = seq_alphabeta(&src, false).value;
        for workers in [2, 4] {
            let lo = par_alphabeta_windowed(&src, workers, truth + 1, truth + 8, true, &never())
                .unwrap();
            assert!(lo.value <= truth + 1, "fail-low bound, workers={workers}");
            let hi = par_alphabeta_windowed(&src, workers, truth - 8, truth - 1, true, &never())
                .unwrap();
            assert!(hi.value >= truth - 1, "fail-high bound, workers={workers}");
        }
    }

    #[test]
    fn degenerate_trees_run_on_the_fallback() {
        // A single leaf and a unary chain cannot split.
        let g = GenSpec::parse("minmax:d=1,n=4,seed=1,lo=-9,hi=9").unwrap();
        let src = g.build().unwrap();
        let st = par_alphabeta(&src, 4, &never()).unwrap();
        assert_eq!(st.value, seq_alphabeta(&src, false).value);
        assert_eq!(st.workers, 1);
        let g = GenSpec::parse("worst:d=2,n=0").unwrap();
        let src = g.build().unwrap();
        let st = par_solve(&src, 4, &never()).unwrap();
        assert_eq!(st.value, seq_solve(&src, false).value);
    }

    #[test]
    fn preset_cancel_flag_aborts_every_worker() {
        let set = AtomicBool::new(true);
        let g = GenSpec::parse("worst:d=2,n=12").unwrap();
        let src = g.build().unwrap();
        assert_eq!(par_solve(&src, 4, &set), Err(Cancelled));
        let g = GenSpec::parse("minmax-worst:d=2,n=12").unwrap();
        let src = g.build().unwrap();
        assert_eq!(par_alphabeta(&src, 4, &set), Err(Cancelled));
    }

    #[test]
    fn big_runs_record_work_and_exercise_the_deques() {
        let g = GenSpec::parse("minmax-worst:d=2,n=12").unwrap();
        let src = g.build().unwrap();
        let st = par_alphabeta(&src, 4, &never()).unwrap();
        assert_eq!(st.value, seq_alphabeta(&src, false).value);
        assert!(st.leaves_evaluated > 0);
        // The caller always runs a loop; pool threads join if free.
        assert!((1..=4).contains(&st.workers), "workers {}", st.workers);
        // Worst-ordered trees admit no cutoffs, so every published
        // sibling task really runs; with several workers chewing one
        // deque the run is overwhelmingly likely to steal, but the
        // value contract above is the hard assertion.
    }

    #[test]
    fn the_fork_rule_pins_its_grain_on_the_benchmark_shapes() {
        assert_eq!((FORK_WAKE_NS, SHAPE_LEAF_NS), (30_000, 8));
        // `cold`'s M(4,6): the root's children have 4^5 leaves each, so
        // the whole tree is one macro-leaf.
        assert!(!worth_a_fork(4u64.pow(5), SHAPE_LEAF_NS));
        // `cold`'s M(4,7) and E12's (4,7) game: the root forks over
        // children of 4^6 leaves, and each child is a macro-leaf.
        assert!(worth_a_fork(4u64.pow(6), SHAPE_LEAF_NS));
        // The grain itself, and no fork without a per-leaf time.
        assert!(!worth_a_fork(3750, SHAPE_LEAF_NS));
        assert!(worth_a_fork(3751, SHAPE_LEAF_NS));
        assert!(!worth_a_fork(u64::MAX, 0));
        assert!(worth_a_fork(u64::MAX, u64::MAX));
    }

    #[test]
    fn empty_window_settles_without_work() {
        let g = GenSpec::parse("minmax:d=2,n=10,seed=3").unwrap();
        let src = g.build().unwrap();
        let st = par_alphabeta_windowed(&src, 4, 5, 5, true, &never()).unwrap();
        assert_eq!(st.leaves_evaluated, 0);
    }
}
