//! The connection loop both tiers run: `gtree serve` for its clients,
//! and `gtree route` for its clients and its replicas.
//!
//! ```text
//! I/O threads (fixed pool, epoll loops; thread 0 owns the listeners)
//!   ├─ accept──▶ conns distributed round-robin across the pool
//!   ├─ scrape──▶ /metrics conns kept on thread 0, one response each
//!   ├─ adopt───▶ outbound conns placed round-robin across the pool
//!   ├─ readable──▶ per-conn line state machine ──▶ LineHandler::line
//!   │                                  (outbound: LineHandler::outbound_line)
//!   ├─ wakeups──▶ flush outbound queues, resume parsing
//!   ├─ timers───▶ after the events: fire every due Timer
//!   ├─ turn─────▶ one claim_turn per iteration: in-place work
//!   └─ listed───▶ before each poll: flush what this thread enqueued
//! owning I/O thread ──ConnReply::enqueue / release_slot──▶ listed
//! any other thread  ──ConnReply::enqueue / release_slot──▶ owner woken
//! owning I/O thread ──ConnReply::schedule──▶ its own timer heap
//! any other thread  ──ConnReply::schedule──▶ owner woken, heap pushed
//! ```
//!
//! A connection never owns a thread.  Each one is a small state
//! machine pinned to one I/O thread: nonblocking socket, an
//! incremental [`LineReader`] with a pooled carry buffer for partial
//! lines, a bounded outbound reply queue flushed with vectored writes,
//! and a pipelining window.  Thousands of idle connections cost their
//! sockets and a few hundred bytes of state each.
//!
//! A tier plugs in a [`LineHandler`].  For each request line it either
//! answers inline, or claims the connection's window slot and settles
//! later, from whichever thread finishes the work, with
//! [`ConnReply::enqueue`] then [`ConnReply::release_slot`].  Only the
//! owning I/O thread ever touches the socket, so no thread waits on a
//! client it does not serve.
//!
//! ## Settling without a wake
//!
//! A settle made on the connection's own I/O thread (an inline reply,
//! a handler that settles another of the thread's connections, a send
//! on one of its outbound connections) only lists the connection on
//! that thread's dirty list; the thread services every listed
//! connection before it polls again, so what one iteration enqueues
//! on a connection leaves together, in one `writev` when it fits.  A
//! settle from any other thread queues a wake command and writes the
//! thread's waker pipe.  Reads stop after a read shorter than the
//! scratch buffer: the poller is level-triggered and reports whatever
//! is left.
//!
//! ## One in-place turn per iteration
//!
//! A handler may settle a request by doing its work where it stands,
//! when handing it to another thread would cost more than the work.
//! [`claim_turn`] grants each I/O thread one such turn per loop
//! iteration, so the rest of a pipelined burst is handed over and the
//! thread's other lines and connections wait for at most one unit.
//! Any thread that is not a loop thread never gets a turn.
//!
//! ## Timers and `/metrics`
//!
//! A [`Timer`] ([`ConnReply::schedule`]) lives on the [`DeadlineHeap`]
//! of the connection's I/O thread and fires there after the events,
//! unless answered by then; each poll sleeps no longer than until the
//! earliest, rounded up to a whole millisecond so it never spins.
//! [`LoopConfig::metrics`] is a second listener of thread 0: each
//! connection on it is one scrape, its request head due within one
//! 500 ms deadline, then answered with [`LineHandler::metrics_text`]
//! and closed.  Both go on through a drain: a thread exits once its
//! connections are closed and its timers answered.
//!
//! ## Outbound connections
//!
//! A tier that talks to peers connects to each itself and hands the
//! socket to [`IoLoop::adopt`], keeping the [`ConnReply`] it gets back
//! as the write half: a send only enqueues.  What the peer sends are
//! replies, handed to [`LineHandler::outbound_line`].  They are never
//! gated by the window, the connection never idles out, and no error
//! line is ever written to it.  Any read, write or overflow error
//! closes both halves: [`LineHandler::outbound_closed`] fires exactly
//! once, and every later `enqueue` on the write half returns false.
//! Outbound connections never count in the tier's [`ConnCounters`].
//!
//! ## Backpressure and slow readers
//!
//! Reads stop while a connection's window is full or its outbox is
//! above the high-water mark: the bytes stay in the kernel, which is
//! TCP backpressure.  A client that keeps pipelining while never
//! draining replies reaches the outbox's hard cap and is closed
//! (`overflow_closed`); an over-long request line gets a 400 and a
//! close (`overlong_closed`); with an idle timeout set, a connection
//! with nothing in flight and no complete line for that long is closed
//! too (`idle_closed`).  No thread is ever pinned by either shape of
//! slowloris.
//!
//! ## Drain
//!
//! Once [`LineHandler::draining`] reports true, every thread drops the
//! listener, stops parsing input, and holds each connection open just
//! long enough to flush its in-flight replies.  Outbound connections
//! carry those replies in, so they stay open, still read, until no
//! inbound connection remains on any thread, and then close;
//! [`IoLoop::join`] returns when every thread's slab is empty and its
//! timers are answered.

use crate::deadline::{Answerable, DeadlineHeap};
use crate::io::{
    drain_outbox, raise_nofile_limit, BufferPool, LineAction, LineReader, LineTooLong, Poller,
    Waker,
};
use crate::metrics::Histogram;
use crate::protocol::{error_line, ErrorCode};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Longest accepted request line; longer input closes the connection.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// The I/O threads' longest poll wait, so drains and idle sweeps tick
/// at least this often.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long a `/metrics` scrape has to send its whole request head.
const SCRAPE_HEAD_TIMEOUT: Duration = Duration::from_millis(500);

/// Longest `/metrics` request-head line; a longer one ends the head.
const SCRAPE_HEAD_MAX: usize = 8 * 1024;

/// Outbound-queue level above which a connection's requests stop
/// being parsed: a slow reader backpressures itself instead of
/// growing an unbounded reply buffer.
const OUTBOX_HIGH_WATER: usize = 128 * 1024;

/// Hard cap on one connection's queued reply bytes; past it the
/// connection is closed (`overflow_closed`).  Only reachable by a
/// client that keeps pipelining while never draining replies.
const OUTBOX_MAX_BYTES: usize = 1024 * 1024;

/// Per-I/O-thread read scratch size (shared by all its connections).
const READ_CHUNK: usize = 16 * 1024;

/// How many open fds the process asks the kernel for when a loop
/// starts.
const NOFILE_TARGET: u64 = 1 << 16;

/// Health counters for one I/O event loop, updated lock-free by the
/// owning thread each iteration and read by the serve family table.
/// `wait_us` is time spent asleep in `epoll_wait`/`poll` (idle);
/// `work_us` is everything else in the iteration — socket reads,
/// request parsing, outbox drains, and the work a handler runs on its
/// [`claim_turn`] — i.e. how long freshly-ready
/// connections wait for the loop to come around, so its distribution
/// (the `lag` histogram) is the loop's responsiveness.
#[derive(Default)]
pub struct IoLoopStats {
    /// Loop iterations completed (one `wait` + work cycle each).
    pub iterations: AtomicU64,
    /// Cumulative µs blocked waiting for readiness events.
    pub wait_us: AtomicU64,
    /// Cumulative µs doing work between waits.
    pub work_us: AtomicU64,
    /// Connections currently owned by this loop (gauge).
    pub connections: AtomicU64,
    /// Bytes queued in this loop's connection outboxes (gauge,
    /// refreshed on the owner's gauge cadence, not per write).
    pub outbox_bytes: AtomicU64,
    /// Distribution of per-iteration work time — loop-iteration lag.
    pub lag: Histogram,
}

impl IoLoopStats {
    /// Fold one completed loop iteration in.
    pub fn record_iteration(&self, wait_us: u64, work_us: u64) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
        self.wait_us.fetch_add(wait_us, Ordering::Relaxed);
        self.work_us.fetch_add(work_us, Ordering::Relaxed);
        self.lag.record(work_us);
    }

    /// Refresh the point-in-time gauges.
    pub fn set_gauges(&self, connections: u64, outbox_bytes: u64) {
        self.connections.store(connections, Ordering::Relaxed);
        self.outbox_bytes.store(outbox_bytes, Ordering::Relaxed);
    }
}

/// The connection counters a loop keeps for its tier.
#[derive(Default)]
pub struct ConnCounters {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections currently registered with an I/O thread (gauge:
    /// incremented on registration, decremented on close).
    pub open: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closed: AtomicU64,
    /// Connections closed because their bounded outbound queue
    /// overflowed (a never-draining slow reader).
    pub overflow_closed: AtomicU64,
    /// Connections closed for sending an over-long request line.
    pub overlong_closed: AtomicU64,
}

/// What a tier plugs into the loop.  Dispatch is static: the loop is
/// generic over its handler, so a line costs no dynamic call.
pub trait LineHandler: Send + Sync + 'static {
    /// Answer or dispatch one request line (trimmed, non-empty), on the
    /// connection's I/O thread, with a window slot free.  `recv` is
    /// when the line came off the socket.  Answer inline with
    /// [`ConnReply::enqueue`], or take the slot with
    /// [`ConnReply::claim_slot`] and settle later with `enqueue` then
    /// [`ConnReply::release_slot`].
    fn line(this: &Arc<Self>, line: &str, recv: Instant, conn: &Arc<ConnReply>);

    /// The tier's drain flag: once true the loop stops accepting and
    /// parsing, and closes each connection when its replies are out.
    fn draining(&self) -> bool;

    /// Where the loop counts accepts and closes.
    fn counters(&self) -> &ConnCounters;

    /// The health card of one I/O thread; called once per thread, in
    /// thread order, when the loop starts.
    fn loop_stats(&self) -> Arc<IoLoopStats> {
        Arc::default()
    }

    /// The reply sent before closing a connection whose request line
    /// is not UTF-8; `None` closes without one.
    fn not_utf8(&self) -> Option<String> {
        None
    }

    /// Called on thread 0 at each gauge refresh, at most once per
    /// poll interval.
    fn sample(&self) {}

    /// One line (lossily decoded, trimmed, non-empty) from the
    /// outbound connection adopted as `peer`, on its I/O thread.
    fn outbound_line(_this: &Arc<Self>, _peer: usize, _line: &str) {}

    /// The outbound connection adopted as `peer` closed: no line
    /// follows, and every later `enqueue` on its write half returns
    /// false.  Called exactly once per adopted connection, on its I/O
    /// thread.
    fn outbound_closed(_this: &Arc<Self>, _peer: usize) {}

    /// The Prometheus text exposition a `/metrics` scrape gets (see
    /// [`LoopConfig::metrics`]), rendered on I/O thread 0.
    fn metrics_text(_this: &Arc<Self>) -> String {
        String::new()
    }
}

/// Work an I/O thread runs at a due instant, scheduled with
/// [`ConnReply::schedule`] on one of its connections.  One that is
/// [`Answerable::answered`] when it comes due is dropped unfired, and
/// a sweep of its thread's heap may drop it earlier.
pub trait Timer: Answerable + Send {
    /// Run, on the connection's I/O thread, at or after the due
    /// instant.
    fn fire(self: Box<Self>);
}

impl Answerable for Box<dyn Timer> {
    fn answered(&self) -> bool {
        (**self).answered()
    }
}

/// How a tier sizes its loop.
pub struct LoopConfig {
    /// Thread name prefix; thread `i` is named `{name}-{i}`.
    pub name: &'static str,
    /// I/O threads; thread 0 owns the listener.
    pub threads: usize,
    /// Requests in flight per connection before its reads stop.
    pub window: usize,
    /// Close a connection after this long without a completed request
    /// line, once nothing is in flight on it; `None` keeps idle
    /// connections forever.
    pub idle_timeout: Option<Duration>,
    /// A second listener for thread 0: each connection on it is one
    /// `/metrics` scrape, answered with [`LineHandler::metrics_text`].
    pub metrics: Option<TcpListener>,
}

/// Commands injected into an I/O thread from outside its loop.
enum IoCmd {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// An outbound connection, its peer tag, and the write half its
    /// adopter already holds.
    Adopt(TcpStream, usize, Arc<ConnReply>),
    /// Service the connection registered under this token: flush its
    /// outbox, resume parsing if its window freed, retire it if done.
    Wake(u64),
    /// A timer scheduled from another thread on one of this thread's
    /// connections.
    Schedule(Instant, Box<dyn Timer>),
}

/// The cross-thread face of one I/O thread: an injector the accept
/// path and other threads' reply completions push commands onto, plus
/// the waker that pulls the thread out of its poll sleep.
struct IoHandle {
    injector: Mutex<Vec<IoCmd>>,
    waker: Waker,
}

impl IoHandle {
    fn new() -> std::io::Result<IoHandle> {
        Ok(IoHandle {
            injector: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    fn push(&self, cmd: IoCmd) {
        self.commands().push(cmd);
        self.waker.wake();
    }

    fn commands(&self) -> MutexGuard<'_, Vec<IoCmd>> {
        self.injector.lock().expect("injector holders never panic")
    }
}

/// One connection's bounded reply queue.
struct Outbox {
    queue: VecDeque<Vec<u8>>,
    /// Queued-but-unwritten bytes (kept in sync with `queue`).
    bytes: usize,
    /// The I/O thread retired the connection; late replies are
    /// dropped.
    closed: bool,
    /// The bounded queue overflowed; the I/O thread must close.
    overflowed: bool,
}

/// The write half of a connection as seen from any thread.  Replies
/// are never written directly: they are enqueued here and the owning
/// I/O thread flushes them, before its next poll when it enqueued
/// them itself, or once woken when another thread did.  Also carries
/// the pipelining window as a plain atomic — nothing ever blocks on a
/// slot.
pub struct ConnReply {
    outbox: Mutex<Outbox>,
    /// Dispatched-and-unanswered requests on this connection.
    inflight: AtomicUsize,
    /// Collapses redundant `Wake` commands between services.
    wake_queued: AtomicBool,
    /// On the owning thread's dirty list since its last service; only
    /// that thread touches it.
    listed: AtomicBool,
    /// The poller token; [`UNREGISTERED`] until an adopted connection
    /// reaches its I/O thread, which stores it with `Release` before it
    /// first services the connection.  `notify` from another thread
    /// loads it with `Acquire` after its `wake_queued` swap, so a wake
    /// queued after that service carries the stored token; the owning
    /// thread reads its own store.
    token: AtomicU64,
    io: Arc<IoHandle>,
}

impl ConnReply {
    fn new(token: u64, io: Arc<IoHandle>) -> ConnReply {
        ConnReply {
            outbox: Mutex::new(Outbox {
                queue: VecDeque::new(),
                bytes: 0,
                closed: false,
                overflowed: false,
            }),
            inflight: AtomicUsize::new(0),
            wake_queued: AtomicBool::new(false),
            listed: AtomicBool::new(false),
            token: AtomicU64::new(token),
            io,
        }
    }

    fn outbox(&self) -> MutexGuard<'_, Outbox> {
        self.outbox.lock().expect("outbox holders never panic")
    }

    /// A handle bound to no loop: replies queue up and are never
    /// written.  For tests that build settling records by hand.
    pub fn detached() -> std::io::Result<Arc<ConnReply>> {
        Ok(Arc::new(ConnReply::new(
            TOKEN_BASE,
            Arc::new(IoHandle::new()?),
        )))
    }

    /// Queue one reply line (newline appended) for the owning I/O
    /// thread to flush.  Returns false when the connection is gone or
    /// its queue overflowed — the reply is dropped either way.
    pub fn enqueue(&self, line: &str) -> bool {
        {
            let mut ob = self.outbox();
            if ob.closed || ob.overflowed {
                return false;
            }
            if ob.bytes + line.len() + 1 > OUTBOX_MAX_BYTES {
                ob.overflowed = true;
                drop(ob);
                self.notify();
                return false;
            }
            let mut buf = Vec::with_capacity(line.len() + 1);
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            ob.bytes += buf.len();
            ob.queue.push_back(buf);
        }
        self.notify();
        true
    }

    /// Take the window slot for a request settled later.  Only the
    /// loop's handler calls this, and the loop calls it with a slot
    /// free.
    pub fn claim_slot(&self) {
        self.inflight.fetch_add(1, Ordering::AcqRel);
    }

    /// Release one pipelining-window slot (the request is settled —
    /// always called *after* its reply was enqueued, so the I/O
    /// thread never sees an idle connection with a reply still owed).
    pub fn release_slot(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        self.notify();
    }

    /// Fire `timer` at `due` on this connection's I/O thread: pushed
    /// onto that thread's heap when called on it, else handed over
    /// with a wake.  It fires whether or not the connection is still
    /// open.
    pub fn schedule(&self, due: Instant, timer: Box<dyn Timer>) {
        let here = ON_LOOP.try_with(|on| std::ptr::eq(on.borrow().io, Arc::as_ptr(&self.io)));
        if here == Ok(true) {
            ON_LOOP.with(|on| on.borrow_mut().timers.push(due, timer));
        } else {
            self.io.push(IoCmd::Schedule(due, timer));
        }
    }

    /// Have the owning I/O thread service this connection: listed
    /// for its next pass when called on that thread, else woken.
    fn notify(&self) {
        let owned = ON_LOOP.try_with(|on| {
            let mut on = on.borrow_mut();
            if !std::ptr::eq(on.io, Arc::as_ptr(&self.io)) {
                return false;
            }
            // An unregistered token is listed but services nothing:
            // the registration, queued on the injector, does that.
            if !self.listed.swap(true, Ordering::Relaxed) {
                on.listed.push(self.token.load(Ordering::Relaxed));
            }
            true
        });
        if owned == Ok(true) || self.wake_queued.swap(true, Ordering::AcqRel) {
            return;
        }
        // An unregistered token wakes nothing: the registration itself
        // services the connection.
        self.io
            .push(IoCmd::Wake(self.token.load(Ordering::Acquire)));
    }
}

/// What an I/O thread keeps for itself while it runs.
struct OnLoop {
    /// The running thread's handle (compared, never dereferenced);
    /// null on any other thread.
    io: *const IoHandle,
    /// Tokens of the thread's connections notified on it since it last
    /// serviced them.
    listed: Vec<u64>,
    /// The timers scheduled on the thread's connections.
    timers: DeadlineHeap<Box<dyn Timer>>,
    /// This iteration's in-place turn is unclaimed; set at the top of
    /// each iteration, never on any other thread.
    turn: bool,
}

thread_local! {
    static ON_LOOP: RefCell<OnLoop> = const {
        RefCell::new(OnLoop {
            io: std::ptr::null(),
            listed: Vec::new(),
            timers: DeadlineHeap::new(),
            turn: false,
        })
    };
}

/// Claim the calling I/O thread's one in-place turn of this loop
/// iteration: true for the first claim of an iteration, false for any
/// later one and on any thread that is not a loop thread.  A tier
/// spends it on work it runs where it stands rather than hand over, so
/// one iteration runs at most one such unit before the thread's other
/// lines and connections are served.
pub fn claim_turn() -> bool {
    ON_LOOP
        .try_with(|on| std::mem::take(&mut on.borrow_mut().turn))
        .unwrap_or(false)
}

/// Fire every timer on this thread due by `now`; one answered by
/// then is dropped unfired.  A timer fires with the heap released, so
/// it may schedule more.
fn fire_timers(now: Instant) {
    while let Some(timer) = ON_LOOP.with(|on| on.borrow_mut().timers.pop_due(now)) {
        if !timer.answered() {
            timer.fire();
        }
    }
}

/// Whether every timer on this thread is answered; answered ones are
/// dropped.
fn timers_settled() -> bool {
    ON_LOOP.with(|on| {
        let timers = &mut on.borrow_mut().timers;
        timers.sweep();
        timers.is_empty()
    })
}

/// How long the thread may sleep in its poll: until its earliest
/// timer, rounded up to a whole millisecond so the wake never comes a
/// fraction early, and at most [`POLL_INTERVAL`].
fn poll_timeout_ms(now: Instant) -> i32 {
    let left = ON_LOOP
        .with(|on| on.borrow().timers.next_due())
        .map(|due| due.saturating_duration_since(now));
    let wait = left.map_or(POLL_INTERVAL, |left| left.min(POLL_INTERVAL));
    wait.as_micros().div_ceil(1000) as i32
}

/// A scrape's head deadline: services the connection, which answers
/// it if its head has not ended by then.
struct ScrapeDue(Weak<ConnReply>);

impl Answerable for ScrapeDue {
    fn answered(&self) -> bool {
        self.0.upgrade().is_none_or(|reply| reply.outbox().closed)
    }
}

impl Timer for ScrapeDue {
    fn fire(self: Box<Self>) {
        if let Some(reply) = self.0.upgrade() {
            reply.notify();
        }
    }
}

/// A running connection loop.
pub struct IoLoop {
    handles: Vec<Arc<IoHandle>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    /// Round-robin cursor of [`IoLoop::adopt`].
    next: AtomicUsize,
}

impl IoLoop {
    /// Start `config.threads` I/O threads serving `listener` with
    /// `handler`.
    pub fn spawn<H: LineHandler>(
        listener: TcpListener,
        config: LoopConfig,
        handler: Arc<H>,
    ) -> std::io::Result<IoLoop> {
        // C10K needs the fds to hold the Ks of connections.
        let _ = raise_nofile_limit(NOFILE_TARGET);
        listener.set_nonblocking(true)?;
        let mut metrics = config.metrics;
        if let Some(l) = &metrics {
            l.set_nonblocking(true)?;
        }
        let threads = config.threads.max(1);
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(Arc::new(IoHandle::new()?));
        }
        let mut listener = Some(listener);
        let mut joins = Vec::with_capacity(threads);
        for (me, handle) in handles.iter().enumerate() {
            let io = IoThread {
                stats: handler.loop_stats(),
                handler: Arc::clone(&handler),
                poller: Poller::new()?,
                handle: Arc::clone(handle),
                peers: handles.clone(),
                me,
                next_peer: 0,
                listener: if me == 0 { listener.take() } else { None },
                metrics: if me == 0 { metrics.take() } else { None },
                conns: Vec::new(),
                free: Vec::new(),
                pool: BufferPool::new(64, MAX_LINE_BYTES),
                scratch: vec![0u8; READ_CHUNK],
                window: config.window.max(1),
                idle_timeout: config.idle_timeout,
                draining: false,
            };
            joins.push(
                thread::Builder::new()
                    .name(format!("{}-{me}", config.name))
                    .spawn(move || io.run())?,
            );
        }
        Ok(IoLoop {
            handles,
            joins: Mutex::new(joins),
            next: AtomicUsize::new(0),
        })
    }

    /// Place the connected outbound `stream` on an I/O thread
    /// (round-robin) and return its write half.  The peer's lines go
    /// to [`LineHandler::outbound_line`] with `peer`, then its close
    /// to [`LineHandler::outbound_closed`].  Never blocks: the thread
    /// registers the socket on its next turn, and what is enqueued
    /// before that is flushed then.
    pub fn adopt(&self, stream: TcpStream, peer: usize) -> Arc<ConnReply> {
        let at = self.next.fetch_add(1, Ordering::Relaxed) % self.handles.len();
        let io = &self.handles[at];
        let reply = Arc::new(ConnReply::new(UNREGISTERED, Arc::clone(io)));
        io.push(IoCmd::Adopt(stream, peer, Arc::clone(&reply)));
        reply
    }

    /// Pull every I/O thread out of its poll sleep, so a drain starts
    /// now, not at the next tick.
    pub fn wake(&self) {
        for h in &self.handles {
            h.waker.wake();
        }
    }

    /// Wait for every I/O thread to finish its drain and exit.  Set
    /// the handler's drain flag first, or this blocks until it is set.
    pub fn join(&self) {
        self.wake();
        let joins = std::mem::take(&mut *self.joins.lock().expect("join holders never panic"));
        for h in joins {
            let _ = h.join();
        }
    }
}

/// Poller token of the thread's waker pipe.
const TOKEN_WAKER: u64 = 0;
/// Poller token of the listener (thread 0 only).
const TOKEN_LISTENER: u64 = 1;
/// Poller token of the `/metrics` listener (thread 0 only).
const TOKEN_METRICS: u64 = 2;
/// Connection slab index `i` registers under token `i + TOKEN_BASE`.
const TOKEN_BASE: u64 = 3;
/// The token of an adopted connection not yet registered.
const UNREGISTERED: u64 = u64::MAX;

/// Why a connection is being retired (feeds the close counters).
#[derive(Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// EOF/drain completed, write error, or malformed input.
    Done,
    /// No completed request line for the idle timeout.
    Idle,
    /// The bounded outbound queue overflowed.
    Overflow,
    /// A request line exceeded `MAX_LINE_BYTES`.
    Overlong,
}

/// What a connection is to its I/O thread.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// An accepted client: its lines are requests for the handler.
    Client,
    /// An adopted outbound connection, with its peer tag: its lines
    /// are replies.
    Outbound(usize),
    /// A `/metrics` scrape, its request head due by the instant;
    /// `None` once its response is queued.
    Scrape(Option<Instant>),
}

/// Per-connection state owned by exactly one I/O thread.
struct ConnState {
    stream: TcpStream,
    reply: Arc<ConnReply>,
    reader: LineReader,
    /// Partial-write offset into the outbox's front buffer.
    write_offset: usize,
    /// Currently registered (read, write) interest.
    interest: (bool, bool),
    peer_closed: bool,
    /// When the last complete request line arrived (idle clock).
    last_line: Instant,
    role: Role,
}

/// One readiness-driven I/O thread: a poller, a slab of connection
/// state machines, and (on thread 0) the listeners.  Fresh connections
/// arrive via accept or the injector; replies settled on this thread
/// arrive on its dirty list, and those settled elsewhere as `Wake`
/// commands.  Its timers live in [`ON_LOOP`].
struct IoThread<H> {
    handler: Arc<H>,
    poller: Poller,
    handle: Arc<IoHandle>,
    /// Every I/O thread's handle, for round-robin conn distribution.
    peers: Vec<Arc<IoHandle>>,
    me: usize,
    next_peer: usize,
    listener: Option<TcpListener>,
    /// The `/metrics` listener (thread 0 only, when enabled).
    metrics: Option<TcpListener>,
    conns: Vec<Option<ConnState>>,
    free: Vec<usize>,
    pool: BufferPool,
    scratch: Vec<u8>,
    window: usize,
    idle_timeout: Option<Duration>,
    draining: bool,
    /// Event-loop health counters for this thread.
    stats: Arc<IoLoopStats>,
}

impl<H: LineHandler> IoThread<H> {
    fn run(mut self) {
        ON_LOOP.with(|on| on.borrow_mut().io = Arc::as_ptr(&self.handle));
        if self
            .poller
            .add(self.handle.waker.read_fd(), TOKEN_WAKER, true, false)
            .is_err()
        {
            return;
        }
        for (l, token) in [
            (&self.listener, TOKEN_LISTENER),
            (&self.metrics, TOKEN_METRICS),
        ] {
            if let Some(l) = l {
                if self.poller.add(l.as_raw_fd(), token, true, false).is_err() {
                    return;
                }
            }
        }
        let mut events = Vec::with_capacity(256);
        let mut last_gauge = Instant::now();
        loop {
            ON_LOOP.with(|on| on.borrow_mut().turn = true);
            events.clear();
            let wait_start = Instant::now();
            let _ = self.poller.wait(&mut events, poll_timeout_ms(wait_start));
            let work_start = Instant::now();
            if !self.draining && self.handler.draining() {
                self.begin_drain();
            }
            for ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.drain_injector(),
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_METRICS => self.accept_scrapes(),
                    token => {
                        let idx = (token - TOKEN_BASE) as usize;
                        if ev.readable {
                            self.handle_readable(idx);
                        } else if ev.hangup {
                            if let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                                c.peer_closed = true;
                            }
                        }
                        self.service(idx);
                    }
                }
            }
            fire_timers(work_start);
            self.sweep_idle();
            // Gauges are a sweep over the slab (outbox locks), so
            // refresh at most once per poll interval, not per wake.
            if work_start.duration_since(last_gauge) >= POLL_INTERVAL {
                last_gauge = work_start;
                self.refresh_gauges();
            }
            self.service_listed();
            self.stats.record_iteration(
                work_start.duration_since(wait_start).as_micros() as u64,
                work_start.elapsed().as_micros() as u64,
            );
            if self.draining {
                // Outbound connections carry replies in: they close
                // only once no inbound connection is left anywhere.
                // That empties the slab, so what their close notices
                // list is moot.
                if self.handler.counters().open.load(Ordering::Relaxed) == 0 {
                    for idx in 0..self.conns.len() {
                        if self.conns[idx]
                            .as_ref()
                            .is_some_and(|c| matches!(c.role, Role::Outbound(_)))
                        {
                            self.close(idx, CloseReason::Done);
                        }
                    }
                }
                // A timer still unanswered owes a request of a closed
                // connection its timeout and its run's cancellation.
                if self.conns.iter().all(Option::is_none) && timers_settled() {
                    break;
                }
            }
        }
        // What is still queued reaches no connection of this loop;
        // dropping it here frees what it holds.
        drop(std::mem::take(&mut *self.handle.commands()));
    }

    /// Service every connection notified on this thread since its
    /// last service, and any that servicing lists in turn.
    fn service_listed(&mut self) {
        while let Some(token) = ON_LOOP.with(|on| on.borrow_mut().listed.pop()) {
            let idx = token.wrapping_sub(TOKEN_BASE) as usize;
            // One serviced since it was listed has nothing left to do.
            if self
                .conns
                .get(idx)
                .and_then(Option::as_ref)
                .is_some_and(|c| c.reply.listed.load(Ordering::Relaxed))
            {
                self.service(idx);
            }
        }
    }

    /// Publish per-loop gauges: live connections and total queued
    /// outbound bytes.  Thread 0 also lets the tier sample its own.
    fn refresh_gauges(&self) {
        let mut connections = 0u64;
        let mut outbox_bytes = 0u64;
        for conn in self.conns.iter().flatten() {
            connections += 1;
            outbox_bytes += conn.reply.outbox().bytes as u64;
        }
        self.stats.set_gauges(connections, outbox_bytes);
        if self.me == 0 {
            self.handler.sample();
        }
    }

    /// Shutdown observed: drop the client listener, stop parsing
    /// requests, and keep each client connection only until its
    /// in-flight replies flush.  Scrapes go on.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(l) = self.listener.take() {
            let _ = self.poller.delete(l.as_raw_fd());
        }
        for idx in 0..self.conns.len() {
            if let Some(conn) = self.conns[idx].as_mut() {
                // Unparsed carried bytes are requests we will never
                // run — drop them.  An outbound carry is a reply.
                if conn.role == Role::Client {
                    conn.reader = LineReader::new(MAX_LINE_BYTES);
                }
            }
            self.service(idx);
        }
    }

    fn drain_injector(&mut self) {
        self.handle.waker.drain();
        let cmds: Vec<IoCmd> = std::mem::take(&mut *self.handle.commands());
        for cmd in cmds {
            match cmd {
                // A conn raced in after the drain began: drop it.
                IoCmd::Conn(_) if self.draining => {}
                IoCmd::Conn(stream) => self.register(stream, Role::Client, None),
                IoCmd::Adopt(stream, peer, reply) => {
                    self.register(stream, Role::Outbound(peer), Some(reply))
                }
                IoCmd::Wake(token) => {
                    if token >= TOKEN_BASE {
                        self.service((token - TOKEN_BASE) as usize);
                    }
                }
                IoCmd::Schedule(due, timer) => {
                    ON_LOOP.with(|on| on.borrow_mut().timers.push(due, timer));
                }
            }
        }
    }

    /// Accept until the listener would block, distributing conns
    /// round-robin across the pool (thread 0 adopts its own share).
    fn accept_ready(&mut self) {
        for stream in accept_all(self.listener.as_ref()) {
            self.handler
                .counters()
                .accepted
                .fetch_add(1, Ordering::Relaxed);
            let target = self.next_peer % self.peers.len().max(1);
            self.next_peer = self.next_peer.wrapping_add(1);
            if target == self.me {
                self.register(stream, Role::Client, None);
            } else {
                self.peers[target].push(IoCmd::Conn(stream));
            }
        }
    }

    /// Accept every pending scrape; each stays on this thread, its
    /// head due by the scrape deadline.
    fn accept_scrapes(&mut self) {
        for stream in accept_all(self.metrics.as_ref()) {
            let due = Instant::now() + SCRAPE_HEAD_TIMEOUT;
            self.register(stream, Role::Scrape(Some(due)), None);
        }
    }

    /// Adopt one connection into the slab and the poller: an accepted
    /// client or scrape, or an outbound one with the write half its
    /// adopter holds.  An outbound one that cannot be registered gets
    /// its close notice at once.
    fn register(&mut self, stream: TcpStream, role: Role, adopted: Option<Arc<ConnReply>>) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = idx as u64 + TOKEN_BASE;
        if stream.set_nonblocking(true).is_err()
            || self
                .poller
                .add(stream.as_raw_fd(), token, true, false)
                .is_err()
        {
            self.free.push(idx);
            if let (Role::Outbound(peer), Some(reply)) = (role, adopted) {
                reply.outbox().closed = true;
                H::outbound_closed(&self.handler, peer);
            }
            return;
        }
        // Replies are small writes the client may block on; Nagle
        // would hold them for the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let reply = match adopted {
            Some(reply) => {
                reply.token.store(token, Ordering::Release);
                reply
            }
            None => Arc::new(ConnReply::new(token, Arc::clone(&self.handle))),
        };
        let mut max_line = MAX_LINE_BYTES;
        match role {
            Role::Client => {
                self.handler.counters().open.fetch_add(1, Ordering::Relaxed);
            }
            Role::Scrape(due) => {
                max_line = SCRAPE_HEAD_MAX;
                if let Some(due) = due {
                    reply.schedule(due, Box::new(ScrapeDue(Arc::downgrade(&reply))));
                }
            }
            Role::Outbound(_) => {}
        }
        self.conns[idx] = Some(ConnState {
            stream,
            reply,
            reader: LineReader::new(max_line),
            write_offset: 0,
            interest: (true, false),
            peer_closed: false,
            last_line: Instant::now(),
            role,
        });
        if let Role::Outbound(_) = role {
            // Flush what was sent before the connection got here.
            self.service(idx);
        }
    }

    /// Pull bytes off a readable connection and run them through its
    /// line state machine, respecting the window and outbox levels.
    fn handle_readable(&mut self, idx: usize) {
        let mut close = None;
        {
            let Self {
                conns,
                scratch,
                pool,
                handler,
                window,
                draining,
                ..
            } = self;
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            // A peer's replies and a scrape's head are read to the
            // end, drain or not.
            let role = conn.role;
            if *draining && role == Role::Client {
                return;
            }
            loop {
                // Flow control *before* pulling more bytes: a full
                // window or a backed-up outbox leaves them in the
                // kernel buffer, which is TCP backpressure.
                if role == Role::Client {
                    if conn.reply.inflight.load(Ordering::Acquire) >= *window {
                        break;
                    }
                    if conn.reply.outbox().bytes >= OUTBOX_HIGH_WATER {
                        break;
                    }
                }
                let n = match conn.stream.read(scratch) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.peer_closed = true;
                        break;
                    }
                };
                let fed = match role {
                    Role::Client => feed_conn(handler, conn, &scratch[..n], pool, *window),
                    Role::Outbound(peer) => feed_outbound(handler, conn, peer, &scratch[..n], pool),
                    Role::Scrape(Some(_)) => {
                        if head_ended(conn, &scratch[..n], pool) {
                            answer_scrape(handler, conn);
                            break;
                        }
                        None
                    }
                    // Bytes past an answered head are dropped.
                    Role::Scrape(None) => break,
                };
                if let Some(reason) = fed {
                    close = Some(reason);
                    break;
                }
                // A short read took all there was; the level-triggered
                // poller reports whatever arrives next, EOF included.
                if n < scratch.len() {
                    break;
                }
            }
        }
        if let Some(reason) = close {
            self.close(idx, reason);
        }
    }

    /// Flush the connection's outbox, resume deferred parsing when its
    /// window or outbox freed up, recompute poller interest, and
    /// retire the connection once it is settled.
    fn service(&mut self, idx: usize) {
        let mut close = None;
        let mut settled = (false, false); // (outbox empty, interest write)
        {
            let Self {
                conns,
                pool,
                handler,
                window,
                draining,
                ..
            } = self;
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            // Reset the wake collapse *before* looking at state, so a
            // completion landing mid-service queues a fresh wake.
            conn.reply.wake_queued.store(false, Ordering::Release);
            conn.reply.listed.store(false, Ordering::Relaxed);
            // A scrape whose head broke off or ran out of time is
            // answered now.
            if let Role::Scrape(Some(due)) = conn.role {
                if conn.peer_closed || Instant::now() >= due {
                    answer_scrape(handler, conn);
                }
            }
            if flush_outbox(conn).is_err() {
                close = Some(CloseReason::Done);
            }
            // Parsing may have been deferred on a full window or a
            // high outbox; both may have cleared now.  Only a client
            // defers.
            let role = conn.role;
            if close.is_none() && role == Role::Client && !*draining && conn.reader.has_carry() {
                if let Some(reason) = feed_conn(handler, conn, &[], pool, *window) {
                    close = Some(reason);
                }
            }
            if close.is_none() && flush_outbox(conn).is_err() {
                close = Some(CloseReason::Done);
            }
            if close.is_none() {
                let ob = conn.reply.outbox();
                if ob.overflowed {
                    close = Some(CloseReason::Overflow);
                } else {
                    let inflight = conn.reply.inflight.load(Ordering::Acquire);
                    let outbox_empty = ob.queue.is_empty();
                    let (done, read_i) = match role {
                        // A peer's EOF closes its outbound connection
                        // at once: nothing it owes can arrive any more.
                        Role::Outbound(_) => (conn.peer_closed, true),
                        // A scrape reads its head, then closes once
                        // its response is out.
                        Role::Scrape(due) => (due.is_none() && outbox_empty, due.is_some()),
                        Role::Client => (
                            (conn.peer_closed || *draining) && inflight == 0 && outbox_empty,
                            !*draining
                                && !conn.peer_closed
                                && inflight < *window
                                && ob.bytes < OUTBOX_HIGH_WATER,
                        ),
                    };
                    if done {
                        close = Some(CloseReason::Done);
                    } else {
                        settled = (read_i, !outbox_empty);
                    }
                }
            }
            if close.is_none() && conn.interest != settled {
                let token = idx as u64 + TOKEN_BASE;
                // A modify failure strands the conn silently; close it.
                match self
                    .poller
                    .modify(conn.stream.as_raw_fd(), token, settled.0, settled.1)
                {
                    Ok(()) => conn.interest = settled,
                    Err(_) => close = Some(CloseReason::Done),
                }
            }
        }
        if let Some(reason) = close {
            self.close(idx, reason);
        }
    }

    /// Close connections that idled past the idle timeout with
    /// nothing in flight (both slowloris shapes land here or in the
    /// outbox cap).
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let expired = match &self.conns[idx] {
                Some(c) => {
                    c.role == Role::Client
                        && c.reply.inflight.load(Ordering::Acquire) == 0
                        && now.duration_since(c.last_line) >= timeout
                }
                None => false,
            };
            if expired {
                self.close(idx, CloseReason::Idle);
            }
        }
    }

    /// Retire one connection: deregister, drop, recycle the slot.  An
    /// outbound one then gets its close notice.
    fn close(&mut self, idx: usize, reason: CloseReason) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // One best-effort flush so a final error reply (over-long
        // line, ...) reaches a live client; whatever the socket refuses
        // is dropped with the connection.  Requests still queued for a
        // peer are its adopter's to re-send.
        let role = conn.role;
        if !matches!(role, Role::Outbound(_)) {
            let _ = flush_outbox(&mut conn);
        }
        {
            // Late replies from still-running work become no-ops.
            let mut ob = conn.reply.outbox();
            ob.closed = true;
            ob.queue.clear();
            ob.bytes = 0;
        }
        self.free.push(idx);
        match role {
            Role::Client => {}
            Role::Outbound(peer) => {
                drop(conn);
                H::outbound_closed(&self.handler, peer);
                return;
            }
            Role::Scrape(_) => return,
        }
        let c = self.handler.counters();
        c.open.fetch_sub(1, Ordering::Relaxed);
        match reason {
            CloseReason::Idle => c.idle_closed.fetch_add(1, Ordering::Relaxed),
            CloseReason::Overflow => c.overflow_closed.fetch_add(1, Ordering::Relaxed),
            CloseReason::Overlong => c.overlong_closed.fetch_add(1, Ordering::Relaxed),
            CloseReason::Done => 0,
        };
    }
}

/// Write as much of the outbox as the socket accepts (vectored); an
/// `Err` means the peer is unreachable and the connection must close.
fn flush_outbox(conn: &mut ConnState) -> std::io::Result<()> {
    let mut ob = conn.reply.outbox();
    if ob.queue.is_empty() {
        return Ok(());
    }
    match drain_outbox(&conn.stream, &mut ob.queue, &mut conn.write_offset) {
        Ok(true) => {
            ob.bytes = 0;
            Ok(())
        }
        Ok(false) => {
            // Partial: recompute the level from what survived.
            ob.bytes = ob.queue.iter().map(Vec::len).sum::<usize>() - conn.write_offset;
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// Accept from `listener` until it would block.
fn accept_all(listener: Option<&TcpListener>) -> Vec<TcpStream> {
    let mut accepted = Vec::new();
    if let Some(listener) = listener {
        loop {
            match listener.accept() {
                Ok((stream, _)) => accepted.push(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
    accepted
}

/// Scan bytes of a scrape's request head; true once the head has
/// ended: a blank line, or a line over [`SCRAPE_HEAD_MAX`].
fn head_ended(conn: &mut ConnState, data: &[u8], pool: &mut BufferPool) -> bool {
    let mut blank = false;
    let fed = conn.reader.feed(data, pool, |line| {
        blank = line.is_empty();
        if blank {
            LineAction::Stop
        } else {
            LineAction::Continue
        }
    });
    conn.reader.release(pool);
    blank || fed.is_err()
}

/// Queue the tier's exposition as the scrape's one HTTP response; the
/// connection stops reading and closes once it is written.
fn answer_scrape<H: LineHandler>(handler: &Arc<H>, conn: &mut ConnState) {
    conn.role = Role::Scrape(None);
    let body = H::metrics_text(handler);
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut ob = conn.reply.outbox();
    ob.bytes += head.len() + body.len();
    ob.queue.push_back(head.into_bytes());
    ob.queue.push_back(body.into_bytes());
}

/// Hand each complete line from an outbound connection's peer to the
/// tier.  The lines are replies, not requests: no window, no idle
/// clock, and nothing is ever written back; only an over-long line
/// closes the connection.
fn feed_outbound<H: LineHandler>(
    handler: &Arc<H>,
    conn: &mut ConnState,
    peer: usize,
    data: &[u8],
    pool: &mut BufferPool,
) -> Option<CloseReason> {
    let fed = conn.reader.feed(data, pool, |raw| {
        let text = String::from_utf8_lossy(raw);
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            H::outbound_line(handler, peer, trimmed);
        }
        LineAction::Continue
    });
    conn.reader.release(pool);
    fed.err().map(|LineTooLong| CloseReason::Done)
}

/// Feed bytes (or `&[]` to resume the carry) through the connection's
/// line state machine, handing each line to the tier's handler.
/// Returns a close reason when the connection must die.
fn feed_conn<H: LineHandler>(
    handler: &Arc<H>,
    conn: &mut ConnState,
    data: &[u8],
    pool: &mut BufferPool,
    window: usize,
) -> Option<CloseReason> {
    let ConnState {
        reader,
        reply,
        last_line,
        ..
    } = conn;
    let mut bad = false;
    let fed = reader.feed(data, pool, |raw| {
        // Flow control: a line past the pipelining window or over a
        // backed-up outbox is deferred verbatim, not consumed.
        if reply.inflight.load(Ordering::Acquire) >= window {
            return LineAction::Defer;
        }
        {
            let ob = reply.outbox();
            if ob.overflowed || ob.closed {
                return LineAction::Stop;
            }
            if ob.bytes >= OUTBOX_HIGH_WATER {
                return LineAction::Defer;
            }
        }
        let Ok(text) = std::str::from_utf8(raw) else {
            bad = true;
            return LineAction::Stop;
        };
        let recv = Instant::now();
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return LineAction::Continue;
        }
        *last_line = recv;
        H::line(handler, trimmed, recv, reply);
        LineAction::Continue
    });
    reader.release(pool);
    match fed {
        Ok(_) if bad => {
            if let Some(line) = handler.not_utf8() {
                reply.enqueue(&line);
            }
            Some(CloseReason::Done)
        }
        Ok(_) => None,
        Err(LineTooLong) => {
            // Best effort: tell the client why before the close
            // flushes and drops the connection.
            reply.enqueue(&error_line(
                &None,
                ErrorCode::BadRequest,
                "request line too long",
            ));
            Some(CloseReason::Overlong)
        }
    }
}

#[cfg(test)]
impl ConnReply {
    /// The reply lines still queued.
    pub(crate) fn queued(&self) -> Vec<String> {
        let ob = self.outbox();
        let lines = ob.queue.iter();
        lines
            .map(|b| String::from_utf8_lossy(b).into_owned())
            .collect()
    }

    /// Window slots currently claimed.
    pub(crate) fn in_flight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }
}

/// Timers on the calling thread's heap.
#[cfg(test)]
fn timers_here() -> usize {
    ON_LOOP.with(|on| on.borrow().timers.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::SocketAddr;

    /// A tier that forwards: each request line sends `payload` to the
    /// adopted peer, if any, and is answered `ok` inline.  Six verbs
    /// differ: `hold` keeps its window slot until it is settled,
    /// `settle` settles the held request from the handler (then is
    /// answered `ok`), `echo X` is answered `X`, `after MS` schedules a
    /// [`Probe`] due in MS ms on its connection (answered `ok`, then
    /// `fired`), `answered N` schedules N answered ones due in 20 ms
    /// and is answered with the length of its thread's heap, and
    /// `claims N` claims the turn N times and is answered with each
    /// result.
    #[derive(Default)]
    struct Forwarder {
        counters: ConnCounters,
        draining: AtomicBool,
        payload: String,
        upstream: Mutex<Option<Arc<ConnReply>>>,
        held: Mutex<Option<Arc<ConnReply>>>,
        lines: Mutex<Vec<(usize, String)>>,
        closed: AtomicUsize,
        stats: Arc<IoLoopStats>,
        fired: Mutex<Vec<Fired>>,
    }

    /// What a [`Probe`] saw when it fired.
    struct Fired {
        thread: Option<String>,
        /// It fired before its due instant.
        early: bool,
        /// Loop iterations completed between its scheduling and its
        /// firing.
        iterations: u64,
    }

    /// A timer that logs a [`Fired`] and answers `fired` on its
    /// connection.
    struct Probe {
        handler: Arc<Forwarder>,
        conn: Arc<ConnReply>,
        due: Instant,
        scheduled_at: u64,
        answered: bool,
    }

    impl Probe {
        fn new(handler: &Arc<Forwarder>, conn: &Arc<ConnReply>, due: Instant) -> Box<Probe> {
            Box::new(Probe {
                handler: Arc::clone(handler),
                conn: Arc::clone(conn),
                due,
                scheduled_at: handler.stats.iterations.load(Ordering::Relaxed),
                answered: false,
            })
        }
    }

    impl Answerable for Probe {
        fn answered(&self) -> bool {
            self.answered
        }
    }

    impl Timer for Probe {
        fn fire(self: Box<Self>) {
            let iterations = self.handler.stats.iterations.load(Ordering::Relaxed);
            self.handler.fired.lock().unwrap().push(Fired {
                thread: thread::current().name().map(str::to_string),
                early: Instant::now() < self.due,
                iterations: iterations - self.scheduled_at,
            });
            self.conn.enqueue("fired");
        }
    }

    impl LineHandler for Forwarder {
        fn line(this: &Arc<Self>, line: &str, _recv: Instant, conn: &Arc<ConnReply>) {
            if let Some(ms) = line.strip_prefix("after ") {
                let due = Instant::now() + Duration::from_millis(ms.parse().unwrap());
                conn.schedule(due, Probe::new(this, conn, due));
                conn.enqueue("ok");
                return;
            }
            if let Some(n) = line.strip_prefix("answered ") {
                let due = Instant::now() + Duration::from_millis(20);
                for _ in 0..n.parse().unwrap() {
                    let mut probe = Probe::new(this, conn, due);
                    probe.answered = true;
                    conn.schedule(due, probe);
                }
                conn.enqueue(&timers_here().to_string());
                return;
            }
            if line == "hold" {
                conn.claim_slot();
                *this.held.lock().unwrap() = Some(Arc::clone(conn));
                return;
            }
            if line == "settle" {
                if let Some(held) = this.held.lock().unwrap().take() {
                    held.enqueue("settled");
                    held.release_slot();
                }
                conn.enqueue("ok");
                return;
            }
            if let Some(text) = line.strip_prefix("echo ") {
                conn.enqueue(text);
                return;
            }
            if let Some(n) = line.strip_prefix("claims ") {
                let claims: Vec<String> = (0..n.parse().unwrap())
                    .map(|_| claim_turn().to_string())
                    .collect();
                conn.enqueue(&claims.join(" "));
                return;
            }
            if let Some(up) = this.upstream.lock().unwrap().as_ref() {
                up.enqueue(&this.payload);
            }
            conn.enqueue("ok");
        }

        fn draining(&self) -> bool {
            self.draining.load(Ordering::SeqCst)
        }

        fn counters(&self) -> &ConnCounters {
            &self.counters
        }

        fn loop_stats(&self) -> Arc<IoLoopStats> {
            Arc::clone(&self.stats)
        }

        fn outbound_line(this: &Arc<Self>, peer: usize, line: &str) {
            this.lines.lock().unwrap().push((peer, line.to_string()));
        }

        fn outbound_closed(this: &Arc<Self>, _peer: usize) {
            this.closed.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A one-thread loop whose thread is `{name}-0`, so every send is
    /// made on the thread that owns the outbound connection too.
    fn start(handler: &Arc<Forwarder>, name: &'static str) -> (IoLoop, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = LoopConfig {
            name,
            threads: 1,
            window: 4,
            idle_timeout: None,
            metrics: None,
        };
        let io = IoLoop::spawn(listener, config, Arc::clone(handler)).unwrap();
        (io, addr)
    }

    /// A connected pair: the end to adopt, and the peer's end.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (theirs, _) = listener.accept().unwrap();
        (ours, theirs)
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < give_up, "no {what} within 10 s");
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// This process's thread whose name is `comm`, as a
    /// `/proc/self/task` entry.
    #[cfg(target_os = "linux")]
    fn task_named(comm: &str) -> std::path::PathBuf {
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            for task in std::fs::read_dir("/proc/self/task").unwrap() {
                let path = task.unwrap().path();
                let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
                if name.trim_end() == comm {
                    return path;
                }
            }
            assert!(Instant::now() < give_up, "no thread {comm} within 10 s");
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// The read and write syscalls (`syscr`, `syscw`) a thread has
    /// made: the waker pipe's `read` and `write` and each `writev`
    /// count; socket `recv` and `send` do not.
    #[cfg(target_os = "linux")]
    fn syscalls(task: &std::path::Path) -> (u64, u64) {
        let io = std::fs::read_to_string(task.join("io")).unwrap();
        let field = |name: &str| -> u64 {
            let line = io.lines().find(|l| l.starts_with(name)).unwrap();
            line[name.len()..].trim().parse().unwrap()
        };
        (field("syscr:"), field("syscw:"))
    }

    /// A client of `addr` with a 5 s read timeout: its reader and
    /// writer halves.
    fn client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    /// Send `line` and return the one reply line.
    fn call(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
        writeln!(writer, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_inline_reply_costs_one_writev_and_no_waker_read() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "inline-io");
        let task = task_named("inline-io-0");
        let (mut reader, mut writer) = client(addr);
        assert_eq!(call(&mut reader, &mut writer, "echo warm"), "warm\n");
        let (r0, w0) = syscalls(&task);
        for i in 0..200 {
            assert_eq!(
                call(&mut reader, &mut writer, &format!("echo {i}")),
                format!("{i}\n")
            );
        }
        let (r1, w1) = syscalls(&task);
        assert_eq!(r1 - r0, 0, "an inline reply read the waker");
        assert!(w1 - w0 <= 200, "{} writes for 200 inline replies", w1 - w0);
        drop((reader, writer));
        handler.draining.store(true, Ordering::SeqCst);
        io.join();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_send_on_the_threads_own_outbound_connection_needs_no_wake() {
        let handler = Arc::new(Forwarder {
            payload: "p".into(),
            ..Forwarder::default()
        });
        let (io, addr) = start(&handler, "send-io");
        let task = task_named("send-io-0");
        let (ours, theirs) = socket_pair();
        theirs
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        *handler.upstream.lock().unwrap() = Some(io.adopt(ours, 0));
        let mut peer = BufReader::new(theirs);
        let (mut reader, mut writer) = client(addr);
        // The first send finds the connection registered and flushed.
        assert_eq!(call(&mut reader, &mut writer, "warm"), "ok\n");
        let mut sent = String::new();
        peer.read_line(&mut sent).unwrap();
        assert_eq!(sent, "p\n");
        let (r0, w0) = syscalls(&task);
        for _ in 0..200 {
            assert_eq!(call(&mut reader, &mut writer, "req"), "ok\n");
        }
        let (r1, w1) = syscalls(&task);
        assert_eq!(r1 - r0, 0, "a same-thread send read the waker");
        assert!(w1 - w0 <= 400, "{} writes for 200 lines", w1 - w0);
        for _ in 0..200 {
            sent.clear();
            peer.read_line(&mut sent).unwrap();
            assert_eq!(sent, "p\n");
        }
        drop((reader, writer));
        handler.draining.store(true, Ordering::SeqCst);
        io.join();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_handler_settles_another_connection_of_its_thread_without_a_wake() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "settle-io");
        let task = task_named("settle-io-0");
        let (mut held_reader, mut held_writer) = client(addr);
        held_reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        writeln!(held_writer, "hold").unwrap();
        wait_for("held request", || handler.held.lock().unwrap().is_some());
        let (mut reader, mut writer) = client(addr);
        assert_eq!(call(&mut reader, &mut writer, "echo warm"), "warm\n");
        let (r0, _) = syscalls(&task);
        assert_eq!(call(&mut reader, &mut writer, "settle"), "ok\n");
        let mut line = String::new();
        held_reader
            .read_line(&mut line)
            .expect("the held client's reply within 1 s");
        assert_eq!(line, "settled\n");
        let (r1, _) = syscalls(&task);
        assert_eq!(r1 - r0, 0, "settling on the thread read the waker");
        drop((held_reader, held_writer, reader, writer));
        handler.draining.store(true, Ordering::SeqCst);
        io.join();
    }

    /// Read reply lines until `n` of them are `fired`.
    fn await_fired(reader: &mut BufReader<TcpStream>, n: usize) {
        let mut seen = 0;
        while seen < n {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            seen += usize::from(line == "fired\n");
        }
    }

    /// Stop a loop whose clients are all gone.
    fn stop(handler: &Forwarder, io: IoLoop) {
        handler.draining.store(true, Ordering::SeqCst);
        io.join();
    }

    #[test]
    fn answered_timers_leave_their_threads_heap_bounded_and_never_fire() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "sweep-io");
        let (mut reader, mut writer) = client(addr);
        let len: usize = call(&mut reader, &mut writer, "answered 10000")
            .trim()
            .parse()
            .unwrap();
        assert!(
            len <= 2 * crate::deadline::SWEEP_FLOOR,
            "10k answered timers left {len} heap entries"
        );
        // All were due 20 ms in: those the sweep kept popped unfired.
        thread::sleep(Duration::from_millis(100));
        assert_eq!(call(&mut reader, &mut writer, "answered 0"), "0\n");
        assert!(
            handler.fired.lock().unwrap().is_empty(),
            "an answered timer fired"
        );
        drop((reader, writer));
        stop(&handler, io);
    }

    #[test]
    fn no_timer_fires_before_its_due_instant() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "due-io");
        let (mut reader, mut writer) = client(addr);
        // Pipelined: a timer due at once may fire before the next
        // line is read.
        writer
            .write_all(b"after 29\nafter 1\nafter 0\nafter 12\nafter 5\nafter 12\n")
            .unwrap();
        await_fired(&mut reader, 6);
        let fired = handler.fired.lock().unwrap();
        assert_eq!(fired.len(), 6);
        assert!(fired.iter().all(|f| !f.early), "a timer fired early");
        drop(fired);
        drop((reader, writer));
        stop(&handler, io);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_timer_scheduled_on_its_thread_fires_without_a_wake() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "fire-io");
        let task = task_named("fire-io-0");
        let (mut reader, mut writer) = client(addr);
        assert_eq!(call(&mut reader, &mut writer, "echo warm"), "warm\n");
        let (r0, _) = syscalls(&task);
        assert_eq!(call(&mut reader, &mut writer, "after 20"), "ok\n");
        await_fired(&mut reader, 1);
        let (r1, _) = syscalls(&task);
        assert_eq!(r1 - r0, 0, "a timer on its own thread read the waker");
        drop((reader, writer));
        stop(&handler, io);
    }

    #[test]
    fn a_timer_scheduled_from_another_thread_fires_on_the_connections() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "remote-io");
        let (mut reader, mut writer) = client(addr);
        writeln!(writer, "hold").unwrap();
        wait_for("held request", || handler.held.lock().unwrap().is_some());
        let held = handler.held.lock().unwrap().take().unwrap();
        let due = Instant::now() + Duration::from_millis(10);
        held.schedule(due, Probe::new(&handler, &held, due));
        await_fired(&mut reader, 1);
        {
            let fired = handler.fired.lock().unwrap();
            assert_eq!(fired[0].thread.as_deref(), Some("remote-io-0"));
            assert!(!fired[0].early, "it fired early");
        }
        held.release_slot();
        drop((reader, writer));
        stop(&handler, io);
    }

    #[test]
    fn each_iteration_grants_one_turn_and_no_other_thread_gets_one() {
        assert!(!claim_turn(), "a thread off the loop got a turn");
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "turn-io");
        let (mut reader, mut writer) = client(addr);
        assert_eq!(
            call(&mut reader, &mut writer, "claims 3"),
            "true false false\n"
        );
        // A later line is read in a later iteration, with a fresh turn.
        assert_eq!(call(&mut reader, &mut writer, "claims 1"), "true\n");
        // Two lines in one read share their iteration's turn.
        writer.write_all(b"claims 1\nclaims 1\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "true\n");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "false\n");
        drop((reader, writer));
        stop(&handler, io);
        assert!(!claim_turn(), "a thread off the loop got a turn");
    }

    #[test]
    fn an_idle_thread_sleeps_until_its_timer_without_spinning() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "idle-io");
        let (mut reader, mut writer) = client(addr);
        assert_eq!(call(&mut reader, &mut writer, "after 30"), "ok\n");
        await_fired(&mut reader, 1);
        let iterations = handler.fired.lock().unwrap()[0].iterations;
        assert!(
            iterations <= 3,
            "{iterations} loop iterations for one 30 ms timer"
        );
        drop((reader, writer));
        stop(&handler, io);
    }

    #[test]
    fn a_draining_thread_fires_its_timers_before_it_exits() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "drain-io");
        let (mut reader, mut writer) = client(addr);
        assert_eq!(call(&mut reader, &mut writer, "after 100"), "ok\n");
        // Its connection closes at once; its timer is still owed.
        drop((reader, writer));
        stop(&handler, io);
        assert_eq!(
            handler.fired.lock().unwrap().len(),
            1,
            "the drain dropped a timer"
        );
    }

    #[test]
    fn pipelined_lines_over_four_read_chunks_all_get_replies_in_order() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "test-io");
        let (mut reader, mut writer) = client(addr);
        // 4096 lines of 16 bytes: one write of 4 × READ_CHUNK.
        let lines = 4 * READ_CHUNK / 16;
        let mut burst = String::new();
        for i in 0..lines {
            burst.push_str(&format!("echo {i:010}\n"));
        }
        assert_eq!(burst.len(), 4 * READ_CHUNK);
        let sender = thread::spawn(move || writer.write_all(burst.as_bytes()).map(|_| writer));
        let mut line = String::new();
        for i in 0..lines {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, format!("{i:010}\n"));
        }
        drop((reader, sender.join().unwrap().unwrap()));
        handler.draining.store(true, Ordering::SeqCst);
        io.join();
    }

    #[test]
    fn a_last_line_then_a_half_close_gets_its_reply_then_the_close() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "test-io");
        let (mut reader, mut writer) = client(addr);
        writer.write_all(b"echo last\n").unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "last\n", "the reply, then EOF");
        wait_for("the close", || {
            handler.counters.open.load(Ordering::Relaxed) == 0
        });
        handler.draining.store(true, Ordering::SeqCst);
        io.join();
    }

    #[test]
    fn an_outbound_peer_that_replies_and_closes_delivers_the_line_then_one_notice() {
        let handler = Arc::new(Forwarder::default());
        let (io, _) = start(&handler, "test-io");
        let (ours, mut theirs) = socket_pair();
        let _up = io.adopt(ours, 5);
        theirs.write_all(b"bye\n").unwrap();
        drop(theirs);
        wait_for("close notice", || handler.closed.load(Ordering::SeqCst) > 0);
        // Lines are handed over on the thread that closes: the line
        // came first or not at all.
        assert_eq!(*handler.lines.lock().unwrap(), vec![(5, "bye".into())]);
        handler.draining.store(true, Ordering::SeqCst);
        io.join();
        assert_eq!(handler.closed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_reset_outbound_connection_closes_once_and_refuses_later_sends() {
        let handler = Arc::new(Forwarder::default());
        let (io, _) = start(&handler, "test-io");
        let (ours, mut theirs) = socket_pair();
        let up = io.adopt(ours, 7);
        // Both halves work, and the connection counts as no client.
        assert!(up.enqueue("hello"));
        let mut buf = [0u8; 6];
        theirs.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello\n");
        theirs.write_all(b"world\n").unwrap();
        wait_for("peer line", || !handler.lines.lock().unwrap().is_empty());
        assert_eq!(handler.lines.lock().unwrap()[0], (7, "world".into()));
        assert_eq!(handler.counters.open.load(Ordering::Relaxed), 0);
        // Closing with input unread resets the connection.
        assert!(up.enqueue("unread"));
        theirs.peek(&mut buf).unwrap();
        drop(theirs);
        wait_for("close notice", || handler.closed.load(Ordering::SeqCst) > 0);
        assert!(!up.enqueue("late"), "a send after the close was taken");
        handler.draining.store(true, Ordering::SeqCst);
        io.join();
        assert_eq!(handler.closed.load(Ordering::SeqCst), 1);
        assert_eq!(handler.counters.accepted.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_peer_that_never_reads_stalls_no_client_of_the_sending_thread() {
        let handler = Arc::new(Forwarder {
            payload: "x".repeat(256 * 1024),
            ..Forwarder::default()
        });
        let (io, addr) = start(&handler, "test-io");
        // The peer's end is held open and never read.
        let (ours, _theirs) = socket_pair();
        *handler.upstream.lock().unwrap() = Some(io.adopt(ours, 0));
        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut writer = client;
        // 32 MiB sent from the client's own io thread: far more than
        // the kernel buffers and the outbox's cap together hold.
        for i in 0..128 {
            writeln!(writer, "req {i}").unwrap();
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("request {i} stalled: {e}"));
            assert_eq!(line, "ok\n");
        }
        // The outbox overflowed, which closed the connection once.
        wait_for("close notice", || handler.closed.load(Ordering::SeqCst) > 0);
        let up = handler.upstream.lock().unwrap().take().unwrap();
        assert!(!up.enqueue("late"));
        drop((reader, writer));
        handler.draining.store(true, Ordering::SeqCst);
        io.join();
        assert_eq!(handler.closed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_drain_keeps_outbound_connections_until_no_client_is_left() {
        let handler = Arc::new(Forwarder::default());
        let (io, addr) = start(&handler, "test-io");
        let (ours, mut theirs) = socket_pair();
        let _up = io.adopt(ours, 3);
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"hold\n").unwrap();
        wait_for("held request", || handler.held.lock().unwrap().is_some());
        handler.draining.store(true, Ordering::SeqCst);
        io.wake();
        // Two poll ticks into the drain the client is owed a reply, so
        // the peer is still read.
        thread::sleep(POLL_INTERVAL * 2);
        theirs.write_all(b"late reply\n").unwrap();
        wait_for("peer line", || !handler.lines.lock().unwrap().is_empty());
        assert_eq!(handler.closed.load(Ordering::SeqCst), 0);
        let held = handler.held.lock().unwrap().take().unwrap();
        held.enqueue("done");
        held.release_slot();
        let mut line = String::new();
        BufReader::new(&mut client).read_line(&mut line).unwrap();
        assert_eq!(line, "done\n");
        drop(client);
        io.join();
        assert_eq!(handler.closed.load(Ordering::SeqCst), 1);
        let mut rest = Vec::new();
        assert_eq!(
            theirs.read_to_end(&mut rest).unwrap(),
            0,
            "the drain closed it"
        );
    }

    #[test]
    fn outbox_enqueue_caps_total_bytes_and_latches_overflow() {
        let reply = ConnReply::detached().unwrap();
        let line = "x".repeat(64 * 1024 - 1);
        let mut accepted = 0usize;
        while reply.enqueue(&line) {
            accepted += 1;
            assert!(accepted <= 16, "outbox grew past its byte cap");
        }
        assert_eq!(accepted, 16, "1MiB cap / 64KiB lines");
        assert!(reply.outbox().overflowed);
        // Latched: nothing else is accepted, even a tiny line.
        assert!(!reply.enqueue("y"));
        let ob = reply.outbox();
        assert!(ob.bytes <= OUTBOX_MAX_BYTES);
        assert_eq!(ob.queue.len(), 16);
    }

    #[test]
    fn io_loop_stats_accumulate() {
        let s = IoLoopStats::default();
        s.record_iteration(100, 20);
        s.record_iteration(50, 5);
        s.set_gauges(3, 4096);
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(load(&s.iterations), 2);
        assert_eq!(load(&s.wait_us), 150);
        assert_eq!(load(&s.work_us), 25);
        assert_eq!(load(&s.connections), 3);
        assert_eq!(load(&s.outbox_bytes), 4096);
        let lag = s.lag.snapshot();
        assert_eq!(lag.count, 2);
        assert_eq!(lag.sum, 25);
    }
}
