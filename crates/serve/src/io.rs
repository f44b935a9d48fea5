//! gt-io: readiness-driven socket infrastructure for the C10K front
//! door — the self-pipe FFI seeded in the CLI's SIGINT handler grown
//! into a proper event-loop toolkit.
//!
//! Everything here is std + raw libc FFI (the crate's established
//! idiom: no async runtime, no libc crate):
//!
//! * [`Poller`] — readiness registration and waiting.  On Linux it is
//!   an `epoll` instance (level-triggered, interest recomputed
//!   explicitly by the owner); elsewhere it degrades to a `poll(2)`
//!   sweep over the registered set.  Both report an fd again while it
//!   stays ready, so an owner may stop reading after a short read.
//!   Tokens are plain `u64`s chosen by the caller (the I/O threads use
//!   slab indices).
//! * [`Waker`] — a nonblocking self-pipe plus a collapsing flag, so
//!   any other thread can pull a [`Poller::wait`] out of its sleep
//!   exactly once per batch of notifications no matter how many
//!   arrive.  The poller's own thread has no use for it: the
//!   connection loop handles what that thread settles before it waits
//!   again.
//! * [`LineReader`] — the per-connection NDJSON state machine:
//!   incremental line scanning over freshly-read bytes with a pooled
//!   carry buffer for partial lines, `max_line` enforced *in the state
//!   machine* (an over-long line surfaces before it is ever buffered
//!   whole), and flow control (`Stop` after a line, `Defer` before
//!   one) so the owner can stop parsing when a window or an outbound
//!   queue fills.  In the steady state — complete lines arriving in
//!   one read — no bytes are copied and nothing is allocated; the
//!   carry buffer is only touched by stragglers and is returned to the
//!   [`BufferPool`] whenever it empties, so an idle connection holds
//!   no buffer at all.
//! * [`drain_outbox`] — vectored (`writev`) draining of a per-
//!   connection reply queue: many small NDJSON replies leave in one
//!   syscall, partial writes resume at an offset.
//! * [`raise_nofile_limit`] — best-effort `RLIMIT_NOFILE` soft→hard
//!   bump so one process can actually hold 10k+ sockets.
//!
//! [`crate::eventloop`] is the connection loop both tiers build from
//! these.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, IoSlice, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// Raw file descriptor (we avoid `std::os::fd` traits on the FFI
/// boundary to keep the cfg surface small).
pub type RawFd = i32;

// ---------------------------------------------------------------------------
// Shared FFI: pipe, fcntl, read/write/close, rlimit.
// ---------------------------------------------------------------------------

extern "C" {
    fn pipe(fds: *mut i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: i32 = 0x800;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: i32 = 0x4;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

/// Raise the soft open-file limit toward `want` (capped by the hard
/// limit).  Returns the soft limit now in effect, or `None` when the
/// kernel refused to say.  Best-effort: a failure to raise leaves the
/// process exactly as it was.
pub fn raise_nofile_limit(want: u64) -> Option<u64> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `#[repr(C)]` rlimit (two u64s,
    // the kernel's `struct rlimit` layout on 64-bit targets).
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return None;
    }
    let target = want.min(lim.max);
    if target > lim.cur {
        let new = RLimit {
            cur: target,
            max: lim.max,
        };
        // SAFETY: `new` is a live `#[repr(C)]` rlimit the call only reads.
        if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
            return Some(target);
        }
    }
    Some(lim.cur.max(target.min(lim.cur)))
}

fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // SAFETY: F_GETFL takes no pointer; a bad fd only fails with EBADF.
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: F_SETFL takes an integer flag set and no pointer.
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Poller.
// ---------------------------------------------------------------------------

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept), or hung up.
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
    /// Error or hangup: the owner should read to EOF and close.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{close, Event, RawFd};
    use std::io;

    // The kernel's `struct epoll_event`, part of its ABI: packed on
    // x86_64 only (12 bytes); elsewhere `data` is 8-aligned (16 bytes).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const _: () = assert!(
        std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
    );

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Level-triggered epoll instance.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: takes only a flag (EPOLL_CLOEXEC); the returned fd
            // is owned by this `Poller` and closed once, in `Drop`.
            let epfd = unsafe { epoll_create1(0x80000) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(
            &self,
            op: i32,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let mut events = EPOLLRDHUP;
            if readable {
                events |= EPOLLIN;
            }
            if writable {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `self.epfd` is this poller's live epoll fd, and `ev`
            // is a live `EpollEvent`, laid out as the kernel's
            // `epoll_event` on this architecture (see the struct).
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
        }

        pub fn modify(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`; DEL ignores the event, but kernels
            // before 2.6.9 required a non-null pointer.
            if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Wait up to `timeout_ms` (`-1` blocks) and append readiness
        /// events to `out`.  Returns how many arrived.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            const MAX: usize = 256;
            // SAFETY: `EpollEvent` is two integers, for which all-zero
            // bytes are a valid value.
            let mut buf: [EpollEvent; MAX] = unsafe { std::mem::zeroed() };
            // SAFETY: `buf` holds `MAX` writable `EpollEvent`s (layout as
            // in `ctl`), and the kernel writes at most `MAX`.
            let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), MAX as i32, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for ev in buf.iter().take(n as usize) {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(n as usize)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: the poller owns `epfd` and closes it exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, RawFd};
    use std::io;
    use std::sync::Mutex;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;

    /// Portable fallback: a registered-set swept with `poll(2)` each
    /// wait.  O(n) per wait, which is fine for the fd counts non-Linux
    /// dev machines see.
    pub struct Poller {
        registered: Mutex<Vec<(RawFd, u64, bool, bool)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(Vec::new()),
            })
        }

        pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .push((fd, token, readable, writable));
            Ok(())
        }

        pub fn modify(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let mut reg = self.registered.lock().unwrap();
            for slot in reg.iter_mut() {
                if slot.0 == fd {
                    *slot = (fd, token, readable, writable);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().unwrap().retain(|s| s.0 != fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            let reg: Vec<(RawFd, u64, bool, bool)> = self.registered.lock().unwrap().clone();
            let mut fds: Vec<PollFd> = reg
                .iter()
                .map(|&(fd, _, r, w)| PollFd {
                    fd,
                    events: if r { POLLIN } else { 0 } | if w { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            // SAFETY: `fds` holds `fds.len()` writable `#[repr(C)]`
            // `pollfd`s (int fd, short events, short revents).
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            let mut count = 0;
            for (pfd, &(_, token, _, _)) in fds.iter().zip(reg.iter()) {
                if pfd.revents == 0 {
                    continue;
                }
                count += 1;
                out.push(Event {
                    token,
                    readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(count)
        }
    }
}

pub use sys::Poller;

// ---------------------------------------------------------------------------
// Waker.
// ---------------------------------------------------------------------------

/// Cross-thread wakeup for a [`Poller`]: a nonblocking self-pipe whose
/// read end is registered like any other fd.  Redundant wakes collapse
/// onto one pending byte, so a storm of reply completions costs one
/// `write(2)` and one `read(2)` per poll cycle, not one per reply.
/// [`crate::eventloop`] rings it only from threads other than the
/// loop's own; a reply the loop's thread settles costs no wake.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
    pending: AtomicBool,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let mut fds = [-1i32; 2];
        // SAFETY: `fds` is a writable array of the two ints pipe(2) fills.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            if let Err(e) = set_nonblocking_fd(fd) {
                // SAFETY: both fds were just created here and are owned by
                // nothing else; this error path closes them once.
                unsafe {
                    close(fds[0]);
                    close(fds[1]);
                }
                return Err(e);
            }
        }
        Ok(Waker {
            read_fd: fds[0],
            write_fd: fds[1],
            pending: AtomicBool::new(false),
        })
    }

    /// The fd to register with the poller (readable when woken).
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wake the poller if it is not already pending a wake.
    pub fn wake(&self) {
        if self.pending.swap(true, Ordering::AcqRel) {
            return; // a byte is already in flight
        }
        let byte = [1u8];
        // SAFETY: `byte` is one readable byte; `write_fd` is the waker's
        // own pipe end, open until `Drop`.
        unsafe {
            write(self.write_fd, byte.as_ptr(), 1);
        }
    }

    /// Drain the pipe after the poller reported it readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `buf` is `buf.len()` writable bytes; `read_fd` is
            // the waker's own pipe end, open until `Drop`.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n < buf.len() as isize {
                break;
            }
        }
        self.pending.store(false, Ordering::Release);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: the waker owns both pipe ends and closes each once.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

// SAFETY: every field may move to another thread: `read_fd` and
// `write_fd` are plain integers naming pipe ends the waker owns until
// `Drop`, and `pending` is an `AtomicBool`.
unsafe impl Send for Waker {}
// SAFETY: `&Waker` only calls read(2)/write(2) on its own fds, which
// any thread may do concurrently, and touches `pending` atomically.
unsafe impl Sync for Waker {}

// ---------------------------------------------------------------------------
// Buffer pool.
// ---------------------------------------------------------------------------

/// A per-I/O-thread pool of carry buffers.  No lock: the owning thread
/// acquires on partial lines and releases when a connection's carry
/// empties, so thousands of idle connections pin zero buffer memory.
pub struct BufferPool {
    bufs: Vec<Vec<u8>>,
    /// Most buffers retained; extras are dropped on release.
    max_pooled: usize,
    /// Capacity above which a returned buffer is shrunk (one huge
    /// request must not pin its high-water allocation forever).
    max_retained_cap: usize,
}

impl BufferPool {
    pub fn new(max_pooled: usize, max_retained_cap: usize) -> BufferPool {
        BufferPool {
            bufs: Vec::new(),
            max_pooled,
            max_retained_cap,
        }
    }

    pub fn acquire(&mut self) -> Vec<u8> {
        self.bufs.pop().unwrap_or_default()
    }

    pub fn release(&mut self, mut buf: Vec<u8>) {
        if self.bufs.len() >= self.max_pooled {
            return;
        }
        buf.clear();
        if buf.capacity() > self.max_retained_cap {
            buf.shrink_to(self.max_retained_cap);
        }
        self.bufs.push(buf);
    }

    /// Buffers currently pooled (test/telemetry hook).
    pub fn pooled(&self) -> usize {
        self.bufs.len()
    }
}

// ---------------------------------------------------------------------------
// LineReader: the connection's incremental NDJSON state machine.
// ---------------------------------------------------------------------------

/// What the per-line callback tells the state machine to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineAction {
    /// Keep scanning for more lines.
    Continue,
    /// The line was consumed but parsing must pause (e.g. the
    /// connection hit its pipelining window); unscanned bytes are
    /// carried for a later [`LineReader::feed`].
    Stop,
    /// Do **not** consume this line; carry it (and everything after
    /// it) and pause.  Used when the owner cannot accept a request
    /// right now but wants to process it verbatim later.
    Defer,
}

/// How a [`LineReader::feed`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedEnd {
    /// All input scanned; at most a partial line is carried.
    Done,
    /// Paused by [`LineAction::Stop`] or [`LineAction::Defer`]; call
    /// `feed(&[], …)` to resume from the carry buffer.
    Paused,
}

/// A request line exceeded the state machine's limit; the connection
/// should be closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineTooLong;

/// Incremental line scanner with a pooled carry buffer.
pub struct LineReader {
    carry: Vec<u8>,
    max_line: usize,
}

impl LineReader {
    pub fn new(max_line: usize) -> LineReader {
        LineReader {
            carry: Vec::new(),
            max_line,
        }
    }

    /// Bytes currently carried (a partial or deferred tail).
    pub fn buffered(&self) -> usize {
        self.carry.len()
    }

    /// True when deferred/partial input awaits a resume feed.
    pub fn has_carry(&self) -> bool {
        !self.carry.is_empty()
    }

    /// Return the carry buffer's allocation to the pool if it is
    /// empty; call whenever a feed round leaves nothing carried.
    pub fn release(&mut self, pool: &mut BufferPool) {
        if self.carry.is_empty() && self.carry.capacity() > 0 {
            pool.release(std::mem::take(&mut self.carry));
        }
    }

    /// Feed freshly-read bytes (or `&[]` to resume from the carry) and
    /// invoke `on_line` for each complete line, stripped of the
    /// trailing `\n`/`\r\n`.  In the hot path — no carry, complete
    /// lines in `data` — lines are scanned in place with no copy.
    pub fn feed(
        &mut self,
        data: &[u8],
        pool: &mut BufferPool,
        mut on_line: impl FnMut(&[u8]) -> LineAction,
    ) -> Result<FeedEnd, LineTooLong> {
        if self.carry.is_empty() {
            // Fast path: scan the fresh bytes in place.
            let mut cursor = 0usize;
            while let Some(nl) = find_newline(&data[cursor..]) {
                if nl > self.max_line {
                    return Err(LineTooLong);
                }
                let line = trim_cr(&data[cursor..cursor + nl]);
                match on_line(line) {
                    LineAction::Continue => cursor += nl + 1,
                    LineAction::Stop => {
                        cursor += nl + 1;
                        self.stash(&data[cursor..], pool);
                        return Ok(FeedEnd::Paused);
                    }
                    LineAction::Defer => {
                        self.stash(&data[cursor..], pool);
                        return Ok(FeedEnd::Paused);
                    }
                }
            }
            let tail = &data[cursor..];
            if tail.len() > self.max_line {
                return Err(LineTooLong);
            }
            self.stash(tail, pool);
            return Ok(FeedEnd::Done);
        }

        // Slow path: a carry exists; append and scan the carry buffer.
        if !data.is_empty() {
            self.carry.extend_from_slice(data);
        }
        let mut cursor = 0usize;
        let end = loop {
            match find_newline(&self.carry[cursor..]) {
                Some(nl) => {
                    if nl > self.max_line {
                        return Err(LineTooLong);
                    }
                    let line_end = cursor + nl;
                    // The borrow of `carry` for the callback is scoped
                    // to this arm; the cursor math happens after.
                    let action = on_line(trim_cr(&self.carry[cursor..line_end]));
                    match action {
                        LineAction::Continue => cursor = line_end + 1,
                        LineAction::Stop => {
                            cursor = line_end + 1;
                            break Some(FeedEnd::Paused);
                        }
                        LineAction::Defer => break Some(FeedEnd::Paused),
                    }
                }
                None => {
                    if self.carry.len() - cursor > self.max_line {
                        return Err(LineTooLong);
                    }
                    break None;
                }
            }
        };
        self.carry.drain(..cursor);
        if self.carry.is_empty() {
            self.release(pool);
        }
        Ok(end.unwrap_or(FeedEnd::Done))
    }

    fn stash(&mut self, tail: &[u8], pool: &mut BufferPool) {
        if tail.is_empty() {
            return;
        }
        if self.carry.capacity() == 0 {
            self.carry = pool.acquire();
        }
        self.carry.extend_from_slice(tail);
    }
}

fn find_newline(data: &[u8]) -> Option<usize> {
    data.iter().position(|&b| b == b'\n')
}

fn trim_cr(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    }
}

// ---------------------------------------------------------------------------
// Vectored outbound-queue draining.
// ---------------------------------------------------------------------------

/// Most reply buffers gathered into one `writev`.
const MAX_IOVEC: usize = 64;

/// Write as much of `queue` as the (nonblocking) socket accepts,
/// vectored.  `offset` tracks how far into the front buffer a partial
/// write got and must persist between calls.  Returns `Ok(true)` when
/// the queue fully drained, `Ok(false)` when the socket would block.
pub fn drain_outbox(
    mut stream: &TcpStream,
    queue: &mut VecDeque<Vec<u8>>,
    offset: &mut usize,
) -> io::Result<bool> {
    while !queue.is_empty() {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(queue.len().min(MAX_IOVEC));
        for (i, buf) in queue.iter().take(MAX_IOVEC).enumerate() {
            let skip = if i == 0 { *offset } else { 0 };
            slices.push(IoSlice::new(&buf[skip..]));
        }
        let written = match stream.write_vectored(&slices) {
            Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "socket wrote zero")),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Retire fully-written buffers; remember the offset into the
        // first surviving one.
        let mut remaining = written;
        while remaining > 0 {
            let front_len = queue.front().map(|b| b.len() - *offset).unwrap_or(0);
            if remaining >= front_len {
                queue.pop_front();
                remaining -= front_len;
                *offset = 0;
            } else {
                *offset += remaining;
                remaining = 0;
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;

    fn collect_lines(
        reader: &mut LineReader,
        pool: &mut BufferPool,
        data: &[u8],
    ) -> (Vec<String>, Result<FeedEnd, LineTooLong>) {
        let mut lines = Vec::new();
        let end = reader.feed(data, pool, |line| {
            lines.push(String::from_utf8_lossy(line).into_owned());
            LineAction::Continue
        });
        (lines, end)
    }

    #[test]
    fn multiple_pipelined_lines_in_one_read() {
        let mut r = LineReader::new(1024);
        let mut pool = BufferPool::new(4, 4096);
        let (lines, end) = collect_lines(&mut r, &mut pool, b"{\"a\":1}\n{\"b\":2}\r\n{\"c\":3}\n");
        assert_eq!(end, Ok(FeedEnd::Done));
        assert_eq!(lines, vec!["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]);
        assert!(!r.has_carry(), "no partial tail to carry");
    }

    #[test]
    fn partial_lines_split_across_reads() {
        let mut r = LineReader::new(1024);
        let mut pool = BufferPool::new(4, 4096);
        let (lines, end) = collect_lines(&mut r, &mut pool, b"{\"op\":\"pi");
        assert_eq!(end, Ok(FeedEnd::Done));
        assert!(lines.is_empty());
        assert_eq!(r.buffered(), 9);
        let (lines, _) = collect_lines(&mut r, &mut pool, b"ng\"}\n{\"x\"");
        assert_eq!(lines, vec!["{\"op\":\"ping\"}"]);
        assert_eq!(r.buffered(), 4, "next partial carried");
        // One byte at a time (the slowloris shape) still assembles.
        let mut r = LineReader::new(64);
        for b in b"hello" {
            let (lines, _) = collect_lines(&mut r, &mut pool, &[*b]);
            assert!(lines.is_empty());
        }
        let (lines, _) = collect_lines(&mut r, &mut pool, b"\n");
        assert_eq!(lines, vec!["hello"]);
        assert!(!r.has_carry());
    }

    #[test]
    fn oversized_line_is_rejected_before_buffering_completes() {
        let mut r = LineReader::new(16);
        let mut pool = BufferPool::new(4, 4096);
        // A single feed over the limit with no newline.
        let (_, end) = collect_lines(&mut r, &mut pool, &[b'x'; 17]);
        assert_eq!(end, Err(LineTooLong));
        // Accreted across reads: the carry crosses the limit.
        let mut r = LineReader::new(16);
        assert!(collect_lines(&mut r, &mut pool, &[b'x'; 10]).1.is_ok());
        assert_eq!(
            collect_lines(&mut r, &mut pool, &[b'x'; 10]).1,
            Err(LineTooLong)
        );
        // A line exactly at the limit passes.
        let mut r = LineReader::new(16);
        let mut data = vec![b'y'; 16];
        data.push(b'\n');
        let (lines, end) = collect_lines(&mut r, &mut pool, &data);
        assert_eq!(end, Ok(FeedEnd::Done));
        assert_eq!(lines.len(), 1);
        // A *completed* over-long line is rejected, not delivered —
        // whether it arrives whole...
        let mut r = LineReader::new(16);
        let mut data = vec![b'z'; 17];
        data.push(b'\n');
        let (lines, end) = collect_lines(&mut r, &mut pool, &data);
        assert_eq!(end, Err(LineTooLong));
        assert!(lines.is_empty());
        // ...or completes out of the carry on a later read.
        let mut r = LineReader::new(16);
        assert!(collect_lines(&mut r, &mut pool, &[b'z'; 9]).1.is_ok());
        let (lines, end) = collect_lines(&mut r, &mut pool, b"zzzzzzzz\n");
        assert_eq!(end, Err(LineTooLong));
        assert!(lines.is_empty());
    }

    #[test]
    fn stop_consumes_the_line_and_carries_the_rest() {
        let mut r = LineReader::new(1024);
        let mut pool = BufferPool::new(4, 4096);
        let mut seen = Vec::new();
        let end = r.feed(b"one\ntwo\nthree\n", &mut pool, |line| {
            seen.push(String::from_utf8_lossy(line).into_owned());
            LineAction::Stop
        });
        assert_eq!(end, Ok(FeedEnd::Paused));
        assert_eq!(seen, vec!["one"]);
        // Resume from the carry with no new bytes.
        let (lines, end) = collect_lines(&mut r, &mut pool, b"");
        assert_eq!(end, Ok(FeedEnd::Done));
        assert_eq!(lines, vec!["two", "three"]);
        assert!(!r.has_carry());
    }

    #[test]
    fn defer_leaves_the_line_unconsumed() {
        let mut r = LineReader::new(1024);
        let mut pool = BufferPool::new(4, 4096);
        let mut calls = 0;
        let end = r.feed(b"first\nsecond\n", &mut pool, |_| {
            calls += 1;
            LineAction::Defer
        });
        assert_eq!(end, Ok(FeedEnd::Paused));
        assert_eq!(calls, 1);
        assert_eq!(r.buffered(), 13, "both lines still carried");
        // The deferred line replays verbatim on resume.
        let (lines, _) = collect_lines(&mut r, &mut pool, b"");
        assert_eq!(lines, vec!["first", "second"]);
    }

    #[test]
    fn graceful_drain_mid_request_keeps_the_partial_tail() {
        // A Stop with a partial line after it: the consumed line is
        // gone, the partial survives, and a later feed completes it.
        let mut r = LineReader::new(1024);
        let mut pool = BufferPool::new(4, 4096);
        let mut seen = Vec::new();
        let end = r.feed(b"done\npar", &mut pool, |line| {
            seen.push(String::from_utf8_lossy(line).into_owned());
            LineAction::Stop
        });
        assert_eq!(end, Ok(FeedEnd::Paused));
        assert_eq!(seen, vec!["done"]);
        assert_eq!(r.buffered(), 3);
        let (lines, _) = collect_lines(&mut r, &mut pool, b"tial\n");
        assert_eq!(lines, vec!["partial"]);
    }

    #[test]
    fn carry_buffer_returns_to_the_pool_when_empty() {
        let mut pool = BufferPool::new(4, 4096);
        let mut r = LineReader::new(1024);
        let _ = collect_lines(&mut r, &mut pool, b"par");
        assert_eq!(pool.pooled(), 0, "carry in use");
        let _ = collect_lines(&mut r, &mut pool, b"tial\n");
        assert!(!r.has_carry());
        assert_eq!(pool.pooled(), 1, "allocation recycled");
        // The next reader reuses it rather than allocating.
        let mut r2 = LineReader::new(1024);
        let _ = collect_lines(&mut r2, &mut pool, b"x");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn pool_caps_count_and_capacity() {
        let mut pool = BufferPool::new(1, 64);
        pool.release(Vec::with_capacity(1024));
        pool.release(Vec::with_capacity(16)); // over max_pooled: dropped
        assert_eq!(pool.pooled(), 1);
        let b = pool.acquire();
        assert!(b.capacity() <= 64, "oversized buffer shrunk on release");
    }

    #[test]
    fn waker_wakes_a_sleeping_poller_once_per_batch() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.read_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        // No wake: the wait times out empty.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        // A storm of wakes collapses to one readable event.
        for _ in 0..100 {
            waker.wake();
        }
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        waker.drain();
        events.clear();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "drained");
        // And it re-arms.
        waker.wake();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        waker.drain();
    }

    #[test]
    fn drain_outbox_writes_vectored_and_resumes_partials() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut queue: VecDeque<Vec<u8>> = VecDeque::new();
        for i in 0..10 {
            queue.push_back(format!("reply-{i}\n").into_bytes());
        }
        let total: usize = queue.iter().map(Vec::len).sum();
        let mut offset = 0;
        assert!(drain_outbox(&server, &mut queue, &mut offset).unwrap());
        assert!(queue.is_empty());

        let mut got = vec![0u8; total];
        let mut read = 0;
        let mut reader = &client;
        while read < total {
            read += reader.read(&mut got[read..]).unwrap();
        }
        let text = String::from_utf8(got).unwrap();
        assert!(text.starts_with("reply-0\n"));
        assert!(text.ends_with("reply-9\n"));
        assert_eq!(text.lines().count(), 10);
    }

    #[test]
    fn drain_outbox_reports_backpressure_without_losing_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // Stuff the socket until the kernel buffer refuses more.
        let chunk = vec![b'z'; 64 * 1024];
        let mut queue: VecDeque<Vec<u8>> = VecDeque::new();
        let mut offset = 0;
        let mut queued_total = 0usize;
        let mut blocked = false;
        for _ in 0..256 {
            queue.push_back(chunk.clone());
            queued_total += chunk.len();
            if !drain_outbox(&server, &mut queue, &mut offset).unwrap() {
                blocked = true;
                break;
            }
        }
        assert!(blocked, "a 16MB push must hit backpressure");
        let backlog: usize = queue.iter().map(Vec::len).sum::<usize>() - offset;
        assert!(backlog > 0);

        // Drain the client side; the remainder flushes cleanly.
        let mut reader = &client;
        let mut sunk = vec![0u8; 64 * 1024];
        let mut received = 0usize;
        loop {
            // Alternate reads and flush attempts until all bytes land.
            received += reader.read(&mut sunk).unwrap();
            if drain_outbox(&server, &mut queue, &mut offset).unwrap() && received >= queued_total {
                break;
            }
        }
        assert_eq!(received, queued_total);
        assert_eq!(offset, 0);
    }

    #[test]
    fn raise_nofile_limit_reports_a_limit() {
        // Best-effort: must not error, must report a sane value.
        let lim = raise_nofile_limit(4096);
        assert!(lim.is_some());
        assert!(lim.unwrap() >= 256, "limit: {lim:?}");
    }
}
