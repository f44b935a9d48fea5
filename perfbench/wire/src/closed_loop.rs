//! The closed-loop caller: each caller sends one request, waits for
//! its reply, and only then sends the next.

use crate::client::Conn;
use crate::gen::Stream;
use crate::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// What one reply said, reduced to what the checks need.
pub struct Reply {
    pub ok: bool,
    pub value: Option<i64>,
    pub cached: bool,
    pub coalesced: bool,
    /// `split.subevals` of a router reply; 0 when the eval was not split.
    pub subevals: i64,
}

impl Reply {
    pub fn read(line: &str) -> Reply {
        let j = Json::parse(line).unwrap_or(Json::Null);
        let flag = |k: &str| j.get(k).and_then(Json::as_bool).unwrap_or(false);
        Reply {
            ok: flag("ok"),
            value: j.get("value").and_then(Json::as_i64),
            cached: flag("cached"),
            coalesced: flag("coalesced"),
            subevals: j
                .get("split")
                .and_then(|s| s.get("subevals"))
                .and_then(Json::as_i64)
                .unwrap_or(0),
        }
    }

    /// An OK reply that carries a value.
    pub fn succeeded(&self) -> bool {
        self.ok && self.value.is_some()
    }
}

/// What the replies of a window said, folded as they arrive so a long
/// window keeps one entry per tree rather than one per reply.
#[derive(Default)]
pub struct Tally {
    /// Successful replies not served from the cache.
    pub uncached: u64,
    /// Successful replies served from the cache or coalesced.
    pub cached_or_coalesced: u64,
    /// Successful replies planned as fewer than two subevals.
    pub under_two_subevals: u64,
    /// Per tree spec, each value returned and how many replies carried it.
    pub values: HashMap<String, Vec<(i64, u64)>>,
}

impl Tally {
    /// Record one reply of `value` for the tree `spec`.
    pub fn note(&mut self, spec: &str, value: i64) {
        self.note_n(spec, value, 1);
    }

    fn note_n(&mut self, spec: &str, value: i64, n: u64) {
        if !self.values.contains_key(spec) {
            self.values.insert(spec.to_string(), Vec::new());
        }
        let seen = self.values.get_mut(spec).expect("inserted above");
        match seen.iter_mut().find(|(v, _)| *v == value) {
            Some((_, count)) => *count += n,
            None => seen.push((value, n)),
        }
    }

    fn add(&mut self, spec: &str, reply: &Reply) {
        let Some(value) = reply.value.filter(|_| reply.ok) else {
            return;
        };
        if !reply.cached {
            self.uncached += 1;
        }
        if reply.cached || reply.coalesced {
            self.cached_or_coalesced += 1;
        }
        if reply.subevals < 2 {
            self.under_two_subevals += 1;
        }
        self.note(spec, value);
    }

    pub fn merge(&mut self, other: Tally) {
        self.uncached += other.uncached;
        self.cached_or_coalesced += other.cached_or_coalesced;
        self.under_two_subevals += other.under_two_subevals;
        for (spec, seen) in other.values {
            for (v, n) in seen {
                self.note_n(&spec, v, n);
            }
        }
    }

    /// Trees that were given more than one value.
    pub fn inconsistent(&self) -> u64 {
        self.values.values().filter(|seen| seen.len() > 1).count() as u64
    }

    /// Trees given some value other than `truth`'s, and the replies
    /// that carried such values.  A tree missing from `truth` counts
    /// as wrong.
    pub fn wrong(&self, truth: &HashMap<String, i64>) -> (u64, u64) {
        let (mut trees, mut replies) = (0, 0);
        for (spec, seen) in &self.values {
            let bad: u64 = seen
                .iter()
                .filter(|(v, _)| truth.get(spec) != Some(v))
                .map(|(_, n)| n)
                .sum();
            trees += u64::from(bad > 0);
            replies += bad;
        }
        (trees, replies)
    }
}

/// Everything the callers of one window saw.
pub struct Window {
    pub sent: u64,
    /// Send→reply times of successful replies, in µs.
    pub latencies_us: Vec<f64>,
    pub tally: Tally,
    /// From the window's start to the last reply.
    pub elapsed: Duration,
}

impl Window {
    pub fn ok(&self) -> u64 {
        self.latencies_us.len() as u64
    }
}

/// Drive `callers` closed-loop callers against `addr` for `length`.
/// Callers share one counter over `stream`, so together they send a
/// prefix of it.  A transport error counts as a sent request without
/// a reply; the caller reconnects and goes on.
pub fn run(addr: &str, stream: &Stream, callers: usize, length: Duration) -> Window {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let until = start + length;
    let window = Mutex::new(Window {
        sent: 0,
        latencies_us: Vec::new(),
        tally: Tally::default(),
        elapsed: Duration::ZERO,
    });
    thread::scope(|s| {
        for _ in 0..callers {
            s.spawn(|| {
                let mut sent = 0;
                let mut latencies_us = Vec::new();
                let mut tally = Tally::default();
                let mut last = start;
                let mut conn = Conn::connect(addr).ok();
                while Instant::now() < until {
                    let req = stream.timed(next.fetch_add(1, Ordering::Relaxed));
                    sent += 1;
                    let result = match conn.as_mut() {
                        Some(c) => c.call(&req.line),
                        None => Err(std::io::ErrorKind::NotConnected.into()),
                    };
                    match result {
                        Ok((line, dt)) => {
                            last = Instant::now();
                            let reply = Reply::read(&line);
                            if reply.succeeded() {
                                latencies_us.push(dt.as_secs_f64() * 1e6);
                            }
                            tally.add(&req.spec, &reply);
                        }
                        Err(_) => conn = Conn::connect(addr).ok(),
                    }
                }
                let mut w = window.lock().expect("no caller panics");
                w.sent += sent;
                w.latencies_us.extend(latencies_us);
                w.tally.merge(tally);
                w.elapsed = w.elapsed.max(last.duration_since(start));
            });
        }
    });
    window.into_inner().expect("no caller panics")
}

/// Closed-loop callers a workload uses: `split` runs two (at most one
/// per CPU), the others one.
pub fn callers(split: bool) -> usize {
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    if split {
        nproc.min(2)
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_identity_flags_and_wrong_replies() {
        let mut t = Tally::default();
        t.add("a", &Reply::read(r#"{"ok":true,"value":3,"cached":true}"#));
        t.add(
            "a",
            &Reply::read(r#"{"ok":true,"value":4,"cached":false,"coalesced":true}"#),
        );
        t.add(
            "b",
            &Reply::read(r#"{"ok":true,"value":5,"split":{"subevals":10}}"#),
        );
        t.add("c", &Reply::read(r#"{"ok":false,"error":"busy"}"#));
        assert_eq!(
            (t.uncached, t.cached_or_coalesced, t.under_two_subevals),
            (2, 2, 2)
        );
        let mut all = Tally::default();
        all.note("b", 5);
        all.note("b", 6);
        all.merge(t);
        assert_eq!(all.inconsistent(), 2);
        let truth = HashMap::from([("a".to_string(), 3), ("b".to_string(), 5)]);
        // a: one reply of 4; b: one reply of 6.
        assert_eq!(all.wrong(&truth), (2, 2));
        assert_eq!(all.wrong(&HashMap::new()), (2, 5));
    }
}
