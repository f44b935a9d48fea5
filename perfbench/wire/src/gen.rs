//! Request lines generated from the benchmark seed.  The program only
//! ever sees these lines; the same seed gives byte-identical lines.

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The three closed-loop workloads, one per served path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cached hits: 64 warmed keys, cycled in a seeded order.
    Hot,
    /// Cold evals: every tree unseen, `cascade:w=1`, n=6 and n=7 mixed 2:1.
    Cold,
    /// Split evals through the router: every tree unseen, d=4,n=8.
    Split,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "hot" => Ok(Workload::Hot),
            "cold" => Ok(Workload::Cold),
            "split" => Ok(Workload::Split),
            other => Err(format!("unknown workload {other:?} (hot, cold, split)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Cold => "cold",
            Workload::Split => "split",
        }
    }
}

/// Number of distinct keys `hot` cycles over.  Fits the server's
/// default 256-entry cache with room to spare in every shard.
pub const HOT_KEYS: u64 = 64;

/// Tree seeds of fresh trees start here, far from the hot keys.
const FRESH_BASE: u64 = 1 << 20;

/// One request: the line sent and the tree it names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub spec: String,
    pub algo: &'static str,
    pub line: String,
}

fn request(spec: String, algo: &'static str) -> Request {
    let line = format!("{{\"spec\":\"{spec}\",\"algo\":\"{algo}\"}}");
    Request { spec, algo, line }
}

/// The request stream of one workload under one seed.  Index `i` is
/// the `i`-th request sent in a timed window; callers share one
/// counter, so concurrent callers send a prefix of the stream.
pub struct Stream {
    workload: Workload,
    hot_order: Vec<u64>,
    fresh_base: u64,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        // Fisher–Yates over the hot keys.
        let mut hot_order: Vec<u64> = (0..HOT_KEYS).collect();
        for i in (1..hot_order.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            hot_order.swap(i, j);
        }
        // Fresh trees count up from a seeded base (warm-up trees count
        // down from it); every tree seed stays below 2^53.
        let fresh_base = FRESH_BASE + rng.below(1 << 40) * (1 << 8);
        Stream {
            workload,
            hot_order,
            fresh_base,
        }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Requests sent before timing: the warm fill for `hot` (every key
    /// once, so timed requests hit), a short warm-up of unseen trees
    /// for `cold` and `split` (so the window starts on a warm process).
    pub fn warmup(&self) -> Vec<Request> {
        match self.workload {
            Workload::Hot => (0..HOT_KEYS).map(|k| self.hot(k)).collect(),
            Workload::Cold | Workload::Split => (1..=16).map(|k| self.fresh(k, false)).collect(),
        }
    }

    /// The `i`-th timed request.
    pub fn timed(&self, i: u64) -> Request {
        match self.workload {
            Workload::Hot => self.hot(self.hot_order[(i % HOT_KEYS) as usize]),
            Workload::Cold | Workload::Split => self.fresh(i, true),
        }
    }

    fn hot(&self, key: u64) -> Request {
        request(format!("minmax:d=4,n=6,seed={key}"), "alphabeta")
    }

    /// Fresh tree `i`: timed trees sit above the base, warm-up trees
    /// below it, so the two never collide.
    fn fresh(&self, i: u64, timed: bool) -> Request {
        let seed = if timed {
            self.fresh_base + i
        } else {
            self.fresh_base - i
        };
        match self.workload {
            Workload::Cold => {
                // Two n=6 trees per n=7 tree: the median then falls inside
                // the n=6 latency mode instead of in the gap between modes.
                let n = if i % 3 == 2 { 7 } else { 6 };
                request(format!("minmax:d=4,n={n},seed={seed}"), "cascade:w=1")
            }
            _ => request(format!("minmax:d=4,n=8,seed={seed}"), "alphabeta"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: Workload, seed: u64) -> Vec<String> {
        let s = Stream::new(w, seed);
        let mut out: Vec<String> = s.warmup().into_iter().map(|r| r.line).collect();
        out.extend((0..500).map(|i| s.timed(i).line));
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        for w in [Workload::Hot, Workload::Cold, Workload::Split] {
            assert_eq!(lines(w, 7), lines(w, 7));
            assert_ne!(lines(w, 7), lines(w, 8));
        }
    }

    #[test]
    fn fresh_trees_are_never_repeated_and_hot_keys_are_all_warmed() {
        for w in [Workload::Cold, Workload::Split] {
            let all = lines(w, 3);
            let unique: std::collections::HashSet<_> = all.iter().collect();
            assert_eq!(unique.len(), all.len(), "{w:?} repeats a tree");
        }
        let s = Stream::new(Workload::Hot, 3);
        let warmed: std::collections::HashSet<_> = s.warmup().into_iter().map(|r| r.line).collect();
        assert_eq!(warmed.len() as u64, HOT_KEYS);
        assert!((0..1000).all(|i| warmed.contains(&s.timed(i).line)));
    }

    #[test]
    fn cold_mixes_both_cost_classes() {
        let s = Stream::new(Workload::Cold, 0);
        let n7 = (0..300)
            .filter(|&i| s.timed(i).spec.contains("n=7"))
            .count();
        assert_eq!(n7, 100);
        assert!(s
            .timed(0)
            .line
            .starts_with("{\"spec\":\"minmax:d=4,n=6,seed="));
        assert!(s.timed(0).line.ends_with("\",\"algo\":\"cascade:w=1\"}"));
    }
}
