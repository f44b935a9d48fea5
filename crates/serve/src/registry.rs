//! One metric registry for the serve and router tiers.
//!
//! Each tier declares every series it exports once, as a [`Family`] in
//! one table (`crate::metrics::SERVE_FAMILIES`, the router's
//! `ROUTER_FAMILIES`).  A declaration gives the series name, its
//! [`Kind`], its help text, its `stats` key path and a `read` function
//! that turns live state into [`Sample`]s.  Two writers walk a table:
//! [`prometheus_text`] renders `/metrics` and [`stats_json`] renders the
//! `stats` reply, which is also what `gtree serve` and `gtree route`
//! print when they shut down.  So the two outputs cannot drift apart.
//!
//! Recording does not go through this module: counters stay relaxed
//! atomics on named fields, so the request path does no name lookup,
//! takes no lock and allocates nothing.  `read` runs only when
//! something renders.
//!
//! A `stats` key is a dotted path.  A `{label}` segment takes that
//! label's value as an object key (`stages.{algo}.{stage}`).  A
//! `name[]` segment makes `name` an array indexed by the sample's
//! position in its family (`replicas[].sent`).  A histogram whose key
//! ends in `_` is spread into its parent under that prefix (`latency_`
//! gives `latency_count`, `latency_p50_us`, …); any other histogram
//! becomes one object at its key.

use crate::metrics::{Histogram, HistogramSnapshot};
use gt_analysis::Json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a family's samples mean to a scraper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total.
    Counter,
    /// Point-in-time level.
    Gauge,
    /// Power-of-two buckets read from a [`Histogram`].
    Histogram,
    /// A descriptive `stats` field (an address, a state name, a
    /// version) with no exposition series.
    Info,
}

/// The unit a family records its integers in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Plain counts, rendered as recorded in both outputs.
    One,
    /// Microseconds: `stats` shows them as recorded under `_us` names,
    /// and the exposition converts them to seconds.
    Micros,
}

/// One declared metric family.
pub struct Family<S> {
    /// Exposition name; empty for [`Kind::Info`] fields.
    pub name: &'static str,
    /// Counter, gauge, histogram or info.
    pub kind: Kind,
    /// What the integers count.
    pub unit: Unit,
    /// The exposition's `# HELP` text.
    pub help: &'static str,
    /// Where the value sits in `stats` (see the module docs); empty
    /// for a family only the exposition carries.
    pub key: &'static str,
    /// The family's current samples.
    pub read: fn(&S) -> Vec<Sample>,
}

/// A counter family.
pub const fn counter<S>(
    name: &'static str,
    key: &'static str,
    help: &'static str,
    read: fn(&S) -> Vec<Sample>,
) -> Family<S> {
    Family {
        name,
        kind: Kind::Counter,
        unit: Unit::One,
        help,
        key,
        read,
    }
}

/// A gauge family.
pub const fn gauge<S>(
    name: &'static str,
    key: &'static str,
    help: &'static str,
    read: fn(&S) -> Vec<Sample>,
) -> Family<S> {
    Family {
        kind: Kind::Gauge,
        ..counter(name, key, help, read)
    }
}

/// A histogram family over microsecond observations.
pub const fn histogram<S>(
    name: &'static str,
    key: &'static str,
    help: &'static str,
    read: fn(&S) -> Vec<Sample>,
) -> Family<S> {
    Family {
        kind: Kind::Histogram,
        unit: Unit::Micros,
        ..counter(name, key, help, read)
    }
}

/// A `stats`-only descriptive field.
pub const fn info<S>(
    key: &'static str,
    help: &'static str,
    read: fn(&S) -> Vec<Sample>,
) -> Family<S> {
    Family {
        kind: Kind::Info,
        ..counter("", key, help, read)
    }
}

/// Seconds since the tier started (`<tier>_uptime_seconds`, `stats`
/// key `uptime_s`): both tiers carry it.
pub const fn uptime<S>(name: &'static str, read: fn(&S) -> Vec<Sample>) -> Family<S> {
    gauge(name, "uptime_s", "Seconds since the process started.", read)
}

/// Build metadata (`<tier>_build_info{version}`, always 1): both tiers
/// carry it, on the exposition only.
pub const fn build_info<S>(name: &'static str) -> Family<S> {
    gauge(name, "", "Build metadata; the value is always 1.", |_| {
        vec![Sample::new(
            [("version", env!("CARGO_PKG_VERSION").to_string())],
            1u64,
        )]
    })
}

/// One value of a family.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer, in the family's [`Unit`].
    Int(u64),
    /// A float, rendered as is in both outputs.
    Float(f64),
    /// Text; only [`Kind::Info`] fields carry it.
    Text(String),
    /// A frozen histogram.
    Hist(HistogramSnapshot),
    /// No value yet: `null` in `stats`, no sample in the exposition.
    Absent,
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as u64)
    }
}

impl From<&AtomicU64> for Value {
    fn from(v: &AtomicU64) -> Value {
        Value::Int(v.load(Ordering::Relaxed))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Absent, Into::into)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}

impl From<&Histogram> for Value {
    fn from(h: &Histogram) -> Value {
        Value::Hist(h.snapshot())
    }
}

/// One labelled value of a family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label names and values, in exposition order.
    pub labels: Vec<(&'static str, String)>,
    /// The value.
    pub value: Value,
}

impl Sample {
    /// A sample with these labels.
    pub fn new<const N: usize>(
        labels: [(&'static str, String); N],
        value: impl Into<Value>,
    ) -> Sample {
        Sample {
            labels: labels.into(),
            value: value.into(),
        }
    }
}

/// The single unlabelled sample of a scalar family.
pub fn one(value: impl Into<Value>) -> Vec<Sample> {
    vec![Sample::new([], value)]
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (format version 0.0.4).
// ---------------------------------------------------------------------------

/// Render every non-info family of `families` in the Prometheus text
/// format.  A family with no present sample is left out.  Power-of-two
/// buckets become cumulative `le` buckets: in seconds for a
/// microsecond histogram, as plain counts otherwise.
pub fn prometheus_text<S>(families: &[Family<S>], state: &S) -> String {
    let mut out = String::new();
    for f in families.iter().filter(|f| f.kind != Kind::Info) {
        let samples: Vec<Sample> = (f.read)(state)
            .into_iter()
            .filter(|s| !matches!(s.value, Value::Absent | Value::Text(_)))
            .collect();
        if samples.is_empty() {
            continue;
        }
        let kind = match f.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            _ => "histogram",
        };
        let _ = writeln!(
            out,
            "# HELP {} {}\n# TYPE {} {kind}",
            f.name, f.help, f.name
        );
        for s in &samples {
            let labels = label_text(&s.labels);
            let (name, plain) = (f.name, braces(&labels, ""));
            match &s.value {
                Value::Int(n) => {
                    let _ = writeln!(out, "{name}{plain} {}", scaled(*n, f.unit));
                }
                Value::Float(x) => {
                    let _ = writeln!(out, "{name}{plain} {x}");
                }
                Value::Hist(h) => {
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        cumulative += c;
                        let le = format!("le=\"{}\"", scaled(2u64 << i, f.unit));
                        let _ = writeln!(out, "{name}_bucket{} {cumulative}", braces(&labels, &le));
                    }
                    let inf = braces(&labels, "le=\"+Inf\"");
                    let _ = writeln!(out, "{name}_bucket{inf} {}", h.count);
                    let _ = writeln!(out, "{name}_sum{plain} {}", scaled(h.sum, f.unit));
                    let _ = writeln!(out, "{name}_count{plain} {}", h.count);
                }
                Value::Text(_) | Value::Absent => {}
            }
        }
    }
    out
}

/// An integer in exposition units: microseconds become seconds.
fn scaled(n: u64, unit: Unit) -> String {
    match unit {
        Unit::One => n.to_string(),
        Unit::Micros => (n as f64 / 1e6).to_string(),
    }
}

/// `k="v",…` with every value escaped: label values can come from
/// clients (tenant ids, announced replica addresses), and text format
/// 0.0.4 requires `\`, `"` and newline to be escaped.
fn label_text(labels: &[(&'static str, String)]) -> String {
    let mut out = String::new();
    for (i, (name, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(name);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

fn braces(labels: &str, extra: &str) -> String {
    match (labels.is_empty(), extra.is_empty()) {
        (true, true) => String::new(),
        (false, true) => format!("{{{labels}}}"),
        (true, false) => format!("{{{extra}}}"),
        (false, false) => format!("{{{labels},{extra}}}"),
    }
}

// ---------------------------------------------------------------------------
// The `stats` reply.
// ---------------------------------------------------------------------------

/// A rendered `stats` object.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats(pub Json);

impl Stats {
    /// The value at a dotted path; on an array a segment is an index
    /// (`"cache.len"`, `"replicas.0.sent"`).
    pub fn get(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(&self.0, |node, seg| match node {
            Json::Array(items) => seg.parse::<usize>().ok().and_then(|i| items.get(i)),
            _ => node.get(seg),
        })
    }

    /// The unsigned integer at `path`.
    ///
    /// # Panics
    ///
    /// When `path` holds no unsigned integer: a misspelled or
    /// undeclared key.
    pub fn u64(&self, path: &str) -> u64 {
        self.get(path)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats has no integer at {path:?}"))
    }
}

enum Seg {
    Key(String),
    Index(usize),
}

/// Render every family of `families` that has a `stats` key.
pub fn stats_json<S>(families: &[Family<S>], state: &S) -> Stats {
    let mut root = Json::Object(Vec::new());
    for f in families.iter().filter(|f| !f.key.is_empty()) {
        let parts: Vec<&str> = f.key.split('.').collect();
        // The containers above the first per-sample segment exist even
        // while the family has no sample (`"tenants":{}`).
        let fixed = parts
            .iter()
            .take_while(|p| !p.starts_with('{') && !p.ends_with("[]"))
            .count();
        if let Some(dynamic) = parts.get(fixed) {
            let mut path: Vec<Seg> = parts[..fixed]
                .iter()
                .map(|p| Seg::Key(p.to_string()))
                .collect();
            let empty = match dynamic.strip_suffix("[]") {
                Some(name) => {
                    path.push(Seg::Key(name.to_string()));
                    Json::Array(Vec::new())
                }
                None => Json::Object(Vec::new()),
            };
            let node = slot(&mut root, &path);
            if *node == Json::Null {
                *node = empty;
            }
        }
        for (i, sample) in (f.read)(state).into_iter().enumerate() {
            let mut path = Vec::new();
            for part in &parts {
                if let Some(label) = part.strip_prefix('{').and_then(|p| p.strip_suffix('}')) {
                    let value = sample.labels.iter().find(|(name, _)| *name == label);
                    let (_, value) = value.expect("a key's {label} is a label its family sets");
                    path.push(Seg::Key(value.clone()));
                } else if let Some(name) = part.strip_suffix("[]") {
                    path.push(Seg::Key(name.to_string()));
                    path.push(Seg::Index(i));
                } else {
                    path.push(Seg::Key(part.to_string()));
                }
            }
            match sample.value {
                Value::Hist(h) if f.key.ends_with('_') => {
                    let Some(Seg::Key(prefix)) = path.pop() else {
                        unreachable!("a key ending in _ ends in a literal segment")
                    };
                    for (name, value) in histogram_fields(&h, f.unit) {
                        path.push(Seg::Key(format!("{prefix}{name}")));
                        *slot(&mut root, &path) = value;
                        path.pop();
                    }
                }
                Value::Hist(h) => {
                    *slot(&mut root, &path) = Json::Object(histogram_fields(&h, f.unit))
                }
                Value::Int(n) => *slot(&mut root, &path) = Json::from(n),
                Value::Float(x) => *slot(&mut root, &path) = Json::from(x),
                Value::Text(t) => *slot(&mut root, &path) = Json::from(t),
                Value::Absent => *slot(&mut root, &path) = Json::Null,
            }
        }
    }
    Stats(root)
}

/// A histogram's `stats` fields: count, sum, mean and interpolated
/// quantiles (suffixed `_us` for microseconds), and the raw buckets.
fn histogram_fields(h: &HistogramSnapshot, unit: Unit) -> Vec<(String, Json)> {
    let us = if unit == Unit::Micros { "_us" } else { "" };
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
    vec![
        ("count".into(), Json::from(h.count)),
        (format!("sum{us}"), Json::from(h.sum)),
        (format!("mean{us}"), h.mean().map_or(Json::Null, Json::from)),
        (format!("p50{us}"), opt(h.quantile(0.50))),
        (format!("p90{us}"), opt(h.quantile(0.90))),
        (format!("p99{us}"), opt(h.quantile(0.99))),
        (
            "buckets".into(),
            Json::Array(h.buckets.iter().map(|&c| Json::from(c)).collect()),
        ),
    ]
}

/// The node at `path`, creating objects, arrays and `null` leaves on
/// the way.
fn slot<'a>(mut node: &'a mut Json, path: &[Seg]) -> &'a mut Json {
    for seg in path {
        node = match seg {
            Seg::Key(key) => {
                if *node == Json::Null {
                    *node = Json::Object(Vec::new());
                }
                let Json::Object(fields) = node else {
                    panic!("stats key {key:?} sits under a value")
                };
                let at = match fields.iter().position(|(k, _)| k == key) {
                    Some(at) => at,
                    None => {
                        fields.push((key.clone(), Json::Null));
                        fields.len() - 1
                    }
                };
                &mut fields[at].1
            }
            Seg::Index(i) => {
                if *node == Json::Null {
                    *node = Json::Array(Vec::new());
                }
                let Json::Array(items) = node else {
                    panic!("stats index {i} sits under a value")
                };
                if items.len() <= *i {
                    items.resize(i + 1, Json::Null);
                }
                &mut items[*i]
            }
        };
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        hits: u64,
        hist: Histogram,
        rows: Vec<(&'static str, u64)>,
    }

    const FAKE: &[Family<Fake>] = &[
        counter("fake_hits_total", "hits", "Hits.", |f| one(f.hits)),
        histogram("fake_latency_seconds", "latency_", "Latency.", |f| {
            one(&f.hist)
        }),
        Family {
            unit: Unit::One,
            ..histogram("fake_depth", "depth", "Depth.", |f| one(&f.hist))
        },
        info("rows[].name", "Row name.", |f| {
            f.rows.iter().map(|(n, _)| Sample::new([], *n)).collect()
        }),
        gauge("fake_row_level", "rows[].level", "Row level.", |f| {
            f.rows
                .iter()
                .map(|(n, l)| Sample::new([("row", n.to_string())], *l))
                .collect()
        }),
        gauge("fake_by_name", "named.{row}.level", "Level by name.", |f| {
            f.rows
                .iter()
                .map(|(n, l)| Sample::new([("row", n.to_string())], *l))
                .collect()
        }),
        gauge("fake_never", "never", "Not yet known.", |_| {
            one(None::<f64>)
        }),
        build_info("fake_build_info"),
    ];

    fn fake() -> Fake {
        let f = Fake {
            hits: 3,
            hist: Histogram::default(),
            rows: vec![("a", 1), ("b", 2)],
        };
        f.hist.record(3);
        f.hist.record(5);
        f
    }

    #[test]
    fn stats_places_each_sample_at_its_key() {
        let s = stats_json(FAKE, &fake());
        assert_eq!(s.u64("hits"), 3);
        assert_eq!(s.u64("latency_count"), 2);
        assert_eq!(s.u64("latency_sum_us"), 8);
        assert_eq!(
            s.get("latency_buckets")
                .and_then(Json::as_array)
                .map(<[_]>::len),
            Some(40)
        );
        assert_eq!(
            s.u64("depth.sum"),
            8,
            "unitless histograms drop the _us suffix"
        );
        assert!(s.get("depth.p50").is_some());
        assert_eq!(s.get("rows.1.name").and_then(Json::as_str), Some("b"));
        assert_eq!(s.u64("rows.1.level"), 2);
        assert_eq!(s.u64("named.a.level"), 1);
        assert_eq!(s.get("never"), Some(&Json::Null));
        assert_eq!(s.get("fake_build_info"), None, "exposition-only");
        let empty = Fake {
            rows: Vec::new(),
            ..fake()
        };
        let s = stats_json(FAKE, &empty);
        assert_eq!(s.get("rows"), Some(&Json::Array(Vec::new())));
        assert_eq!(s.get("named"), Some(&Json::Object(Vec::new())));
    }

    #[test]
    fn exposition_renders_types_units_and_absent_values() {
        let text = prometheus_text(FAKE, &fake());
        assert!(text.contains("# TYPE fake_hits_total counter\nfake_hits_total 3\n"));
        // 3 and 5 land in [2,4) and [4,8): le is in seconds for µs.
        assert!(
            text.contains("fake_latency_seconds_bucket{le=\"0.000004\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("fake_latency_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("fake_latency_seconds_sum 0.000008\n"));
        assert!(text.contains("fake_depth_bucket{le=\"8\"} 2\n"));
        assert!(text.contains("fake_depth_sum 8\n"));
        assert!(text.contains("fake_row_level{row=\"b\"} 2\n"));
        assert!(!text.contains("fake_never"), "no sample, no family");
        assert!(!text.contains("Row name."), "info fields stay in stats");
        assert!(text.contains("fake_build_info{version=\""));
    }

    #[test]
    fn label_values_are_escaped() {
        let labels = [("tenant", "x\"} 1\nfake_hits_total 9\\".to_string())];
        assert_eq!(
            label_text(&labels),
            "tenant=\"x\\\"} 1\\nfake_hits_total 9\\\\\""
        );
    }
}
