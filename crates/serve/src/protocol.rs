//! The wire protocol: newline-delimited JSON request/response framing.
//!
//! One request per line, one response line per request, in order.  The
//! full field reference lives in `docs/SERVING.md`; the shapes are:
//!
//! ```text
//! → {"op":"eval","spec":"worst:d=2,n=10","algo":"cascade:w=1","deadline_ms":250,"id":"r1"}
//! ← {"ok":true,"id":"r1","value":1,"work":1024,"steps":0,"cached":false,"latency_us":812}
//! ← {"ok":false,"id":"r1","status":429,"code":"busy","error":"queue full"}
//! ```
//!
//! A malformed line yields an `ok:false` reply with `status` 400 and
//! the connection stays open — clients never have to reconnect to
//! recover from their own bad input.

use gt_analysis::json::render_object;
use gt_analysis::Json;

/// Protocol revision, reported by `ping`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Request operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Evaluate a workload (`spec` + `algo`).
    Eval,
    /// Evaluate one subtree of a workload under an α/β window
    /// (`spec` + `path` + `alpha`/`beta`) — the scatter half of the
    /// router's split plans.  The replica regenerates the subtree
    /// locally from the spec; no tree data crosses the wire.
    Subeval,
    /// Return the metrics snapshot.
    Stats,
    /// Liveness/version probe.
    Ping,
    /// Begin a graceful drain: in-flight work completes, new evals are
    /// rejected, the server exits once idle.
    Shutdown,
    /// Return recent request traces from the flight recorder.
    Trace,
    /// Cheap liveness probe: uptime, queue depth, and in-flight count
    /// without the allocation cost of a full `stats` snapshot.  Built
    /// for high-frequency pollers (the gt-router health prober).
    Health,
    /// Membership announcement (replica → router): `addr` is the
    /// announcing replica's serving address, `weight` its routing
    /// weight, `generation` a counter bumped on every (re)start so the
    /// router can tell a reborn replica from a stale duplicate.
    Join,
    /// Bounded bulk cache read (peer → peer warm-fill): return up to
    /// `n` of the hottest cache entries (MRU-first) as a `cachepull`
    /// reply so a (re)joining replica can warm its shard from
    /// hash-order peers instead of serving a cold storm.
    Cachepull,
}

/// Wire-propagated distributed-trace context.  A client (or the
/// router, on the client's behalf) attaches `trace` to an `eval` or
/// `subeval`; the server echoes it in the reply together with its
/// stage offsets, so the originating tier can graft the replica's
/// work into its span tree as a child span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Fleet-unique trace identifier (opaque non-empty string).
    pub trace_id: String,
    /// Span id of the parent span at the sending tier; absent when
    /// the sender is the trace root.
    pub parent_span: Option<u64>,
}

impl TraceContext {
    /// Parse a `trace` field value.  Strict: a present-but-malformed
    /// context is a protocol error (the caller answers 400), never
    /// silently dropped — a typo'd trace id should not turn into an
    /// untraced request.
    pub fn from_json(v: &Json) -> Result<TraceContext, String> {
        if !matches!(v, Json::Object(_)) {
            return Err("trace must be an object".into());
        }
        let trace_id = match v.get("trace_id") {
            Some(Json::Str(s)) if !s.is_empty() => s.clone(),
            Some(Json::Str(_)) => return Err("trace.trace_id must be non-empty".into()),
            Some(_) => return Err("trace.trace_id must be a string".into()),
            None => return Err("trace needs a \"trace_id\" field".into()),
        };
        let parent_span =
            match v.get("parent_span") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    "trace.parent_span must be a non-negative integer".to_string()
                })?),
            };
        Ok(TraceContext {
            trace_id,
            parent_span,
        })
    }

    /// Serialize as a `trace` field value.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("trace_id".to_string(), Json::from(self.trace_id.clone()))];
        if let Some(span) = self.parent_span {
            fields.push(("parent_span".into(), Json::from(span)));
        }
        Json::Object(fields)
    }
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen tag echoed back in the reply (string or integer).
    pub id: Option<String>,
    /// Operation; defaults to `eval` when the field is absent.
    pub op: Op,
    /// Workload spec (`kind:key=val,...`), required for `eval` and
    /// `subeval`.
    pub spec: Option<String>,
    /// Algorithm selector (`name` or `name:key=val,...`).
    pub algo: Option<String>,
    /// Per-request deadline; overrides the server default.
    pub deadline_ms: Option<u64>,
    /// For `trace`: cap on the number of returned traces.
    pub n: Option<u64>,
    /// For `subeval`: dot-joined path from the whole-tree root to the
    /// subtree root (`"0.2.1"`; empty or absent means the whole tree).
    pub path: Option<String>,
    /// For `subeval`: lower search bound; absent means unbounded.
    pub alpha: Option<i64>,
    /// For `subeval`: upper search bound; absent means unbounded.
    pub beta: Option<i64>,
    /// Distributed-trace context: propagated on `eval`/`subeval` so
    /// replica work can be grafted into the sender's span tree, and
    /// accepted on `trace` as a span-tree lookup key.
    pub trace: Option<TraceContext>,
    /// Tenant id for fair scheduling (`eval`/`subeval`); absent means
    /// the anonymous shared tenant.
    pub tenant: Option<String>,
    /// For `join`: the announcing replica's serving address.
    pub addr: Option<String>,
    /// For `join`: the announcing replica's routing weight (keyspace
    /// share is proportional; see `gt_router::hash::rank_weighted`).
    pub weight: Option<u64>,
    /// For `join`: restart counter distinguishing a reborn replica
    /// from a stale announcement of its previous life.
    pub generation: Option<u64>,
}

impl Default for Request {
    /// An empty `eval` request — the base for struct-update literals
    /// (`Request { op: Op::Stats, ..Default::default() }`).  `eval` is
    /// the default because it is also the wire default for an absent
    /// `op` field.
    fn default() -> Request {
        Request {
            id: None,
            op: Op::Eval,
            spec: None,
            algo: None,
            deadline_ms: None,
            n: None,
            path: None,
            alpha: None,
            beta: None,
            trace: None,
            tenant: None,
            addr: None,
            weight: None,
            generation: None,
        }
    }
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let j = Json::parse(line)?;
        if !matches!(j, Json::Object(_)) {
            return Err("request must be a JSON object".into());
        }
        let op = match j.get("op").and_then(Json::as_str).unwrap_or("eval") {
            "eval" => Op::Eval,
            "subeval" => Op::Subeval,
            "stats" => Op::Stats,
            "ping" => Op::Ping,
            "shutdown" => Op::Shutdown,
            "trace" => Op::Trace,
            "health" => Op::Health,
            "join" => Op::Join,
            "cachepull" => Op::Cachepull,
            other => return Err(format!("unknown op {other:?}")),
        };
        let id = j.get("id").and_then(|v| match v {
            Json::Str(s) => Some(s.clone()),
            Json::Int(i) => Some(i.to_string()),
            _ => None,
        });
        let spec = j.get("spec").and_then(Json::as_str).map(str::to_string);
        let algo = j.get("algo").and_then(Json::as_str).map(str::to_string);
        let deadline_ms = match j.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "deadline_ms must be a non-negative integer".to_string())?,
            ),
        };
        let n = match j.get("n") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "n must be a non-negative integer".to_string())?,
            ),
        };
        let path = j.get("path").and_then(Json::as_str).map(str::to_string);
        let bound = |key: &str| -> Result<Option<i64>, String> {
            match j.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_int()
                    .and_then(|i| i64::try_from(i).ok())
                    .map(Some)
                    .ok_or_else(|| format!("{key} must be an integer")),
            }
        };
        let alpha = bound("alpha")?;
        let beta = bound("beta")?;
        let trace = match j.get("trace") {
            None | Some(Json::Null) => None,
            Some(v) => Some(TraceContext::from_json(v)?),
        };
        let tenant = match j.get("tenant") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) if !s.is_empty() => Some(s.clone()),
            Some(Json::Str(_)) => return Err("tenant must be non-empty".into()),
            Some(_) => return Err("tenant must be a string".into()),
        };
        let addr = j.get("addr").and_then(Json::as_str).map(str::to_string);
        let uint = |key: &str| -> Result<Option<u64>, String> {
            match j.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("{key} must be a non-negative integer")),
            }
        };
        let weight = uint("weight")?;
        let generation = uint("generation")?;
        if matches!(op, Op::Eval | Op::Subeval) && spec.is_none() {
            return Err(format!("{op:?} request needs a \"spec\" field").to_lowercase());
        }
        if op == Op::Join && addr.as_deref().is_none_or(str::is_empty) {
            return Err("join request needs a non-empty \"addr\" field".into());
        }
        Ok(Request {
            id,
            op,
            spec,
            algo,
            deadline_ms,
            n,
            path,
            alpha,
            beta,
            trace,
            tenant,
            addr,
            weight,
            generation,
        })
    }

    /// Build an `eval` request (client side).
    pub fn eval(spec: &str, algo: &str, deadline_ms: Option<u64>) -> Request {
        Request {
            op: Op::Eval,
            spec: Some(spec.to_string()),
            algo: Some(algo.to_string()),
            deadline_ms,
            ..Default::default()
        }
    }

    /// Build a `join` announcement (replica → router).
    pub fn join(addr: &str, weight: u64, generation: u64) -> Request {
        Request {
            op: Op::Join,
            addr: Some(addr.to_string()),
            weight: Some(weight),
            generation: Some(generation),
            ..Default::default()
        }
    }

    /// Build a `cachepull` request (peer warm-fill): ask for up to
    /// `limit` of the peer's hottest cache entries.
    pub fn cachepull(limit: u64) -> Request {
        Request {
            op: Op::Cachepull,
            n: Some(limit),
            ..Default::default()
        }
    }

    /// Build a `subeval` request (client side).  `path` is dot-joined
    /// child indices from the whole-tree root; `i64::MIN`/`i64::MAX`
    /// bounds are elided from the wire.
    pub fn subeval(
        spec: &str,
        path: &str,
        alpha: i64,
        beta: i64,
        deadline_ms: Option<u64>,
    ) -> Request {
        Request {
            op: Op::Subeval,
            spec: Some(spec.to_string()),
            deadline_ms,
            path: if path.is_empty() {
                None
            } else {
                Some(path.to_string())
            },
            alpha: (alpha != i64::MIN).then_some(alpha),
            beta: (beta != i64::MAX).then_some(beta),
            ..Default::default()
        }
    }

    /// Serialize to a single request line (no trailing newline).
    pub fn render(&self) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let op = match self.op {
            Op::Eval => "eval",
            Op::Subeval => "subeval",
            Op::Stats => "stats",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
            Op::Trace => "trace",
            Op::Health => "health",
            Op::Join => "join",
            Op::Cachepull => "cachepull",
        };
        fields.push(("op".into(), Json::from(op)));
        if let Some(id) = &self.id {
            fields.push(("id".into(), Json::from(id.clone())));
        }
        if let Some(spec) = &self.spec {
            fields.push(("spec".into(), Json::from(spec.clone())));
        }
        if let Some(algo) = &self.algo {
            fields.push(("algo".into(), Json::from(algo.clone())));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Json::from(ms)));
        }
        if let Some(n) = self.n {
            fields.push(("n".into(), Json::from(n)));
        }
        if let Some(path) = &self.path {
            fields.push(("path".into(), Json::from(path.clone())));
        }
        if let Some(alpha) = self.alpha {
            fields.push(("alpha".into(), Json::from(alpha)));
        }
        if let Some(beta) = self.beta {
            fields.push(("beta".into(), Json::from(beta)));
        }
        if let Some(trace) = &self.trace {
            fields.push(("trace".into(), trace.to_json()));
        }
        if let Some(tenant) = &self.tenant {
            fields.push(("tenant".into(), Json::from(tenant.clone())));
        }
        if let Some(addr) = &self.addr {
            fields.push(("addr".into(), Json::from(addr.clone())));
        }
        if let Some(weight) = self.weight {
            fields.push(("weight".into(), Json::from(weight)));
        }
        if let Some(generation) = self.generation {
            fields.push(("generation".into(), Json::from(generation)));
        }
        Json::Object(fields).render()
    }
}

/// Reply error categories, with HTTP-flavoured status numbers so
/// clients can triage without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unparseable or invalid request (400).
    BadRequest,
    /// Deadline expired before a result was ready (408).
    Timeout,
    /// Queue full — request shed, try again later (429).
    Busy,
    /// Internal failure (500).
    Internal,
    /// Server is draining for shutdown (503).
    Draining,
}

impl ErrorCode {
    /// Numeric status.
    pub fn status(self) -> u64 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::Timeout => 408,
            ErrorCode::Busy => 429,
            ErrorCode::Internal => 500,
            ErrorCode::Draining => 503,
        }
    }

    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Busy => "busy",
            ErrorCode::Internal => "internal",
            ErrorCode::Draining => "draining",
        }
    }
}

/// Render a success reply line from `fields` (no trailing newline).
pub fn ok_line(id: &Option<String>, fields: Vec<(&'static str, Json)>) -> String {
    reply_line(true, id, &fields, &[])
}

/// Render a reply object, `ok`, the echoed `id`, then `fields` and
/// `more`, with no key copied.
fn reply_line(
    ok: bool,
    id: &Option<String>,
    fields: &[(&str, Json)],
    more: &[(&str, Json)],
) -> String {
    let ok = Json::Bool(ok);
    let id = id.as_deref().map(Json::from);
    let head = std::iter::once(("ok", &ok)).chain(id.as_ref().map(|id| ("id", id)));
    let rest = fields.iter().chain(more).map(|(k, v)| (*k, v));
    render_object(head.chain(rest))
}

/// Render an error reply line (no trailing newline).
pub fn error_line(id: &Option<String>, code: ErrorCode, message: &str) -> String {
    error_line_with(id, code, message, Vec::new())
}

/// Render an error reply line with extra op-specific fields — the
/// `busy` shed path uses this to attach its `retry_after_ms` backoff
/// hint.
pub fn error_line_with(
    id: &Option<String>,
    code: ErrorCode,
    message: &str,
    extra: Vec<(&'static str, Json)>,
) -> String {
    let fields = [
        ("status", Json::from(code.status())),
        ("code", Json::from(code.name())),
        ("error", Json::from(message)),
    ];
    reply_line(false, id, &fields, &extra)
}

/// A parsed response line (client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// Success flag.
    pub ok: bool,
    /// Echo of the request id, when one was sent.
    pub id: Option<String>,
    /// Status number for errors (400/408/429/500/503); 0 on success.
    pub status: u64,
    /// Machine-readable error code name, for errors.
    pub code: Option<String>,
    /// Human-readable error message, for errors.
    pub error: Option<String>,
    /// The whole reply object, for access to op-specific fields
    /// (`value`, `work`, `cached`, `stats`, ...).
    pub body: Json,
}

impl Response {
    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let body = Json::parse(line)?;
        let ok = body
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| "response missing \"ok\"".to_string())?;
        let id = body.get("id").and_then(Json::as_str).map(str::to_string);
        let status = body.get("status").and_then(Json::as_u64).unwrap_or(0);
        let code = body.get("code").and_then(Json::as_str).map(str::to_string);
        let error = body.get("error").and_then(Json::as_str).map(str::to_string);
        Ok(Response {
            ok,
            id,
            status,
            code,
            error,
            body,
        })
    }

    /// The root value, for successful eval replies.
    pub fn value(&self) -> Option<i64> {
        self.body
            .get("value")
            .and_then(Json::as_int)
            .and_then(|v| i64::try_from(v).ok())
    }

    /// Leaves evaluated by the run, from the reply's `work` object —
    /// the per-sub-eval work figure split plans sum.
    pub fn leaves(&self) -> Option<u64> {
        self.body
            .get("work")
            .and_then(|w| w.get("leaves"))
            .and_then(Json::as_u64)
    }

    /// Whether the reply was served from the result cache.
    pub fn cached(&self) -> bool {
        self.body
            .get("cached")
            .and_then(Json::as_bool)
            .unwrap_or(false)
    }

    /// Whether the reply was coalesced onto another request's engine
    /// run (single flight) instead of running its own.
    pub fn coalesced(&self) -> bool {
        self.body
            .get("coalesced")
            .and_then(Json::as_bool)
            .unwrap_or(false)
    }

    /// The backoff hint carried by `busy` (429) shed replies, in
    /// milliseconds: roughly how long the server expects its backlog
    /// to take to drain.
    pub fn retry_after_ms(&self) -> Option<u64> {
        self.body.get("retry_after_ms").and_then(Json::as_u64)
    }

    /// The trace id echoed (replica) or minted (router) for this
    /// request, from the reply's `trace_id` field or `trace` object.
    pub fn trace_id(&self) -> Option<&str> {
        self.body
            .get("trace_id")
            .and_then(Json::as_str)
            .or_else(|| {
                self.body
                    .get("trace")
                    .and_then(|t| t.get("trace_id"))
                    .and_then(Json::as_str)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_eval_request() {
        let r = Request::parse(r#"{"spec":"worst:d=2,n=4"}"#).unwrap();
        assert_eq!(r.op, Op::Eval);
        assert_eq!(r.spec.as_deref(), Some("worst:d=2,n=4"));
        assert_eq!(r.algo, None);
        assert_eq!(r.deadline_ms, None);
        assert_eq!(r.id, None);
    }

    #[test]
    fn parses_full_request_and_integer_id() {
        let r = Request::parse(
            r#"{"op":"eval","id":7,"spec":"crit:n=6","algo":"round:w=2","deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("7"));
        assert_eq!(r.algo.as_deref(), Some("round:w=2"));
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn control_ops_parse_without_spec() {
        for (text, op) in [
            (r#"{"op":"stats"}"#, Op::Stats),
            (r#"{"op":"ping"}"#, Op::Ping),
            (r#"{"op":"shutdown"}"#, Op::Shutdown),
            (r#"{"op":"health"}"#, Op::Health),
        ] {
            assert_eq!(Request::parse(text).unwrap().op, op);
        }
    }

    #[test]
    fn health_op_render_parse_round_trips() {
        let mut r = Request::parse(r#"{"op":"health"}"#).unwrap();
        r.id = Some("h1".into());
        let back = Request::parse(&r.render()).unwrap();
        assert_eq!(back.op, Op::Health);
        assert_eq!(back.id.as_deref(), Some("h1"));
    }

    #[test]
    fn join_op_round_trips_and_requires_an_addr() {
        let r = Request::parse(r#"{"op":"join","addr":"10.0.0.7:7171","weight":4,"generation":2}"#)
            .unwrap();
        assert_eq!(r.op, Op::Join);
        assert_eq!(r.addr.as_deref(), Some("10.0.0.7:7171"));
        assert_eq!(r.weight, Some(4));
        assert_eq!(r.generation, Some(2));
        // Render/parse round-trip via the constructor.
        let back = Request::parse(&Request::join("10.0.0.7:7171", 4, 2).render()).unwrap();
        assert_eq!(back.op, Op::Join);
        assert_eq!(back.addr.as_deref(), Some("10.0.0.7:7171"));
        assert_eq!(back.weight, Some(4));
        assert_eq!(back.generation, Some(2));
        // A join without (or with an empty) addr is malformed.
        assert!(Request::parse(r#"{"op":"join"}"#).is_err());
        assert!(Request::parse(r#"{"op":"join","addr":""}"#).is_err());
        assert!(Request::parse(r#"{"op":"join","addr":"a:1","weight":-2}"#).is_err());
        assert!(Request::parse(r#"{"op":"join","addr":"a:1","generation":"x"}"#).is_err());
    }

    #[test]
    fn cachepull_op_round_trips_with_its_limit() {
        let r = Request::parse(r#"{"op":"cachepull","n":64}"#).unwrap();
        assert_eq!(r.op, Op::Cachepull);
        assert_eq!(r.n, Some(64));
        let back = Request::parse(&Request::cachepull(64).render()).unwrap();
        assert_eq!(back.op, Op::Cachepull);
        assert_eq!(back.n, Some(64));
        // Limit is optional: the replica applies its default.
        assert_eq!(Request::parse(r#"{"op":"cachepull"}"#).unwrap().n, None);
    }

    #[test]
    fn tenant_field_round_trips_and_rejects_junk() {
        let r = Request::parse(r#"{"spec":"worst:d=2,n=4","tenant":"team-a"}"#).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("team-a"));
        let back = Request::parse(&r.render()).unwrap();
        assert_eq!(back.tenant.as_deref(), Some("team-a"));
        // Empty or non-string tenants are malformed, not ignored.
        assert!(Request::parse(r#"{"spec":"worst:d=2,n=4","tenant":""}"#).is_err());
        assert!(Request::parse(r#"{"spec":"worst:d=2,n=4","tenant":7}"#).is_err());
    }

    #[test]
    fn trace_op_parses_with_optional_limit() {
        let r = Request::parse(r#"{"op":"trace"}"#).unwrap();
        assert_eq!(r.op, Op::Trace);
        assert_eq!(r.n, None);
        let r = Request::parse(r#"{"op":"trace","n":5}"#).unwrap();
        assert_eq!(r.n, Some(5));
        assert!(Request::parse(r#"{"op":"trace","n":"lots"}"#).is_err());
        // Render/parse round-trip keeps the limit.
        let mut req = Request::parse(r#"{"op":"trace"}"#).unwrap();
        req.n = Some(3);
        let back = Request::parse(&req.render()).unwrap();
        assert_eq!(back.op, Op::Trace);
        assert_eq!(back.n, Some(3));
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("[1,2]").is_err());
        assert!(Request::parse(r#"{"op":"frobnicate"}"#).is_err());
        assert!(Request::parse(r#"{"op":"eval"}"#).is_err(), "spec required");
        assert!(Request::parse(r#"{"spec":"x","deadline_ms":-5}"#).is_err());
        assert!(Request::parse(r#"{"spec":"x","deadline_ms":"soon"}"#).is_err());
        assert!(
            Request::parse(r#"{"op":"subeval"}"#).is_err(),
            "spec required"
        );
        assert!(Request::parse(r#"{"op":"subeval","spec":"x","alpha":"low"}"#).is_err());
        assert!(Request::parse(r#"{"op":"subeval","spec":"x","beta":1.5}"#).is_err());
    }

    #[test]
    fn subeval_request_round_trips() {
        let r = Request::parse(
            r#"{"op":"subeval","id":"s1","spec":"minmax:d=3,n=6","path":"2.0","alpha":-5,"beta":40,"deadline_ms":80}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Subeval);
        assert_eq!(r.path.as_deref(), Some("2.0"));
        assert_eq!((r.alpha, r.beta), (Some(-5), Some(40)));
        let back = Request::parse(&r.render()).unwrap();
        assert_eq!(back.path, r.path);
        assert_eq!((back.alpha, back.beta), (r.alpha, r.beta));
        assert_eq!(back.deadline_ms, Some(80));

        // The constructor elides unbounded window halves and the empty
        // (whole-tree) path from the wire.
        let r = Request::subeval("worst:d=2,n=8", "", i64::MIN, i64::MAX, None);
        let text = r.render();
        assert!(!text.contains("alpha") && !text.contains("beta") && !text.contains("path"));
        let back = Request::parse(&text).unwrap();
        assert_eq!(back.op, Op::Subeval);
        assert_eq!((back.path, back.alpha, back.beta), (None, None, None));
    }

    #[test]
    fn request_render_parse_round_trips() {
        let mut r = Request::eval("worst:d=2,n=8", "cascade:w=1", Some(100));
        r.id = Some("tag".into());
        let back = Request::parse(&r.render()).unwrap();
        assert_eq!(back.op, Op::Eval);
        assert_eq!(back.id.as_deref(), Some("tag"));
        assert_eq!(back.spec, r.spec);
        assert_eq!(back.algo, r.algo);
        assert_eq!(back.deadline_ms, Some(100));
    }

    #[test]
    fn reply_lines_keep_their_bytes_with_escapes_in_ids_keys_and_values() {
        // Pinned bytes: escapes in the id, in keys and in values.
        let id = Some("id \"7\"\\\u{2}ü".to_string());
        let work = Json::obj([("leaves", Json::from(9u64)), ("w\"k", Json::from("ä\n"))]);
        let line = ok_line(&id, vec![("value", Json::from(-3i64)), ("work", work)]);
        assert_eq!(
            line,
            "{\"ok\":true,\"id\":\"id \\\"7\\\"\\\\\\u0002ü\",\"value\":-3,\
             \"work\":{\"leaves\":9,\"w\\\"k\":\"ä\\n\"}}"
        );
        assert_eq!(ok_line(&None, vec![]), "{\"ok\":true}");
        let line = error_line_with(
            &id,
            ErrorCode::Busy,
            "full \"queue\"\u{3}ß",
            vec![("retry_after_ms", Json::from(25u64))],
        );
        assert_eq!(
            line,
            "{\"ok\":false,\"id\":\"id \\\"7\\\"\\\\\\u0002ü\",\"status\":429,\
             \"code\":\"busy\",\"error\":\"full \\\"queue\\\"\\u0003ß\",\"retry_after_ms\":25}"
        );
    }

    #[test]
    fn ok_and_error_lines_parse_back() {
        let id = Some("q".to_string());
        let line = ok_line(
            &id,
            vec![("value", Json::from(3i64)), ("cached", Json::Bool(true))],
        );
        let resp = Response::parse(&line).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.id.as_deref(), Some("q"));
        assert_eq!(resp.value(), Some(3));
        assert!(resp.cached());

        let line = error_line(&id, ErrorCode::Busy, "queue full");
        let resp = Response::parse(&line).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.status, 429);
        assert_eq!(resp.code.as_deref(), Some("busy"));
        assert_eq!(resp.error.as_deref(), Some("queue full"));
        assert_eq!(resp.retry_after_ms(), None);
    }

    #[test]
    fn busy_line_carries_a_retry_after_hint() {
        let line = error_line_with(
            &None,
            ErrorCode::Busy,
            "queue full",
            vec![("retry_after_ms", Json::from(40u64))],
        );
        let resp = Response::parse(&line).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after_ms(), Some(40));
    }

    #[test]
    fn absent_trace_context_parses_as_none() {
        let r = Request::parse(r#"{"spec":"worst:d=2,n=4"}"#).unwrap();
        assert_eq!(r.trace, None);
        // Explicit null is treated the same as absent.
        let r = Request::parse(r#"{"spec":"worst:d=2,n=4","trace":null}"#).unwrap();
        assert_eq!(r.trace, None);
        // And an untraced request renders without a trace field.
        assert!(!Request::eval("worst:d=2,n=4", "seq", None)
            .render()
            .contains("trace"));
    }

    #[test]
    fn client_supplied_trace_context_round_trips() {
        let r = Request::parse(
            r#"{"spec":"worst:d=2,n=4","trace":{"trace_id":"t-42","parent_span":7}}"#,
        )
        .unwrap();
        let ctx = r.trace.clone().unwrap();
        assert_eq!(ctx.trace_id, "t-42");
        assert_eq!(ctx.parent_span, Some(7));
        let back = Request::parse(&r.render()).unwrap();
        assert_eq!(back.trace, r.trace);

        // A root context has no parent_span, on the wire or back.
        let mut req = Request::eval("worst:d=2,n=4", "seq", None);
        req.trace = Some(TraceContext {
            trace_id: "root-1".into(),
            parent_span: None,
        });
        let text = req.render();
        assert!(!text.contains("parent_span"));
        assert_eq!(Request::parse(&text).unwrap().trace, req.trace);
    }

    #[test]
    fn malformed_trace_context_is_rejected() {
        // Each of these must fail the parse so the server's existing
        // bad-request path answers 400.
        for line in [
            r#"{"spec":"x","trace":"t-1"}"#,           // not an object
            r#"{"spec":"x","trace":{}}"#,              // missing trace_id
            r#"{"spec":"x","trace":{"trace_id":""}}"#, // empty trace_id
            r#"{"spec":"x","trace":{"trace_id":9}}"#,  // non-string trace_id
            r#"{"spec":"x","trace":{"trace_id":"t","parent_span":-1}}"#, // negative span
            r#"{"spec":"x","trace":{"trace_id":"t","parent_span":"s"}}"#, // non-integer span
        ] {
            assert!(Request::parse(line).is_err(), "should reject: {line}");
        }
    }

    #[test]
    fn response_trace_id_reads_both_shapes() {
        // Router replies carry a flat trace_id...
        let line = ok_line(&None, vec![("trace_id", Json::from("t-9"))]);
        assert_eq!(Response::parse(&line).unwrap().trace_id(), Some("t-9"));
        // ...replica replies echo the full trace object.
        let line = ok_line(
            &None,
            vec![(
                "trace",
                Json::Object(vec![("trace_id".into(), Json::from("t-10"))]),
            )],
        );
        assert_eq!(Response::parse(&line).unwrap().trace_id(), Some("t-10"));
        assert_eq!(Response::parse(r#"{"ok":true}"#).unwrap().trace_id(), None);
    }

    #[test]
    fn every_error_code_has_distinct_status_and_name() {
        let codes = [
            ErrorCode::BadRequest,
            ErrorCode::Timeout,
            ErrorCode::Busy,
            ErrorCode::Internal,
            ErrorCode::Draining,
        ];
        let statuses: std::collections::BTreeSet<u64> = codes.iter().map(|c| c.status()).collect();
        let names: std::collections::BTreeSet<&str> = codes.iter().map(|c| c.name()).collect();
        assert_eq!(statuses.len(), codes.len());
        assert_eq!(names.len(), codes.len());
    }
}
