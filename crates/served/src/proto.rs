//! The `beoptd` wire protocol: newline-delimited JSON over a byte
//! stream, using the deterministic `obs` emitter/parser.
//!
//! Each request is one compact JSON object on one line; each reply is
//! one compact JSON object on one line. The compile payload
//! (`explain`) is the byte-stable explain document: the optimizer is
//! deterministic and the emitter prints integers canonically, so a
//! response round-tripped through the wire re-serializes to exactly
//! the bytes a local `optimize_explained_shared` run produces — the
//! property the `service-chaos` acceptance campaign pins.
//!
//! Errors are structured: a machine code, a human message, and (for
//! overload) a `retry_after_ms` hint so clients back off instead of
//! hammering a saturated shard.

use obs::Json;

/// Protocol version; bumped on incompatible wire changes.
pub const PROTO_VERSION: u64 = 1;

/// Which plan the client wants compiled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanKind {
    /// The paper's full optimizer (barrier elimination + replacement).
    Optimized,
    /// The traditional fork-join baseline (no analysis, no cache).
    ForkJoin,
}

impl PlanKind {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanKind::Optimized => "optimized",
            PlanKind::ForkJoin => "fork-join",
        }
    }

    /// Parse a wire name.
    pub fn from_wire(s: &str) -> Option<Self> {
        match s {
            "optimized" => Some(PlanKind::Optimized),
            "fork-join" => Some(PlanKind::ForkJoin),
            _ => None,
        }
    }
}

/// One compile request.
#[derive(Clone, Debug)]
pub struct OptimizeRequest {
    /// Client-chosen id, echoed in the reply.
    pub id: u64,
    /// Program source text (the `.be` front-end language).
    pub program: String,
    /// Processor count the plan is for.
    pub nprocs: i64,
    /// Symbol bindings by name.
    pub binds: Vec<(String, i64)>,
    /// Which plan to compile.
    pub plan: PlanKind,
    /// Per-request deadline; the service's default applies when absent.
    pub deadline_ms: Option<u64>,
}

/// A parsed client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Compile one program.
    Optimize(OptimizeRequest),
    /// Service and per-shard counters.
    Stats,
    /// Force every shard to persist its cache snapshot now.
    Snapshot,
    /// Graceful shutdown (drain, snapshot, exit).
    Shutdown,
    /// Liveness probe.
    Ping,
}

/// Machine-readable error classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Shard queue full: shed, retry after the hint.
    Overloaded,
    /// The request missed its deadline (queue wait included).
    DeadlineExceeded,
    /// The owning shard crashed mid-request; it is being restarted.
    ShardCrashed,
    /// Malformed request (bad JSON, unknown op, parse error, unknown
    /// symbol). Not retryable.
    BadRequest,
    /// The service is draining; retry against a replacement.
    ShuttingDown,
}

impl ErrorCode {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShardCrashed => "shard_crashed",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }

    /// Parse a wire name.
    pub fn from_wire(s: &str) -> Option<Self> {
        match s {
            "overloaded" => Some(ErrorCode::Overloaded),
            "deadline_exceeded" => Some(ErrorCode::DeadlineExceeded),
            "shard_crashed" => Some(ErrorCode::ShardCrashed),
            "bad_request" => Some(ErrorCode::BadRequest),
            "shutting_down" => Some(ErrorCode::ShuttingDown),
            _ => None,
        }
    }

    /// Whether a client retry (with backoff) can succeed.
    pub fn retryable(self) -> bool {
        !matches!(self, ErrorCode::BadRequest)
    }
}

/// A structured failure reply.
#[derive(Clone, Debug)]
pub struct ErrorReply {
    /// Request id this answers (0 for non-optimize ops).
    pub id: u64,
    /// Error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Backoff hint for retryable errors, in milliseconds.
    pub retry_after_ms: Option<u64>,
}

/// A successful compile reply.
#[derive(Clone, Debug)]
pub struct OptimizeReply {
    /// Echoed request id.
    pub id: u64,
    /// Shard that served the request.
    pub shard: usize,
    /// Deterministic explain document (plan sites + decision log).
    pub explain: Json,
    /// Microseconds spent queued before compilation started.
    pub queue_us: u64,
    /// Microseconds spent compiling.
    pub compile_us: u64,
    /// Executions this request took server-side (1 = clean).
    pub warm_hint: bool,
}

/// Any server reply.
#[derive(Clone, Debug)]
pub enum Reply {
    /// Compile result.
    Optimized(OptimizeReply),
    /// Structured failure.
    Error(ErrorReply),
    /// Stats document.
    Stats(Json),
    /// Bare acknowledgment (snapshot / shutdown / ping).
    Ok(Json),
}

fn num(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

/// Encode a request as one wire line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let doc = match req {
        Request::Optimize(r) => {
            let binds: Vec<Json> = r
                .binds
                .iter()
                .map(|(name, v)| Json::Arr(vec![Json::from(name.as_str()), Json::from(*v)]))
                .collect();
            let mut doc = Json::obj()
                .set("v", PROTO_VERSION)
                .set("op", "optimize")
                .set("id", r.id)
                .set("plan", r.plan.as_str())
                .set("nprocs", r.nprocs)
                .set("binds", binds)
                .set("program", r.program.as_str());
            if let Some(ms) = r.deadline_ms {
                doc = doc.set("deadline_ms", ms);
            }
            doc
        }
        Request::Stats => Json::obj().set("v", PROTO_VERSION).set("op", "stats"),
        Request::Snapshot => Json::obj().set("v", PROTO_VERSION).set("op", "snapshot"),
        Request::Shutdown => Json::obj().set("v", PROTO_VERSION).set("op", "shutdown"),
        Request::Ping => Json::obj().set("v", PROTO_VERSION).set("op", "ping"),
    };
    doc.to_string_compact()
}

/// Decode one request line. `Err` is the human-readable reason (the
/// server answers it with a `bad_request`).
pub fn decode_request(line: &str) -> Result<Request, String> {
    let doc = obs::parse(line).map_err(|e| format!("not JSON: {e}"))?;
    match num(&doc, "v") {
        Some(PROTO_VERSION) => {}
        Some(v) => return Err(format!("protocol version {v} not supported")),
        None => return Err("missing protocol version 'v'".to_string()),
    }
    match doc.get("op").and_then(Json::as_str) {
        Some("optimize") => {
            let id = num(&doc, "id").unwrap_or(0);
            let program = doc
                .get("program")
                .and_then(Json::as_str)
                .ok_or("missing 'program'")?
                .to_string();
            let nprocs = doc
                .get("nprocs")
                .and_then(Json::as_num)
                .ok_or("missing 'nprocs'")? as i64;
            if nprocs < 1 {
                return Err(format!("nprocs {nprocs} out of range"));
            }
            let plan = doc
                .get("plan")
                .and_then(Json::as_str)
                .and_then(PlanKind::from_wire)
                .ok_or("missing or unknown 'plan'")?;
            let mut binds = Vec::new();
            if let Some(arr) = doc.get("binds").and_then(Json::as_arr) {
                for pair in arr {
                    let p = pair.as_arr().ok_or("bind entry is not a pair")?;
                    let (Some(name), Some(v)) = (
                        p.first().and_then(Json::as_str),
                        p.get(1).and_then(Json::as_num),
                    ) else {
                        return Err("bind entry is not [name, value]".to_string());
                    };
                    binds.push((name.to_string(), v as i64));
                }
            }
            Ok(Request::Optimize(OptimizeRequest {
                id,
                program,
                nprocs,
                binds,
                plan,
                deadline_ms: num(&doc, "deadline_ms"),
            }))
        }
        Some("stats") => Ok(Request::Stats),
        Some("snapshot") => Ok(Request::Snapshot),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("ping") => Ok(Request::Ping),
        Some(op) => Err(format!("unknown op '{op}'")),
        None => Err("missing 'op'".to_string()),
    }
}

/// Encode a reply as one wire line (no trailing newline).
pub fn encode_reply(reply: &Reply) -> String {
    let doc = match reply {
        Reply::Optimized(r) => Json::obj()
            .set("id", r.id)
            .set("ok", true)
            .set("shard", r.shard)
            .set("queue_us", r.queue_us)
            .set("compile_us", r.compile_us)
            .set("warm", r.warm_hint)
            .set("explain", r.explain.clone()),
        Reply::Error(e) => {
            let mut doc = Json::obj()
                .set("id", e.id)
                .set("ok", false)
                .set("error", e.code.as_str())
                .set("message", e.message.as_str());
            if let Some(ms) = e.retry_after_ms {
                doc = doc.set("retry_after_ms", ms);
            }
            doc
        }
        Reply::Stats(doc) => Json::obj().set("ok", true).set("stats", doc.clone()),
        Reply::Ok(extra) => {
            let mut doc = Json::obj().set("ok", true);
            if let Json::Obj(pairs) = extra {
                for (k, v) in pairs {
                    doc = doc.set(k, v.clone());
                }
            }
            doc
        }
    };
    doc.to_string_compact()
}

/// Decode one reply line (client side).
pub fn decode_reply(line: &str) -> Result<Reply, String> {
    let doc = obs::parse(line).map_err(|e| format!("not JSON: {e}"))?;
    let ok = doc.get("ok").and_then(Json::as_bool).unwrap_or(false);
    if !ok {
        let code = doc
            .get("error")
            .and_then(Json::as_str)
            .and_then(ErrorCode::from_wire)
            .ok_or("error reply without a known code")?;
        return Ok(Reply::Error(ErrorReply {
            id: num(&doc, "id").unwrap_or(0),
            code,
            message: doc
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            retry_after_ms: num(&doc, "retry_after_ms"),
        }));
    }
    if let Some(explain) = doc.get("explain") {
        return Ok(Reply::Optimized(OptimizeReply {
            id: num(&doc, "id").unwrap_or(0),
            shard: num(&doc, "shard").unwrap_or(0) as usize,
            explain: explain.clone(),
            queue_us: num(&doc, "queue_us").unwrap_or(0),
            compile_us: num(&doc, "compile_us").unwrap_or(0),
            warm_hint: doc.get("warm").and_then(Json::as_bool).unwrap_or(false),
        }));
    }
    if let Some(stats) = doc.get("stats") {
        return Ok(Reply::Stats(stats.clone()));
    }
    Ok(Reply::Ok(doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimize_request_round_trips() {
        let req = Request::Optimize(OptimizeRequest {
            id: 42,
            program: "program p\nsym n\n".to_string(),
            nprocs: 4,
            binds: vec![("n".to_string(), 48), ("tmax".to_string(), 3)],
            plan: PlanKind::Optimized,
            deadline_ms: Some(250),
        });
        let line = encode_request(&req);
        assert!(!line.contains('\n'), "wire line must be newline-free");
        let back = decode_request(&line).unwrap();
        let Request::Optimize(r) = back else {
            panic!("wrong op")
        };
        assert_eq!(r.id, 42);
        assert_eq!(r.program, "program p\nsym n\n");
        assert_eq!(r.nprocs, 4);
        assert_eq!(
            r.binds,
            vec![("n".to_string(), 48), ("tmax".to_string(), 3)]
        );
        assert_eq!(r.plan, PlanKind::Optimized);
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn error_reply_round_trips_with_retry_hint() {
        let reply = Reply::Error(ErrorReply {
            id: 7,
            code: ErrorCode::Overloaded,
            message: "queue full".to_string(),
            retry_after_ms: Some(3),
        });
        let line = encode_reply(&reply);
        let Reply::Error(e) = decode_reply(&line).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(e.id, 7);
        assert_eq!(e.code, ErrorCode::Overloaded);
        assert_eq!(e.retry_after_ms, Some(3));
        assert!(e.code.retryable());
        assert!(!ErrorCode::BadRequest.retryable());
    }

    #[test]
    fn explain_payload_survives_the_wire_byte_for_byte() {
        let explain = Json::obj()
            .set("program", "p")
            .set("sites", vec![Json::obj().set("site", 0u64)])
            .set("ok", true);
        let reply = Reply::Optimized(OptimizeReply {
            id: 1,
            shard: 0,
            explain: explain.clone(),
            queue_us: 10,
            compile_us: 20,
            warm_hint: true,
        });
        let Reply::Optimized(r) = decode_reply(&encode_reply(&reply)).unwrap() else {
            panic!("wrong reply kind")
        };
        assert_eq!(
            r.explain.to_string_pretty(),
            explain.to_string_pretty(),
            "explain bytes must survive the wire"
        );
    }

    #[test]
    fn malformed_requests_are_refused_with_reasons() {
        assert!(decode_request("not json").is_err());
        assert!(decode_request("{\"op\":\"optimize\"}").is_err()); // no version
        assert!(decode_request("{\"v\":1}").is_err()); // no op
        assert!(decode_request("{\"v\":99,\"op\":\"ping\"}").is_err());
        assert!(decode_request("{\"v\":1,\"op\":\"warp\"}").is_err());
        // optimize without a program
        assert!(decode_request(
            "{\"v\":1,\"op\":\"optimize\",\"id\":1,\"plan\":\"optimized\",\"nprocs\":4}"
        )
        .is_err());
    }
}
