//! The typed protocol: request/response messages and their encoding.
//!
//! A frame payload is one of two things, told apart by its first byte.
//! A payload starting with `{` is a *control message*: one JSON object
//! with a `"type"` discriminator, encoded and decoded through
//! `bgpq_graph::io::json` — the same dependency-free JSON the dataset
//! loaders use. Every request is a control message. Anything else is a
//! binary *row block* ([`crate::block`]): the rows of a streamed answer,
//! which are node ids and typed values and never pass through text.
//!
//! Decoding is total: any malformed payload becomes a typed
//! `Err(String)` which sessions answer with [`ErrorCode::Parse`] rather
//! than dropping the connection, so clients can always tell their own
//! mistakes (`parse`, `bad_pattern`, `unbounded`...) from server-side
//! conditions (`overloaded`, `draining`, `internal`). See
//! `docs/PROTOCOL.md` for the normative spec.

use crate::block::{RowBlock, SimBlock, TAG_MATCH_BLOCK, TAG_SIM_BLOCK};
use bgpq_engine::{Semantics, StrategyKind, Value};
use bgpq_graph::io::json::{parse_json, Json};
use bgpq_serve::Update;

/// The protocol version this build speaks. A server receiving a `hello`
/// with a different version answers [`ErrorCode::Protocol`] and closes;
/// bumping this constant is a wire-breaking change (see the versioning
/// rules in `docs/PROTOCOL.md`).
pub const PROTOCOL_VERSION: u64 = 2;

/// Typed protocol error codes, so clients can distinguish their own fault
/// from the server's state without parsing prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Framing or session-state violation (bad handshake, request before
    /// `hello`, unsupported protocol version). The server closes after
    /// sending this.
    Protocol,
    /// The payload was not valid JSON or not a well-formed request.
    Parse,
    /// A frame exceeded the server's size limit. The server closes after
    /// sending this (the stream position is unrecoverable).
    TooLarge,
    /// The query's pattern text failed to parse.
    BadPattern,
    /// The pattern is not effectively bounded under the server's access
    /// schema and the request forced the bounded strategy.
    Unbounded,
    /// The request forced a strategy the server cannot run for it.
    StrategyUnavailable,
    /// An update batch was rejected (e.g. an edge endpoint does not exist);
    /// no change was published.
    BadUpdate,
    /// The deadline-derived step budget was exhausted before the query
    /// completed; no partial answer is returned for deadline overruns.
    BudgetExceeded,
    /// The admission gate's in-flight cap is reached; retry after the hint.
    Overloaded,
    /// The server is draining (shutdown or maintenance); in-flight work
    /// completes but new requests are rejected.
    Draining,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// The wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Parse => "parse",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::BadPattern => "bad_pattern",
            ErrorCode::Unbounded => "unbounded",
            ErrorCode::StrategyUnavailable => "strategy_unavailable",
            ErrorCode::BadUpdate => "bad_update",
            ErrorCode::BudgetExceeded => "budget_exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name back into a code.
    pub fn parse(name: &str) -> Option<ErrorCode> {
        Some(match name {
            "protocol" => ErrorCode::Protocol,
            "parse" => ErrorCode::Parse,
            "too_large" => ErrorCode::TooLarge,
            "bad_pattern" => ErrorCode::BadPattern,
            "unbounded" => ErrorCode::Unbounded,
            "strategy_unavailable" => ErrorCode::StrategyUnavailable,
            "bad_update" => ErrorCode::BadUpdate,
            "budget_exceeded" => ErrorCode::BudgetExceeded,
            "overloaded" => ErrorCode::Overloaded,
            "draining" => ErrorCode::Draining,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// True when the client may usefully retry the same request later.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::Draining)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One query as specified over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The textual pattern (the `bgpq-pattern::parse` syntax).
    pub pattern: String,
    /// Query semantics.
    pub semantics: Semantics,
    /// Forced strategy, `None` for automatic selection.
    pub strategy: Option<StrategyKind>,
    /// Stop after this many matches.
    pub max_matches: Option<usize>,
    /// Explicit step budget (deterministic time budget).
    pub step_budget: Option<u64>,
    /// Wall-clock deadline in milliseconds, mapped onto a step budget by
    /// the server's [`BudgetPolicy`](bgpq_engine::BudgetPolicy).
    pub deadline_ms: Option<u64>,
    /// Request the fetch plan / fallback reason alongside the answer.
    pub explain: bool,
}

impl QuerySpec {
    /// A spec with defaults (isomorphism, auto strategy, no budgets).
    pub fn new(pattern: impl Into<String>) -> Self {
        QuerySpec {
            pattern: pattern.into(),
            semantics: Semantics::Isomorphism,
            strategy: None,
            max_matches: None,
            step_budget: None,
            deadline_ms: None,
            explain: false,
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Session handshake; must be the first frame on a connection.
    Hello {
        /// The protocol version the client speaks.
        protocol: u64,
        /// Self-reported client name, the key for per-client stats.
        client: String,
    },
    /// Evaluate a pattern query.
    Query(QuerySpec),
    /// Commit a batch of graph updates.
    Update(Vec<Update>),
    /// Fetch server and per-client counters.
    Stats,
    /// Liveness probe; answered with the current epoch.
    Ping,
    /// Orderly session end; the server acknowledges and closes.
    Goodbye,
}

/// The shape of a streamed answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerKind {
    /// Isomorphism: match blocks follow.
    Matches,
    /// Simulation: per-column simulation blocks follow.
    Simulation,
}

/// The first frame of a streamed answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerHeader {
    /// What the row frames contain.
    pub kind: AnswerKind,
    /// `Display` rendering of the strategy that ran (e.g.
    /// `"bounded (bVF2/bSim)"`), used verbatim by clients.
    pub strategy: String,
    /// The snapshot epoch the answer was computed on.
    pub snapshot_version: u64,
    /// Total answer items (matches, or `(u, v)` pairs for simulation).
    pub total: u64,
    /// The columns of the row blocks: pattern-node display names
    /// (`node_name` or the `u{i}` placeholder), in pattern order.
    pub columns: Vec<String>,
    /// The pattern label of each column — simulation answers only, where
    /// it is what a row displays; empty for match answers, whose blocks
    /// carry the label of every matched data node.
    pub labels: Vec<String>,
}

/// Execution statistics carried on the final frame of an answer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Planning nanoseconds (including the cache probe).
    pub plan_nanos: u64,
    /// Fragment fetch+build nanoseconds (0 unless bounded ran).
    pub fragment_build_nanos: u64,
    /// Matcher nanoseconds.
    pub match_nanos: u64,
    /// End-to-end engine nanoseconds.
    pub total_nanos: u64,
    /// Fragment size `|G_Q|` in nodes, when the bounded strategy ran.
    pub fragment_nodes: Option<u64>,
    /// The plan's worst-case node bound, when the pattern was bounded.
    pub worst_case_nodes: Option<u64>,
    /// Server span, phase 1: from the request frame's arrival to the engine
    /// call — request decode, admission, snapshot pin, pattern parse.
    pub parse_nanos: u64,
    /// Server span, phase 2: the engine's execution, on the session thread
    /// (equal to `total_nanos`; there is no queue in front of it).
    pub execute_nanos: u64,
    /// Server span, phase 3: encoding the header and the row blocks, up to
    /// the moment this frame is sealed (the socket write that carries the
    /// reply follows it and is counted in the `stats` document only).
    pub render_nanos: u64,
}

/// The final frame of a streamed answer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DoneFrame {
    /// True when an *explicit* step budget stopped the matcher early; the
    /// delivered answer may be incomplete. (Deadline overruns are reported
    /// as [`ErrorCode::BudgetExceeded`] instead.)
    pub aborted: bool,
    /// Execution statistics.
    pub stats: WireStats,
    /// Pre-rendered explain lines, present iff the request asked for them.
    pub explain: Option<Vec<String>>,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement.
    HelloAck {
        /// The protocol version the server speaks.
        protocol: u64,
        /// Server software identification.
        server: String,
        /// The current snapshot epoch.
        epoch: u64,
    },
    /// First frame of a streamed answer.
    Answer(AnswerHeader),
    /// A block of match rows (isomorphism answers), in canonical order.
    MatchRows(RowBlock),
    /// A block of one column's simulating nodes.
    SimRows(SimBlock),
    /// Last frame of a streamed answer.
    Done(DoneFrame),
    /// An update batch was committed.
    Committed {
        /// The published epoch.
        version: u64,
        /// Low-level deltas applied.
        deltas: u64,
        /// Ids assigned to `AddNode` updates, in batch order.
        new_nodes: Vec<u32>,
    },
    /// Server/per-client counters as a JSON document (schema in
    /// `docs/PROTOCOL.md`; kept as [`Json`] so new counters never break old
    /// clients).
    Stats(Json),
    /// Liveness answer.
    Pong {
        /// The current snapshot epoch.
        epoch: u64,
    },
    /// Orderly close acknowledgement.
    GoodbyeAck,
    /// A typed failure for the request (or, for [`ErrorCode::Protocol`] /
    /// [`ErrorCode::TooLarge`], for the connection).
    Error {
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// When to retry, for retryable codes.
        retry_after_ms: Option<u64>,
    },
}

fn semantics_name(s: Semantics) -> &'static str {
    match s {
        Semantics::Isomorphism => "iso",
        Semantics::Simulation => "sim",
    }
}

fn parse_semantics(name: &str) -> Result<Semantics, String> {
    match name {
        "iso" => Ok(Semantics::Isomorphism),
        "sim" => Ok(Semantics::Simulation),
        other => Err(format!("unknown semantics {other:?} (iso or sim)")),
    }
}

fn strategy_name(s: StrategyKind) -> &'static str {
    match s {
        StrategyKind::Bounded => "bounded",
        StrategyKind::IndexSeeded => "seeded",
        StrategyKind::Baseline => "baseline",
    }
}

fn parse_strategy(name: &str) -> Result<StrategyKind, String> {
    match name {
        "bounded" => Ok(StrategyKind::Bounded),
        "seeded" => Ok(StrategyKind::IndexSeeded),
        "baseline" => Ok(StrategyKind::Baseline),
        other => Err(format!(
            "unknown strategy {other:?} (bounded, seeded or baseline)"
        )),
    }
}

fn value_to_json(value: &Value) -> Result<Json, String> {
    Ok(match value {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(x) if x.is_finite() => Json::Float(*x),
        Value::Float(_) => return Err("non-finite float values cannot travel as JSON".into()),
        Value::Str(s) => Json::Str(s.clone()),
    })
}

fn json_to_value(json: &Json) -> Result<Value, String> {
    Ok(match json {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Int(i) => Value::Int(*i),
        Json::Float(x) => Value::Float(*x),
        Json::Str(s) => Value::Str(s.clone()),
        other => return Err(format!("a value cannot be a JSON {}", other.type_name())),
    })
}

// ---- field access helpers (decode side) --------------------------------

fn req_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn opt_bool(obj: &Json, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("field {key:?} must be a boolean")),
    }
}

fn req_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array field {key:?}"))
}

// ---- requests ----------------------------------------------------------

fn update_to_json(update: &Update) -> Result<Json, String> {
    Ok(match update {
        Update::AddNode { label, value } => Json::obj([
            ("op", Json::str("add_node")),
            ("label", Json::str(label.clone())),
            ("value", value_to_json(value)?),
        ]),
        Update::AddEdge { src, dst } => Json::obj([
            ("op", Json::str("add_edge")),
            ("src", Json::Int(src.0 as i64)),
            ("dst", Json::Int(dst.0 as i64)),
        ]),
        Update::RemoveEdge { src, dst } => Json::obj([
            ("op", Json::str("remove_edge")),
            ("src", Json::Int(src.0 as i64)),
            ("dst", Json::Int(dst.0 as i64)),
        ]),
        Update::RemoveNode { node } => Json::obj([
            ("op", Json::str("remove_node")),
            ("node", Json::Int(node.0 as i64)),
        ]),
    })
}

fn node_id(obj: &Json, key: &str) -> Result<bgpq_engine::NodeId, String> {
    let raw = req_u64(obj, key)?;
    u32::try_from(raw)
        .map(bgpq_engine::NodeId)
        .map_err(|_| format!("field {key:?} exceeds the u32 node-id range"))
}

fn update_from_json(json: &Json) -> Result<Update, String> {
    match req_str(json, "op")? {
        "add_node" => Ok(Update::AddNode {
            label: req_str(json, "label")?.to_string(),
            value: json_to_value(
                json.get("value")
                    .ok_or_else(|| "missing field \"value\"".to_string())?,
            )?,
        }),
        "add_edge" => Ok(Update::AddEdge {
            src: node_id(json, "src")?,
            dst: node_id(json, "dst")?,
        }),
        "remove_edge" => Ok(Update::RemoveEdge {
            src: node_id(json, "src")?,
            dst: node_id(json, "dst")?,
        }),
        "remove_node" => Ok(Update::RemoveNode {
            node: node_id(json, "node")?,
        }),
        other => Err(format!("unknown update op {other:?}")),
    }
}

fn query_to_json(spec: &QuerySpec) -> Json {
    let mut fields = vec![
        ("type".to_string(), Json::str("query")),
        ("pattern".to_string(), Json::str(spec.pattern.clone())),
        (
            "semantics".to_string(),
            Json::str(semantics_name(spec.semantics)),
        ),
    ];
    if let Some(kind) = spec.strategy {
        fields.push(("strategy".to_string(), Json::str(strategy_name(kind))));
    }
    if let Some(n) = spec.max_matches {
        fields.push(("max_matches".to_string(), Json::Int(n as i64)));
    }
    if let Some(n) = spec.step_budget {
        fields.push(("step_budget".to_string(), Json::Int(n as i64)));
    }
    if let Some(n) = spec.deadline_ms {
        fields.push(("deadline_ms".to_string(), Json::Int(n as i64)));
    }
    if spec.explain {
        fields.push(("explain".to_string(), Json::Bool(true)));
    }
    Json::Obj(fields)
}

/// Decodes the query-spec fields of a `query` frame. `deadline_ms: 0` is
/// rejected here: zero milliseconds cannot be honored (the budget mapping
/// rounds sub-millisecond deadlines up, so 0 would silently buy a full
/// millisecond of steps) — clients that want "as little work as possible"
/// should send `step_budget` instead.
fn query_spec_from_json(json: &Json) -> Result<QuerySpec, String> {
    let semantics = match json.get("semantics") {
        None | Some(Json::Null) => Semantics::Isomorphism,
        Some(v) => parse_semantics(
            v.as_str()
                .ok_or_else(|| "field \"semantics\" must be a string".to_string())?,
        )?,
    };
    let strategy = match json.get("strategy") {
        None | Some(Json::Null) => None,
        Some(v) => {
            Some(parse_strategy(v.as_str().ok_or_else(|| {
                "field \"strategy\" must be a string".to_string()
            })?)?)
        }
    };
    let deadline_ms = opt_u64(json, "deadline_ms")?;
    if deadline_ms == Some(0) {
        return Err(
            "field \"deadline_ms\" must be at least 1 (use \"step_budget\" to bound work \
             deterministically)"
                .to_string(),
        );
    }
    Ok(QuerySpec {
        pattern: req_str(json, "pattern")?.to_string(),
        semantics,
        strategy,
        max_matches: opt_u64(json, "max_matches")?.map(|n| n as usize),
        step_budget: opt_u64(json, "step_budget")?,
        deadline_ms,
        explain: opt_bool(json, "explain")?,
    })
}

impl Request {
    /// Encodes this request as a frame payload.
    pub fn encode(&self) -> Result<String, String> {
        let json = match self {
            Request::Hello { protocol, client } => Json::obj([
                ("type", Json::str("hello")),
                ("protocol", Json::Int(*protocol as i64)),
                ("client", Json::str(client.clone())),
            ]),
            Request::Query(spec) => query_to_json(spec),
            Request::Update(updates) => Json::obj([
                ("type", Json::str("update")),
                (
                    "updates",
                    Json::Arr(
                        updates
                            .iter()
                            .map(update_to_json)
                            .collect::<Result<_, _>>()?,
                    ),
                ),
            ]),
            Request::Stats => Json::obj([("type", Json::str("stats"))]),
            Request::Ping => Json::obj([("type", Json::str("ping"))]),
            Request::Goodbye => Json::obj([("type", Json::str("goodbye"))]),
        };
        Ok(json.render())
    }

    /// Decodes a frame payload into a request.
    pub fn decode(payload: &str) -> Result<Request, String> {
        let json = parse_json(payload).map_err(|e| format!("invalid JSON: {e}"))?;
        match req_str(&json, "type")? {
            "hello" => Ok(Request::Hello {
                protocol: req_u64(&json, "protocol")?,
                client: req_str(&json, "client")?.to_string(),
            }),
            "query" => Ok(Request::Query(query_spec_from_json(&json)?)),
            "update" => Ok(Request::Update(
                req_arr(&json, "updates")?
                    .iter()
                    .map(update_from_json)
                    .collect::<Result<_, _>>()?,
            )),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "goodbye" => Ok(Request::Goodbye),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

// ---- responses ---------------------------------------------------------

fn str_list(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(s.clone())).collect())
}

fn req_str_list(obj: &Json, key: &str) -> Result<Vec<String>, String> {
    req_arr(obj, key)?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{key} entries must be strings"))
        })
        .collect()
}

fn opt_u64_json(v: Option<u64>) -> Json {
    match v {
        Some(n) => Json::Int(n as i64),
        None => Json::Null,
    }
}

impl Response {
    /// Encodes this response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.encode_into(&mut payload);
        payload
    }

    /// Appends this response's frame payload to `out`: a row block for the
    /// two `rows` variants, a JSON control message for everything else.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let json = match self {
            Response::MatchRows(block) => return block.encode_into(out),
            Response::SimRows(block) => return block.encode_into(out),
            Response::HelloAck {
                protocol,
                server,
                epoch,
            } => Json::obj([
                ("type", Json::str("hello_ack")),
                ("protocol", Json::Int(*protocol as i64)),
                ("server", Json::str(server.clone())),
                ("epoch", Json::Int(*epoch as i64)),
            ]),
            Response::Answer(header) => Json::obj([
                ("type", Json::str("answer")),
                (
                    "kind",
                    Json::str(match header.kind {
                        AnswerKind::Matches => "matches",
                        AnswerKind::Simulation => "simulation",
                    }),
                ),
                ("strategy", Json::str(header.strategy.clone())),
                (
                    "snapshot_version",
                    Json::Int(header.snapshot_version as i64),
                ),
                ("total", Json::Int(header.total as i64)),
                ("columns", str_list(&header.columns)),
                ("labels", str_list(&header.labels)),
            ]),
            Response::Done(done) => {
                let mut fields = vec![
                    ("type".to_string(), Json::str("done")),
                    ("aborted".to_string(), Json::Bool(done.aborted)),
                    (
                        "stats".to_string(),
                        Json::obj([
                            ("plan_nanos", Json::Int(done.stats.plan_nanos as i64)),
                            (
                                "fragment_build_nanos",
                                Json::Int(done.stats.fragment_build_nanos as i64),
                            ),
                            ("match_nanos", Json::Int(done.stats.match_nanos as i64)),
                            ("total_nanos", Json::Int(done.stats.total_nanos as i64)),
                            ("fragment_nodes", opt_u64_json(done.stats.fragment_nodes)),
                            (
                                "worst_case_nodes",
                                opt_u64_json(done.stats.worst_case_nodes),
                            ),
                            ("parse_nanos", Json::Int(done.stats.parse_nanos as i64)),
                            ("execute_nanos", Json::Int(done.stats.execute_nanos as i64)),
                            ("render_nanos", Json::Int(done.stats.render_nanos as i64)),
                        ]),
                    ),
                ];
                if let Some(lines) = &done.explain {
                    fields.push(("explain".to_string(), str_list(lines)));
                }
                Json::Obj(fields)
            }
            Response::Committed {
                version,
                deltas,
                new_nodes,
            } => Json::obj([
                ("type", Json::str("committed")),
                ("version", Json::Int(*version as i64)),
                ("deltas", Json::Int(*deltas as i64)),
                (
                    "new_nodes",
                    Json::Arr(new_nodes.iter().map(|&v| Json::Int(v as i64)).collect()),
                ),
            ]),
            Response::Stats(stats) => {
                Json::obj([("type", Json::str("stats")), ("stats", stats.clone())])
            }
            Response::Pong { epoch } => Json::obj([
                ("type", Json::str("pong")),
                ("epoch", Json::Int(*epoch as i64)),
            ]),
            Response::GoodbyeAck => Json::obj([("type", Json::str("goodbye_ack"))]),
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => {
                let mut fields = vec![
                    ("type".to_string(), Json::str("error")),
                    ("code".to_string(), Json::str(code.as_str())),
                    ("message".to_string(), Json::str(message.clone())),
                ];
                if let Some(ms) = retry_after_ms {
                    fields.push(("retry_after_ms".to_string(), Json::Int(*ms as i64)));
                }
                Json::Obj(fields)
            }
        };
        out.extend_from_slice(json.render().as_bytes());
    }

    /// Decodes a frame payload into a response: the first byte selects a
    /// JSON control message (`{`) or a row block (its tag).
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        match payload.first() {
            Some(b'{') => {}
            Some(&TAG_MATCH_BLOCK) => return RowBlock::decode(payload).map(Response::MatchRows),
            Some(&TAG_SIM_BLOCK) => return SimBlock::decode(payload).map(Response::SimRows),
            Some(other) => return Err(format!("unknown payload tag {other:#04x}")),
            None => return Err("empty payload".to_string()),
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| "control message is not valid UTF-8".to_string())?;
        let json = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
        match req_str(&json, "type")? {
            "hello_ack" => Ok(Response::HelloAck {
                protocol: req_u64(&json, "protocol")?,
                server: req_str(&json, "server")?.to_string(),
                epoch: req_u64(&json, "epoch")?,
            }),
            "answer" => Ok(Response::Answer(AnswerHeader {
                kind: match req_str(&json, "kind")? {
                    "matches" => AnswerKind::Matches,
                    "simulation" => AnswerKind::Simulation,
                    other => return Err(format!("unknown answer kind {other:?}")),
                },
                strategy: req_str(&json, "strategy")?.to_string(),
                snapshot_version: req_u64(&json, "snapshot_version")?,
                total: req_u64(&json, "total")?,
                columns: req_str_list(&json, "columns")?,
                labels: req_str_list(&json, "labels")?,
            })),
            "done" => {
                let stats = json
                    .get("stats")
                    .ok_or_else(|| "missing field \"stats\"".to_string())?;
                let explain = match json.get("explain") {
                    None | Some(Json::Null) => None,
                    Some(_) => Some(req_str_list(&json, "explain")?),
                };
                Ok(Response::Done(DoneFrame {
                    aborted: opt_bool(&json, "aborted")?,
                    stats: WireStats {
                        plan_nanos: req_u64(stats, "plan_nanos")?,
                        fragment_build_nanos: req_u64(stats, "fragment_build_nanos")?,
                        match_nanos: req_u64(stats, "match_nanos")?,
                        total_nanos: req_u64(stats, "total_nanos")?,
                        fragment_nodes: opt_u64(stats, "fragment_nodes")?,
                        worst_case_nodes: opt_u64(stats, "worst_case_nodes")?,
                        parse_nanos: req_u64(stats, "parse_nanos")?,
                        execute_nanos: req_u64(stats, "execute_nanos")?,
                        render_nanos: req_u64(stats, "render_nanos")?,
                    },
                    explain,
                }))
            }
            "committed" => Ok(Response::Committed {
                version: req_u64(&json, "version")?,
                deltas: req_u64(&json, "deltas")?,
                new_nodes: req_arr(&json, "new_nodes")?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .map(|n| n as u32)
                            .ok_or_else(|| "new node ids must be non-negative integers".to_string())
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            "stats" => Ok(Response::Stats(
                json.get("stats")
                    .cloned()
                    .ok_or_else(|| "missing field \"stats\"".to_string())?,
            )),
            "pong" => Ok(Response::Pong {
                epoch: req_u64(&json, "epoch")?,
            }),
            "goodbye_ack" => Ok(Response::GoodbyeAck),
            "error" => {
                let code_name = req_str(&json, "code")?;
                Ok(Response::Error {
                    code: ErrorCode::parse(code_name)
                        .ok_or_else(|| format!("unknown error code {code_name:?}"))?,
                    message: req_str(&json, "message")?.to_string(),
                    retry_after_ms: opt_u64(&json, "retry_after_ms")?,
                })
            }
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_engine::NodeId;

    fn round_trip_request(request: Request) {
        let decoded = Request::decode(&request.encode().unwrap()).unwrap();
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let decoded = Response::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello {
            protocol: PROTOCOL_VERSION,
            client: "loadgen-1".into(),
        });
        round_trip_request(Request::Query(QuerySpec {
            pattern: "node a: year\nnode b: movie\nedge a -> b\n".into(),
            semantics: Semantics::Simulation,
            strategy: Some(StrategyKind::Bounded),
            max_matches: Some(10),
            step_budget: Some(1_000),
            deadline_ms: Some(50),
            explain: true,
        }));
        round_trip_request(Request::Query(QuerySpec::new("node a: x")));
        round_trip_request(Request::Update(vec![
            Update::AddNode {
                label: "movie".into(),
                value: Value::str("Argo \"quoted\""),
            },
            Update::AddNode {
                label: "rating".into(),
                value: Value::Float(4.5),
            },
            Update::AddNode {
                label: "flag".into(),
                value: Value::Bool(true),
            },
            Update::AddNode {
                label: "none".into(),
                value: Value::Null,
            },
            Update::AddEdge {
                src: NodeId(1),
                dst: NodeId(2),
            },
            Update::RemoveEdge {
                src: NodeId(2),
                dst: NodeId(1),
            },
            Update::RemoveNode { node: NodeId(7) },
        ]));
        round_trip_request(Request::Stats);
        round_trip_request(Request::Ping);
        round_trip_request(Request::Goodbye);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::HelloAck {
            protocol: PROTOCOL_VERSION,
            server: "bgpq-serve/0.1".into(),
            epoch: 42,
        });
        round_trip_response(Response::Answer(AnswerHeader {
            kind: AnswerKind::Matches,
            strategy: "bounded (bVF2/bSim)".into(),
            snapshot_version: 3,
            total: 17,
            columns: vec!["y".into(), "u1".into()],
            labels: vec![],
        }));
        round_trip_response(Response::Answer(AnswerHeader {
            kind: AnswerKind::Simulation,
            strategy: "baseline (VF2/gsim)".into(),
            snapshot_version: 0,
            total: 4,
            columns: vec!["p".into()],
            labels: vec!["post".into()],
        }));
        round_trip_response(Response::MatchRows(
            RowBlock::new(
                1,
                1,
                vec![0],
                vec![crate::block::NodeEntry {
                    id: 0,
                    label: 0,
                    value: Value::Int(2012),
                }],
                vec!["year".into()],
            )
            .unwrap(),
        ));
        round_trip_response(Response::SimRows(SimBlock {
            column: 1,
            ids: vec![3, 5, 8, 9],
        }));
        round_trip_response(Response::Done(DoneFrame {
            aborted: true,
            stats: WireStats {
                plan_nanos: 1,
                fragment_build_nanos: 2,
                match_nanos: 3,
                total_nanos: 6,
                fragment_nodes: Some(9),
                worst_case_nodes: None,
                parse_nanos: 7,
                execute_nanos: 9,
                render_nanos: 10,
            },
            explain: Some(vec!["plan (Isomorphism semantics):".into()]),
        }));
        round_trip_response(Response::Committed {
            version: 5,
            deltas: 9,
            new_nodes: vec![100, 101],
        });
        round_trip_response(Response::Stats(Json::obj([("requests", Json::Int(12))])));
        round_trip_response(Response::Pong { epoch: 0 });
        round_trip_response(Response::GoodbyeAck);
        round_trip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "12 requests in flight (limit 12)".into(),
            retry_after_ms: Some(5),
        });
        round_trip_response(Response::Error {
            code: ErrorCode::Parse,
            message: "bad".into(),
            retry_after_ms: None,
        });
    }

    /// `deadline_ms: 0` is a contract violation, not "one free millisecond":
    /// the decoder rejects it.
    #[test]
    fn zero_deadline_is_rejected_at_decode() {
        let err =
            Request::decode("{\"type\":\"query\",\"pattern\":\"node a: x\",\"deadline_ms\":0}")
                .unwrap_err();
        assert!(err.contains("deadline_ms"), "{err}");
        assert!(err.contains("at least 1"), "{err}");

        // 1 is the smallest valid deadline.
        let ok =
            Request::decode("{\"type\":\"query\",\"pattern\":\"node a: x\",\"deadline_ms\":1}")
                .unwrap();
        assert!(matches!(ok, Request::Query(spec) if spec.deadline_ms == Some(1)));
    }

    /// `done.stats` lost `queue_nanos` without a version bump: this build
    /// never writes the field, and a frame that still carries it (a server
    /// one build older) decodes with the field ignored.
    #[test]
    fn the_dropped_queue_phase_is_neither_written_nor_required() {
        let done = Response::Done(DoneFrame::default());
        let text = String::from_utf8(done.encode()).unwrap();
        assert!(!text.contains("queue"), "{text}");
        let older = text.replace("\"parse_nanos\"", "\"queue_nanos\":8,\"parse_nanos\"");
        assert_ne!(older, text);
        assert_eq!(Response::decode(older.as_bytes()).unwrap(), done);
    }

    #[test]
    fn every_error_code_round_trips() {
        for code in [
            ErrorCode::Protocol,
            ErrorCode::Parse,
            ErrorCode::TooLarge,
            ErrorCode::BadPattern,
            ErrorCode::Unbounded,
            ErrorCode::StrategyUnavailable,
            ErrorCode::BadUpdate,
            ErrorCode::BudgetExceeded,
            ErrorCode::Overloaded,
            ErrorCode::Draining,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::Draining.is_retryable());
        assert!(!ErrorCode::Parse.is_retryable());
    }

    #[test]
    fn malformed_payloads_decode_to_typed_errors() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("{}").is_err());
        assert!(Request::decode("{\"type\":\"warp\"}").is_err());
        assert!(Request::decode("{\"type\":\"query\"}").is_err()); // no pattern
        assert!(
            Request::decode("{\"type\":\"hello\",\"protocol\":\"x\",\"client\":\"c\"}").is_err()
        );
        assert!(
            Request::decode("{\"type\":\"update\",\"updates\":[{\"op\":\"transmogrify\"}]}")
                .is_err()
        );
        assert!(
            Response::decode(b"{\"type\":\"error\",\"code\":\"novel\",\"message\":\"m\"}").is_err()
        );
        // A response payload is a control message or a tagged block.
        assert!(Response::decode(b"").unwrap_err().contains("empty"));
        assert!(Response::decode(b"[1]").unwrap_err().contains("tag"));
        assert!(Response::decode(b"{\"type\":\"pong\",\xff").is_err());
        // `batch` left the protocol: an unknown type like any other.
        assert!(Request::decode("{\"type\":\"batch\",\"queries\":[]}").is_err());
        assert!(Request::decode("{\"type\":\"batch\"}").is_err());
        // Non-finite floats are rejected at encode time, not smuggled as null.
        assert!(Request::Update(vec![Update::AddNode {
            label: "x".into(),
            value: Value::Float(f64::NAN),
        }])
        .encode()
        .is_err());
    }
}
