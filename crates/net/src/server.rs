//! The TCP front end: listener, per-connection sessions, admission
//! control, graceful drain and serving counters.
//!
//! One acceptor thread owns the [`TcpListener`]; each connection gets a
//! session thread running the protocol state machine (handshake, then a
//! request loop). Queries and updates pass the shared
//! [`AdmissionGate`] *before* touching the
//! engine: beyond `max_in_flight` concurrently admitted requests the
//! server answers `overloaded` with a retry-after hint instead of
//! queueing, and a draining server answers `draining` while admitted work
//! runs to completion on its pinned snapshot. An admitted query runs where
//! it arrived: the session thread pins a snapshot, executes on it in place
//! and renders from the same pin, so the rendered labels and values always
//! belong to the exact version the answer was computed on, "admitted" means
//! "running", and `max_in_flight` is the one bound on concurrent
//! executions. An engine panic is contained to its request: the client gets
//! `internal`, the admission slot is freed and the session lives on.
//!
//! A reply sequence — `answer` header, row blocks, `done` — is encoded into
//! one per-session buffer and handed to the socket in one write; rows go
//! from the engine's answer straight into binary blocks
//! ([`crate::block`]), with no per-binding strings and no JSON tree. Each
//! request carries a fixed-size span record (parse, execute, render) that
//! lands on its `done` frame and in per-phase histograms on the `stats`
//! document.
//!
//! Shutdown is drain-first: [`NetServerHandle::shutdown`] stops admitting,
//! waits for in-flight permits to drop (bounded by
//! [`NetServerConfig::drain_timeout`]), then unblocks the acceptor and
//! closes every session socket.

use crate::block::{encode_match_block, encode_sim_block};
use crate::frame::{append_frame, read_frame, FrameError};
use crate::proto::{
    AnswerHeader, AnswerKind, DoneFrame, ErrorCode, QuerySpec, Request, Response, WireStats,
    PROTOCOL_VERSION,
};
use bgpq_engine::{
    parse_pattern, BgpqError, BudgetPolicy, NodeId, QueryAnswer, QueryRequest, QueryResponse,
};
use bgpq_graph::io::json::Json;
use bgpq_graph::Graph;
use bgpq_serve::{Admission, AdmissionGate, GateStats, Server, Snapshot, Update};
use bgpq_workload::histogram::LatencyHistogram;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`NetServerHandle::local_addr`]).
    pub addr: String,
    /// Admission cap: maximum concurrently admitted queries/updates — each
    /// runs on its own session thread, so this is also the bound on
    /// concurrent executions. Zero is legal and rejects every request
    /// (out-of-rotation mode).
    pub max_in_flight: usize,
    /// Per-frame size limit for incoming frames.
    pub max_frame_bytes: u32,
    /// Socket read timeout per session. `None` lets idle clients (REPLs)
    /// sit forever; setting it turns stalled or slow-loris peers into a
    /// clean close once the timeout elapses.
    pub read_timeout: Option<Duration>,
    /// Server identification sent in the handshake acknowledgement.
    pub server_name: String,
    /// How wall-clock deadlines map onto deterministic step budgets.
    pub budget_policy: BudgetPolicy,
    /// Match rows per streamed frame.
    pub rows_per_frame: usize,
    /// How long [`NetServerHandle::shutdown`] waits for in-flight requests.
    pub drain_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            addr: "127.0.0.1:0".into(),
            max_in_flight: 8,
            max_frame_bytes: crate::frame::DEFAULT_MAX_FRAME_BYTES,
            read_timeout: None,
            server_name: "bgpq-net".into(),
            budget_policy: BudgetPolicy::default(),
            rows_per_frame: 64,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

#[derive(Debug, Default)]
struct ClientCounters {
    requests: u64,
    rejected: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// The server-side span of one request: three phase durations in
/// nanoseconds, filled in as the request moves through its session.
/// Fixed-size and allocation-free, so it is recorded for every request.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    /// Frame arrival to the engine call: request decode, admission,
    /// snapshot pin, pattern parse.
    parse: u64,
    /// The engine's execution, by the engine's own clock.
    execute: u64,
    /// Row render and frame write: header, blocks, `done`, the socket
    /// write (on a `done` frame: up to the moment that frame is sealed).
    render: u64,
}

/// Names of the [`Span`] phases, in the order [`Timings::phases`] holds them.
const PHASES: [&str; 3] = ["parse", "execute", "render"];

/// Whole-request latency and the per-phase breakdown, in microseconds.
#[derive(Default)]
struct Timings {
    latency: LatencyHistogram,
    phases: [LatencyHistogram; 3],
}

impl Timings {
    fn record(&mut self, received: Instant, span: &Span) {
        self.latency.record(received.elapsed().as_micros() as u64);
        let nanos = [span.parse, span.execute, span.render];
        for (hist, nanos) in self.phases.iter_mut().zip(nanos) {
            hist.record(nanos / 1_000);
        }
    }
}

/// Locks one of the server's bookkeeping mutexes (`timings`, `clients`,
/// `conns`, `sessions`). Each guards counters, histograms or a list that is
/// only pushed to and drained, all usable after a torn update, so a panic
/// under one is recovered from instead of taking every later session down.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

struct Shared {
    server: Arc<Server>,
    gate: Arc<AdmissionGate>,
    config: NetServerConfig,
    stop: AtomicBool,
    requests: AtomicU64,
    queries: AtomicU64,
    updates: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    timings: Mutex<Timings>,
    clients: Mutex<BTreeMap<String, ClientCounters>>,
    next_conn: AtomicU64,
    conns: Mutex<Vec<(u64, TcpStream)>>,
    sessions: Mutex<Vec<JoinHandle<()>>>,
}

/// The TCP front end; [`NetServer::start`] returns a handle controlling it.
pub struct NetServer;

impl NetServer {
    /// Binds `config.addr` and starts serving `server`. The acceptor and
    /// all sessions run on background threads; the returned handle is the
    /// only way to drain and stop them.
    pub fn start(server: Arc<Server>, config: NetServerConfig) -> std::io::Result<NetServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            gate: AdmissionGate::new(config.max_in_flight),
            server,
            config,
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            timings: Mutex::new(Timings::default()),
            clients: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            sessions: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(NetServerHandle {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }
}

/// Controls a running [`NetServer`]; dropping it shuts the server down.
pub struct NetServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served [`Server`], for out-of-band commits or direct queries.
    pub fn server(&self) -> &Arc<Server> {
        &self.shared.server
    }

    /// Stops admitting queries and updates: subsequent ones get a
    /// `draining` rejection while admitted work completes. `ping`, `stats`
    /// and `goodbye` stay available. Idempotent.
    pub fn drain(&self) {
        self.shared.gate.begin_drain();
    }

    /// True once [`drain`](NetServerHandle::drain) (or shutdown) began.
    pub fn is_draining(&self) -> bool {
        self.shared.gate.is_draining()
    }

    /// Requests currently admitted.
    pub fn in_flight(&self) -> usize {
        self.shared.gate.in_flight()
    }

    /// Admission counters.
    pub fn gate_stats(&self) -> GateStats {
        self.shared.gate.stats()
    }

    /// Drains, waits for in-flight work (bounded by the configured
    /// `drain_timeout`), then stops the acceptor, closes every session and
    /// joins all threads. Returns whether the drain completed before the
    /// timeout.
    pub fn shutdown(mut self) -> bool {
        self.stop_internal()
    }

    fn stop_internal(&mut self) -> bool {
        let Some(acceptor) = self.acceptor.take() else {
            return true;
        };
        self.shared.gate.begin_drain();
        let drained = self
            .shared
            .gate
            .await_idle(self.shared.config.drain_timeout);
        self.shared.stop.store(true, Ordering::Release);
        // Unblock the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = acceptor.join();
        for (_, conn) in lock(&self.shared.conns).drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let sessions: Vec<_> = lock(&self.shared.sessions).drain(..).collect();
        for session in sessions {
            let _ = session.join();
        }
        drained
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.stop_internal();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let _ = stream.set_read_timeout(shared.config.read_timeout);
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).push((conn_id, clone));
        }
        let session = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let tracked = TrackedConn { shared, conn_id };
                session_loop(&tracked.shared, stream);
            })
        };
        lock(&shared.sessions).push(session);
    }
}

/// A session's entry in `Shared::conns`, released when the session ends —
/// by returning or by unwinding. The session's own stream is gone by then,
/// but the tracked clone keeps the descriptor open: shut the socket down so
/// the peer sees EOF, and drop the clone to free the slot.
struct TrackedConn {
    shared: Arc<Shared>,
    conn_id: u64,
}

impl Drop for TrackedConn {
    fn drop(&mut self) {
        let mut conns = lock(&self.shared.conns);
        if let Some(pos) = conns.iter().position(|(id, _)| *id == self.conn_id) {
            let (_, conn) = conns.swap_remove(pos);
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// A reply buffer past this size is written out between frames, so a huge
/// answer streams instead of accumulating; ordinary replies stay below it
/// and reach the socket in one write.
const FLUSH_BYTES: usize = 64 * 1024;

/// One session's mutable half: the reply buffer in front of the socket,
/// the block encoder's scratch, and byte/error accounting. Frames are
/// pushed into the buffer and flushed once per reply sequence; per-client
/// counters accumulate in `pending` and are folded into the shared map
/// once per request, not per frame.
struct SessionOut<'a> {
    shared: &'a Shared,
    stream: TcpStream,
    /// Encoded frames not yet written. Reused for the whole session.
    buf: Vec<u8>,
    /// Cell ids of the match block being cut, row-major.
    ids: Vec<u32>,
    /// Scratch for the block's distinct ids.
    distinct: Vec<u32>,
    client: Option<String>,
    /// Traffic since the last [`SessionOut::fold`].
    pending: ClientCounters,
}

impl<'a> SessionOut<'a> {
    fn new(shared: &'a Shared, stream: TcpStream) -> Self {
        SessionOut {
            shared,
            stream,
            buf: Vec::new(),
            ids: Vec::new(),
            distinct: Vec::new(),
            client: None,
            pending: ClientCounters::default(),
        }
    }

    /// Queues one control frame.
    fn push(&mut self, response: &Response) -> std::io::Result<()> {
        if matches!(response, Response::Error { .. }) {
            self.shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        append_frame(&mut self.buf, |out| response.encode_into(out))
    }

    /// Queues one match block over the rows gathered in `self.ids`,
    /// resolving labels and values on `graph`.
    fn push_match_block(&mut self, graph: &Graph, cols: usize) -> std::io::Result<()> {
        let SessionOut {
            buf, ids, distinct, ..
        } = self;
        append_frame(buf, |out| {
            encode_match_block(out, cols, ids, distinct, |id| {
                let v = NodeId(id);
                let label = graph.label(v);
                let name = match graph.interner().name(label) {
                    Some(name) => Cow::Borrowed(name),
                    None => Cow::Owned(graph.interner().name_or_placeholder(label)),
                };
                (name, graph.value(v))
            })
        })?;
        ids.clear();
        if self.buf.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every queued frame with one socket write.
    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.write_all(&self.buf)?;
        let bytes = self.buf.len() as u64;
        self.buf.clear();
        self.shared.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        self.pending.bytes_out += bytes;
        Ok(())
    }

    /// Queues one frame and flushes: a single-frame reply.
    fn send(&mut self, response: &Response) -> std::io::Result<()> {
        self.push(response)?;
        self.flush()
    }

    /// Queues an error frame that carries no retry hint.
    fn push_error(&mut self, code: ErrorCode, message: impl Into<String>) -> std::io::Result<()> {
        self.push(&Response::Error {
            code,
            message: message.into(),
            retry_after_ms: None,
        })
    }

    fn send_error(
        &mut self,
        code: ErrorCode,
        message: impl Into<String>,
        retry_after_ms: Option<u64>,
    ) -> std::io::Result<()> {
        self.send(&Response::Error {
            code,
            message: message.into(),
            retry_after_ms,
        })
    }

    /// Folds the traffic counted since the last call into the shared
    /// per-client counters: one lock per request instead of one per frame.
    fn fold(&mut self) {
        let Some(name) = &self.client else {
            return;
        };
        let pending = std::mem::take(&mut self.pending);
        let mut clients = lock(&self.shared.clients);
        if let Some(counters) = clients.get_mut(name) {
            counters.requests += pending.requests;
            counters.rejected += pending.rejected;
            counters.bytes_in += pending.bytes_in;
            counters.bytes_out += pending.bytes_out;
        }
    }
}

fn session_loop(shared: &Shared, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = SessionOut::new(shared, stream);
    run_session(shared, &mut reader, &mut out);
    out.fold();
}

fn run_session(shared: &Shared, reader: &mut BufReader<TcpStream>, out: &mut SessionOut<'_>) {
    // Handshake: the first frame must be a matching `hello`. Any protocol
    // violation here gets a typed error and a close.
    let Some(payload) = next_payload(shared, reader, out) else {
        return;
    };
    match Request::decode(&payload) {
        Ok(Request::Hello { protocol, client }) => {
            if protocol != PROTOCOL_VERSION {
                let _ = out.send_error(
                    ErrorCode::Protocol,
                    format!(
                        "unsupported protocol version {protocol} (server speaks {PROTOCOL_VERSION})"
                    ),
                    None,
                );
                return;
            }
            lock(&shared.clients).entry(client.clone()).or_default();
            out.client = Some(client);
            let ack = Response::HelloAck {
                protocol: PROTOCOL_VERSION,
                server: shared.config.server_name.clone(),
                epoch: shared.server.version(),
            };
            if out.send(&ack).is_err() {
                return;
            }
        }
        Ok(_) => {
            let _ = out.send_error(
                ErrorCode::Protocol,
                "expected a hello frame before any request",
                None,
            );
            return;
        }
        Err(e) => {
            let _ = out.send_error(ErrorCode::Parse, e, None);
            return;
        }
    }

    // Request loop. Client-side mistakes (parse errors, bad patterns) are
    // answered and the session continues; framing violations close it.
    loop {
        let Some(payload) = next_payload(shared, reader, out) else {
            return;
        };
        let received = Instant::now();
        shared.requests.fetch_add(1, Ordering::Relaxed);
        out.pending.requests += 1;
        let flow = match Request::decode(&payload) {
            Err(e) => out.send_error(ErrorCode::Parse, e, None),
            Ok(Request::Hello { .. }) => {
                let _ = out.send_error(ErrorCode::Protocol, "duplicate hello", None);
                return;
            }
            Ok(Request::Query(spec)) => {
                handle_query(shared, out, spec, received, Snapshot::execute)
            }
            Ok(Request::Update(updates)) => handle_update(shared, out, &updates),
            Ok(Request::Stats) => {
                // Fold first, so the document counts this very request.
                out.fold();
                out.send(&Response::Stats(stats_json(shared)))
            }
            Ok(Request::Ping) => out.send(&Response::Pong {
                epoch: shared.server.version(),
            }),
            Ok(Request::Goodbye) => {
                let _ = out.send(&Response::GoodbyeAck);
                return;
            }
        };
        out.fold();
        if flow.is_err() {
            return; // peer gone mid-response
        }
    }
}

/// Reads the next frame, translating framing failures into the protocol's
/// close semantics. `None` means the session is over (the error, if any,
/// was already reported best-effort).
fn next_payload(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    out: &mut SessionOut<'_>,
) -> Option<String> {
    match read_frame(reader, shared.config.max_frame_bytes) {
        Ok((payload, bytes)) => {
            shared.bytes_in.fetch_add(bytes, Ordering::Relaxed);
            if out.client.is_some() {
                out.pending.bytes_in += bytes;
            }
            // Every request is a JSON control message; bytes that are not
            // even text are a framing-level violation, like a bad prefix.
            match String::from_utf8(payload) {
                Ok(text) => Some(text),
                Err(_) => {
                    let _ = out.send_error(
                        ErrorCode::Protocol,
                        "request payload is not valid UTF-8",
                        None,
                    );
                    None
                }
            }
        }
        Err(FrameError::Closed) => None,
        Err(FrameError::Truncated { got: 0, .. }) => {
            // Idle past the read timeout with no frame started: close
            // quietly (an idle REPL, or a slow-loris peer that sent nothing).
            None
        }
        Err(FrameError::TooLarge { claimed, limit }) => {
            let _ = out.send_error(
                ErrorCode::TooLarge,
                format!("frame of {claimed} bytes exceeds the {limit}-byte limit"),
                None,
            );
            None
        }
        Err(err @ FrameError::Truncated { .. }) => {
            let _ = out.send_error(ErrorCode::Protocol, err.to_string(), None);
            None
        }
        Err(FrameError::Io(_)) => None,
    }
}

/// Back-off hint for `overloaded` rejections: about half the typical
/// (p50) query latency, clamped to [1, 1000] ms; 5 ms before any sample.
fn retry_hint_ms(shared: &Shared) -> u64 {
    let timings = lock(&shared.timings);
    if timings.latency.count() == 0 {
        return 5;
    }
    (timings.latency.quantile(0.5) / 2_000).clamp(1, 1_000)
}

fn reject(shared: &Shared, out: &mut SessionOut<'_>, admission: Admission) -> std::io::Result<()> {
    out.pending.rejected += 1;
    match admission {
        Admission::Overloaded { in_flight, limit } => out.send_error(
            ErrorCode::Overloaded,
            format!("{in_flight} requests in flight (limit {limit})"),
            Some(retry_hint_ms(shared)),
        ),
        Admission::Draining => out.send_error(
            ErrorCode::Draining,
            "server is draining; new requests are not admitted",
            None,
        ),
        Admission::Admitted(_) => unreachable!("reject called with an admitted permit"),
    }
}

fn map_engine_error(err: &BgpqError) -> (ErrorCode, String) {
    match err {
        BgpqError::Unbounded(e) => (ErrorCode::Unbounded, e.to_string()),
        BgpqError::StrategyUnavailable { .. } => (ErrorCode::StrategyUnavailable, err.to_string()),
        BgpqError::PatternMismatch { .. } => (ErrorCode::BadPattern, err.to_string()),
        BgpqError::Graph(e) => (ErrorCode::Internal, e.to_string()),
    }
}

/// Builds the engine request for one wire spec against a pinned snapshot.
fn build_request(
    shared: &Shared,
    snapshot: &Snapshot,
    spec: &QuerySpec,
) -> Result<(QueryRequest, bgpq_pattern::Pattern), (ErrorCode, String)> {
    let pattern = parse_pattern(&spec.pattern, snapshot.graph().interner().clone())
        .map_err(|e| (ErrorCode::BadPattern, e.to_string()))?;
    let mut builder = QueryRequest::build(pattern.clone())
        .semantics(spec.semantics)
        .explain(spec.explain);
    if let Some(kind) = spec.strategy {
        builder = builder.strategy(kind);
    }
    if let Some(n) = spec.max_matches {
        builder = builder.max_matches(n);
    }
    if let Some(n) = spec.step_budget {
        builder = builder.step_budget(n);
    }
    if let Some(ms) = spec.deadline_ms {
        builder = builder.deadline(Duration::from_millis(ms), &shared.config.budget_policy);
    }
    Ok((builder.finish(), pattern))
}

/// Whether an aborted run is a deadline overrun: true when the
/// deadline-derived budget was the binding constraint. An abort under a
/// tighter *explicit* budget is an ordinary truncated answer instead.
fn deadline_blamed(shared: &Shared, spec: &QuerySpec, aborted: bool) -> bool {
    aborted
        && spec.deadline_ms.is_some_and(|ms| {
            let derived = shared
                .config
                .budget_policy
                .step_budget_for(Duration::from_millis(ms));
            derived <= spec.step_budget.unwrap_or(u64::MAX)
        })
}

/// Serves one query on the session thread that read it: admission, one
/// snapshot pin, the engine call in place, the reply rendered from the same
/// pin. `execute` is [`Snapshot::execute`] everywhere but in the unit
/// tests, which inject a panicking engine and a commit behind the engine's
/// back.
fn handle_query(
    shared: &Shared,
    out: &mut SessionOut<'_>,
    spec: QuerySpec,
    received: Instant,
    execute: impl FnOnce(&Snapshot, &QueryRequest) -> Result<QueryResponse, BgpqError>,
) -> std::io::Result<()> {
    shared.queries.fetch_add(1, Ordering::Relaxed);
    let permit = match shared.gate.try_admit() {
        Admission::Admitted(permit) => permit,
        rejected => return reject(shared, out, rejected),
    };

    // Pin one snapshot for the whole request: the engine runs on it and the
    // row blocks below read labels/values from the same version, whatever
    // commits land in between.
    let snapshot = shared.server.snapshot();
    let (request, pattern) = match build_request(shared, &snapshot, &spec) {
        Ok(built) => built,
        Err((code, message)) => {
            drop(permit);
            return out.send_error(code, message, None);
        }
    };
    let executing = Instant::now();
    let mut span = Span {
        parse: (executing - received).as_nanos() as u64,
        ..Span::default()
    };
    // An engine panic costs this request, not the session thread: the
    // call only reads its pinned snapshot, and the engine state it can
    // leave half-done sits in mutexes, which poison themselves. The panic
    // hook has already written message and location to the server's stderr.
    let Ok(result) = catch_unwind(AssertUnwindSafe(|| execute(&snapshot, &request))) else {
        drop(permit);
        return out.send_error(ErrorCode::Internal, "query execution panicked", None);
    };

    let rendering = Instant::now();
    span.execute = match &result {
        Ok(response) => response.stats.total_nanos,
        Err(_) => (rendering - executing).as_nanos() as u64,
    };
    let flow = match result {
        Err(err) => {
            let (code, message) = map_engine_error(&err);
            out.push_error(code, message)
        }
        // An abort is a deadline overrun — a typed error — when the
        // deadline-derived budget was the binding constraint; an abort under
        // a tighter *explicit* budget is an ordinary truncated answer with
        // `done.aborted` set.
        Ok(response) if deadline_blamed(shared, &spec, response.stats.aborted) => out.push_error(
            ErrorCode::BudgetExceeded,
            format!(
                "deadline of {} ms exhausted the step budget before completion",
                spec.deadline_ms.unwrap_or(0)
            ),
        ),
        Ok(response) => push_answer(shared, out, &response, &pattern, &snapshot, &mut span),
    }
    .and_then(|()| out.flush());
    span.render = nanos_since(rendering);
    lock(&shared.timings).record(received, &span);
    drop(permit); // response fully written: free the admission slot
    flow
}

/// Queues a whole answer: the header naming the columns, the rows as
/// binary blocks cut straight from the engine's answer, and `done`.
fn push_answer(
    shared: &Shared,
    out: &mut SessionOut<'_>,
    response: &QueryResponse,
    pattern: &bgpq_pattern::Pattern,
    snapshot: &Snapshot,
    span: &mut Span,
) -> std::io::Result<()> {
    let started = Instant::now();
    let graph = snapshot.graph();
    let rows_per_frame = shared.config.rows_per_frame.max(1);
    let (kind, labels) = match &response.answer {
        QueryAnswer::Matches(_) => (AnswerKind::Matches, Vec::new()),
        QueryAnswer::Simulation(_) => (
            AnswerKind::Simulation,
            pattern.nodes().map(|u| pattern.label_name(u)).collect(),
        ),
    };
    out.push(&Response::Answer(AnswerHeader {
        kind,
        strategy: response.strategy.to_string(),
        snapshot_version: response.stats.snapshot_version,
        total: response.answer.len() as u64,
        columns: pattern.nodes().map(|u| pattern.column_name(u)).collect(),
        labels,
    }))?;

    let cols = pattern.node_count();
    match &response.answer {
        // A pattern without nodes has no columns, so no cells to ship.
        QueryAnswer::Matches(_) if cols == 0 => {}
        QueryAnswer::Matches(matches) => {
            let cells_per_block = rows_per_frame.saturating_mul(cols);
            for m in matches.iter() {
                out.ids.extend(m.assignment().iter().map(|v| v.0));
                if out.ids.len() == cells_per_block {
                    out.push_match_block(graph, cols)?;
                }
            }
            if !out.ids.is_empty() {
                out.push_match_block(graph, cols)?;
            }
        }
        QueryAnswer::Simulation(relation) => {
            for (column, u) in pattern.nodes().enumerate() {
                for piece in relation.matches_of(u).chunks(rows_per_frame * 8) {
                    append_frame(&mut out.buf, |buf| {
                        encode_sim_block(buf, column, piece.iter().map(|v| v.0))
                    })?;
                }
            }
        }
    }

    let stats = &response.stats;
    let explain = response.explain.as_ref().map(|ex| {
        ex.render_lines(
            pattern,
            snapshot.engine().indices().schema(),
            graph.interner(),
        )
    });
    span.render = nanos_since(started);
    out.push(&Response::Done(DoneFrame {
        aborted: stats.aborted,
        stats: WireStats {
            plan_nanos: stats.plan_nanos,
            fragment_build_nanos: stats.fragment_build_nanos,
            match_nanos: stats.match_nanos,
            total_nanos: stats.total_nanos,
            fragment_nodes: stats.fetch.as_ref().map(|f| f.fragment_nodes as u64),
            worst_case_nodes: stats.worst_case_nodes,
            parse_nanos: span.parse,
            execute_nanos: span.execute,
            render_nanos: span.render,
        },
        explain,
    }))
}

fn handle_update(
    shared: &Shared,
    out: &mut SessionOut<'_>,
    updates: &[Update],
) -> std::io::Result<()> {
    shared.updates.fetch_add(1, Ordering::Relaxed);
    let permit = match shared.gate.try_admit() {
        Admission::Admitted(permit) => permit,
        rejected => return reject(shared, out, rejected),
    };
    let flow = match shared.server.commit(updates) {
        Ok(receipt) => out.send(&Response::Committed {
            version: receipt.version,
            deltas: receipt.deltas as u64,
            new_nodes: receipt.new_nodes.iter().map(|n| n.0).collect(),
        }),
        Err(err) => out.send_error(ErrorCode::BadUpdate, err.to_string(), None),
    };
    drop(permit);
    flow
}

fn histogram_json(hist: &LatencyHistogram) -> Json {
    Json::obj([
        ("count", Json::Int(hist.count() as i64)),
        ("mean", Json::Int(hist.mean() as i64)),
        ("p50", Json::Int(hist.quantile(0.5) as i64)),
        ("p95", Json::Int(hist.quantile(0.95) as i64)),
        ("p99", Json::Int(hist.quantile(0.99) as i64)),
        ("max", Json::Int(hist.max() as i64)),
    ])
}

/// The writer's lifetime totals: where commit time went, phase by phase,
/// and what the commits copied.
fn commit_json(server: &bgpq_serve::ServerStats) -> Json {
    let micros = |nanos: u64| Json::Int((nanos / 1_000) as i64);
    Json::obj([
        ("deltas", Json::Int(server.deltas_applied as i64)),
        ("pages_copied", Json::Int(server.pages_copied as i64)),
        ("shards_copied", Json::Int(server.shards_copied as i64)),
        ("chunks_copied", Json::Int(server.chunks_copied as i64)),
        ("row_ids_copied", Json::Int(server.row_ids_copied as i64)),
        (
            "total_us",
            Json::obj([
                ("clone", micros(server.clone_nanos)),
                ("replay", micros(server.replay_nanos)),
                ("maintain", micros(server.delta_apply_nanos)),
                ("publish", micros(server.publish_nanos)),
                ("retire", micros(server.retire_nanos)),
                ("commit", micros(server.commit_nanos)),
            ]),
        ),
    ])
}

fn stats_json(shared: &Shared) -> Json {
    let gate = shared.gate.stats();
    let server = shared.server.stats();
    let (latency, phases) = {
        let timings = lock(&shared.timings);
        (
            histogram_json(&timings.latency),
            Json::obj(
                PHASES
                    .into_iter()
                    .zip(timings.phases.iter().map(histogram_json)),
            ),
        )
    };
    let clients = {
        let clients = lock(&shared.clients);
        Json::Arr(
            clients
                .iter()
                .map(|(name, c)| {
                    Json::obj([
                        ("name", Json::str(name.clone())),
                        ("requests", Json::Int(c.requests as i64)),
                        ("rejected", Json::Int(c.rejected as i64)),
                        ("bytes_in", Json::Int(c.bytes_in as i64)),
                        ("bytes_out", Json::Int(c.bytes_out as i64)),
                    ])
                })
                .collect(),
        )
    };
    Json::obj([
        (
            "server",
            Json::obj([
                ("name", Json::str(shared.config.server_name.clone())),
                ("protocol", Json::Int(PROTOCOL_VERSION as i64)),
                ("epoch", Json::Int(server.epoch as i64)),
                ("commits", Json::Int(server.commits as i64)),
                ("draining", Json::Bool(shared.gate.is_draining())),
                ("in_flight", Json::Int(shared.gate.in_flight() as i64)),
                ("limit", Json::Int(shared.gate.limit() as i64)),
                (
                    "requests",
                    Json::Int(shared.requests.load(Ordering::Relaxed) as i64),
                ),
                (
                    "queries",
                    Json::Int(shared.queries.load(Ordering::Relaxed) as i64),
                ),
                (
                    "updates",
                    Json::Int(shared.updates.load(Ordering::Relaxed) as i64),
                ),
                (
                    "errors",
                    Json::Int(shared.errors.load(Ordering::Relaxed) as i64),
                ),
                ("admitted", Json::Int(gate.admitted as i64)),
                (
                    "rejected_overloaded",
                    Json::Int(gate.rejected_overloaded as i64),
                ),
                (
                    "rejected_draining",
                    Json::Int(gate.rejected_draining as i64),
                ),
                ("peak_in_flight", Json::Int(gate.peak_in_flight as i64)),
                (
                    "bytes_in",
                    Json::Int(shared.bytes_in.load(Ordering::Relaxed) as i64),
                ),
                (
                    "bytes_out",
                    Json::Int(shared.bytes_out.load(Ordering::Relaxed) as i64),
                ),
                ("latency_us", latency),
                ("phases_us", phases),
                ("commit", commit_json(&server)),
            ]),
        ),
        ("clients", clients),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use bgpq_engine::{AccessConstraint, AccessSchema};
    use bgpq_graph::{GraphBuilder, Value};
    use std::io::Read;

    const QUERY: &str = "node y: year\nnode m: movie\nedge y -> m\n";

    fn start() -> NetServerHandle {
        let mut b = GraphBuilder::new();
        let y = b.add_node("year", Value::Int(2012));
        let m = b.add_node("movie", Value::str("Argo"));
        b.add_edge(y, m).unwrap();
        let graph = b.build();
        let l = |name: &str| graph.interner().get(name).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(l("year"), 10),
            AccessConstraint::unary(l("year"), l("movie"), 5),
        ]);
        let server = Arc::new(Server::new(graph, &schema));
        NetServer::start(server, NetServerConfig::default()).expect("bind loopback")
    }

    /// A connected loopback pair: (the session's end, the peer's end).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (session, _) = listener.accept().expect("accept");
        (session, peer)
    }

    fn read_reply(peer: &mut TcpStream) -> Response {
        let (payload, _) = read_frame(peer, crate::frame::DEFAULT_MAX_FRAME_BYTES).expect("frame");
        Response::decode(&payload).expect("well-formed reply")
    }

    /// An engine that panics costs its request, nothing else: the client
    /// gets `internal`, the admission slot is free again, the same session
    /// answers its next query and a session beside it never notices.
    #[test]
    fn an_engine_panic_is_answered_internal_and_frees_the_slot() {
        let handle = start();
        let mut bystander = Client::connect(handle.local_addr(), "bystander").expect("connect");
        let (session, mut peer) = socket_pair();
        let mut out = SessionOut::new(&handle.shared, session);

        let spec = QuerySpec::new(QUERY);
        handle_query(
            &handle.shared,
            &mut out,
            spec.clone(),
            Instant::now(),
            |_, _| panic!("injected engine fault"),
        )
        .expect("the reply is written, the session thread did not unwind");
        match read_reply(&mut peer) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Internal),
            other => panic!("expected an internal error, got {other:?}"),
        }
        assert_eq!(handle.in_flight(), 0, "the permit was released");
        assert_eq!(handle.gate_stats().admitted, 1);

        // The same session serves its next query...
        handle_query(
            &handle.shared,
            &mut out,
            spec.clone(),
            Instant::now(),
            Snapshot::execute,
        )
        .expect("answer written");
        match read_reply(&mut peer) {
            Response::Answer(header) => assert_eq!(header.total, 1),
            other => panic!("expected an answer header, got {other:?}"),
        }
        // ...and so does every other one.
        assert_eq!(bystander.query(&spec).expect("bystander").header.total, 1);
        bystander.goodbye().unwrap();
        assert!(handle.shutdown());
    }

    /// The pin is the only thing tying the rendered rows to the version
    /// they were computed on. A commit that lands exactly between the
    /// engine call and the render — here it tombstones the matched movie —
    /// must not leak into the reply: header, labels and values are all of
    /// the pinned version.
    #[test]
    fn a_commit_between_execute_and_render_does_not_reach_the_reply() {
        let handle = start();
        let (session, mut peer) = socket_pair();
        let mut out = SessionOut::new(&handle.shared, session);
        handle_query(
            &handle.shared,
            &mut out,
            QuerySpec::new(QUERY),
            Instant::now(),
            |snapshot, request| {
                let result = snapshot.execute(request);
                let movie = NodeId(1);
                handle
                    .server()
                    .commit(&[Update::RemoveNode { node: movie }])
                    .expect("commit");
                result
            },
        )
        .expect("answer written");

        let current = handle.server().snapshot();
        assert_eq!(current.version(), 1);
        assert!(!current.graph().is_live(NodeId(1)), "the commit landed");
        match read_reply(&mut peer) {
            Response::Answer(header) => {
                assert_eq!((header.snapshot_version, header.total), (0, 1));
            }
            other => panic!("expected an answer header, got {other:?}"),
        }
        match read_reply(&mut peer) {
            Response::MatchRows(block) => {
                assert_eq!(block.row(0), [0, 1]);
                assert_eq!(block.node(0), ("year", &Value::Int(2012)));
                assert_eq!(block.node(1), ("movie", &Value::str("Argo")));
            }
            other => panic!("expected the row block, got {other:?}"),
        }
        assert!(matches!(read_reply(&mut peer), Response::Done(_)));
        assert!(handle.shutdown());
    }

    /// A panic under the bookkeeping locks poisons them and nothing else:
    /// a new session still gets its query answered, its request timed and
    /// counted, and a `stats` document.
    #[test]
    fn poisoned_bookkeeping_locks_are_recovered() {
        let handle = start();
        let shared = Arc::clone(&handle.shared);
        let poisoner = thread::spawn(move || {
            let _timings = shared.timings.lock().unwrap();
            let _clients = shared.clients.lock().unwrap();
            panic!("injected fault under the bookkeeping locks");
        });
        assert!(poisoner.join().is_err());
        assert!(handle.shared.timings.is_poisoned() && handle.shared.clients.is_poisoned());

        let mut client = Client::connect(handle.local_addr(), "after").expect("connect");
        let answer = client.query(&QuerySpec::new(QUERY)).expect("query");
        assert_eq!(answer.header.total, 1);
        let stats = client.stats().expect("stats");
        let server = stats.get("server").unwrap();
        let latency = server.get("latency_us").unwrap().get("count");
        assert_eq!(latency.and_then(Json::as_u64), Some(1));
        let clients = stats.get("clients").and_then(Json::as_arr).unwrap();
        assert_eq!(clients[0].get("name").and_then(Json::as_str), Some("after"));
        assert_eq!(clients[0].get("requests").and_then(Json::as_u64), Some(2));
        client.goodbye().unwrap();
        assert!(handle.shutdown());
    }

    /// A session thread that unwinds outside the contained engine call
    /// still releases its tracked socket: the peer reads EOF instead of
    /// hanging on a descriptor nobody serves.
    #[test]
    fn an_unwinding_session_still_gives_its_peer_eof() {
        let handle = start();
        let (session, mut peer) = socket_pair();
        let conn_id = u64::MAX;
        handle
            .shared
            .conns
            .lock()
            .unwrap()
            .push((conn_id, session.try_clone().unwrap()));
        let shared = Arc::clone(&handle.shared);
        let unwound = thread::spawn(move || {
            let _tracked = TrackedConn { shared, conn_id };
            let _stream = session;
            panic!("injected session fault");
        })
        .join();
        assert!(unwound.is_err());
        assert_eq!(peer.read(&mut [0u8; 1]).expect("clean EOF"), 0);
        assert!(handle.shared.conns.lock().unwrap().is_empty());
        assert!(handle.shutdown());
    }
}
