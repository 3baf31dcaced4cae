//! The blocking client: one connection, typed calls.
//!
//! [`Client::connect`] performs the handshake; afterwards each method is
//! one request/response exchange ([`Client::query`] additionally drains
//! the streamed answer frames into a [`QueryOutcome`]). Server-sent
//! protocol errors surface as [`ClientError::Server`] with their typed
//! [`ErrorCode`](crate::proto::ErrorCode), so callers can branch on
//! `overloaded`/`draining` (retry) vs their own mistakes (don't).

use crate::block::MatchTable;
use crate::error::ClientError;
use crate::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use crate::proto::{
    AnswerHeader, AnswerKind, DoneFrame, QuerySpec, Request, Response, PROTOCOL_VERSION,
};
use bgpq_graph::io::json::Json;
use bgpq_serve::Update;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A fully received streamed answer.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The answer header (kind, strategy, snapshot version, total, columns).
    pub header: AnswerHeader,
    /// Match rows, in the server's canonical order (isomorphism answers).
    pub matches: MatchTable,
    /// Per column (pattern node, in pattern order), the data node ids
    /// simulating it (simulation answers; empty lists otherwise).
    pub sim: Vec<Vec<u32>>,
    /// The final frame: abort flag, stats, optional explain lines.
    pub done: DoneFrame,
}

/// What a committed update batch did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitSummary {
    /// The published snapshot epoch.
    pub version: u64,
    /// Low-level deltas applied.
    pub deltas: u64,
    /// Ids assigned to `AddNode` updates, in batch order.
    pub new_nodes: Vec<u32>,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame_bytes: u32,
    server: String,
    epoch: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl Client {
    /// Connects to `addr` and performs the handshake, announcing
    /// `client_name` (the key the server files this session's counters
    /// under).
    pub fn connect(addr: impl ToSocketAddrs, client_name: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            server: String::new(),
            epoch: 0,
            bytes_in: 0,
            bytes_out: 0,
        };
        client.send(&Request::Hello {
            protocol: PROTOCOL_VERSION,
            client: client_name.to_string(),
        })?;
        match client.recv()? {
            Response::HelloAck { server, epoch, .. } => {
                client.server = server;
                client.epoch = epoch;
                Ok(client)
            }
            other => Err(unexpected("hello_ack", other)),
        }
    }

    /// The server's self-identification from the handshake.
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// The most recently observed snapshot epoch (handshake, `ping`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total on-wire bytes received so far.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Total on-wire bytes sent so far.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Sets the socket read timeout for subsequent calls.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let payload = request.encode().map_err(ClientError::Protocol)?;
        self.bytes_out += write_frame(&mut self.writer, &payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let (payload, bytes) = read_frame(&mut self.reader, self.max_frame_bytes)?;
        self.bytes_in += bytes;
        Response::decode(&payload).map_err(ClientError::Protocol)
    }

    /// Runs one query, draining the streamed answer.
    pub fn query(&mut self, spec: &QuerySpec) -> Result<QueryOutcome, ClientError> {
        self.send(&Request::Query(spec.clone()))?;
        let header = match self.recv()? {
            Response::Answer(header) => header,
            other => return Err(unexpected("an answer header", other)),
        };
        // Blocks stay columnar; the header's columns are what they are
        // checked against.
        if header.kind == AnswerKind::Simulation && header.labels.len() != header.columns.len() {
            return Err(ClientError::Protocol(format!(
                "a simulation answer names {} columns but {} labels",
                header.columns.len(),
                header.labels.len()
            )));
        }
        let mut matches = MatchTable::new(header.columns.clone());
        let mut sim = vec![Vec::new(); header.columns.len()];
        loop {
            match self.recv()? {
                Response::MatchRows(block) => matches.push(block).map_err(|block| {
                    unexpected("rows of the answer's width", Response::MatchRows(block))
                })?,
                Response::SimRows(block) => match sim.get_mut(block.column as usize) {
                    Some(ids) => ids.extend_from_slice(&block.ids),
                    None => {
                        return Err(unexpected(
                            "a column of the answer",
                            Response::SimRows(block),
                        ))
                    }
                },
                Response::Done(done) => {
                    return Ok(QueryOutcome {
                        header,
                        matches,
                        sim,
                        done,
                    })
                }
                other => return Err(unexpected("rows or done", other)),
            }
        }
    }

    /// Commits a batch of updates.
    pub fn update(&mut self, updates: &[Update]) -> Result<CommitSummary, ClientError> {
        self.send(&Request::Update(updates.to_vec()))?;
        match self.recv()? {
            Response::Committed {
                version,
                deltas,
                new_nodes,
            } => {
                self.epoch = version;
                Ok(CommitSummary {
                    version,
                    deltas,
                    new_nodes,
                })
            }
            other => Err(unexpected("committed", other)),
        }
    }

    /// Fetches the server's counters document.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", other)),
        }
    }

    /// Liveness probe; returns (and remembers) the current snapshot epoch.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong { epoch } => {
                self.epoch = epoch;
                Ok(epoch)
            }
            other => Err(unexpected("pong", other)),
        }
    }

    /// Ends the session with an orderly goodbye exchange.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.send(&Request::Goodbye)?;
        match self.recv()? {
            Response::GoodbyeAck => Ok(()),
            other => Err(unexpected("goodbye_ack", other)),
        }
    }
}

/// The error for a reply that is not the one a request waits for: the
/// server's own typed error when it sent one, a protocol violation for
/// anything else.
fn unexpected(what: &str, reply: Response) -> ClientError {
    match reply {
        Response::Error {
            code,
            message,
            retry_after_ms,
        } => ClientError::Server {
            code,
            message,
            retry_after_ms,
        },
        other => ClientError::Protocol(format!("expected {what}, got {other:?}")),
    }
}
