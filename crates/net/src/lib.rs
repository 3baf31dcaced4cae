//! # bgpq-net
//!
//! The network front end of the `bgpq` serving stack: a dependency-free
//! TCP wire protocol with production admission control, built from `std`
//! alone (`std::net` sockets, the workspace's own JSON in
//! [`bgpq_graph::io::json`]).
//!
//! Everything below this crate answers queries in-process. The paper's
//! point, though, is *serving*: bounded evaluation matters because it
//! makes query cost predictable enough to put behind a network interface
//! with latency objectives. This crate is that interface:
//!
//! ```text
//!   bgpq client ──┐  length-prefixed frames        ┌─────────────────────────┐
//!   bgpq client ──┼──────────── TCP ───────────────│ NetServer               │
//!   loadgen     ──┘                                │  one thread per session │
//!                   hello → queries/updates/stats  │  AdmissionGate          │
//!                   ◄─ streamed answers / errors   │   ├─ admitted ► pin a snapshot,
//!                                                  │   │   execute and render in place
//!                                                  │   └─ overloaded / draining
//!                                                  │        ► typed reject   │
//!                                                  └─────────────────────────┘
//! ```
//!
//! * [`frame`] — the byte layer: 4-byte big-endian length + payload
//!   bytes, hostile-peer-safe (oversized prefixes rejected unallocated,
//!   truncation and slow-loris surfaced as typed errors).
//! * [`proto`] — the message layer: typed requests ([`Request`]) and
//!   responses ([`Response`]) with symmetric encode/decode — JSON control
//!   messages, told from row blocks by their first byte — and
//!   machine-readable [`ErrorCode`]s separating client mistakes from
//!   server state.
//! * [`block`] — the row encoding: binary columnar blocks of node ids with
//!   a dictionary of the distinct matched nodes, and the borrowed
//!   [`MatchTable`] / [`Binding`] views a client reads them through.
//! * [`server`] — [`NetServer`]: per-connection sessions in front of
//!   [`bgpq_serve::Server`], each running its admitted queries on its own
//!   thread against a pinned snapshot; bounded in-flight admission with
//!   `overloaded` backpressure, wall-clock deadlines mapped onto
//!   deterministic step budgets, graceful drain, engine panics contained to
//!   the request, and per-client / per-server counters with log-bucketed
//!   latency percentiles.
//! * [`client`] — [`Client`]: the blocking counterpart used by the
//!   `bgpq serve` / `bgpq client` CLI subcommands and the benchmarks.
//!
//! The normative protocol description lives in `docs/PROTOCOL.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod client;
pub mod error;
pub mod frame;
pub mod proto;
pub mod server;

pub use block::{Binding, MatchTable, NodeEntry, Row, RowBlock, SimBlock};
pub use client::{Client, CommitSummary, QueryOutcome};
pub use error::ClientError;
pub use frame::{FrameError, DEFAULT_MAX_FRAME_BYTES, MAX_FRAME_BYTES_CEILING};
pub use proto::{
    AnswerHeader, AnswerKind, DoneFrame, ErrorCode, QuerySpec, Request, Response, WireStats,
    PROTOCOL_VERSION,
};
pub use server::{NetServer, NetServerConfig, NetServerHandle};
