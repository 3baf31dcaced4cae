//! # bgpq-serve
//!
//! The concurrent serving subsystem of the `bgpq` workspace: the first
//! stateful, mutable execution path over the bounded-evaluation pipeline of
//! *Making Pattern Queries Bounded in Big Graphs* (ICDE 2015).
//!
//! Everything below `bgpq-serve` evaluates queries over an **immutable**
//! graph. Section II of the paper, however, argues that access-schema
//! indices survive change: after an update `ΔG` it suffices to recompute
//! index contributions inside `ΔG ∪ Nb(ΔG)` — the changed nodes/edges and
//! their neighbors — no matter how large `G` is. This crate turns that claim
//! into a serving architecture:
//!
//! ```text
//!            readers (worker threads)                     single writer
//!   ┌────────────┬────────────┬──────────┐            ┌────────────────┐
//!   │ pin Arc<Snapshot> · execute · drop │            │ commit(updates)│
//!   └──────┬─────┴──────┬─────┴────┬─────┘            └───────┬────────┘
//!          ▼            ▼          ▼                          ▼
//!    Snapshot v2   Snapshot v2  Snapshot v1   share graph+indices of v2
//!          ▲            ▲          ▲          apply mutations  → deltas
//!          │            │          │          apply_deltas (ΔG ∪ Nb(ΔG))
//!          └───── epoch-versioned chain ◄──── publish Snapshot v3
//! ```
//!
//! * [`Snapshot`] — one immutable graph version: the graph, its
//!   [`AccessIndexSet`](bgpq_access::AccessIndexSet) and a full
//!   [`Engine`](bgpq_engine::Engine) pinned to that version.
//! * [`Server`] — owns the current snapshot behind an epoch-versioned
//!   pointer. Readers pin a snapshot with one `Arc` clone and are never
//!   blocked by mutation work; the single writer builds the next snapshot
//!   **off to the side** — a structurally shared clone whose writes copy
//!   only the storage pages, label-bucket chunks and index pages they
//!   land in, plus incremental index maintenance instead of a rebuild, so a
//!   commit costs `O(|ΔG|)` — publishes it with a pointer swap, and tears
//!   the superseded version down after releasing the pointer's lock.
//! * [`WorkerPool`] — a minimal thread pool executing
//!   [`QueryRequest`](bgpq_engine::QueryRequest)s against the current
//!   snapshot. Off the request path since `bgpq-net` runs queries on their
//!   session threads; kept for the `benchmark/` package, which measures
//!   the hand-off it used to add.
//! * [`AdmissionGate`] — a bounded in-flight gate with queue-depth
//!   backpressure and graceful draining; the hook `bgpq-net` puts in front
//!   of its TCP sessions so overload turns into fast typed rejections
//!   instead of unbounded buffering.
//!
//! Cache correctness across versions is handled one layer down: the
//! server hands every snapshot's engine the same
//! [`SharedResources`](bgpq_engine::SharedResources) — the query cache
//! (one entry per query: plan and fragment) and the scratch arenas — and
//! cache entries are validated against the snapshot version on every probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod pool;
pub mod server;
pub mod snapshot;

pub use gate::{Admission, AdmissionGate, AdmissionPermit, GateStats};
pub use pool::WorkerPool;
pub use server::{CommitReceipt, Server, ServerStats, Update};
pub use snapshot::Snapshot;
