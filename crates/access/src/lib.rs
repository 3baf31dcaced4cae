//! # bgpq-access
//!
//! Access constraints, access schemas and their indices on data graphs —
//! the substrate that makes graph pattern queries *effectively bounded*
//! (Section II of *Making Pattern Queries Bounded in Big Graphs*, ICDE 2015).
//!
//! An **access constraint** has the form `S → (l, N)` where `S ⊆ Σ` is a set
//! of labels, `l` a label and `N` a natural number. A graph `G` satisfies it
//! when
//!
//! 1. every `S`-labeled set `V_S` of nodes of `G` has at most `N` common
//!    neighbors labeled `l` (the *cardinality* part), and
//! 2. there is an index that, given any `S`-labeled set `V_S`, returns those
//!    common neighbors in `O(N)` time, independent of `|G|` (the *index*
//!    part).
//!
//! An **access schema** `A` is a set of such constraints. This crate
//! provides:
//!
//! * [`AccessConstraint`] / [`AccessSchema`] — the constraint language,
//!   including the special type (1) (`∅ → (l, N)`, a global label count) and
//!   type (2) (`l → (l', N)`, a per-node fanout bound) forms used by
//!   instance-bounded extensions;
//! * [`ConstraintIndex`] / [`AccessIndexSet`] — in-memory indices backing the
//!   constraints, with `O(answer)` lookups and size accounting;
//! * [`discovery`] — extraction of constraints from a data graph (degree
//!   bounds, label counts, FD-like constraints and grouped constraints);
//! * [`satisfy`] — verification that `G |= A`;
//! * [`maintenance`] — incremental index maintenance under edge insertions
//!   and deletions, touching only `ΔG ∪ Nb(ΔG)`;
//! * [`serialize`] — a line-oriented text format for schemas, so a
//!   discovered schema can be shipped next to its dataset and reloaded
//!   without another discovery pass;
//! * [`snapshot`] — binary persistence of the schema inside the `.bgpq`
//!   container, so discovery is genuinely one-time; a loaded bundle's
//!   indices are built over its graph and schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraint;
pub mod discovery;
pub mod index;
pub mod maintenance;
pub mod satisfy;
pub mod schema;
pub mod serialize;
pub mod snapshot;

pub use constraint::{AccessConstraint, ConstraintId, ConstraintKind};
pub use discovery::{discover_schema, DiscoveryConfig};
pub use index::DEFAULT_MAX_COMBINATIONS_PER_NODE;
pub use index::{AccessIndexSet, ConstraintIndex};
pub use maintenance::{
    apply_delta, apply_deltas, apply_deltas_shared, GraphDelta, MaintenanceStats, TouchedNodes,
};
pub use satisfy::{check_schema, Violation};
pub use schema::AccessSchema;
pub use serialize::{load_schema, read_schema, save_schema, write_schema};
pub use snapshot::{
    decode_bundle, load_snapshot, read_snapshot, save_snapshot, write_snapshot, SnapshotBundle,
};
