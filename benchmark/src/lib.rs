//! The repeatable benchmark of the bgpq workspace: three closed-loop,
//! single-client workloads of *commit → cold round → hot rounds* cycles,
//! measured end to end (untraced) and layer by layer (traced, from outside
//! through each crate's public functions). See `README.md`.

pub mod measure;
pub mod metrics;
pub mod recipe;
pub mod report;
pub mod trace;
