//! Wire-only pieces of the benchmark: request generation, the NDJSON
//! client, process control, `/proc` accounting and the percentile
//! arithmetic.  Std only — nothing here links the repository's crates,
//! so a change to their public functions cannot break the gated run.

pub mod args;
pub mod client;
pub mod closed_loop;
pub mod fleet;
pub mod gen;
pub mod json;
pub mod procfs;
pub mod stats;
