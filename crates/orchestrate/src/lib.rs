//! Distributed shard orchestration: `snd orchestrate` / `snd work`.
//!
//! The sharded all-pairs path (see `snd_core::shard`) produces durable,
//! fingerprint-validated tile artifacts — but launching shards, picking a
//! grid, and merging were manual. This crate adds the coordinator that
//! turns those artifacts into "point N machines at a matrix and walk
//! away":
//!
//! * **[`Coordinator`]** owns the [`TileGrid`](snd_core::TileGrid) and
//!   the checkpoint file. It hands out *tile leases* to workers over a
//!   line-oriented protocol on TCP or Unix sockets ([`protocol`]),
//!   appends every accepted result to the checkpoint (which doubles as
//!   the output artifact), re-dispatches leases whose worker died (EOF)
//!   or stalled past the lease deadline, and dedups duplicate
//!   submissions first-result-wins — so the merged matrix is
//!   bit-identical to `pairwise_distances_seq` regardless of worker
//!   count, kill/restart timing, or duplicate results.
//! * **[`run_worker`]** connects to a coordinator, validates the dataset
//!   fingerprint, and writes each finished tile back before computing the
//!   next.
//! * **[`Autotuner`]** replaces the static `auto_tile` shape heuristic
//!   for orchestrated runs: observed per-tile wall times (persisted as
//!   `W` checkpoint lines, so reruns warm-start) drive lease composition
//!   — slow tiles ride alone, fast tiles coalesce, and fast workers get
//!   proportionally larger leases.
//!
//! Concurrency model: the coordinator is a *single-threaded* nonblocking
//! poll loop over `std::net` — no spawned threads, no async runtime.
//! Parallelism comes from worker *processes* (local children or remote
//! machines), each of which parallelizes inside tiles via the engine's
//! rayon pool. This keeps the `thread-spawn` lint trivially satisfied
//! and makes the coordinator steppable (`poll_once`) for deterministic
//! tests.

pub mod autotune;
pub mod coordinator;
pub mod net;
pub mod protocol;
pub mod worker;

pub use autotune::{orchestrate_tile, Autotuner};
pub use coordinator::{report_line, Coordinator, CoordinatorOpts, OrchestrateReport};
pub use net::Endpoint;
pub use protocol::{CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerOpts, WorkerReport};

use std::fmt;

/// Errors from orchestration: socket IO, protocol violations, handshake
/// mismatches, and the shard layer underneath.
#[derive(Debug)]
pub enum OrchestrateError {
    /// Underlying socket or file IO failed.
    Io(std::io::Error),
    /// The shard layer (checkpoint, plan, merge) failed.
    Shard(snd_core::ShardError),
    /// A peer sent a line that does not parse as a protocol message.
    /// Carries the offending line (truncated) and what was wrong — the
    /// context the satellite task demands instead of a panic.
    Protocol {
        /// The offending line, truncated for display.
        line: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The peer speaks the protocol but describes a different run
    /// (wrong fingerprint, snapshot count, or protocol version).
    Handshake(String),
    /// A listen/connect address could not be understood or reached.
    Addr(String),
    /// The coordinator reported an error, or every worker died with the
    /// matrix still incomplete.
    Failed(String),
}

impl fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestrateError::Io(e) => write!(f, "orchestrate IO: {e}"),
            OrchestrateError::Shard(e) => write!(f, "orchestrate shard layer: {e}"),
            OrchestrateError::Protocol { line, reason } => {
                write!(f, "protocol violation: {reason} in line {line:?}")
            }
            OrchestrateError::Handshake(m) => write!(f, "handshake rejected: {m}"),
            OrchestrateError::Addr(m) => write!(f, "bad address: {m}"),
            OrchestrateError::Failed(m) => write!(f, "orchestration failed: {m}"),
        }
    }
}

impl std::error::Error for OrchestrateError {}

impl From<std::io::Error> for OrchestrateError {
    fn from(e: std::io::Error) -> Self {
        OrchestrateError::Io(e)
    }
}

impl From<snd_core::ShardError> for OrchestrateError {
    fn from(e: snd_core::ShardError) -> Self {
        OrchestrateError::Shard(e)
    }
}

/// Truncates a wire line for inclusion in an error message.
pub(crate) fn clip(line: &str) -> String {
    const MAX: usize = 80;
    if line.len() <= MAX {
        line.to_string()
    } else {
        let cut = line
            .char_indices()
            .take_while(|&(i, _)| i < MAX)
            .last()
            .map_or(0, |(i, c)| i + c.len_utf8());
        format!("{}…", &line[..cut])
    }
}
