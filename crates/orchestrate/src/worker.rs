//! The worker loop: handshake, lease, compute, stream, repeat.
//!
//! Each finished tile's `T`/`I`/`W` lines are written to the socket with
//! a blocking write before the next tile starts. A tile's lines are small
//! next to the kernel's socket buffer, so the write rarely waits; the
//! time spent in it is reported as `flush_wait_s`.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use snd_core::{ShardPlan, SndEngine, TileGrid};
use snd_models::NetworkState;

use crate::net::{connect, Endpoint, Stream};
use crate::protocol::{
    parse_coordinator_msg, worker_line, CoordinatorMsg, WorkerMsg, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::OrchestrateError;

/// Worker tuning knobs.
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// How long to retry the initial connect (workers usually start
    /// before the coordinator binds).
    pub connect_retry: Duration,
    /// Blocking-read timeout: a silent coordinator is an error, not a
    /// hang.
    pub read_timeout: Duration,
    /// Artificial per-tile delay. A test/bench hook (set from
    /// `SND_WORK_THROTTLE_MS` by the CLI) that turns this worker into a
    /// deterministic straggler for kill/re-dispatch scenarios.
    pub throttle: Duration,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        WorkerOpts {
            connect_retry: Duration::from_secs(10),
            read_timeout: Duration::from_secs(120),
            throttle: Duration::ZERO,
        }
    }
}

/// What a worker did, for the CLI to print (the bench parses these).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerReport {
    /// Leases completed.
    pub leases: usize,
    /// Tiles computed and streamed.
    pub tiles: usize,
    /// Seconds inside the engine's tile computation.
    pub compute_s: f64,
    /// Seconds blocked writing results to the socket.
    pub flush_wait_s: f64,
}

/// Runs the worker loop against the coordinator at `addr` until `DONE`.
///
/// The engine/states pair must be the same dataset and configuration the
/// coordinator opened — enforced by the `shard_fingerprint` handshake,
/// which is what makes every accepted tile bit-identical to what any
/// other worker (or the sequential path) would produce.
pub fn run_worker(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    addr: &str,
    opts: &WorkerOpts,
) -> Result<WorkerReport, OrchestrateError> {
    let ep = Endpoint::parse(addr)?;
    let mut stream = connect(&ep, opts.connect_retry)?;
    stream.set_read_timeout(Some(opts.read_timeout))?;
    let fingerprint = engine.shard_fingerprint(states);

    send_all(
        &mut stream,
        worker_line(&WorkerMsg::Hello {
            version: PROTOCOL_VERSION,
            fingerprint,
            k: states.len(),
        })
        .as_bytes(),
    )?;
    let mut inbuf = Vec::new();
    let grid = match read_msg(&mut stream, &mut inbuf)? {
        CoordinatorMsg::Grid {
            k,
            tile,
            fingerprint: fp,
        } => {
            if k != states.len() || fp != fingerprint {
                return Err(OrchestrateError::Handshake(format!(
                    "coordinator run (k={k}, fingerprint {fp:016x}) does not match this \
                     worker's dataset (k={}, fingerprint {fingerprint:016x})",
                    states.len()
                )));
            }
            TileGrid::new(k, tile)
        }
        CoordinatorMsg::Err(m) => return Err(OrchestrateError::Handshake(m)),
        other => {
            return Err(OrchestrateError::Handshake(format!(
                "expected GRID, got {other:?}"
            )))
        }
    };

    let mut report = WorkerReport::default();
    loop {
        send_all(&mut stream, worker_line(&WorkerMsg::Next).as_bytes())?;
        match read_msg(&mut stream, &mut inbuf)? {
            CoordinatorMsg::Lease { tiles, .. } => {
                compute_lease(engine, states, &grid, tiles, &mut stream, opts, &mut report)?;
                report.leases += 1;
            }
            CoordinatorMsg::Wait(ms) => {
                std::thread::sleep(Duration::from_millis(ms.min(1_000)));
            }
            CoordinatorMsg::Done => {
                let _ = send_all(&mut stream, worker_line(&WorkerMsg::Bye).as_bytes());
                return Ok(report);
            }
            CoordinatorMsg::Err(m) => return Err(OrchestrateError::Failed(m)),
            CoordinatorMsg::Grid { .. } => {
                return Err(OrchestrateError::Protocol {
                    line: "GRID".into(),
                    reason: "unexpected second GRID".into(),
                })
            }
        }
    }
}

/// Computes one lease, streaming each tile as it finishes.
fn compute_lease(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    grid: &TileGrid,
    tiles: Vec<usize>,
    stream: &mut Stream,
    opts: &WorkerOpts,
    report: &mut WorkerReport,
) -> Result<(), OrchestrateError> {
    let plan = ShardPlan::explicit(*grid, tiles)?;
    let mut send_err: Option<OrchestrateError> = None;
    let flush_before = report.flush_wait_s;
    let compute_started = Instant::now();
    let result = engine.pairwise_tiles_with(states, &plan, &mut |id, values, ivs, secs| {
        if !opts.throttle.is_zero() {
            // Deterministic straggler hook for kill/re-dispatch tests.
            std::thread::sleep(opts.throttle);
        }
        let mut lines = String::new();
        snd_core::tile_line(&mut lines, id, values);
        if let Some(ivs) = ivs {
            snd_core::interval_line(&mut lines, id, ivs);
        }
        snd_core::timing_line(&mut lines, id, secs + opts.throttle.as_secs_f64());
        report.tiles += 1;
        let t0 = Instant::now();
        let sent = send_all(stream, lines.as_bytes());
        report.flush_wait_s += t0.elapsed().as_secs_f64();
        if let Err(e) = sent {
            send_err = Some(e);
            // Any shard error aborts the engine loop; the real cause is
            // restored below.
            return Err(snd_core::ShardError::Format("socket write failed".into()));
        }
        Ok(())
    });
    if let Err(e) = result {
        return Err(send_err.unwrap_or_else(|| e.into()));
    }
    let lease_flush = report.flush_wait_s - flush_before;
    report.compute_s += (compute_started.elapsed().as_secs_f64() - lease_flush).max(0.0);
    Ok(())
}

fn send_all(stream: &mut Stream, bytes: &[u8]) -> Result<(), OrchestrateError> {
    stream.set_nonblocking(false)?;
    stream.write_all(bytes)?;
    stream.flush()?;
    Ok(())
}

/// Reads one newline-terminated coordinator message (blocking, bounded
/// by the stream's read timeout).
fn read_msg(stream: &mut Stream, inbuf: &mut Vec<u8>) -> Result<CoordinatorMsg, OrchestrateError> {
    stream.set_nonblocking(false)?;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(nl) = inbuf.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = inbuf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line_bytes[..nl]).into_owned();
            return parse_coordinator_msg(&line);
        }
        if inbuf.len() > MAX_LINE_BYTES {
            return Err(OrchestrateError::Protocol {
                line: "<oversized>".into(),
                reason: "coordinator line exceeds maximum length".into(),
            });
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(OrchestrateError::Failed(
                    "coordinator closed the connection".into(),
                ))
            }
            Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}
