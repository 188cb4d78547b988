//! The traced replay: one workload run in-process through the library's
//! public functions, with a timed span around each layer.
//!
//! Every timed call belongs to exactly one span or to the *repeat* bin.
//! A repeat is a call made only to split a layer: the warm second
//! `breakdown_with` that separates SSSP rows from the transport solves,
//! the second `DeltaStateGeometry::fresh` that separates the
//! approximate-tier context from the sketch build, and so on. So
//! `trace.coverage` — spans plus repeats over the traced wall — shows
//! how much of the wall no span explains. `trace.overhead_frac` compares
//! the replay's own work with the workload's untraced public entry point
//! (`series_distances`, `pairwise_tiles_checkpointed`,
//! `series_intervals`) on the same input.
//!
//! A layer the workload never enters reports the time of one empty span
//! (tens of nanoseconds), which marks it as bypassed.
//!
//! The approximate tier's sketch maintenance and pricing cannot be
//! replayed through public functions: `series_intervals` adapts each
//! sketch with the refinement's feedback, and that step is internal. So
//! those two spans come from the program's own accounting instead: a
//! child process runs a warm `series_intervals` under `SND_APPROX_TRACE`
//! and reports the sketch phase time the library measures itself.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use snd_core::{
    auto_tile, Checkpoint, DeltaStateGeometry, ShardPlan, SndBreakdown, SndEngine, StateGeometry,
    TileGrid, TileSet,
};
use snd_models::{NetworkState, StateDelta};
use snd_orchestrate::{
    orchestrate_tile, run_worker, Coordinator, CoordinatorOpts, Endpoint, WorkerOpts, WorkerReport,
};

use crate::workload::{floats, printed_series, strings, Instance, Workload};

/// Per-layer metrics in seconds. Each is reported on every workload.
const TIME_LAYERS: [&str; 18] = [
    "graph.csr_build_s",
    "core.engine_new_s",
    "models.state_delta_s",
    "delta.fresh_s",
    "delta.step_s",
    "delta.bundle_s",
    "sparse.rows_s",
    "terms.solve_s",
    "banks.state_geometry_s",
    "shard.tiles_s",
    "shard.checkpoint_s",
    "shard.merge_s",
    "orchestrate.worker_compute_s",
    "orchestrate.flush_wait_s",
    "approx.ctx_build_s",
    "approx.sketch_build_s",
    "approx.sketch_step_s",
    "approx.price_s",
];

/// Per-layer counts and ratios; 0 where the workload has no such layer.
const OTHER_LAYERS: [&str; 12] = [
    "sparse.rows_computed",
    "sparse.rows_per_pair",
    "banks.state_geometry_count",
    "shard.checkpoint_bytes",
    "orchestrate.leases",
    "orchestrate.tiles",
    "orchestrate.redispatched",
    "orchestrate.duplicates",
    "orchestrate.poll_useful_frac",
    "interval_rel_width",
    "trace.coverage",
    "trace.overhead_frac",
];

/// Accumulated span times and layer counters of one traced pass.
#[derive(Default)]
struct Spans {
    seconds: BTreeMap<&'static str, f64>,
    other: BTreeMap<&'static str, f64>,
    /// Seconds in calls made only to split a layer.
    repeat_s: f64,
}

impl Spans {
    /// Runs `f` inside the span `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, secs) = timed(f);
        self.add(name, secs);
        out
    }

    fn add(&mut self, name: &'static str, secs: f64) {
        *self.seconds.entry(name).or_default() += secs;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.other.insert(name, value);
    }

    /// Span plus repeat seconds. Worker seconds run concurrently with
    /// the coordinator's poll loop (itself a repeat), so they are left out.
    fn covered_s(&self) -> f64 {
        let spans: f64 = self
            .seconds
            .iter()
            .filter(|(name, _)| !name.starts_with("orchestrate."))
            .map(|(_, s)| s)
            .sum();
        spans + self.repeat_s
    }

    /// The metrics object: every layer, bypassed ones as an empty span.
    fn metrics_json(mut self) -> String {
        for name in TIME_LAYERS {
            if !self.seconds.contains_key(name) {
                self.span(name, || ());
            }
        }
        let mut parts: Vec<String> = TIME_LAYERS
            .iter()
            .map(|name| format!("\"{name}\":{:?}", self.seconds[name]))
            .collect();
        parts.extend(OTHER_LAYERS.iter().map(|name| {
            format!(
                "\"{name}\":{:?}",
                self.other.get(name).copied().unwrap_or(0.0)
            )
        }));
        format!("{{{}}}", parts.join(","))
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// What one replay produced besides its spans, for the output gates.
struct Replay {
    /// The SND values in workload order (series, or the matrix's upper
    /// triangle row by row).
    values: Vec<f64>,
    /// Extra JSON members (printed series, intervals).
    extra: String,
    /// Seconds of the replay's own layered work, repeats excluded.
    work_s: f64,
    /// Seconds of the untraced public entry point on the same input.
    untraced_s: f64,
}

/// Runs the traced replay and returns the trace record as JSON. With
/// `baseline` set (the one-thread run) the in-process orchestration is
/// skipped: it needs two worker threads to mean anything.
pub fn run(
    workload: Workload,
    inst: &Instance,
    seed: u64,
    dir: &Path,
    baseline: bool,
) -> Result<String, String> {
    let mut spans = Spans::default();
    let started = Instant::now();
    let graph = spans.span("graph.csr_build_s", || inst.graph());
    let engine = spans.span("core.engine_new_s", || {
        SndEngine::new(&graph, workload.config())
    });
    let setup_s = started.elapsed().as_secs_f64();
    let states = &inst.states;
    let replay = match workload {
        Workload::SeriesExact => series_exact(&engine, states, &mut spans)?,
        Workload::AllpairsShard | Workload::AllpairsOrchestrate => {
            let orchestrate = workload == Workload::AllpairsOrchestrate && !baseline;
            all_pairs(&engine, states, dir, orchestrate, &mut spans)?
        }
        Workload::ApproxSeries => approx_series(inst, seed, &engine, states, &mut spans)?,
    };
    let wall_s = started.elapsed().as_secs_f64();
    let work_s = setup_s + replay.work_s;
    let untraced_s = setup_s + replay.untraced_s;
    spans.set("trace.coverage", spans.covered_s() / wall_s);
    spans.set("trace.overhead_frac", (work_s - untraced_s) / untraced_s);
    let repeat_s = spans.repeat_s;
    Ok(format!(
        "{{\"threads\":{},\"wall_s\":{wall_s:?},\"work_s\":{work_s:?},\
         \"untraced_s\":{untraced_s:?},\"repeat_s\":{repeat_s:?},\"values\":{}{},\"metrics\":{}}}",
        rayon::current_num_threads(),
        floats(&replay.values),
        replay.extra,
        spans.metrics_json()
    ))
}

/// Cold then warm `breakdown_with` on the same bundles: the warm call
/// finds every SSSP row cached, so it times the transport solves and
/// EMD* assembly alone and the difference times the rows.
fn priced(
    engine: &SndEngine<'_>,
    a: &NetworkState,
    b: &NetworkState,
    ga: &StateGeometry,
    gb: &StateGeometry,
    spans: &mut Spans,
) -> Result<SndBreakdown, String> {
    let (cold, cold_s) = timed(|| engine.breakdown_with(a, b, ga, gb));
    let (warm, warm_s) = timed(|| engine.breakdown_with(a, b, ga, gb));
    if cold != warm {
        return Err("warm breakdown_with differs from the cold one".into());
    }
    spans.add("terms.solve_s", warm_s);
    spans.add("sparse.rows_s", cold_s - warm_s);
    spans.repeat_s += warm_s;
    Ok(cold)
}

/// The exact delta series, as `SeriesEvaluator` walks it.
fn series_exact(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    spans: &mut Spans,
) -> Result<Replay, String> {
    let repeat_mark = spans.repeat_s;
    let started = Instant::now();
    let graph = engine.graph();
    let mut prev = spans.span("delta.fresh_s", || {
        DeltaStateGeometry::fresh(engine, &states[0])
    });
    // `SeriesEvaluator` borrows the delta geometry; the replay clones it
    // into a bundle for `breakdown_with`. The clones are timed as a span
    // but are not the program's work, so they stay out of `work_s`.
    let (mut prev_bundle, mut bundle_s) = timed(|| prev.bundle(engine));
    let (mut rows, mut pairs) = (0usize, 0usize);
    let mut values = Vec::with_capacity(states.len() - 1);
    for t in 1..states.len() {
        let delta = spans.span("models.state_delta_s", || {
            StateDelta::between(graph, &states[t - 1], &states[t])
        });
        if delta.is_empty() {
            values.push(SndBreakdown::default().total());
            continue;
        }
        let cur = spans.span("delta.step_s", || prev.step(engine, &states[t], &delta));
        let (cur_bundle, s) = timed(|| cur.bundle(engine));
        bundle_s += s;
        let b = priced(
            engine,
            &states[t - 1],
            &states[t],
            &prev_bundle,
            &cur_bundle,
            spans,
        )?;
        values.push(b.total());
        pairs += 1;
        rows += prev_bundle.cached_rows();
        prev = cur;
        prev_bundle = cur_bundle;
    }
    rows += prev_bundle.cached_rows();
    let work_s = started.elapsed().as_secs_f64() - (spans.repeat_s - repeat_mark) - bundle_s;
    spans.add("delta.bundle_s", bundle_s);
    drop((prev, prev_bundle));
    let (reference, untraced_s) = timed(|| engine.series_distances(states));
    spans.repeat_s += untraced_s;
    if bits(&values) != bits(&reference) {
        return Err("replayed series differs from series_distances".into());
    }
    set_rows(spans, rows, pairs);
    Ok(Replay {
        extra: format!(",\"printed\":{}", strings(&printed_series(&values, states))),
        values,
        work_s,
        untraced_s,
    })
}

/// The all-pairs matrix: per-state geometry banks and per-pair pricing in
/// tile order (bundles dropped after their last tile, as the tile path
/// does), then the tile path itself with its checkpoint, the merge, and —
/// for `allpairs_orchestrate` — a coordinator with two worker threads.
fn all_pairs(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    dir: &Path,
    orchestrate: bool,
    spans: &mut Spans,
) -> Result<Replay, String> {
    let k = states.len();
    let grid = TileGrid::new(k, auto_tile(k, engine.graph().node_count()));
    let order: Vec<(usize, usize)> = (0..grid.tile_count())
        .flat_map(|id| grid.pairs(id))
        .collect();
    let mut last_use = vec![0usize; k];
    for (pos, &(i, j)) in order.iter().enumerate() {
        last_use[i] = pos;
        last_use[j] = pos;
    }

    let repeat_mark = spans.repeat_s;
    let started = Instant::now();
    let mut geoms: Vec<Option<StateGeometry>> = (0..k).map(|_| None).collect();
    let mut matrix = vec![vec![0.0f64; k]; k];
    let (mut built, mut rows) = (0usize, 0usize);
    for (pos, &(i, j)) in order.iter().enumerate() {
        for s in [i, j] {
            if geoms[s].is_none() {
                geoms[s] = Some(spans.span("banks.state_geometry_s", || {
                    engine.state_geometry(&states[s])
                }));
                built += 1;
            }
        }
        let (Some(ga), Some(gb)) = (&geoms[i], &geoms[j]) else {
            return Err("geometry missing".into());
        };
        matrix[i][j] = priced(engine, &states[i], &states[j], ga, gb, spans)?.total();
        for s in [i, j] {
            if last_use[s] == pos {
                rows += geoms[s].take().map_or(0, |g| g.cached_rows());
            }
        }
    }
    let work_s = started.elapsed().as_secs_f64() - (spans.repeat_s - repeat_mark);
    spans.set("banks.state_geometry_count", built as f64);
    set_rows(spans, rows, order.len());
    let values: Vec<f64> = (0..k).flat_map(|i| matrix[i][i + 1..].to_vec()).collect();

    // The tile path through an explicit checkpoint, so the appends can be
    // timed apart from the compute (this is what
    // `pairwise_tiles_checkpointed` does inside).
    let ckpt_path = dir.join("trace.ckpt");
    let _ = std::fs::remove_file(&ckpt_path);
    let plan = ShardPlan::round_robin(grid, 0, 1).map_err(|e| e.to_string())?;
    let fingerprint = engine.shard_fingerprint(states);
    let (_, mut ckpt) = spans
        .span("shard.checkpoint_s", || {
            Checkpoint::open(&ckpt_path, grid, fingerprint)
        })
        .map_err(|e| e.to_string())?;
    let mut append_s = 0.0;
    let (tiles, tiles_s) = timed(|| {
        engine.pairwise_tiles_with(states, &plan, &mut |id, vals, ivs, secs| {
            let (res, s) = timed(|| ckpt.append(id, vals, ivs, Some(secs)));
            append_s += s;
            res
        })
    });
    tiles.map_err(|e| e.to_string())?;
    drop(ckpt);
    spans.add("shard.tiles_s", tiles_s - append_s);
    spans.add("shard.checkpoint_s", append_s);
    let untraced_s = tiles_s;
    let bytes = std::fs::metadata(&ckpt_path)
        .map_err(|e| e.to_string())?
        .len();
    spans.set("shard.checkpoint_bytes", bytes as f64);
    let merged = spans
        .span("shard.merge_s", || {
            TileSet::load(&ckpt_path)
                .and_then(|set| TileSet::merge([set]))
                .and_then(|set| set.to_matrix())
        })
        .map_err(|e| e.to_string())?;
    let tile_values: Vec<f64> = (0..k)
        .flat_map(|i| merged.row(i)[i + 1..].to_vec())
        .collect();
    if bits(&tile_values) != bits(&values) {
        return Err("replayed matrix differs from pairwise_tiles".into());
    }

    if orchestrate {
        let orchestrated = in_process_orchestration(engine, states, dir, spans)?;
        if bits(&orchestrated) != bits(&values) {
            return Err("orchestrated matrix differs from pairwise_tiles".into());
        }
    }
    Ok(Replay {
        values,
        extra: String::new(),
        work_s,
        untraced_s,
    })
}

/// A `Coordinator` polled on this thread and two `run_worker` threads
/// sharing the engine; metrics come from the reports, never from output.
fn in_process_orchestration(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    dir: &Path,
    spans: &mut Spans,
) -> Result<Vec<f64>, String> {
    let k = states.len();
    let grid = TileGrid::new(k, orchestrate_tile(k, engine.graph().node_count()));
    let ckpt_path = dir.join("trace-orchestrate.ckpt");
    let sock = dir.join("trace.sock");
    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(&sock);
    let started = Instant::now();
    let mut coord = Coordinator::new(
        &Endpoint::Unix(sock),
        &ckpt_path,
        grid,
        engine.shard_fingerprint(states),
        CoordinatorOpts::default(),
    )
    .map_err(|e| e.to_string())?;
    let addr = coord.local_addr();
    let (mut polls, mut useful) = (0usize, 0usize);
    let (polled, reports) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| run_worker(engine, states, &addr, &WorkerOpts::default())))
            .collect();
        let mut poll = || -> Result<(), String> {
            while !coord.is_complete() {
                polls += 1;
                if coord.poll_once().map_err(|e| e.to_string())? {
                    useful += 1;
                } else {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            coord.finish().map_err(|e| e.to_string())
        };
        let polled = poll();
        let reports: Vec<Result<WorkerReport, String>> = workers
            .into_iter()
            .map(|w| match w.join() {
                Ok(r) => r.map_err(|e| e.to_string()),
                Err(_) => Err("worker thread panicked".into()),
            })
            .collect();
        (polled, reports)
    });
    polled?;
    spans.repeat_s += started.elapsed().as_secs_f64();
    let reports = reports.into_iter().collect::<Result<Vec<_>, _>>()?;
    let report = coord.report();
    let sum = |f: fn(&WorkerReport) -> f64| reports.iter().map(f).sum::<f64>();
    spans.set("orchestrate.leases", sum(|r| r.leases as f64));
    spans.set("orchestrate.tiles", sum(|r| r.tiles as f64));
    spans.add("orchestrate.worker_compute_s", sum(|r| r.compute_s));
    spans.add("orchestrate.flush_wait_s", sum(|r| r.flush_wait_s));
    spans.set("orchestrate.redispatched", report.redispatched as f64);
    spans.set("orchestrate.duplicates", report.duplicates as f64);
    spans.set(
        "orchestrate.poll_useful_frac",
        useful as f64 / polls.max(1) as f64,
    );
    let matrix = coord.into_tiles().to_matrix().map_err(|e| e.to_string())?;
    Ok((0..k)
        .flat_map(|i| matrix.row(i)[i + 1..].to_vec())
        .collect())
}

/// The certified series: the context build and the sketch build split
/// by two `DeltaStateGeometry::fresh` calls, the deltas timed on their
/// own, and the sketch maintenance and pricing of a warm
/// `series_intervals` taken from the program's own phase accounting
/// ([`approx_phases`], in a child process).
fn approx_series(
    inst: &Instance,
    seed: u64,
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    spans: &mut Spans,
) -> Result<Replay, String> {
    // The untraced entry point needs a cold context, so its own engine;
    // its graph and engine are set-up, which `run` already counts.
    let graph = inst.graph();
    let cold = SndEngine::new(&graph, Workload::ApproxSeries.config());
    let (reference, untraced_s) = timed(|| cold.series_intervals(states));
    let reference = reference.map_err(|e| e.to_string())?;
    spans.repeat_s += untraced_s;
    drop(cold);

    let graph = engine.graph();
    let (first, first_s) = timed(|| DeltaStateGeometry::fresh(engine, &states[0]));
    drop(first);
    let (second, sketch_s) = timed(|| DeltaStateGeometry::fresh(engine, &states[0]));
    drop(second);
    spans.add("approx.ctx_build_s", first_s - sketch_s);
    spans.add("approx.sketch_build_s", sketch_s);
    spans.repeat_s += sketch_s;
    spans.span("models.state_delta_s", || {
        for t in 1..states.len() {
            StateDelta::between(graph, &states[t - 1], &states[t]);
        }
    });
    let (intervals, warm_s) = timed(|| engine.series_intervals(states));
    let intervals = intervals.map_err(|e| e.to_string())?;
    spans.repeat_s += warm_s;
    let work_s = first_s - sketch_s + warm_s;

    let (phases, child_s) = timed(|| run_approx_phases(seed));
    let phases = phases?;
    if phases.price_s <= 0.0 {
        return Err(format!(
            "warm series_intervals took {} s, less than its sketch and delta time",
            phases.warm_s
        ));
    }
    spans.add("approx.sketch_step_s", phases.sketch_step_s);
    spans.add("approx.price_s", phases.price_s);
    spans.repeat_s += child_s - phases.sketch_step_s - phases.price_s;

    let pairs = |ivs: &[snd_core::SndInterval]| -> Vec<(f64, f64)> {
        ivs.iter().map(|iv| (iv.lower, iv.upper)).collect()
    };
    if pairs(&intervals) != pairs(&reference) {
        return Err("warm series_intervals differs from the cold one".into());
    }
    let mids: Vec<f64> = intervals.iter().map(|iv| iv.midpoint()).collect();
    if bits(&phases.mids) != bits(&mids) {
        return Err("traced series_intervals differs from the untraced one".into());
    }
    let certified: Vec<f64> = intervals
        .iter()
        .filter(|iv| iv.upper > 0.0)
        .map(|iv| (iv.upper - iv.lower) / iv.upper)
        .collect();
    spans.set(
        "interval_rel_width",
        certified.iter().sum::<f64>() / certified.len().max(1) as f64,
    );
    let printed = |f: fn(&snd_core::SndInterval) -> f64| -> String {
        strings(
            &intervals
                .iter()
                .map(|iv| format!("{:.4}", f(iv)))
                .collect::<Vec<_>>(),
        )
    };
    Ok(Replay {
        extra: format!(
            ",\"printed\":{},\"printed_lower\":{},\"printed_upper\":{},\"sketch_rows\":{}",
            strings(&printed_series(&mids, states)),
            printed(|iv| iv.lower),
            printed(|iv| iv.upper),
            phases.sketch_rows
        ),
        values: mids,
        work_s,
        untraced_s,
    })
}

/// The approximate tier's own accounting of one warm `series_intervals`.
struct ApproxPhases {
    /// Sketch repairs, rebuilds and landmark promotions after the
    /// initial sketch build.
    sketch_step_s: f64,
    /// The warm call's wall minus all its sketch time and its deltas.
    price_s: f64,
    warm_s: f64,
    /// The interval midpoints, to check the traced run prices the same.
    mids: Vec<f64>,
    /// `{"repaired", "reused", "stale", "rebuilt"}` sketch rows.
    sketch_rows: String,
}

/// Runs [`approx_phases`] in a child process (this binary, with
/// `SND_APPROX_TRACE` set) and reads its stdout and the library's
/// run summaries from its stderr.
fn run_approx_phases(seed: u64) -> Result<ApproxPhases, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["approx-phases", "--workload", "approx_series"])
        .args(["--seed", &seed.to_string(), "--dir", "."])
        .env("SND_APPROX_TRACE", "1")
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("spawning approx-phases: {e}"))?;
    if !out.status.success() {
        return Err(format!("approx-phases exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let field = |name: &str| -> Result<&str, String> {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .map(str::trim)
            .ok_or(format!("approx-phases printed no {name}"))
    };
    let number = |name: &str| -> Result<f64, String> {
        field(name)?.parse().map_err(|_| format!("bad {name}"))
    };
    let (warm_s, delta_s) = (number("warm_s")?, number("delta_s")?);
    let mids = field("mids")?
        .split_whitespace()
        .map(|v| v.parse().map_err(|_| "bad mids".to_string()))
        .collect::<Result<Vec<f64>, String>>()?;
    // The last two run summaries: the sketch-build-only probe, then the
    // warm series.
    let summaries: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("approx-summary [series_intervals]"))
        .collect();
    let [.., probe, series] = summaries[..] else {
        return Err("approx-phases printed fewer than two run summaries".into());
    };
    let sketch_ms = |line: &str| -> Result<f64, String> {
        Ok(summary_field(line, "phase_ms[sketch/rows/balls/solves/exact]=")?[0])
    };
    let (build_ms, series_ms) = (sketch_ms(probe)?, sketch_ms(series)?);
    let rows = summary_field(series, "sketch_rows[repaired/reused/stale/rebuilt]=")?;
    let [repaired, reused, stale, rebuilt] = rows[..] else {
        return Err("bad sketch_rows in the run summary".into());
    };
    Ok(ApproxPhases {
        sketch_step_s: (series_ms - build_ms) / 1e3,
        price_s: warm_s - series_ms / 1e3 - delta_s,
        warm_s,
        mids,
        sketch_rows: format!(
            "{{\"repaired\":{repaired},\"reused\":{reused},\"stale\":{stale},\"rebuilt\":{rebuilt}}}"
        ),
    })
}

/// The `/`-separated numbers after `key` in a run summary line.
fn summary_field(line: &str, key: &str) -> Result<Vec<f64>, String> {
    let rest = line
        .split_once(key)
        .ok_or(format!("no {key} in the run summary"))?
        .1;
    rest.split_whitespace()
        .next()
        .unwrap_or("")
        .split('/')
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad {key} in the run summary"))
        })
        .collect()
}

/// The child side of [`run_approx_phases`]; run with `SND_APPROX_TRACE`
/// set. One cold `series_intervals` builds the context. A second on the
/// first state twice builds only the initial sketches, so its summary
/// gives their phase time. The third, the warm series, is the one
/// measured; it prints `warm_s`, `delta_s` (the deltas it computes, timed
/// on their own) and `mids`.
pub fn approx_phases(inst: &Instance) -> Result<(), String> {
    let graph = inst.graph();
    let engine = SndEngine::new(&graph, Workload::ApproxSeries.config());
    let states = &inst.states;
    engine.series_intervals(states).map_err(|e| e.to_string())?;
    engine
        .series_intervals(&[states[0].clone(), states[0].clone()])
        .map_err(|e| e.to_string())?;
    let (intervals, warm_s) = timed(|| engine.series_intervals(states));
    let intervals = intervals.map_err(|e| e.to_string())?;
    let (_, delta_s) = timed(|| {
        for t in 1..states.len() {
            StateDelta::between(&graph, &states[t - 1], &states[t]);
        }
    });
    let mids: Vec<String> = intervals
        .iter()
        .map(|iv| format!("{:?}", iv.midpoint()))
        .collect();
    println!(
        "warm_s {warm_s:?}\ndelta_s {delta_s:?}\nmids {}",
        mids.join(" ")
    );
    Ok(())
}

fn set_rows(spans: &mut Spans, rows: usize, pairs: usize) {
    spans.set("sparse.rows_computed", rows as f64);
    spans.set("sparse.rows_per_pair", rows as f64 / pairs.max(1) as f64);
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}
