//! The T-snapshot all-pairs matrix: naive sequential loop vs the cached,
//! parallel batch pipeline (`SndEngine::pairwise_distances`).
//!
//! Three variants over the same snapshot set:
//!
//! * `sequential_naive` — `T·(T−1)/2` independent `distance_seq` calls:
//!   geometry recomputed per pair, every SSSP row recomputed per pair, no
//!   threads. The seed's only option, and the baseline the tentpole is
//!   measured against.
//! * `batch_cold` — `pairwise_distances`: geometry once per state, SSSP
//!   rows computed at most once per ground state into shared caches, all
//!   EMD\* terms fanned out over the thread pool. Caches start empty.
//! * `sharded_2` — the scale-out configuration: the tile grid split
//!   round-robin across 2 shard plans (`SndEngine::pairwise_tiles`), both
//!   computed back-to-back on this machine, then merged and validated
//!   (`TileSet::merge` + `to_matrix`). Against `batch_cold` this prices
//!   the sharding overhead — per-shard geometry recomputation for states
//!   both shards touch, plus the merge — that distributing across
//!   machines pays for.
//!
//! After measuring, the bench writes `BENCH_pairwise.json` at the repo
//! root — the perf-trajectory artifact tracked across PRs.
//!
//! Scale knobs (env): `SND_BENCH_NODES` (default 10000),
//! `SND_BENCH_SNAPSHOTS` (default 32), `SND_BENCH_SHARDS` (default 2).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snd_core::{auto_tile, ShardPlan, SndConfig, SndEngine, TileGrid, TileSet};
use snd_data::{generate_series, SyntheticSeriesConfig};
use snd_models::dynamics::VotingConfig;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn bench_pairwise_matrix(c: &mut Criterion) {
    let nodes = env_usize("SND_BENCH_NODES", 10_000).max(100);
    let snapshots = env_usize("SND_BENCH_SNAPSHOTS", 32).max(2);

    // A growing voting series: adjacent snapshots differ by a few dozen
    // users, endpoints by a few hundred — the anomaly-detection /
    // clustering regime the batch API targets.
    let series = generate_series(&SyntheticSeriesConfig {
        nodes,
        exponent: -2.3,
        initial_adopters: (nodes / 25).max(20),
        steps: snapshots - 1,
        normal: VotingConfig::new(0.12, 0.01).expect("valid voting parameters"),
        anomalous: VotingConfig::new(0.12, 0.01).expect("valid voting parameters"),
        anomalous_steps: vec![],
        chance_fraction: 0.02,
        burn_in: 0,
        seed: 2017,
    });
    let states = &series.states;
    let engine = SndEngine::new(&series.graph, SndConfig::default());
    let label = format!("n{}_t{}", nodes, snapshots);
    println!(
        "pairwise_matrix: |V|={nodes}, edges={}, T={snapshots}, threads={}",
        series.graph.edge_count(),
        rayon::current_num_threads()
    );

    let mut group = c.benchmark_group("pairwise_matrix");
    group
        .sample_size(2)
        .warmup_time(Duration::from_millis(1))
        .measurement_time(Duration::from_secs(1));

    group.bench_with_input(
        BenchmarkId::new("sequential_naive", &label),
        &(),
        |b, ()| b.iter(|| engine.pairwise_distances_seq(states)),
    );
    group.bench_with_input(BenchmarkId::new("batch_cold", &label), &(), |b, ()| {
        b.iter(|| engine.pairwise_distances(states))
    });

    let shards = env_usize("SND_BENCH_SHARDS", 2).max(2);
    let tile = auto_tile(states.len(), nodes);
    let grid = TileGrid::new(states.len(), tile);
    group.bench_with_input(
        BenchmarkId::new(format!("sharded_{shards}"), &label),
        &(),
        |b, ()| {
            b.iter(|| {
                let parts: Vec<TileSet> = (0..shards)
                    .map(|s| {
                        let plan = ShardPlan::round_robin(grid, s, shards).expect("valid plan");
                        engine.pairwise_tiles(states, &plan)
                    })
                    .collect();
                TileSet::merge(parts)
                    .expect("disjoint shards merge")
                    .to_matrix()
                    .expect("round-robin plans cover the grid")
            })
        },
    );
    group.finish();

    write_history(nodes, snapshots, series.graph.edge_count(), shards, tile);
}

/// Records the measurements as `BENCH_pairwise.json` at the repo root.
fn write_history(nodes: usize, snapshots: usize, edges: usize, shards: usize, tile: usize) {
    let measurements = criterion::take_measurements();
    let mean = |needle: &str| {
        measurements
            .iter()
            .find(|m| m.id.contains(needle))
            .map(|m| m.mean_s)
    };
    let (Some(seq), Some(cold), Some(sharded)) = (
        mean("sequential_naive"),
        mean("batch_cold"),
        mean("sharded_"),
    ) else {
        return;
    };
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"bench\": \"pairwise_matrix\",\n  \"unix_time\": {stamp},\n  \
         \"nodes\": {nodes},\n  \"snapshots\": {snapshots},\n  \"edges\": {edges},\n  \
         \"threads\": {threads},\n  \"sequential_naive_s\": {seq:.4},\n  \
         \"batch_cold_s\": {cold:.4},\n  \
         \"sharded_shards\": {shards},\n  \"sharded_tile\": {tile},\n  \
         \"sharded_total_s\": {sharded:.4},\n  \
         \"sharded_overhead_vs_cold\": {so:.2},\n  \
         \"speedup_cold\": {sc:.2}\n}}\n",
        threads = rayon::current_num_threads(),
        so = sharded / cold,
        sc = seq / cold,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pairwise.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_pairwise_matrix);
criterion_main!(benches);
