//! Certified series pricing at scale: one delta-repaired sketch bundle
//! carried along the series.
//!
//! The workload is the low-churn regime the sketch-repair path is built
//! for: a ~10⁵-node graph whose snapshots differ by a few hundred
//! balanced flips around one cascade epicenter.
//! `SndEngine::series_intervals` advances a single sketch bundle through
//! each transition (landmark rows repaired through the touched edges, the
//! repair budget steered by term feedback). The mean relative width of
//! the timed series' intervals is recorded beside the time. A subsampled
//! instance small enough to price exactly checks that its intervals
//! still bracket the exact SND.
//!
//! Results are spliced into `BENCH_scale.json` (repo root) as the
//! `"series"` member, preserving the `scale_approx` ladder around it.
//!
//! Scale knobs (env): `SND_BENCH_SERIES_NODES` (default ~10⁵),
//! `SND_BENCH_SERIES_STEPS` (snapshots − 1, default 24),
//! `SND_BENCH_DELTA` (flips per step, default 256),
//! `SND_BENCH_EPSILON` (default 0.5), `SND_BENCH_LANDMARKS` (default 24),
//! `SND_BENCH_GRAPH` (`ba`/`grid`, default `ba`).
//!
//! Default geometry: Barabási–Albert with 24 landmarks, of which the
//! feedback-driven repair budget keeps only the handful of pairs the
//! pricing leans on current. 24 transitions amortize the one initial
//! sketch build.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_core::{ApproxConfig, SndConfig, SndEngine};
use snd_graph::generators::{barabasi_albert, grid_graph};
use snd_graph::CsrGraph;
use snd_models::NetworkState;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn graph_kind() -> String {
    std::env::var("SND_BENCH_GRAPH").unwrap_or_else(|_| "ba".into())
}

fn build_graph(nodes: usize, rng: &mut SmallRng) -> CsrGraph {
    match graph_kind().as_str() {
        "ba" => barabasi_albert(nodes, 3, rng),
        "grid" => {
            let side = (nodes as f64).sqrt().round() as usize;
            grid_graph(side, side)
        }
        other => panic!("SND_BENCH_GRAPH must be 'grid' or 'ba', got {other:?}"),
    }
}

/// The candidate holders of one drift step, classified by opinion: nodes
/// in BFS order around `center`, grown until every class can supply its
/// quota. An opinion cascade perturbs a graph *neighbourhood* — this is
/// what makes the workload low-churn in the structural sense (each
/// transition's touched edges, residual suppliers, and residual
/// demanders all share one region) rather than a uniform sprinkle whose
/// perturbation shadows the whole graph.
fn bfs_region(
    g: &CsrGraph,
    center: u32,
    vals: &[i8],
    q: usize,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    // Only rank-and-file users flip: cascades churn the periphery while
    // high-degree nodes hold their positions (the standard stubborn-
    // celebrity assumption). This also keeps the perturbation structural
    // noise small — a hub flip would touch edges sitting on shortest
    // paths across the whole graph.
    let degree_cap = 4 * (g.edge_count() / g.node_count()).max(1);
    let mut seen = vec![false; vals.len()];
    let mut queue = std::collections::VecDeque::from([center]);
    seen[center as usize] = true;
    let (mut pos, mut neg, mut zero) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(u) = queue.pop_front() {
        if g.out_neighbors(u).len() <= degree_cap {
            match vals[u as usize] {
                1 => pos.push(u as usize),
                -1 => neg.push(u as usize),
                _ => zero.push(u as usize),
            }
        }
        if pos.len() >= q && neg.len() >= q && zero.len() >= 2 * q {
            break;
        }
        for &v in g.out_neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    (pos, neg, zero)
}

/// One balanced drift step: per polar opinion, `q` holders release it and
/// `q` distinct neutral users adopt it, so every histogram total is
/// preserved (no bank absorption) and each transition stays in the
/// residual-to-residual regime of real consecutive snapshots. Flips come
/// from the [`bfs_region`] around a persistent epicenter — the cascade
/// churns one neighbourhood across the series — with a random-phase
/// stride choosing among its candidates so successive steps vary.
fn drift(g: &CsrGraph, vals: &mut [i8], n_delta: usize, center: u32, rng: &mut SmallRng) {
    let q_want = (n_delta / 4).max(1);
    let (pos, neg, zero) = bfs_region(g, center, vals, q_want);
    let q = q_want.min(pos.len()).min(neg.len()).min(zero.len() / 2);
    assert!(q >= 1, "graph too small for the requested n_delta");
    let pick = |list: &[usize], k: usize, rng: &mut SmallRng| -> Vec<usize> {
        let stride = (list.len() / k).max(1);
        let phase = rng.gen_range(0..stride);
        list.iter()
            .skip(phase)
            .step_by(stride)
            .take(k)
            .copied()
            .collect()
    };
    for &i in &pick(&pos, q, rng) {
        vals[i] = 0;
    }
    for &i in &pick(&neg, q, rng) {
        vals[i] = 0;
    }
    for (k, &i) in pick(&zero, 2 * q, rng).iter().enumerate() {
        vals[i] = if k % 2 == 0 { 1 } else { -1 };
    }
}

/// A low-churn series: a sparse polar seeding followed by `steps`
/// balanced cascade drifts of ~`n_delta` users each around one epicenter.
fn series_states(
    g: &CsrGraph,
    steps: usize,
    n_delta: usize,
    rng: &mut SmallRng,
) -> Vec<NetworkState> {
    let n = g.node_count();
    let mut vals = vec![0i8; n];
    for v in vals.iter_mut() {
        if rng.gen::<f64>() < 0.05 {
            *v = if rng.gen::<bool>() { 1 } else { -1 };
        }
    }
    let center = rng.gen_range(0..n) as u32;
    let mut out = vec![NetworkState::from_values(&vals)];
    for _ in 0..steps {
        drift(g, &mut vals, n_delta, center, rng);
        out.push(NetworkState::from_values(&vals));
    }
    out
}

fn approx_config(epsilon: f64, landmarks: usize) -> SndConfig {
    SndConfig {
        approx: Some(ApproxConfig {
            epsilon,
            max_landmarks: landmarks,
            min_nodes: 0,
            ..Default::default()
        }),
        ..SndConfig::default()
    }
}

fn bench_scale_series(c: &mut Criterion) {
    let test = criterion::is_test_mode();
    let nodes = env_usize("SND_BENCH_SERIES_NODES", if test { 2_500 } else { 99_856 });
    let steps = env_usize("SND_BENCH_SERIES_STEPS", if test { 3 } else { 24 });
    let n_delta = env_usize("SND_BENCH_DELTA", if test { 64 } else { 256 });
    let epsilon = env_f64("SND_BENCH_EPSILON", 0.5);
    let landmarks = env_usize("SND_BENCH_LANDMARKS", 24);

    let mut rng = SmallRng::seed_from_u64(2017);
    let graph = build_graph(nodes, &mut rng);
    let n = graph.node_count();
    let states = series_states(&graph, steps, n_delta, &mut rng);
    println!(
        "scale_series: n={n} ({} edges), {} snapshots, ~{n_delta} flips/step",
        graph.edge_count(),
        states.len()
    );
    let engine = SndEngine::new(&graph, approx_config(epsilon, landmarks));

    let mut group = c.benchmark_group("scale_series");
    group
        .sample_size(2)
        .warmup_time(Duration::from_millis(1))
        .measurement_time(Duration::from_secs(1));
    let mut intervals = Vec::new();
    group.bench_function("delta", |b| {
        b.iter(|| intervals = engine.series_intervals(&states).unwrap())
    });
    group.finish();
    // Mean of `width / upper` over the transitions with a positive upper
    // bound.
    let rel: Vec<f64> = intervals
        .iter()
        .filter(|iv| iv.upper > 0.0)
        .map(|iv| iv.width() / iv.upper)
        .collect();
    let mean_rel_width = rel.iter().sum::<f64>() / rel.len().max(1) as f64;
    println!("scale_series: mean relative interval width {mean_rel_width:.5}");

    // Certification spot-check on an instance small enough to price
    // exactly: delta-path intervals must bracket the exact series.
    let check_nodes = if test { 900 } else { 10_000 };
    let mut rng = SmallRng::seed_from_u64(4242);
    let small_graph = build_graph(check_nodes, &mut rng);
    let small_states = series_states(&small_graph, steps.min(4), n_delta, &mut rng);
    let exact = SndEngine::new(&small_graph, SndConfig::default()).series_distances(&small_states);
    let intervals = SndEngine::new(&small_graph, approx_config(epsilon, landmarks))
        .series_intervals(&small_states)
        .unwrap();
    let bracketed = exact
        .iter()
        .zip(&intervals)
        .all(|(d, iv)| iv.lower <= d + 1e-9 && *d <= iv.upper + 1e-9);
    println!(
        "scale_series: bracket check at n={}: intervals bracket exact: {bracketed}",
        small_graph.node_count()
    );

    write_history(
        n,
        graph.edge_count(),
        states.len(),
        n_delta,
        epsilon,
        landmarks,
        mean_rel_width,
        check_nodes,
        bracketed,
    );
}

/// Splices the measurements into `BENCH_scale.json` as the `"series"`
/// member, leaving the `scale_approx` ladder in place.
#[allow(clippy::too_many_arguments)]
fn write_history(
    nodes: usize,
    edges: usize,
    snapshots: usize,
    n_delta: usize,
    epsilon: f64,
    landmarks: usize,
    mean_rel_width: f64,
    check_nodes: usize,
    bracketed: bool,
) {
    let measurements = criterion::take_measurements();
    let mean = |needle: &str| {
        measurements
            .iter()
            .find(|m| m.id.contains(needle))
            .map(|m| m.mean_s)
    };
    let Some(delta_s) = mean("delta") else {
        return;
    };
    let block = format!(
        "{{\"graph\": \"{kind}\", \"nodes\": {nodes}, \"edges\": {edges}, \
         \"snapshots\": {snapshots}, \"n_delta_per_step\": {n_delta}, \
         \"epsilon\": {epsilon}, \"landmarks\": {landmarks}, \
         \"threads\": {threads}, \"delta_s\": {delta_s:.4}, \
         \"mean_rel_width\": {mean_rel_width:.5}, \
         \"bracket_check_nodes\": {check_nodes}, \
         \"intervals_bracket_exact\": {bracketed}}}",
        kind = graph_kind(),
        threads = rayon::current_num_threads(),
    );
    let path = snd_bench::scale_record::scale_json_path();
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let json = snd_bench::scale_record::splice_series(&text, &block);
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote series block to {path}:\n  \"series\": {block}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_scale_series);
criterion_main!(benches);
