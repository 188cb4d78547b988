//! The approximate tier at scale: landmark-sketch + coarsening SND vs
//! the exact Theorem 4 path as the graph grows to 10⁶ nodes.
//!
//! Three measurements, recorded in `BENCH_scale.json` at the repo root:
//!
//! * **Crossover** — exact and approximate `distance` timed side by side
//!   on a ladder of graphs at fixed n∆ (spatial grid by default, see
//!   [`graph_kind`]); the crossover is the first size where the certified
//!   interval is cheaper than the exact answer.
//! * **Measured error** — on a subsampled instance small enough to price
//!   exactly, the interval must bracket the exact value and the midpoint's
//!   relative error must stay within the requested ε (the certificate
//!   guarantees ≤ ε/2·upper/lower ≤ ε for ε < 1; this records the
//!   *measured* slack).
//! * **The 10⁶-node run** — approximate only: at this size the exact
//!   tier's one-SSSP-per-differing-user sweep is the infeasible baseline
//!   the sketch replaces.
//!
//! Scale knobs (env): `SND_BENCH_DELTA` (differing users, default 1024),
//! `SND_BENCH_EPSILON` (default 0.2), `SND_BENCH_LANDMARKS` (default 8),
//! `SND_BENCH_GRAPH` (`grid`/`ba`), `SND_BENCH_LADDER` (comma-separated
//! rung sizes), `SND_BENCH_MILLION` (node count for the headline run).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

/// A state pair differing on `n_delta` users with *balanced* drift: for
/// each polar opinion, as many users adopt it as abandon it between the
/// two snapshots. Balanced drift keeps each EMD\* term's histogram masses
/// equal (no bank absorption), so the comparison exercises the
/// residual-to-residual transportation that dominates real consecutive
/// snapshots; the flip sites are spread across the graph, not one local
/// cluster.
fn state_pair(n: usize, n_delta: usize, rng: &mut SmallRng) -> (NetworkState, NetworkState) {
    let mut base = vec![0i8; n];
    for v in base.iter_mut() {
        if rng.gen::<f64>() < 0.05 {
            *v = if rng.gen::<bool>() { 1 } else { -1 };
        }
    }
    let (mut pos, mut neg, mut zero) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &v) in base.iter().enumerate() {
        match v {
            1 => pos.push(i),
            -1 => neg.push(i),
            _ => zero.push(i),
        }
    }
    // Per opinion: q users abandon it (→ neutral) and q distinct neutral
    // users adopt it, keeping every histogram total unchanged.
    let q = (n_delta / 4).max(1).min(pos.len()).min(neg.len());
    assert!(
        zero.len() >= 2 * q,
        "graph too small for the requested n_delta"
    );
    let spread = |list: &[usize], k: usize| -> Vec<usize> {
        let stride = (list.len() / k).max(1);
        list.iter().step_by(stride).take(k).copied().collect()
    };
    let mut other = base.clone();
    for &i in &spread(&pos, q) {
        other[i] = 0;
    }
    for &i in &spread(&neg, q) {
        other[i] = 0;
    }
    for (k, &i) in spread(&zero, 2 * q).iter().enumerate() {
        other[i] = if k % 2 == 0 { 1 } else { -1 };
    }
    (
        NetworkState::from_values(&base),
        NetworkState::from_values(&other),
    )
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

struct SizedInstance {
    graph: CsrGraph,
    a: NetworkState,
    b: NetworkState,
}

/// Graph topology for the benchmark instances.
///
/// `grid` (the default) is a spatial lattice: distances have geometric
/// structure, so landmark triangle bounds are tight and the coarse tier
/// certifies most cells without exact SSSP rows. `ba` is a Barabási–Albert
/// hub graph: every shortest path routes through hubs, landmark *lower*
/// bounds degenerate (`|d(a,l) − d(l,b)| ≈ 0` when `l` is a hub near
/// both), and the certificate must buy exact rows instead — the
/// adversarial topology for certified approximation.
fn graph_kind() -> String {
    std::env::var("SND_BENCH_GRAPH").unwrap_or_else(|_| "grid".into())
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

fn instance(nodes: usize, n_delta: usize, seed: u64) -> SizedInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = build_graph(nodes, &mut rng);
    let n = graph.node_count();
    let (a, b) = state_pair(n, n_delta, &mut rng);
    SizedInstance { graph, a, b }
}

fn bench_scale_approx(c: &mut Criterion) {
    // --test mode shrinks every size so the CI smoke finishes in seconds;
    // the recorded history comes from a full run.
    let test = criterion::is_test_mode();
    let n_delta = env_usize("SND_BENCH_DELTA", if test { 64 } else { 1024 });
    let epsilon = env_f64("SND_BENCH_EPSILON", 0.2);
    let landmarks = env_usize("SND_BENCH_LANDMARKS", 8);
    let ladder: Vec<usize> = std::env::var("SND_BENCH_LADDER")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|| {
            if test {
                vec![800, 2_000]
            } else {
                vec![2_000, 10_000, 50_000, 100_000]
            }
        });
    let ladder = ladder.as_slice();
    let million = env_usize("SND_BENCH_MILLION", if test { 10_000 } else { 1_000_000 });
    let error_nodes = if test { 1_000 } else { 10_000 };

    let mut group = c.benchmark_group("scale_approx");
    group
        .sample_size(2)
        .warmup_time(Duration::from_millis(1))
        .measurement_time(Duration::from_secs(1));

    // Crossover ladder: exact vs approximate at each rung.
    let mut ladder_edges = Vec::new();
    for &nodes in ladder {
        let inst = instance(nodes, n_delta, 2017);
        println!(
            "scale_approx: ladder rung n={nodes} ({} edges) built",
            inst.graph.edge_count()
        );
        ladder_edges.push(inst.graph.edge_count());
        let exact_engine = SndEngine::new(&inst.graph, SndConfig::default());
        let approx_engine = SndEngine::new(&inst.graph, approx_config(epsilon, landmarks));
        group.bench_with_input(BenchmarkId::new("exact", nodes), &(), |b, ()| {
            b.iter(|| exact_engine.distance(&inst.a, &inst.b))
        });
        group.bench_with_input(BenchmarkId::new("approx", nodes), &(), |b, ()| {
            b.iter(|| approx_engine.distance_interval(&inst.a, &inst.b).unwrap())
        });
    }
    group.finish();

    // Measured error on an instance small enough to price exactly.
    let err_inst = instance(error_nodes, n_delta, 4242);
    let exact_engine = SndEngine::new(&err_inst.graph, SndConfig::default());
    let approx_engine = SndEngine::new(&err_inst.graph, approx_config(epsilon, landmarks));
    let mut max_rel_error = 0.0f64;
    let mut bracketed = true;
    let mut rng = SmallRng::seed_from_u64(99);
    for trial in 0..3 {
        let (a, b) = if trial == 0 {
            (err_inst.a.clone(), err_inst.b.clone())
        } else {
            // The grid rounds `error_nodes` to a square side.
            state_pair(err_inst.graph.node_count(), n_delta, &mut rng)
        };
        let exact = exact_engine.distance(&a, &b);
        let iv = approx_engine.distance_interval(&a, &b).unwrap();
        bracketed &= iv.contains(exact);
        if exact > 0.0 {
            max_rel_error = max_rel_error.max((iv.midpoint() - exact).abs() / exact);
        }
    }
    println!(
        "scale_approx: error check at n={error_nodes}: max relative error {max_rel_error:.5} \
         (ε = {epsilon}), intervals bracket exact: {bracketed}"
    );

    // The 10⁶-node run: approximate tier only.
    let big = instance(million, n_delta, 7);
    println!(
        "scale_approx: headline instance n={million} ({} edges) built, pricing…",
        big.graph.edge_count()
    );
    let big_engine = SndEngine::new(&big.graph, approx_config(epsilon, landmarks));
    let t0 = Instant::now();
    let big_iv = big_engine.distance_interval(&big.a, &big.b).unwrap();
    let million_s = t0.elapsed().as_secs_f64();
    println!(
        "scale_approx: n={million} ({} edges): SND in [{:.4}, {:.4}] (width {:.4}) in {million_s:.2}s",
        big.graph.edge_count(),
        big_iv.lower,
        big_iv.upper,
        big_iv.width()
    );

    write_history(
        ladder,
        &ladder_edges,
        n_delta,
        epsilon,
        landmarks,
        error_nodes,
        max_rel_error,
        bracketed,
        million,
        big.graph.edge_count(),
        million_s,
        (big_iv.lower, big_iv.upper),
    );
}

/// Records the measurements as `BENCH_scale.json` at the repo root.
#[allow(clippy::too_many_arguments)]
fn write_history(
    ladder: &[usize],
    ladder_edges: &[usize],
    n_delta: usize,
    epsilon: f64,
    landmarks: usize,
    error_nodes: usize,
    max_rel_error: f64,
    bracketed: bool,
    million: usize,
    million_edges: usize,
    million_s: f64,
    million_interval: (f64, f64),
) {
    let measurements = criterion::take_measurements();
    let mean = |needle: &str| {
        measurements
            .iter()
            .find(|m| m.id.contains(needle))
            .map(|m| m.mean_s)
    };
    let mut rungs = String::new();
    let mut crossover: Option<usize> = None;
    for (&nodes, &edges) in ladder.iter().zip(ladder_edges) {
        let (Some(exact_s), Some(approx_s)) = (
            mean(&format!("exact/{nodes}")),
            mean(&format!("approx/{nodes}")),
        ) else {
            return;
        };
        if approx_s < exact_s && crossover.is_none() {
            crossover = Some(nodes);
        }
        if !rungs.is_empty() {
            rungs.push_str(",\n");
        }
        rungs.push_str(&format!(
            "    {{\"nodes\": {nodes}, \"edges\": {edges}, \"exact_s\": {exact_s:.4}, \
             \"approx_s\": {approx_s:.4}, \"speedup\": {:.2}}}",
            exact_s / approx_s
        ));
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"bench\": \"scale_approx\",\n  \"unix_time\": {stamp},\n  \
         \"graph\": \"{kind}\",\n  \
         \"n_delta\": {n_delta},\n  \"epsilon\": {epsilon},\n  \
         \"landmarks\": {landmarks},\n  \"threads\": {threads},\n  \
         \"ladder\": [\n{rungs}\n  ],\n  \
         \"crossover_nodes\": {crossover},\n  \
         \"error_check_nodes\": {error_nodes},\n  \
         \"max_relative_error\": {max_rel_error:.5},\n  \
         \"intervals_bracket_exact\": {bracketed},\n  \
         \"million\": {{\"nodes\": {million}, \"edges\": {million_edges}, \
         \"approx_s\": {million_s:.2}, \"lower\": {lo:.4}, \"upper\": {hi:.4}}}\n}}\n",
        kind = graph_kind(),
        threads = rayon::current_num_threads(),
        crossover = crossover.map_or("null".to_string(), |c| c.to_string()),
        lo = million_interval.0,
        hi = million_interval.1,
    );
    let path = snd_bench::scale_record::scale_json_path();
    // The `"series"` member belongs to the scale_series bench — keep it
    // when rewriting the ladder half of the file.
    let json = match std::fs::read_to_string(path)
        .ok()
        .and_then(|old| snd_bench::scale_record::extract_series(&old))
    {
        Some(block) => snd_bench::scale_record::splice_series(&json, &block),
        None => json,
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_scale_approx);
criterion_main!(benches);
