//! The four workloads: seeded generation, the `snd` dataset JSON they
//! are handed to the CLI in, their set-up probes, and their oracles.

use std::fmt::Write as _;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_analysis::series::processed_series;
use snd_analysis::{anomaly_scores, evaluate_detection};
use snd_core::{ApproxConfig, SndConfig, SndEngine};
use snd_graph::generators::{barabasi_albert, scale_free_configuration};
use snd_graph::CsrGraph;
use snd_models::NetworkState;

/// The benchmark's workloads, by the names `BENCHMARK.json` gives them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `snd anomaly` on a scale-free voting series (exact delta path).
    SeriesExact,
    /// `snd shard --shard 0/1` then `snd shard merge` (all pairs).
    AllpairsShard,
    /// The all-pairs dataset through `snd orchestrate --workers 2`.
    AllpairsOrchestrate,
    /// `snd anomaly --approx` on a Barabási–Albert drift series.
    ApproxSeries,
}

/// Nodes of the `series_exact` voting series.
const SERIES_NODES: usize = 10_000;
/// Transitions of the `series_exact` voting series.
const SERIES_STEPS: usize = 24;
/// Adoptions in the first and the last `series_exact` transition; the
/// steps between grow linearly, as a cascade's frontier does.
const SERIES_FLIPS: (usize, usize) = (35, 120);
/// Nodes of the all-pairs voting series.
const ALLPAIRS_NODES: usize = 8_000;
/// Snapshots of the all-pairs voting series.
const ALLPAIRS_SNAPSHOTS: usize = 10;
/// Adoptions per all-pairs transition.
const ALLPAIRS_FLIPS: usize = 48;
/// Nodes of the approximate-tier Barabási–Albert graph.
const APPROX_NODES: usize = 25_000;
/// Drift steps of the approximate-tier series.
const APPROX_STEPS: usize = 24;
/// Users flipped per approximate-tier drift step.
const APPROX_FLIPS: usize = 256;
/// The approximate tier's certified relative gap.
pub const APPROX_EPSILON: f64 = 0.5;
/// The approximate tier's landmark budget.
pub const APPROX_LANDMARKS: usize = 24;
/// Seed of every workload's network. The network is fixed and the
/// benchmark's seed draws the opinion series on it, as in the paper's
/// experiments on one social network; a per-seed graph would make the
/// topology-only set-up (the approximate tier's landmarks and quotient
/// hierarchy) vary from run to run.
const GRAPH_SEED: u64 = 2017;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "series_exact" => Ok(Workload::SeriesExact),
            "allpairs_shard" => Ok(Workload::AllpairsShard),
            "allpairs_orchestrate" => Ok(Workload::AllpairsOrchestrate),
            "approx_series" => Ok(Workload::ApproxSeries),
            other => Err(format!("unknown workload '{other}'")),
        }
    }

    /// Whether the workload prices the all-pairs matrix.
    pub fn all_pairs(self) -> bool {
        matches!(
            self,
            Workload::AllpairsShard | Workload::AllpairsOrchestrate
        )
    }

    /// The engine configuration the CLI builds for this workload's flags.
    pub fn config(self) -> SndConfig {
        match self {
            Workload::ApproxSeries => SndConfig {
                approx: Some(ApproxConfig {
                    epsilon: APPROX_EPSILON,
                    max_landmarks: APPROX_LANDMARKS,
                    min_nodes: 0,
                    ..Default::default()
                }),
                ..SndConfig::default()
            },
            _ => SndConfig::default(),
        }
    }

    /// Generates the workload's instance from `seed`.
    pub fn generate(self, seed: u64) -> Instance {
        match self {
            Workload::SeriesExact => {
                let (first, last) = SERIES_FLIPS;
                let flips: Vec<usize> = (0..SERIES_STEPS)
                    .map(|t| first + (last - first) * t / (SERIES_STEPS - 1))
                    .collect();
                voting_series(SERIES_NODES, &flips, 150, seed)
            }
            Workload::AllpairsShard | Workload::AllpairsOrchestrate => {
                let flips = [ALLPAIRS_FLIPS; ALLPAIRS_SNAPSHOTS - 1];
                voting_series(ALLPAIRS_NODES, &flips, 100, seed)
            }
            Workload::ApproxSeries => drift_series(seed),
        }
    }
}

/// A generated workload input: a graph as an edge list plus a series.
pub struct Instance {
    pub nodes: usize,
    pub edges: Vec<(u32, u32)>,
    pub states: Vec<NetworkState>,
    pub labels: Vec<bool>,
}

impl Instance {
    /// The graph, built exactly as the CLI builds it from the JSON.
    pub fn graph(&self) -> CsrGraph {
        CsrGraph::from_edges(self.nodes, &self.edges)
    }

    /// The set-up probe: the same graph with its first state repeated
    /// `copies` times, so a run parses and builds everything and prices
    /// nothing.
    pub fn probe(&self, copies: usize) -> Instance {
        Instance {
            nodes: self.nodes,
            edges: self.edges.clone(),
            states: vec![self.states[0].clone(); copies],
            labels: Vec::new(),
        }
    }

    /// Users whose opinion differs between each pair of adjacent states.
    pub fn n_deltas(&self) -> Vec<usize> {
        self.states
            .windows(2)
            .map(|w| w[0].diff_count(&w[1]))
            .collect()
    }

    /// The `snd` dataset JSON wire format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.edges.len() * 12);
        let _ = write!(out, "{{\"nodes\":{},\"edges\":[", self.nodes);
        for (i, (u, v)) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{u},{v}]");
        }
        out.push_str("],\"states\":[");
        for (i, state) in self.states.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, v) in state.values().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        out.push_str("],\"labels\":[");
        let labels: Vec<&str> = self
            .labels
            .iter()
            .map(|&l| if l { "true" } else { "false" })
            .collect();
        out.push_str(&labels.join(","));
        out.push_str("]}");
        out
    }
}

/// A scale-free voting series (§6.2 of the paper) on the fixed network:
/// `adopters` seed users, then one transition per entry of `flips`, each adopting exactly
/// that many neutral users. Adoption counts are fixed rather than drawn,
/// so every seed asks the same amount of work of the pricing; the seed
/// picks the graph and who adopts. The transitions a third and two
/// thirds of the way along are anomalous: most of their adopters are
/// external, not neighbour votes.
fn voting_series(nodes: usize, flips: &[usize], adopters: usize, seed: u64) -> Instance {
    let graph = scale_free_configuration(
        nodes,
        -2.3,
        3,
        (nodes / 50).clamp(8, 1000),
        &mut SmallRng::seed_from_u64(GRAPH_SEED),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut vals = vec![0i8; nodes];
    let mut seeded = 0;
    while seeded < adopters {
        let u = rng.gen_range(0..nodes);
        if vals[u] == 0 {
            vals[u] = if seeded % 2 == 0 { 1 } else { -1 };
            seeded += 1;
        }
    }
    let steps = flips.len();
    let labels: Vec<bool> = (0..steps)
        .map(|t| t == steps / 3 || t == 2 * steps / 3)
        .collect();
    let mut states = vec![NetworkState::from_values(&vals)];
    for (&k, &anomalous) in flips.iter().zip(&labels) {
        let neighbour_share = if anomalous { 0.3 } else { 0.9 };
        voting_step(&graph, &mut vals, k, neighbour_share, &mut rng);
        states.push(NetworkState::from_values(&vals));
    }
    Instance {
        nodes,
        edges: graph.edges().collect(),
        states,
        labels,
    }
}

/// One synchronous voting step adopting exactly `k` neutral users: with
/// probability `neighbour_share` a user with an active in-neighbour
/// copies a random active in-neighbour's opinion (as of the step's
/// start), otherwise a random neutral user takes a random opinion.
fn voting_step(g: &CsrGraph, vals: &mut [i8], k: usize, neighbour_share: f64, rng: &mut SmallRng) {
    let before = vals.to_vec();
    let active_in = |v: u32| -> Vec<i8> {
        g.in_neighbors(v)
            .iter()
            .map(|&u| before[u as usize])
            .filter(|&o| o != 0)
            .collect()
    };
    let neutral: Vec<u32> = (0..g.node_count() as u32)
        .filter(|&v| before[v as usize] == 0)
        .collect();
    let frontier: Vec<u32> = neutral
        .iter()
        .copied()
        .filter(|&v| !active_in(v).is_empty())
        .collect();
    assert!(
        neutral.len() >= 2 * k,
        "too few neutral users for {k} adoptions"
    );
    let mut adopted = 0;
    while adopted < k {
        let by_neighbour = !frontier.is_empty() && rng.gen::<f64>() < neighbour_share;
        let pool = if by_neighbour { &frontier } else { &neutral };
        let v = pool[rng.gen_range(0..pool.len())];
        if vals[v as usize] != 0 {
            continue;
        }
        vals[v as usize] = if by_neighbour {
            let votes = active_in(v);
            votes[rng.gen_range(0..votes.len())]
        } else if rng.gen::<bool>() {
            1
        } else {
            -1
        };
        adopted += 1;
    }
}

/// A low-churn drift series on the fixed Barabási–Albert network: a sparse polar
/// seeding, then balanced drift steps around one epicenter, each moving
/// `APPROX_FLIPS` rank-and-file users (a quarter release each polar
/// opinion, half of them adopt one).
fn drift_series(seed: u64) -> Instance {
    let graph = barabasi_albert(APPROX_NODES, 3, &mut SmallRng::seed_from_u64(GRAPH_SEED));
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = graph.node_count();
    let mut vals = vec![0i8; n];
    for v in vals.iter_mut() {
        if rng.gen::<f64>() < 0.05 {
            *v = if rng.gen::<bool>() { 1 } else { -1 };
        }
    }
    let center = rng.gen_range(0..n) as u32;
    let mut states = vec![NetworkState::from_values(&vals)];
    for _ in 0..APPROX_STEPS {
        drift_step(&graph, &mut vals, center, &mut rng);
        states.push(NetworkState::from_values(&vals));
    }
    Instance {
        nodes: n,
        edges: graph.edges().collect(),
        states,
        labels: Vec::new(),
    }
}

/// One balanced drift step: `q` holders of each polar opinion turn
/// neutral and `2q` neutral users adopt one, alternating, all drawn in
/// BFS order around `center` from users of at most four times the mean
/// degree.
fn drift_step(g: &CsrGraph, vals: &mut [i8], center: u32, rng: &mut SmallRng) {
    let q = APPROX_FLIPS / 4;
    let degree_cap = 4 * (g.edge_count() / g.node_count()).max(1);
    let mut seen = vec![false; vals.len()];
    let mut queue = std::collections::VecDeque::from([center]);
    seen[center as usize] = true;
    let mut by_value: [Vec<usize>; 3] = Default::default();
    while let Some(u) = queue.pop_front() {
        if g.out_neighbors(u).len() <= degree_cap {
            by_value[(vals[u as usize] + 1) as usize].push(u as usize);
        }
        let [neg, zero, pos] = &by_value;
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
    let [neg, zero, pos] = by_value;
    let q = q.min(pos.len()).min(neg.len()).min(zero.len() / 2);
    let mut pick = |list: &[usize], k: usize| -> Vec<usize> {
        let stride = (list.len() / k.max(1)).max(1);
        let phase = rng.gen_range(0..stride);
        list.iter()
            .skip(phase)
            .step_by(stride)
            .take(k)
            .copied()
            .collect()
    };
    let (released_pos, released_neg, adopters) = (pick(&pos, q), pick(&neg, q), pick(&zero, 2 * q));
    for &i in released_pos.iter().chain(&released_neg) {
        vals[i] = 0;
    }
    for (k, &i) in adopters.iter().enumerate() {
        vals[i] = if k % 2 == 0 { 1 } else { -1 };
    }
}

/// The reference answer a workload's CLI output is gated against,
/// rendered as a JSON member.
pub fn oracle_json(workload: Workload, inst: &Instance) -> String {
    let graph = inst.graph();
    let mut out = String::new();
    match workload {
        Workload::SeriesExact => {
            let engine = SndEngine::new(&graph, SndConfig::default());
            let raw = engine.series_distances_seq(&inst.states);
            // What `snd anomaly` calls. Its output prints the series only
            // after scaling, so this is the one check of its raw values.
            let raw_cli = engine.series_distances(&inst.states);
            let processed = processed_series(&raw, &inst.states);
            let scores = anomaly_scores(&processed);
            let k = inst.labels.iter().filter(|&&l| l).count().max(1);
            let flagged = evaluate_detection(&scores, &inst.labels, k).flagged;
            let _ = write!(
                out,
                "\"raw\":{},\"raw_cli\":{},\"printed\":{},\"scores\":{},\"flagged\":{:?}",
                floats(&raw),
                floats(&raw_cli),
                strings(&printed_series(&raw, &inst.states)),
                strings(&fixed4(&scores)),
                flagged
            );
        }
        Workload::AllpairsShard | Workload::AllpairsOrchestrate => {
            let engine = SndEngine::new(&graph, SndConfig::default());
            let rows: Vec<String> = engine
                .pairwise_distances_seq(&inst.states)
                .to_rows()
                .iter()
                .map(|r| floats(r))
                .collect();
            let _ = write!(out, "\"matrix\":[{}]", rows.join(","));
        }
        Workload::ApproxSeries => {
            let engine = SndEngine::new(&graph, SndConfig::default());
            let exact = engine.series_distances(&inst.states);
            let _ = write!(out, "\"exact\":{}", floats(&exact));
        }
    }
    out
}

/// The SND column `snd anomaly` prints for a raw series.
pub fn printed_series(raw: &[f64], states: &[NetworkState]) -> Vec<String> {
    fixed4(&processed_series(raw, states))
}

/// Values as `snd anomaly` prints them, to four decimals.
fn fixed4(values: &[f64]) -> Vec<String> {
    values.iter().map(|v| format!("{v:.4}")).collect()
}

/// A JSON array of floats, each in Rust's shortest round-trip form.
pub fn floats(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", parts.join(","))
}

/// A JSON array of plain strings (no escaping needed: numbers only).
pub fn strings(values: &[String]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("\"{v}\"")).collect();
    format!("[{}]", parts.join(","))
}
