//! Guarantees of the delta-aware series path: for every registry
//! scenario and every bank mode, `SndEngine::series_distances` (the
//! incremental path — touched-edge cost rederivation, SSSP row repair,
//! empty-delta short-circuit, high-churn fallback) is **bit-identical**
//! to the sequential reference `series_distances_seq` — including runs
//! killed and resumed through
//! `analysis::resume::series_distances_checkpointed`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::analysis::resume::series_distances_checkpointed;
use snd::core::{ClusterSpec, GammaPolicy, SndConfig, SndEngine};
use snd::data::registry;
use snd::graph::generators::barabasi_albert;
use snd::models::{NetworkState, Opinion, StateDelta};

fn temp_path(name: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("snd_delta_{}_{seed}_{name}", std::process::id()))
}

/// The two bank modes the delta path specializes: per-bin (default; no
/// cluster SSSPs, delta wins on the cost sweep) and cluster-bank
/// (repairable per-cluster rows, the big win).
fn bank_modes() -> Vec<SndConfig> {
    vec![
        SndConfig::default(),
        SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 4 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        },
    ]
}

/// Every registry scenario, downscaled: real dynamics (voting, cascades,
/// majority bursts, bounded confidence) exercise low- and high-churn
/// transitions, anomaly injections, and every spreading model.
#[test]
fn delta_series_matches_seq_on_every_registry_scenario() {
    for mut scenario in registry() {
        scenario.nodes = 240;
        scenario.steps = 6;
        let series = scenario
            .run(11)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        for config in bank_modes() {
            let engine = SndEngine::new(&series.graph, config);
            let delta = engine.series_distances(&series.states);
            let seq = engine.series_distances_seq(&series.states);
            assert_eq!(delta, seq, "{}: delta vs seq", scenario.name);
        }
    }
}

/// The checkpointed series path — which routes through the delta-advanced
/// tile computation — reproduces the reference after a simulated kill
/// (checkpoint truncated mid-line) and resume, and its tiles feed a later
/// full-matrix run.
#[test]
fn killed_and_resumed_checkpoint_series_is_bit_identical() {
    let mut scenario = registry().into_iter().next().expect("non-empty registry");
    scenario.nodes = 120;
    scenario.steps = 7;
    let series = scenario.run(5).expect("registry scenario runs");
    let engine = SndEngine::new(&series.graph, SndConfig::default());
    let expect = engine.series_distances_seq(&series.states);

    let path = temp_path("series_resume.ckpt", 5);
    let _ = std::fs::remove_file(&path);
    let first = series_distances_checkpointed(&engine, &series.states, 3, &path).unwrap();
    assert_eq!(first, expect, "fresh checkpointed run");

    // Kill: chop trailing bytes (never into the 2-line header).
    let bytes = std::fs::read(&path).unwrap();
    let header_end = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(1)
        .map(|(i, _)| i + 1)
        .unwrap();
    std::fs::write(
        &path,
        &bytes[..bytes.len().saturating_sub(9).max(header_end)],
    )
    .unwrap();

    // Resume reproduces the same values bit for bit.
    let resumed = series_distances_checkpointed(&engine, &series.states, 3, &path).unwrap();
    assert_eq!(resumed, expect, "resumed run");

    // The series checkpoint seeds the full-matrix run over the same file.
    let matrix =
        snd::analysis::resume::pairwise_distances_checkpointed(&engine, &series.states, 3, &path)
            .unwrap();
    assert_eq!(matrix, engine.pairwise_distances_seq(&series.states));
    std::fs::remove_file(&path).unwrap();
}

/// Identical consecutive states short-circuit to exactly zero in every
/// series path, and the geometry carried across the static stretch stays
/// exact for the transitions after it.
#[test]
fn empty_delta_short_circuit_is_exact_in_every_path() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = barabasi_albert(60, 2, &mut rng);
    let a = NetworkState::from_values(&(0..60).map(|i| (i % 3) as i8 - 1).collect::<Vec<_>>());
    let mut b = a.clone();
    b.set(7, Opinion::Neutral);
    b.set(31, Opinion::Positive);
    // Static stretches on both sides of real transitions.
    let states = vec![a.clone(), a.clone(), a.clone(), b.clone(), b.clone(), a];
    for config in bank_modes() {
        let engine = SndEngine::new(&g, config);
        let seq = engine.series_distances_seq(&states);
        assert_eq!(seq[0], 0.0);
        assert_eq!(seq[1], 0.0);
        assert_eq!(seq[3], 0.0);
        assert!(seq[2] > 0.0 && seq[4] > 0.0);
        assert_eq!(engine.series_distances(&states), seq);

        let path = temp_path("empty_delta.ckpt", 3);
        let _ = std::fs::remove_file(&path);
        let ckpt = series_distances_checkpointed(&engine, &states, 2, &path).unwrap();
        assert_eq!(ckpt, seq);
        std::fs::remove_file(&path).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random walks of random churn — from single flips to full rewrites
    /// (past the repair threshold, forcing the fallback) — stay
    /// bit-identical to the sequential reference in both bank modes.
    #[test]
    fn random_churn_series_match_seq(seed in 0u64..1_000, churn in 1usize..40) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(40, 2, &mut rng);
        let mut states = Vec::new();
        let first: Vec<i8> = (0..40).map(|_| rng.gen_range(-1..=1)).collect();
        states.push(NetworkState::from_values(&first));
        for _ in 0..5 {
            let mut next = states.last().unwrap().clone();
            for _ in 0..churn {
                let u = rng.gen_range(0..40u32);
                next.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
            }
            states.push(next);
        }
        for config in bank_modes() {
            let engine = SndEngine::new(&g, config);
            let delta = engine.series_distances(&states);
            let seq = engine.series_distances_seq(&states);
            prop_assert_eq!(&delta, &seq, "churn {}", churn);
        }
    }

    /// The delta's touched-edge contract holds along simulated series:
    /// costs updated on touched edges only equal the full recompute for
    /// both opinions (the foundation the repair path builds on).
    #[test]
    fn touched_edges_cover_every_cost_change(seed in 0u64..1_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(30, 2, &mut rng);
        let mut a = NetworkState::from_values(
            &(0..30).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>(),
        );
        let config = snd::models::GroundCostConfig::default();
        for _ in 0..4 {
            let mut b = a.clone();
            for _ in 0..1 + (seed as usize % 4) {
                let u = rng.gen_range(0..30u32);
                b.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
            }
            let delta = StateDelta::between(&g, &a, &b);
            for op in [Opinion::Positive, Opinion::Negative] {
                let mut costs = snd::models::edge_costs(&g, &a, op, &config);
                snd::models::update_edge_costs(&g, &b, op, &config, delta.touched_edges(), &mut costs);
                prop_assert_eq!(costs, snd::models::edge_costs(&g, &b, op, &config));
            }
            a = b;
        }
    }
}
