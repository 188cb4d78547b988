//! Determinism and cache-reuse guarantees of the parallel evaluation
//! pipeline: parallel results must be **bit-identical** to the sequential
//! reference, and re-evaluating against a shared ground state must perform
//! zero new SSSP runs.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::core::{ClusterSpec, SndConfig, SndEngine, StateGeometry};
use snd::graph::generators::barabasi_albert;
use snd::models::NetworkState;

fn arb_state(n: usize) -> impl Strategy<Value = NetworkState> {
    proptest::collection::vec(-1i8..=1, n).prop_map(|v| NetworkState::from_values(&v))
}

fn random_states(n: usize, count: usize, rng: &mut SmallRng) -> Vec<NetworkState> {
    (0..count)
        .map(|_| {
            let vals: Vec<i8> = (0..n).map(|_| rng.gen_range(-1..=1)).collect();
            NetworkState::from_values(&vals)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel breakdown (concurrent geometries + concurrent terms) is
    /// bit-identical to the fully sequential path on random
    /// Barabási–Albert instances.
    #[test]
    fn parallel_breakdown_is_bit_identical_to_sequential(
        seed in 0u64..1_000,
        a in arb_state(20),
        b in arb_state(20),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(20, 2, &mut rng);
        let engine = SndEngine::new(&g, SndConfig::default());
        let par = engine.breakdown(&a, &b);
        let seq = engine.breakdown_seq(&a, &b);
        prop_assert_eq!(par, seq);
        prop_assert!(engine.distance(&a, &b) == engine.distance_seq(&a, &b));
    }

    /// The cached, parallel all-pairs matrix equals the naive sequential
    /// loop exactly, in both bank modes.
    #[test]
    fn parallel_pairwise_matrix_is_bit_identical_to_naive_loop(
        seed in 0u64..1_000,
        t in 3usize..6,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(18, 2, &mut rng);
        let states = random_states(18, t, &mut rng);
        for clusters in [ClusterSpec::PerBin, ClusterSpec::BfsPartition { clusters: 3 }] {
            let config = SndConfig { clusters: clusters.clone(), ..Default::default() };
            let engine = SndEngine::new(&g, config);
            let par = engine.pairwise_distances(&states);
            let seq = engine.pairwise_distances_seq(&states);
            prop_assert_eq!(&par, &seq, "mode {:?}", clusters);
        }
    }

    /// Parallel series evaluation is bit-identical to the sequential
    /// adjacent-pair loop.
    #[test]
    fn parallel_series_is_bit_identical_to_sequential(
        seed in 0u64..1_000,
        t in 2usize..7,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(16, 2, &mut rng);
        let states = random_states(16, t, &mut rng);
        let engine = SndEngine::new(&g, SndConfig::default());
        prop_assert_eq!(engine.series_distances(&states), engine.series_distances_seq(&states));
    }
}

#[test]
fn second_evaluation_of_a_shared_ground_state_runs_zero_sssp() {
    let mut rng = SmallRng::seed_from_u64(7);
    let g = barabasi_albert(40, 3, &mut rng);
    let engine = SndEngine::new(&g, SndConfig::default());
    let states = random_states(40, 5, &mut rng);

    let geoms: Vec<StateGeometry> = states.iter().map(|s| engine.state_geometry(s)).collect();
    let price_all = || -> Vec<f64> {
        let mut out = Vec::new();
        for i in 0..states.len() {
            for j in (i + 1)..states.len() {
                let b = engine.breakdown_with(&states[i], &states[j], &geoms[i], &geoms[j]);
                out.push(b.total());
            }
        }
        out
    };
    let first = price_all();
    let rows_per_state: Vec<usize> = geoms.iter().map(|b| b.cached_rows()).collect();
    assert!(
        rows_per_state.iter().sum::<usize>() > 0,
        "the matrix requires SSSP rows"
    );

    // Re-pricing every pair against the same ground states must be a pure
    // cache read: the row-computation counters do not move.
    let second = price_all();
    let rows_after: Vec<usize> = geoms.iter().map(|b| b.cached_rows()).collect();
    assert_eq!(rows_per_state, rows_after, "zero new SSSP runs");
    assert_eq!(first, second);
    let seq = engine.pairwise_distances_seq(&states);
    let upper: Vec<f64> = (0..states.len())
        .flat_map(|i| ((i + 1)..states.len()).map(move |j| (i, j)))
        .map(|(i, j)| seq.at(i, j))
        .collect();
    assert_eq!(first, upper, "bundle pricing matches the sequential loop");
}

#[test]
fn matrix_agrees_with_individual_distance_calls() {
    let mut rng = SmallRng::seed_from_u64(23);
    let g = barabasi_albert(24, 2, &mut rng);
    let engine = SndEngine::new(&g, SndConfig::default());
    let states = random_states(24, 4, &mut rng);
    let m = engine.pairwise_distances(&states);
    for i in 0..states.len() {
        for j in 0..states.len() {
            let d = engine.distance(&states[i], &states[j]);
            assert_eq!(m.at(i, j), d, "entry ({i}, {j})");
        }
    }
}
