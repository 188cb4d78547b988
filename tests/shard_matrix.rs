//! Guarantees of the tile-based shard subsystem: merging the tiles of any
//! `ShardPlan` partition — including a run interrupted and resumed from a
//! half-written checkpoint — is **bit-identical** to the naive sequential
//! all-pairs loop; and the per-cluster geometry fan-out matches the
//! sequential geometry path exactly.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::core::shard::{ShardPlan, TileGrid, TileSet};
use snd::core::{ApproxConfig, ClusterSpec, GammaPolicy, SndConfig, SndEngine};
use snd::graph::generators::barabasi_albert;
use snd::models::{NetworkState, Opinion};

fn random_states(n: usize, count: usize, rng: &mut SmallRng) -> Vec<NetworkState> {
    (0..count)
        .map(|_| {
            let vals: Vec<i8> = (0..n).map(|_| rng.gen_range(-1..=1)).collect();
            NetworkState::from_values(&vals)
        })
        .collect()
}

fn temp_path(name: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("snd_shard_{}_{seed}_{name}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any round-robin partition of the tile grid, computed shard by shard
    /// and merged, reproduces the naive sequential matrix bit for bit — in
    /// both bank modes.
    #[test]
    fn sharded_partition_merges_to_the_sequential_matrix(
        seed in 0u64..1_000,
        t in 2usize..7,
        tile in 1usize..4,
        shards in 2usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(16, 2, &mut rng);
        let states = random_states(16, t, &mut rng);
        let grid = TileGrid::new(t, tile);
        for clusters in [ClusterSpec::PerBin, ClusterSpec::BfsPartition { clusters: 3 }] {
            let config = SndConfig { clusters: clusters.clone(), ..Default::default() };
            let engine = SndEngine::new(&g, config);
            let parts: Vec<TileSet> = (0..shards)
                .map(|s| {
                    let plan = ShardPlan::round_robin(grid, s, shards).unwrap();
                    engine.pairwise_tiles(&states, &plan)
                })
                .collect();
            let merged = TileSet::merge(parts).unwrap().to_matrix().unwrap();
            let seq = engine.pairwise_distances_seq(&states);
            prop_assert_eq!(&merged, &seq, "mode {:?}", clusters);
        }
    }

    /// A run that checkpoints, is "killed" (checkpoint truncated mid-line,
    /// as an interrupted append would leave it), and resumes, reproduces
    /// the same matrix bit for bit.
    #[test]
    fn resumed_checkpoint_reproduces_the_sequential_matrix(
        seed in 0u64..1_000,
        t in 3usize..7,
        tile in 1usize..4,
        chop in 1usize..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(14, 2, &mut rng);
        let states = random_states(14, t, &mut rng);
        let grid = TileGrid::new(t, tile);
        let plan = ShardPlan::full(grid);
        let engine = SndEngine::new(&g, SndConfig::default());
        let path = temp_path("resume.ckpt", seed.wrapping_mul(31).wrapping_add(t as u64));
        let _ = std::fs::remove_file(&path);

        // First (interrupted) run: compute everything, then chop trailing
        // bytes off the checkpoint — simulating a kill mid-append.
        engine.pairwise_tiles_checkpointed(&states, &plan, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Chop within the tile-line region (header corruption is a hard
        // error by design, not a resume case).
        let header_end = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .unwrap();
        let keep = bytes.len().saturating_sub(chop).max(header_end);
        std::fs::write(&path, &bytes[..keep]).unwrap();

        // Resume: the valid prefix is reused, the damaged tail recomputed.
        let run = engine.pairwise_tiles_checkpointed(&states, &plan, &path).unwrap();
        prop_assert_eq!(run.resumed + run.computed, grid.tile_count());
        let matrix = run.tiles.to_matrix().unwrap();
        prop_assert_eq!(&matrix, &engine.pairwise_distances_seq(&states));

        // And the checkpoint on disk is now a complete, loadable artifact.
        let reloaded = TileSet::load(&path).unwrap();
        prop_assert_eq!(&reloaded.to_matrix().unwrap(), &matrix);
        std::fs::remove_file(&path).unwrap();
    }

    /// The per-cluster geometry fan-out (`SndEngine::geometry`) is
    /// bit-identical to the sequential reference (`geometry_seq`) across
    /// clusterings and γ policies.
    #[test]
    fn parallel_cluster_geometry_is_bit_identical_to_sequential(
        seed in 0u64..1_000,
        state in proptest::collection::vec(-1i8..=1, 18),
        clusters in 1usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(18, 2, &mut rng);
        let state = NetworkState::from_values(&state);
        for gamma in [GammaPolicy::Constant(3), GammaPolicy::Eccentricity, GammaPolicy::HalfExactDiameter] {
            let config = SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters },
                gamma,
                ..Default::default()
            };
            let engine = SndEngine::new(&g, config);
            for op in [Opinion::Positive, Opinion::Negative] {
                let par = engine.geometry(&state, op);
                let seq = engine.geometry_seq(&state, op);
                prop_assert_eq!(&par, &seq, "policy {:?}, opinion {:?}", gamma, op);
            }
        }
    }
}

#[test]
fn partial_checkpoints_from_different_shards_merge_like_one_run() {
    // Two "machines" each write their own checkpoint artifact; merging the
    // artifact files reproduces the single-machine matrix.
    let mut rng = SmallRng::seed_from_u64(77);
    let g = barabasi_albert(20, 2, &mut rng);
    let states = random_states(20, 6, &mut rng);
    let engine = SndEngine::new(&g, SndConfig::default());
    let grid = TileGrid::new(6, 2);

    let mut parts = Vec::new();
    for s in 0..2 {
        let path = temp_path(&format!("machine{s}.ckpt"), 77);
        let _ = std::fs::remove_file(&path);
        let plan = ShardPlan::round_robin(grid, s, 2).unwrap();
        engine
            .pairwise_tiles_checkpointed(&states, &plan, &path)
            .unwrap();
        parts.push(TileSet::load(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }
    let merged = TileSet::merge(parts).unwrap().to_matrix().unwrap();
    assert_eq!(merged, engine.pairwise_distances_seq(&states));
}

#[test]
fn superdiagonal_plan_reproduces_the_series() {
    let mut rng = SmallRng::seed_from_u64(5);
    let g = barabasi_albert(16, 2, &mut rng);
    let states = random_states(16, 7, &mut rng);
    let engine = SndEngine::new(&g, SndConfig::default());
    let grid = TileGrid::new(7, 3);
    let set = engine.pairwise_tiles(&states, &ShardPlan::superdiagonal(grid));
    let series: Vec<f64> = (1..states.len())
        .map(|t| set.pair(t - 1, t).expect("superdiagonal tile present"))
        .collect();
    assert_eq!(series, engine.series_distances_seq(&states));
}

/// Snapshot sets with repeated states: the tile loop prices identical
/// pairs as exactly zero without solving, and that must keep every bit —
/// for the full-plan matrix against the sequential loop, and for the
/// delta-chain series tiles against the fresh-geometry tiles of the same
/// superdiagonal plan — under per-bin, cluster-bank and active
/// approximate-tier configurations.
#[test]
fn repeated_states_keep_every_bit_in_every_tile_path() {
    let mut rng = SmallRng::seed_from_u64(41);
    let g = barabasi_albert(16, 2, &mut rng);
    let distinct = random_states(16, 3, &mut rng);
    let (a, b, c) = (&distinct[0], &distinct[1], &distinct[2]);
    // Adjacent repeats (empty deltas) and a repeat across the series.
    let states: Vec<NetworkState> = [a, a, b, b, b, a, c, c].into_iter().cloned().collect();
    let configs = [
        SndConfig::default(),
        SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 4 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        },
        SndConfig {
            approx: Some(ApproxConfig {
                min_nodes: 1,
                ..Default::default()
            }),
            ..Default::default()
        },
    ];
    for config in configs {
        let label = format!("{config:?}");
        let engine = SndEngine::new(&g, config);
        let seq = engine.pairwise_distances_seq(&states);
        for tile in [2, 3] {
            let grid = TileGrid::new(states.len(), tile);
            let full = engine.pairwise_tiles(&states, &ShardPlan::full(grid));
            assert_eq!(full.to_matrix().unwrap(), seq, "{label}, tile {tile}");

            let path = temp_path(&format!("repeated_{tile}.ckpt"), 41);
            let _ = std::fs::remove_file(&path);
            let chain = engine
                .series_tiles_checkpointed(&states, tile, &path)
                .unwrap();
            std::fs::remove_file(&path).unwrap();
            let fresh = engine.pairwise_tiles(&states, &ShardPlan::superdiagonal(grid));
            assert_eq!(chain.tiles, fresh, "{label}, tile {tile}");
        }
        assert_eq!(engine.pairwise_distances(&states), seq, "{label}");
    }
}
