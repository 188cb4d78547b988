//! Batch evaluation: cached, parallel all-pairs distance matrices.
//!
//! The evaluation workloads that dominate in practice — anomaly detection
//! over a snapshot series, clustering and nearest-neighbor search over a
//! snapshot set — are all-pairs regimes: every state participates in up to
//! `T − 1` comparisons. Evaluated naively (one [`SndEngine::distance`] per
//! pair) the same per-state work is redone `T − 1` times: the two ground
//! geometries, and one SSSP row per residual user of every comparison
//! grounded in that state.
//!
//! [`SndEngine::pairwise_distances`] restructures this around the
//! per-state [`StateGeometry`] bundle: it is the tile path of
//! [`crate::shard`] over one tile holding every pair. Geometries are
//! computed once per state (in parallel across states), and every
//! `(ground state, opinion, direction, node)` SSSP row is computed at most
//! once — concurrent terms pull rows from the bundle's shared
//! [`RowCache`](crate::sparse::RowCache). The `4·T·(T−1)/2` EMD\* terms
//! then fan out over the thread pool individually, which load-balances
//! well because term cost varies with the pair's residual size.
//!
//! Results are **bit-identical** to the sequential naive loop: each term is
//! an exact integer transportation solve, cached rows hold exactly what
//! recomputation would produce, and per-pair terms are reduced in a fixed
//! order. The property tests in `tests/batch_parallel.rs` assert this.
//!
//! Once every SSSP row is cached, the per-term cost is almost entirely the
//! exact transportation solve — which is why the solver layer
//! (per-instance `Solver::Auto` selection, anti-cycling block-priced
//! simplex) is the lever for this path; see `BENCH_pairwise.json` /
//! `BENCH_solver.json` for the tracked numbers.

use snd_models::NetworkState;

use crate::engine::{SndEngine, StateGeometry};
use crate::shard::{ShardPlan, TileGrid};
use crate::sparse;

/// Symmetric all-pairs distance matrix over a snapshot set (row-major,
/// zero diagonal).
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    k: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Number of states (the matrix is `size × size`).
    pub fn size(&self) -> usize {
        self.k
    }

    /// Distance between states `i` and `j`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.k + j]
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// The matrix as nested rows (the shape the clustering helpers take).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.k).map(|i| self.row(i).to_vec()).collect()
    }

    /// Adjacent-transition distances `d(G_t, G_{t+1})` read off the
    /// superdiagonal (`size − 1` values).
    pub fn adjacent(&self) -> Vec<f64> {
        (1..self.k).map(|t| self.at(t - 1, t)).collect()
    }

    /// Builds a matrix from the strict upper triangle, mirroring it.
    pub(crate) fn from_upper(k: usize, upper: &[f64]) -> Self {
        debug_assert_eq!(upper.len(), k * k.saturating_sub(1) / 2);
        let mut data = vec![0.0; k * k];
        let mut idx = 0;
        for i in 0..k {
            for j in (i + 1)..k {
                data[i * k + j] = upper[idx];
                data[j * k + i] = upper[idx];
                idx += 1;
            }
        }
        DistanceMatrix { k, data }
    }
}

impl<'g> SndEngine<'g> {
    /// All-pairs SND matrix over a snapshot set: geometry computed once per
    /// state, SSSP rows computed at most once per ground state and shared
    /// through thread-safe caches, all `4·T·(T−1)/2` EMD\* terms fanned out
    /// over the thread pool — the tile path over one tile holding every
    /// pair.
    pub fn pairwise_distances(&self, states: &[NetworkState]) -> DistanceMatrix {
        let grid = TileGrid::new(states.len(), states.len().max(1));
        self.pairwise_tiles(states, &ShardPlan::full(grid))
            .to_matrix()
            // lint:allow(no-unwrap) a full plan computes every tile, so the matrix has no holes
            .expect("a full plan covers the matrix")
    }

    /// The naive sequential all-pairs loop (no sharing, no threads):
    /// exactly `T·(T−1)/2` independent [`distance_seq`](Self::distance_seq)
    /// calls. The baseline the batch path is benchmarked and property-tested
    /// against.
    pub fn pairwise_distances_seq(&self, states: &[NetworkState]) -> DistanceMatrix {
        let k = states.len();
        let mut upper = Vec::with_capacity(k * k.saturating_sub(1) / 2);
        for i in 0..k {
            for j in (i + 1)..k {
                upper.push(self.distance_seq(&states[i], &states[j]));
            }
        }
        DistanceMatrix::from_upper(k, &upper)
    }

    /// One of the four Eq. 3 terms of pair `(a, b)` given the two states'
    /// bundles, drawing rows from the ground state's shared cache, as a
    /// certified envelope: the exact tier returns a zero-width interval,
    /// an active approximate tier the term's `[lower, upper]`. Term order
    /// matches [`SndBreakdown`](crate::SndBreakdown): forward +,
    /// forward −, backward +, backward −. The tile path
    /// ([`crate::shard`]) folds these into scalars and persists the
    /// envelopes so merged shard matrices stay re-certifiable.
    pub(crate) fn pair_term_interval(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        ga: &StateGeometry,
        gb: &StateGeometry,
        which: usize,
    ) -> (f64, f64) {
        use snd_models::Opinion;
        let (ground, p, q, geom, op) = match which {
            0 => (ga, a, b, &ga.pos, Opinion::Positive),
            1 => (ga, a, b, &ga.neg, Opinion::Negative),
            2 => (gb, b, a, &gb.pos, Opinion::Positive),
            _ => (gb, b, a, &gb.neg, Opinion::Negative),
        };
        // Same tier routing as `SndEngine::terms`: an active approximate
        // tier prices the term as a certified interval, drawing landmark
        // rows from the bundle's delta-repaired sketch when it carries one.
        if let Some(a_cfg) = self.approx_if_active() {
            let sketch = match op {
                Opinion::Positive => ground.sketch_pos.as_ref(),
                _ => ground.sketch_neg.as_ref(),
            };
            return self.approx_term(geom, Some(&ground.cache), sketch, p, q, op, &a_cfg);
        }
        let v = sparse::emd_star_term(
            self.graph(),
            self.clustering(),
            geom,
            p,
            q,
            op,
            self.config(),
            Some(&ground.cache),
        );
        (v, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SndConfig;
    use snd_graph::generators::path_graph;

    fn states() -> Vec<NetworkState> {
        vec![
            NetworkState::from_values(&[1, 0, 0, 0, 0, 0, 0, -1]),
            NetworkState::from_values(&[1, 1, 0, 0, 0, 0, -1, -1]),
            NetworkState::from_values(&[0, 1, 1, 0, 0, -1, -1, 0]),
            NetworkState::from_values(&[0, 0, 1, 1, -1, -1, 0, 0]),
        ]
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let m = engine.pairwise_distances(&states());
        assert_eq!(m.size(), 4);
        for i in 0..4 {
            assert_eq!(m.at(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.at(i, j), m.at(j, i));
            }
        }
        assert!(m.at(0, 3) > 0.0);
    }

    #[test]
    fn parallel_matrix_equals_naive_sequential_loop() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let par = engine.pairwise_distances(&s);
        let seq = engine.pairwise_distances_seq(&s);
        assert_eq!(par, seq, "bit-identical matrices");
    }

    #[test]
    fn adjacent_reads_the_superdiagonal() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let m = engine.pairwise_distances(&s);
        let adj = m.adjacent();
        assert_eq!(adj.len(), 3);
        for (t, &d) in adj.iter().enumerate() {
            assert_eq!(d, m.at(t, t + 1));
        }
    }

    #[test]
    fn empty_and_single_state_sets() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        assert_eq!(engine.pairwise_distances(&[]).size(), 0);
        let one = engine.pairwise_distances(&states()[..1]);
        assert_eq!(one.size(), 1);
        assert_eq!(one.at(0, 0), 0.0);
    }
}
