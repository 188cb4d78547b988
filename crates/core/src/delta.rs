//! Delta-aware series evaluation: incremental geometry between
//! consecutive snapshots.
//!
//! The series workloads (anomaly detection over `d(G_t, G_{t+1})`,
//! prediction, the paper's Fig. 10–12) price *consecutive* snapshots of
//! one evolving network. A simulation step flips a handful of opinions,
//! yet the batch path rebuilds each state's full ground geometry — per
//! opinion: an `O(m)` edge-cost sweep, plus (in cluster-bank mode) one
//! multi-source SSSP per cluster and two eccentricity SSSPs per cluster —
//! from scratch. This module exploits snapshot locality end to end:
//!
//! 1. **Edge costs** ([`snd_models::StateDelta`]): only the touched edges
//!    (incident to flipped nodes, plus receiver-side aggregate spill for
//!    activity flips) are re-derived, bit-identical to the full sweep.
//! 2. **Cluster geometry** ([`DeltaStateGeometry`]): the per-cluster SSSP
//!    rows (sources = the cluster's members — *static* across snapshots)
//!    are kept alive and repaired with
//!    [`snd_graph::repair_row`] instead of recomputed; a cluster whose
//!    rows the repair reports unchanged reuses its previous inter-cluster
//!    row and γ verbatim. Repaired geometry is bit-identical to
//!    [`compute_geometry`](crate::banks::compute_geometry) because
//!    shortest-path distances are unique.
//! 3. **Transitions** (the series walk behind
//!    [`SndEngine::series_distances`] and
//!    [`SndEngine::series_intervals`]): identical consecutive states
//!    (empty delta) short-circuit to zero; otherwise the four EMD\* terms
//!    are evaluated exactly as the batch path would, over the
//!    incrementally-derived geometries. At most **two** geometry bundles
//!    are live at any point (asserted by `tests/series_memory.rs`).
//!
//! # When the fast path falls back
//!
//! Repair is exact only in a *lossless* clamp domain (every true finite
//! distance below the `u32` sentinel `U·n + 1`; violated only when that
//! product overflows the sentinel cap) and pays off only when few edges
//! changed. [`DeltaStateGeometry::step`] rebuilds from scratch — at
//! batch-path cost plus an `O(n + Σdeg(flipped))` delta sweep — when:
//!
//! * more than [`REPAIR_EDGE_FRACTION`]⁻¹ of the edges were touched
//!   (high-churn dynamics like random activation), or
//! * the clamp domain is capped (`U·n + 1 > u32::MAX / 4`), or
//! * the γ policy is `HalfExactDiameter` (its `O(|members|)` SSSPs per
//!   cluster are not cached).
//!
//! Per-bin mode (the default [`ClusterSpec`](crate::ClusterSpec)) has no
//! cluster SSSPs at all; its delta win is the touched-edge cost sweep and
//! the empty-delta shortcut.
//!
//! Everything here is property-tested bit-identical to
//! [`series_distances_seq`](crate::SndEngine::series_distances_seq)
//! across every registry scenario (`tests/delta_series.rs`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rayon::prelude::*;
use snd_graph::{
    dial_reverse_scratch, dial_scratch, repair_row, CostChange, CsrGraph, NodeId, RepairScratch,
    SsspScratch, UNREACHABLE,
};
use snd_models::{edge_costs, update_edge_costs, NetworkState, Opinion, StateDelta};
use snd_transport::DenseCost;

use crate::banks::GroundGeometry;
use crate::config::GammaPolicy;
use crate::engine::{SndEngine, StateGeometry};
use crate::sparse::{with_sssp_scratch, RowCache};

/// Fallback knob: the repair path engages only when touched edges are at
/// most `edge_count / REPAIR_EDGE_FRACTION` — beyond that the affected
/// region rivals the graph and a fresh rebuild is cheaper.
pub const REPAIR_EDGE_FRACTION: usize = 4;

thread_local! {
    static REPAIR_SCRATCH: RefCell<RepairScratch> = RefCell::new(RepairScratch::new());
}

/// Process-wide generation counter for cached SSSP rows. Every freshly
/// computed or repaired row content gets a new generation; a reused row
/// carries its previous generation forward. The reuse invariant — equal
/// generations imply the same `Arc` (and therefore identical contents) —
/// is what makes the `O(1)` carry-over in [`OpGeometry::advanced`] sound,
/// and it only holds because this bump is atomic across the per-cluster
/// parallel fan-out.
static ROW_GEN: AtomicU64 = AtomicU64::new(0);

/// Issues a generation no live row has carried before (never 0, so 0 can
/// mean "untagged" in scratch states).
fn next_row_gen() -> u64 {
    ROW_GEN.fetch_add(1, Ordering::Relaxed) + 1
}

/// The cached, repairable geometry of one `(state, opinion)` pair.
///
/// Rows are `Arc`-shared: a cluster whose rows a transition provably
/// cannot perturb (see [`ChangeIndex`]) carries its previous rows into
/// the next bundle as an `O(1)` reference bump instead of an `O(n)` copy.
pub(crate) struct OpGeometry {
    pub(crate) geom: GroundGeometry,
    /// Per-cluster clamped multi-source SSSP row (empty when rows are not
    /// cached: per-bin mode, lossy clamp domain, `HalfExactDiameter`).
    cluster_rows: Vec<Arc<Vec<u32>>>,
    /// Generation tag per cached row, parallel to `cluster_rows`. Repair
    /// issues a fresh tag from [`ROW_GEN`]; reuse carries the tag forward,
    /// so equal tags across bundles always mean the same `Arc`.
    row_gens: Vec<u64>,
    /// Eccentricity-policy representative rows (forward / reverse), one
    /// pair per cluster; empty unless the policy is `Eccentricity`.
    ecc_fwd: Vec<Arc<Vec<u32>>>,
    ecc_rev: Vec<Arc<Vec<u32>>>,
    /// Approximate-tier landmark rows (per-bin mode with an approx config
    /// and a lossless clamp domain only), repaired across steps like the
    /// cluster rows above.
    pub(crate) sketch: Option<SketchRows>,
}

/// Repair-compatible landmark sketch rows of one `(state, opinion)`
/// geometry plane: per landmark `l`, the clamped reverse row
/// `to[l][v] = d̂(v → l)` and forward row `from[l][v] = d̂(l → v)` — exactly
/// what a [`LandmarkSketch`](snd_graph::LandmarkSketch) borrows. Rows are
/// `Arc`-shared so a transition that provably cannot perturb one (same
/// [`ChangeIndex::fires`] contract as the cluster rows) carries it into
/// the next bundle in `O(1)`; the rest are repaired with [`repair_row`],
/// which is bit-identical to a fresh SSSP because the clamp domain is
/// lossless whenever a sketch exists (`tests/sketch_repair.rs`).
///
/// Adaptive landmark placement ([`DeltaStateGeometry::adapt_sketch`])
/// appends and evicts whole row pairs between snapshots; the usefulness
/// clock (`last_useful` / `tick`) travels with the bundle, including
/// through the high-churn fresh-rebuild fallback.
///
/// Repair is **feedback-driven**: a triangle-inequality envelope over a
/// *subset* of the landmarks is still sound (an upper bound minimized
/// over fewer landmarks only loosens, a lower bound maximized over fewer
/// only loosens), so a transition does not have to repair all `2·L`
/// rows. Pairs whose landmark recently bound a hot cell — plus a small
/// floor — are repaired; the rest are parked `stale`, dropped from the
/// envelope, and cost nothing until adaptive placement evicts them (a
/// stale pair's `last_useful` ages, so eviction finds it first). Until
/// the first pricing signal arrives (`tick == 0`) every pair is
/// advanced, which keeps un-priced stepping bit-identical to a fresh
/// build across every row.
#[derive(Clone)]
pub struct SketchRows {
    pub(crate) landmarks: Vec<NodeId>,
    pub(crate) to: Vec<Arc<Vec<u32>>>,
    pub(crate) from: Vec<Arc<Vec<u32>>>,
    /// Last tick each landmark was the binding envelope of a hot cell.
    pub(crate) last_useful: Vec<u64>,
    /// Adaptation clock, bumped once per priced snapshot.
    pub(crate) tick: u64,
    /// Pairs whose rows a repair policy skipped across some fired
    /// transition: no longer valid for the current costs, excluded from
    /// [`sketch`](Self::sketch) until replaced (only a full rebuild or
    /// eviction revives the slot — repair needs a valid starting row).
    pub(crate) stale: Vec<bool>,
}

/// Per-transition repair budget of [`SketchRows::advanced`]: the number
/// of row pairs kept live once pricing feedback exists, chosen
/// most-recently-useful first. Enough for a serviceable envelope, small
/// enough that a series whose refinement never leans on the sketch stops
/// paying for its upkeep; pairs the feedback keeps crediting always rank
/// inside the budget.
const REPAIR_PAIR_BUDGET: usize = 3;

/// One adaptive promotion costs two full SSSPs plus membership in the
/// repair budget, so placement moves at most one landmark per plane
/// every this many snapshots — a genuinely hot region stays hot long
/// enough to be covered one landmark at a time.
const PROMOTE_PERIOD: u64 = 4;

impl SketchRows {
    /// Number of landmarks (row pairs), live or stale.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of live (repair-current) row pairs — the envelope width
    /// pricing actually sees.
    pub fn live_count(&self) -> usize {
        self.stale.iter().filter(|&&s| !s).count()
    }

    /// The landmark set, in row order.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Bundle indices of the live pairs, in row order — position `j` in
    /// the borrowed [`sketch`](Self::sketch) (and in any feedback derived
    /// from it) maps to bundle pair `live_indices()[j]`.
    fn live_indices(&self) -> Vec<usize> {
        (0..self.landmarks.len())
            .filter(|&i| !self.stale[i])
            .collect()
    }

    /// Records pricing feedback: `useful[j]` refers to the `j`-th *live*
    /// pair (the subset the envelope served), credited at the current
    /// tick.
    pub(crate) fn note_useful(&mut self, useful: &[bool]) {
        let live = self.live_indices();
        for (&i, &u) in live.iter().zip(useful) {
            if u {
                self.last_useful[i] = self.tick;
            }
        }
    }

    /// One stored row: the reverse row `d̂(v → landmark)` when `reverse`,
    /// else the forward row `d̂(landmark → v)`.
    pub fn row(&self, idx: usize, reverse: bool) -> &[u32] {
        if reverse {
            &self.to[idx]
        } else {
            &self.from[idx]
        }
    }

    /// Borrows the **live** rows as a
    /// [`LandmarkSketch`](snd_graph::LandmarkSketch) with sentinel `inf`.
    /// Stale pairs are excluded — the envelope over the remaining
    /// landmarks is looser but still sound.
    pub(crate) fn sketch(&self, inf: u32) -> snd_graph::LandmarkSketch<'_> {
        let live = self.live_indices();
        snd_graph::LandmarkSketch::new(
            live.iter().map(|&i| self.to[i].as_slice()).collect(),
            live.iter().map(|&i| self.from[i].as_slice()).collect(),
            inf,
        )
    }

    /// Builds every row pair from scratch (2·L SSSPs, parallel over
    /// landmarks). `last_useful`/`tick` are carried, not reset, so the
    /// high-churn fallback keeps the adaptation history.
    fn build(
        g: &CsrGraph,
        costs: &[u32],
        max_edge_cost: u32,
        unreachable: u32,
        landmarks: Vec<NodeId>,
        last_useful: Vec<u64>,
        tick: u64,
    ) -> SketchRows {
        let n = g.node_count();
        // One (to-landmark, from-landmark) row pair per landmark.
        type RowPair = (Arc<Vec<u32>>, Arc<Vec<u32>>);
        let rows: Vec<RowPair> =
            crate::approx::time_phase(crate::approx::PHASE_SKETCH_MAINT, || {
                landmarks
                    .par_iter()
                    .map(|&l| {
                        with_sssp_scratch(|scratch| {
                            dial_reverse_scratch(g, costs, &[l], max_edge_cost, scratch);
                            let to = clamped_row(scratch, n, unreachable);
                            dial_scratch(g, costs, &[l], max_edge_cost, scratch);
                            let from = clamped_row(scratch, n, unreachable);
                            (Arc::new(to), Arc::new(from))
                        })
                    })
                    .collect()
            });
        crate::approx::record_sketch_rebuild(rows.len() * 2);
        let (to, from) = rows.into_iter().unzip();
        let stale = vec![false; landmarks.len()];
        SketchRows {
            landmarks,
            to,
            from,
            last_useful,
            tick,
            stale,
        }
    }

    /// Fresh rebuild over new costs at the *same* (possibly adapted)
    /// landmark set — the high-churn fallback.
    fn rebuilt(
        &self,
        g: &CsrGraph,
        costs: &[u32],
        max_edge_cost: u32,
        unreachable: u32,
    ) -> SketchRows {
        SketchRows::build(
            g,
            costs,
            max_edge_cost,
            unreachable,
            self.landmarks.clone(),
            self.last_useful.clone(),
            self.tick,
        )
    }

    /// The pairs the feedback-driven policy repairs across the next
    /// transition: the [`REPAIR_PAIR_BUDGET`] most recently useful live
    /// pairs (ties broken by slot, so the budget does not wander across
    /// equally-idle pairs). Before any pricing signal exists
    /// (`tick == 0`) every pair is wanted, so un-priced stepping stays
    /// exhaustive.
    fn repair_wanted(&self) -> Vec<bool> {
        let n = self.landmarks.len();
        if self.tick == 0 {
            return vec![true; n];
        }
        let mut want: Vec<bool> = vec![false; n];
        let mut live: Vec<usize> = (0..n).filter(|&i| !self.stale[i]).collect();
        live.sort_unstable_by_key(|&i| (std::cmp::Reverse(self.last_useful[i]), i));
        for &i in live.iter().take(REPAIR_PAIR_BUDGET) {
            want[i] = true;
        }
        want
    }

    /// Advances the row pairs across a transition. Rows a change provably
    /// cannot perturb are `Arc`-shared; rows of pairs the feedback policy
    /// ([`repair_wanted`](Self::repair_wanted)) retains are repaired in
    /// place — bit-identical to [`build`](Self::build) over the new
    /// costs; fired pairs the policy lets go are carried unrepaired and
    /// marked stale (a stale pair stays stale: repair needs a valid
    /// starting row, so only eviction or a full rebuild revives the
    /// slot).
    fn advanced(
        &self,
        g: &CsrGraph,
        new_costs: &[u32],
        changes: &[CostChange],
        unreachable: u32,
    ) -> SketchRows {
        let index = ChangeIndex::new(g, changes, new_costs);
        let want = self.repair_wanted();
        let repair = |prev: &Arc<Vec<u32>>, l: NodeId, reverse: bool| -> Arc<Vec<u32>> {
            REPAIR_SCRATCH.with(|cell| {
                let scratch = &mut cell.borrow_mut();
                let mut row = (**prev).clone();
                repair_row(
                    g,
                    new_costs,
                    changes,
                    &[l],
                    reverse,
                    unreachable,
                    &mut row,
                    scratch,
                );
                Arc::new(row)
            })
        };
        // Per pair: (to, from, repaired, reused, went_stale).
        type Advanced = (Arc<Vec<u32>>, Arc<Vec<u32>>, usize, usize, bool);
        let pairs: Vec<Advanced> =
            crate::approx::time_phase(crate::approx::PHASE_SKETCH_MAINT, || {
                (0..self.landmarks.len())
                    .into_par_iter()
                    .map(|i| {
                        let (t, f) = (&self.to[i], &self.from[i]);
                        if self.stale[i] {
                            return (Arc::clone(t), Arc::clone(f), 0, 0, true);
                        }
                        let l = self.landmarks[i];
                        let fires_to = index.fires(t, unreachable, true);
                        let fires_from = index.fires(f, unreachable, false);
                        let fired = usize::from(fires_to) + usize::from(fires_from);
                        if fired > 0 && !want[i] {
                            return (Arc::clone(t), Arc::clone(f), 0, 0, true);
                        }
                        let t = if fires_to {
                            repair(t, l, true)
                        } else {
                            Arc::clone(t)
                        };
                        let f = if fires_from {
                            repair(f, l, false)
                        } else {
                            Arc::clone(f)
                        };
                        (t, f, fired, 2 - fired, false)
                    })
                    .collect()
            });
        let mut to = Vec::with_capacity(pairs.len());
        let mut from = Vec::with_capacity(pairs.len());
        let mut stale = Vec::with_capacity(pairs.len());
        let (mut repaired, mut reused, mut parked) = (0usize, 0usize, 0usize);
        for (t, f, rep, reu, s) in pairs {
            repaired += rep;
            reused += reu;
            parked += usize::from(s) * 2;
            stale.push(s);
            to.push(t);
            from.push(f);
        }
        crate::approx::record_sketch_step(repaired, reused, parked);
        SketchRows {
            landmarks: self.landmarks.clone(),
            to,
            from,
            last_useful: self.last_useful.clone(),
            tick: self.tick,
            stale,
        }
    }
}

/// Per-transition index of the changed edges in relaxation terms:
/// `(tail, head, old, new)` per change, endpoints precomputed once in
/// forward orientation. High-cluster-count configs previously paid an
/// `O(n)` row clone plus a [`repair_row`] invocation per cluster per
/// transition just to *discover* that the batch was a no-op for that
/// cluster; [`fires`](ChangeIndex::fires) discovers it in `O(|changes|)`
/// without touching the row, so unchanged clusters are skipped outright.
struct ChangeIndex {
    entries: Vec<(NodeId, NodeId, u32, u32)>,
}

impl ChangeIndex {
    fn new(g: &CsrGraph, changes: &[CostChange], new_costs: &[u32]) -> ChangeIndex {
        ChangeIndex {
            entries: changes
                .iter()
                .map(|&(e, old)| {
                    (
                        g.edge_source(e),
                        g.edge_target(e),
                        old,
                        new_costs[e as usize],
                    )
                })
                .collect(),
        }
    }

    /// Whether any change in the batch can perturb `dist` (a clamped row
    /// in the direction given by `reverse`). `false` guarantees
    /// [`repair_row`] would report zero moved nodes and leave the row
    /// bit-identical, because these are exactly its trigger conditions:
    /// a *decrease* does work only when it strictly improves its head
    /// from the current tail distance, an *increase* only when the edge
    /// supported its head's distance (`dist[tail] + old == dist[head]`).
    /// With no trigger, the repair's affected set and settle heap both
    /// stay empty and the row is untouched.
    fn fires(&self, dist: &[u32], inf: u32, reverse: bool) -> bool {
        self.entries.iter().any(|&(s, t, old, new)| {
            let (tail, head) = if reverse { (t, s) } else { (s, t) };
            let dt = dist[tail as usize];
            if dt == inf {
                return false; // nothing propagates through an unreachable tail
            }
            let dh = dist[head as usize];
            if new < old {
                dt.saturating_add(new) < dh
            } else {
                dh != inf && dt.saturating_add(old) == dh
            }
        })
    }
}

/// Clamps a raw scratch distance into the bounded domain.
#[inline]
fn clamp(d: u64, unreachable: u32) -> u32 {
    if d == UNREACHABLE || d >= unreachable as u64 {
        unreachable
    } else {
        d as u32
    }
}

/// Collects the scratch's last run as a clamped row.
fn clamped_row(scratch: &SsspScratch, n: usize, unreachable: u32) -> Vec<u32> {
    scratch
        .distances(n)
        .map(|d| clamp(d, unreachable))
        .collect()
}

/// Per-cluster minimum of a clamped row — the inter-cluster distance row.
fn min_reduce(row: &[u32], labels: &[u32], nc: usize, unreachable: u32) -> Vec<u32> {
    let mut mins = vec![unreachable; nc];
    for (x, &d) in row.iter().enumerate() {
        let c = labels[x] as usize;
        if d < mins[c] {
            mins[c] = d;
        }
    }
    mins
}

/// Eccentricity of a clamped row over a member set.
fn member_ecc(row: &[u32], members: &[NodeId]) -> u32 {
    members.iter().map(|&m| row[m as usize]).max().unwrap_or(0)
}

impl OpGeometry {
    /// True when the clamp domain is lossless — every real path cost fits
    /// strictly below the sentinel, the precondition for row repair.
    fn lossless(unreachable: u32, max_edge_cost: u32, n: usize) -> bool {
        unreachable as u64 == (max_edge_cost as u64) * (n as u64) + 1
    }

    /// Whether this engine/policy combination caches (and repairs) rows.
    fn caches_rows(engine: &SndEngine<'_>, unreachable: u32) -> bool {
        !matches!(engine.config().clusters, crate::config::ClusterSpec::PerBin)
            && !matches!(engine.config().gamma, GammaPolicy::HalfExactDiameter)
            && Self::lossless(
                unreachable,
                engine.config().ground.max_edge_cost(),
                engine.graph().node_count(),
            )
    }

    /// Builds the geometry from scratch, retaining the SSSP rows for
    /// later repair. Bit-identical to
    /// [`compute_geometry`](crate::banks::compute_geometry).
    fn fresh(engine: &SndEngine<'_>, state: &NetworkState, op: Opinion) -> OpGeometry {
        let costs = edge_costs(engine.graph(), state, op, &engine.config().ground);
        Self::from_costs(engine, op, costs)
    }

    /// Builds the geometry from already-derived edge costs.
    fn from_costs(engine: &SndEngine<'_>, _op: Opinion, costs: Vec<u32>) -> OpGeometry {
        let g = engine.graph();
        let config = engine.config();
        let clustering = engine.clustering();
        let n = g.node_count();
        let max_edge_cost = config.ground.max_edge_cost();
        let unreachable = ((max_edge_cost as u64)
            .saturating_mul(n as u64)
            .saturating_add(1))
        .min(u32::MAX as u64 / 4) as u32;

        if matches!(config.clusters, crate::config::ClusterSpec::PerBin) {
            assert!(
                config.per_bin_gamma > 0,
                "per-bin gamma must be positive (identity of indiscernibles)"
            );
            // Approximate-tier engines get a live sketch bundle alongside
            // the costs — only in a lossless clamp domain, the repair
            // precondition (otherwise the approx path falls back to cache
            // fetches, still certified).
            let sketch = if Self::lossless(unreachable, max_edge_cost, n) {
                engine.delta_sketch_ctx().map(|ctx| {
                    let landmarks = ctx.landmarks.clone();
                    let count = landmarks.len();
                    SketchRows::build(
                        g,
                        &costs,
                        max_edge_cost,
                        unreachable,
                        landmarks,
                        vec![0; count],
                        0,
                    )
                })
            } else {
                None
            };
            return OpGeometry {
                geom: GroundGeometry {
                    edge_costs: costs,
                    max_edge_cost,
                    unreachable,
                    per_bin: true,
                    gammas: Vec::new(),
                    inter_cluster: DenseCost::filled(0, 0, 0),
                },
                cluster_rows: Vec::new(),
                row_gens: Vec::new(),
                ecc_fwd: Vec::new(),
                ecc_rev: Vec::new(),
                sketch,
            };
        }

        let nc = clustering.cluster_count();
        let keep_rows = Self::caches_rows(engine, unreachable);
        let want_ecc = keep_rows && matches!(config.gamma, GammaPolicy::Eccentricity);

        // One work item per cluster, mirroring `compute_geometry`'s
        // fan-out; additionally retains the clamped rows when repairable.
        struct ClusterOut {
            row: Vec<u32>,
            min_row: Vec<u32>,
            base: u32,
            ecc_fwd: Vec<u32>,
            ecc_rev: Vec<u32>,
        }
        let per_cluster: Vec<ClusterOut> = (0..nc)
            .into_par_iter()
            .map(|c| {
                with_sssp_scratch(|scratch| {
                    let members = clustering.members(c as u32);
                    dial_scratch(g, &costs, members, max_edge_cost, scratch);
                    let row = clamped_row(scratch, n, unreachable);
                    let min_row = min_reduce(&row, &clustering.labels, nc, unreachable);
                    let (base, ecc_fwd, ecc_rev) = match config.gamma {
                        GammaPolicy::Constant(v) => (v, Vec::new(), Vec::new()),
                        GammaPolicy::Eccentricity => {
                            let rep = members[0];
                            dial_scratch(g, &costs, &[rep], max_edge_cost, scratch);
                            let fwd = clamped_row(scratch, n, unreachable);
                            dial_reverse_scratch(g, &costs, &[rep], max_edge_cost, scratch);
                            let rev = clamped_row(scratch, n, unreachable);
                            let base = member_ecc(&fwd, members).max(member_ecc(&rev, members));
                            if want_ecc {
                                (base, fwd, rev)
                            } else {
                                (base, Vec::new(), Vec::new())
                            }
                        }
                        GammaPolicy::HalfExactDiameter => {
                            let mut diam = 0u32;
                            for &p in members {
                                dial_scratch(g, &costs, &[p], max_edge_cost, scratch);
                                for &q in members {
                                    diam = diam.max(clamp(scratch.dist(q), unreachable));
                                }
                            }
                            (
                                ((diam as u64).div_ceil(2).min(unreachable as u64)) as u32,
                                Vec::new(),
                                Vec::new(),
                            )
                        }
                    };
                    ClusterOut {
                        row: if keep_rows { row } else { Vec::new() },
                        min_row,
                        base,
                        ecc_fwd,
                        ecc_rev,
                    }
                })
            })
            .collect();

        let nb = config.banks_per_cluster.max(1);
        let mut inter = DenseCost::filled(nc, nc, unreachable);
        let mut gammas = Vec::with_capacity(nc);
        let mut cluster_rows = Vec::with_capacity(if keep_rows { nc } else { 0 });
        let mut row_gens = Vec::with_capacity(if keep_rows { nc } else { 0 });
        let mut ecc_fwd = Vec::new();
        let mut ecc_rev = Vec::new();
        for (c, out) in per_cluster.into_iter().enumerate() {
            for (c2, &d) in out.min_row.iter().enumerate() {
                *inter.at_mut(c, c2) = d;
            }
            *inter.at_mut(c, c) = 0;
            gammas.push(
                (0..nb)
                    .map(|b| out.base.saturating_mul(b as u32 + 1).min(unreachable))
                    .collect(),
            );
            if keep_rows {
                cluster_rows.push(Arc::new(out.row));
                row_gens.push(next_row_gen());
            }
            if want_ecc {
                ecc_fwd.push(Arc::new(out.ecc_fwd));
                ecc_rev.push(Arc::new(out.ecc_rev));
            }
        }

        OpGeometry {
            geom: GroundGeometry {
                edge_costs: costs,
                max_edge_cost,
                unreachable,
                per_bin: false,
                gammas,
                inter_cluster: inter,
            },
            cluster_rows,
            row_gens,
            ecc_fwd,
            ecc_rev,
            sketch: None,
        }
    }

    /// Advances to the next state by repairing the cached rows with the
    /// actually-changed edge costs. Caller guarantees `changes` is exact
    /// (see [`DeltaStateGeometry::step`]) and that rows are cached.
    fn advanced(
        &self,
        engine: &SndEngine<'_>,
        new_costs: Vec<u32>,
        changes: &[CostChange],
    ) -> OpGeometry {
        let g = engine.graph();
        let config = engine.config();
        let clustering = engine.clustering();
        let nc = clustering.cluster_count();
        let nb = config.banks_per_cluster.max(1);
        let unreachable = self.geom.unreachable;
        debug_assert!(!self.geom.per_bin && self.cluster_rows.len() == nc);

        struct ClusterOut {
            row: Arc<Vec<u32>>,
            /// Generation of `row`: fresh on repair, carried over on reuse.
            gen: u64,
            min_row: Option<Vec<u32>>, // None: unchanged, reuse previous
            base: Option<u32>,
            ecc_fwd: Arc<Vec<u32>>,
            ecc_rev: Arc<Vec<u32>>,
        }
        let want_ecc = matches!(config.gamma, GammaPolicy::Eccentricity);
        // Index the batch once; each cluster then answers "can any change
        // touch my rows?" in O(|changes|) instead of cloning and repairing
        // just to find out.
        let index = ChangeIndex::new(g, changes, &new_costs);
        let empty = Arc::new(Vec::new());
        let per_cluster: Vec<ClusterOut> = (0..nc)
            .into_par_iter()
            .map(|c| {
                REPAIR_SCRATCH.with(|cell| {
                    let scratch = &mut cell.borrow_mut();
                    let members = clustering.members(c as u32);
                    let (row, gen, min_row) =
                        if index.fires(&self.cluster_rows[c], unreachable, false) {
                            let mut row = (*self.cluster_rows[c]).clone();
                            let moved = repair_row(
                                g,
                                &new_costs,
                                changes,
                                members,
                                false,
                                unreachable,
                                &mut row,
                                scratch,
                            );
                            let min_row = (moved > 0)
                                .then(|| min_reduce(&row, &clustering.labels, nc, unreachable));
                            (Arc::new(row), next_row_gen(), min_row)
                        } else {
                            // Provable no-op: share the previous row (O(1)),
                            // generation carried forward with it.
                            (Arc::clone(&self.cluster_rows[c]), self.row_gens[c], None)
                        };
                    let (base, ecc_fwd, ecc_rev) = if want_ecc {
                        let rep = members[0];
                        let mut repair_ecc = |prev: &Arc<Vec<u32>>, reverse: bool| {
                            if !index.fires(prev, unreachable, reverse) {
                                return (Arc::clone(prev), 0);
                            }
                            let mut r = (**prev).clone();
                            let moved = repair_row(
                                g,
                                &new_costs,
                                changes,
                                &[rep],
                                reverse,
                                unreachable,
                                &mut r,
                                scratch,
                            );
                            (Arc::new(r), moved)
                        };
                        let (fwd, moved_f) = repair_ecc(&self.ecc_fwd[c], false);
                        let (rev, moved_r) = repair_ecc(&self.ecc_rev[c], true);
                        let base = (moved_f + moved_r > 0)
                            .then(|| member_ecc(&fwd, members).max(member_ecc(&rev, members)));
                        (base, fwd, rev)
                    } else {
                        // Constant policy: γ never moves.
                        (None, Arc::clone(&empty), Arc::clone(&empty))
                    };
                    ClusterOut {
                        row,
                        gen,
                        min_row,
                        base,
                        ecc_fwd,
                        ecc_rev,
                    }
                })
            })
            .collect();

        let mut inter = DenseCost::filled(nc, nc, unreachable);
        let mut gammas = Vec::with_capacity(nc);
        let mut cluster_rows = Vec::with_capacity(nc);
        let mut row_gens = Vec::with_capacity(nc);
        let mut ecc_fwd = Vec::new();
        let mut ecc_rev = Vec::new();
        for (c, out) in per_cluster.into_iter().enumerate() {
            // The soundness of O(1) reuse, stated as a check: a carried
            // generation must mean a carried Arc. Repaired rows got a fresh
            // atomic bump, so a collision here means the bump was lost.
            debug_assert!(
                out.gen != self.row_gens[c] || Arc::ptr_eq(&out.row, &self.cluster_rows[c]),
                "cluster {c}: repaired row reuses generation {} — stale-row hazard",
                out.gen
            );
            match out.min_row {
                Some(mins) => {
                    for (c2, &d) in mins.iter().enumerate() {
                        *inter.at_mut(c, c2) = d;
                    }
                    *inter.at_mut(c, c) = 0;
                }
                None => {
                    // Rows untouched by the repair: the previous state's
                    // inter-cluster row is reused verbatim.
                    for c2 in 0..nc {
                        *inter.at_mut(c, c2) = self.geom.inter_cluster.at(c, c2);
                    }
                }
            }
            match out.base {
                Some(base) => gammas.push(
                    (0..nb)
                        .map(|b| base.saturating_mul(b as u32 + 1).min(unreachable))
                        .collect(),
                ),
                None => gammas.push(self.geom.gammas[c].clone()),
            }
            cluster_rows.push(out.row);
            row_gens.push(out.gen);
            if want_ecc {
                ecc_fwd.push(out.ecc_fwd);
                ecc_rev.push(out.ecc_rev);
            }
        }

        OpGeometry {
            geom: GroundGeometry {
                edge_costs: new_costs,
                max_edge_cost: self.geom.max_edge_cost,
                unreachable,
                per_bin: false,
                gammas,
                inter_cluster: inter,
            },
            cluster_rows,
            row_gens,
            ecc_fwd,
            ecc_rev,
            sketch: None,
        }
    }
}

/// The repairable geometry bundle of one state: both opinion geometries
/// plus the cached SSSP rows they were derived from. The delta-series
/// unit of reuse — [`step`](Self::step) derives the next state's bundle
/// from this one.
pub struct DeltaStateGeometry {
    pub(crate) pos: OpGeometry,
    pub(crate) neg: OpGeometry,
}

impl DeltaStateGeometry {
    /// Builds the bundle from scratch (both opinions in parallel).
    pub fn fresh(engine: &SndEngine<'_>, state: &NetworkState) -> DeltaStateGeometry {
        let (pos, neg) = rayon::join(
            || OpGeometry::fresh(engine, state, Opinion::Positive),
            || OpGeometry::fresh(engine, state, Opinion::Negative),
        );
        DeltaStateGeometry { pos, neg }
    }

    /// Derives the next state's bundle: touched-edge cost rederivation,
    /// then row repair — or a fresh rebuild past the fallback conditions
    /// (see the module docs). Exact either way.
    pub fn step(
        &self,
        engine: &SndEngine<'_>,
        next: &NetworkState,
        delta: &StateDelta,
    ) -> DeltaStateGeometry {
        let g = engine.graph();
        let m = g.edge_count();
        let config = engine.config();
        let high_churn = delta.touched_edges().len() * REPAIR_EDGE_FRACTION > m;

        let advance_op = |prev: &OpGeometry, op: Opinion| -> OpGeometry {
            // Touched-edge cost sweep (exact, shared with the fresh path).
            let mut new_costs = prev.geom.edge_costs.clone();
            update_edge_costs(
                g,
                next,
                op,
                &config.ground,
                delta.touched_edges(),
                &mut new_costs,
            );
            if prev.geom.per_bin {
                // No cluster geometry to repair: the costs are the
                // geometry. A live sketch bundle advances under the same
                // contract as cluster rows — Arc-share provable no-ops,
                // repair the rest, fresh rebuild past the churn threshold.
                let sketch = prev.sketch.as_ref().map(|s| {
                    if high_churn {
                        return s.rebuilt(
                            g,
                            &new_costs,
                            prev.geom.max_edge_cost,
                            prev.geom.unreachable,
                        );
                    }
                    let changes: Vec<CostChange> = delta
                        .touched_edges()
                        .iter()
                        .filter(|&&e| new_costs[e as usize] != prev.geom.edge_costs[e as usize])
                        .map(|&e| (e, prev.geom.edge_costs[e as usize]))
                        .collect();
                    if changes.is_empty() {
                        crate::approx::record_sketch_step(0, s.live_count() * 2, 0);
                        s.clone()
                    } else {
                        s.advanced(g, &new_costs, &changes, prev.geom.unreachable)
                    }
                });
                return OpGeometry {
                    geom: GroundGeometry {
                        edge_costs: new_costs,
                        ..prev.geom.clone_scalars()
                    },
                    cluster_rows: Vec::new(),
                    row_gens: Vec::new(),
                    ecc_fwd: Vec::new(),
                    ecc_rev: Vec::new(),
                    sketch,
                };
            }
            if high_churn || prev.cluster_rows.is_empty() {
                return OpGeometry::from_costs(engine, op, new_costs);
            }
            let changes: Vec<CostChange> = delta
                .touched_edges()
                .iter()
                .filter(|&&e| new_costs[e as usize] != prev.geom.edge_costs[e as usize])
                .map(|&e| (e, prev.geom.edge_costs[e as usize]))
                .collect();
            if changes.is_empty() {
                // Costs identical for this opinion: geometry carries over.
                return OpGeometry {
                    geom: GroundGeometry {
                        edge_costs: new_costs,
                        ..prev.geom.clone_scalars()
                    },
                    cluster_rows: prev.cluster_rows.clone(),
                    row_gens: prev.row_gens.clone(),
                    ecc_fwd: prev.ecc_fwd.clone(),
                    ecc_rev: prev.ecc_rev.clone(),
                    sketch: None,
                };
            }
            prev.advanced(engine, new_costs, &changes)
        };

        let (pos, neg) = rayon::join(
            || advance_op(&self.pos, Opinion::Positive),
            || advance_op(&self.neg, Opinion::Negative),
        );
        DeltaStateGeometry { pos, neg }
    }

    /// Materializes the batch-path bundle for this state: both geometries
    /// (cloned) plus an empty shared row cache. Feeding these to
    /// [`SndEngine::breakdown_with`] prices transitions exactly as the
    /// batch path does. Live sketch bundles ride along (Arc-shared rows,
    /// so the clone is `O(L)`), keeping the approximate tile path on
    /// delta-repaired rows.
    pub fn bundle(&self, engine: &SndEngine<'_>) -> StateGeometry {
        StateGeometry::new(
            self.pos.geom.clone(),
            self.neg.geom.clone(),
            RowCache::new(engine.graph().node_count()),
        )
        .with_sketches(self.pos.sketch.clone(), self.neg.sketch.clone())
    }

    /// The live landmark-sketch bundle of one opinion plane, when this
    /// engine maintains one (per-bin banks + approx config + lossless
    /// clamp domain).
    pub fn sketch(&self, op: Opinion) -> Option<&SketchRows> {
        match op {
            Opinion::Positive => self.pos.sketch.as_ref(),
            _ => self.neg.sketch.as_ref(),
        }
    }

    /// Adaptive landmark placement: folds one term's refinement feedback
    /// (hot `gap × flow` cell representatives + per-landmark usefulness
    /// credit) into the `op` plane's sketch. Up to two hot nodes are
    /// promoted to landmarks per call (two SSSPs each over this plane's
    /// costs); past `max_landmarks` the least-recently-useful landmark is
    /// evicted — unless every landmark was useful this very snapshot, in
    /// which case the set is left alone rather than churned.
    pub(crate) fn adapt_sketch(
        &mut self,
        engine: &SndEngine<'_>,
        op: Opinion,
        feedback: &crate::approx::TermFeedback,
        max_landmarks: usize,
    ) {
        let plane = match op {
            Opinion::Positive => &mut self.pos,
            _ => &mut self.neg,
        };
        let Some(sketch) = plane.sketch.as_mut() else {
            return;
        };
        sketch.tick += 1;
        let tick = sketch.tick;
        // Feedback indices refer to the live pairs the term was priced
        // with; `note_useful` maps them back onto bundle slots.
        sketch.note_useful(&feedback.landmark_useful);
        // Promotion is gated on the envelope earning its keep (some
        // landmark bound a hot cell) and paced by [`PROMOTE_PERIOD`]:
        // when the pricing does not lean on the sketch, two SSSPs per
        // promotion buy rows nothing will read, and even a hot streak
        // only justifies moving placement one landmark at a time.
        let any_useful = feedback.landmark_useful.iter().any(|&u| u);
        let full = sketch.landmarks.len() >= max_landmarks.max(1);
        if full && (!any_useful || tick % PROMOTE_PERIOD != 0) {
            return;
        }
        let g = engine.graph();
        let n = g.node_count();
        let costs = &plane.geom.edge_costs;
        let max_edge_cost = plane.geom.max_edge_cost;
        let unreachable = plane.geom.unreachable;
        // Paced to one promotion per snapshot: each costs two SSSPs, and
        // a genuinely hot region stays hot long enough to be covered one
        // landmark at a time.
        let mut promoted = 0usize;
        for &v in &feedback.hot_nodes {
            if promoted >= 1 {
                break;
            }
            if sketch.landmarks.contains(&v) {
                continue;
            }
            if sketch.landmarks.len() >= max_landmarks.max(1) {
                let Some((evict, &least)) = sketch
                    .last_useful
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &lu)| (lu, i))
                else {
                    break;
                };
                if least >= tick {
                    break;
                }
                sketch.landmarks.swap_remove(evict);
                sketch.to.swap_remove(evict);
                sketch.from.swap_remove(evict);
                sketch.last_useful.swap_remove(evict);
                sketch.stale.swap_remove(evict);
            }
            let (to, from) = crate::approx::time_phase(crate::approx::PHASE_SKETCH_MAINT, || {
                with_sssp_scratch(|scratch| {
                    dial_reverse_scratch(g, costs, &[v], max_edge_cost, scratch);
                    let to = clamped_row(scratch, n, unreachable);
                    dial_scratch(g, costs, &[v], max_edge_cost, scratch);
                    let from = clamped_row(scratch, n, unreachable);
                    (to, from)
                })
            });
            sketch.landmarks.push(v);
            sketch.to.push(Arc::new(to));
            sketch.from.push(Arc::new(from));
            sketch.last_useful.push(tick);
            sketch.stale.push(false);
            promoted += 1;
        }
    }
}

impl GroundGeometry {
    /// A copy carrying everything except the edge costs (which every
    /// delta step replaces).
    fn clone_scalars(&self) -> GroundGeometry {
        GroundGeometry {
            edge_costs: Vec::new(),
            max_edge_cost: self.max_edge_cost,
            unreachable: self.unreachable,
            per_bin: self.per_bin,
            gammas: self.gammas.clone(),
            inter_cluster: self.inter_cluster.clone(),
        }
    }
}

/// The inputs of one transition's four EMD\* terms in
/// [`SndBreakdown`](crate::SndBreakdown) order: geometries, row caches and
/// live sketches, the forward terms grounded in `prev` and the backward
/// terms in `cur`.
pub(crate) type TermInputs<'a> = (
    [&'a GroundGeometry; 4],
    [Option<&'a RowCache>; 4],
    [Option<&'a SketchRows>; 4],
);

/// [`TermInputs`] of the transition from `prev` to `cur`, each bundle
/// paired with its row cache.
pub(crate) fn term_inputs<'a>(
    (prev, prev_rows): (&'a DeltaStateGeometry, &'a RowCache),
    (cur, cur_rows): (&'a DeltaStateGeometry, &'a RowCache),
) -> TermInputs<'a> {
    (
        [&prev.pos.geom, &prev.neg.geom, &cur.pos.geom, &cur.neg.geom],
        [prev_rows, prev_rows, cur_rows, cur_rows].map(Some),
        [
            prev.pos.sketch.as_ref(),
            prev.neg.sketch.as_ref(),
            cur.pos.sketch.as_ref(),
            cur.neg.sketch.as_ref(),
        ],
    )
}

/// The delta-series walk: one value per adjacent transition of
/// `states`. Identical consecutive states yield `zero` unpriced (every
/// EMD\* term over equal states is exactly zero, and the geometry and
/// caches carry over untouched); every other transition steps the
/// repairable bundle and hands both bundles, each with its row cache, to
/// `price`, which may adapt the later bundle before the walk moves on
/// from it. Exactly two bundles (and two row caches) are live at any
/// point; the geometries are borrowed into pricing, never cloned.
pub(crate) fn walk_series<T: Copy>(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    zero: T,
    mut price: impl FnMut(
        &NetworkState,
        &NetworkState,
        (&DeltaStateGeometry, &RowCache),
        (&mut DeltaStateGeometry, &RowCache),
    ) -> T,
) -> Vec<T> {
    if states.len() < 2 {
        return Vec::new();
    }
    let g = engine.graph();
    let n = g.node_count();
    let mut out = Vec::with_capacity(states.len() - 1);
    let mut prev = DeltaStateGeometry::fresh(engine, &states[0]);
    let mut prev_rows = RowCache::new(n);
    for t in 1..states.len() {
        let delta = StateDelta::between(g, &states[t - 1], &states[t]);
        if delta.is_empty() {
            out.push(zero);
            continue;
        }
        let mut cur = prev.step(engine, &states[t], &delta);
        let cur_rows = RowCache::new(n);
        out.push(price(
            &states[t - 1],
            &states[t],
            (&prev, &prev_rows),
            (&mut cur, &cur_rows),
        ));
        prev = cur;
        prev_rows = cur_rows; // the old cache drops here
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterSpec, SndConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use snd_graph::generators::barabasi_albert;

    fn random_series(n: usize, steps: usize, seed: u64) -> Vec<NetworkState> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut states = Vec::with_capacity(steps + 1);
        let first: Vec<i8> = (0..n).map(|_| rng.gen_range(-1..=1)).collect();
        states.push(NetworkState::from_values(&first));
        for _ in 0..steps {
            let mut next = states.last().unwrap().clone();
            for _ in 0..1 + rng.gen_range(0..3) {
                let u = rng.gen_range(0..n as u32);
                next.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
            }
            states.push(next);
        }
        states
    }

    fn configs() -> Vec<SndConfig> {
        vec![
            SndConfig::default(), // per-bin
            SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters: 3 },
                gamma: GammaPolicy::Eccentricity,
                ..Default::default()
            },
            SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters: 4 },
                gamma: GammaPolicy::Constant(5),
                banks_per_cluster: 2,
                ..Default::default()
            },
            SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters: 2 },
                gamma: GammaPolicy::HalfExactDiameter,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn fresh_geometry_matches_compute_geometry() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = barabasi_albert(40, 2, &mut rng);
        for config in configs() {
            let engine = SndEngine::new(&g, config);
            let vals: Vec<i8> = (0..40).map(|_| rng.gen_range(-1..=1)).collect();
            let state = NetworkState::from_values(&vals);
            for op in [Opinion::Positive, Opinion::Negative] {
                let fresh = OpGeometry::fresh(&engine, &state, op);
                assert_eq!(fresh.geom, engine.geometry_seq(&state, op));
            }
        }
    }

    #[test]
    fn stepped_geometry_matches_fresh_geometry() {
        let mut rng = SmallRng::seed_from_u64(41);
        let g = barabasi_albert(36, 2, &mut rng);
        let states = random_series(36, 8, 7);
        for config in configs() {
            let engine = SndEngine::new(&g, config);
            let mut cache = DeltaStateGeometry::fresh(&engine, &states[0]);
            for t in 1..states.len() {
                let delta = StateDelta::between(&g, &states[t - 1], &states[t]);
                cache = cache.step(&engine, &states[t], &delta);
                assert_eq!(
                    cache.pos.geom,
                    engine.geometry_seq(&states[t], Opinion::Positive),
                    "t={t}"
                );
                assert_eq!(
                    cache.neg.geom,
                    engine.geometry_seq(&states[t], Opinion::Negative),
                    "t={t}"
                );
            }
        }
    }

    #[test]
    fn delta_series_matches_seq_on_random_series() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = barabasi_albert(30, 2, &mut rng);
        let states = random_series(30, 6, 11);
        for config in configs() {
            let engine = SndEngine::new(&g, config);
            let delta = engine.series_distances(&states);
            let seq = engine.series_distances_seq(&states);
            assert_eq!(delta, seq, "bit-identical series");
        }
    }

    #[test]
    fn empty_delta_short_circuits_to_zero() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = barabasi_albert(20, 2, &mut rng);
        let engine = SndEngine::new(&g, SndConfig::default());
        let a = NetworkState::from_values(&(0..20).map(|i| (i % 3) as i8 - 1).collect::<Vec<_>>());
        let mut b = a.clone();
        b.set(3, Opinion::Neutral);
        // a, a (identical), b, b, a — two static transitions inside.
        let states = vec![a.clone(), a.clone(), b.clone(), b, a];
        let delta = engine.series_distances(&states);
        assert_eq!(delta[0], 0.0);
        assert_eq!(delta[2], 0.0);
        assert_eq!(delta, engine.series_distances_seq(&states));
    }

    #[test]
    fn untouched_clusters_share_rows_instead_of_recloning() {
        // Across a low-churn series, clusters whose rows a transition
        // provably cannot perturb must carry the *same* allocation into
        // the next bundle (Arc identity), not a fresh copy — while the
        // geometry stays bit-identical to a from-scratch build.
        let mut rng = SmallRng::seed_from_u64(77);
        let g = barabasi_albert(48, 2, &mut rng);
        let states = random_series(48, 10, 13);
        let config = SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 8 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        };
        let engine = SndEngine::new(&g, config);
        let mut cache = DeltaStateGeometry::fresh(&engine, &states[0]);
        let mut shared = 0usize;
        let mut total = 0usize;
        for t in 1..states.len() {
            let delta = StateDelta::between(&g, &states[t - 1], &states[t]);
            let next = cache.step(&engine, &states[t], &delta);
            for (a, b) in cache.pos.cluster_rows.iter().zip(&next.pos.cluster_rows) {
                total += 1;
                if std::sync::Arc::ptr_eq(a, b) {
                    shared += 1;
                }
            }
            assert_eq!(
                next.pos.geom,
                engine.geometry_seq(&states[t], Opinion::Positive),
                "t={t}"
            );
            cache = next;
        }
        assert!(
            shared > 0,
            "no cluster row was ever shared across {total} cluster-steps"
        );
    }

    #[test]
    fn high_churn_falls_back_and_stays_exact() {
        let mut rng = SmallRng::seed_from_u64(15);
        let g = barabasi_albert(24, 2, &mut rng);
        // Flip nearly every node every step: far past the repair
        // threshold.
        let mut states = Vec::new();
        states.push(NetworkState::from_values(
            &(0..24).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>(),
        ));
        for _ in 0..4 {
            states.push(NetworkState::from_values(
                &(0..24).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>(),
            ));
        }
        for config in configs() {
            let engine = SndEngine::new(&g, config);
            let delta = engine.series_distances(&states);
            assert_eq!(delta, engine.series_distances_seq(&states));
        }
    }
}
