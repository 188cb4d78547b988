//! Certified-interval guarantees of the approximate tier: for every
//! registry scenario (all eight model families, every graph generator)
//! the `[lower, upper]` interval returned by the landmark-sketch +
//! coarsening path must bracket the exact Theorem 4 value, the interval
//! width must respect the requested relative ε, and refinement at ε = 0
//! must converge to the exact value. Random graphs and parameters are
//! covered by proptest below; the in-crate tests in
//! `snd_core::approx` pin the per-term machinery.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use snd::core::{ApproxConfig, SndConfig, SndEngine};
use snd::data::registry;
use snd::graph::generators::erdos_renyi_gnp;
use snd::models::NetworkState;

/// An approximate-tier config that actually exercises the sketch on tiny
/// graphs: no minimum node count, few landmarks so envelopes are loose
/// and refinement has real work to do.
fn approx(epsilon: f64, landmarks: usize) -> SndConfig {
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

#[test]
fn intervals_bracket_exact_on_every_registry_scenario() {
    // Every scenario's 60-node series with two landmarks, plus one series
    // large enough that some terms pass the tiny-exact short-circuit (more
    // than 2·L residual users) and refine, with more landmarks than the
    // series path's repair budget keeps current, so pairs are parked
    // stale (`SND_APPROX_TRACE=1` shows both in its `series_intervals`
    // summary).
    let voting = registry()
        .into_iter()
        .find(|sc| sc.name == "voting")
        .expect("the registry has a voting scenario");
    let cases = registry()
        .into_iter()
        .map(|sc| (sc, 60, 4, 2))
        .chain(std::iter::once((voting, 1000, 6, 8)));
    for (mut sc, nodes, steps, landmarks) in cases {
        sc.nodes = nodes;
        sc.steps = steps;
        let series = sc.run(11).expect(sc.name);
        let exact_engine = SndEngine::new(&series.graph, SndConfig::default());
        let approx_engine = SndEngine::new(&series.graph, approx(0.25, landmarks));
        for (t, w) in series.states.windows(2).enumerate() {
            let exact = exact_engine.distance(&w[0], &w[1]);
            let iv = approx_engine
                .distance_interval(&w[0], &w[1])
                .expect("per-bin banks support the approximate tier");
            assert!(
                iv.contains(exact),
                "{} t={t}: exact {exact} outside [{}, {}]",
                sc.name,
                iv.lower,
                iv.upper
            );
            // The certificate honors the requested relative gap. Each of
            // the four EMD* terms meets ε individually, so their weighted
            // sum does too.
            assert!(
                iv.width() <= 0.25 * iv.upper + 1e-9,
                "{} t={t}: width {} over ε·upper {}",
                sc.name,
                iv.width(),
                0.25 * iv.upper
            );
        }
        // The series path returns one certified interval per transition,
        // each bracketing the exact series value at that step.
        let exact_series = exact_engine.series_distances(&series.states);
        let intervals = approx_engine.series_intervals(&series.states).unwrap();
        assert_eq!(intervals.len(), exact_series.len());
        for (t, (iv, exact)) in intervals.iter().zip(&exact_series).enumerate() {
            assert!(
                iv.contains(*exact),
                "{} series t={t}: exact {exact} outside [{}, {}]",
                sc.name,
                iv.lower,
                iv.upper
            );
        }
    }
}

#[test]
fn epsilon_zero_refines_to_exact_on_every_registry_scenario() {
    for mut sc in registry() {
        sc.nodes = 40;
        sc.steps = 3;
        let series = sc.run(5).expect(sc.name);
        let exact_engine = SndEngine::new(&series.graph, SndConfig::default());
        let approx_engine = SndEngine::new(&series.graph, approx(0.0, 2));
        for (t, w) in series.states.windows(2).enumerate() {
            let exact = exact_engine.distance(&w[0], &w[1]);
            let iv = approx_engine.distance_interval(&w[0], &w[1]).unwrap();
            let tol = 1e-9 * (1.0 + exact.abs());
            assert!(
                iv.width() <= tol,
                "{} t={t}: ε = 0 must collapse the interval, width {}",
                sc.name,
                iv.width()
            );
            assert!(
                (iv.midpoint() - exact).abs() <= tol,
                "{} t={t}: ε = 0 midpoint {} vs exact {exact}",
                sc.name,
                iv.midpoint()
            );
        }
    }
}

fn arb_state(n: usize) -> impl Strategy<Value = NetworkState> {
    proptest::collection::vec(-1i8..=1, n).prop_map(|v| NetworkState::from_values(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bracketing holds for arbitrary state pairs on random graphs, for
    /// any ε and any landmark budget — not just the scenario dynamics.
    #[test]
    fn intervals_bracket_exact_on_random_graphs(
        seed in 0u64..500,
        epsilon in 0.0f64..0.6,
        landmarks in 1usize..5,
        a in arb_state(36),
        b in arb_state(36),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_gnp(36, 0.12, true, &mut rng);
        let exact = SndEngine::new(&g, SndConfig::default()).distance(&a, &b);
        let iv = SndEngine::new(&g, approx(epsilon, landmarks))
            .distance_interval(&a, &b)
            .unwrap();
        prop_assert!(iv.lower <= iv.upper);
        prop_assert!(iv.contains(exact),
            "exact {exact} outside [{}, {}] (ε {epsilon}, L {landmarks})",
            iv.lower, iv.upper);
    }
}
