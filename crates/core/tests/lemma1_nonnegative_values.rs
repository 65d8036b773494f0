//! Lemma 1 of the paper, pinned as a property of the build: every stored
//! value of the approximate inverse `Z̃` is nonnegative.
//!
//! Two things rest on it. The hub-scatter kernel adds exact zeros for the
//! rows a hub does not store, which keeps its answers bit-identical to the
//! two-pointer merge only because no accumulator can flip sign (see
//! `column_store::HubScratch`). And a content check on paged reads can
//! reject any decoded value whose sign bit is set only if no valid build
//! ever stores one. So the check is on the sign *bit* — a stored `-0.0`
//! fails it — and on finiteness, over random connected graphs, 2-D grids
//! and preferential-attachment graphs with random weights, ε, drop
//! tolerance and ordering.

use effres::{EffectiveResistanceEstimator, EffresConfig, Ordering};
use effres_graph::{generators, Graph};
use proptest::prelude::*;

/// One random case: a graph, then the build's ε, drop tolerance and ordering.
#[derive(Debug)]
struct Case {
    graph: Graph,
    epsilon: f64,
    drop_tolerance: f64,
    ordering: Ordering,
}

fn case() -> impl Strategy<Value = Case> {
    (
        (0usize..3, 16usize..400, any::<u64>()),
        (0.01f64..1.0, 0.0f64..3.0),
        (-6.0f64..-1.0, 0.0f64..1.0, 0usize..3),
    )
        .prop_map(
            |((shape, nodes, seed), (min_weight, spread), (log_epsilon, drop, order))| {
                // Weights span up to three decades.
                let max_weight = min_weight * 10f64.powf(spread);
                let graph = match shape {
                    0 => generators::random_connected(nodes, nodes, min_weight, max_weight, seed),
                    1 => {
                        let rows = 2 + nodes % 17;
                        generators::grid_2d(
                            rows,
                            (nodes / rows).max(2),
                            min_weight,
                            max_weight,
                            seed,
                        )
                    }
                    _ => generators::preferential_attachment(
                        nodes,
                        1 + nodes % 4,
                        min_weight,
                        max_weight,
                        seed,
                    ),
                }
                .expect("generator");
                Case {
                    graph,
                    epsilon: 10f64.powf(log_epsilon),
                    // A fifth of the cases use the complete factor.
                    drop_tolerance: if drop < 0.2 {
                        0.0
                    } else {
                        10f64.powf(-6.0 + 5.0 * drop)
                    },
                    ordering: [Ordering::Natural, Ordering::Rcm, Ordering::MinimumDegree][order],
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_stored_value_is_finite_with_its_sign_bit_clear(case in case()) {
        let config = EffresConfig::default()
            .with_epsilon(case.epsilon)
            .with_drop_tolerance(case.drop_tolerance)
            .with_ordering(case.ordering);
        let estimator = EffectiveResistanceEstimator::build(&case.graph, &config).expect("build");
        let values = estimator.approximate_inverse().arena_values();
        prop_assert!(!values.is_empty());
        let bad = values
            .iter()
            .position(|v| !v.is_finite() || v.is_sign_negative());
        prop_assert!(
            bad.is_none(),
            "stored value {:?} of {} breaks Lemma 1 ({} nodes, ε {:e}, drop {:e}, {:?})",
            bad.map(|k| values[k]),
            values.len(),
            case.graph.node_count(),
            case.epsilon,
            case.drop_tolerance,
            case.ordering
        );
    }
}
