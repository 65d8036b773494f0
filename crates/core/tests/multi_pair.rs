//! The batched multi-pair kernels against the pairwise reference, pinned
//! **bitwise**: `column_dots_hub` must reproduce a `column_dot` loop bit
//! for bit, and `column_distances_squared_grouped` must reproduce
//! `column_distances_squared_batch` bit for bit for *any* pair sequence —
//! sorted or not, with self-pairs, duplicates, empty and singleton sets.
//! That identity is what lets the service engine and the paged scheduler
//! re-order and hub-group batches freely without changing a single answer.

use effres::column_store::{
    column_distances_squared_batch, column_distances_squared_grouped, column_dot, column_dots_hub,
    HubScratch,
};
use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use proptest::prelude::*;
use std::sync::OnceLock;

const SIDE: usize = 12;
const NODES: usize = SIDE * SIDE;

fn estimator() -> &'static EffectiveResistanceEstimator {
    static EST: OnceLock<EffectiveResistanceEstimator> = OnceLock::new();
    EST.get_or_init(|| {
        let graph = generators::grid_2d(SIDE, SIDE, 0.5, 2.0, 5).expect("generator");
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build")
    })
}

fn norms() -> &'static [f64] {
    static NORMS: OnceLock<Vec<f64>> = OnceLock::new();
    NORMS.get_or_init(|| estimator().approximate_inverse().column_norms_squared())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// One hub against a random partner set: the batched scatter kernel
    /// must match a plain `column_dot` loop bit for bit — including an
    /// empty partner set, repeated partners, and the hub paired with
    /// itself.
    #[test]
    fn hub_kernel_matches_pairwise_dots_bitwise(
        hub in 0usize..NODES,
        partners in proptest::collection::vec(0usize..NODES, 0..24),
    ) {
        let inverse = estimator().approximate_inverse();
        let mut scratch = HubScratch::new(inverse.order());
        let batched = column_dots_hub(inverse, hub, &partners, &mut scratch)
            .expect("resident store never fails");
        prop_assert_eq!(batched.len(), partners.len());
        for (&partner, &got) in partners.iter().zip(&batched) {
            let reference = column_dot(inverse, hub, partner)
                .expect("resident store never fails");
            prop_assert_eq!(reference.to_bits(), got.to_bits());
        }
        // The hub streams once however many partners follow.
        let stats = scratch.take_stats();
        prop_assert_eq!(stats.hub_loads, u64::from(!partners.is_empty()));
        prop_assert_eq!(stats.hub_pairs, partners.len() as u64);
    }

    /// Arbitrary pair sequences — unsorted, with self-pairs and duplicates
    /// — through the grouped kernel, with and without a norm table: bit
    /// for bit the pairwise batch reference, on a fresh scratch and on a
    /// reused (dirty) one.
    #[test]
    fn grouped_kernel_matches_pairwise_batch_bitwise(
        pairs in proptest::collection::vec((0usize..NODES, 0usize..NODES), 0..48),
    ) {
        let inverse = estimator().approximate_inverse();
        let mut scratch = HubScratch::new(inverse.order());
        for table in [None, Some(norms())] {
            let reference = column_distances_squared_batch(inverse, &pairs, table)
                .expect("resident store never fails");
            // Fresh scratch, then immediately again on the now-dirty
            // scratch: a resident hub left over from the previous run may
            // flip pairs between the isolated and hub paths, which must
            // not change any bits.
            for _ in 0..2 {
                let grouped =
                    column_distances_squared_grouped(inverse, &pairs, table, &mut scratch)
                        .expect("resident store never fails");
                prop_assert_eq!(reference.len(), grouped.len());
                for (r, g) in reference.iter().zip(&grouped) {
                    prop_assert_eq!(r.to_bits(), g.to_bits());
                }
            }
            let stats = scratch.take_stats();
            let non_self = pairs.iter().filter(|(p, q)| p != q).count() as u64;
            prop_assert_eq!(stats.pairs(), 2 * non_self);
        }
    }
}

#[test]
fn empty_and_singleton_batches_are_exact() {
    let inverse = estimator().approximate_inverse();
    let mut scratch = HubScratch::new(inverse.order());
    let empty = column_distances_squared_grouped(inverse, &[], None, &mut scratch).expect("empty");
    assert!(empty.is_empty());
    assert_eq!(scratch.take_stats(), Default::default());

    // A singleton pair has no neighbour to share a hub with: it must take
    // the isolated path and still match the pairwise kernel bitwise.
    let single =
        column_distances_squared_grouped(inverse, &[(3, 77)], None, &mut scratch).expect("single");
    let reference = column_distances_squared_batch(inverse, &[(3, 77)], None).expect("single");
    assert_eq!(single[0].to_bits(), reference[0].to_bits());
    let stats = scratch.take_stats();
    assert_eq!(stats.hub_loads, 0);
    assert_eq!(stats.isolated_pairs, 1);
}
