//! The all-edge sweep of the benchmark graph, pinned.
//!
//! `perfbench`'s `paper_edges` workload answers every edge of
//! `grid_2d(320, 320, 0.5, 2.0, 7)`, built under minimum-degree ordering
//! with default settings, through `QueryEngine::execute` with default
//! options. The engine's hub-sorted runner answers that batch in the order
//! of its permuted `(min, max)` endpoints; on that order the grouped kernel
//! must keep its four counters, and one FNV-1a fingerprint of the answers
//! must hold for the grouped kernel, the pairwise batch kernel, and the
//! engine with its default pair cache (which the sweep outgrows, so it
//! bypasses it) and without one.
//!
//! The build takes tens of seconds in a debug build, so the case is ignored
//! there; CI runs it in release:
//!
//! ```text
//! cargo test --release -p effres-service --test bench_grid_sweep -- --include-ignored
//! ```

use effres::column_store::{
    column_distances_squared_batch, column_distances_squared_grouped, HubScratch, KernelStats,
};
use effres::{EffectiveResistanceEstimator, EffresConfig, Ordering};
use effres_graph::generators;
use effres_service::{EngineOptions, QueryBatch, QueryEngine};
use std::sync::Arc;

/// FNV-1a over the little-endian bytes of each value's bits.
fn fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs it in release"
)]
fn bench_grid_all_edge_sweep_is_pinned() {
    const FINGERPRINT: u64 = 0xd4f0_5d6d_b670_ba41;
    let counters = KernelStats {
        hub_loads: 51_313,
        hub_pairs: 203_433,
        isolated_pairs: 727,
        bytes_streamed: 469_487_388,
    };
    let graph = generators::grid_2d(320, 320, 0.5, 2.0, 7).expect("generator");
    let config = EffresConfig::default().with_ordering(Ordering::MinimumDegree);
    let estimator = Arc::new(EffectiveResistanceEstimator::build(&graph, &config).expect("build"));
    let sweep = QueryBatch::all_edges(&graph);

    // The runner's order: permuted `(min, max)`, then request slot.
    let permutation = estimator.permutation();
    let mut order: Vec<((usize, usize), usize)> = sweep
        .pairs()
        .iter()
        .enumerate()
        .map(|(slot, &(p, q))| {
            let (a, b) = (permutation.new(p), permutation.new(q));
            ((a.min(b), a.max(b)), slot)
        })
        .collect();
    order.sort_unstable();
    let sorted: Vec<(usize, usize)> = order.iter().map(|&(pair, _)| pair).collect();

    let inverse = estimator.approximate_inverse();
    let norms = estimator.column_norms_squared();
    let mut scratch = HubScratch::new(inverse.order());
    let grouped = column_distances_squared_grouped(inverse, &sorted, Some(&norms), &mut scratch)
        .expect("resident store never fails");
    assert_eq!(scratch.take_stats(), counters);
    assert_eq!(fingerprint(grouped), FINGERPRINT, "grouped kernel");
    let pairwise = column_distances_squared_batch(inverse, &sorted, Some(&norms))
        .expect("resident store never fails");
    assert_eq!(fingerprint(pairwise), FINGERPRINT, "pairwise kernel");

    let one_job_uncached = EngineOptions {
        threads: 1,
        cache_capacity: 0,
        ..EngineOptions::default()
    };
    for options in [EngineOptions::default(), one_job_uncached] {
        let engine = QueryEngine::new(Arc::clone(&estimator), options.clone());
        let result = engine.execute(&sweep).expect("sweep");
        let in_runner_order = order.iter().map(|&(_, slot)| result.values[slot]);
        assert_eq!(fingerprint(in_runner_order), FINGERPRINT, "{options:?}");
        assert_eq!(
            (result.cache_hits, result.cache_misses),
            (0, sweep.len() as u64),
            "every edge runs the kernel"
        );
        assert_eq!(
            engine.stats().cache_entries,
            0,
            "the sweep bypasses the cache"
        );
        if options.threads == 1 {
            assert_eq!(result.kernel, counters, "one job, one kernel pass");
        }
    }
}
