//! The benchmark graph's kernels, pinned on two batches.
//!
//! `perfbench` serves `grid_2d(320, 320, 0.5, 2.0, 7)`, built under
//! minimum-degree ordering with default settings. Two batches of it are
//! pinned here, each answered in the engine's hub-sorted runner order (the
//! permuted `(min, max)` endpoints, then request slot):
//!
//! * the all-edge sweep of `paper_edges`, almost all of it hub runs; and
//! * 100,000 seeded uniform random pairs, the isolated-pair shape of the
//!   server workloads' cache misses, where the answers come from the
//!   two-column suffix merge.
//!
//! On each batch the grouped kernel must keep its five counters, and one
//! FNV-1a fingerprint of the answers must hold for the grouped kernel, the
//! pairwise batch kernel, and `QueryEngine::execute` with its default pair
//! cache (which both batches outgrow, so they bypass it) and without one.
//! The count of isolated pairs the arena's row-bucket skeleton certified
//! disjoint is cross-checked against a brute-force bucket intersection, and
//! no certified pair may share a row.
//!
//! The build takes tens of seconds in a debug build, so the cases are
//! ignored there; CI runs them in release:
//!
//! ```text
//! cargo test --release -p effres-service --test bench_grid_sweep -- --include-ignored
//! ```

use effres::column_store::{
    column_distances_squared_batch, column_distances_squared_grouped, ColumnStore, HubScratch,
    KernelStats,
};
use effres::{EffectiveResistanceEstimator, EffresConfig, Ordering};
use effres_graph::generators;
use effres_graph::Graph;
use effres_service::{EngineOptions, QueryBatch, QueryEngine};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

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

/// The benchmark graph and its estimator, built once for both cases.
fn bench_grid() -> &'static (Graph, Arc<EffectiveResistanceEstimator>) {
    static GRID: OnceLock<(Graph, Arc<EffectiveResistanceEstimator>)> = OnceLock::new();
    GRID.get_or_init(|| {
        let graph = generators::grid_2d(320, 320, 0.5, 2.0, 7).expect("generator");
        let config = EffresConfig::default().with_ordering(Ordering::MinimumDegree);
        let estimator = EffectiveResistanceEstimator::build(&graph, &config).expect("build");
        (graph, Arc::new(estimator))
    })
}

/// Checks that `batch`, answered in runner order, keeps `counters` in the
/// grouped kernel and `expected` as the fingerprint of every path.
fn assert_pinned(batch: &QueryBatch, counters: KernelStats, expected: u64) {
    let estimator = &bench_grid().1;
    // The runner's order: permuted `(min, max)`, then request slot.
    let permutation = estimator.permutation();
    let mut order: Vec<((usize, usize), usize)> = batch
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
    // Self-pairs never reach the kernel; with a pair cache configured, a
    // repeat of a pair folds onto its first occurrence as a hit.
    let kernel_pairs = sorted.iter().filter(|&&(a, b)| a != b).count() as u64;
    let repeats = (sorted.windows(2))
        .filter(|w| w[0] == w[1] && w[0].0 != w[0].1)
        .count() as u64;

    let inverse = estimator.approximate_inverse();
    assert_eq!(
        certified_by_brute_force(&isolated_pairs(&sorted)),
        counters.certified_pairs,
        "certified isolated pairs"
    );
    let norms = estimator.column_norms_squared();
    let mut scratch = HubScratch::new(inverse.order());
    let grouped = column_distances_squared_grouped(inverse, &sorted, Some(&norms), &mut scratch)
        .expect("resident store never fails");
    assert_eq!(scratch.take_stats(), counters);
    assert_eq!(fingerprint(grouped), expected, "grouped kernel");
    let pairwise = column_distances_squared_batch(inverse, &sorted, Some(&norms))
        .expect("resident store never fails");
    assert_eq!(fingerprint(pairwise), expected, "pairwise kernel");

    let one_job_uncached = EngineOptions {
        threads: 1,
        cache_capacity: 0,
        ..EngineOptions::default()
    };
    for options in [EngineOptions::default(), one_job_uncached] {
        let engine = QueryEngine::new(Arc::clone(estimator), options.clone());
        let result = engine.execute(batch).expect("batch");
        let in_runner_order = order.iter().map(|&(_, slot)| result.values[slot]);
        assert_eq!(fingerprint(in_runner_order), expected, "{options:?}");
        let hits = if options.cache_capacity > 0 {
            repeats
        } else {
            0
        };
        assert_eq!(
            (result.cache_hits, result.cache_misses),
            (hits, kernel_pairs - hits),
            "self-pairs skip the kernel, and repeats fold only with a cache"
        );
        assert_eq!(
            engine.stats().cache_entries,
            0,
            "the batch bypasses the cache"
        );
        if options.threads == 1 {
            assert_eq!(result.kernel, counters, "one job, one kernel pass");
        }
    }
}

/// The pairs of a sorted batch the grouped kernel answers by the
/// two-column intersection: its hub-or-isolated choice, pair by pair.
fn isolated_pairs(sorted: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut resident = None;
    let mut isolated = Vec::new();
    for (slot, &(p, q)) in sorted.iter().enumerate() {
        if p == q {
            continue;
        }
        let next_shares = sorted.get(slot + 1).is_some_and(|&(r, s)| r.min(s) == p);
        if resident == Some(p) || next_shares {
            resident = Some(p);
        } else {
            isolated.push((p, q));
        }
    }
    isolated
}

/// How many of the permuted pairs `(p, q)`, `p < q`, the definition of the
/// row-bucket skeleton certifies: no 16-row bucket of column `q`'s rows
/// holds a row of column `p` (the bench grid's 102,400 rows need no wider
/// bucket). Each certified pair's suffixes must share no row.
fn certified_by_brute_force(pairs: &[(usize, usize)]) -> u64 {
    let inverse = bench_grid().1.approximate_inverse();
    let buckets = |j: usize| -> BTreeSet<u32> {
        inverse
            .column(j)
            .indices()
            .iter()
            .map(|row| row >> 4)
            .collect()
    };
    let mut certified = 0;
    for &(p, q) in pairs {
        let from = (q >> 4) as u32;
        let shared = buckets(q);
        if buckets(p)
            .range(from..)
            .any(|bucket| shared.contains(bucket))
        {
            continue;
        }
        let a = inverse.column(p).indices();
        let meets = (inverse.column(q).indices().iter()).any(|row| a.binary_search(row).is_ok());
        assert!(!meets, "certified pair ({p}, {q}) shares a row");
        certified += 1;
    }
    certified
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs it in release"
)]
fn bench_grid_all_edge_sweep_is_pinned() {
    let counters = KernelStats {
        hub_loads: 51_313,
        hub_pairs: 203_433,
        isolated_pairs: 727,
        certified_pairs: 0,
        bytes_streamed: 469_487_388,
    };
    let sweep = QueryBatch::all_edges(&bench_grid().0);
    assert_pinned(&sweep, counters, 0xd4f0_5d6d_b670_ba41);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs it in release"
)]
fn bench_grid_random_pairs_are_pinned() {
    let counters = KernelStats {
        hub_loads: 26_894,
        hub_pairs: 69_521,
        isolated_pairs: 30_479,
        certified_pairs: 25_840,
        bytes_streamed: 185_812_596,
    };
    let batch = QueryBatch::random(100_000, bench_grid().1.node_count(), 0x7A1D);
    assert_pinned(&batch, counters, 0xb213_e78c_b11d_fd1b);
}

/// On the bench grid the skeleton is small and certifies most uniform
/// random pairs: at least 80% of the 100,000 pairs, for at most 16% as
/// many entries as the arena stores.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs it in release"
)]
fn bench_grid_skeleton_certifies_most_random_pairs() {
    let estimator = &bench_grid().1;
    let inverse = estimator.approximate_inverse();
    let permutation = estimator.permutation();
    let batch = QueryBatch::random(100_000, estimator.node_count(), 0x7A1D);
    let pairs: Vec<(usize, usize)> = (batch.pairs().iter())
        .map(|&(u, v)| {
            let (p, q) = (permutation.new(u), permutation.new(v));
            (p.min(q), p.max(q))
        })
        .filter(|&(p, q)| p != q)
        .collect();
    let certified = certified_by_brute_force(&pairs);
    let by_store = (pairs.iter())
        .filter(|&&(p, q)| inverse.suffixes_meet_from(p, q).is_none())
        .count() as u64;
    assert_eq!(by_store, certified);
    assert!(
        certified * 100 >= 80 * pairs.len() as u64,
        "{certified} of {} pairs certified",
        pairs.len()
    );
    let footprint = inverse.footprint();
    let entries = (footprint.skeleton_bytes - (inverse.order() + 1) * 8) / 2;
    assert!(
        entries * 100 <= 16 * inverse.nnz(),
        "{entries} skeleton entries for {} stored",
        inverse.nnz()
    );
}
