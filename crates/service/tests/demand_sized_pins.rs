//! Demand-sized page pins through the locality scheduler. A batch whose
//! distinct page footprint outgrows the cache budget pins only the columns
//! its queries read — sparsely demanded pages as column runs, densely
//! demanded ones whole — and must stay bit-identical to resident serving
//! within the pin budget. A batch that fits the budget takes the whole-page
//! path, so repeating it is served entirely from the page cache.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::save_snapshot;
use effres_service::{EngineOptions, ExecMode, ExecOptions, QueryBatch, QueryEngine};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// A 16×16 grid (256 nodes), built once and persisted as a v4 snapshot.
fn fixture() -> &'static (PathBuf, Arc<EffectiveResistanceEstimator>) {
    static FIXTURE: OnceLock<(PathBuf, Arc<EffectiveResistanceEstimator>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = generators::grid_2d(16, 16, 0.5, 2.0, 13).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let dir = std::env::temp_dir().join("effres-demand-pins");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("grid16.snap");
        save_snapshot(&path, &estimator, None).expect("save");
        (path, Arc::new(estimator))
    })
}

fn engine_options(threads: usize) -> EngineOptions {
    EngineOptions {
        cache_capacity: 0,
        threads,
        parallel_threshold: if threads > 1 { 8 } else { usize::MAX },
        ..EngineOptions::default()
    }
}

fn paged_engine(
    columns_per_page: usize,
    cache_pages: usize,
    threads: usize,
) -> QueryEngine<PagedSnapshot> {
    let options = PagedOptions {
        columns_per_page,
        cache_pages,
        cache_shards: 1,
        ..PagedOptions::default()
    };
    let paged = open_paged(&fixture().0, &options).expect("open paged");
    QueryEngine::new(Arc::new(paged), engine_options(threads))
}

fn resident_values(batch: &QueryBatch) -> Vec<f64> {
    QueryEngine::new(Arc::clone(&fixture().1), engine_options(1))
        .execute(batch)
        .expect("resident batch")
        .values
}

/// `hot` pairs between the first `hot_columns` permuted columns (a few
/// densely demanded pages) followed by `cold` uniform pairs (single columns
/// scattered over the rest of the file).
fn mixed_batch(hot_columns: usize, hot: usize, cold: usize, seed: u64) -> QueryBatch {
    let estimator = &fixture().1;
    let to_node = estimator.permutation().new_to_old();
    let hot_pairs = QueryBatch::random(hot, hot_columns, seed);
    let cold_pairs = QueryBatch::random(cold, estimator.node_count(), seed ^ 0x5eed);
    QueryBatch::from_pairs(
        hot_pairs
            .pairs()
            .iter()
            .map(|&(a, b)| (to_node[a], to_node[b]))
            .chain(cold_pairs.pairs().iter().copied())
            .collect(),
    )
}

fn assert_bits(expected: &[f64], got: &[f64], context: &str) {
    assert_eq!(expected.len(), got.len(), "{context}");
    for (slot, (x, y)) in expected.iter().zip(got).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: slot {slot}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse and dense demand in one batch, across page geometries, cache
    /// budgets and one or two engine threads: scheduled answers (both the
    /// fail-fast and the partial-results path) are bit-identical to
    /// resident ones, and the pinned footprint never exceeds the budget.
    #[test]
    fn mixed_demand_stays_bit_identical_within_the_pin_budget(
        (columns_per_page, cache_pages, threads) in (2usize..24, 2usize..16, 1usize..3),
        (hot, cold, seed) in (0usize..400, 1usize..120, any::<u64>()),
    ) {
        let batch = mixed_batch(2 * columns_per_page, hot, cold, seed);
        let expected = resident_values(&batch);
        let engine = paged_engine(columns_per_page, cache_pages, threads);
        let scheduled = engine.execute_scheduled(&batch).expect("scheduled");
        assert_bits(&expected, &scheduled.values, "execute_scheduled");
        let partial_mode = ExecOptions {
            mode: ExecMode::Partial,
            cancel: None,
        };
        let partial = engine.execute_with(&batch, &partial_mode).expect("partial");
        prop_assert!(partial.failures.is_empty(), "healthy snapshot");
        assert_bits(&expected, &partial.values, "partial execute_with");
        let store = &engine.backend().store;
        prop_assert!(
            store.pinned_pages_high_water() <= store.cache_capacity_pages(),
            "pinned {} pages with a budget of {}",
            store.pinned_pages_high_water(),
            store.cache_capacity_pages()
        );
        prop_assert_eq!(store.pinned_pages_now(), 0);
    }
}

#[test]
fn an_outgrown_cache_reads_sparse_pages_as_runs_and_dense_pages_whole() {
    // 16 pages against a 4-page budget: the footprint gate is open.
    let batch = mixed_batch(32, 400, 40, 7);
    let expected = resident_values(&batch);
    for threads in [1, 2] {
        let engine = paged_engine(16, 4, threads);
        let result = engine.execute_scheduled(&batch).expect("scheduled");
        assert_bits(&expected, &result.values, "mixed batch");
        let page = result.page_cache.expect("paged batch");
        assert!(page.column_runs > 0, "sparse pages read as runs: {page:?}");
        assert!(page.readahead_reads > 0, "dense pages read whole: {page:?}");
        let store = &engine.backend().store;
        assert!(store.pinned_pages_high_water() <= store.cache_capacity_pages());
        // The engine's cumulative counters carry the runs too.
        assert_eq!(engine.stats().page_column_runs, page.column_runs);
    }
}

#[test]
fn a_batch_that_fits_the_cache_reads_whole_pages_and_repeats_without_misses() {
    // 16 pages, a 16-page cache, and a batch touching a handful of them with
    // one or two columns each: demand-sized pins would read those pages as
    // runs and never cache them, but the footprint fits, so the batch must
    // read, cache and reuse whole pages.
    let engine = paged_engine(16, 16, 1);
    let batch = QueryBatch::random(6, engine.node_count(), 3);
    let expected = resident_values(&batch);
    let first = engine.execute_scheduled(&batch).expect("first run");
    assert_bits(&expected, &first.values, "first run");
    let page = first.page_cache.expect("paged batch");
    assert!(page.misses > 0);
    assert_eq!(page.column_runs, 0, "a fitting batch reads whole pages");
    let second = engine.execute_scheduled(&batch).expect("second run");
    assert_bits(&expected, &second.values, "second run");
    let page = second.page_cache.expect("paged batch");
    assert_eq!((page.misses, page.bytes_read), (0, 0), "{page:?}");
    assert!(page.hits > 0);
}
