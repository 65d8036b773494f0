//! One accounting rule on every batch path, pinned on both backends and in
//! both execution modes: a batch that ran books one batch and its pair-cache
//! probes, and `ServiceStats::queries` counts the slots that produced a
//! value — never an out-of-bounds pair, a failed one, or one a cancellation
//! abandoned. A batch rejected before it ran (validation in fail-fast mode,
//! a tripped token at admission) books nothing.

use effres::{EffectiveResistanceEstimator, EffresConfig, EffresError};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::save_snapshot;
use effres_service::{
    BatchResult, CancelToken, EngineOptions, ExecMode, ExecOptions, QueryBatch, QueryEngine,
    ResistanceBackend, ServiceStats,
};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A 16×16 grid (256 nodes), built once and persisted as a v3 snapshot.
fn fixture() -> &'static (PathBuf, Arc<EffectiveResistanceEstimator>) {
    static FIXTURE: OnceLock<(PathBuf, Arc<EffectiveResistanceEstimator>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = generators::grid_2d(16, 16, 0.5, 2.0, 17).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let dir = std::env::temp_dir().join("effres-batch-accounting");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("grid16-{}.snap", std::process::id()));
        save_snapshot(&path, &estimator, None).expect("save");
        (path, Arc::new(estimator))
    })
}

fn resident() -> QueryEngine {
    QueryEngine::new(Arc::clone(&fixture().1), EngineOptions::default())
}

/// Two columns per page and a twelve-page cache: a large batch runs many
/// scheduler lease rounds, so a deadline lands between them.
fn paged() -> QueryEngine<PagedSnapshot> {
    let options = PagedOptions {
        columns_per_page: 2,
        cache_pages: 12,
        cache_shards: 1,
        ..PagedOptions::default()
    };
    let store = open_paged(&fixture().0, &options).expect("open paged");
    QueryEngine::new(Arc::new(store), EngineOptions::default())
}

fn options(mode: ExecMode, cancel: Option<Arc<CancelToken>>) -> ExecOptions {
    ExecOptions { mode, cancel }
}

/// `(queries, batches, cache probes)` booked between two stats snapshots.
fn booked(before: ServiceStats, after: ServiceStats) -> (u64, u64, u64) {
    (
        after.queries - before.queries,
        after.batches - before.batches,
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses),
    )
}

fn answered(result: &BatchResult) -> u64 {
    (result.values.len() - result.failures.len()) as u64
}

/// The deterministic cases: out-of-bounds pairs, single queries, complete
/// batches.
fn books_answered_slots<B: ResistanceBackend>(engine: &QueryEngine<B>) {
    let n = engine.node_count();
    let mut pairs = QueryBatch::random(8, n, 3).pairs().to_vec();
    pairs.insert(2, (n, 0));
    pairs.push((1, n + 5));
    let with_bad_pairs = QueryBatch::from_pairs(pairs);

    // Partial mode: two of ten slots fail, eight are answered and counted.
    let before = engine.stats();
    let result = engine
        .execute_with(&with_bad_pairs, &options(ExecMode::Partial, None))
        .expect("partial batch");
    let failed: Vec<usize> = result.failures.iter().map(|&(slot, _)| slot).collect();
    assert_eq!(failed, [2, 9]);
    assert!(result
        .failures
        .iter()
        .all(|(_, e)| matches!(e, EffresError::NodeOutOfBounds { .. })));
    assert_eq!(
        booked(before, engine.stats()),
        (8, 1, result.cache_hits + result.cache_misses)
    );

    // Fail-fast mode rejects the same batch before any work: nothing booked.
    let before = engine.stats();
    let abort = engine
        .execute_with(&with_bad_pairs, &options(ExecMode::FailFast, None))
        .unwrap_err();
    assert!(matches!(abort.error, EffresError::NodeOutOfBounds { .. }));
    assert!(engine.execute(&with_bad_pairs).is_err());
    assert_eq!(engine.stats(), before);

    // A single out-of-bounds query is not an answered one either.
    assert!(engine.query(0, n).is_err());
    assert_eq!(engine.stats(), before);

    // Complete batches count every slot, in both modes and on the
    // reference path.
    let clean = QueryBatch::random(500, n, 5);
    for mode in [ExecMode::FailFast, ExecMode::Partial] {
        let before = engine.stats();
        let result = engine
            .execute_with(&clean, &options(mode, None))
            .expect("clean batch");
        assert!(result.failures.is_empty());
        assert_eq!(
            booked(before, engine.stats()),
            (500, 1, result.cache_hits + result.cache_misses)
        );
    }
    let before = engine.stats();
    let result = engine.execute(&clean).expect("reference batch");
    assert_eq!(
        booked(before, engine.stats()),
        (500, 1, result.cache_hits + result.cache_misses)
    );
}

/// A batch whose deadline expires mid-run, checking the rule on every
/// outcome. The deadline starts at half the uncancelled run time and
/// adapts: halved after a run that finished first, doubled after a token
/// that expired before the run started.
fn books_cancelled_runs<B: ResistanceBackend>(engine: impl Fn() -> QueryEngine<B>, mode: ExecMode) {
    let batch = QueryBatch::random(100_000, 256, 0xACC7);
    let len = batch.len() as u64;
    let started = Instant::now();
    engine()
        .execute_with(&batch, &options(mode, None))
        .expect("uncancelled run");
    let mut deadline = started.elapsed() / 2;
    for _ in 0..50 {
        let engine = engine();
        let token = Arc::new(CancelToken::after(deadline));
        let outcome = engine.execute_with(&batch, &options(mode, Some(token)));
        let (queries, batches, probes) = booked(ServiceStats::default(), engine.stats());
        match outcome {
            Ok(result) => {
                assert!(
                    mode == ExecMode::Partial || result.failures.is_empty(),
                    "fail-fast cancellation aborts"
                );
                assert!(result
                    .failures
                    .iter()
                    .all(|(_, e)| matches!(e, EffresError::DeadlineExceeded { .. })));
                assert_eq!(
                    (queries, batches, probes),
                    (
                        answered(&result),
                        1,
                        result.cache_hits + result.cache_misses
                    )
                );
                if !result.failures.is_empty() {
                    return;
                }
                deadline /= 2;
            }
            Err(abort) => {
                assert!(matches!(abort.error, EffresError::DeadlineExceeded { .. }));
                assert_eq!(queries, len - abort.abandoned_pairs);
                if abort.abandoned_pairs < len {
                    // It ran: the batch and its probes are booked too.
                    assert_eq!(batches, 1, "{mode:?}: a cancelled run is a batch");
                    assert!(probes >= queries / 2, "{mode:?}: its probes are booked");
                }
                if batches == 1 {
                    return;
                }
                // Rejected at admission: nothing ran, nothing is booked.
                assert_eq!(probes, 0);
                deadline *= 2;
            }
        }
    }
    panic!("{mode:?}: the deadline never landed mid-run");
}

#[test]
fn resident_batches_book_answered_slots() {
    books_answered_slots(&resident());
}

#[test]
fn paged_batches_book_answered_slots() {
    books_answered_slots(&paged());
}

#[test]
fn cancelled_resident_batches_book_what_they_ran() {
    books_cancelled_runs(resident, ExecMode::FailFast);
    books_cancelled_runs(resident, ExecMode::Partial);
}

#[test]
fn cancelled_paged_batches_book_what_they_ran() {
    books_cancelled_runs(paged, ExecMode::FailFast);
    books_cancelled_runs(paged, ExecMode::Partial);
}
