//! Chaos tests of the serving layer: scheduled paged batches over a store
//! with seeded injected faults, partial-results degradation under
//! persistent corruption, and bounded-admission load shedding.
//!
//! The acceptance bar: under a seeded [`FaultPlan`] with a ≥1% transient
//! fault rate, a 20k-query scheduled batch must be **100% bit-identical**
//! to its fault-free run (with the recovery observable in the retry
//! counters); permanent corruption must fail exactly the queries that
//! touch it; and an overloaded engine must answer [`EffresError::Busy`]
//! within the configured lease timeout instead of queueing forever.

use effres::{BusyReason, EffectiveResistanceEstimator, EffresConfig, EffresError};
use effres_graph::generators;
use effres_io::paged::{open_paged, open_paged_with_faults, PagedOptions, PagedSnapshot};
use effres_io::snapshot::save_snapshot;
use effres_io::{FaultPlan, RetryPolicy};
use effres_service::{BatchAbort, EngineOptions, ExecMode, ExecOptions, QueryBatch, QueryEngine};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One estimator for the whole suite, persisted once: a 16×16 grid (256
/// nodes) is big enough that a 20k-query batch sweeps many pages.
fn snapshot_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let graph = generators::grid_2d(16, 16, 0.5, 2.0, 11).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let dir = std::env::temp_dir().join("effres-chaos-service");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("chaos-{}.snap", std::process::id()));
        save_snapshot(&path, &estimator, None).expect("save");
        path
    })
}

/// Small pages, small cache: the batch cannot hide in residency, so the
/// fault plan sees thousands of read attempts.
fn churny_options() -> PagedOptions {
    PagedOptions {
        columns_per_page: 2,
        cache_pages: 12,
        cache_shards: 1,
        ..PagedOptions::default()
    }
}

fn engine_over(paged: PagedSnapshot, options: EngineOptions) -> QueryEngine<PagedSnapshot> {
    QueryEngine::new(Arc::new(paged), options)
}

fn partial_mode() -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Partial,
        cancel: None,
    }
}

fn plain_options() -> EngineOptions {
    EngineOptions {
        cache_capacity: 0,
        threads: 2,
        parallel_threshold: 8,
        ..EngineOptions::default()
    }
}

#[test]
fn scheduled_batch_is_bit_identical_under_transient_faults() {
    let path = snapshot_path();
    let batch = QueryBatch::random(20_000, 256, 0xC4A05);

    let clean = engine_over(
        open_paged(path, &churny_options()).expect("fault-free open"),
        plain_options(),
    );
    let reference = clean.execute_scheduled(&batch).expect("fault-free batch");

    // ~2% of read attempts fault (1.5% I/O errors + 0.5% short reads):
    // bounded retry must absorb every one without changing a single bit.
    let plan = FaultPlan::new(0xBADD15C)
        .with_transient_errors(15_000)
        .with_short_reads(5_000);
    let faulted = engine_over(
        open_paged_with_faults(
            path,
            &churny_options().with_retry(RetryPolicy {
                max_retries: 3,
                backoff: Duration::from_micros(1),
            }),
            plan,
        )
        .expect("faulted open"),
        plain_options(),
    );
    let survived = faulted.execute_scheduled(&batch).expect("faulted batch");

    assert_eq!(reference.values.len(), survived.values.len());
    let mismatches = reference
        .values
        .iter()
        .zip(&survived.values)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(mismatches, 0, "all 20k answers must be bit-identical");

    let stats = faulted.stats();
    assert!(
        stats.page_retries > 0,
        "the recovery must be observable in the engine's stats: {stats:?}"
    );
    assert!(stats.page_faulted_reads >= stats.page_retries);
    // And the fault-free run worked no harder than it had to.
    assert_eq!(clean.stats().page_retries, 0);
}

#[test]
fn partial_mode_fails_only_the_queries_touching_the_rotten_page() {
    let path = snapshot_path();
    let probe = open_paged(path, &churny_options()).expect("probe open");
    let victim = 101;
    let offset = probe.store.column_value_byte_offset(victim) + 6;
    let poisoned_page = probe.store.page_of_column(victim);
    let columns_per_page = probe.store.columns_per_page();
    // Node ids map onto columns through the fill-reducing permutation: a
    // query touches the rotten page iff a *permuted* endpoint lands on it.
    let permutation = probe.permutation.clone();
    let on_rotten_page =
        move |node: usize| permutation.new(node) / columns_per_page == poisoned_page;

    let clean = engine_over(probe, plain_options());
    let batch = QueryBatch::random(4_000, 256, 0x5EED);
    let reference = clean.execute_scheduled(&batch).expect("fault-free batch");

    let plan = FaultPlan::new(0).poison(offset, 2);
    let faulted = engine_over(
        open_paged_with_faults(
            path,
            &churny_options().with_retry(RetryPolicy {
                max_retries: 2,
                backoff: Duration::from_micros(1),
            }),
            plan,
        )
        .expect("faulted open"),
        plain_options(),
    );

    // The all-or-nothing path refuses the whole batch (it touches rot)...
    let all_or_nothing = faulted.execute_scheduled(&batch);
    assert!(
        matches!(all_or_nothing, Err(EffresError::StoreFailure { .. })),
        "a batch touching a rotten page must fail typed: {all_or_nothing:?}"
    );

    // ...while the partial path degrades exactly the touching queries.
    let partial = faulted
        .execute_with(&batch, &partial_mode())
        .expect("partial mode never sheds without admission bounds");
    assert_eq!(partial.values.len(), batch.len());
    let mut failures = partial.failures.iter().peekable();
    let mut failed = 0usize;
    for (slot, ((&(p, q), value), reference_value)) in batch
        .pairs()
        .iter()
        .zip(&partial.values)
        .zip(&reference.values)
        .enumerate()
    {
        // A self-pair is answered 0.0 without touching the store, so rot
        // on its page cannot fail it.
        let touches = p != q && (on_rotten_page(p) || on_rotten_page(q));
        match failures.next_if(|(failed_slot, _)| *failed_slot == slot) {
            None => {
                assert!(
                    !touches,
                    "({p}, {q}) touches the rotten page and must not serve"
                );
                assert_eq!(
                    value.to_bits(),
                    reference_value.to_bits(),
                    "({p}, {q}) succeeded and must be bit-identical"
                );
            }
            Some((_, EffresError::StoreFailure { .. })) => {
                failed += 1;
                assert!(
                    touches,
                    "({p}, {q}) is off the rotten page and must not fail"
                );
                assert_eq!(*value, 0.0, "failed slots carry 0.0");
            }
            Some((_, other)) => panic!("unexpected failure for ({p}, {q}): {other}"),
        }
    }
    assert!(
        failed > 0,
        "a 4k random batch over 256 nodes hits every page"
    );
    assert_eq!(partial.failures.len(), failed);
}

#[test]
fn a_single_query_failing_on_a_rotten_page_is_a_miss_but_not_an_answer() {
    let path = snapshot_path();
    let probe = open_paged(path, &churny_options()).expect("probe open");
    let victim = 101;
    let offset = probe.store.column_value_byte_offset(victim) + 6;
    let poisoned_page = probe.store.page_of_column(victim);
    let columns_per_page = probe.store.columns_per_page();
    let permutation = probe.permutation.clone();
    let rotten = permutation.old(victim);
    let off_page = |node: usize| permutation.new(node) / columns_per_page != poisoned_page;
    let healthy = (0..256).find(|&node| node != rotten && off_page(node));
    let healthy = healthy.expect("most nodes are off the rotten page");
    let other = (0..256).find(|&node| node != healthy && node != rotten && off_page(node));
    let other = other.expect("most nodes are off the rotten page");

    let plan = FaultPlan::new(0).poison(offset, 2);
    let engine = engine_over(
        open_paged_with_faults(
            path,
            &churny_options().with_retry(RetryPolicy {
                max_retries: 2,
                backoff: Duration::from_micros(1),
            }),
            plan,
        )
        .expect("faulted open"),
        EngineOptions::default(),
    );
    let before = engine.stats();
    for attempt in 1..=2u64 {
        let failed = engine.query(rotten, healthy);
        assert!(
            matches!(failed, Err(EffresError::StoreFailure { .. })),
            "a query touching a rotten page must fail typed: {failed:?}"
        );
        let stats = engine.stats();
        assert_eq!(stats.queries, before.queries, "a failure is no answer");
        assert_eq!(
            stats.cache_misses,
            before.cache_misses + attempt,
            "each attempt ran the kernel, and no failure was cached"
        );
    }
    // A self-pair, a kernel answer and a cache hit each count once.
    assert_eq!(engine.query(rotten, rotten).expect("self-pair"), 0.0);
    let value = engine.query(healthy, other).expect("off the rotten page");
    let repeat = engine.query(other, healthy).expect("cached");
    assert_eq!(value.to_bits(), repeat.to_bits());
    let stats = engine.stats();
    assert_eq!(stats.queries, before.queries + 3);
    assert_eq!(stats.cache_misses, before.cache_misses + 3);
    assert_eq!(stats.cache_hits, before.cache_hits + 1);
}

#[test]
fn overloaded_engine_sheds_busy_within_the_lease_timeout() {
    let path = snapshot_path();
    // Deep queue bound of zero: while one scheduled batch holds the pin
    // lease, any other batch is shed immediately instead of queueing.
    let timeout = Duration::from_millis(150);
    let options = EngineOptions {
        admission_queue_depth: Some(0),
        admission_timeout: timeout,
        ..plain_options()
    };
    // A tiny cache keeps the holder's lease at the full budget.
    let store_options = PagedOptions {
        columns_per_page: 1,
        cache_pages: 6,
        cache_shards: 1,
        ..PagedOptions::default()
    };
    let paged = open_paged(path, &store_options).expect("open");
    // The scheduler leases pin capacity per round, and at queue depth 0 a
    // round whose lease a racing batch took in between is shed. So the
    // holder's plan must be one round: its pairs touch 6 distinct pages,
    // which its 6-page lease covers. At 2 threads the round cuts two chunks
    // of at most 3 pages, so each pair stays within the 3 nodes the
    // permutation places first or within the 3 it places next; with
    // 1-column pages, those are 3 pages each. The pair cache is off, so
    // every one of the batch's pairs runs the kernel, keeping the drain
    // long enough to observe overlap.
    let first: Vec<usize> = (0..6).map(|column| paged.permutation.old(column)).collect();
    let holder_batch = QueryBatch::from_pairs(
        (QueryBatch::random(60_000, 256, 0xB16).pairs().iter())
            .map(|&(p, q)| {
                // Two distinct nodes of one group of three.
                let group = &first[3 * (p % 2)..][..3];
                let i = p / 2 % 3;
                (group[i], group[(i + 1 + q % 2) % 3])
            })
            .collect(),
    );
    let engine = Arc::new(engine_over(paged, options));
    let budget = engine
        .admission_stats()
        .expect("paged engines have a ledger")
        .budget;
    assert_eq!(budget, 6);

    let holder = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let result = engine
                .execute_scheduled(&holder_batch)
                .expect("holder batch");
            assert_eq!(result.schedule.map(|plan| plan.blocks), Some(1));
            result
        })
    };
    // Wait until the holder's lease is actually granted (its pins are
    // carved out of the budget), then race a second batch against it.
    let waited = Instant::now();
    while engine.admission_stats().expect("ledger").available >= budget {
        assert!(
            waited.elapsed() < Duration::from_secs(20),
            "holder never took its lease"
        );
        std::thread::yield_now();
    }

    let mut shed = 0usize;
    let mut slowest = Duration::ZERO;
    while !holder.is_finished() {
        std::thread::sleep(Duration::from_millis(2));
        let asked = Instant::now();
        match engine.execute_scheduled(&QueryBatch::random(2_000, 256, 0x5ED)) {
            Err(EffresError::Busy { reason }) => {
                shed += 1;
                slowest = slowest.max(asked.elapsed());
                assert_eq!(reason, BusyReason::QueueFull, "depth 0 sheds immediately");
            }
            Ok(_) => break, // the holder drained; contention is over
            Err(other) => panic!("overload must surface as Busy, got {other}"),
        }
    }
    holder.join().expect("holder thread");
    assert!(
        shed > 0,
        "at least one batch must be shed while the holder runs"
    );
    // "Within the lease timeout": immediate shedding does not even wait it.
    assert!(
        slowest < timeout + Duration::from_millis(100),
        "shedding took {slowest:?}, beyond the {timeout:?} lease timeout"
    );
}

#[test]
fn queued_batch_times_out_with_a_typed_busy() {
    let path = snapshot_path();
    let timeout = Duration::from_millis(100);
    let options = EngineOptions {
        admission_queue_depth: Some(4),
        admission_timeout: timeout,
        ..plain_options()
    };
    let store_options = PagedOptions {
        columns_per_page: 1,
        cache_pages: 6,
        cache_shards: 1,
        ..PagedOptions::default()
    };
    let engine = Arc::new(engine_over(
        open_paged(path, &store_options).expect("open"),
        options,
    ));
    let budget = engine.admission_stats().expect("ledger").budget;

    let holder = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let batch = QueryBatch::random(60_000, 256, 0xB17);
            engine.execute_scheduled(&batch).expect("holder batch")
        })
    };
    let waited = Instant::now();
    while engine.admission_stats().expect("ledger").available >= budget {
        assert!(
            waited.elapsed() < Duration::from_secs(20),
            "holder never took its lease"
        );
        std::thread::yield_now();
    }

    // With queue room, the second batch queues — and must give up with a
    // typed timeout rather than waiting for the holder indefinitely.
    let asked = Instant::now();
    match engine.execute_with(&QueryBatch::random(2_000, 256, 0x5ED), &partial_mode()) {
        Err(BatchAbort {
            error: EffresError::Busy { reason },
            ..
        }) => {
            assert_eq!(reason, BusyReason::LeaseTimeout);
            let elapsed = asked.elapsed();
            assert!(
                elapsed >= timeout,
                "a lease timeout cannot fire early: {elapsed:?}"
            );
            assert!(
                elapsed < timeout + Duration::from_secs(2),
                "shed far too late: {elapsed:?}"
            );
            let admission = engine.admission_stats().expect("ledger");
            assert!(admission.shed_timeout > 0, "the shed is counted");
        }
        Ok(_) => {
            // The holder finished within the timeout window — possible on a
            // very fast machine; the deterministic coverage of the timeout
            // path lives in the admission unit tests.
        }
        Err(other) => panic!("expected Busy, got {other}"),
    }
    holder.join().expect("holder thread");
}
