//! The striped, set-associative result cache under concurrent mixed
//! traffic: updates are never lost or torn, eviction never corrupts
//! surviving entries, and the engine's hit/miss accounting stays consistent
//! while many threads share one cache.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions};
use effres_io::snapshot::save_snapshot;
use effres_service::{
    BatchResult, EngineOptions, QueryBatch, QueryEngine, ServiceStats, ShardedLru,
};
use std::sync::Arc;

/// The canonical value for a key — any other observed value is a lost or
/// torn update.
fn value_of(key: u64) -> f64 {
    key as f64 * 1.5 + 0.25
}

#[test]
fn mixed_readers_and_writers_never_observe_a_foreign_value() {
    let cache = Arc::new(ShardedLru::new(256, 8));
    std::thread::scope(|scope| {
        // Writers insert the canonical value of each key, re-inserting on a
        // rotating schedule so refresh and eviction both happen constantly.
        for writer in 0..4u64 {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for i in 0..20_000u64 {
                    let key = (i * 13 + writer * 7) % 1024;
                    cache.insert(key, value_of(key));
                }
            });
        }
        // Readers race the writers; a key is allowed to be absent (evicted)
        // but never wrong.
        for reader in 0..4u64 {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for i in 0..20_000u64 {
                    let key = (i * 29 + reader * 3) % 1024;
                    if let Some(found) = cache.get(key) {
                        assert_eq!(
                            found.to_bits(),
                            value_of(key).to_bits(),
                            "key {key} returned a foreign value"
                        );
                    }
                }
            });
        }
    });
    assert!(cache.len() <= cache.capacity());
}

#[test]
fn eviction_under_concurrency_leaves_only_correct_entries() {
    // Tiny capacity, huge key space: almost every insert evicts. Whatever
    // survives must still map to its own value, and the cache must stay
    // within capacity.
    let cache = Arc::new(ShardedLru::new(16, 2));
    std::thread::scope(|scope| {
        for thread in 0..6u64 {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for i in 0..30_000u64 {
                    let key = i * 6 + thread; // disjoint per-thread key streams
                    cache.insert(key, value_of(key));
                    if let Some(found) = cache.get(key) {
                        assert_eq!(found.to_bits(), value_of(key).to_bits());
                    }
                }
            });
        }
    });
    assert!(cache.len() <= cache.capacity());
    for key in 0..200_000u64 {
        if let Some(found) = cache.get(key) {
            assert_eq!(
                found.to_bits(),
                value_of(key).to_bits(),
                "surviving key {key} was corrupted by eviction churn"
            );
        }
    }
}

/// Engine-level accounting: with the pair cache on and many concurrent
/// batches full of repeated pairs, every query must be counted exactly once
/// as a hit or a miss, and cached answers must be bit-identical to the
/// kernel's (a stale or torn cache entry would break the comparison).
#[test]
fn concurrent_batches_keep_hit_miss_accounting_and_values_exact() {
    let graph = generators::grid_2d(12, 12, 0.5, 2.0, 3).expect("generator");
    let estimator = Arc::new(
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build"),
    );
    let cached = QueryEngine::new(
        Arc::clone(&estimator),
        EngineOptions {
            // At least the batch size, so batches use the cache, and fewer
            // than the distinct pairs they draw: eviction is constant.
            cache_capacity: 2048,
            threads: 4,
            parallel_threshold: 8,
            ..EngineOptions::default()
        },
    );
    let uncached = QueryEngine::new(
        Arc::clone(&estimator),
        EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );

    let batches: Vec<QueryBatch> = (0..8)
        .map(|seed| QueryBatch::random(1500, 144, seed / 2)) // paired seeds: heavy repeats
        .collect();
    let expected_queries: u64 = batches.iter().map(|b| b.len() as u64).sum();
    // R(p, p) = 0 short-circuits before the cache, so self-pairs are counted
    // as queries but as neither hits nor misses.
    let self_pairs: u64 = batches
        .iter()
        .flat_map(|b| b.pairs())
        .filter(|(p, q)| p == q)
        .count() as u64;

    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .iter()
            .map(|batch| scope.spawn(|| cached.execute(batch).expect("batch")))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("join"))
            .collect::<Vec<_>>()
    });

    for (batch, result) in batches.iter().zip(&results) {
        let reference = uncached.execute(batch).expect("reference");
        for (slot, (cached_value, reference_value)) in
            result.values.iter().zip(&reference.values).enumerate()
        {
            assert_eq!(
                cached_value.to_bits(),
                reference_value.to_bits(),
                "slot {slot} {:?} served a stale or torn cache entry",
                batch.pairs()[slot]
            );
        }
    }

    let stats = cached.stats();
    assert_eq!(stats.queries, expected_queries);
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        expected_queries - self_pairs,
        "every distinct-endpoint query is exactly one hit or one miss"
    );
    assert!(stats.cache_hits > 0, "repeated pairs must hit");
    assert!(stats.cache_entries > 0, "the batches filled the cache");
    assert!(stats.cache_entries <= stats.cache_capacity);
}

/// A batch with more pairs than the cache holds neither probes nor fills
/// it: the cache keeps exactly its entries, the batch's in-batch repeats
/// still fold onto one kernel run each and count as hits, every other pair
/// runs the kernel as a miss, and the values are bit for bit a cache-less
/// engine's — on the sequential and the parallel hub-sorted runner, and on
/// the paged backend's locality scheduler.
#[test]
fn batches_larger_than_the_cache_bypass_it_and_fold_repeats() {
    let graph = generators::grid_2d(12, 12, 0.5, 2.0, 3).expect("generator");
    let estimator = Arc::new(
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build"),
    );
    let uncached = QueryEngine::new(
        Arc::clone(&estimator),
        EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );
    let warm = QueryBatch::random(40, 144, 1);
    let large = QueryBatch::random(1100, 144, 2);
    let self_pairs = large.pairs().iter().filter(|(p, q)| p == q).count() as u64;
    let key = |&(p, q): &(usize, usize)| (p.min(q), p.max(q));
    let mut distinct: Vec<(usize, usize)> = large
        .pairs()
        .iter()
        .filter(|(p, q)| p != q)
        .map(key)
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    let distinct = distinct.len() as u64;
    let repeats = large.len() as u64 - self_pairs - distinct;
    assert!(repeats > 0, "the batch must repeat some pairs");
    let reference = uncached.execute(&large).expect("reference");

    let options = |threads| EngineOptions {
        cache_capacity: 256,
        threads,
        parallel_threshold: 8,
        ..EngineOptions::default()
    };
    let dir = std::env::temp_dir().join("effres-cache-bypass");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("grid12.snap");
    save_snapshot(&path, &estimator, None).expect("save");
    let paged = open_paged(&path, &PagedOptions::default()).expect("open paged");
    let paged = QueryEngine::new(Arc::new(paged), options(1));
    let sequential = QueryEngine::new(Arc::clone(&estimator), options(1));
    let parallel = QueryEngine::new(Arc::clone(&estimator), options(4));

    type Execute<'a> = &'a dyn Fn(&QueryBatch) -> BatchResult;
    type Stats<'a> = &'a dyn Fn() -> ServiceStats;
    let runners: [(&str, Execute, Stats); 3] = [
        (
            "sequential",
            &|b| sequential.execute(b).expect("batch"),
            &|| sequential.stats(),
        ),
        (
            "parallel",
            &|b| parallel.execute(b).expect("batch"),
            &|| parallel.stats(),
        ),
        (
            "scheduled",
            &|b| paged.execute_scheduled(b).expect("batch"),
            &|| paged.stats(),
        ),
    ];
    let warm_self = warm.pairs().iter().filter(|(p, q)| p == q).count() as u64;
    for (runner, execute, stats) in runners {
        assert!(large.len() > stats().cache_capacity);
        execute(&warm);
        let entries = stats().cache_entries;
        assert!(entries > 0, "{runner}: the warm batch fills the cache");
        let result = execute(&large);
        for (slot, (value, reference)) in result.values.iter().zip(&reference.values).enumerate() {
            assert_eq!(
                value.to_bits(),
                reference.to_bits(),
                "{runner}: slot {slot}"
            );
        }
        assert_eq!(
            (result.cache_hits, result.cache_misses),
            (repeats, distinct),
            "{runner}: repeats fold into hits, the rest run the kernel"
        );
        assert_eq!(stats().cache_entries, entries, "{runner}: no entry added");
        // The warm batch's entries all survived: a bypassed batch never
        // touched the cache (a fill would evict, a probe would reorder).
        let rewarm = execute(&warm);
        assert_eq!(rewarm.cache_misses, 0, "{runner}");
        assert_eq!(rewarm.cache_hits, warm.len() as u64 - warm_self, "{runner}");
    }
    assert!(parallel.execute(&large).expect("large").threads > 1);
}
