//! The striped, set-associative result cache under concurrent mixed
//! traffic: updates are never lost or torn, eviction never corrupts
//! surviving entries, and the engine's hit/miss accounting stays consistent
//! while many threads share one cache.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_service::{EngineOptions, QueryBatch, QueryEngine, ShardedLru};
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
            cache_capacity: 64, // far fewer than the distinct pairs: eviction is constant
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
    assert!(stats.cache_entries <= stats.cache_capacity);
}
