//! Batched query throughput: the single-threaded
//! `EffectiveResistanceEstimator::query_many` baseline against the
//! `effres-service` engine's batched path (precomputed column norms,
//! reusable scratch columns over a sorted batch, and — on multi-core hosts
//! — jobs on a persistent worker pool), all reading columns out of the flat
//! CSC arena with its narrowed `u32` row indices. Both now answer through
//! the hub-grouped multi-pair kernel; the `all_edges` section additionally
//! times that kernel against the plain pairwise merge on identical sorted
//! input, isolating the multi-pair gain itself. Every timed row is a
//! `Sample` (count, min, median and max seconds); rates and ratios are of
//! medians.
//!
//! The `random_pairs_kernel` section times the isolated-pair kernel alone
//! on the random batch, sorted as the engine runs it: the plain two-pointer
//! merge against `column_distances_squared_batch` (pairs the arena's
//! row-bucket skeleton certifies disjoint answered without a row read, the
//! others' rows touched up front, then intersected eight at a time from
//! their first shared bucket), interleaved per sample, in ns per pair,
//! under the bench's RCM ordering and under minimum-degree ordering (the
//! serving benchmark's build), with the count of certified pairs.
//!
//! This is the acceptance workload of the ingestion/service subsystem: a
//! ≥ 100k-node generated graph answering tens of thousands of `(p, q)`
//! queries per invocation. Besides the human-readable table the bench
//! writes `BENCH_query_throughput.json` at the repository root so the perf
//! trajectory is tracked across PRs.
//!
//! The `paged_query` variant serves the same batch **out of core**: the
//! estimator is snapshotted to disk (v3: delta-varint rows + persisted
//! norms) and a paged engine answers straight from the file through the LRU
//! page cache, recording the cold-start (time-to-first-query) and the paged
//! vs resident throughput at two cache sizes — first in arrival order (the
//! PR-4 baseline path), then through the **locality scheduler**
//! (`paged_scheduled`): queries clustered by page pair, cut by lease
//! rounds into chunks that are each pinned once and drained, and — since
//! the batch touches more pages than either cache holds — sparsely used pages
//! read as column runs, whose values are read only for the pairs whose
//! suffixes share a row (`disjoint_pairs` counts the batch's pairs that
//! share none). Bytes read, readahead reads, column runs, value reads and
//! page-cache hit rates are recorded per variant. The
//! paged answers are asserted bit-identical to the resident ones before
//! anything is timed.
//!
//! A further section rides the same graph: `all_edges` times the
//! spanning-edge-centrality workload (every edge as a pair — the natural
//! stress for the hub-grouped multi-pair kernel, pinned bit-identical to
//! the pairwise loop in the same run). Its rows record the sample count,
//! min, median and max seconds.
//!
//! The `cold_start` section times the two ways a server starts from the
//! paged section's snapshot file: `load_snapshot` (the resident loader,
//! which reads, checksums and validates every byte) and `open_paged`
//! (header blocks and the norm table only), each a `Sample` of
//! `COLD_SAMPLES` runs after one warm-up that leaves the file in the page
//! cache.
//!
//! The `pair_cache` section runs two streams through an engine with the
//! default pair cache and through one with `cache_capacity: 0`, interleaved
//! per sample: the all-edges sweep (more pairs than the cache holds, so it
//! bypasses the cache and both variants run the same path) and a Zipf(1.0)
//! stream of 64-pair batches over a pool of a million random pairs (the
//! skewed traffic the cache exists for). Each variant records its hit
//! ratio and median queries/s.

use effres::approx_inverse::SparseApproximateInverse;
use effres::column_store::{column_distances_squared_batch, ColumnStore};
use effres::prelude::*;
use effres_bench::report::{write_report, Json, Sample};
use effres_io::paged::{open_paged, PagedOptions};
use effres_io::snapshot::{load_snapshot, save_snapshot};
use effres_service::{EngineOptions, QueryBatch, QueryEngine};
use std::sync::Arc;
use std::time::Instant;

const SIDE: usize = 320; // 320 × 320 = 102 400 nodes
const QUERIES: usize = 20_000;
const SAMPLES: usize = 10;
/// Runs per cold-start row: each resident load holds a second arena.
const COLD_SAMPLES: usize = 5;

fn main() {
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("== query_throughput ({SIDE}x{SIDE} grid, {QUERIES} queries, {hardware} core(s))");

    let graph = effres_graph::generators::grid_2d(SIDE, SIDE, 0.5, 2.0, 7).expect("generator");
    let estimator = Arc::new(
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build"),
    );
    let batch = QueryBatch::random(QUERIES, estimator.node_count(), 42);
    let pairs = batch.pairs().to_vec();

    let sequential = Sample::time(SAMPLES, true, || {
        estimator.query_many(&pairs).expect("in bounds")
    });
    let sequential_seconds = sequential.median;
    let sequential_qps = QUERIES as f64 / sequential_seconds;
    println!(
        "sequential query_many (median): {sequential_seconds:.3}s  ({sequential_qps:.0} queries/s)"
    );

    let mut engine_reports = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        // A fresh engine per configuration: the cache must not carry answers
        // across configurations, and is disabled so the kernel itself is
        // what's measured.
        let engine = QueryEngine::new(
            Arc::clone(&estimator),
            EngineOptions {
                threads,
                cache_capacity: 0,
                parallel_threshold: if threads == 1 { usize::MAX } else { 1 },
                ..EngineOptions::default()
            },
        );
        let sample = Sample::time(SAMPLES, true, || engine.execute(&batch).expect("in bounds"));
        let seconds = sample.median;
        let qps = QUERIES as f64 / seconds;
        println!(
            "engine_batched/{threads}_threads (median): {seconds:.3}s  ({qps:.0} queries/s, \
             {:.2}x sequential)",
            sequential_seconds / seconds
        );
        engine_reports.push(Json::Obj(vec![
            ("threads", Json::Int(threads as u64)),
            ("seconds", sample.json()),
            ("queries_per_second", Json::Num(qps)),
            (
                "speedup_vs_sequential",
                Json::Num(sequential_seconds / seconds),
            ),
        ]));
    }

    let random_pairs_report = random_pairs_kernel(&graph, &estimator, &batch);

    // The all-edges centrality workload: every graph edge as a query pair.
    // An edge list shares endpoints heavily, so this is the natural stress
    // for the hub-grouped multi-pair kernel — the engine sorts the batch and
    // streams each shared column once per run instead of once per pair.
    // Answers are asserted bit-identical to the pairwise merge kernel (the
    // same-run baseline) before anything is timed.
    let edge_batch = QueryBatch::all_edges(&graph);
    let edge_pairs = edge_batch.pairs().to_vec();
    let edge_queries = edge_pairs.len();

    // Kernel-vs-kernel on identical sorted input: the pairwise two-pointer
    // merge against the hub-grouped scatter, outside the engine, so the
    // multi-pair gain is isolated from sorting/dispatch overheads.
    let inverse = estimator.approximate_inverse();
    let norms_table = inverse.column_norms_squared();
    let mut sorted_edges: Vec<(usize, usize)> = edge_pairs
        .iter()
        .map(|&(p, q)| {
            let (a, b) = (
                estimator.permutation().new(p),
                estimator.permutation().new(q),
            );
            (a.min(b), a.max(b))
        })
        .collect();
    sorted_edges.sort_unstable();
    // Every all-edges row is a `Sample` (count, min, median, max); ratios
    // and rates are of medians.
    let pairwise_kernel = Sample::time(SAMPLES, true, || {
        effres::column_store::column_distances_squared_batch(
            inverse,
            &sorted_edges,
            Some(&norms_table),
        )
        .expect("resident store never fails")
    });
    let mut kernel_scratch = effres::column_store::HubScratch::new(inverse.order());
    let grouped_kernel = Sample::time(SAMPLES, true, || {
        effres::column_store::column_distances_squared_grouped(
            inverse,
            &sorted_edges,
            Some(&norms_table),
            &mut kernel_scratch,
        )
        .expect("resident store never fails")
    });
    kernel_scratch.take_stats();
    let kernel_speedup = pairwise_kernel.median / grouped_kernel.median;
    println!(
        "all_edges kernels (median): pairwise merge {:.3}s ({:.0} q/s), grouped scatter \
         {:.3}s ({:.0} q/s, {kernel_speedup:.2}x pairwise)",
        pairwise_kernel.median,
        edge_queries as f64 / pairwise_kernel.median,
        grouped_kernel.median,
        edge_queries as f64 / grouped_kernel.median,
    );
    let all_edges_sequential = Sample::time(SAMPLES, true, || {
        estimator.query_many(&edge_pairs).expect("in bounds")
    });
    let all_edges_sequential_qps = edge_queries as f64 / all_edges_sequential.median;
    let edge_reference = estimator.query_many(&edge_pairs).expect("in bounds");
    let edge_engine = QueryEngine::new(
        Arc::clone(&estimator),
        EngineOptions {
            threads: 1,
            cache_capacity: 0,
            parallel_threshold: usize::MAX,
            ..EngineOptions::default()
        },
    );
    let edge_check = edge_engine.execute(&edge_batch).expect("in bounds");
    assert!(
        edge_check
            .values
            .iter()
            .zip(&edge_reference)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "grouped all-edges answers diverged from the pairwise loop"
    );
    let kernel = edge_check.kernel;
    let all_edges_engine = Sample::time(SAMPLES, true, || {
        edge_engine.execute(&edge_batch).expect("in bounds")
    });
    let all_edges_qps = edge_queries as f64 / all_edges_engine.median;
    let centralities =
        effres::centrality::centralities_from_resistances(&graph, &edge_check.values);
    let centrality_sum: f64 = centralities.iter().sum();
    println!(
        "all_edges ({edge_queries} edges, median): sequential {:.3}s \
         ({all_edges_sequential_qps:.0} q/s), grouped engine {:.3}s \
         ({all_edges_qps:.0} q/s, {:.2}x); kernel {} hub load(s) x {:.1} pair(s)/hub, \
         {} isolated, {:.1} MiB streamed; centrality sum {centrality_sum:.1} (n-1 = {})",
        all_edges_sequential.median,
        all_edges_engine.median,
        all_edges_sequential.median / all_edges_engine.median,
        kernel.hub_loads,
        kernel.pairs_per_hub_load(),
        kernel.isolated_pairs,
        kernel.bytes_streamed as f64 / (1024.0 * 1024.0),
        estimator.node_count() - 1,
    );
    let all_edges_report = Json::Obj(vec![
        ("edges", Json::Int(edge_queries as u64)),
        ("pairwise_kernel_seconds", pairwise_kernel.json()),
        ("grouped_kernel_seconds", grouped_kernel.json()),
        ("kernel_speedup", Json::Num(kernel_speedup)),
        ("sequential_seconds", all_edges_sequential.json()),
        (
            "sequential_queries_per_second",
            Json::Num(all_edges_sequential_qps),
        ),
        ("engine_seconds", all_edges_engine.json()),
        ("engine_queries_per_second", Json::Num(all_edges_qps)),
        (
            "speedup_vs_sequential",
            Json::Num(all_edges_sequential.median / all_edges_engine.median),
        ),
        ("hub_loads", Json::Int(kernel.hub_loads)),
        ("hub_pairs", Json::Int(kernel.hub_pairs)),
        ("isolated_pairs", Json::Int(kernel.isolated_pairs)),
        ("certified_pairs", Json::Int(kernel.certified_pairs)),
        ("bytes_streamed", Json::Int(kernel.bytes_streamed)),
        ("centrality_sum", Json::Num(centrality_sum)),
    ]);

    let pair_cache_report = pair_cache_section(&estimator, &edge_batch);

    // Out-of-core serving: snapshot to disk, then answer the same batch
    // straight from the file. Cold start = open (header + col_ptr only) +
    // the first answered query, measured from a fresh store.
    let snap_path = std::env::temp_dir().join("effres_bench_query_throughput.snap");
    save_snapshot(&snap_path, &estimator, None).expect("snapshot");
    let snapshot_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "-- paged_query (snapshot {:.1} MiB at {})",
        snapshot_bytes as f64 / (1024.0 * 1024.0),
        snap_path.display()
    );
    let load_seconds = Sample::time(COLD_SAMPLES, true, || {
        load_snapshot(&snap_path).expect("resident load")
    });
    let open_paged_seconds = Sample::time(COLD_SAMPLES, true, || {
        open_paged(&snap_path, &PagedOptions::default()).expect("open paged")
    });
    println!(
        "cold start (median of {COLD_SAMPLES}): load_snapshot {:.3}s ({:.0} MiB/s), \
         open_paged {:.4}s",
        load_seconds.median,
        snapshot_bytes as f64 / (1024.0 * 1024.0) / load_seconds.median,
        open_paged_seconds.median,
    );
    let cold_start_report = Json::Obj(vec![
        ("snapshot_bytes", Json::Int(snapshot_bytes)),
        ("load_snapshot_seconds", load_seconds.json()),
        ("open_paged_seconds", open_paged_seconds.json()),
    ]);

    let cold = Instant::now();
    let paged = open_paged(&snap_path, &PagedOptions::default()).expect("open paged");
    let open_seconds = cold.elapsed().as_secs_f64();
    let row_codec = match paged.store.row_codec() {
        effres_io::RowCodec::Raw => "raw",
        effres_io::RowCodec::Varint => "delta-varint",
    };
    let paged_engine = QueryEngine::new(
        Arc::new(paged),
        EngineOptions {
            threads: 1,
            cache_capacity: 0,
            parallel_threshold: usize::MAX,
            ..EngineOptions::default()
        },
    );
    let (p0, q0) = pairs[0];
    let first_value = paged_engine.query(p0, q0).expect("first query");
    let time_to_first_query = cold.elapsed().as_secs_f64();
    println!(
        "paged cold start: open {open_seconds:.4}s, first query answered after \
         {time_to_first_query:.4}s"
    );
    // Sanity before timing anything: paged must reproduce resident bits.
    let resident_first = {
        let norms = estimator.column_norms_squared();
        estimator
            .query_with_norms(p0, q0, &norms)
            .expect("in bounds")
    };
    assert_eq!(
        first_value.to_bits(),
        resident_first.to_bits(),
        "paged and resident answers diverged"
    );

    let paged_engine_options = || EngineOptions {
        threads: 1,
        cache_capacity: 0,
        parallel_threshold: usize::MAX,
        ..EngineOptions::default()
    };
    let mut paged_reports = Vec::new();
    for &cache_pages in &[64usize, PagedOptions::default().cache_pages] {
        let paged = open_paged(
            &snap_path,
            &PagedOptions::default().with_cache_pages(cache_pages),
        )
        .expect("open paged");
        let engine = QueryEngine::new(Arc::new(paged), paged_engine_options());
        // Fewer samples than the in-memory variants: each paged pass is
        // disk-bound and tens of times slower, and after the warm-up every
        // run finds the file in the OS page cache.
        let mut last = None;
        let sample = Sample::time(3, true, || {
            last = Some(engine.execute(&batch).expect("in bounds"));
        });
        let seconds = sample.median;
        let qps = QUERIES as f64 / seconds;
        let page = last.and_then(|r| r.page_cache).unwrap_or_default();
        println!(
            "paged_query/{cache_pages}_pages (median): {seconds:.3}s  ({qps:.0} queries/s, \
             {:.2}x sequential resident; per batch: {} hits / {} misses, {:.1} MiB read)",
            sequential_seconds / seconds,
            page.hits,
            page.misses,
            page.bytes_read as f64 / (1024.0 * 1024.0),
        );
        paged_reports.push(Json::Obj(vec![
            ("cache_pages", Json::Int(cache_pages as u64)),
            ("seconds", sample.json()),
            ("queries_per_second", Json::Num(qps)),
            (
                "speedup_vs_sequential_resident",
                Json::Num(sequential_seconds / seconds),
            ),
            ("page_cache_hits", Json::Int(page.hits)),
            ("page_cache_misses", Json::Int(page.misses)),
            ("bytes_read", Json::Int(page.bytes_read)),
            ("readahead_reads", Json::Int(page.readahead_reads)),
        ]));
    }

    // The locality-scheduled paged path: same file, same batch, same
    // engine options — queries re-ordered into page-sorted clusters, each
    // lease round's chunks pinned once (results scattered back to request
    // order); `blocks` counts lease rounds and `windows` pins. Answers are asserted bit-identical to the resident
    // engine's batch before timing.
    let resident_reference = {
        let engine = QueryEngine::new(Arc::clone(&estimator), paged_engine_options());
        engine.execute(&batch).expect("in bounds").values
    };
    let mut scheduled_reports = Vec::new();
    for &cache_pages in &[64usize, PagedOptions::default().cache_pages] {
        let paged = open_paged(
            &snap_path,
            &PagedOptions::default().with_cache_pages(cache_pages),
        )
        .expect("open paged");
        let engine = QueryEngine::new(Arc::new(paged), paged_engine_options());
        let check = engine.execute_scheduled(&batch).expect("in bounds");
        assert!(
            check
                .values
                .iter()
                .zip(&resident_reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "scheduled paged answers diverged from resident"
        );
        let mut last = None;
        let sample = Sample::time(3, false, || {
            last = Some(engine.execute_scheduled(&batch).expect("in bounds"));
        });
        let seconds = sample.median;
        let qps = QUERIES as f64 / seconds;
        let last = last.expect("at least one sample");
        let page = last.page_cache.unwrap_or_default();
        let schedule = last.schedule.unwrap_or_default();
        println!(
            "paged_scheduled/{cache_pages}_pages (median): {seconds:.3}s  ({qps:.0} queries/s, \
             {:.2}x sequential resident; per batch: {} hits / {} misses, {:.1} MiB read, \
             {} readahead read(s), {} column run(s), {} value read(s); {} cluster(s) -> \
             {} lease round(s), {} pin(s))",
            sequential_seconds / seconds,
            page.hits,
            page.misses,
            page.bytes_read as f64 / (1024.0 * 1024.0),
            page.readahead_reads,
            page.column_runs,
            page.value_reads,
            schedule.clusters,
            schedule.blocks,
            schedule.windows,
        );
        scheduled_reports.push(Json::Obj(vec![
            ("cache_pages", Json::Int(cache_pages as u64)),
            ("seconds", sample.json()),
            ("queries_per_second", Json::Num(qps)),
            (
                "speedup_vs_sequential_resident",
                Json::Num(sequential_seconds / seconds),
            ),
            ("page_cache_hits", Json::Int(page.hits)),
            ("page_cache_misses", Json::Int(page.misses)),
            ("bytes_read", Json::Int(page.bytes_read)),
            ("readahead_reads", Json::Int(page.readahead_reads)),
            ("column_runs", Json::Int(page.column_runs)),
            ("value_reads", Json::Int(page.value_reads)),
            ("clusters", Json::Int(schedule.clusters as u64)),
            ("blocks", Json::Int(schedule.blocks as u64)),
            ("windows", Json::Int(schedule.windows as u64)),
        ]));
    }
    std::fs::remove_file(&snap_path).ok();

    let stats = estimator.stats();
    let footprint = estimator.approximate_inverse().footprint();
    let body = Json::Obj(vec![
        ("graph", Json::Str(format!("grid_2d_{SIDE}x{SIDE}"))),
        ("nodes", Json::Int(stats.node_count as u64)),
        ("inverse_nnz", Json::Int(stats.inverse_nnz as u64)),
        // Bytes of row indices the query kernels stream out of the arena —
        // halved by the usize→u32 index narrowing; `index_width_bytes`
        // records the width so the halving is visible across PRs.
        ("arena_index_bytes", Json::Int(footprint.rows_bytes as u64)),
        (
            "arena_index_width_bytes",
            Json::Int(footprint.index_width_bytes as u64),
        ),
        (
            "arena_total_bytes",
            Json::Int(footprint.total_bytes() as u64),
        ),
        ("queries", Json::Int(QUERIES as u64)),
        ("hardware_threads", Json::Int(hardware as u64)),
        ("samples", Json::Int(SAMPLES as u64)),
        ("sequential_seconds", sequential.json()),
        ("sequential_queries_per_second", Json::Num(sequential_qps)),
        ("engine", Json::Arr(engine_reports)),
        ("random_pairs_kernel", random_pairs_report),
        ("all_edges", all_edges_report),
        ("pair_cache", pair_cache_report),
        ("cold_start", cold_start_report),
        (
            "paged",
            Json::Obj(vec![
                ("snapshot_bytes", Json::Int(snapshot_bytes)),
                ("snapshot_version", Json::Int(3)),
                ("row_codec", Json::Str(row_codec.to_string())),
                (
                    "columns_per_page",
                    Json::Int(PagedOptions::default().columns_per_page as u64),
                ),
                ("open_seconds", Json::Num(open_seconds)),
                (
                    "time_to_first_query_seconds",
                    Json::Num(time_to_first_query),
                ),
                ("engine", Json::Arr(paged_reports)),
                (
                    "disjoint_pairs",
                    Json::Int(disjoint_pairs(&estimator, &pairs)),
                ),
                ("scheduled", Json::Arr(scheduled_reports)),
            ]),
        ),
    ]);
    match write_report("query_throughput", body) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}

/// Pairs of `pairs` (node ids) whose suffixes share no row: column `p` of
/// `Z̃` at rows `max(p, q)..` against column `q`, in the permuted domain.
/// Their answers need no stored value, only the norm table.
fn disjoint_pairs(estimator: &EffectiveResistanceEstimator, pairs: &[(usize, usize)]) -> u64 {
    let permutation = estimator.permutation();
    let inverse = estimator.approximate_inverse();
    let disjoint = pairs.iter().filter(|&&(u, v)| {
        let (p, q) = (permutation.new(u), permutation.new(v));
        let bound = p.max(q) as u32;
        let b = inverse.column(q).indices();
        !inverse
            .column(p)
            .indices()
            .iter()
            .any(|row| *row >= bound && b.binary_search(row).is_ok())
    });
    disjoint.count() as u64
}

/// Samples per `pair_cache` variant; each is a fresh stretch of the stream.
const CACHE_SAMPLES: usize = 10;
/// Zipf stream shape: distinct pairs in the pool, pairs per batch, and
/// batches per sample (one extra sample's worth warms the cache first).
const ZIPF_POOL: usize = 1_000_000;
const ZIPF_BATCH: usize = 64;
const ZIPF_BATCHES_PER_SAMPLE: usize = 1_024;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` batches of `ZIPF_BATCH` pairs drawn Zipf(1.0) from a seeded pool
/// of `ZIPF_POOL` distinct random pairs.
fn zipf_batches(nodes: usize, count: usize, seed: u64) -> Vec<QueryBatch> {
    let mut state = seed;
    let mut seen = std::collections::HashSet::with_capacity(ZIPF_POOL);
    let mut pool = Vec::with_capacity(ZIPF_POOL);
    while pool.len() < ZIPF_POOL {
        let p = (splitmix64(&mut state) % nodes as u64) as usize;
        let q = (splitmix64(&mut state) % nodes as u64) as usize;
        if p != q && seen.insert((p.min(q), p.max(q))) {
            pool.push((p, q));
        }
    }
    let mut mass = 0.0;
    let cdf: Vec<f64> = (1..=ZIPF_POOL)
        .map(|rank| {
            mass += 1.0 / rank as f64;
            mass
        })
        .collect();
    (0..count)
        .map(|_| {
            QueryBatch::from_pairs(
                (0..ZIPF_BATCH)
                    .map(|_| {
                        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                        pool[cdf.partition_point(|&c| c <= u * mass).min(ZIPF_POOL - 1)]
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Runs `samples[0]` untimed (warm-up), then times each later sample on a
/// default-cache engine and on an uncached one, interleaving the two so
/// drift hits both alike. Asserts both answer bit-identically; returns the
/// stream's JSON row.
fn compare_pair_cache(
    estimator: &Arc<EffectiveResistanceEstimator>,
    samples: &[&[QueryBatch]],
) -> Json {
    let engine = |cache_capacity| {
        QueryEngine::new(
            Arc::clone(estimator),
            EngineOptions {
                threads: 1,
                cache_capacity,
                parallel_threshold: usize::MAX,
                ..EngineOptions::default()
            },
        )
    };
    let default_capacity = EngineOptions::default().cache_capacity;
    let variants = [engine(default_capacity), engine(0)];
    let mut seconds = [Vec::new(), Vec::new()];
    let mut hits = [0u64; 2];
    let mut lookups = [0u64; 2];
    let queries: usize = samples[1..]
        .iter()
        .flat_map(|s| s.iter())
        .map(QueryBatch::len)
        .sum();
    for (k, sample) in samples.iter().enumerate() {
        let mut answers: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for (v, engine) in variants.iter().enumerate() {
            let start = Instant::now();
            for batch in *sample {
                let result = engine.execute(batch).expect("in bounds");
                if k > 0 {
                    hits[v] += result.cache_hits;
                    lookups[v] += result.cache_hits + result.cache_misses;
                }
                answers[v].extend(result.values.iter().map(|x| x.to_bits()));
            }
            if k > 0 {
                seconds[v].push(start.elapsed().as_secs_f64());
            }
        }
        assert_eq!(answers[0], answers[1], "cached answers diverged");
    }
    let rows = (0..2)
        .map(|v| {
            let sample = Sample::of(seconds[v].clone());
            let per_sample = queries as f64 / sample.n as f64;
            Json::Obj(vec![
                (
                    "cache_capacity",
                    Json::Int(if v == 0 { default_capacity as u64 } else { 0 }),
                ),
                (
                    "hit_ratio",
                    Json::Num(hits[v] as f64 / lookups[v].max(1) as f64),
                ),
                ("median_seconds", Json::Num(sample.median)),
                ("min_seconds", Json::Num(sample.min)),
                ("max_seconds", Json::Num(sample.max)),
                ("queries_per_second", Json::Num(per_sample / sample.median)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

fn pair_cache_section(estimator: &Arc<EffectiveResistanceEstimator>, edges: &QueryBatch) -> Json {
    let sweep = std::slice::from_ref(edges);
    let all_edges = compare_pair_cache(estimator, &[sweep; CACHE_SAMPLES + 1]);
    let zipf = zipf_batches(
        estimator.node_count(),
        ZIPF_BATCHES_PER_SAMPLE * (CACHE_SAMPLES + 1),
        0x5eed,
    );
    let zipf_samples: Vec<&[QueryBatch]> = zipf.chunks(ZIPF_BATCHES_PER_SAMPLE).collect();
    let zipf_report = compare_pair_cache(estimator, &zipf_samples);
    for (name, report) in [("all_edges", &all_edges), ("zipf", &zipf_report)] {
        if let Json::Arr(rows) = report {
            for row in rows {
                println!("pair_cache/{name}: {}", row.render());
            }
        }
    }
    Json::Obj(vec![
        ("samples", Json::Int(CACHE_SAMPLES as u64)),
        ("all_edges", all_edges),
        (
            "zipf",
            Json::Obj(vec![
                ("pool_pairs", Json::Int(ZIPF_POOL as u64)),
                ("pairs_per_batch", Json::Int(ZIPF_BATCH as u64)),
                (
                    "batches_per_sample",
                    Json::Int(ZIPF_BATCHES_PER_SAMPLE as u64),
                ),
                ("variants", zipf_report),
            ]),
        ),
    ])
}

/// The plain two-pointer merge over the suffix pairs of
/// `column_distances_squared_batch` — the isolated-pair kernel before its
/// rows were touched up front and intersected in blocks of eight — with
/// the same norm identity and clamp, so the answers are the same bits.
fn merge_distances(
    inverse: &SparseApproximateInverse,
    pairs: &[(usize, usize)],
    norms: &[f64],
) -> Vec<f64> {
    // Only the smaller index's column is searched: the other one starts at
    // the bound.
    let suffix = |j: usize, bound: usize| {
        let column = inverse.column(j);
        let start = if j == bound {
            0
        } else {
            column
                .indices()
                .partition_point(|&row| (row as usize) < bound)
        };
        (&column.indices()[start..], &column.values()[start..])
    };
    pairs
        .iter()
        .map(|&(p, q)| {
            if p == q {
                return 0.0;
            }
            let bound = p.max(q);
            let ((ai, av), (bi, bv)) = (suffix(p, bound), suffix(q, bound));
            let (mut dot, mut ia, mut ib) = (0.0, 0, 0);
            while ia < ai.len() && ib < bi.len() {
                match ai[ia].cmp(&bi[ib]) {
                    std::cmp::Ordering::Less => ia += 1,
                    std::cmp::Ordering::Greater => ib += 1,
                    std::cmp::Ordering::Equal => {
                        dot += av[ia] * bv[ib];
                        ia += 1;
                        ib += 1;
                    }
                }
            }
            (norms[p] + norms[q] - 2.0 * dot).max(0.0)
        })
        .collect()
}

/// Random pairs, kernel against kernel: the plain merge
/// ([`merge_distances`]) against `column_distances_squared_batch` on the
/// batch's pairs, permuted and sorted as the engine runs them, timed
/// interleaved (after one untimed round) so drift hits both alike. Answers
/// are asserted bit-identical first. Runs on the bench's RCM-ordered
/// estimator and on a minimum-degree-ordered one of the same graph (the
/// serving benchmark's build), whose columns are about ten times shorter.
fn random_pairs_kernel(
    graph: &effres_graph::Graph,
    rcm: &EffectiveResistanceEstimator,
    batch: &QueryBatch,
) -> Json {
    let minimum_degree = EffectiveResistanceEstimator::build(
        graph,
        &EffresConfig::default().with_ordering(Ordering::MinimumDegree),
    )
    .expect("build");
    let rows = [("rcm", rcm), ("minimum_degree", &minimum_degree)].map(|(name, estimator)| {
        let inverse = estimator.approximate_inverse();
        let norms = estimator.column_norms_squared();
        let permutation = estimator.permutation();
        let mut sorted: Vec<(usize, usize)> = (batch.pairs().iter())
            .map(|&(p, q)| {
                let (a, b) = (permutation.new(p), permutation.new(q));
                (a.min(b), a.max(b))
            })
            .collect();
        sorted.sort_unstable();
        let block = || column_distances_squared_batch(inverse, &sorted, Some(&norms));
        let merged = merge_distances(inverse, &sorted, &norms);
        let blocked = block().expect("resident store never fails");
        assert!(
            merged
                .iter()
                .zip(&blocked)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "block intersection diverged from the plain merge ({name})"
        );
        let mut seconds = [Vec::new(), Vec::new()];
        for round in 0..=SAMPLES {
            let start = Instant::now();
            std::hint::black_box(merge_distances(inverse, &sorted, &norms));
            let merge = start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::hint::black_box(block().expect("resident store never fails"));
            if round > 0 {
                seconds[0].push(merge);
                seconds[1].push(start.elapsed().as_secs_f64());
            }
        }
        let ns_per_pair = 1e9 / sorted.len() as f64;
        let [merge, block] = seconds.map(|s| Sample::of(s).scaled(ns_per_pair));
        // Pairs the arena's row-bucket skeleton certifies disjoint: the
        // kernel answers them without reading a row.
        let certified = (sorted.iter())
            .filter(|&&(p, q)| p != q && inverse.suffixes_meet_from(p, q).is_none())
            .count();
        println!(
            "random_pairs_kernel/{name} (median ns/pair): plain merge {:.0} [{:.0}-{:.0}], \
             skeleton + touched block intersection {:.0} [{:.0}-{:.0}], {:.2}x; \
             {certified} pair(s) certified",
            merge.median,
            merge.min,
            merge.max,
            block.median,
            block.min,
            block.max,
            merge.median / block.median,
        );
        Json::Obj(vec![
            ("ordering", Json::Str(name.to_string())),
            ("plain_merge_ns_per_pair", merge.json()),
            ("block_intersection_ns_per_pair", block.json()),
            ("speedup", Json::Num(merge.median / block.median)),
            ("certified_pairs", Json::Int(certified as u64)),
        ])
    });
    Json::Obj(vec![
        ("pairs", Json::Int(batch.len() as u64)),
        ("samples", Json::Int(SAMPLES as u64)),
        ("orderings", Json::Arr(rows.into())),
    ])
}
