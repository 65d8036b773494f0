//! `paper_edges`: the library used in-process by one caller, Table I's
//! protocol. Setup is `EffectiveResistanceEstimator::build`; the closed
//! loop then runs back-to-back all-edge sweeps through
//! `QueryEngine::execute(&QueryBatch::all_edges(..))` with default
//! `EngineOptions`, as `effres-cli centrality` does; each sweep is one
//! request. No wire, no paging; edge pairs share endpoints, so the hub
//! kernel can save work.

use crate::host::HostSpeed;
use crate::load;
use crate::reference::{config, Reference};
use crate::util::{self, median, ratio, MIN_TAIL_SAMPLES};
use crate::{Args, Outcome};
use effres::approx_inverse::SparseApproximateInverse;
use effres::column_store::{column_distances_squared_grouped, HubScratch};
use effres::depth::FilledGraphDepth;
use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::Graph;
use effres_service::{EngineOptions, QueryBatch, QueryEngine};
use effres_sparse::ichol::{IcholOptions, IncompleteCholesky};
use std::sync::Arc;
use std::time::Instant;

/// Builds per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Host-speed samples taken right before and right after each build.
const BUILD_SAMPLES: usize = 3;
/// Relative tolerance of the spanning-tree identity Σ w_e·R_e = n − 1.
const SPANNING_TREE_TOLERANCE: f64 = 0.01;

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

pub fn run(args: &Args, graph: &Graph, reference: &Reference) -> Result<Outcome, String> {
    let config = config();
    let mut host = HostSpeed::new();
    let mut outcome = Outcome::default();
    // At the reference speed, and as measured.
    let (mut setup, mut setup_raw) = (Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let mut estimator = None;
    for _ in 0..SETUPS {
        drop(estimator.take());
        host.samples(BUILD_SAMPLES);
        let started = Instant::now();
        let built =
            EffectiveResistanceEstimator::build(graph, &config).map_err(|e| e.to_string())?;
        let done = Instant::now();
        host.samples(BUILD_SAMPLES);
        setup.push(host.seconds(started, done));
        setup_raw.push((done - started).as_secs_f64());
        estimator = Some(built);
        // Traced builds alternate with untraced ones, so drift of the host
        // falls on both alike.
        if args.trace {
            traced.push(traced_build(graph, &config)?);
        }
    }
    eprintln!("paper_edges setup (build) {setup_raw:?} s, at reference speed {setup:?} s");
    let engine = QueryEngine::new(
        Arc::new(estimator.expect("at least one build")),
        EngineOptions::default(),
    );
    let sweep = QueryBatch::all_edges(graph);
    outcome.correct = check(&engine, graph, &sweep);
    let accuracy = accuracy(&engine, reference)?;
    if outcome.correct.is_ok() {
        outcome.correct = accuracy.check();
    }

    let mut engine_ms = Vec::new();
    let closed = load::closed_loop(&mut host, args.seconds, MIN_TAIL_SAMPLES, |_| {
        let result = engine.execute(&sweep).map_err(|e| e.to_string())?;
        engine_ms.push(result.elapsed.as_secs_f64() * 1e3);
        Ok(result.values.len())
    });
    outcome.attempted = closed.attempted;
    outcome.failed = closed.failed;
    eprintln!(
        "paper_edges sweeps: {} (host speed {:.3})",
        util::describe(&closed.latencies_ms()),
        host.median_speed()
    );
    let m = &mut outcome.metrics;
    if args.trace {
        let phase = |f: fn(&TracedBuild) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let ordering_s = phase(|t| t.ordering_s);
        let ichol_s = phase(|t| t.ichol_s);
        let inverse_s = phase(|t| t.inverse_s);
        let untraced_s = median(&setup_raw);
        m.insert("build.ordering_s", ordering_s);
        m.insert("build.ichol_s", ichol_s);
        m.insert("build.inverse_s", inverse_s);
        m.insert("build.inverse_nnz", phase(|t| t.inverse_nnz as f64));
        m.insert(
            "build.traced_sum_ratio",
            (ordering_s + ichol_s + inverse_s) / untraced_s,
        );
        m.insert("trace.overhead_s", phase(|t| t.total_s) - untraced_s);
        m.insert("kernel.ns_per_pair", kernel_ns_per_pair(&engine, &sweep));
        let kernel = engine.execute(&sweep).map_err(|e| e.to_string())?.kernel;
        m.insert(
            "kernel.bytes_per_pair",
            ratio(kernel.bytes_streamed as f64, kernel.pairs() as f64),
        );
        m.insert("kernel.pairs_per_hub_load", kernel.pairs_per_hub_load());
        m.insert("engine.execute_ms_p50", median(&engine_ms));
        let stats = engine.stats();
        m.insert(
            "engine.pair_cache_hit_ratio",
            ratio(
                stats.cache_hits as f64,
                (stats.cache_hits + stats.cache_misses) as f64,
            ),
        );
        m.insert(
            "client.failed_ratio",
            ratio(outcome.failed as f64, outcome.attempted as f64),
        );
        // Every sweep after the first repeats the same edges.
        m.insert(
            "workload.repeat_share",
            ratio(
                closed.attempted.saturating_sub(1) as f64,
                closed.attempted as f64,
            ),
        );
        m.insert("host.speed", host.median_speed());
        for bypassed in [
            "io.snapshot_load_s",
            "io.open_paged_s",
            "io.page_miss_ratio",
            "io.bytes_read_per_pair",
            "io.page_fetch_ms",
            "io.page_retries",
            "scheduler.execute_ms_p50",
            "scheduler.blocks_per_batch",
            "scheduler.windows_per_batch",
            "admission.queued",
            "server.handler_p50_ms",
            "server.handler_tail_ms",
            "server.wire_p50_ms",
        ] {
            m.insert(bypassed, 0.0);
        }
    } else {
        let (p50, tail) = closed.p50_and_tail();
        m.insert("setup_s", median(&setup));
        m.insert("queries_per_s", closed.pairs_per_second());
        m.insert("latency_p50_ms", p50);
        m.insert("latency_tail_ms", tail);
        // The harness is the working process; its calibration buffer is
        // not part of the workload.
        m.insert(
            "peak_rss_mib",
            util::peak_rss_mib("self") - host.buffer_mib(),
        );
        m.insert("edge_rel_err_mean", accuracy.edge_mean);
        m.insert("edge_rel_err_max", accuracy.edge_max);
        m.insert("pair_rel_err_mean", accuracy.pair_mean);
        m.insert("pair_rel_err_max", accuracy.pair_max);
    }
    Ok(outcome)
}

/// Σ w_e·R_e over all edges must come out near n − 1 (for exact
/// resistances it equals the edge count of a spanning tree).
fn check(engine: &QueryEngine, graph: &Graph, sweep: &QueryBatch) -> Result<(), String> {
    let values = engine.execute(sweep).map_err(|e| e.to_string())?.values;
    let sum: f64 = graph
        .edges()
        .zip(&values)
        .map(|((_, edge), r)| edge.weight * r)
        .sum();
    let expected = (graph.node_count() - 1) as f64;
    eprintln!("paper_edges spanning-tree sum {sum:.3} (n - 1 = {expected})");
    if ((sum - expected) / expected).abs() > SPANNING_TREE_TOLERANCE {
        return Err(format!(
            "spanning-tree identity: sum {sum} vs n - 1 = {expected}"
        ));
    }
    Ok(())
}

fn accuracy(
    engine: &QueryEngine,
    reference: &Reference,
) -> Result<crate::reference::Accuracy, String> {
    let answer = |pairs: &[(usize, usize)]| {
        engine
            .execute(&QueryBatch::from_pairs(pairs.to_vec()))
            .map(|r| r.values)
            .map_err(|e| e.to_string())
    };
    Ok(reference.accuracy(&answer(&reference.edges)?, &answer(&reference.pairs)?))
}

struct TracedBuild {
    ordering_s: f64,
    ichol_s: f64,
    inverse_s: f64,
    inverse_nnz: usize,
    total_s: f64,
}

/// The steps of `EffectiveResistanceEstimator::build`, each call into its
/// layer timed on its own.
fn traced_build(graph: &Graph, config: &EffresConfig) -> Result<TracedBuild, String> {
    let started = Instant::now();
    let laplacian = effres_graph::laplacian::grounded_laplacian(graph, config.ground_conductance);
    let timer = Instant::now();
    let permutation = effres_sparse::amd::amd(&laplacian).map_err(|e| e.to_string())?;
    let ordering_s = seconds_since(timer);
    let permuted = laplacian
        .permute_symmetric(&permutation)
        .map_err(|e| e.to_string())?;
    let timer = Instant::now();
    let ichol = IncompleteCholesky::factor(
        &permuted,
        IcholOptions {
            drop_tolerance: config.drop_tolerance,
            ..IcholOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let ichol_s = seconds_since(timer);
    let factor = Arc::new(ichol.into_factor());
    let _depth = FilledGraphDepth::from_factor(&factor);
    let timer = Instant::now();
    let inverse = SparseApproximateInverse::from_factor_shared(
        factor,
        config.epsilon,
        config.dense_column_threshold,
        &config.build,
        config.worker_pool.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    let inverse_s = seconds_since(timer);
    Ok(TracedBuild {
        ordering_s,
        ichol_s,
        inverse_s,
        inverse_nnz: inverse.nnz(),
        total_s: seconds_since(started),
    })
}

/// Single-thread grouped kernel over the sorted (permuted) edge batch,
/// median of five passes.
fn kernel_ns_per_pair(engine: &QueryEngine, sweep: &QueryBatch) -> f64 {
    let estimator = engine.estimator();
    let inverse = estimator.approximate_inverse();
    let norms = estimator.column_norms_squared();
    let permutation = estimator.permutation();
    let mut sorted: Vec<(usize, usize)> = sweep
        .pairs()
        .iter()
        .map(|&(p, q)| {
            let (a, b) = (permutation.new(p), permutation.new(q));
            (a.min(b), a.max(b))
        })
        .collect();
    sorted.sort_unstable();
    let mut scratch = HubScratch::new(inverse.order());
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let timer = Instant::now();
            let values =
                column_distances_squared_grouped(inverse, &sorted, Some(&norms), &mut scratch)
                    .expect("a resident store never fails");
            std::hint::black_box(values);
            seconds_since(timer)
        })
        .collect();
    median(&passes) * 1e9 / sorted.len() as f64
}
