//! Chaos tests of the full network stack: a real `Server` over a paged
//! snapshot with seeded injected faults, driven by real `Client`s over TCP.
//!
//! Covers the PING health check, transient-fault recovery that stays
//! bit-identical over the wire, partial-batch degradation under persistent
//! corruption (per-query statuses, per-cause error counters), and overload
//! shedding surfacing as `OP_BUSY` / [`ClientError::Busy`].

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, open_paged_with_faults, PagedOptions, PagedSnapshot};
use effres_io::snapshot::save_snapshot;
use effres_io::{FaultPlan, RetryPolicy};
use effres_server::{protocol, Client, ClientError, ReconnectPolicy, Server, ServerHandle};
use effres_service::{EngineOptions, QueryEngine};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const NODES: u64 = 256;

fn snapshot_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let graph = generators::grid_2d(16, 16, 0.5, 2.0, 11).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let dir = std::env::temp_dir().join("effres-chaos-server");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("chaos.snap");
        save_snapshot(&path, &estimator, None).expect("save");
        path
    })
}

fn churny_options() -> PagedOptions {
    PagedOptions {
        columns_per_page: 2,
        cache_pages: 12,
        cache_shards: 1,
        ..PagedOptions::default()
    }
}

fn engine_options() -> EngineOptions {
    EngineOptions {
        cache_capacity: 0,
        threads: 2,
        parallel_threshold: 8,
        ..EngineOptions::default()
    }
}

/// Serves `paged` on an ephemeral loopback port; returns the client-facing
/// handle trio.
fn serve(
    paged: PagedSnapshot,
    options: EngineOptions,
) -> (
    std::net::SocketAddr,
    ServerHandle<PagedSnapshot>,
    std::thread::JoinHandle<std::io::Result<String>>,
) {
    let engine = QueryEngine::new(Arc::new(paged), options);
    let server = Server::bind("127.0.0.1:0", engine, Some(3)).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

/// A fault-free reference engine over the same snapshot: what the faulted
/// server must reproduce bit for bit.
fn reference_values(pairs: &[(u64, u64)]) -> Vec<f64> {
    let paged = open_paged(snapshot_path(), &churny_options()).expect("reference open");
    let engine = QueryEngine::new(Arc::new(paged), engine_options());
    let batch = effres_service::QueryBatch::from_pairs(
        pairs
            .iter()
            .map(|&(p, q)| (p as usize, q as usize))
            .collect(),
    );
    engine.execute_scheduled(&batch).expect("reference").values
}

/// Pulls `"key":<u64>` out of the hand-rendered stats JSON.
fn json_u64(stats: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = stats.find(&needle).unwrap_or_else(|| {
        panic!("stats JSON missing {key}: {stats}");
    });
    stats[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("stats key {key} is not a number: {stats}"))
}

#[test]
fn ping_reports_backend_and_uptime() {
    let paged = open_paged(snapshot_path(), &churny_options()).expect("open");
    let (addr, _handle, runner) = serve(paged, engine_options());
    let mut client = Client::connect(addr).expect("connect");
    let report = client.ping().expect("ping");
    assert!(report.paged);
    assert_eq!(report.node_count, NODES);
    assert!(report.uptime_secs >= 0.0);
    client.shutdown_server().expect("shutdown");
    runner.join().expect("thread").expect("serve loop");
}

#[test]
fn faulted_server_answers_bit_identically_and_reports_retries() {
    // ~2% of read attempts fault; retry absorbs them behind the protocol.
    let plan = FaultPlan::new(0xD15EA5E)
        .with_transient_errors(15_000)
        .with_short_reads(5_000);
    let paged = open_paged_with_faults(
        snapshot_path(),
        &churny_options().with_retry(RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_micros(1),
        }),
        plan,
    )
    .expect("faulted open");
    let (addr, _handle, runner) = serve(paged, engine_options());

    let pairs: Vec<(u64, u64)> = (0..2_000)
        .map(|i| ((i * 37 + 5) % NODES, (i * 13 + 1) % NODES))
        .collect();
    let expected = reference_values(&pairs);
    let mut client = Client::connect(addr).expect("connect");
    let served = client.query_batch(&pairs).expect("batch over faults");
    for (i, (value, reference)) in served.iter().zip(&expected).enumerate() {
        assert_eq!(
            value.to_bits(),
            reference.to_bits(),
            "pair {i} diverged under faults"
        );
    }

    let stats = client.stats_json().expect("stats");
    assert!(
        json_u64(&stats, "page_retries") > 0,
        "recovery must be observable in the stats document: {stats}"
    );
    assert!(json_u64(&stats, "page_faulted_reads") >= json_u64(&stats, "page_retries"));
    assert_eq!(
        json_u64(&stats, "store_failures"),
        0,
        "nothing failed for real"
    );
    client.shutdown_server().expect("shutdown");
    runner.join().expect("thread").expect("serve loop");
}

#[test]
fn partial_batches_over_the_wire_degrade_per_query() {
    let probe = open_paged(snapshot_path(), &churny_options()).expect("probe");
    let victim = 101;
    let offset = probe.store.column_value_byte_offset(victim) + 6;
    let poisoned_page = probe.store.page_of_column(victim);
    let columns_per_page = probe.store.columns_per_page();
    let permutation = probe.permutation.clone();
    let on_rotten_page =
        |node: u64| permutation.new(node as usize) / columns_per_page == poisoned_page;
    drop(probe);

    let plan = FaultPlan::new(0).poison(offset, 2);
    let paged = open_paged_with_faults(
        snapshot_path(),
        &churny_options().with_retry(RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_micros(1),
        }),
        plan,
    )
    .expect("faulted open");
    let (addr, _handle, runner) = serve(paged, engine_options());

    let pairs: Vec<(u64, u64)> = (0..1_500)
        .map(|i| ((i * 37 + 5) % NODES, (i * 13 + 1) % NODES))
        .collect();
    let expected = reference_values(&pairs);

    let mut client = Client::connect(addr).expect("connect");
    // The all-or-nothing batch fails as a whole (it touches the rot)...
    match client.query_batch(&pairs) {
        Err(ClientError::Remote(message)) => {
            assert!(
                message.contains("column"),
                "the error names the store failure: {message}"
            )
        }
        other => panic!("expected a remote store failure, got {other:?}"),
    }

    // ...while the partial request degrades exactly the touching queries.
    let partial = client
        .query_batch_with(&pairs, true, None)
        .expect("partial batch");
    assert_eq!(partial.statuses.len(), pairs.len());
    assert!(partial.failed > 0, "the batch sweeps every page");
    assert!(!partial.is_complete());
    assert!(
        partial
            .first_failure
            .as_deref()
            .is_some_and(|m| m.contains("column")),
        "first failure message survives the wire: {:?}",
        partial.first_failure
    );
    for (i, (&(p, q), reference)) in pairs.iter().zip(&expected).enumerate() {
        let touches = p != q && (on_rotten_page(p) || on_rotten_page(q));
        if touches {
            assert_eq!(
                partial.statuses[i],
                protocol::STATUS_STORE_FAILURE,
                "({p}, {q}) touches the rotten page"
            );
            assert_eq!(partial.values[i], 0.0, "failed slots carry 0.0");
        } else {
            assert_eq!(partial.statuses[i], protocol::STATUS_OK);
            assert_eq!(
                partial.values[i].to_bits(),
                reference.to_bits(),
                "({p}, {q}) succeeded and must be bit-identical"
            );
        }
    }

    let stats = client.stats_json().expect("stats");
    assert!(json_u64(&stats, "store_failures") >= u64::from(partial.failed));
    assert!(json_u64(&stats, "partial_batches") >= 1);
    client.shutdown_server().expect("shutdown");
    runner.join().expect("thread").expect("serve loop");
}

#[test]
fn overloaded_server_answers_busy_over_the_wire() {
    let paged = open_paged(
        snapshot_path(),
        &PagedOptions {
            columns_per_page: 1,
            cache_pages: 6,
            cache_shards: 1,
            ..PagedOptions::default()
        },
    )
    .expect("open");
    let options = EngineOptions {
        admission_queue_depth: Some(0),
        admission_timeout: Duration::from_millis(150),
        ..engine_options()
    };
    let (addr, handle, runner) = serve(paged, options);

    // One client holds the pin lease with a huge scheduled batch...
    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("holder connect");
        let pairs: Vec<(u64, u64)> = (0..60_000)
            .map(|i| ((i * 37 + 5) % NODES, (i * 13 + 1) % NODES))
            .collect();
        client.query_batch(&pairs).expect("holder batch")
    });
    // ...and once its lease shows up in the admission stats, every other
    // batch is shed with OP_BUSY instead of queueing behind it.
    let waited = std::time::Instant::now();
    loop {
        let stats = handle.stats_json();
        if json_u64(&stats, "available") < json_u64(&stats, "budget") {
            break;
        }
        assert!(
            waited.elapsed() < Duration::from_secs(20),
            "holder never took its lease"
        );
        std::thread::yield_now();
    }

    let mut client = Client::connect_with(addr, ReconnectPolicy::default()).expect("connect");
    let pairs: Vec<(u64, u64)> = (0..2_000)
        .map(|i| ((i * 7 + 3) % NODES, (i * 29 + 11) % NODES))
        .collect();
    let mut shed = 0usize;
    while !holder.is_finished() {
        std::thread::sleep(Duration::from_millis(2));
        match client.query_batch(&pairs) {
            Err(ClientError::Busy(message)) => {
                shed += 1;
                assert!(
                    message.contains("busy"),
                    "busy replies say to back off: {message}"
                );
            }
            Ok(_) => break, // the holder drained; contention is over
            Err(other) => panic!("overload must surface as Busy, got {other}"),
        }
    }
    holder.join().expect("holder thread");
    assert!(shed > 0, "at least one request shed while the holder ran");

    // The shed connection stays usable, and the sheds are counted.
    let values = client.query_batch(&pairs).expect("after the storm");
    assert_eq!(values.len(), pairs.len());
    let stats = client.stats_json().expect("stats");
    assert!(json_u64(&stats, "busy_rejections") >= shed as u64);
    assert!(json_u64(&stats, "shed_queue_full") >= shed as u64);
    client.shutdown_server().expect("shutdown");
    runner.join().expect("thread").expect("serve loop");
}
