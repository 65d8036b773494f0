//! In-process end-to-end tests: a real `Server` on an ephemeral loopback
//! port, real `Client`s over TCP, both backends.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions};
use effres_io::snapshot::save_snapshot;
use effres_server::{Client, ClientError, Server};
use effres_service::{EngineOptions, QueryEngine};
use std::sync::Arc;

fn estimator() -> EffectiveResistanceEstimator {
    let graph = generators::grid_2d(8, 8, 0.5, 2.0, 5).expect("generator");
    EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build")
}

/// A local engine over the same estimator: the values the network must
/// reproduce bit for bit. (The raw `estimator.query` path sums in a
/// different order than the engine kernel, so the engine is the reference —
/// the wire must add nothing on top of it.)
fn reference_engine(
    estimator: &Arc<EffectiveResistanceEstimator>,
) -> QueryEngine<EffectiveResistanceEstimator> {
    QueryEngine::new(
        Arc::clone(estimator),
        EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    )
}

/// Binds a resident server on an ephemeral port and runs it on a thread;
/// returns the address and the join handle (which yields the final stats).
fn start_resident() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<String>>,
    Arc<EffectiveResistanceEstimator>,
) {
    let estimator = Arc::new(estimator());
    let engine = QueryEngine::new(
        Arc::clone(&estimator),
        EngineOptions {
            cache_capacity: 256,
            ..EngineOptions::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", engine, None).expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());
    (addr, runner, estimator)
}

#[test]
fn hello_query_batch_stats_and_shutdown_round_trip() {
    let (addr, runner, estimator) = start_resident();
    let mut client = Client::connect(addr).expect("connect");

    let info = client.info();
    assert_eq!(info.node_count, 64);
    assert!(!info.paged);
    assert_eq!(info.snapshot_version, None);

    // Network answers are the engine's answers, bit for bit.
    let reference = reference_engine(&estimator);
    let expected = reference.query(3, 41).expect("direct");
    let served = client.query(3, 41).expect("served");
    assert_eq!(served.to_bits(), expected.to_bits());
    assert_eq!(client.query(5, 5).expect("self pair"), 0.0);

    let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i % 64, (i * 7 + 1) % 64)).collect();
    let values = client.query_batch(&pairs).expect("batch");
    assert_eq!(values.len(), pairs.len());
    for (&(p, q), value) in pairs.iter().zip(&values) {
        let direct = reference.query(p as usize, q as usize).expect("direct");
        assert_eq!(value.to_bits(), direct.to_bits(), "pair ({p}, {q})");
    }

    let stats = client.stats_json().expect("stats");
    for key in [
        "\"backend\":\"resident\"",
        "\"nodes\":64",
        "\"snapshot_version\":null",
        "\"admission\":null",
        "\"latency_us\"",
        "\"throughput_qps\"",
    ] {
        assert!(stats.contains(key), "stats JSON missing {key}: {stats}");
    }

    client.shutdown_server().expect("shutdown ack");
    let final_stats = runner
        .join()
        .expect("server thread")
        .expect("clean serve loop");
    assert!(final_stats.contains("\"requests\""));
}

#[test]
fn bad_requests_draw_errors_without_killing_the_connection() {
    let (addr, runner, _estimator) = start_resident();
    let mut client = Client::connect(addr).expect("connect");

    // Out-of-range node id: a remote error, and the connection survives.
    match client.query(3, 10_000) {
        Err(ClientError::Remote(message)) => {
            assert!(message.contains("10000"), "unhelpful error: {message}")
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    let healthy = client.query(0, 1).expect("connection still serves");
    assert!(healthy > 0.0);

    client.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("serve loop");
}

#[test]
fn concurrent_clients_share_one_engine_and_drain_on_shutdown() {
    let (addr, runner, estimator) = start_resident();
    let reference = reference_engine(&estimator);
    std::thread::scope(|scope| {
        for worker in 0..4u64 {
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..50u64 {
                    let p = (i * 13 + worker) % 64;
                    let q = (i * 31 + worker * 5) % 64;
                    let served = client.query(p, q).expect("query");
                    let direct = reference.query(p as usize, q as usize).expect("direct");
                    assert_eq!(served.to_bits(), direct.to_bits());
                }
            });
        }
    });
    let mut closer = Client::connect(addr).expect("connect closer");
    let stats = closer.stats_json().expect("stats");
    assert!(
        stats.contains("\"queries\":200"),
        "four clients × 50: {stats}"
    );
    closer.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("serve loop");
}

#[test]
fn paged_backend_serves_with_admission_control_over_the_wire() {
    let dir = std::env::temp_dir().join("effres-server-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("paged.snap");
    let resident = Arc::new(estimator());
    save_snapshot(&path, &resident, None).expect("save");
    let reference = reference_engine(&resident);
    let paged = open_paged(
        &path,
        &PagedOptions {
            columns_per_page: 2,
            cache_pages: 4,
            cache_shards: 1,
            ..PagedOptions::default()
        },
    )
    .expect("open");
    let engine = QueryEngine::new(
        Arc::new(paged),
        EngineOptions {
            cache_capacity: 0,
            threads: 2,
            parallel_threshold: 8,
            ..EngineOptions::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", engine, Some(3)).expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    assert!(client.info().paged);
    assert_eq!(client.info().snapshot_version, Some(3));

    // Two clients race batches large enough to engage the scheduler and the
    // admission ledger; answers must match the resident estimator exactly.
    std::thread::scope(|scope| {
        for worker in 0..2u64 {
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let pairs: Vec<(u64, u64)> = (0..600)
                    .map(|i| ((i * 17 + worker) % 64, (i * 5 + worker * 29) % 64))
                    .collect();
                let values = client.query_batch(&pairs).expect("batch");
                for (&(p, q), value) in pairs.iter().zip(&values) {
                    let direct = reference.query(p as usize, q as usize).expect("direct");
                    assert_eq!(value.to_bits(), direct.to_bits(), "pair ({p}, {q})");
                }
            });
        }
    });

    let stats = client.stats_json().expect("stats");
    assert!(stats.contains("\"backend\":\"paged\""));
    assert!(
        stats.contains("\"admission\":{\"budget\":"),
        "paged serving reports its admission ledger: {stats}"
    );
    client.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("serve loop");
}
