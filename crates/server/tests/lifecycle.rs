//! Lifecycle tests: hot reload under concurrent load (zero failed requests,
//! no batch ever mixes epochs), graceful drain on shutdown (in-flight work
//! completes, stragglers get clean closes, never wrong answers), and the
//! background scrubber's progress surfacing in stats and health.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::save_snapshot;
use effres_server::{Client, Server, ServerOptions};
use effres_service::{EngineOptions, QueryEngine};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn estimator(seed: u64) -> EffectiveResistanceEstimator {
    let graph = generators::grid_2d(8, 8, 0.5, 2.0, seed).expect("generator");
    EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build")
}

fn snapshot_file(name: &str, est: &EffectiveResistanceEstimator) -> PathBuf {
    let dir = std::env::temp_dir().join("effres-lifecycle");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    save_snapshot(&path, est, None).expect("save");
    path
}

/// Small pages and cache: reload drops a store that is actively churning
/// buffers, which is exactly the hard case.
fn paged_engine(path: &Path) -> QueryEngine<PagedSnapshot> {
    let paged = open_paged(
        path,
        &PagedOptions {
            columns_per_page: 4,
            cache_pages: 4,
            cache_shards: 1,
            ..PagedOptions::default()
        },
    )
    .expect("open paged");
    QueryEngine::new(
        Arc::new(paged),
        EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    )
}

/// The values a batch over `pairs` must reproduce bit for bit, per epoch.
fn reference_bits(est: &Arc<EffectiveResistanceEstimator>, pairs: &[(u64, u64)]) -> Vec<u64> {
    let engine = QueryEngine::new(
        Arc::clone(est),
        EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );
    pairs
        .iter()
        .map(|&(p, q)| {
            engine
                .query(p as usize, q as usize)
                .expect("reference")
                .to_bits()
        })
        .collect()
}

#[test]
fn hot_reload_under_load_never_fails_or_mixes_epochs() {
    let est_a = Arc::new(estimator(5));
    let est_b = Arc::new(estimator(23));
    let path_a = snapshot_file("reload_a.snap", &est_a);
    let path_b = snapshot_file("reload_b.snap", &est_b);

    let server = Server::bind_with(
        "127.0.0.1:0",
        paged_engine(&path_a),
        Some(3),
        Some(path_a.clone()),
        ServerOptions::default(),
    )
    .expect("bind");
    // The paged reloader the CLI installs, minus the printing.
    assert!(server.set_reloader(|path: &Path| Ok((paged_engine(path), Some(3)))));
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i % 64, (i * 7 + 1) % 64)).collect();
    let bits_a = reference_bits(&est_a, &pairs);
    let bits_b = reference_bits(&est_b, &pairs);
    assert_ne!(bits_a, bits_b, "the two snapshots must answer differently");

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for _ in 0..3 {
        let stop = Arc::clone(&stop);
        let pairs = pairs.clone();
        let bits_a = bits_a.clone();
        let bits_b = bits_b.clone();
        workers.push(std::thread::spawn(move || -> (u64, u64) {
            // One connection across the whole reload: zero downtime means it
            // keeps answering, with every batch wholly on one epoch.
            let mut client = Client::connect(addr).expect("connect");
            let (mut on_a, mut on_b) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let values = client.query_batch(&pairs).expect("no failed request");
                let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                if bits == bits_a {
                    on_a += 1;
                } else if bits == bits_b {
                    on_b += 1;
                } else {
                    panic!("a batch mixed epochs");
                }
            }
            (on_a, on_b)
        }));
    }

    std::thread::sleep(Duration::from_millis(150));
    let mut control = Client::connect(addr).expect("control connect");
    let before = control.ping().expect("ping");
    assert_eq!(before.epoch, 1);
    assert_eq!(
        before.snapshot_path.as_deref(),
        path_a.to_str(),
        "ping reports the served snapshot"
    );
    let report = control
        .reload(path_b.to_str().expect("utf-8 path"))
        .expect("reload under load");
    assert_eq!(report.epoch, 2);
    assert_eq!(report.node_count, 64);
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);

    let (mut total_a, mut total_b) = (0u64, 0u64);
    for worker in workers {
        let (on_a, on_b) = worker.join().expect("no worker may panic");
        total_a += on_a;
        total_b += on_b;
    }
    assert!(total_a > 0, "batches must have completed on the old epoch");
    assert!(total_b > 0, "batches must have completed on the new epoch");

    let after = control.ping().expect("ping after reload");
    assert_eq!(after.epoch, 2);
    assert_eq!(after.snapshot_path.as_deref(), path_b.to_str());
    let stats = control.stats_json().expect("stats");
    for key in ["\"epoch\":2", "\"reloads\":1", "\"health\":\"ok\""] {
        assert!(stats.contains(key), "stats missing {key}: {stats}");
    }
    assert!(
        stats.contains(&format!("\"snapshot_path\":\"{}\"", path_b.display())),
        "stats names the new snapshot: {stats}"
    );

    control.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("serve loop");
}

#[test]
fn reload_of_a_bad_path_is_refused_and_the_old_epoch_keeps_serving() {
    let est = Arc::new(estimator(5));
    let path = snapshot_file("reload_keep.snap", &est);
    let server = Server::bind_with(
        "127.0.0.1:0",
        paged_engine(&path),
        Some(3),
        Some(path.clone()),
        ServerOptions::default(),
    )
    .expect("bind");
    server.set_reloader(|path: &Path| {
        if path.exists() {
            Ok((paged_engine(path), Some(3)))
        } else {
            Err(format!("{} does not exist", path.display()))
        }
    });
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .reload("/nonexistent/snapshot.snap")
        .expect_err("bad reload must be refused");
    assert!(err.to_string().contains("does not exist"), "{err}");
    let report = client.ping().expect("ping");
    assert_eq!(
        report.epoch, 1,
        "a failed reload must not advance the epoch"
    );
    assert!(client.query(0, 1).expect("still serving") > 0.0);

    client.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("serve loop");
}

#[test]
fn shutdown_under_load_drains_in_flight_batches() {
    let est = Arc::new(estimator(5));
    let engine = QueryEngine::new(
        Arc::clone(&est),
        EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );
    let server = Server::bind_with(
        "127.0.0.1:0",
        engine,
        None,
        None,
        ServerOptions {
            drain_deadline: Duration::from_secs(10),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let pairs: Vec<(u64, u64)> = (0..300).map(|i| (i % 64, (i * 11 + 3) % 64)).collect();
    let expected = reference_bits(&est, &pairs);
    let mut workers = Vec::new();
    for _ in 0..4 {
        let pairs = pairs.clone();
        let expected = expected.clone();
        workers.push(std::thread::spawn(move || -> u64 {
            let mut client = Client::connect(addr).expect("connect");
            let mut completed = 0u64;
            loop {
                // Past the drain point the server closes between requests —
                // a clean error, never a wrong or truncated answer.
                match client.query_batch(&pairs) {
                    Ok(values) => {
                        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits, expected, "an answered batch must be complete");
                        completed += 1;
                    }
                    Err(_) => return completed,
                }
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(200));
    handle.shutdown();
    let final_stats = runner
        .join()
        .expect("server thread")
        .expect("clean serve loop");

    let mut total = 0u64;
    for worker in workers {
        total += worker.join().expect("no worker may panic");
    }
    assert!(total > 0, "batches must have completed before the drain");
    for key in ["\"health\":\"draining\"", "\"requests\"", "\"queries\""] {
        assert!(
            final_stats.contains(key),
            "final stats missing {key}: {final_stats}"
        );
    }
}

#[test]
fn scrubber_progress_shows_in_stats_and_health_stays_ok() {
    let est = Arc::new(estimator(5));
    let path = snapshot_file("scrub.snap", &est);
    let server = Server::bind_with(
        "127.0.0.1:0",
        paged_engine(&path),
        Some(3),
        Some(path),
        ServerOptions {
            // Effectively unthrottled: the walk covers the snapshot within
            // the test's patience.
            scrub_bytes_per_sec: 1 << 30,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let scrubbed = loop {
        let stats = client.stats_json().expect("stats");
        let scrubbed = stats
            .split("\"pages_scrubbed\":")
            .nth(1)
            .and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            })
            .unwrap_or(0u64);
        if scrubbed > 0 || std::time::Instant::now() > deadline {
            break scrubbed;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(scrubbed > 0, "the scrubber must make visible progress");

    let report = client.ping().expect("ping");
    assert_eq!(report.health.as_str(), "ok", "a clean snapshot stays ok");
    let stats = client.stats_json().expect("stats");
    assert!(
        stats.contains("\"scrub_failures\":0") && stats.contains("\"quarantined\":0"),
        "clean data must not be quarantined: {stats}"
    );

    client.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("serve loop");
}
