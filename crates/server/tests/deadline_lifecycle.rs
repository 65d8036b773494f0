//! End-to-end tests of the deadline-aware request lifecycle over real TCP:
//! deadline-carrying batches staying bit-identical, mid-flight expiry
//! with abandoned-work accounting, disconnect-triggered cancellation
//! releasing the admission lease, and the brownout controller restoring
//! goodput under a storm of doomed requests.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::save_snapshot;
use effres_server::{Client, ClientError, PartialBatch, Server, ServerHandle, ServerOptions};
use effres_service::{EngineOptions, QueryEngine};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

const NODES: u64 = 256;

/// Held by every test in this file, so they run one at a time: the goodput
/// test compares two timed phases, and another test's server running
/// during only one of them would skew the comparison.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn snapshot_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let graph = generators::grid_2d(16, 16, 0.5, 2.0, 11).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let dir = std::env::temp_dir().join("effres-deadline-lifecycle");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("deadline-{}.snap", std::process::id()));
        save_snapshot(&path, &estimator, None).expect("save");
        path
    })
}

/// Tiny pages + tiny cache: every batch churns the page cache, so big
/// batches take long enough for deadlines and disconnects to land mid-run.
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

fn serve_with(
    paged: PagedSnapshot,
    options: EngineOptions,
    server_options: ServerOptions,
) -> (
    std::net::SocketAddr,
    ServerHandle<PagedSnapshot>,
    std::thread::JoinHandle<std::io::Result<String>>,
) {
    let engine = QueryEngine::new(Arc::new(paged), options);
    let server =
        Server::bind_with("127.0.0.1:0", engine, Some(3), None, server_options).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

fn serve(
    paged: PagedSnapshot,
    options: EngineOptions,
) -> (
    std::net::SocketAddr,
    ServerHandle<PagedSnapshot>,
    std::thread::JoinHandle<std::io::Result<String>>,
) {
    serve_with(paged, options, ServerOptions::default())
}

/// Fault-free reference over the same snapshot: what every *completed*
/// answer must reproduce bit for bit, cancellation or not.
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

fn assert_bit_identical(served: &[f64], expected: &[f64], context: &str) {
    assert_eq!(served.len(), expected.len(), "{context}: length");
    for (i, (value, reference)) in served.iter().zip(expected).enumerate() {
        assert_eq!(
            value.to_bits(),
            reference.to_bits(),
            "{context}: pair {i} diverged"
        );
    }
}

#[test]
fn deadline_batches_round_trip_bit_identically() {
    let _exclusive = exclusive();
    let paged = open_paged(snapshot_path(), &churny_options()).expect("open");
    let (addr, _handle, runner) = serve(paged, engine_options());

    let pairs: Vec<(u64, u64)> = (0..300)
        .map(|i| ((i * 37 + 5) % NODES, (i * 13 + 1) % NODES))
        .collect();
    let expected = reference_values(&pairs);
    let mut client = Client::connect(addr).expect("connect");

    // A met deadline changes nothing observable: same values, bit for bit,
    // on both all-or-nothing and partial deadline-carrying batches.
    let all = client
        .query_batch_with(&pairs, false, Some(Duration::from_secs(30)))
        .and_then(PartialBatch::into_values)
        .expect("deadline batch");
    assert_bit_identical(&all, &expected, "deadline batch");
    let partial = client
        .query_batch_with(&pairs, true, Some(Duration::from_secs(30)))
        .expect("partial deadline batch");
    assert!(partial.is_complete());
    assert_bit_identical(&partial.values, &expected, "partial deadline batch");

    // Nothing was cancelled, so the lifecycle counters stay at zero and the
    // server is not browned out.
    let stats = client.stats_json().expect("stats");
    assert_eq!(json_u64(&stats, "cancelled_batches"), 0);
    assert_eq!(json_u64(&stats, "deadline_exceeded"), 0);
    assert_eq!(json_u64(&stats, "disconnect_cancels"), 0);
    assert_eq!(json_u64(&stats, "abandoned_pairs"), 0);
    assert_eq!(json_u64(&stats, "brownout_entries"), 0);
    let report = client.ping().expect("ping");
    assert!(!report.brownout);

    client.shutdown_server().expect("shutdown");
    runner.join().expect("thread").expect("serve loop");
}

#[test]
fn expired_deadline_abandons_work_and_keeps_the_connection_usable() {
    let _exclusive = exclusive();
    let paged = open_paged(snapshot_path(), &churny_options()).expect("open");
    let (addr, _handle, runner) = serve(paged, engine_options());
    let mut client = Client::connect(addr).expect("connect");

    // A fresh server has no service-time evidence, so this oversized batch
    // is admitted and its 2 ms budget expires long before the work is done:
    // the batch runs for about 20 ms in a release build (and far longer in
    // a debug build), so expiry holds by construction, not by timing luck.
    let doomed: Vec<(u64, u64)> = (0..40_000)
        .map(|i| ((i * 37 + 5) % NODES, (i * 13 + 1) % NODES))
        .collect();
    match client
        .query_batch_with(&doomed, false, Some(Duration::from_millis(2)))
        .and_then(PartialBatch::into_values)
    {
        Err(ClientError::DeadlineExceeded(message)) => {
            assert!(
                message.contains("deadline"),
                "the typed error explains itself: {message}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The abandoned work is accounted, not silently dropped.
    let stats = client.stats_json().expect("stats");
    assert!(json_u64(&stats, "cancelled_batches") >= 1);
    assert!(json_u64(&stats, "deadline_exceeded") >= 1);
    assert!(json_u64(&stats, "abandoned_pairs") >= 1);
    assert_eq!(json_u64(&stats, "disconnect_cancels"), 0);

    // OP_DEADLINE is an answer, not a hangup: the same connection keeps
    // working and completed answers stay bit-identical.
    let pairs: Vec<(u64, u64)> = (0..200)
        .map(|i| ((i * 7 + 3) % NODES, (i * 29 + 11) % NODES))
        .collect();
    let expected = reference_values(&pairs);
    let served = client.query_batch(&pairs).expect("after the miss");
    assert_bit_identical(&served, &expected, "post-cancel batch");

    client.shutdown_server().expect("shutdown");
    runner.join().expect("thread").expect("serve loop");
}

/// Regression (the bug this PR fixes): a client that disconnects mid-batch
/// used to leave the handler computing to completion, its admission lease
/// and pinned pages held the whole time. The disconnect monitor now trips
/// the cancel token and the lease comes back promptly.
#[test]
fn disconnect_mid_batch_releases_the_admission_lease() {
    let _exclusive = exclusive();
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
        admission_queue_depth: Some(4),
        admission_timeout: Duration::from_secs(60),
        ..engine_options()
    };
    let (addr, handle, runner) = serve(paged, options);

    // Hand-rolled frame: `u32 length | OP_BATCH | u8 flags | u32
    // deadline_ms | u32 count | pairs` — a plain batch (fail-fast, no
    // deadline) from a client that then walks away.
    let pairs: u32 = 60_000;
    let mut payload = Vec::with_capacity(10 + pairs as usize * 16);
    payload.push(effres_server::protocol::OP_BATCH);
    payload.push(0);
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&pairs.to_le_bytes());
    for i in 0..u64::from(pairs) {
        payload.extend_from_slice(&((i * 37 + 5) % NODES).to_le_bytes());
        payload.extend_from_slice(&((i * 13 + 1) % NODES).to_le_bytes());
    }
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .expect("length prefix");
    stream.write_all(&payload).expect("frame body");

    // Wait until the batch holds the pin lease...
    let waited = Instant::now();
    loop {
        let stats = handle.stats_json();
        if json_u64(&stats, "available") < json_u64(&stats, "budget") {
            break;
        }
        assert!(
            waited.elapsed() < Duration::from_secs(20),
            "batch never took its lease"
        );
        std::thread::yield_now();
    }
    // ...then vanish. The FIN reaches the disconnect monitor, which trips
    // the token; the handler abandons the batch and drops the lease.
    drop(stream);
    let waited = Instant::now();
    loop {
        let stats = handle.stats_json();
        if json_u64(&stats, "disconnect_cancels") >= 1
            && json_u64(&stats, "available") == json_u64(&stats, "budget")
        {
            assert!(json_u64(&stats, "cancelled_batches") >= 1);
            assert!(json_u64(&stats, "abandoned_pairs") >= 1);
            // A disconnect is not a deadline miss and not overload.
            assert_eq!(json_u64(&stats, "deadline_exceeded"), 0);
            break;
        }
        assert!(
            waited.elapsed() < Duration::from_secs(30),
            "lease still held after disconnect: {}",
            handle.stats_json()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The reclaimed capacity serves the next client immediately.
    let pairs: Vec<(u64, u64)> = (0..150)
        .map(|i| ((i * 7 + 3) % NODES, (i * 29 + 11) % NODES))
        .collect();
    let expected = reference_values(&pairs);
    let mut client = Client::connect(addr).expect("connect");
    let served = client.query_batch(&pairs).expect("after the disconnect");
    assert_bit_identical(&served, &expected, "post-disconnect batch");
    client.shutdown_server().expect("shutdown");
    runner.join().expect("thread").expect("serve loop");
}

/// Timed live rounds per phase of the deadline-storm test.
const LIVE_ROUNDS: usize = 8;

/// When a storm batch was sent, and when its answer came back (`None` while
/// it is still in flight).
type StormBatch = (Instant, Option<Instant>);

/// The acceptance benchmark as a chaos test: a storm of doomed requests
/// with cancellation ON must leave at least 2× the goodput it leaves with
/// cancellation OFF, brownout must engage during the storm and clear after
/// it, and every surviving answer must stay bit-identical.
#[test]
fn cancellation_recovers_goodput_under_a_deadline_storm() {
    let _exclusive = exclusive();
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
        admission_queue_depth: Some(8),
        admission_timeout: Duration::from_secs(60),
        ..engine_options()
    };
    let (addr, handle, runner) = serve(paged, options);

    let live_pairs: Vec<(u64, u64)> = (0..100)
        .map(|i| ((i * 7 + 3) % NODES, (i * 29 + 11) % NODES))
        .collect();
    let expected = reference_values(&live_pairs);
    let storm_pairs: Vec<(u64, u64)> = (0..20_000)
        .map(|i| ((i * 37 + 5) % NODES, (i * 13 + 1) % NODES))
        .collect();

    // Seed the service-time EWMA so phase B can judge storm batches doomed.
    let mut live = Client::connect(addr).expect("live connect");
    let served = live.query_batch(&live_pairs).expect("seed batch");
    assert_bit_identical(&served, &expected, "seed batch");

    // The storm client's latest batch.
    let latest: Arc<Mutex<Option<StormBatch>>> = Arc::new(Mutex::new(None));
    let run_storm = |deadline: Option<Duration>| {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let storm_pairs = storm_pairs.clone();
        let latest = Arc::clone(&latest);
        let thread = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("storm connect");
            while !flag.load(Ordering::Relaxed) {
                *latest.lock().expect("storm log") = Some((Instant::now(), None));
                match deadline {
                    // Cancellation ON: every storm batch is doomed — shed
                    // up front or cancelled at the first chunk boundary.
                    Some(budget) => match client
                        .query_batch_with(&storm_pairs, false, Some(budget))
                        .and_then(PartialBatch::into_values)
                    {
                        Ok(_) | Err(ClientError::DeadlineExceeded(_)) => {}
                        Err(other) => panic!("storm must be shed cleanly: {other}"),
                    },
                    // Cancellation OFF: without a deadline, each storm
                    // batch grinds to completion while live traffic waits.
                    None => {
                        client.query_batch(&storm_pairs).expect("legacy storm");
                    }
                }
                if let Some((_, done)) = latest.lock().expect("storm log").as_mut() {
                    *done = Some(Instant::now());
                }
            }
        });
        (stop, thread)
    };
    // Blocks until a storm batch is running on the server — in flight from
    // the storm client and holding the pin lease (the idle live client holds
    // none) — and returns when that batch was sent.
    let running_storm_batch = || {
        let in_flight = || match *latest.lock().expect("storm log") {
            Some((sent, None)) => Some(sent),
            _ => None,
        };
        let waited = Instant::now();
        loop {
            if let Some(sent) = in_flight() {
                let stats = handle.stats_json();
                if json_u64(&stats, "available") < json_u64(&stats, "budget")
                    && in_flight() == Some(sent)
                {
                    return sent;
                }
            }
            assert!(
                waited.elapsed() < Duration::from_secs(20),
                "storm never took a lease"
            );
            std::thread::yield_now();
        }
    };

    // Phase A — cancellation OFF. Measure how long live traffic takes while
    // a legacy client hammers huge batches. Only live rounds that ran wholly
    // inside one storm batch are timed: sent while that batch held its
    // lease, answered before it finished. A round that slips into the gap
    // between two storm batches runs uncontended; it is still checked, but
    // timing it would measure no storm at all. Even inside a storm batch a
    // round's wait varies several-fold (a storm batch re-leases at every
    // scheduler round), so both phases sum `LIVE_ROUNDS` rounds.
    let (stop, storm) = run_storm(None);
    let mut without_cancellation = Duration::ZERO;
    let mut timed_rounds = 0;
    for round in 0.. {
        assert!(round < 200, "no live round ran inside a storm batch");
        let storm_sent = running_storm_batch();
        let begun = Instant::now();
        let served = live
            .query_batch(&live_pairs)
            .expect("live under legacy storm");
        let elapsed = begun.elapsed();
        let answered = begun + elapsed;
        assert_bit_identical(&served, &expected, &format!("phase A round {round}"));
        let inside_storm = matches!(
            *latest.lock().expect("storm log"),
            Some((sent, done)) if sent == storm_sent && done.is_none_or(|done| done >= answered)
        );
        if inside_storm {
            without_cancellation += elapsed;
            timed_rounds += 1;
            if timed_rounds == LIVE_ROUNDS {
                break;
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    storm.join().expect("legacy storm thread");

    // Phase B — cancellation ON. Same storm size, 1 ms deadlines: the EWMA
    // sheds them before they queue and the brownout controller engages.
    let (stop, storm) = run_storm(Some(Duration::from_millis(1)));
    let waited = Instant::now();
    loop {
        if json_u64(&handle.stats_json(), "brownout_entries") >= 1 {
            break;
        }
        assert!(
            waited.elapsed() < Duration::from_secs(20),
            "brownout never engaged: {}",
            handle.stats_json()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let begun = Instant::now();
    for round in 0..LIVE_ROUNDS {
        let served = live
            .query_batch(&live_pairs)
            .expect("live under deadline storm");
        assert_bit_identical(&served, &expected, &format!("phase B round {round}"));
    }
    let with_cancellation = begun.elapsed();
    stop.store(true, Ordering::Relaxed);
    storm.join().expect("deadline storm thread");

    assert!(
        without_cancellation >= with_cancellation * 2,
        "cancellation must at least double goodput under the storm: \
         {without_cancellation:?} (off) vs {with_cancellation:?} (on)"
    );

    // The storm's cost is visible: misses counted, abandoned work booked.
    let stats = handle.stats_json();
    assert!(json_u64(&stats, "deadline_exceeded") >= 1);
    assert!(json_u64(&stats, "abandoned_pairs") >= 1);
    assert!(json_u64(&stats, "shed_doomed") >= 1);

    // Brownout is hysteretic: a run of healthy traffic decays the pressure
    // EWMA below the exit threshold and the server reports healthy again.
    let waited = Instant::now();
    loop {
        for _ in 0..5 {
            let served = live.query_batch(&live_pairs).expect("recovery batch");
            assert_bit_identical(&served, &expected, "recovery batch");
        }
        if json_u64(&handle.stats_json(), "brownout_exits") >= 1 {
            break;
        }
        assert!(
            waited.elapsed() < Duration::from_secs(30),
            "brownout never cleared: {}",
            handle.stats_json()
        );
    }
    let report = live.ping().expect("ping");
    assert!(!report.brownout, "brownout cleared after the storm");

    live.shutdown_server().expect("shutdown");
    runner.join().expect("thread").expect("serve loop");
}
