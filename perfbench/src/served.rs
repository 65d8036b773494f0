//! The server workloads: `effres-cli serve` runs as a child process on a
//! snapshot built by the code under test, and the harness drives it over
//! one TCP connection in a closed loop, on the same CPU (see
//! [`util::pin_to_one_cpu`]).
//!
//! * `hot_pairs_server` — resident serving on defaults (including the
//!   65,536-entry pair cache). Requests are 64-pair batches drawn with
//!   Zipf(1.0) popularity from a pool of 1,000,000 distinct random pairs:
//!   short requests, so protocol, handler and per-batch engine overhead
//!   weigh heavily, and repeats let the pair cache pay for itself.
//! * `paged_uniform_server` — `serve --paged --page-cache 128`: the cache
//!   holds 8% of the snapshot's 1,600 pages. Requests are 2,000-pair
//!   batches of uniform random pairs, so page reads, decode and the
//!   locality scheduler dominate, and the pair cache and hub kernel find
//!   almost nothing to reuse.
//!
//! Requests are drawn before the clock starts, so the timed loop spends
//! the CPU only on the wire and the server. Setup is the time from
//! spawning `serve` to the first answered request, the median over several
//! restarts. The snapshot is cached between runs under a key made of the
//! bytes of the harness and `effres-cli` binaries, so a changed program
//! never serves a stale snapshot.

use crate::host::HostSpeed;
use crate::load;
use crate::reference::{config, Reference};
use crate::util::{self, median, ratio, stats_number, Fnv, MIN_TAIL_SAMPLES};
use crate::{Args, Outcome};
use effres::EffectiveResistanceEstimator;
use effres_graph::Graph;
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::{load_snapshot, save_snapshot};
use effres_server::Client;
use effres_service::{BatchResult, EngineOptions, QueryBatch, QueryEngine};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE_CACHE_PAGES: usize = 128;
const HOT_POOL: usize = 1_000_000;

/// Stream tags: request `i` of a stream is a pure function of
/// `(seed, tag, i)`.
const TAG_SETUP: u64 = 0;
const TAG_REQUESTS: u64 = 1;
const TAG_POOL: u64 = 1000;

/// Closed-loop requests whose answers are kept and checked bit for bit
/// against the in-process engine.
const CHECK_EVERY: u64 = 16;
const CHECK_KEEP: usize = 64;

/// Host-speed samples taken right before and right after each restart.
const RESTART_SAMPLES: usize = 2;

struct Spec {
    paged: bool,
    pairs_per_request: usize,
    /// Requests drawn up front. The closed loop cycles through them; the
    /// warm-up sends the last `warmup` of them, which the closed loop
    /// reaches only after `requests - warmup`.
    requests: usize,
    warmup: usize,
    restarts: usize,
    /// Closed-loop requests replayed in-process by the traced pass.
    replay: usize,
}

/// 32,768 requests are 2.1M Zipf draws: a pair repeated from one cycle to
/// the next is two million draws apart, far beyond the pair cache, so
/// cycling changes its hit ratio no more than fresh draws would.
const HOT: Spec = Spec {
    paged: false,
    pairs_per_request: 64,
    requests: 32_768,
    warmup: 2_000,
    restarts: 5,
    replay: 4_000,
};

/// At 150–250 ms per request, a 16-s run sends about a hundred, so none
/// repeats.
const PAGED: Spec = Spec {
    paged: true,
    pairs_per_request: 2000,
    requests: 512,
    warmup: 5,
    restarts: 11,
    replay: 10,
};

/// How requests are drawn.
enum Stream {
    /// Zipf(1.0) over a seeded pool of distinct pairs; `cdf[k]` is the
    /// popularity mass of ranks `0..=k`.
    Hot {
        pool: Vec<(u64, u64)>,
        cdf: Vec<f64>,
        pairs: usize,
    },
    Uniform {
        nodes: u64,
        pairs: usize,
    },
}

impl Stream {
    fn new(spec: &Spec, seed: u64, nodes: u64) -> Stream {
        if spec.paged {
            return Stream::Uniform {
                nodes,
                pairs: spec.pairs_per_request,
            };
        }
        let mut state = util::stream_state(seed, TAG_POOL, 0);
        let mut seen = HashSet::with_capacity(HOT_POOL);
        let mut pool = Vec::with_capacity(HOT_POOL);
        while pool.len() < HOT_POOL {
            let (p, q) = util::random_pair(&mut state, nodes);
            if seen.insert((p.min(q), p.max(q))) {
                pool.push((p, q));
            }
        }
        let mut mass = 0.0;
        let cdf = (1..=HOT_POOL)
            .map(|rank| {
                mass += 1.0 / rank as f64;
                mass
            })
            .collect();
        Stream::Hot {
            pool,
            cdf,
            pairs: spec.pairs_per_request,
        }
    }

    fn request(&self, seed: u64, tag: u64, index: u64) -> Vec<(u64, u64)> {
        let mut state = util::stream_state(seed, tag, index);
        match self {
            Stream::Hot { pool, cdf, pairs } => {
                let total = *cdf.last().expect("pool is not empty");
                (0..*pairs)
                    .map(|_| {
                        let u = (util::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                        let rank = cdf.partition_point(|&c| c <= u * total);
                        pool[rank.min(pool.len() - 1)]
                    })
                    .collect()
            }
            Stream::Uniform { nodes, pairs } => (0..*pairs)
                .map(|_| util::random_pair(&mut state, *nodes))
                .collect(),
        }
    }
}

fn to_batch(pairs: &[(u64, u64)]) -> QueryBatch {
    QueryBatch::from_pairs(
        pairs
            .iter()
            .map(|&(p, q)| (p as usize, q as usize))
            .collect(),
    )
}

/// A running `effres-cli serve` child. Dropping it kills the process if it
/// is still running and waits for it.
struct Served {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Served {
    fn start(cli: &Path, snapshot: &Path, paged: bool) -> Result<Served, String> {
        let mut command = Command::new(cli);
        command
            .arg("serve")
            .arg(snapshot)
            .args(["--host", "127.0.0.1", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if paged {
            command.args(["--paged", "--page-cache", &PAGE_CACHE_PAGES.to_string()]);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut served = Served {
            child,
            addr: String::new(),
            drain: None,
        };
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("reading serve output: {e}"))?;
            if let Some(rest) = line.strip_prefix("serving on ") {
                served.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                break;
            }
        }
        if served.addr.is_empty() {
            return Err("serve exited before listening".to_string());
        }
        served.drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        Ok(served)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    fn stats(&self) -> Result<String, String> {
        self.connect()?.stats_json().map_err(|e| e.to_string())
    }

    fn peak_rss_mib(&self) -> f64 {
        util::peak_rss_mib(&self.child.id().to_string())
    }

    /// Asks the server to drain and exit, and waits for it.
    fn stop(mut self) -> Result<(), String> {
        self.connect()?
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("serve did not exit after shutdown".to_string())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The snapshot the server workloads serve, built by the code under test
/// and cached under the hash of the binaries under test.
fn snapshot(args: &Args, graph: &Graph) -> Result<PathBuf, String> {
    let read = |path: &Path| std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()));
    let harness = std::env::current_exe().map_err(|e| e.to_string())?;
    let key = Fnv::new()
        .bytes(&read(&harness)?)
        .bytes(&read(&args.cli)?)
        .0;
    let path = args.cache_dir.join(format!("grid320-{key:016x}.snap"));
    if !path.exists() {
        std::fs::create_dir_all(&args.cache_dir).map_err(|e| e.to_string())?;
        for stale in std::fs::read_dir(&args.cache_dir).map_err(|e| e.to_string())? {
            let stale = stale.map_err(|e| e.to_string())?.path();
            if stale
                .extension()
                .is_some_and(|ext| ext == "snap" || ext == "tmp")
            {
                std::fs::remove_file(&stale).map_err(|e| e.to_string())?;
            }
        }
        let started = Instant::now();
        let estimator =
            EffectiveResistanceEstimator::build(graph, &config()).map_err(|e| e.to_string())?;
        let partial = path.with_extension("tmp");
        save_snapshot(&partial, &estimator, None).map_err(|e| e.to_string())?;
        std::fs::rename(&partial, &path).map_err(|e| e.to_string())?;
        eprintln!(
            "built snapshot {} in {:.1}s",
            path.display(),
            started.elapsed().as_secs_f64()
        );
    }
    // Pull the file into the OS page cache so every start reads it warm.
    drop(read(&path)?);
    Ok(path)
}

/// The in-process engine on the same snapshot, for the bit-identity check
/// and the traced replay. `served` is the path the server takes.
enum InProcess {
    Resident(QueryEngine),
    Paged(QueryEngine<PagedSnapshot>),
}

impl InProcess {
    fn open(snapshot: &Path, paged: bool, options: EngineOptions) -> Result<InProcess, String> {
        Ok(if paged {
            let store = open_paged(
                snapshot,
                &PagedOptions::default().with_cache_pages(PAGE_CACHE_PAGES),
            )
            .map_err(|e| e.to_string())?;
            InProcess::Paged(QueryEngine::new(Arc::new(store), options))
        } else {
            let loaded = load_snapshot(snapshot).map_err(|e| e.to_string())?;
            InProcess::Resident(QueryEngine::new(Arc::new(loaded.estimator), options))
        })
    }

    fn served(&self, batch: &QueryBatch) -> Result<BatchResult, String> {
        match self {
            InProcess::Resident(engine) => engine.execute(batch),
            InProcess::Paged(engine) => engine.execute_scheduled(batch),
        }
        .map_err(|e| e.to_string())
    }

    fn execute(&self, batch: &QueryBatch) -> Result<BatchResult, String> {
        match self {
            InProcess::Resident(engine) => engine.execute(batch),
            InProcess::Paged(engine) => engine.execute(batch),
        }
        .map_err(|e| e.to_string())
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The requests of a run: `requests[i]` is closed-loop request `i`
/// modulo their number.
fn draw(spec: &Spec, stream: &Stream, seed: u64) -> Vec<Vec<(u64, u64)>> {
    (0..spec.requests as u64)
        .map(|index| stream.request(seed, TAG_REQUESTS, index))
        .collect()
}

pub fn run(args: &Args, graph: &Graph, reference: &Reference) -> Result<Outcome, String> {
    let spec = if args.workload == "paged_uniform_server" {
        &PAGED
    } else {
        &HOT
    };
    let snapshot = snapshot(args, graph)?;
    let stream = Stream::new(spec, args.seed, graph.node_count() as u64);
    let requests = draw(spec, &stream, args.seed);
    let mut host = HostSpeed::new();

    // Setup: spawn to first answer, over several restarts; the last server
    // stays up for the closed loop.
    let restarts = if args.trace { 1 } else { spec.restarts };
    let (mut setup, mut setup_raw) = (Vec::new(), Vec::new());
    let mut server = None;
    for restart in 0..restarts {
        if let Some(previous) = server.take() {
            Served::stop(previous)?;
        }
        host.samples(RESTART_SAMPLES);
        let started = Instant::now();
        let fresh = Served::start(&args.cli, &snapshot, spec.paged)?;
        fresh
            .connect()?
            .query_batch(&stream.request(args.seed, TAG_SETUP, restart as u64)[..1])
            .map_err(|e| format!("first request: {e}"))?;
        let done = Instant::now();
        host.samples(RESTART_SAMPLES);
        setup.push(host.seconds(started, done));
        setup_raw.push((done - started).as_secs_f64());
        server = Some(fresh);
    }
    let server = server.expect("at least one start");
    eprintln!(
        "{} setup {setup_raw:?} s, at reference speed {setup:?} s",
        args.workload
    );

    let mut wire = server.connect()?;
    let warm = &requests[spec.requests - spec.warmup..];
    for pairs in warm {
        wire.query_batch(pairs)
            .map_err(|e| format!("warm-up request: {e}"))?;
    }
    let mut kept: Vec<(usize, Vec<f64>)> = Vec::new();
    let closed = load::closed_loop(&mut host, args.seconds, MIN_TAIL_SAMPLES, |index| {
        let slot = index as usize % requests.len();
        let values = wire
            .query_batch(&requests[slot])
            .map_err(|e| e.to_string())?;
        if index.is_multiple_of(CHECK_EVERY) && kept.len() < CHECK_KEEP {
            kept.push((slot, values.clone()));
        }
        Ok(values.len())
    });
    let final_stats = server.stats()?;
    let peak_rss_mib = server.peak_rss_mib();

    // Correctness: the reference sample and kept closed-loop answers, as
    // served over the wire, against the in-process engine.
    let mut wire_answers = |pairs: &[(usize, usize)]| {
        let pairs: Vec<(u64, u64)> = pairs.iter().map(|&(p, q)| (p as u64, q as u64)).collect();
        wire.query_batch(&pairs)
            .map_err(|e| format!("reference batch: {e}"))
    };
    let wire_edges = wire_answers(&reference.edges)?;
    let wire_pairs = wire_answers(&reference.pairs)?;
    drop(wire);
    Served::stop(server)?;

    let local = InProcess::open(
        &snapshot,
        spec.paged,
        EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    )?;
    let mut correct = Ok(());
    let local_answers =
        |pairs: &[(usize, usize)]| local.served(&QueryBatch::from_pairs(pairs.to_vec()));
    if !same_bits(&wire_edges, &local_answers(&reference.edges)?.values)
        || !same_bits(&wire_pairs, &local_answers(&reference.pairs)?.values)
    {
        correct = Err("reference answers over the wire differ from in-process".to_string());
    }
    for (slot, values) in &kept {
        if !same_bits(values, &local.served(&to_batch(&requests[*slot]))?.values) {
            correct = Err(format!(
                "closed-loop request {slot} differs from in-process"
            ));
        }
    }
    drop(local);
    let accuracy = reference.accuracy(&wire_edges, &wire_pairs);
    if correct.is_ok() {
        correct = accuracy.check();
    }

    let mut outcome = Outcome {
        correct,
        attempted: closed.attempted + warm.len() as u64,
        failed: closed.failed,
        ..Outcome::default()
    };
    eprintln!(
        "{} closed: {} (host speed {:.3}); checked {} served requests",
        args.workload,
        util::describe(&closed.latencies_ms()),
        host.median_speed(),
        kept.len()
    );
    let m = &mut outcome.metrics;
    if args.trace {
        traced(spec, &snapshot, &requests, &final_stats, m)?;
        let handler_p50 = m["server.handler_p50_ms"];
        m.insert("server.wire_p50_ms", closed.raw_p50_ms() - handler_p50);
        m.insert(
            "client.failed_ratio",
            ratio(outcome.failed as f64, outcome.attempted as f64),
        );
        m.insert(
            "workload.repeat_share",
            repeat_share(&requests[..requests.len().min(closed.samples.len())]),
        );
        m.insert("host.speed", host.median_speed());
    } else {
        let (p50, tail) = closed.p50_and_tail();
        m.insert("setup_s", median(&setup));
        m.insert("queries_per_s", closed.pairs_per_second());
        m.insert("latency_p50_ms", p50);
        m.insert("latency_tail_ms", tail);
        m.insert("peak_rss_mib", peak_rss_mib);
        m.insert("edge_rel_err_mean", accuracy.edge_mean);
        m.insert("edge_rel_err_max", accuracy.edge_max);
        m.insert("pair_rel_err_mean", accuracy.pair_mean);
        m.insert("pair_rel_err_max", accuracy.pair_max);
    }
    Ok(outcome)
}

/// Share of the requests' pairs that repeat an earlier pair.
fn repeat_share(requests: &[Vec<(u64, u64)>]) -> f64 {
    let mut seen = HashSet::new();
    let mut total = 0usize;
    for &(p, q) in requests.iter().flatten() {
        seen.insert((p.min(q), p.max(q)));
        total += 1;
    }
    ratio((total - seen.len()) as f64, total as f64)
}

/// The traced pass: the server's own stats, then the closed-loop stream
/// replayed in-process against the layers below the server.
fn traced(
    spec: &Spec,
    snapshot: &Path,
    requests: &[Vec<(u64, u64)>],
    final_stats: &str,
    m: &mut std::collections::BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    // Handler latency as the server records it, in its log-linear
    // histogram (about 3% resolution, p50/p95/p99 only). The wire share is
    // the client's p50 minus the handler's: on requests of tens of
    // milliseconds it is within that resolution and can come out negative.
    let handled = stats_number(final_stats, "count");
    m.insert(
        "server.handler_p50_ms",
        stats_number(final_stats, "p50") / 1e3,
    );
    let tail_key = if handled >= 1000.0 { "p99" } else { "p95" };
    m.insert(
        "server.handler_tail_ms",
        stats_number(final_stats, tail_key) / 1e3,
    );
    let hits = stats_number(final_stats, "pair_cache_hits");
    let misses = stats_number(final_stats, "pair_cache_misses");
    m.insert("engine.pair_cache_hit_ratio", ratio(hits, hits + misses));
    let page_hits = stats_number(final_stats, "page_cache_hits");
    let page_misses = stats_number(final_stats, "page_cache_misses");
    m.insert(
        "io.page_miss_ratio",
        ratio(page_misses, page_hits + page_misses),
    );
    m.insert(
        "io.bytes_read_per_pair",
        ratio(
            stats_number(final_stats, "page_bytes_read"),
            stats_number(final_stats, "queries"),
        ),
    );
    m.insert("io.page_retries", stats_number(final_stats, "page_retries"));
    m.insert(
        "admission.queued",
        if final_stats.contains("\"admission\":null") {
            0.0
        } else {
            stats_number(final_stats, "queued")
        },
    );

    // Replay the closed loop's first requests in-process, with the
    // server's engine options.
    let batches: Vec<QueryBatch> = (0..spec.replay)
        .map(|index| to_batch(&requests[index % requests.len()]))
        .collect();
    let opened = Instant::now();
    let local = InProcess::open(snapshot, spec.paged, EngineOptions::default())?;
    let open_s = opened.elapsed().as_secs_f64();
    let (load_key, other_key) = if spec.paged {
        ("io.open_paged_s", "io.snapshot_load_s")
    } else {
        ("io.snapshot_load_s", "io.open_paged_s")
    };
    m.insert(load_key, open_s);
    m.insert(other_key, 0.0);

    let mut served_ms = Vec::new();
    let mut kernel = effres::KernelStats::default();
    let (mut blocks, mut windows) = (0.0, 0.0);
    for batch in &batches {
        let result = local.served(batch)?;
        served_ms.push(result.elapsed.as_secs_f64() * 1e3);
        kernel.merge(result.kernel);
        if let Some(schedule) = result.schedule {
            blocks += schedule.blocks as f64;
            windows += schedule.windows as f64;
        }
    }
    m.insert(
        "kernel.bytes_per_pair",
        ratio(kernel.bytes_streamed as f64, kernel.pairs() as f64),
    );
    m.insert("kernel.pairs_per_hub_load", kernel.pairs_per_hub_load());
    let replayed = batches.len() as f64;
    if spec.paged {
        m.insert("scheduler.execute_ms_p50", median(&served_ms));
        m.insert("scheduler.blocks_per_batch", blocks / replayed);
        m.insert("scheduler.windows_per_batch", windows / replayed);
        // The unscheduled engine path on a fresh store, for comparison.
        let fresh = InProcess::open(snapshot, true, EngineOptions::default())?;
        let mut execute_ms = Vec::new();
        for batch in &batches {
            execute_ms.push(fresh.execute(batch)?.elapsed.as_secs_f64() * 1e3);
        }
        m.insert("engine.execute_ms_p50", median(&execute_ms));
        let InProcess::Paged(engine) = &fresh else {
            unreachable!("opened paged")
        };
        m.insert("io.page_fetch_ms", page_fetch_ms(engine.backend()));
    } else {
        m.insert("engine.execute_ms_p50", median(&served_ms));
        for bypassed in [
            "scheduler.execute_ms_p50",
            "scheduler.blocks_per_batch",
            "scheduler.windows_per_batch",
            "io.page_fetch_ms",
        ] {
            m.insert(bypassed, 0.0);
        }
    }
    for bypassed in [
        "build.ordering_s",
        "build.ichol_s",
        "build.inverse_s",
        "build.inverse_nnz",
        "build.traced_sum_ratio",
        "kernel.ns_per_pair",
        "trace.overhead_s",
    ] {
        m.insert(bypassed, 0.0);
    }
    Ok(())
}

/// Mean time to read, decode and validate one page, over a fixed sample
/// of 64 pages spread across the file (`scrub_page` bypasses the cache).
fn page_fetch_ms(snapshot: &PagedSnapshot) -> f64 {
    let pages = snapshot.store.page_count();
    let sample: Vec<usize> = (0..64).map(|i| i * pages / 64).collect();
    let started = Instant::now();
    for &page in &sample {
        snapshot
            .store
            .scrub_page(page)
            .expect("healthy snapshot page");
    }
    started.elapsed().as_secs_f64() * 1e3 / sample.len() as f64
}
