//! The serving loop: a TCP listener multiplexing every connection onto one
//! shared [`QueryEngine`].
//!
//! Each accepted connection gets a handler thread that parses frames (see
//! [`crate::protocol`]), answers them against the shared engine, and
//! records per-request latency into a process-wide
//! [`LatencyHistogram`]. The engine is the concurrency story: it is
//! `Sync`, batches fan out on its worker pool, the pair cache is sharded,
//! and — on the paged backend — concurrent batches lease pin capacity from
//! the engine's admission ledger, so many clients can run large batches
//! without over-pinning the page cache. The server is generic over the
//! engine's [`ResistanceBackend`]; every [`OP_BATCH`] goes through one
//! handler and [`QueryEngine::execute_with`], which runs paged batches
//! through the locality scheduler.
//!
//! Shutdown is cooperative and **graceful**: an [`OP_SHUTDOWN`]
//! request (or [`ServerHandle::shutdown`], which the CLI's SIGINT/SIGTERM
//! handler also calls) sets a flag and wakes the listener with a loopback
//! connection. [`Server::run`] then drains: it closes the listener, lets
//! every in-flight request finish (handlers notice the flag within their
//! poll interval once their buffered requests are answered), and waits up
//! to [`ServerOptions::drain_deadline`] before giving up on stragglers —
//! so a normal shutdown drops no request mid-frame.
//!
//! The engine rides behind an **epoch-versioned handle**
//! ([`EngineEpoch`]): every request pins the current epoch's `Arc` before
//! touching the engine, so [`OP_RELOAD`] can
//! atomically swap in a freshly opened snapshot with zero downtime —
//! in-flight batches finish on the epoch they started with, requests
//! accepted after the swap serve the new one, and the old engine (its page
//! cache and buffer pools included) drops when its last pinned request
//! completes.
//!
//! When serving a paged snapshot with a scrub rate configured
//! ([`ServerOptions::scrub_bytes_per_sec`]), a low-priority **integrity
//! scrubber** thread walks the snapshot's pages in the background,
//! revalidating each with the same checks the fetch path applies; rotten
//! pages are quarantined out of the cache. Its findings ride in the stats
//! document and in the `health` byte of [`OP_PING`].
//!
//! The [`OP_STATS`] response is a JSON object with stable keys, rendered
//! by the workspace's one JSON writer ([`crate::json`]). It carries the
//! backend identity (including the snapshot format version, path, epoch
//! and reload count), cumulative service counters, admission-ledger state,
//! scrubber counters, the health state, the latency quantiles
//! (p50/p95/p99 in microseconds) and overall queries-per-second
//! throughput.

use crate::json::Json;
use crate::protocol::{
    write_frame, Health, PayloadReader, BATCH_FLAG_PARTIAL, MAX_FRAME_BYTES, OP_BATCH, OP_BATCH_OK,
    OP_BATCH_PARTIAL_OK, OP_BUSY, OP_DEADLINE, OP_ERROR, OP_HELLO, OP_HELLO_OK, OP_PING,
    OP_PING_OK, OP_QUERY, OP_QUERY_OK, OP_RELOAD, OP_RELOAD_OK, OP_SHUTDOWN, OP_SHUTDOWN_OK,
    OP_STATS, OP_STATS_OK, STATUS_BUSY, STATUS_DEADLINE, STATUS_OK, STATUS_OTHER,
    STATUS_OUT_OF_BOUNDS, STATUS_STORE_FAILURE,
};
use effres::{CancelReason, EffectiveResistanceEstimator, EffresError};
use effres_service::{
    BatchResult, CancelToken, ExecMode, ExecOptions, LatencyHistogram, QueryBatch, QueryEngine,
    ResistanceBackend,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// How often an idle connection handler re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Batches below this size skip the disconnect-monitor thread: they finish
/// in well under one monitor poll interval, so the thread could never trip
/// the token before the answer ships.
const MONITOR_MIN_PAIRS: usize = 512;

/// How often the disconnect monitor peeks at the socket while a batch
/// computes — the bound on how long an abandoned connection keeps its
/// admission lease and pinned pages past the next chunk boundary.
const MONITOR_POLL: Duration = Duration::from_millis(50);

/// Smoothing factor of the brownout pressure EWMA: one shed/ok sample per
/// batch outcome, so ~10 consecutive sheds saturate it and ~20 consecutive
/// successes drain it back below the default exit threshold.
const BROWNOUT_ALPHA: f64 = 0.1;

/// Connection-level tuning of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerOptions {
    /// How long a connection may sit **mid-frame** (a length prefix
    /// arrived, the payload did not finish) before the server closes it. A
    /// client that stalls mid-payload used to park its handler thread
    /// forever; now it is cut loose and counted
    /// (`deadline_closes` in the stats document).
    pub frame_deadline: Duration,
    /// How long a connection may sit **idle** (no request in flight, empty
    /// receive buffer) before the server closes it to reclaim the handler
    /// thread (`idle_closes` in the stats document). Healthy clients
    /// reconnect transparently ([`crate::Client::connect_with`]).
    pub idle_deadline: Duration,
    /// How long [`Server::run`] waits for in-flight requests after shutdown
    /// is requested. Handlers that finish within the deadline are joined
    /// (the normal case: a handler needs one poll interval plus whatever
    /// its current batch takes); stragglers past it are abandoned so the
    /// process can exit.
    pub drain_deadline: Duration,
    /// Target byte rate of the background integrity scrubber on paged
    /// backends; `0` disables it. The scrubber fetches and revalidates one
    /// page at a time, sleeping between pages so its disk traffic averages
    /// this rate — size it well below the disk's bandwidth so serving
    /// traffic keeps priority.
    pub scrub_bytes_per_sec: u64,
    /// Brownout entry threshold: when the EWMA of batch outcomes (1.0 for a
    /// shed or deadline miss, 0.0 for a success) reaches this value the
    /// server enters **brownout** — `health` flips to degraded and
    /// fail-fast batches are served in partial mode so answers computed
    /// before pressure cuts a batch short still ship. Set above `1.0` to
    /// disable brownout entirely.
    pub brownout_enter: f64,
    /// Brownout exit threshold: the pressure EWMA must decay to this value
    /// (successes drain it) before the server leaves brownout. Keep it well
    /// below `brownout_enter` so the controller has hysteresis instead of
    /// flapping at the boundary.
    pub brownout_exit: f64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            frame_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(300),
            drain_deadline: Duration::from_secs(30),
            scrub_bytes_per_sec: 0,
            brownout_enter: 0.5,
            brownout_exit: 0.1,
        }
    }
}

/// One epoch of serving: an engine plus the identity of the snapshot it was
/// opened from. Requests pin the current epoch's `Arc` before touching the
/// engine, so a hot reload ([`crate::protocol::OP_RELOAD`]) swaps the handle
/// atomically while in-flight work finishes on the epoch it started with;
/// the old engine — page cache and buffer pools included — drops with the
/// last pinned request.
#[derive(Debug)]
pub struct EngineEpoch<B: ResistanceBackend = EffectiveResistanceEstimator> {
    /// The engine serving this epoch.
    pub engine: QueryEngine<B>,
    /// Monotonic epoch number, starting at 1 for the engine the server was
    /// bound with and incremented by every successful reload.
    pub epoch: u64,
    /// The snapshot file this epoch serves, when it came from one.
    pub snapshot_path: Option<PathBuf>,
    /// Snapshot format version of that file (v1/v2/v3); `None` for
    /// estimators built in memory.
    pub snapshot_version: Option<u32>,
}

/// The closure hot reload uses to open a snapshot into a fresh engine of the
/// same backend. The host installs it ([`Server::set_reloader`]) so the
/// server crate stays agnostic of how engines are configured — the CLI's
/// reloader reapplies the same backend, cache and worker-pool choices
/// `serve` started with.
pub type Reloader<B = EffectiveResistanceEstimator> =
    Box<dyn Fn(&Path) -> Result<(QueryEngine<B>, Option<u32>), String> + Send + Sync>;

/// State shared by the accept loop and every connection handler.
struct Shared<B: ResistanceBackend> {
    /// The current serving epoch, swapped whole on reload. Readers take the
    /// lock only long enough to clone the `Arc`.
    engine: RwLock<Arc<EngineEpoch<B>>>,
    /// Opens snapshots for [`crate::protocol::OP_RELOAD`]; reloads are
    /// refused until the host installs one.
    reloader: OnceLock<Reloader<B>>,
    /// Successful hot reloads since the server was bound.
    reloads: AtomicU64,
    /// Handler threads currently serving a connection — the drain loop
    /// waits for this to reach zero.
    active_handlers: AtomicUsize,
    options: ServerOptions,
    latency: LatencyHistogram,
    started: Instant,
    shutdown: AtomicBool,
    addr: SocketAddr,
    connections: AtomicU64,
    requests: AtomicU64,
    /// Malformed requests: empty frames, bad bodies, unknown opcodes.
    protocol_errors: AtomicU64,
    /// Connections dropped at the framing layer: oversized length prefix,
    /// or a hard stream error mid-read.
    frame_errors: AtomicU64,
    /// Connections closed because a frame stalled mid-payload past
    /// [`ServerOptions::frame_deadline`].
    deadline_closes: AtomicU64,
    /// Connections closed after sitting idle past
    /// [`ServerOptions::idle_deadline`].
    idle_closes: AtomicU64,
    /// Requests answered with [`OP_BUSY`] (admission shed).
    busy_rejections: AtomicU64,
    /// Queries that failed with a typed store failure (exhausted retries,
    /// persistent corruption) — whole-request for `OP_QUERY` and fail-fast
    /// batches, per-query for partial ones.
    store_failures: AtomicU64,
    /// Partial batches that carried at least one failed query.
    partial_batches: AtomicU64,
    /// Batches cut short by a tripped cancellation token — deadline expiry,
    /// disconnect, or an unmeetable deadline shed up front.
    cancelled_batches: AtomicU64,
    /// Batch requests whose deadline expired mid-computation or was judged
    /// unmeetable at admission (answered [`OP_DEADLINE`] or with
    /// [`STATUS_DEADLINE`] tails).
    deadline_exceeded: AtomicU64,
    /// Cancellations tripped by the disconnect monitor: the client hung up
    /// while its batch was computing, and the remaining work was reclaimed.
    disconnect_cancels: AtomicU64,
    /// Pairs whose computation was abandoned by cancellation — work the
    /// engine never spent because the answer had no recipient.
    abandoned_pairs: AtomicU64,
    /// Whether the brownout controller currently holds the server in
    /// degraded overload mode.
    brownout_active: AtomicBool,
    /// Times the pressure EWMA crossed [`ServerOptions::brownout_enter`].
    brownout_entries: AtomicU64,
    /// Times the pressure EWMA decayed past [`ServerOptions::brownout_exit`].
    brownout_exits: AtomicU64,
    /// Bit pattern of the `f64` pressure EWMA over batch outcomes (1.0 =
    /// shed or deadline miss, 0.0 = success).
    pressure_bits: AtomicU64,
}

impl<B: ResistanceBackend> std::fmt::Debug for Shared<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("addr", &self.addr)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl<B: ResistanceBackend> Shared<B> {
    /// Pins the current serving epoch: one lock acquisition, one `Arc`
    /// clone. Every request (and the scrubber) goes through this, so a
    /// reload mid-request never swaps an engine out from under anyone.
    fn current_epoch(&self) -> Arc<EngineEpoch<B>> {
        Arc::clone(&self.engine.read().expect("engine lock poisoned"))
    }

    /// Opens `path` through the installed reloader and atomically swaps the
    /// serving epoch. Returns the new epoch's identity.
    fn reload(&self, path: &Path) -> Result<(u64, u64, u32), String> {
        let reloader = self
            .reloader
            .get()
            .ok_or_else(|| "this server has no reloader installed".to_string())?;
        let (engine, snapshot_version) = reloader(path)?;
        let node_count = engine.node_count() as u64;
        let version = snapshot_version.unwrap_or(0);
        let mut guard = self.engine.write().expect("engine lock poisoned");
        let epoch = guard.epoch + 1;
        *guard = Arc::new(EngineEpoch {
            engine,
            epoch,
            snapshot_path: Some(path.to_path_buf()),
            snapshot_version,
        });
        drop(guard);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        Ok((epoch, node_count, version))
    }

    /// The server's health state: draining once shutdown is requested,
    /// degraded while brownout holds or typed store failures or scrubber
    /// findings are on the books, ok otherwise.
    fn health(&self) -> Health {
        if self.shutdown.load(Ordering::SeqCst) {
            return Health::Draining;
        }
        let degraded = self.brownout_active.load(Ordering::Relaxed)
            || self.store_failures.load(Ordering::Relaxed) > 0
            || self
                .current_epoch()
                .engine
                .backend()
                .paged_store()
                .is_some_and(|store| store.scrub_stats().scrub_failures > 0);
        if degraded {
            Health::Degraded
        } else {
            Health::Ok
        }
    }

    /// Feeds one batch outcome into the brownout controller: updates the
    /// pressure EWMA (1.0 for a shed or deadline miss, 0.0 for a success)
    /// and flips brownout on crossing [`ServerOptions::brownout_enter`] /
    /// off on decaying past [`ServerOptions::brownout_exit`].
    fn note_batch_outcome(&self, shed: bool) {
        let sample = if shed { 1.0 } else { 0.0 };
        let mut old_bits = self.pressure_bits.load(Ordering::Relaxed);
        let pressure = loop {
            let old = f64::from_bits(old_bits);
            let new = old + BROWNOUT_ALPHA * (sample - old);
            match self.pressure_bits.compare_exchange_weak(
                old_bits,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break new,
                Err(current) => old_bits = current,
            }
        };
        if !self.brownout_active.load(Ordering::Relaxed) {
            if pressure >= self.options.brownout_enter
                && !self.brownout_active.swap(true, Ordering::SeqCst)
            {
                self.brownout_entries.fetch_add(1, Ordering::Relaxed);
            }
        } else if pressure <= self.options.brownout_exit
            && self.brownout_active.swap(false, Ordering::SeqCst)
        {
            self.brownout_exits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Books a cancellation: one cancelled batch, its abandoned pairs, and
    /// the per-cause counter (`disconnect_cancels` or `deadline_exceeded`).
    fn note_cancellation(&self, reason: CancelReason, abandoned: u64) {
        self.cancelled_batches.fetch_add(1, Ordering::Relaxed);
        self.abandoned_pairs.fetch_add(abandoned, Ordering::Relaxed);
        match reason {
            CancelReason::Disconnected => {
                self.disconnect_cancels.fetch_add(1, Ordering::Relaxed);
            }
            CancelReason::DeadlineExpired | CancelReason::Unmeetable => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A bound, not-yet-running server over one backend type. [`Server::run`]
/// blocks until shutdown.
#[derive(Debug)]
pub struct Server<B: ResistanceBackend = EffectiveResistanceEstimator> {
    listener: TcpListener,
    shared: Arc<Shared<B>>,
}

/// A cheap handle onto a running (or about-to-run) server: lets another
/// thread observe the bound address, read stats, or trigger shutdown.
#[derive(Debug)]
pub struct ServerHandle<B: ResistanceBackend = EffectiveResistanceEstimator> {
    shared: Arc<Shared<B>>,
}

impl<B: ResistanceBackend> Clone for ServerHandle<B> {
    fn clone(&self) -> Self {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<B: ResistanceBackend> Server<B> {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over a
    /// shared engine with default [`ServerOptions`]. `snapshot_version`
    /// names the on-disk format being served, when the engine came from a
    /// snapshot file.
    pub fn bind(
        addr: &str,
        engine: QueryEngine<B>,
        snapshot_version: Option<u32>,
    ) -> io::Result<Server<B>> {
        Server::bind_with(
            addr,
            engine,
            snapshot_version,
            None,
            ServerOptions::default(),
        )
    }

    /// [`Server::bind`] with explicit connection deadlines, and optionally
    /// the snapshot file the engine was opened from (reported by `OP_PING`
    /// and the stats document, and updated by every reload).
    pub fn bind_with(
        addr: &str,
        engine: QueryEngine<B>,
        snapshot_version: Option<u32>,
        snapshot_path: Option<PathBuf>,
        options: ServerOptions,
    ) -> io::Result<Server<B>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                engine: RwLock::new(Arc::new(EngineEpoch {
                    engine,
                    epoch: 1,
                    snapshot_path,
                    snapshot_version,
                })),
                reloader: OnceLock::new(),
                reloads: AtomicU64::new(0),
                active_handlers: AtomicUsize::new(0),
                options,
                latency: LatencyHistogram::new(),
                started: Instant::now(),
                shutdown: AtomicBool::new(false),
                addr,
                connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                protocol_errors: AtomicU64::new(0),
                frame_errors: AtomicU64::new(0),
                deadline_closes: AtomicU64::new(0),
                idle_closes: AtomicU64::new(0),
                busy_rejections: AtomicU64::new(0),
                store_failures: AtomicU64::new(0),
                partial_batches: AtomicU64::new(0),
                cancelled_batches: AtomicU64::new(0),
                deadline_exceeded: AtomicU64::new(0),
                disconnect_cancels: AtomicU64::new(0),
                abandoned_pairs: AtomicU64::new(0),
                brownout_active: AtomicBool::new(false),
                brownout_entries: AtomicU64::new(0),
                brownout_exits: AtomicU64::new(0),
                pressure_bits: AtomicU64::new(0.0f64.to_bits()),
            }),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The current serving epoch (engine plus snapshot identity).
    pub fn engine(&self) -> Arc<EngineEpoch<B>> {
        self.shared.current_epoch()
    }

    /// Installs the closure [`crate::protocol::OP_RELOAD`] uses to open a
    /// snapshot into a fresh engine. Without one, reload requests are
    /// refused with a typed error. Returns `false` if a reloader was
    /// already installed (the first one wins).
    pub fn set_reloader(
        &self,
        reloader: impl Fn(&Path) -> Result<(QueryEngine<B>, Option<u32>), String>
            + Send
            + Sync
            + 'static,
    ) -> bool {
        self.shared.reloader.set(Box::new(reloader)).is_ok()
    }

    /// A handle for observing or shutting down the server from elsewhere.
    pub fn handle(&self) -> ServerHandle<B> {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until shutdown: accepts connections, one handler thread each.
    /// On shutdown the listener closes immediately (no new connections) and
    /// the in-flight handlers are drained — joined as they finish, up to
    /// [`ServerOptions::drain_deadline`], after which stragglers are
    /// abandoned. Returns the final stats JSON (the same document
    /// [`OP_STATS`] serves).
    pub fn run(self) -> io::Result<String> {
        let scrubber = spawn_scrubber(&self.shared);
        let mut handlers = Vec::new();
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection; stop accepting
            }
            self.shared.connections.fetch_add(1, Ordering::Relaxed);
            self.shared.active_handlers.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(&self.shared);
            handlers.push(std::thread::spawn(move || {
                // Connection failures (peer reset, malformed framing) end
                // that connection only; the server keeps serving.
                let _ = serve_connection(stream, &shared);
                shared.active_handlers.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        // Close the listener now: drain means no new work, only finishing
        // what is already in flight.
        drop(self.listener);
        let deadline = Instant::now() + self.shared.options.drain_deadline;
        while self.shared.active_handlers.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if self.shared.active_handlers.load(Ordering::SeqCst) == 0 {
            // Everything finished within the deadline: join so no handler
            // outlives `run` (the no-dropped-batches case).
            for handler in handlers {
                let _ = handler.join();
            }
        }
        // Handlers still running past the deadline are abandoned: their
        // threads keep draining but `run` stops waiting on them.
        if let Some(scrubber) = scrubber {
            let _ = scrubber.join();
        }
        Ok(stats_json(&self.shared))
    }
}

/// Starts the background integrity scrubber when the options ask for one:
/// a low-priority thread walking the backend's
/// [`paged_store`](ResistanceBackend::paged_store) at roughly
/// [`ServerOptions::scrub_bytes_per_sec`], revalidating each page with the
/// serve path's own checks (see
/// [`PagedColumnStore::scrub_page`](effres_io::PagedColumnStore::scrub_page)) and
/// quarantining rot. It follows epoch swaps (a reload restarts the walk on
/// the new snapshot) and exits at shutdown — at once on a resident backend,
/// which has nothing to scrub.
fn spawn_scrubber<B: ResistanceBackend>(
    shared: &Arc<Shared<B>>,
) -> Option<std::thread::JoinHandle<()>> {
    let rate = shared.options.scrub_bytes_per_sec;
    if rate == 0 {
        return None;
    }
    let shared = Arc::clone(shared);
    Some(
        std::thread::Builder::new()
            .name("effres-scrubber".to_string())
            .spawn(move || scrub_loop(&shared, rate))
            .expect("spawn scrubber thread"),
    )
}

fn scrub_loop<B: ResistanceBackend>(shared: &Shared<B>, bytes_per_sec: u64) {
    let mut walk_epoch = 0u64;
    let mut next_page = 0usize;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let current = shared.current_epoch();
        if current.epoch != walk_epoch {
            // A reload swapped the snapshot: restart the walk from page 0.
            walk_epoch = current.epoch;
            next_page = 0;
        }
        let Some(store) = current.engine.backend().paged_store() else {
            return;
        };
        let pages = store.page_count();
        let pause = if pages == 0 {
            POLL_INTERVAL
        } else {
            if next_page >= pages {
                next_page = 0;
            }
            // The verdict already landed in the store's scrub stats; rotten
            // pages were quarantined there too.
            let _ = store.scrub_page(next_page);
            next_page += 1;
            // Pace to the byte budget using the mean page size.
            let footprint = store.footprint();
            let page_bytes = ((footprint.rows_bytes + footprint.vals_bytes) / pages).max(1) as u64;
            Duration::from_secs_f64(page_bytes as f64 / bytes_per_sec as f64)
        };
        // Sleep in poll-interval slices so shutdown is noticed promptly.
        let mut remaining = pause;
        while !remaining.is_zero() && !shared.shutdown.load(Ordering::SeqCst) {
            let slice = remaining.min(POLL_INTERVAL);
            std::thread::sleep(slice);
            remaining -= slice;
        }
    }
}

impl<B: ResistanceBackend> ServerHandle<B> {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The current stats JSON (same document [`OP_STATS`] serves).
    pub fn stats_json(&self) -> String {
        stats_json(&self.shared)
    }

    /// Requests shutdown and wakes the accept loop. Idempotent.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }
}

fn trigger_shutdown<B: ResistanceBackend>(shared: &Shared<B>) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // Wake the blocking accept with a throwaway loopback connection; if it
    // fails (listener already gone), shutdown is underway anyway.
    let _ = TcpStream::connect(shared.addr);
}

/// Serves one connection until the peer closes, the stream fails, a
/// deadline expires, or the server shuts down. Reads are chunked with a
/// poll timeout so the handler notices the shutdown flag while idle; the
/// frame buffer survives partial reads, so a slow sender cannot
/// desynchronize the framing.
///
/// Two deadlines bound how long a handler thread can be held hostage
/// (before PR 7, a client that sent a length prefix and then stalled parked
/// its handler forever): a connection **mid-frame** for longer than
/// [`ServerOptions::frame_deadline`] is cut loose and counted in
/// `deadline_closes`; a connection **idle** past
/// [`ServerOptions::idle_deadline`] is closed and counted in `idle_closes`.
/// Both clocks reset on every received byte.
fn serve_connection<B: ResistanceBackend>(stream: TcpStream, shared: &Shared<B>) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true)?;
    let mut writer = io::BufWriter::new(stream.try_clone()?);
    let mut stream = stream;
    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut last_activity = Instant::now();
    loop {
        loop {
            let consumed = match frame_length(&buffer) {
                Ok(Some(consumed)) => consumed,
                Ok(None) => break,
                Err(e) => {
                    // Oversized length prefix (or hostile garbage decoding
                    // as one): tell the peer, count it, drop the link —
                    // the framing cannot resynchronize past it.
                    shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = write_message(&mut writer, OP_ERROR, &e.to_string());
                    let _ = writer.flush();
                    return Err(e);
                }
            };
            let payload: Vec<u8> = buffer.drain(..consumed).skip(4).collect();
            shared.requests.fetch_add(1, Ordering::Relaxed);
            let proceed = handle_request(&payload, shared, &stream, &mut writer)?;
            writer.flush()?;
            last_activity = Instant::now();
            if !proceed {
                return Ok(());
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let deadline = if buffer.is_empty() {
            shared.options.idle_deadline
        } else {
            shared.options.frame_deadline
        };
        if last_activity.elapsed() >= deadline {
            if buffer.is_empty() {
                shared.idle_closes.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.deadline_closes.fetch_add(1, Ordering::Relaxed);
                let _ = write_message(&mut writer, OP_ERROR, "frame deadline exceeded mid-payload");
                let _ = writer.flush();
            }
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                buffer.extend_from_slice(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }
    }
}

/// Keeps a disconnect-monitor thread alive for the duration of one batch
/// computation. Dropping the guard tells the monitor to stand down and
/// restores the connection's normal poll-interval read timeout (the monitor
/// shortens it — the two handles share one socket, so socket options are
/// shared too).
struct MonitorGuard<'a> {
    stream: &'a TcpStream,
    done: Arc<AtomicBool>,
}

impl Drop for MonitorGuard<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        let _ = self.stream.set_read_timeout(Some(POLL_INTERVAL));
    }
}

/// Watches `stream` while a batch computes and trips `cancel` with
/// [`CancelReason::Disconnected`] the moment the peer hangs up — so an
/// abandoned request releases its admission lease, pinned pages and scratch
/// at the next chunk boundary instead of computing answers nobody will
/// read. The watcher `peek`s (never consumes — a pipelined follow-up
/// request stays intact) on a cloned handle with a short timeout; `Ok(0)`
/// is the peer's FIN, a hard error is a reset. Returns `None` when the
/// socket cannot be cloned or configured — the batch then simply runs
/// unmonitored, as before.
fn watch_for_disconnect<'a>(
    stream: &'a TcpStream,
    cancel: &Arc<CancelToken>,
) -> Option<MonitorGuard<'a>> {
    let probe = stream.try_clone().ok()?;
    probe.set_read_timeout(Some(MONITOR_POLL)).ok()?;
    let done = Arc::new(AtomicBool::new(false));
    let monitor_done = Arc::clone(&done);
    let cancel = Arc::clone(cancel);
    let spawned = std::thread::Builder::new()
        .name("effres-disconnect".to_string())
        .spawn(move || {
            let mut byte = [0u8; 1];
            while !monitor_done.load(Ordering::Relaxed) {
                match probe.peek(&mut byte) {
                    // FIN: the peer is gone; reclaim the in-flight work.
                    Ok(0) => {
                        cancel.cancel(CancelReason::Disconnected);
                        return;
                    }
                    // Bytes waiting (a pipelined request): alive — idle a
                    // beat, since peek would return instantly again.
                    Ok(_) => std::thread::sleep(MONITOR_POLL),
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock
                                | io::ErrorKind::TimedOut
                                | io::ErrorKind::Interrupted
                        ) => {}
                    // Reset or any other hard failure: also gone.
                    Err(_) => {
                        cancel.cancel(CancelReason::Disconnected);
                        return;
                    }
                }
            }
        });
    if spawned.is_err() {
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        return None;
    }
    Some(MonitorGuard { stream, done })
}

/// Length of the first complete frame in `buffer` (prefix + payload), or
/// `None` if more bytes are needed; errors on an oversized length prefix.
fn frame_length(buffer: &[u8]) -> io::Result<Option<usize>> {
    if buffer.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buffer[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    Ok(if buffer.len() >= 4 + len {
        Some(4 + len)
    } else {
        None
    })
}

/// Answers one request; returns `false` when the connection should close
/// (after a shutdown ack).
///
/// Every engine-touching opcode pins the current [`EngineEpoch`] **once, up
/// front** — a reload arriving mid-request swaps the shared handle but this
/// request keeps the epoch it pinned, so a batch never mixes columns from
/// two snapshots.
fn handle_request<B: ResistanceBackend>(
    payload: &[u8],
    shared: &Shared<B>,
    stream: &TcpStream,
    writer: &mut impl Write,
) -> io::Result<bool> {
    let Some((&opcode, body)) = payload.split_first() else {
        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
        return write_message(writer, OP_ERROR, "empty frame").map(|()| true);
    };
    match opcode {
        OP_HELLO => {
            let epoch = shared.current_epoch();
            let mut out = Vec::with_capacity(1 + 8 + 1 + 4);
            out.push(OP_HELLO_OK);
            out.extend_from_slice(&(epoch.engine.node_count() as u64).to_le_bytes());
            out.push(u8::from(epoch.engine.backend().paged_store().is_some()));
            out.extend_from_slice(&epoch.snapshot_version.unwrap_or(0).to_le_bytes());
            write_frame(writer, &out)?;
        }
        OP_QUERY => {
            let started = Instant::now();
            let mut reader = PayloadReader::new(body);
            let parsed = (|| -> io::Result<(u64, u64)> {
                let p = reader.u64()?;
                let q = reader.u64()?;
                reader.finish()?;
                Ok((p, q))
            })();
            match parsed {
                Err(e) => {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    write_message(writer, OP_ERROR, &format!("malformed query: {e}"))?;
                }
                Ok((p, q)) => match shared.current_epoch().engine.query(p as usize, q as usize) {
                    Ok(value) => {
                        let mut out = Vec::with_capacity(9);
                        out.push(OP_QUERY_OK);
                        out.extend_from_slice(&value.to_le_bytes());
                        write_frame(writer, &out)?;
                        shared.latency.record(started.elapsed());
                    }
                    Err(e) => write_engine_error(writer, shared, &e)?,
                },
            }
        }
        OP_BATCH => {
            let started = Instant::now();
            match parse_batch_body(body) {
                Err(e) => {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    write_message(writer, OP_ERROR, &format!("malformed batch: {e}"))?;
                }
                Ok((partial, deadline, pairs)) => {
                    let batch = QueryBatch::from_pairs(pairs);
                    let cancel = Arc::new(match deadline {
                        Some(budget) => CancelToken::after(budget),
                        None => CancelToken::unbounded(),
                    });
                    // A batch big enough to outlive a monitor poll gets a
                    // watcher: if the client hangs up mid-computation the
                    // token trips and the remaining work is reclaimed at
                    // the next chunk boundary.
                    let _guard = (batch.len() >= MONITOR_MIN_PAIRS)
                        .then(|| watch_for_disconnect(stream, &cancel))
                        .flatten();
                    answer_batch(writer, shared, started, &batch, partial, cancel)?;
                }
            }
        }
        OP_PING => {
            let epoch = shared.current_epoch();
            let path = epoch
                .snapshot_path
                .as_ref()
                .map(|p| p.to_string_lossy().into_owned())
                .unwrap_or_default();
            let mut out = Vec::with_capacity(1 + 1 + 8 + 8 + 8 + 1 + 1 + path.len());
            out.push(OP_PING_OK);
            out.push(u8::from(epoch.engine.backend().paged_store().is_some()));
            out.extend_from_slice(&(epoch.engine.node_count() as u64).to_le_bytes());
            out.extend_from_slice(&shared.started.elapsed().as_secs_f64().to_le_bytes());
            out.extend_from_slice(&epoch.epoch.to_le_bytes());
            out.push(shared.health().as_u8());
            out.push(u8::from(shared.brownout_active.load(Ordering::Relaxed)));
            out.extend_from_slice(path.as_bytes());
            write_frame(writer, &out)?;
        }
        OP_RELOAD => match std::str::from_utf8(body) {
            Err(_) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                write_message(writer, OP_ERROR, "reload path is not valid UTF-8")?;
            }
            Ok("") => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                write_message(writer, OP_ERROR, "reload needs a snapshot path")?;
            }
            Ok(path) => match shared.reload(Path::new(path)) {
                Ok((epoch, node_count, version)) => {
                    let mut out = Vec::with_capacity(1 + 8 + 8 + 4);
                    out.push(OP_RELOAD_OK);
                    out.extend_from_slice(&epoch.to_le_bytes());
                    out.extend_from_slice(&node_count.to_le_bytes());
                    out.extend_from_slice(&version.to_le_bytes());
                    write_frame(writer, &out)?;
                }
                Err(message) => {
                    write_message(writer, OP_ERROR, &format!("reload failed: {message}"))?
                }
            },
        },
        OP_STATS => {
            let json = stats_json(shared);
            let mut out = Vec::with_capacity(1 + json.len());
            out.push(OP_STATS_OK);
            out.extend_from_slice(json.as_bytes());
            write_frame(writer, &out)?;
        }
        OP_SHUTDOWN => {
            write_frame(writer, &[OP_SHUTDOWN_OK])?;
            writer.flush()?;
            trigger_shutdown(shared);
            return Ok(false);
        }
        other => {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            write_message(writer, OP_ERROR, &format!("unknown opcode {other:#04x}"))?;
        }
    }
    Ok(true)
}

/// A parsed batch body: whether the client asked for partial results, its
/// deadline budget (`None` when zero), and its pairs.
type ParsedBatch = (bool, Option<Duration>, Vec<(usize, usize)>);

/// Parses an [`OP_BATCH`] body: `u8 flags | u32 deadline_ms | u32 count |
/// count × (u64 p, u64 q)`. Reserved flag bits and a count that disagrees
/// with the payload size are malformed.
fn parse_batch_body(body: &[u8]) -> io::Result<ParsedBatch> {
    let malformed = |message| io::Error::new(io::ErrorKind::InvalidData, message);
    let mut reader = PayloadReader::new(body);
    let flags = reader.u8()?;
    if flags & !BATCH_FLAG_PARTIAL != 0 {
        return Err(malformed("reserved batch flag bits set"));
    }
    let deadline_ms = reader.u32()?;
    let count = reader.u32()? as usize;
    // The 9-byte header read above, then 16 bytes per pair.
    if count as u64 * 16 != (body.len() - 9) as u64 {
        return Err(malformed("batch count disagrees with payload size"));
    }
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        pairs.push((reader.u64()? as usize, reader.u64()? as usize));
    }
    reader.finish()?;
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
    Ok((flags & BATCH_FLAG_PARTIAL != 0, deadline, pairs))
}

/// Answers a batch under a cancellation token. A partial request answers
/// [`OP_BATCH_PARTIAL_OK`]. A fail-fast one answers [`OP_BATCH_OK`] or the
/// typed error that ended it — except under brownout, where it runs in
/// partial mode too, so answers computed before pressure (or the deadline)
/// cut it short still ship: a complete run still encodes as `OP_BATCH_OK`,
/// bit-identical to the normal path.
fn answer_batch<B: ResistanceBackend>(
    writer: &mut impl Write,
    shared: &Shared<B>,
    started: Instant,
    batch: &QueryBatch,
    partial: bool,
    cancel: Arc<CancelToken>,
) -> io::Result<()> {
    let mode = if partial || shared.brownout_active.load(Ordering::Relaxed) {
        ExecMode::Partial
    } else {
        ExecMode::FailFast
    };
    let options = ExecOptions {
        mode,
        cancel: Some(cancel),
    };
    match shared.current_epoch().engine.execute_with(batch, &options) {
        Ok(result) => {
            note_batch_result(shared, &result);
            if partial || !result.failures.is_empty() {
                write_partial_batch(writer, shared, &result)?;
            } else {
                let mut out = Vec::with_capacity(5 + result.values.len() * 8);
                out.push(OP_BATCH_OK);
                out.extend_from_slice(&(result.values.len() as u32).to_le_bytes());
                for value in &result.values {
                    out.extend_from_slice(&value.to_le_bytes());
                }
                write_frame(writer, &out)?;
            }
            shared.latency.record(started.elapsed());
            Ok(())
        }
        Err(abort) => {
            note_batch_error(shared, &abort.error, abort.abandoned_pairs);
            write_engine_error(writer, shared, &abort.error)
        }
    }
}

/// Books a whole-batch failure: cancellations land in the lifecycle
/// counters, and sheds or deadline misses feed the brownout pressure EWMA
/// (a disconnect says nothing about server pressure, so it does not).
fn note_batch_error<B: ResistanceBackend>(shared: &Shared<B>, error: &EffresError, abandoned: u64) {
    match error {
        EffresError::DeadlineExceeded { reason } => {
            shared.note_cancellation(*reason, abandoned);
            if !matches!(reason, CancelReason::Disconnected) {
                shared.note_batch_outcome(true);
            }
        }
        EffresError::Busy { .. } => shared.note_batch_outcome(true),
        _ => {}
    }
}

/// Books a batch that ran: an abandoned tail counts as one cancellation
/// (with its cause and pair count), and the brownout EWMA samples shed/miss
/// pressure exactly as the whole-batch failures do.
fn note_batch_result<B: ResistanceBackend>(shared: &Shared<B>, result: &BatchResult) {
    let mut abandoned = 0u64;
    let mut cancelled = None;
    let mut shed = false;
    for (_, error) in &result.failures {
        match error {
            EffresError::DeadlineExceeded { reason } => {
                abandoned += 1;
                cancelled.get_or_insert(*reason);
            }
            EffresError::Busy { .. } => shed = true,
            _ => {}
        }
    }
    match cancelled {
        Some(reason) => {
            shared.note_cancellation(reason, abandoned);
            shared.note_batch_outcome(!matches!(reason, CancelReason::Disconnected));
        }
        None => shared.note_batch_outcome(shed),
    }
}

/// Writes a reply frame of `opcode` followed by a UTF-8 `message` (the
/// error, busy and deadline replies).
fn write_message(writer: &mut impl Write, opcode: u8, message: &str) -> io::Result<()> {
    let mut out = Vec::with_capacity(1 + message.len());
    out.push(opcode);
    out.extend_from_slice(message.as_bytes());
    write_frame(writer, &out)
}

/// Maps a typed engine failure onto the wire: overload draws [`OP_BUSY`]
/// (the request was fine; back off), a cancelled request [`OP_DEADLINE`]
/// (retrying as-is is pointless), everything else [`OP_ERROR`]. Counts the
/// per-cause statistic either way (cancellation counters are booked by the
/// batch paths, which know the abandoned-pair count).
fn write_engine_error<B: ResistanceBackend>(
    writer: &mut impl Write,
    shared: &Shared<B>,
    error: &EffresError,
) -> io::Result<()> {
    match error {
        EffresError::Busy { .. } => {
            shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
            write_message(writer, OP_BUSY, &error.to_string())
        }
        EffresError::DeadlineExceeded { .. } => {
            write_message(writer, OP_DEADLINE, &error.to_string())
        }
        EffresError::StoreFailure { .. } => {
            shared.store_failures.fetch_add(1, Ordering::Relaxed);
            write_message(writer, OP_ERROR, &error.to_string())
        }
        other => write_message(writer, OP_ERROR, &other.to_string()),
    }
}

/// Status byte for one failed partial-batch query.
fn failure_status(error: &EffresError) -> u8 {
    match error {
        EffresError::StoreFailure { .. } => STATUS_STORE_FAILURE,
        EffresError::NodeOutOfBounds { .. } => STATUS_OUT_OF_BOUNDS,
        EffresError::Busy { .. } => STATUS_BUSY,
        EffresError::DeadlineExceeded { .. } => STATUS_DEADLINE,
        _ => STATUS_OTHER,
    }
}

/// Encodes an [`OP_BATCH_PARTIAL_OK`] response: per-query status bytes,
/// values (0.0 where failed), and the first failure's message. Bumps the
/// per-cause counters for every failed query.
fn write_partial_batch<B: ResistanceBackend>(
    writer: &mut impl Write,
    shared: &Shared<B>,
    result: &BatchResult,
) -> io::Result<()> {
    let count = result.values.len();
    let mut statuses = vec![STATUS_OK; count];
    for (slot, error) in &result.failures {
        statuses[*slot] = failure_status(error);
        match error {
            EffresError::StoreFailure { .. } => {
                shared.store_failures.fetch_add(1, Ordering::Relaxed);
            }
            EffresError::Busy { .. } => {
                shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
    let first_failure = result
        .failures
        .first()
        .map(|(_, error)| error.to_string())
        .unwrap_or_default();
    let mut out = Vec::with_capacity(1 + 8 + count * 9 + first_failure.len());
    out.push(OP_BATCH_PARTIAL_OK);
    out.extend_from_slice(&(count as u32).to_le_bytes());
    out.extend_from_slice(&(result.failures.len() as u32).to_le_bytes());
    out.extend_from_slice(&statuses);
    for value in &result.values {
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(first_failure.as_bytes());
    if !result.failures.is_empty() {
        shared.partial_batches.fetch_add(1, Ordering::Relaxed);
    }
    write_frame(writer, &out)
}

/// Renders the stats document: one JSON object with stable keys in a fixed
/// order, `null` where the backend has no such subsystem.
fn stats_json<B: ResistanceBackend>(shared: &Shared<B>) -> String {
    let epoch = shared.current_epoch();
    let service = epoch.engine.stats();
    let latency = shared.latency.snapshot();
    let uptime = shared.started.elapsed().as_secs_f64();
    let count = |counter: &AtomicU64| Json::Int(counter.load(Ordering::Relaxed));
    let scrubber = match epoch.engine.backend().paged_store() {
        Some(store) => {
            let s = store.scrub_stats();
            Json::Obj(vec![
                ("pages_scrubbed", Json::Int(s.pages_scrubbed)),
                ("scrub_failures", Json::Int(s.scrub_failures)),
                ("quarantined", Json::Int(s.quarantined)),
            ])
        }
        None => Json::Null,
    };
    let admission = match epoch.engine.admission_stats() {
        Some(a) => Json::Obj(vec![
            ("budget", Json::Int(a.budget as u64)),
            ("available", Json::Int(a.available as u64)),
            ("waiting", Json::Int(a.waiting as u64)),
            ("leases", Json::Int(a.leases)),
            ("queued", Json::Int(a.queued)),
            ("shed_queue_full", Json::Int(a.shed_queue_full)),
            ("shed_timeout", Json::Int(a.shed_timeout)),
            ("shed_doomed", Json::Int(a.shed_doomed)),
        ]),
        None => Json::Null,
    };
    let qps = if uptime > 0.0 {
        service.queries as f64 / uptime
    } else {
        0.0
    };
    Json::Obj(vec![
        (
            "backend",
            Json::Str(epoch.engine.backend().kind().to_string()),
        ),
        ("nodes", Json::Int(epoch.engine.node_count() as u64)),
        (
            "snapshot_version",
            epoch
                .snapshot_version
                .map_or(Json::Null, |v| Json::Int(v.into())),
        ),
        (
            "snapshot_path",
            epoch
                .snapshot_path
                .as_ref()
                .map_or(Json::Null, |p| Json::Str(p.to_string_lossy().into_owned())),
        ),
        ("epoch", Json::Int(epoch.epoch)),
        ("reloads", count(&shared.reloads)),
        ("health", Json::Str(shared.health().as_str().to_string())),
        ("scrubber", scrubber),
        ("uptime_secs", Json::Num(uptime)),
        ("connections", count(&shared.connections)),
        ("requests", count(&shared.requests)),
        (
            "errors",
            Json::Obj(vec![
                ("protocol", count(&shared.protocol_errors)),
                ("frame", count(&shared.frame_errors)),
                ("deadline_closes", count(&shared.deadline_closes)),
                ("idle_closes", count(&shared.idle_closes)),
                ("busy_rejections", count(&shared.busy_rejections)),
                ("store_failures", count(&shared.store_failures)),
                ("partial_batches", count(&shared.partial_batches)),
            ]),
        ),
        (
            "lifecycle",
            Json::Obj(vec![
                ("cancelled_batches", count(&shared.cancelled_batches)),
                ("deadline_exceeded", count(&shared.deadline_exceeded)),
                ("disconnect_cancels", count(&shared.disconnect_cancels)),
                ("abandoned_pairs", count(&shared.abandoned_pairs)),
                ("brownout_entries", count(&shared.brownout_entries)),
                ("brownout_exits", count(&shared.brownout_exits)),
                (
                    "brownout_active",
                    Json::Bool(shared.brownout_active.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "service",
            Json::Obj(vec![
                ("queries", Json::Int(service.queries)),
                ("batches", Json::Int(service.batches)),
                ("pair_cache_hits", Json::Int(service.cache_hits)),
                ("pair_cache_misses", Json::Int(service.cache_misses)),
                (
                    "pair_cache_entries",
                    Json::Int(service.cache_entries as u64),
                ),
                (
                    "pair_cache_capacity",
                    Json::Int(service.cache_capacity as u64),
                ),
                ("page_cache_hits", Json::Int(service.page_cache_hits)),
                ("page_cache_misses", Json::Int(service.page_cache_misses)),
                ("page_bytes_read", Json::Int(service.page_bytes_read)),
                ("page_column_runs", Json::Int(service.page_column_runs)),
                ("page_value_reads", Json::Int(service.page_value_reads)),
                (
                    "page_readahead_reads",
                    Json::Int(service.page_readahead_reads),
                ),
                ("page_retries", Json::Int(service.page_retries)),
                ("page_faulted_reads", Json::Int(service.page_faulted_reads)),
            ]),
        ),
        ("admission", admission),
        (
            "latency_us",
            Json::Obj(vec![
                ("count", Json::Int(latency.count)),
                ("mean", Json::Num(latency.mean_micros())),
                ("p50", Json::Int(latency.quantile_micros(0.50))),
                ("p95", Json::Int(latency.quantile_micros(0.95))),
                ("p99", Json::Int(latency.quantile_micros(0.99))),
                ("max", Json::Int(latency.max_micros)),
            ]),
        ),
        ("throughput_qps", Json::Num(qps)),
    ])
    .render()
}
