//! The parallel query engine.
//!
//! [`QueryEngine`] wraps a shared, immutable [`ResistanceBackend`] behind an
//! [`Arc`] and turns it into a service: batches fan out as jobs on a
//! persistent [`WorkerPool`] (the engine's own, or one shared with the
//! estimator build via [`EngineOptions::pool`]), each job drawing a reusable
//! scratch column buffer from a pool-wide free list, behind a striped
//! cache of recent pair results whose probe touches one cache line (see
//! [`crate::cache`]).
//!
//! A batch runs through one path, [`QueryEngine::execute_with`]:
//! validation, the doomed-deadline check, the per-batch page figures, the
//! service counters and the service-time estimate wrap one *runner*, picked
//! by the backend's [`ResistanceBackend::paged_store`] hook. A resident
//! backend gets the **hub-sorted runner**: every pair's permuted
//! `(min << 32) | max` key is computed once and the `(key, slot)` vector
//! sorted, so pairs sharing a permuted endpoint form runs, and repeats of
//! a pair fold onto its first occurrence. Each worker reads
//! `(hub, partner)` straight from the keys and hands its slice to the
//! grouped multi-pair kernel
//! ([`column_distances_squared_grouped`](column_store::column_distances_squared_grouped))
//! in chunks — the kernel the scheduler runs too — and answers scatter
//! back to request order. A paged backend gets the locality
//! [`scheduler`](crate::scheduler). Either runner writes one value per
//! slot and lists the failed slots, so the two [`ExecMode`]s differ only
//! in what a failure does: fail-fast stops and reports it, partial records
//! it against its slot and answers the rest. [`QueryEngine::execute`] is
//! the backend-independent reference: the hub-sorted runner, fail-fast, on
//! either backend. A batch larger than the pair cache, such as an
//! all-edges sweep, bypasses it ([`EngineOptions::cache_capacity`]).
//!
//! The engine is generic over *where the columns live*: the resident
//! [`EffectiveResistanceEstimator`] backend reads them out of the in-memory
//! CSC arena, while the paged [`effres_io::PagedSnapshot`] backend pages
//! them in from a v3 snapshot file on demand. Both hand the engine one
//! `‖z̃_j‖²` norm table, summed in the same order (the paged one is the
//! file's persisted block), so both return bit-identical resistances.
//! Column fetches are fallible for the paged backend, so the batch paths
//! propagate [`EffresError`] instead of panicking a worker.
//!
//! The backends and every type they contain are plain owned data plus
//! independently locked caches, so sharing one across pool workers behind an
//! [`Arc`] is sound; the static assertions in the crate root pin the
//! `Send + Sync` audit down at compile time.

use crate::admission::{AdmissionLedger, AdmissionStats};
use crate::backend::ResistanceBackend;
use crate::batch::QueryBatch;
use crate::cache::{self, ShardedLru};
use crate::cancel::CancelToken;
use crate::metrics::ServiceTimeEwma;
use effres::column_store::{self, ColumnStore, HubScratch, KernelStats};
use effres::{CancelReason, EffectiveResistanceEstimator, EffresError, WorkerPool};
use effres_io::{PageCacheStats, PagedColumnStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Parallel fan-out for batch execution; `0` means one job chunk per
    /// available core (or per worker of a shared [`EngineOptions::pool`]).
    /// On a paged backend it also caps how many chunks a scheduler round
    /// pins and drains at once. Actual concurrency is capped by the
    /// worker-pool size.
    pub threads: usize,
    /// Total entries of the pair-result cache, split over 16 lock stripes
    /// and rounded up to whole four-entry sets; `0` disables caching. A
    /// batch with more pairs than the cache holds neither probes nor fills
    /// it — it would evict its own entries before a repeat could hit them,
    /// and flush other clients' hot entries — but still answers its own
    /// repeats once.
    pub cache_capacity: usize,
    /// Batches smaller than this run on the calling thread — dispatching
    /// pool jobs costs more than it saves.
    pub parallel_threshold: usize,
    /// A persistent [`WorkerPool`] to run batch jobs on. `None` (the
    /// default) makes the engine spawn its own pool lazily on the first
    /// parallel batch; build-then-serve deployments pass the pool the
    /// estimator build used (`EffresConfig::with_worker_pool`) so the whole
    /// pipeline shares one set of workers.
    pub pool: Option<WorkerPool>,
    /// Bound on the admission ledger's queue depth for scheduled paged
    /// batches. `None` (the default) keeps the PR-5 behavior — lease
    /// requests queue without bound and never fail. `Some(depth)` turns
    /// overload into a typed [`EffresError::Busy`]: a batch arriving when
    /// `depth` requests are already waiting is shed immediately, and a
    /// queued batch that waits out [`admission_timeout`](Self::admission_timeout)
    /// without capacity is shed too. Resident backends (no pin budget)
    /// ignore both knobs.
    pub admission_queue_depth: Option<usize>,
    /// How long a scheduled batch may wait for a pin-capacity lease before
    /// being shed, when [`admission_queue_depth`](Self::admission_queue_depth)
    /// is bounded.
    pub admission_timeout: Duration,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            threads: 0,
            cache_capacity: 1 << 16,
            parallel_threshold: 1 << 10,
            pool: None,
            admission_queue_depth: None,
            admission_timeout: Duration::from_secs(2),
        }
    }
}

/// How [`QueryEngine::execute_with`] handles a failed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// All or nothing: every pair is validated before any work, the first
    /// failure ends the batch, and a tripped cancellation token ends it
    /// too — each as a [`BatchAbort`].
    #[default]
    FailFast,
    /// Partial results: each failure (an out-of-bounds node, a store
    /// failure on a page the pair touches, an admission shed, a
    /// cancellation) is recorded against its slot in
    /// [`BatchResult::failures`] and every other query is still answered.
    /// This is the serving mode of a long-lived server: one poisoned page
    /// degrades the answers that touch it instead of failing 20k-query
    /// batches wholesale.
    Partial,
}

/// Per-call options of [`QueryEngine::execute_with`].
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// What a failed query does to the batch.
    pub mode: ExecMode,
    /// A cancellation token, checked between chunks of work — between
    /// kernel chunks of a job slice (about 4,096 pairs) on the hub-sorted
    /// runner, at every lease round in the scheduler — and never
    /// mid-kernel. When it trips, every query not yet run fails with
    /// [`EffresError::DeadlineExceeded`] and the run stops, releasing
    /// scratch, pinned pages and the admission lease with the abandoned
    /// tail; answers produced before the trip went through exactly the
    /// kernel calls a completed run makes. When the token carries a
    /// deadline the engine's service-time estimate says cannot be met, the
    /// batch is rejected up front ([`CancelReason::Unmeetable`]).
    pub cancel: Option<Arc<CancelToken>>,
}

/// Cumulative service counters (monotonic across the engine's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Queries answered (batch and single): slots that produced a value,
    /// never failed or abandoned ones.
    pub queries: u64,
    /// Batches executed: every batch that ran, whether it completed,
    /// carried per-slot failures, or was cut short by its cancellation
    /// token. Batches rejected before running (validation, a doomed
    /// deadline) and fail-fast batches ended by a store failure or an
    /// admission shed are not counted.
    pub batches: u64,
    /// Queries answered out of the pair cache, or as a repeat of a pair
    /// earlier in their batch (answered once, with a cache configured).
    pub cache_hits: u64,
    /// Queries that had to run the sparse kernel.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Total cache capacity (0 when caching is disabled).
    pub cache_capacity: usize,
    /// Page-cache hits of an out-of-core backend (column fetches served
    /// from resident decoded pages). Zero for resident backends.
    pub page_cache_hits: u64,
    /// Page-cache misses of an out-of-core backend (column fetches that
    /// read and decoded from disk). Zero for resident backends.
    pub page_cache_misses: u64,
    /// Bytes an out-of-core backend read from disk. Zero for resident
    /// backends.
    pub page_bytes_read: u64,
    /// Coalesced readahead reads an out-of-core backend issued (each covers
    /// a run of adjacent pages). Zero for resident backends.
    pub page_readahead_reads: u64,
    /// Column runs an out-of-core backend read in place of sparsely
    /// demanded pages (their bytes count in `page_bytes_read`). Zero for
    /// resident backends.
    pub page_column_runs: u64,
    /// Column runs whose values an out-of-core backend read: a run's values
    /// are read only when a pair's suffixes share a row on one of its
    /// columns. Zero for resident backends.
    pub page_value_reads: u64,
    /// Page read attempts an out-of-core backend re-issued after a transient
    /// fault (including corruption re-fetches). Zero for resident backends
    /// and on fault-free storage.
    pub page_retries: u64,
    /// Page read attempts that faulted (I/O errors, short reads, validation
    /// failures) on an out-of-core backend. When this exceeds
    /// `page_retries`, faults burned through the retry budget and surfaced
    /// as typed per-column failures.
    pub page_faulted_reads: u64,
}

/// Result of one batch execution.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Effective resistances, in the order of the batch's pairs; `0.0` at
    /// every slot listed in [`failures`](Self::failures).
    pub values: Vec<f64>,
    /// The queries that failed, as `(slot, error)` in slot order — always
    /// empty in [`ExecMode::FailFast`]. In [`ExecMode::Partial`]: an
    /// out-of-bounds node ([`EffresError::NodeOutOfBounds`]), a page the
    /// store could not produce ([`EffresError::StoreFailure`]), a mid-batch
    /// admission shed ([`EffresError::Busy`]), or a query abandoned by a
    /// tripped cancellation token ([`EffresError::DeadlineExceeded`]).
    /// Every other value is bit-identical to what a fault-free fail-fast
    /// run returns for it.
    pub failures: Vec<(usize, EffresError)>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Parallel job chunks the batch fanned out into (1 for the sequential
    /// path); actual concurrency is additionally capped by the worker-pool
    /// size.
    pub threads: usize,
    /// Pair-cache hits within this batch, counting each repeat of a pair
    /// inside the batch (answered once, with a cache configured) as a hit.
    pub cache_hits: u64,
    /// Queries of this batch that ran the sparse kernel (with the cache
    /// bypassed, every distinct non-self pair).
    pub cache_misses: u64,
    /// Page traffic during **this batch** (hits, misses, bytes read,
    /// coalesced readahead reads), for out-of-core backends: how much the
    /// store's counters, which only grow, grew from the batch's start to its
    /// end ([`PageCacheStats::since`]). `None` for resident backends. Exact
    /// when batches on the store do not overlap; an overlapping batch's
    /// traffic is counted in both.
    pub page_cache: Option<PageCacheStats>,
    /// What the multi-pair kernels streamed for **this batch** (hub loads,
    /// pairs per hub, arena bytes read) — exact per batch: the counters
    /// ride the scratch buffers each job drains before returning them, so
    /// concurrent batches never mix.
    pub kernel: KernelStats,
    /// How the locality scheduler organized this batch (scheduled paged
    /// executions only).
    pub schedule: Option<ScheduleReport>,
}

/// Shape of one locality-scheduled batch execution (see
/// [`crate::scheduler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleReport {
    /// Distinct `(page_lo, page_hi)` clusters the batch's cache-missing
    /// queries collapsed into.
    pub clusters: usize,
    /// Lease rounds: how many times the batch leased pin capacity from the
    /// admission ledger.
    pub blocks: usize,
    /// Pins: the chunks the rounds cut the batch into, each pinned once.
    pub windows: usize,
}

impl BatchResult {
    /// Queries answered per second (failed slots are not answers).
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return f64::INFINITY;
        }
        (self.values.len() - self.failures.len()) as f64 / self.elapsed.as_secs_f64()
    }
}

/// Why a batch produced no [`BatchResult`], and how much of it never ran —
/// the error type of [`QueryEngine::execute_with`].
///
/// `abandoned_pairs` is the reclamation receipt: queries the engine *skipped*
/// because the token tripped (or the whole batch, when admission judged the
/// deadline unmeetable up front). It is zero for ordinary failures
/// (validation, store faults, admission `Busy`) — those batches failed, they
/// were not abandoned.
#[derive(Debug, Clone)]
pub struct BatchAbort {
    /// The typed error that ended the batch (for cancellation,
    /// [`EffresError::DeadlineExceeded`] carrying the [`CancelReason`]).
    pub error: EffresError,
    /// Queries the engine never ran because the batch was cancelled.
    pub abandoned_pairs: u64,
}

impl std::fmt::Display for BatchAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} pairs abandoned)",
            self.error, self.abandoned_pairs
        )
    }
}

impl From<EffresError> for BatchAbort {
    fn from(error: EffresError) -> Self {
        BatchAbort {
            error,
            abandoned_pairs: 0,
        }
    }
}

/// What a batch runner hands back to [`QueryEngine::execute_with`]: one
/// value per slot of the pairs it ran (`0.0` where the slot failed), the
/// failures as `(slot, error)` in slot order, and what the run counted on
/// the way.
#[derive(Default)]
pub(crate) struct Run {
    pub(crate) values: Vec<f64>,
    pub(crate) failures: Vec<(usize, EffresError)>,
    pub(crate) threads: usize,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) kernel: KernelStats,
    pub(crate) schedule: Option<ScheduleReport>,
}

/// Shards of the scratch free list: enough that concurrent batch jobs
/// rarely contend on the same `Mutex` (the PR-8 bench showed the single
/// shared list serializing multi-thread batches), small enough that stray
/// scratches (one dense column each) stay bounded.
const SCRATCH_SHARDS: usize = 8;

/// The shareable heart of the engine: everything a pool worker needs to
/// answer a slice of queries — the backend, the norm table, the
/// result cache and a free list of reusable scratch columns. Lives behind
/// one [`Arc`] so batch jobs are `'static` without copying any of it.
#[derive(Debug)]
pub(crate) struct EngineCore<B: ResistanceBackend> {
    pub(crate) backend: Arc<B>,
    /// `‖z̃_j‖²` per permuted column ([`ResistanceBackend::norms`]) —
    /// shared with the backend, not copied.
    pub(crate) norms: Arc<Vec<f64>>,
    pub(crate) cache: Option<ShardedLru>,
    /// The pin-budget ledger concurrent scheduled batches lease capacity
    /// from, sized to the page budget of the backend's
    /// [`paged_store`](ResistanceBackend::paged_store); `None` for resident
    /// backends, which pin nothing.
    pub(crate) admission: Option<Arc<AdmissionLedger>>,
    /// Reusable hub-scratch columns (see [`HubScratch`]), sharded so
    /// parallel batch jobs don't serialize on one free-list lock: each job
    /// hits the shard named by its job index first and steals from the
    /// others only when its own is empty.
    scratches: [Mutex<Vec<HubScratch>>; SCRATCH_SHARDS],
}

impl<B: ResistanceBackend> EngineCore<B> {
    /// Pops a scratch, preferring the `hint` shard (callers pass their job
    /// index so concurrent jobs start on distinct locks). Any stats a
    /// previous aborted batch left behind are discarded — per-batch kernel
    /// counters must start at zero.
    pub(crate) fn take_scratch(&self, hint: usize) -> HubScratch {
        for probe in 0..SCRATCH_SHARDS {
            let shard = &self.scratches[(hint + probe) % SCRATCH_SHARDS];
            if let Some(mut scratch) = shard.lock().expect("scratch free list poisoned").pop() {
                let _ = scratch.take_stats();
                return scratch;
            }
        }
        HubScratch::new(self.backend.node_count())
    }

    pub(crate) fn return_scratch(&self, hint: usize, scratch: HubScratch) {
        self.scratches[hint % SCRATCH_SHARDS]
            .lock()
            .expect("scratch free list poisoned")
            .push(scratch);
    }

    /// The resistance of one (permuted, distinct, in-bounds) pair through
    /// the norm identity `‖z̃_p − z̃_q‖² = ‖z̃_p‖² + ‖z̃_q‖² − 2⟨z̃_p, z̃_q⟩`.
    fn pair_value(&self, pp: usize, qq: usize) -> Result<f64, EffresError> {
        let dot = column_store::column_dot(self.backend.store(), pp, qq)?;
        // Clamp: cancellation can go slightly negative for near-identical
        // columns, and resistances are nonnegative.
        Ok((self.norms[pp] + self.norms[qq] - 2.0 * dot).max(0.0))
    }

    /// The pair cache a batch of `batch_len` pairs probes and fills: none
    /// when the batch holds more pairs than the cache does. Such a batch
    /// would evict its own entries before a repeat could hit them, and
    /// flush every hot entry other clients rely on, so probing it would
    /// only cost; the runners fold its in-batch repeats instead.
    pub(crate) fn pair_cache(&self, batch_len: usize) -> Option<&ShardedLru> {
        self.cache
            .as_ref()
            .filter(|cache| batch_len <= cache.capacity())
    }
}

/// Answers permuted `pairs` through the grouped multi-pair kernel
/// ([`column_store::column_distances_squared_grouped`]): one value per
/// pair. A failed call fails the run in fail-fast mode; in partial mode it
/// is re-run **pair by pair** — the grouped kernel on a one-pair slice
/// computes the bit-identical per-pair value (the multi-pair property tests
/// pin this) — so only the pairs touching a column the store cannot produce
/// fail, listed as `(index into pairs, error)` with `0.0` as their value.
#[allow(clippy::type_complexity)]
pub(crate) fn grouped_values<S: ColumnStore + ?Sized>(
    store: &S,
    pairs: &[(usize, usize)],
    norms: &[f64],
    scratch: &mut HubScratch,
    fail_fast: bool,
) -> Result<(Vec<f64>, Vec<(usize, EffresError)>), EffresError> {
    let grouped = |pairs: &[(usize, usize)], scratch: &mut HubScratch| {
        column_store::column_distances_squared_grouped(store, pairs, Some(norms), scratch)
    };
    match grouped(pairs, scratch) {
        Ok(values) => Ok((values, Vec::new())),
        Err(err) if fail_fast => Err(err),
        Err(_) => {
            let mut values = vec![0.0; pairs.len()];
            let mut failures = Vec::new();
            for (i, pair) in pairs.iter().enumerate() {
                match grouped(std::slice::from_ref(pair), scratch) {
                    Ok(value) => values[i] = value[0],
                    Err(err) => failures.push((i, err)),
                }
            }
            Ok((values, failures))
        }
    }
}

/// A thread-safe, cache-fronted effective-resistance query service over a
/// shared immutable backend (resident estimator by default; see
/// [`ResistanceBackend`] for the paged alternative).
#[derive(Debug)]
pub struct QueryEngine<B: ResistanceBackend = EffectiveResistanceEstimator> {
    pub(crate) core: Arc<EngineCore<B>>,
    pub(crate) options: EngineOptions,
    /// The engine's own pool, created lazily on the first parallel batch
    /// when no shared pool was configured.
    owned_pool: OnceLock<WorkerPool>,
    queries: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Smoothed per-pair service time of completed batches, feeding the
    /// doomed-deadline check of cancellable batches.
    service_time: ServiceTimeEwma,
}

impl QueryEngine {
    /// Convenience constructor taking ownership of a resident estimator and
    /// using default options.
    pub fn from_estimator(estimator: EffectiveResistanceEstimator) -> Self {
        QueryEngine::new(Arc::new(estimator), EngineOptions::default())
    }

    /// The shared estimator of a resident engine.
    pub fn estimator(&self) -> &Arc<EffectiveResistanceEstimator> {
        &self.core.backend
    }
}

impl<B: ResistanceBackend> QueryEngine<B> {
    /// Builds an engine over a shared backend.
    pub fn new(backend: Arc<B>, options: EngineOptions) -> Self {
        let norms = backend.norms();
        let cache = (options.cache_capacity > 0)
            .then(|| ShardedLru::new(options.cache_capacity, cache::SHARDS));
        // The ledger needs at least two pages (one per side of a pair), the
        // same floor the scheduler's own budget math applies.
        let admission = backend
            .paged_store()
            .map(|store| Arc::new(AdmissionLedger::new(store.cache_capacity_pages().max(2))));
        QueryEngine {
            core: Arc::new(EngineCore {
                backend,
                norms,
                cache,
                admission,
                scratches: std::array::from_fn(|_| Mutex::new(Vec::new())),
            }),
            options,
            owned_pool: OnceLock::new(),
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            service_time: ServiceTimeEwma::new(),
        }
    }

    /// The smoothed per-pair service time of completed batches (the figure
    /// the doomed-deadline admission check divides deadlines by).
    pub fn service_time(&self) -> &ServiceTimeEwma {
        &self.service_time
    }

    /// The shared backend.
    pub fn backend(&self) -> &Arc<B> {
        &self.core.backend
    }

    /// Number of nodes served.
    pub fn node_count(&self) -> usize {
        self.core.backend.node_count()
    }

    /// The worker pool batches run on: the shared pool from
    /// [`EngineOptions::pool`] when configured, otherwise the engine's own
    /// (created lazily, persistent across batches).
    pub fn worker_pool(&self) -> &WorkerPool {
        match &self.options.pool {
            Some(pool) => pool,
            None => self
                .owned_pool
                .get_or_init(|| WorkerPool::new(self.options.threads)),
        }
    }

    /// Cumulative service counters; the page-cache figures are the
    /// backend store's own, counted since it was opened.
    pub fn stats(&self) -> ServiceStats {
        let page = self.page_cache_stats().unwrap_or_default();
        ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_entries: self.core.cache.as_ref().map_or(0, ShardedLru::len),
            cache_capacity: self.core.cache.as_ref().map_or(0, ShardedLru::capacity),
            page_cache_hits: page.hits,
            page_cache_misses: page.misses,
            page_bytes_read: page.bytes_read,
            page_readahead_reads: page.readahead_reads,
            page_column_runs: page.column_runs,
            page_value_reads: page.value_reads,
            page_retries: page.retries,
            page_faulted_reads: page.faulted_reads,
        }
    }

    /// Counters of the pin-budget admission ledger, for backends that pin
    /// pages out of a bounded cache; `None` for resident backends.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.core.admission.as_deref().map(AdmissionLedger::stats)
    }

    /// The backend store's page counters, for out-of-core backends.
    fn page_cache_stats(&self) -> Option<PageCacheStats> {
        Some(self.core.backend.paged_store()?.page_cache_stats())
    }

    /// Answers one query through the cache and the norm identity. It counts
    /// in [`ServiceStats::queries`] only when it produces a value; a query
    /// that runs the kernel counts as a cache miss even if the store fails.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] for invalid node indices and
    /// [`EffresError::StoreFailure`] if an out-of-core backend fails to
    /// produce a column.
    pub fn query(&self, p: usize, q: usize) -> Result<f64, EffresError> {
        let n = self.core.backend.node_count();
        if p >= n || q >= n {
            return Err(out_of_bounds((p, q), n));
        }
        if p == q {
            self.queries.fetch_add(1, Ordering::Relaxed);
            return Ok(0.0);
        }
        let permutation = self.core.backend.permutation();
        let (pp, qq) = (permutation.new(p), permutation.new(q));
        let key = cache_key(pp, qq);
        if let Some(cache) = &self.core.cache {
            if let Some(value) = cache.get(key) {
                self.queries.fetch_add(1, Ordering::Relaxed);
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(value);
            }
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let value = self.core.pair_value(pp, qq)?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(cache) = &self.core.cache {
            cache.insert(key, value);
        }
        Ok(value)
    }

    /// The reference batch path: the hub-sorted runner, fail-fast, on any
    /// backend — on a paged engine, the arrival-order path the locality
    /// scheduler is pinned bit-identical to. Serving code calls
    /// [`execute_with`](Self::execute_with), which schedules paged batches.
    ///
    /// Every pair is validated before any work starts; on a validation error
    /// no query has run. Results come back in the batch's original pair
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] naming the first invalid
    /// node, or [`EffresError::StoreFailure`] if an out-of-core backend
    /// failed mid-batch (in which case the batch produced no values).
    pub fn execute(&self, batch: &QueryBatch) -> Result<BatchResult, EffresError> {
        self.run_batch(batch, &ExecOptions::default(), None)
            .map_err(|abort| abort.error)
    }

    /// Executes a batch: through the locality [`scheduler`](crate::scheduler)
    /// when the backend has a [`paged_store`](ResistanceBackend::paged_store),
    /// through the hub-sorted runner otherwise — in parallel when the batch
    /// is large enough, with results in the batch's original pair order
    /// and bit-identical either way. `options` picks the failure handling
    /// ([`ExecMode`]) and an optional cancellation token.
    ///
    /// Whatever the mode, the engine books one batch for every run that
    /// reached the runner and returned its answers — completed, degraded, or
    /// cancelled — with its pair-cache probes, and counts only the slots
    /// that produced a value in [`ServiceStats::queries`].
    ///
    /// # Errors
    ///
    /// In [`ExecMode::FailFast`]: [`EffresError::NodeOutOfBounds`] naming
    /// the first invalid node (no query has run), then
    /// [`EffresError::StoreFailure`] if the store failed mid-batch,
    /// [`EffresError::Busy`] if bounded admission shed the batch, or
    /// [`EffresError::DeadlineExceeded`] with the count of abandoned pairs
    /// when the token tripped. In either mode: a token that tripped before
    /// the batch started, or whose deadline the service-time estimate says
    /// cannot be met, rejects the batch whole; and in
    /// [`ExecMode::Partial`] a [`EffresError::Busy`] shed before anything
    /// ran rejects it whole too — nothing was computed, so the caller should
    /// back off and resubmit.
    pub fn execute_with(
        &self,
        batch: &QueryBatch,
        options: &ExecOptions,
    ) -> Result<BatchResult, BatchAbort> {
        self.run_batch(batch, options, self.core.backend.paged_store())
    }

    /// The one batch path: everything around the runner — the locality
    /// scheduler over `schedule_over` when given, the hub-sorted runner
    /// otherwise.
    fn run_batch(
        &self,
        batch: &QueryBatch,
        options: &ExecOptions,
        schedule_over: Option<&PagedColumnStore>,
    ) -> Result<BatchResult, BatchAbort> {
        let fail_fast = options.mode == ExecMode::FailFast;
        if fail_fast {
            let n = self.core.backend.node_count();
            if let Some(&pair) = batch.pairs().iter().find(|&&(p, q)| p >= n || q >= n) {
                return Err(BatchAbort::from(out_of_bounds(pair, n)));
            }
        }
        let cancel = options.cancel.as_ref();
        if let Some(token) = cancel {
            if let Err(error) = self.admit_deadline(batch, token) {
                return Err(BatchAbort {
                    error,
                    abandoned_pairs: batch.len() as u64,
                });
            }
        }
        let pages_before = self.page_cache_stats();
        let start = Instant::now();
        let run = self.run_folded(batch.pairs(), schedule_over, fail_fast, cancel);
        let elapsed = start.elapsed();
        let page_cache = self
            .page_cache_stats()
            .zip(pages_before)
            .map(|(after, before)| after.since(before));
        let run = run?;
        let answered = run.values.len() - run.failures.len();
        self.queries.fetch_add(answered as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.cache_hits.fetch_add(run.hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(run.misses, Ordering::Relaxed);
        if run.failures.is_empty() {
            self.service_time.record(batch.len(), elapsed);
        } else if fail_fast {
            // A fail-fast runner returns a run with failures only when its
            // token stopped it, so every failure is an abandoned query.
            return Err(BatchAbort {
                error: run.failures[0].1.clone(),
                abandoned_pairs: run.failures.len() as u64,
            });
        }
        Ok(BatchResult {
            values: run.values,
            failures: run.failures,
            elapsed,
            threads: run.threads,
            cache_hits: run.hits,
            cache_misses: run.misses,
            page_cache,
            kernel: run.kernel,
            schedule: run.schedule,
        })
    }

    /// The doomed-deadline gate of cancellable batches: an already-tripped
    /// token fails immediately, and a deadline the service-time EWMA says
    /// cannot be met is shed up front ([`CancelReason::Unmeetable`]) —
    /// through the admission ledger when the backend has one (so the shed
    /// is counted in [`AdmissionStats::shed_doomed`]), directly otherwise.
    /// With no estimate yet (cold engine) every deadline is admitted: the
    /// gate only sheds on evidence.
    fn admit_deadline(&self, batch: &QueryBatch, cancel: &CancelToken) -> Result<(), EffresError> {
        cancel.check()?;
        let Some(deadline) = cancel.deadline() else {
            return Ok(());
        };
        // `distinct_len` is the tighter work bound (duplicates are cache
        // hits, self-pairs short-circuit), and only deadline-carrying
        // requests pay for computing it.
        let Some(estimated) = self.service_time.estimate(batch.distinct_len()) else {
            return Ok(());
        };
        match &self.core.admission {
            Some(ledger) => ledger.admit_by_deadline(estimated, deadline),
            None if Instant::now() + estimated > deadline => Err(EffresError::DeadlineExceeded {
                reason: CancelReason::Unmeetable,
            }),
            None => Ok(()),
        }
    }

    pub(crate) fn effective_threads(&self, batch_len: usize) -> usize {
        if batch_len < self.options.parallel_threshold.max(2) {
            return 1;
        }
        let configured = if self.options.threads != 0 {
            self.options.threads
        } else if let Some(pool) = &self.options.pool {
            pool.threads()
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        // No point in more job chunks than work of a sensible size.
        configured.min(batch_len.div_ceil(256)).max(1)
    }

    /// What both runners share: each pair's [`cache_key`] is computed once
    /// and the `(key, slot)` vector sorted; out-of-bounds pairs (partial
    /// mode) sort last and fail here. With a pair cache configured, each
    /// repeat of a pair, adjacent after the sort, folds onto its first
    /// occurrence before the work splits: answered once, it counts as the
    /// hit it would have been. The distinct queries go to the scheduler
    /// over `schedule_over` when given, to the hub-sorted runner otherwise.
    fn run_folded(
        &self,
        pairs: &[(usize, usize)],
        schedule_over: Option<&PagedColumnStore>,
        fail_fast: bool,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<Run, EffresError> {
        let n = self.core.backend.node_count();
        let permutation = self.core.backend.permutation();
        let mut keyed: Vec<(u64, u32)> = pairs
            .iter()
            .zip(0u32..)
            .map(|(&(p, q), i)| {
                if p >= n || q >= n {
                    return (OUT_OF_BOUNDS, i);
                }
                (cache_key(permutation.new(p), permutation.new(q)), i)
            })
            .collect();
        keyed.sort_unstable();
        let valid = keyed.partition_point(|&(key, _)| key != OUT_OF_BOUNDS);
        let mut run = Run {
            values: vec![0.0; pairs.len()],
            failures: (keyed.drain(valid..))
                .map(|(_, slot)| (slot as usize, out_of_bounds(pairs[slot as usize], n)))
                .collect(),
            ..Run::default()
        };
        let mut repeats: Vec<(u32, u32)> = Vec::new();
        if self.core.cache.is_some() {
            keyed.dedup_by(|repeat, first| {
                let fold = repeat.0 == first.0 && !is_self(repeat.0);
                if fold {
                    repeats.push((repeat.1, first.1));
                }
                fold
            });
        }
        run.hits = repeats.len() as u64;
        match schedule_over {
            Some(store) => self.run_scheduled(store, &keyed, &mut run, fail_fast, cancel),
            None => self.run_sorted(keyed, &mut run, fail_fast, cancel),
        }?;
        // Each repeat takes its first occurrence's outcome.
        run.failures.sort_unstable_by_key(|&(slot, _)| slot);
        let firsts = run.failures.len();
        for (slot, first) in repeats.into_iter().map(|(s, f)| (s as usize, f as usize)) {
            run.values[slot] = run.values[first];
            if let Ok(i) = run.failures[..firsts].binary_search_by_key(&first, |f| f.0) {
                run.failures.push((slot, run.failures[i].1.clone()));
            }
        }
        run.failures.sort_unstable_by_key(|&(slot, _)| slot);
        Ok(run)
    }

    /// The hub-sorted runner: answers `keyed`, the sorted distinct queries
    /// of a batch, into `run`. Sorted in the permuted domain, runs of pairs
    /// sharing a hub are contiguous with ascending suffix bounds, so one
    /// scatter serves each run, on one worker or many (bit-identical).
    fn run_sorted(
        &self,
        keyed: Vec<(u64, u32)>,
        run: &mut Run,
        fail_fast: bool,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<(), EffresError> {
        let batch_len = run.values.len();
        let threads = self.effective_threads(batch_len);
        run.threads = threads;
        // One pool job per chunk of the sorted batch (run inline when there
        // is one thread): the job borrows its range of one shared copy
        // through the Arc, answers it with a scratch column drawn from the
        // core's sharded free list (the job index spreads jobs over
        // distinct shards), and hands back its values, failures and the
        // kernel counters its scratch accumulated.
        let keyed = Arc::new(keyed);
        let chunk_len = keyed.len().div_ceil(threads).max(1);
        let jobs: Vec<_> = (0..keyed.len())
            .step_by(chunk_len)
            .enumerate()
            .map(|(job, lo)| {
                let hi = (lo + chunk_len).min(keyed.len());
                let (core, keyed) = (Arc::clone(&self.core), Arc::clone(&keyed));
                let cancel = cancel.map(Arc::clone);
                move || {
                    let mut scratch = core.take_scratch(job);
                    let queries = &keyed[lo..hi];
                    let out = core.run_slice(
                        queries,
                        batch_len,
                        &mut scratch,
                        fail_fast,
                        cancel.as_deref(),
                    );
                    core.return_scratch(job, scratch);
                    out
                }
            })
            .collect();
        let slices = if threads <= 1 {
            jobs.into_iter().map(|job| job()).collect()
        } else {
            self.worker_pool().run(jobs)
        };
        let mut at = 0;
        for slice in slices {
            let slice = slice?;
            let queries = &keyed[at..at + slice.values.len()];
            for (&(_, slot), &value) in queries.iter().zip(&slice.values) {
                run.values[slot as usize] = value;
            }
            let located = slice.failures.into_iter();
            (run.failures).extend(located.map(|(i, error)| (queries[i].1 as usize, error)));
            at += queries.len();
            run.hits += slice.hits;
            run.misses += slice.misses;
            run.kernel.merge(slice.kernel);
        }
        Ok(())
    }
}

/// The error of a pair with a node outside `0..node_count`.
fn out_of_bounds((p, q): (usize, usize), node_count: usize) -> EffresError {
    EffresError::NodeOutOfBounds {
        node: p.max(q),
        node_count,
    }
}

/// `(min << 32) | max` of two node ids below 2^32: the batch sort key and
/// the pair-cache key of a permuted pair.
pub(crate) fn cache_key(p: usize, q: usize) -> u64 {
    let (a, b) = if p < q { (p, q) } else { (q, p) };
    ((a as u64) << 32) | b as u64
}

/// Whether a [`cache_key`] is a self-pair's (`R(p, p) = 0`, never cached).
fn is_self(key: u64) -> bool {
    key >> 32 == key & u64::from(u32::MAX)
}

/// The sort key of a pair with an out-of-bounds node: above every valid key
/// (node ids stay below `u32::MAX`), so such pairs sort last.
const OUT_OF_BOUNDS: u64 = u64::MAX;

/// Queries of a sorted slice per grouped-kernel call — about a millisecond
/// of kernel time on the bench grid, which bounds how long a tripped
/// cancellation token goes unnoticed.
const KERNEL_CHUNK: usize = 4096;

/// End of the kernel chunk of `queries` starting at `lo`: [`KERNEL_CHUNK`]
/// queries on, moved back one when the chunk would end on a hub run's
/// first pair — the kernel would answer that pair alone, one scatter
/// earlier than the run needs (the counters, never the bits, would
/// change).
fn chunk_end(queries: &[(u64, u32)], lo: usize) -> usize {
    let hi = (lo + KERNEL_CHUNK).min(queries.len());
    let hub = |i: usize| queries[i].0 >> 32;
    if hi < queries.len() && hub(hi) == hub(hi - 1) && hub(hi - 1) != hub(hi - 2) {
        hi - 1
    } else {
        hi
    }
}

impl<B: ResistanceBackend> EngineCore<B> {
    /// One job of the hub-sorted runner: answers sorted `queries`, whose
    /// keys carry the permuted `(hub, partner)`, as a [`Run`] over their
    /// positions, in chunks of about [`KERNEL_CHUNK`]. In a chunk,
    /// self-pairs are `0.0`, cache hits are served (when the batch of
    /// `batch_len` pairs uses the cache, [`EngineCore::pair_cache`]), and
    /// the rest run one [`grouped_values`] call, count as misses and fill
    /// the cache.
    ///
    /// A `cancel` token is checked **between chunks, never mid-kernel**:
    /// when it trips, the chunk about to run and everything after it fail
    /// with [`EffresError::DeadlineExceeded`] and the slice stops — in
    /// *both* modes (cancellation is stop-and-report, not a fault, so even
    /// fail-fast slices return `Ok` and let the caller account the
    /// abandoned tail). Answers produced before the trip are untouched,
    /// which keeps them bit-identical to an uncancelled run.
    fn run_slice(
        &self,
        queries: &[(u64, u32)],
        batch_len: usize,
        scratch: &mut HubScratch,
        fail_fast: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<Run, EffresError> {
        let store = self.backend.store();
        let cache = self.pair_cache(batch_len);
        let mut run = Run {
            values: vec![0.0; queries.len()],
            ..Run::default()
        };
        // The chunk's pairs that need the kernel, and their positions.
        let capacity = queries.len().min(KERNEL_CHUNK);
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(capacity);
        let mut positions: Vec<usize> = Vec::with_capacity(capacity);
        let mut lo = 0;
        while lo < queries.len() {
            if let Some(reason) = cancel.and_then(CancelToken::cancelled) {
                let abandoned = EffresError::DeadlineExceeded { reason };
                run.failures
                    .extend((lo..queries.len()).map(|i| (i, abandoned.clone())));
                break;
            }
            let hi = chunk_end(queries, lo);
            pairs.clear();
            positions.clear();
            for (i, &(key, _)) in queries.iter().enumerate().take(hi).skip(lo) {
                if is_self(key) {
                    continue;
                }
                if let Some(value) = cache.and_then(|cache| cache.get(key)) {
                    run.hits += 1;
                    run.values[i] = value;
                    continue;
                }
                pairs.push(((key >> 32) as usize, key as u32 as usize));
                positions.push(i);
            }
            run.misses += pairs.len() as u64;
            let (values, failures) =
                grouped_values(store, &pairs, &self.norms, scratch, fail_fast)?;
            for (k, (&i, &value)) in positions.iter().zip(&values).enumerate() {
                run.values[i] = value;
                let failed = || failures.binary_search_by_key(&k, |&(k, _)| k).is_ok();
                if let Some(cache) = cache.filter(|_| !failed()) {
                    cache.insert(queries[i].0, value);
                }
            }
            run.failures
                .extend(failures.into_iter().map(|(k, error)| (positions[k], error)));
            lo = hi;
        }
        run.kernel = scratch.take_stats();
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use effres::column_store::ColumnStore;
    use effres::EffresConfig;
    use effres_graph::generators;

    fn partial() -> ExecOptions {
        ExecOptions {
            mode: ExecMode::Partial,
            cancel: None,
        }
    }

    fn cancellable(mode: ExecMode, cancel: &Arc<CancelToken>) -> ExecOptions {
        ExecOptions {
            mode,
            cancel: Some(Arc::clone(cancel)),
        }
    }

    fn engine_for(nodes: usize, options: EngineOptions) -> QueryEngine {
        let side = (nodes as f64).sqrt() as usize;
        let graph = generators::grid_2d(side, side, 0.5, 2.0, 5).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        QueryEngine::new(Arc::new(estimator), options)
    }

    #[test]
    fn single_queries_match_estimator() {
        let engine = engine_for(256, EngineOptions::default());
        let estimator = Arc::clone(engine.estimator());
        for &(p, q) in &[(0, 255), (3, 200), (17, 17), (100, 101)] {
            let a = engine.query(p, q).expect("query");
            let b = estimator.query(p, q).expect("query");
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "({p},{q}): {a} vs {b}"
            );
        }
        assert!(engine.query(0, 9999).is_err());
    }

    #[test]
    fn batch_results_match_sequential_queries_in_order() {
        let engine = engine_for(
            400,
            EngineOptions {
                parallel_threshold: 8, // force the parallel path
                threads: 4,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(5000, engine.node_count(), 42);
        let result = engine.execute(&batch).expect("batch");
        assert_eq!(result.values.len(), batch.len());
        assert!(result.threads > 1, "expected parallel execution");
        let estimator = Arc::clone(engine.estimator());
        for (&(p, q), &value) in batch.pairs().iter().zip(&result.values) {
            let reference = estimator.query(p, q).expect("query");
            assert!(
                (value - reference).abs() <= 1e-9 * reference.abs().max(1.0),
                "({p},{q}): {value} vs {reference}"
            );
        }
    }

    #[test]
    fn partial_batches_fail_only_their_out_of_bounds_slots() {
        let reference_engine = engine_for(
            400,
            EngineOptions {
                threads: 1,
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        let n = reference_engine.node_count();
        // Out-of-bounds pairs (one side, both sides, `usize::MAX`) between
        // self-pairs, a pair and its reverse, and repeats.
        let mut pairs = vec![
            (3, 200),
            (n, 5),
            (17, 17),
            (200, 3),
            (5, n + 7),
            (3, 200),
            (usize::MAX, 2),
            (0, n - 1),
            (n + 1, n + 1),
            (17, 17),
            (n - 1, 0),
        ];
        pairs.extend_from_slice(QueryBatch::random(600, n, 21).pairs());
        pairs.push((9, n));
        let batch = QueryBatch::from_pairs(pairs.clone());
        let valid: Vec<(usize, usize)> = pairs
            .iter()
            .copied()
            .filter(|&(p, q)| p < n && q < n)
            .collect();
        let expected = reference_engine
            .execute(&QueryBatch::from_pairs(valid))
            .expect("valid pairs")
            .values;
        let expected_len = expected.len();
        assert_eq!(pairs.len() - expected_len, 5);

        for cache_capacity in [0, EngineOptions::default().cache_capacity] {
            for threads in [1, 2] {
                let engine = QueryEngine::new(
                    Arc::clone(reference_engine.estimator()),
                    EngineOptions {
                        threads,
                        cache_capacity,
                        parallel_threshold: 8,
                        ..EngineOptions::default()
                    },
                );
                let result = engine
                    .execute_with(&batch, &partial())
                    .expect("a partial batch without a token always runs");
                assert_eq!(result.threads, threads);
                assert_eq!(result.values.len(), pairs.len());
                let mut expected = expected.iter();
                let mut failures = result.failures.iter();
                for (slot, &(p, q)) in pairs.iter().enumerate() {
                    let got = result.values[slot];
                    if p < n && q < n {
                        let want = expected.next().expect("one answer per valid pair");
                        assert_eq!(got.to_bits(), want.to_bits(), "({p}, {q})");
                    } else {
                        assert_eq!(
                            failures.next().expect("one failure per invalid pair"),
                            &(
                                slot,
                                EffresError::NodeOutOfBounds {
                                    node: p.max(q),
                                    node_count: n,
                                }
                            )
                        );
                        assert_eq!(got, 0.0, "failed slots carry 0.0");
                    }
                }
                assert!(failures.next().is_none(), "valid pairs succeed");
                assert_eq!(result.failures.len(), pairs.len() - expected_len);
                if cache_capacity == 0 {
                    assert_eq!(result.cache_hits, 0);
                } else {
                    assert!(result.cache_hits >= 3, "repeats and reverses hit");
                }
            }
        }
    }

    #[test]
    fn invalid_batches_fail_before_any_work() {
        let engine = engine_for(64, EngineOptions::default());
        let before = engine.stats().queries;
        let batch = QueryBatch::from_pairs(vec![(0, 1), (2, 1_000_000)]);
        assert!(engine.execute(&batch).is_err());
        assert_eq!(engine.stats().queries, before);
    }

    #[test]
    fn cache_serves_repeats() {
        let engine = engine_for(64, EngineOptions::default());
        let first = engine.query(1, 40).expect("query");
        let stats_after_miss = engine.stats();
        assert_eq!(stats_after_miss.cache_misses, 1);
        let second = engine.query(40, 1).expect("query"); // symmetric key
        assert_eq!(first, second);
        let stats_after_hit = engine.stats();
        assert_eq!(stats_after_hit.cache_hits, 1);
        assert!(stats_after_hit.cache_entries >= 1);
    }

    #[test]
    fn cache_can_be_disabled() {
        let engine = engine_for(
            64,
            EngineOptions {
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        engine.query(0, 10).expect("query");
        engine.query(0, 10).expect("query");
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_capacity, 0);
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let engine = engine_for(100, EngineOptions::default());
        let batch = QueryBatch::random(100, engine.node_count(), 3);
        engine.execute(&batch).expect("batch");
        engine.execute(&batch).expect("batch");
        let stats = engine.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries, 200);
        // Second run should be answered almost entirely from cache.
        assert!(stats.cache_hits > 0);
        assert!(stats.cache_hits + stats.cache_misses <= 200);
        // A resident backend has no page cache to report on.
        assert_eq!(stats.page_cache_hits, 0);
        assert_eq!(stats.page_cache_misses, 0);
    }

    /// A store whose fetches always fail, for exercising the engine's
    /// error paths (the resident arena can never produce one).
    struct FailingStore {
        order: usize,
    }

    impl ColumnStore for FailingStore {
        fn order(&self) -> usize {
            self.order
        }

        fn nnz(&self) -> usize {
            0
        }

        fn with_column<R>(
            &self,
            j: usize,
            _f: impl FnOnce(effres::approx_inverse::ColumnView<'_>) -> R,
        ) -> Result<R, EffresError> {
            Err(EffresError::StoreFailure {
                column: j,
                message: "injected failure".into(),
            })
        }
    }

    #[test]
    fn a_failed_scratch_load_leaves_no_stale_column_behind() {
        // Regression test: scratches return to a shared free list even when
        // a batch aborts, so a load that fails halfway must leave the
        // scratch *empty* — a stale hub marker over a cleared buffer would
        // make a later batch silently compute dot = 0.
        let engine = engine_for(64, EngineOptions::default());
        let estimator = Arc::clone(engine.estimator());
        let store = estimator.approximate_inverse();
        let mut scratch = HubScratch::new(store.order());
        scratch.load(store, 3).expect("resident load");
        assert_eq!(scratch.hub(), Some(3));
        let reference = scratch.suffix_dot(store, 5).expect("resident dot");

        // A failing fetch clears the hub marker...
        let failing = FailingStore {
            order: store.order(),
        };
        assert!(scratch.load(&failing, 7).is_err());
        assert_eq!(scratch.hub(), None);

        // ...so reloading the original column really rescatters it instead
        // of trusting a stale marker, and the dot product is unchanged.
        scratch.load(store, 3).expect("resident reload");
        let again = scratch.suffix_dot(store, 5).expect("resident dot");
        assert_eq!(reference.to_bits(), again.to_bits());
    }

    #[test]
    fn pair_value_clamps_negative_cancellation_to_zero() {
        // Pins the clamp in `pair_value` and `run_slice`:
        // floating-point cancellation in ‖z̃_p‖² + ‖z̃_q‖² − 2⟨z̃_p, z̃_q⟩ can
        // go slightly negative for near-identical columns, and resistances
        // are nonnegative, so the engine must return exactly 0.0 — never a
        // negative value. Drive the identity negative deterministically with
        // a norm table that understates the true norms.
        let engine = engine_for(64, EngineOptions::default());
        let estimator = Arc::clone(engine.estimator());
        let store = estimator.approximate_inverse();
        let permutation = estimator.permutation();
        let n = store.order();
        let (pp, qq, dot) = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .find_map(|(a, b)| {
                let (pp, qq) = (permutation.new(a), permutation.new(b));
                let dot = column_store::column_dot(store, pp, qq).expect("resident dot");
                (dot > 0.0).then_some((pp, qq, dot))
            })
            .expect("some pair of columns overlaps");
        let mut norms = vec![1.0; n];
        norms[pp] = 0.9 * dot;
        norms[qq] = 0.9 * dot;
        let unclamped = norms[pp] + norms[qq] - 2.0 * dot;
        assert!(
            unclamped < 0.0,
            "identity must evaluate negative: {unclamped}"
        );
        let core = EngineCore {
            backend: Arc::clone(&estimator),
            norms: Arc::new(norms),
            cache: None,
            admission: None,
            scratches: std::array::from_fn(|_| Mutex::new(Vec::new())),
        };
        let value = core.pair_value(pp, qq).expect("pair value");
        assert_eq!(value, 0.0, "clamped exactly to zero, not {unclamped}");
        // The batch kernel path applies the same clamp.
        let mut scratch = HubScratch::new(n);
        let run = core
            .run_slice(&[(cache_key(pp, qq), 0)], 1, &mut scratch, true, None)
            .expect("slice");
        assert!(run.failures.is_empty());
        assert_eq!(run.values[0], 0.0);
    }

    #[test]
    fn a_pretripped_token_abandons_the_whole_batch() {
        let engine = engine_for(64, EngineOptions::default());
        let batch = QueryBatch::random(100, engine.node_count(), 5);
        let cancel = Arc::new(CancelToken::unbounded());
        cancel.cancel(CancelReason::Disconnected);
        let before = engine.stats();
        for mode in [ExecMode::FailFast, ExecMode::Partial] {
            let abort = engine
                .execute_with(&batch, &cancellable(mode, &cancel))
                .unwrap_err();
            assert_eq!(
                abort.error,
                EffresError::DeadlineExceeded {
                    reason: CancelReason::Disconnected
                }
            );
            assert_eq!(abort.abandoned_pairs, batch.len() as u64);
        }
        assert_eq!(engine.stats(), before, "no batch ran");
    }

    #[test]
    fn an_untripped_token_changes_nothing() {
        let engine = engine_for(
            400,
            EngineOptions {
                parallel_threshold: 8,
                threads: 4,
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(3000, engine.node_count(), 13);
        let reference = engine.execute(&batch).expect("reference");
        let cancel = Arc::new(CancelToken::after(Duration::from_secs(3600)));
        for mode in [ExecMode::FailFast, ExecMode::Partial] {
            let result = engine
                .execute_with(&batch, &cancellable(mode, &cancel))
                .expect("nowhere near the deadline");
            assert!(result.failures.is_empty());
            assert_eq!(result.values.len(), reference.values.len());
            for (value, reference) in result.values.iter().zip(&reference.values) {
                assert_eq!(value.to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn cancellation_keeps_completed_answers_bit_identical() {
        let engine = engine_for(
            400,
            EngineOptions {
                parallel_threshold: 8,
                threads: 4,
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(20_000, engine.node_count(), 11);
        let reference = engine.execute(&batch).expect("reference").values;
        let answered_before = engine.stats().queries;
        let cancel = Arc::new(CancelToken::unbounded());
        let canceller = {
            let cancel = Arc::clone(&cancel);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(300));
                cancel.cancel(CancelReason::Disconnected);
            })
        };
        let outcome = engine.execute_with(&batch, &cancellable(ExecMode::Partial, &cancel));
        canceller.join().expect("canceller");
        match outcome {
            Ok(result) => {
                // Whatever the race decided, every completed answer is
                // bit-identical to the solo run and the abandoned tail is
                // typed and fully accounted.
                let mut failures = result.failures.iter().peekable();
                let mut completed = 0u64;
                for (slot, (value, reference)) in result.values.iter().zip(&reference).enumerate() {
                    match failures.next_if(|(failed, _)| *failed == slot) {
                        None => {
                            completed += 1;
                            assert_eq!(value.to_bits(), reference.to_bits());
                        }
                        Some((_, EffresError::DeadlineExceeded { reason })) => {
                            assert_eq!(*reason, CancelReason::Disconnected);
                        }
                        Some((_, other)) => panic!("unexpected status: {other}"),
                    }
                }
                assert_eq!(completed + result.failures.len() as u64, batch.len() as u64);
                assert_eq!(
                    engine.stats().queries - answered_before,
                    completed,
                    "only answered slots count as queries"
                );
            }
            // The canceller won the race to admission: nothing ran at all.
            Err(abort) => assert!(matches!(abort.error, EffresError::DeadlineExceeded { .. })),
        }
    }

    #[test]
    fn a_doomed_deadline_is_rejected_up_front() {
        let engine = engine_for(100, EngineOptions::default());
        // Teach the service-time estimator that pairs are outrageously slow
        // (one second each), so a 100-pair batch estimates at 100 s — far
        // beyond a 5 s deadline that itself has no chance of expiring
        // spuriously before admission runs. Deterministic either way.
        engine.service_time().record(1, Duration::from_secs(1));
        let batch = QueryBatch::random(100, engine.node_count(), 8);
        let before = engine.stats();
        let cancel = Arc::new(CancelToken::after(Duration::from_secs(5)));
        for mode in [ExecMode::FailFast, ExecMode::Partial] {
            let abort = engine
                .execute_with(&batch, &cancellable(mode, &cancel))
                .unwrap_err();
            assert_eq!(
                abort.error,
                EffresError::DeadlineExceeded {
                    reason: CancelReason::Unmeetable
                }
            );
            assert_eq!(abort.abandoned_pairs, batch.len() as u64);
        }
        assert_eq!(engine.stats(), before, "no batch ran");
    }

    #[test]
    fn throughput_is_finite_and_positive() {
        let engine = engine_for(100, EngineOptions::default());
        let batch = QueryBatch::random(256, engine.node_count(), 1);
        let result = engine.execute(&batch).expect("batch");
        assert!(result.throughput() > 0.0);
    }
}
