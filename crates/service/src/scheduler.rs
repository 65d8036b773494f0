//! The locality scheduler: batch execution for the paged backend that
//! reorders queries by the **pages** they touch instead of answering them in
//! arrival order.
//!
//! Arrival-order paged batches are an I/O disaster: every query touches the
//! pages of two essentially random columns, so a cache smaller than the file
//! thrashes — the PR-4 bench measured ~400× below resident throughput with
//! the work being pure page decode, not arithmetic. The fix is the classic
//! external-memory discipline (PEERS; Yang et al., "Efficient Estimation of
//! Pairwise Effective Resistance"): *amortize every fetched page over all
//! the queries that need it before letting it go*.
//!
//! [`QueryEngine::execute_with`] runs every batch on a backend with a
//! [`paged_store`](crate::ResistanceBackend::paged_store) through this
//! scheduler. On a v4 file, a batch whose page footprint outgrows the cache
//! (see below) gets a **certification** pass first: it reads the persisted
//! row-bucket skeletons of the batch's columns
//! ([`PagedColumnStore::read_skeletons`](effres_io::PagedColumnStore::read_skeletons)),
//! in a few large reads, split over the worker pool when the batch runs on
//! more than one thread, and answers every cache-missing query whose
//! skeletons share no bucket from the norm table — about 85% of uniform
//! random pairs on the benchmark grid — so only the rest reach the three
//! steps below. A batch of more than `PROBE_PAIRS` (64) queries probes
//! first: it reads the skeletons of up to 64 queries spread over the batch,
//! in rounds of 1, 2, 4, … queries, and skips the rest of the pass when
//! none of them certifies, as for graph edges, whose suffixes always meet.
//! A batch that fits the cache is not certified: it reads, caches and
//! reuses whole pages, so its repeats read nothing.
//!
//! 1. **Cluster** — each cache-missing query is mapped to its page pair
//!    `(page_lo, page_hi)` (the pages of its smaller and larger permuted
//!    endpoint) and the batch is sorted into page-pair clusters.
//! 2. **Lease** — each round leases pin capacity for the distinct pages
//!    (either side) the remaining queries touch, capped at the store's
//!    cache budget, and cuts the next queries, in page-pair order, into up
//!    to `fan` chunks of at most `grant / fan` distinct pages each, where
//!    `fan` is the batch's thread count, at most one chunk per
//!    `MIN_CHUNK_PAGES` (16) granted pages. A round never pins more than
//!    its grant.
//! 3. **Drain** — each chunk is pinned once
//!    ([`PagedColumnStore::pin_pages`](effres_io::PagedColumnStore::pin_pages))
//!    and stays resident while *all* of its queries drain. A round with
//!    more than one chunk runs each on a worker of the engine's
//!    [`WorkerPool`](effres::WorkerPool), which makes the chunk's pin itself,
//!    so the reads run in parallel; a lone chunk drains on the calling
//!    thread.
//!
//! Every page is therefore read about once per chunk that touches it
//! instead of once per query. How much of a page is read depends on the
//! batch's **page footprint** (the distinct pages its queries touch). A
//! batch that fits the store's cache budget pins whole pages: adjacent
//! missing pages merge into large sequential reads, and the pages stay
//! cached for whatever comes next. A batch that outgrows the budget would
//! flush the cache anyway, so each chunk pin carries the columns its
//! queries read as a *demand*, and a page whose demanded columns hold under
//! a quarter of its bytes is read as runs of adjacent demanded columns —
//! pinned, not cached. A run pins its rows. Before its kernel runs, such a
//! chunk answers the pairs whose pinned suffix rows share no row from the
//! norm table (see `drain_chunk`), then reads the values of only the runs
//! the remaining pairs use; most random pairs on a large sparse graph
//! share no row. A uniform
//! batch over a file many times the cache uses a few columns per page, so
//! this is where its I/O goes from whole-page to per-column, and from
//! per-column to the rows of most columns. The plan — rounds, chunks,
//! evaluation order — is the same either way; only the bytes behind each
//! pin change.
//!
//! Pin capacity is not assumed but **leased**: every round acquires its
//! pages from the engine's
//! [`AdmissionLedger`](crate::admission::AdmissionLedger) first, so
//! concurrent batches on one engine split the cache budget between them
//! (round by round) instead of over-pinning it — an uncontended lease gets
//! what the round asked for and the plan is exactly the solo plan.
//!
//! One body serves both [`ExecMode`](crate::ExecMode)s: every query gets a
//! value or a failure, and the mode only decides what a failure does.
//! Fail-fast stops at the first failure other than a cancellation (a chunk
//! pin, a chunk's kernel, an admission shed). Partial mode degrades
//! instead: chunk pins degrade page by page
//! ([`pin_pages_partial`](effres_io::PagedColumnStore::pin_pages_partial)),
//! a query on a page that did not pin reads through the store, a chunk
//! whose grouped kernel fails is re-run query by query so only the queries
//! touching an unproducible page, or needing a run's unproducible values,
//! fail, and a shed after the first round marks the remaining queries
//! [`EffresError::Busy`]. In both modes a cancellation token is checked at
//! the top of every round — where the previous round's lease and pins have
//! all been released by RAII — and a trip marks every query not yet
//! drained [`EffresError::DeadlineExceeded`].
//!
//! Results are scattered back into the batch's original request order, and
//! each query is evaluated by exactly the same store-generic kernels as the
//! hub-sorted runner (the grouped multi-pair kernel
//! [`column_distances_squared_grouped`](effres::column_store::column_distances_squared_grouped),
//! property-pinned bit-identical to the pairwise
//! [`column_dot`](effres::column_store::column_dot) loop, also on a
//! one-pair slice) or, for a pair whose suffixes share no row, by the same
//! [`norm_identity`](effres::column_store::norm_identity) with the `+0.0`
//! dot those kernels give it, so the values are **bit-identical** to
//! unscheduled paged — and to resident — execution in either mode; only
//! the evaluation order and the I/O pattern change. Query independence
//! makes that reordering safe by construction, and the property tests in
//! `tests/io_service_end_to_end.rs` pin it.

use crate::admission::PinLease;
use crate::backend::ResistanceBackend;
use crate::batch::QueryBatch;
use crate::cache::ShardedLru;
use crate::cancel::CancelToken;
use crate::engine::{
    cache_key, grouped_values, BatchResult, EngineCore, ExecOptions, QueryEngine, Run,
    ScheduleReport,
};
use effres::column_store::{self, KernelStats};
use effres::EffresError;
use effres_io::snapshot::SKELETON_GROUP;
use effres_io::{PagedColumnStore, PagedSnapshot, PinnedReader};
use std::sync::Arc;

/// One cache-missing query, resolved into the permuted domain and mapped
/// onto its page pair.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Index into the batch (and the output vector).
    slot: u32,
    /// Permuted endpoints, `pp < qq`.
    pp: u32,
    qq: u32,
    /// Unordered page pair: `page_lo <= page_hi`.
    page_lo: u32,
    page_hi: u32,
}

impl QueryEngine<PagedSnapshot> {
    /// [`execute_with`](QueryEngine::execute_with) with default options —
    /// fail-fast, no cancellation token — through the locality scheduler:
    /// answers come back in the batch's original pair order and are
    /// bit-identical to [`QueryEngine::execute`], which remains the
    /// arrival-order reference path.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] naming the first invalid
    /// node (no query has run), [`EffresError::StoreFailure`] if the
    /// store failed mid-batch (in which case the batch produced no values),
    /// or [`EffresError::Busy`] if bounded admission shed the batch.
    pub fn execute_scheduled(&self, batch: &QueryBatch) -> Result<BatchResult, EffresError> {
        self.execute_with(batch, &ExecOptions::default())
            .map_err(|abort| abort.error)
    }
}

impl<B: ResistanceBackend> QueryEngine<B> {
    /// Leases pin capacity for one round, honoring the engine's admission
    /// bounds: unbounded blocking by default, shedding with a typed
    /// [`EffresError::Busy`] when
    /// [`admission_queue_depth`](crate::engine::EngineOptions::admission_queue_depth)
    /// is configured.
    /// A cancellation token bounds the wait further: an already-tripped
    /// token fails before queueing, a deadline caps the lease wait at the
    /// time actually left, and a wait that runs out the deadline surfaces as
    /// [`EffresError::DeadlineExceeded`] rather than a retryable `Busy`.
    fn lease_block(
        &self,
        desired: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<PinLease<'_>>, EffresError> {
        if let Some(token) = cancel {
            token.check()?;
        }
        let Some(ledger) = self.core.admission.as_deref() else {
            return Ok(None);
        };
        // The admission timeout applies only to a bounded queue; a deadline
        // caps whichever wait is left.
        let depth = self.options.admission_queue_depth;
        let timeout = [
            depth.map(|_| self.options.admission_timeout),
            cancel.and_then(CancelToken::remaining),
        ]
        .into_iter()
        .flatten()
        .min();
        match ledger.lease_within(2, desired, depth.unwrap_or(usize::MAX), timeout) {
            Ok(lease) => Ok(Some(lease)),
            Err(err) => {
                // A lease timeout that coincides with the token's deadline
                // *is* the deadline: report it as such, not as a retryable
                // overload shed.
                if let Some(token) = cancel {
                    token.check()?;
                }
                Err(err)
            }
        }
    }

    /// The scheduler's runner over `store` (see the module docs): answers
    /// `queries`, the sorted distinct `(key, slot)` queries of a batch, into
    /// `run`. `Err` only in fail-fast mode, on the first failure that is
    /// not a cancellation — and, in either mode, for a
    /// [`EffresError::Busy`] shed before the first round ran.
    pub(crate) fn run_scheduled(
        &self,
        store: &PagedColumnStore,
        queries: &[(u64, u32)],
        run: &mut Run,
        fail_fast: bool,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<(), EffresError> {
        let batch_len = run.values.len();
        let mut pending: Vec<Pending> = Vec::with_capacity(queries.len());
        let cache = self.core.pair_cache(batch_len);
        for &(key, slot) in queries {
            let (pp, qq) = ((key >> 32) as usize, key as u32 as usize);
            if pp == qq {
                continue; // R(p, p) = 0: values[slot] stays 0.0
            }
            if let Some(value) = cache.and_then(|cache| cache.get(key)) {
                run.hits += 1;
                run.values[slot as usize] = value;
                continue;
            }
            pending.push(Pending {
                slot,
                pp: pp as u32,
                qq: qq as u32,
                page_lo: store.page_of_column(pp) as u32,
                page_hi: store.page_of_column(qq) as u32,
            });
        }
        run.misses = pending.len() as u64;
        let threads = self.effective_threads(batch_len).max(1);
        // A page bitmap, left clear after every use.
        let mut marked = vec![false; store.page_count()];
        // Only a batch whose pages outgrow the cache is certified: one that
        // fits reads, caches and reuses whole pages, so its repeats read
        // nothing, while an outgrown one's pins are demand-sized and kept
        // by no later batch.
        if store.has_skeleton()
            && cancel.is_none_or(|token| token.cancelled().is_none())
            && distinct_pages(&pending, &mut marked) > store.cache_capacity_pages()
        {
            self.certify(store, &mut pending, run, cache, threads);
        }

        // 1. Cluster: queries sharing a page pair become adjacent; the slot
        // tiebreak keeps the plan deterministic for identical batches.
        pending.sort_unstable_by_key(|t| (t.page_lo, t.page_hi, t.slot));
        let clusters = pending
            .windows(2)
            .filter(|w| (w[0].page_lo, w[0].page_hi) != (w[1].page_lo, w[1].page_hi))
            .count()
            + usize::from(!pending.is_empty());

        // Distinct pages (either side) in `pending[i..]`: what the round
        // starting at `i` can use at most. One backward pass over the page
        // bitmap, cleared again for the chunk cuts below.
        let mut pages_from = vec![0usize; pending.len() + 1];
        for i in (0..pending.len()).rev() {
            let t = pending[i];
            let new = [t.page_lo, t.page_hi]
                .into_iter()
                .filter(|&page| !std::mem::replace(&mut marked[page as usize], true))
                .count();
            pages_from[i] = pages_from[i + 1] + new;
        }
        marked.fill(false);
        // A batch whose footprint outgrows the cache would flush the LRU
        // anyway, so its pins are demand-sized (see
        // [`pin_pages`](effres_io::PagedColumnStore::pin_pages)); a batch
        // that fits reads, caches and reuses whole pages.
        let sparse = pages_from[0] > store.cache_capacity_pages();

        // 2. Rounds. The scheduler needs at least two pages (one per side of
        // a pair) — a smaller cache still works, it just re-reads more.
        // Each round **leases** its pin capacity from the engine's admission
        // ledger (what it asked for when uncontended — the solo plan — a
        // fair share otherwise) and re-queues for the next, so competing
        // traffic interleaves with a long batch round by round.
        let budget = store.cache_capacity_pages().max(2);
        let mut report = ScheduleReport {
            clusters,
            blocks: 0,
            windows: 0,
        };
        let mut parallel_fan = 1usize;
        let mut at = 0usize;
        while at < pending.len() {
            // Round boundary: the cheapest place to notice a tripped token —
            // no lease held, nothing pinned, everything after `at` unread.
            if let Some(reason) = cancel.and_then(|token| token.cancelled()) {
                fail_all(
                    &mut run.failures,
                    &pending[at..],
                    &EffresError::DeadlineExceeded { reason },
                );
                break;
            }
            let desired = pages_from[at].clamp(2, budget);
            // The lease blocks until capacity is free and returns it when
            // dropped at the end of the round (or sheds with `Busy` under
            // bounded admission).
            let lease = match self.lease_block(desired, cancel.map(Arc::as_ref)) {
                Ok(lease) => lease,
                // A shed before anything drained rejects the batch whole,
                // and so does any shed in fail-fast mode.
                Err(busy @ EffresError::Busy { .. }) if fail_fast || at == 0 => return Err(busy),
                Err(err) => {
                    // A later shed in partial mode, or a deadline run out
                    // waiting for the lease: everything drained so far
                    // stands; the rest is typed for the client — `Busy` to
                    // retry, `DeadlineExceeded` to give up on.
                    fail_all(&mut run.failures, &pending[at..], &err);
                    break;
                }
            };
            let grant = lease.as_ref().map_or(desired, |l| l.granted());
            report.blocks += 1;

            // Cut up to `fan` chunks of at most `cap` distinct pages, so the
            // round's pins never exceed the grant. A chunk always takes its
            // first query, which fits: `cap >= 2`.
            let fan = threads.min(grant / MIN_CHUNK_PAGES).max(1);
            let cap = grant / fan;
            let mut chunks: Vec<(Vec<usize>, usize, usize)> = Vec::new();
            while chunks.len() < fan && at < pending.len() {
                let start = at;
                let mut pages: Vec<usize> = Vec::new();
                while at < pending.len() {
                    let t = pending[at];
                    let (lo, hi) = (t.page_lo as usize, t.page_hi as usize);
                    let new = usize::from(!marked[lo]) + usize::from(lo != hi && !marked[hi]);
                    if at > start && pages.len() + new > cap {
                        break;
                    }
                    for page in [lo, hi] {
                        if !std::mem::replace(&mut marked[page], true) {
                            pages.push(page);
                        }
                    }
                    at += 1;
                }
                for &page in &pages {
                    marked[page] = false;
                }
                chunks.push((pages, start, at));
            }
            report.windows += chunks.len();

            // 3. Drain: each chunk on a pool worker, which makes the chunk's
            // pin too, when the round has more than one; inline otherwise.
            let drained = if chunks.len() > 1 {
                parallel_fan = parallel_fan.max(chunks.len());
                let jobs: Vec<_> = (chunks.into_iter().enumerate())
                    .map(|(job, (pages, lo, hi))| {
                        let core = Arc::clone(&self.core);
                        let queries = pending[lo..hi].to_vec();
                        move || {
                            drain_chunk(&core, &pages, queries, batch_len, job, sparse, fail_fast)
                        }
                    })
                    .collect();
                self.worker_pool().run(jobs)
            } else {
                (chunks.into_iter())
                    .map(|(pages, lo, hi)| {
                        let queries = pending[lo..hi].to_vec();
                        drain_chunk(&self.core, &pages, queries, batch_len, 0, sparse, fail_fast)
                    })
                    .collect()
            };
            for result in drained {
                let (answers, chunk_failures, chunk_kernel) = result?;
                run.kernel.merge(chunk_kernel);
                for (slot, value) in answers {
                    run.values[slot as usize] = value;
                }
                run.failures.extend(chunk_failures);
            }
        }

        run.threads = parallel_fan;
        run.schedule = Some(report);
        Ok(())
    }

    /// The certification pass of [`QueryEngine::run_scheduled`] on a store
    /// with a persisted skeleton: reads the skeletons of the pending
    /// queries' columns in a few large reads
    /// ([`PagedColumnStore::read_skeletons`]), answers every query whose
    /// suffixes they certify disjoint from the norm table
    /// ([`answer_disjoint`]), and leaves only the other queries pending.
    ///
    /// A batch of more than [`PROBE_PAIRS`] queries probes first
    /// ([`probe_certifies`]) and skips the pass when no probed pair
    /// certifies: traffic such as graph edges, whose suffixes always meet,
    /// would pay for the reads and save nothing. With more than one thread
    /// the reads and the certificates are split over the worker pool.
    fn certify(
        &self,
        store: &PagedColumnStore,
        pending: &mut Vec<Pending>,
        run: &mut Run,
        cache: Option<&ShardedLru>,
        threads: usize,
    ) {
        if pending.len() > PROBE_PAIRS && !probe_certifies(store, pending) {
            return;
        }
        let mut columns = columns_of(pending);
        columns.sort_unstable();
        columns.dedup();
        // A group the scrubber distrusts while this pass reads may have
        // certified some of its answers: then they leave the pair cache
        // again below, whichever of the scrubber's clear and these inserts
        // came first.
        let distrusted = store.scrub_stats().skeleton_groups_distrusted;
        let certified: Vec<bool> = if threads > 1 {
            let cuts = group_cuts(&columns, threads);
            let reads: Vec<_> = (cuts.windows(2))
                .map(|cut| {
                    let core = Arc::clone(&self.core);
                    let part = columns[cut[0]..cut[1]].to_vec();
                    move || paged_store(&core).read_skeletons(&part)
                })
                .collect();
            let mut parts = self.worker_pool().run(reads).into_iter();
            let mut skeletons = parts.next().unwrap_or_default();
            parts.for_each(|part| skeletons.append(part));
            let skeletons = Arc::new(skeletons);
            let checks: Vec<_> = (pending.chunks(pending.len().div_ceil(threads).max(1)))
                .map(|queries| {
                    let skeletons = Arc::clone(&skeletons);
                    let queries = queries.to_vec();
                    move || -> Vec<bool> {
                        (queries.iter())
                            .map(|t| skeletons.certifies(t.pp as usize, t.qq as usize))
                            .collect()
                    }
                })
                .collect();
            self.worker_pool().run(checks).concat()
        } else {
            let skeletons = store.read_skeletons(&columns);
            (pending.iter())
                .map(|t| skeletons.certifies(t.pp as usize, t.qq as usize))
                .collect()
        };
        let before = pending.len();
        let mut verdicts = certified.into_iter();
        pending.retain(|t| {
            if !verdicts.next().expect("one verdict per query") {
                return true;
            }
            run.values[t.slot as usize] = answer_disjoint(&self.core.norms, cache, t);
            false
        });
        if let Some(cache) = cache {
            if store.scrub_stats().skeleton_groups_distrusted != distrusted {
                cache.clear();
            }
        }
        let certified = (before - pending.len()) as u64;
        run.kernel.isolated_pairs += certified;
        run.kernel.certified_pairs += certified;
    }
}

/// Queries a batch probes before its certification pass: up to this many
/// (a power of two), spread over the batch. None of 64 certifying puts the
/// batch's share of certifiable pairs below about 5% with 95% confidence;
/// uniform pairs on the benchmark grid (84%) almost always certify at the
/// first probe.
const PROBE_PAIRS: usize = 64;

/// Whether any of [`PROBE_PAIRS`] queries spread over `pending` certifies.
/// They are probed in rounds of 1, 2, 4, … queries, each round one
/// [`PagedColumnStore::read_skeletons`] of its queries' columns, until a
/// round certifies one. The `k`-th probe takes the query at fraction
/// `bit-reverse(k) / PROBE_PAIRS` of the batch, so every round spreads
/// over the whole batch.
fn probe_certifies(store: &PagedColumnStore, pending: &[Pending]) -> bool {
    let bits = PROBE_PAIRS.trailing_zeros();
    let probe = |k: usize| {
        pending[(k.reverse_bits() >> (usize::BITS - bits)) * pending.len() / PROBE_PAIRS]
    };
    let (mut from, mut round) = (0, 1);
    while from < PROBE_PAIRS {
        let to = (from + round).min(PROBE_PAIRS);
        let mut columns: Vec<usize> = (from..to)
            .flat_map(|k| [probe(k).pp as usize, probe(k).qq as usize])
            .collect();
        columns.sort_unstable();
        columns.dedup();
        let skeletons = store.read_skeletons(&columns);
        if (from..to).any(|k| skeletons.certifies(probe(k).pp as usize, probe(k).qq as usize)) {
            return true;
        }
        (from, round) = (to, 2 * round);
    }
    false
}

/// Cut points of ascending `columns` into at most `parts` runs of about
/// equal length, from 0 to `columns.len()`: each cut moves on past the
/// skeleton group it falls in, so no group is read by two runs.
fn group_cuts(columns: &[usize], parts: usize) -> Vec<usize> {
    let mut cuts = vec![0];
    for k in 1..parts {
        let at = columns.len() * k / parts;
        let Some(&before) = columns.get(at.wrapping_sub(1)) else {
            continue;
        };
        let group = before / SKELETON_GROUP;
        let at = at + columns[at..].partition_point(|&j| j / SKELETON_GROUP == group);
        if at > *cuts.last().expect("starts at 0") && at < columns.len() {
            cuts.push(at);
        }
    }
    cuts.push(columns.len());
    cuts
}

/// Answers query `t`, whose suffixes share no row, from the norm table:
/// the norm identity with the kernels' `+0.0` dot, so the bits any kernel
/// gives the pair. The answer also goes into the pair cache, if the batch
/// uses one.
fn answer_disjoint(norms: &[f64], cache: Option<&ShardedLru>, t: &Pending) -> f64 {
    let (p, q) = (t.pp as usize, t.qq as usize);
    let value = column_store::norm_identity(norms[p], norms[q], 0.0);
    if let Some(cache) = cache {
        cache.insert(cache_key(p, q), value);
    }
    value
}

/// Both permuted endpoints of every query, in query order.
fn columns_of(queries: &[Pending]) -> Vec<usize> {
    (queries.iter())
        .flat_map(|t| [t.pp as usize, t.qq as usize])
        .collect()
}

/// Distinct pages (either side) of `queries`, counted on `marked`, which
/// is left clear.
fn distinct_pages(queries: &[Pending], marked: &mut [bool]) -> usize {
    let mut pages = Vec::new();
    for t in queries {
        for page in [t.page_lo as usize, t.page_hi as usize] {
            if !std::mem::replace(&mut marked[page], true) {
                pages.push(page);
            }
        }
    }
    for &page in &pages {
        marked[page] = false;
    }
    pages.len()
}

/// The paged store of a scheduled engine's backend.
fn paged_store<B: ResistanceBackend>(core: &EngineCore<B>) -> &PagedColumnStore {
    core.backend
        .paged_store()
        .expect("the scheduler runs on paged backends")
}

/// Fewest pages a chunk gets when a round fans out over threads: a grant
/// that cannot give every chunk this many drains as one chunk. Below it,
/// a second worker's pin and hand-off cost more than its share of the
/// round's reads saves.
const MIN_CHUNK_PAGES: usize = 16;

/// Walks a chunk's row phase makes before it stops when all of them meet
/// (see [`drain_chunk`]). None of 32 finding a pair that shares no row puts
/// the chunk's share of such pairs below about 9% with 95% confidence,
/// where a uniform batch on the benchmark grid leaves about half of its
/// column runs unread.
const ROW_PROBE: usize = 32;

/// Fails every query in `queries` with `error`.
fn fail_all(failures: &mut Vec<(usize, EffresError)>, queries: &[Pending], error: &EffresError) {
    failures.extend(queries.iter().map(|t| (t.slot as usize, error.clone())));
}

/// Drains one chunk: pins its `pages` in one call (one coalesced read for
/// adjacent missing pages or, when `sparse`, just the columns the chunk's
/// queries read), then answers the chunk's queries through the grouped
/// multi-pair kernel ([`grouped_values`]) — bit-identical to the pairwise
/// kernel, but a chunk's queries sharing a hub column stream that column
/// once — via a reader that prefers the pinned pages and never touches the
/// cache locks for them. The answers fill the pair cache unless the batch
/// of `batch_len` pairs bypasses it. The hub scratch comes from the
/// engine's sharded free list (`scratch_hint` spreads concurrent chunks
/// over distinct shards), and the kernel counters it accumulated ride back
/// alongside the `(slot, value)` answers and the `(slot, error)` failures.
///
/// A sparse pin reads its column runs' rows only, so such a chunk runs in
/// two phases. The row phase takes the queries in turn. One with a column
/// on a run whose values are still unread walks its pinned suffix rows
/// ([`suffix_rows_meet`](column_store::suffix_rows_meet)): if they share
/// no row it is answered from the norm table ([`answer_disjoint`]) and
/// counted as an isolated pair, and if they meet its runs' values are read
/// ([`read_run_values`](PagedColumnStore::read_run_values)). A query whose
/// values are all in the pin already (whole pages, or runs an earlier
/// query read) has no read to save and is not walked. A walk that meets
/// is repeated by the kernel, so when the chunk's first [`ROW_PROBE`]
/// walks all meet (graph edges, say) it walks no more. Then the values of
/// every run the remaining queries use are read, and the kernel answers
/// them.
///
/// With `fail_fast` a failed pin or kernel fails the chunk. Without it the
/// pin degrades page by page, a query on a page that did not pin reads
/// through the store, and a failed grouped kernel is re-run query by query
/// over the same reader, so the successes stay bit-identical and only
/// queries actually touching an unproducible page, or needing the values
/// of a run that cannot produce them, fail.
#[allow(clippy::type_complexity)]
fn drain_chunk<B: ResistanceBackend>(
    core: &EngineCore<B>,
    pages: &[usize],
    mut queries: Vec<Pending>,
    batch_len: usize,
    scratch_hint: usize,
    sparse: bool,
    fail_fast: bool,
) -> Result<(Vec<(u32, f64)>, Vec<(usize, EffresError)>, KernelStats), EffresError> {
    let store = paged_store(core);
    let demand = sparse.then(|| columns_of(&queries));
    let mut pinned = if fail_fast {
        store.pin_pages(pages, demand.as_deref())?
    } else {
        store.pin_pages_partial(pages, demand.as_deref()).0
    };
    let cache = core.pair_cache(batch_len);
    let mut answers = Vec::with_capacity(queries.len());
    let mut kernel = KernelStats::default();
    if sparse {
        let (mut walks, mut disjoint) = (0, false);
        queries.retain(|t| {
            if walks == ROW_PROBE && !disjoint {
                return true; // Every walk met: stop walking.
            }
            let (p, q) = (t.pp as usize, t.qq as usize);
            let reader = PinnedReader::new(store, &pinned);
            let (Some((p_rows, p_held)), Some((q_rows, q_held))) = (reader.rows(p), reader.rows(q))
            else {
                return true; // A column off the pin is read through the store.
            };
            if p_held && q_held {
                return true; // Both columns' values are in the pin: no read to save.
            }
            walks += 1;
            let (meet, bytes) = column_store::suffix_rows_meet(p, p_rows, q, q_rows);
            if meet {
                store.read_run_values(&mut pinned, &[p, q]);
                return true;
            }
            disjoint = true;
            answers.push((t.slot, answer_disjoint(&core.norms, cache, t)));
            kernel.isolated_pairs += 1;
            kernel.bytes_streamed += bytes as u64;
            false
        });
        store.read_run_values(&mut pinned, &columns_of(&queries));
    }
    let reader = PinnedReader::new(store, &pinned);
    // Re-sort the chunk by column pair: pages hold neighbouring columns, so
    // the page-sorted chunk is nearly column-sorted already, and this makes
    // runs sharing a hub column contiguous for the grouped kernel. Safe
    // because queries are independent and answers scatter back by slot.
    queries.sort_unstable_by_key(|t| (t.pp, t.qq, t.slot));
    let pairs: Vec<(usize, usize)> = queries
        .iter()
        .map(|t| (t.pp as usize, t.qq as usize))
        .collect();
    let mut scratch = core.take_scratch(scratch_hint);
    let outcome = grouped_values(&reader, &pairs, &core.norms, &mut scratch, fail_fast);
    kernel.merge(scratch.take_stats());
    core.return_scratch(scratch_hint, scratch);
    let (values, failures) = outcome?;
    if let Some(cache) = cache {
        for (i, (t, &value)) in queries.iter().zip(&values).enumerate() {
            if failures.binary_search_by_key(&i, |&(i, _)| i).is_err() {
                cache.insert(cache_key(t.pp as usize, t.qq as usize), value);
            }
        }
    }
    let failures = failures
        .into_iter()
        .map(|(i, error)| (queries[i].slot as usize, error))
        .collect();
    answers.extend(queries.iter().map(|t| t.slot).zip(values));
    Ok((answers, failures, kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BatchAbort, EngineOptions, ExecMode};
    use effres::{EffectiveResistanceEstimator, EffresConfig};
    use effres_graph::generators;
    use effres_io::paged::{open_paged, PagedOptions};
    use effres_io::snapshot::save_snapshot;

    fn temp_snapshot(name: &str) -> (std::path::PathBuf, EffectiveResistanceEstimator) {
        let graph = generators::grid_2d(16, 16, 0.5, 2.0, 7).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let dir = std::env::temp_dir().join("effres-scheduler-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        save_snapshot(&path, &estimator, None).expect("save");
        (path, estimator)
    }

    fn paged_engine(
        path: &std::path::Path,
        paged_options: &PagedOptions,
        options: EngineOptions,
    ) -> QueryEngine<PagedSnapshot> {
        let paged = open_paged(path, paged_options).expect("open paged");
        QueryEngine::new(Arc::new(paged), options)
    }

    #[test]
    fn scheduled_matches_unscheduled_bitwise_in_original_order() {
        let (path, _estimator) = temp_snapshot("sched16.snap");
        let batch = QueryBatch::random(3000, 256, 99);
        for paged_options in [
            PagedOptions {
                columns_per_page: 4,
                cache_pages: 8,
                cache_shards: 2,
                ..PagedOptions::default()
            },
            PagedOptions {
                columns_per_page: 1,
                cache_pages: 1,
                cache_shards: 1,
                ..PagedOptions::default()
            },
            PagedOptions {
                columns_per_page: 64,
                cache_pages: 2,
                cache_shards: 1,
                ..PagedOptions::default()
            },
        ] {
            // Fresh engines, pair caches off: both sides take the kernel
            // path for every query.
            let options = || EngineOptions {
                cache_capacity: 0,
                parallel_threshold: usize::MAX,
                ..EngineOptions::default()
            };
            let reference = paged_engine(&path, &paged_options, options());
            let scheduled = paged_engine(&path, &paged_options, options());
            let a = reference.execute(&batch).expect("unscheduled");
            let b = scheduled.execute_scheduled(&batch).expect("scheduled");
            assert_eq!(a.values.len(), b.values.len());
            for (slot, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{paged_options:?} slot {slot} {:?}",
                    batch.pairs()[slot]
                );
            }
            let schedule = b.schedule.expect("scheduled path reports its shape");
            assert!(schedule.blocks >= 1);
            assert!(schedule.windows >= schedule.blocks);
            assert!(schedule.clusters >= 1);
            let page = b.page_cache.expect("paged backend reports page traffic");
            assert!(page.misses > 0);
            assert!(page.bytes_read > 0);
        }
    }

    #[test]
    fn scheduled_parallel_fan_out_is_bit_identical_too() {
        let (path, _estimator) = temp_snapshot("sched16_par.snap");
        let batch = QueryBatch::random(4000, 256, 5);
        // A grant of four chunks' worth of pages: four threads fan out.
        let paged_options = PagedOptions {
            columns_per_page: 2,
            cache_pages: 4 * MIN_CHUNK_PAGES,
            cache_shards: 2,
            ..PagedOptions::default()
        };
        let sequential = paged_engine(
            &path,
            &paged_options,
            EngineOptions {
                cache_capacity: 0,
                parallel_threshold: usize::MAX,
                ..EngineOptions::default()
            },
        );
        let parallel = paged_engine(
            &path,
            &paged_options,
            EngineOptions {
                cache_capacity: 0,
                threads: 4,
                parallel_threshold: 8,
                ..EngineOptions::default()
            },
        );
        let a = sequential.execute_scheduled(&batch).expect("sequential");
        let b = parallel.execute_scheduled(&batch).expect("parallel");
        assert!(b.threads > 1, "expected chunk fan-out");
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn a_batch_that_fits_the_budget_is_one_round_and_one_pin() {
        let (path, _estimator) = temp_snapshot("sched16_fits.snap");
        let paged_options = PagedOptions {
            columns_per_page: 4,
            cache_pages: 8,
            cache_shards: 1,
            ..PagedOptions::default()
        };
        let options = || EngineOptions {
            cache_capacity: 0,
            parallel_threshold: usize::MAX,
            ..EngineOptions::default()
        };
        let engine = paged_engine(&path, &paged_options, options());
        // Nodes whose permuted columns sit on the first 8 pages: any batch
        // over them touches at most the 8 pages of the budget.
        let permutation = &engine.backend().permutation;
        let nodes: Vec<usize> = (0..32).map(|column| permutation.old(column)).collect();
        let batch = QueryBatch::from_pairs(
            (QueryBatch::random(1000, nodes.len(), 17).pairs().iter())
                .map(|&(p, q)| (nodes[p], nodes[q]))
                .collect(),
        );
        let result = engine.execute_scheduled(&batch).expect("scheduled");
        let schedule = result.schedule.expect("scheduled path reports its shape");
        assert_eq!((schedule.blocks, schedule.windows), (1, 1), "{schedule:?}");
        assert_eq!(result.threads, 1);
        let page = result.page_cache.expect("paged");
        assert!(page.misses <= 8, "each page read once: {page:?}");
        let reference = paged_engine(&path, &paged_options, options());
        let expected = reference.execute(&batch).expect("unscheduled");
        for (x, y) in expected.values.iter().zip(&result.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn two_chunk_rounds_are_bit_identical_within_the_pin_budget() {
        let (path, _estimator) = temp_snapshot("sched16_fan2.snap");
        let paged_options = PagedOptions {
            columns_per_page: 2,
            cache_pages: 2 * MIN_CHUNK_PAGES,
            cache_shards: 1,
            ..PagedOptions::default()
        };
        let engine = paged_engine(
            &path,
            &paged_options,
            EngineOptions {
                cache_capacity: 0,
                threads: 2,
                parallel_threshold: 8,
                ..EngineOptions::default()
            },
        );
        let reference = paged_engine(
            &path,
            &paged_options,
            EngineOptions {
                cache_capacity: 0,
                parallel_threshold: usize::MAX,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(3000, 256, 23);
        let expected = reference.execute(&batch).expect("unscheduled");
        for mode in [ExecMode::FailFast, ExecMode::Partial] {
            let result = engine
                .execute_with(&batch, &ExecOptions { mode, cancel: None })
                .expect("scheduled");
            // A grant of twice the fan-out threshold at two threads: two
            // chunks of at most `MIN_CHUNK_PAGES` pages drain at once on
            // pool workers, each pinning its own.
            assert_eq!(result.threads, 2, "{mode:?}");
            let schedule = result.schedule.expect("scheduled");
            assert!(schedule.windows > schedule.blocks, "{schedule:?}");
            assert!(result.failures.is_empty());
            for (x, y) in expected.values.iter().zip(&result.values) {
                assert_eq!(x.to_bits(), y.to_bits(), "{mode:?}");
            }
        }
        let store = &engine.backend().store;
        assert_eq!(store.cache_capacity_pages(), 2 * MIN_CHUNK_PAGES);
        assert!(
            store.pinned_pages_high_water() <= store.cache_capacity_pages(),
            "pinned {} pages at once",
            store.pinned_pages_high_water()
        );
    }

    #[test]
    fn group_cuts_split_columns_evenly_between_skeleton_groups() {
        let columns: Vec<usize> = (0..1000).map(|k| k * 7 + k % 3).collect();
        for parts in 1..6 {
            let cuts = group_cuts(&columns, parts);
            assert_eq!((cuts[0], cuts[cuts.len() - 1]), (0, columns.len()));
            assert!(cuts.len() <= parts + 1, "{cuts:?}");
            for w in cuts.windows(2) {
                // No part outgrows an even share by a group's columns.
                assert!(w[0] < w[1], "{cuts:?}");
                assert!(w[1] - w[0] <= columns.len() / parts + SKELETON_GROUP);
            }
            for &cut in &cuts[1..cuts.len() - 1] {
                let (before, after) = (columns[cut - 1], columns[cut]);
                assert_ne!(before / SKELETON_GROUP, after / SKELETON_GROUP);
            }
        }
        // One group cannot be cut; nor can nothing.
        assert_eq!(group_cuts(&[3, 5, 9, 60], 4), vec![0, 4]);
        assert_eq!(group_cuts(&[], 2), vec![0, 0]);
    }

    #[test]
    fn a_grant_below_the_fan_out_threshold_drains_one_chunk_per_round() {
        let (path, _estimator) = temp_snapshot("sched16_small_grant.snap");
        // A 4-page cache: every grant is under two chunks' worth of pages.
        let paged_options = PagedOptions {
            columns_per_page: 2,
            cache_pages: 4,
            cache_shards: 1,
            ..PagedOptions::default()
        };
        let engine = paged_engine(
            &path,
            &paged_options,
            EngineOptions {
                cache_capacity: 0,
                threads: 2,
                parallel_threshold: 8,
                ..EngineOptions::default()
            },
        );
        let reference = paged_engine(
            &path,
            &paged_options,
            EngineOptions {
                cache_capacity: 0,
                parallel_threshold: usize::MAX,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(3000, 256, 23);
        let expected = reference.execute(&batch).expect("unscheduled");
        for mode in [ExecMode::FailFast, ExecMode::Partial] {
            let result = engine
                .execute_with(&batch, &ExecOptions { mode, cancel: None })
                .expect("scheduled");
            assert_eq!(result.threads, 1, "{mode:?}");
            let schedule = result.schedule.expect("scheduled");
            assert!(schedule.blocks > 1, "{schedule:?}");
            assert_eq!(schedule.windows, schedule.blocks, "{schedule:?}");
            for (x, y) in expected.values.iter().zip(&result.values) {
                assert_eq!(x.to_bits(), y.to_bits(), "{mode:?}");
            }
        }
    }

    #[test]
    fn scheduled_batches_hit_the_pair_cache_and_count_queries() {
        let (path, _estimator) = temp_snapshot("sched16_cache.snap");
        let engine = paged_engine(
            &path,
            &PagedOptions {
                columns_per_page: 8,
                cache_pages: 4,
                cache_shards: 1,
                ..PagedOptions::default()
            },
            EngineOptions::default(),
        );
        let batch = QueryBatch::random(500, 256, 11);
        let first = engine.execute_scheduled(&batch).expect("first");
        // A few in-batch duplicate pairs fold into hits; everything else
        // takes the kernel on a cold cache.
        assert!(first.cache_misses > 400);
        let second = engine.execute_scheduled(&batch).expect("second");
        assert!(second.cache_hits > 400, "repeat served from the pair cache");
        for (x, y) in first.values.iter().zip(&second.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let stats = engine.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries, 1000);
        // Serial batches' page figures add up to the store's cumulative ones.
        let first_page = first.page_cache.expect("paged");
        let second_page = second.page_cache.expect("paged");
        assert_eq!(
            stats.page_cache_misses,
            first_page.misses + second_page.misses
        );
        assert_eq!(
            stats.page_bytes_read,
            first_page.bytes_read + second_page.bytes_read
        );
        // The repeat batch paged almost nothing back in.
        assert!(second_page.bytes_read < first_page.bytes_read / 2);
    }

    #[test]
    fn a_pretripped_token_abandons_the_scheduled_batch() {
        use effres::CancelReason;
        let (path, _estimator) = temp_snapshot("sched16_cancel.snap");
        let engine = paged_engine(
            &path,
            &PagedOptions {
                columns_per_page: 4,
                cache_pages: 8,
                cache_shards: 2,
                ..PagedOptions::default()
            },
            EngineOptions {
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(500, 256, 21);
        let cancel = Arc::new(CancelToken::unbounded());
        cancel.cancel(CancelReason::Disconnected);
        let with_token = |mode, cancel: &Arc<CancelToken>| ExecOptions {
            mode,
            cancel: Some(Arc::clone(cancel)),
        };
        let abort = engine
            .execute_with(&batch, &with_token(ExecMode::FailFast, &cancel))
            .unwrap_err();
        assert_eq!(
            abort.error,
            EffresError::DeadlineExceeded {
                reason: CancelReason::Disconnected
            }
        );
        assert_eq!(abort.abandoned_pairs, batch.len() as u64);
        // Nothing was pinned or leased: the full budget is still available.
        let admission = engine.admission_stats().expect("paged ledger");
        assert_eq!(admission.available, admission.budget);
        // Partial mode rejects whole too when nothing has run.
        assert!(matches!(
            engine.execute_with(&batch, &with_token(ExecMode::Partial, &cancel)),
            Err(BatchAbort {
                error: EffresError::DeadlineExceeded { .. },
                ..
            })
        ));
        // An untripped token executes normally, bit-identical.
        let live = Arc::new(CancelToken::unbounded());
        let reference = engine.execute_scheduled(&batch).expect("reference");
        for mode in [ExecMode::FailFast, ExecMode::Partial] {
            let result = engine
                .execute_with(&batch, &with_token(mode, &live))
                .expect("live batch");
            assert!(result.failures.is_empty());
            assert!(result.schedule.is_some(), "paged batches are scheduled");
            for (x, y) in reference.values.iter().zip(&result.values) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn invalid_scheduled_batches_fail_before_any_work() {
        let (path, _estimator) = temp_snapshot("sched16_invalid.snap");
        let engine = paged_engine(&path, &PagedOptions::default(), EngineOptions::default());
        let before = engine.stats().queries;
        let batch = QueryBatch::from_pairs(vec![(0, 1), (2, 1_000_000)]);
        assert!(engine.execute_scheduled(&batch).is_err());
        assert_eq!(engine.stats().queries, before);
    }
}
