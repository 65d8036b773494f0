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
//! scheduler, in three steps:
//!
//! 1. **Cluster** — each cache-missing query is mapped to its page pair
//!    `(page_lo, page_hi)` (the pages of its smaller and larger permuted
//!    endpoint) and the batch is sorted into page-pair clusters.
//! 2. **Lease** — each round leases pin capacity for the distinct pages
//!    (either side) the remaining queries touch, capped at the store's
//!    cache budget, and cuts the next queries, in page-pair order, into up
//!    to `fan` chunks of at most `grant / fan` distinct pages each, where
//!    `fan` is the batch's thread count, at most one chunk per two granted
//!    pages. A round never pins more than its grant.
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
//! pinned, not cached. A run pins its rows; its values are read the first
//! time a pair's suffixes share a row on one of its columns, and most
//! random pairs on a large sparse graph share none. A uniform batch over a
//! file many times the cache uses a few columns per page, so this is where
//! its I/O goes from whole-page to per-column, and from per-column to the
//! rows of most columns. The plan — rounds, chunks, evaluation order — is
//! the same either way; only the bytes behind each pin change.
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
//! one-pair slice), so the values are **bit-identical** to unscheduled
//! paged — and to resident — execution in either mode; only the evaluation
//! order and the I/O pattern change. Query independence makes that
//! reordering safe by construction, and the property tests in
//! `tests/io_service_end_to_end.rs` pin it.

use crate::admission::PinLease;
use crate::backend::ResistanceBackend;
use crate::batch::QueryBatch;
use crate::cancel::CancelToken;
use crate::engine::{
    cache_key, grouped_values, BatchResult, EngineCore, ExecOptions, QueryEngine, Run,
    ScheduleReport,
};
use effres::column_store::KernelStats;
use effres::EffresError;
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

        // 1. Cluster: queries sharing a page pair become adjacent; the slot
        // tiebreak keeps the plan deterministic for identical batches.
        pending.sort_unstable_by_key(|t| (t.page_lo, t.page_hi, t.slot));
        let clusters = pending
            .windows(2)
            .filter(|w| (w[0].page_lo, w[0].page_hi) != (w[1].page_lo, w[1].page_hi))
            .count()
            + usize::from(!pending.is_empty());

        // Distinct pages (either side) in `pending[i..]`: what the round
        // starting at `i` can use at most. One backward pass over a page
        // bitmap; the bitmap is left clear for the chunk cuts below.
        let mut marked = vec![false; store.page_count()];
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
        let threads = self.effective_threads(batch_len).max(1);
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
            let fan = threads.min(grant / 2).max(1);
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
                        let mut queries = pending[lo..hi].to_vec();
                        move || {
                            drain_chunk(
                                &core,
                                &pages,
                                &mut queries,
                                batch_len,
                                job,
                                sparse,
                                fail_fast,
                            )
                        }
                    })
                    .collect();
                self.worker_pool().run(jobs)
            } else {
                (chunks.into_iter())
                    .map(|(pages, lo, hi)| {
                        let queries = &mut pending[lo..hi];
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
}

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
    queries: &mut [Pending],
    batch_len: usize,
    scratch_hint: usize,
    sparse: bool,
    fail_fast: bool,
) -> Result<(Vec<(u32, f64)>, Vec<(usize, EffresError)>, KernelStats), EffresError> {
    let store = core
        .backend
        .paged_store()
        .expect("the scheduler runs on paged backends");
    let demand: Option<Vec<usize>> = sparse.then(|| {
        (queries.iter())
            .flat_map(|t| [t.pp as usize, t.qq as usize])
            .collect()
    });
    let pinned = if fail_fast {
        store.pin_pages(pages, demand.as_deref())?
    } else {
        store.pin_pages_partial(pages, demand.as_deref()).0
    };
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
    let kernel = scratch.take_stats();
    core.return_scratch(scratch_hint, scratch);
    let (values, failures) = outcome?;
    if let Some(cache) = core.pair_cache(batch_len) {
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
    let answers = queries.iter().map(|t| t.slot).zip(values).collect();
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
        let paged_options = PagedOptions {
            columns_per_page: 2,
            cache_pages: 16,
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
            // A 4-page grant at two threads: two chunks of at most 2 pages
            // drain at once on pool workers, each pinning its own.
            assert_eq!(result.threads, 2, "{mode:?}");
            let schedule = result.schedule.expect("scheduled");
            assert!(schedule.windows > schedule.blocks, "{schedule:?}");
            assert!(result.failures.is_empty());
            for (x, y) in expected.values.iter().zip(&result.values) {
                assert_eq!(x.to_bits(), y.to_bits(), "{mode:?}");
            }
        }
        let store = &engine.backend().store;
        assert_eq!(store.cache_capacity_pages(), 4);
        assert!(
            store.pinned_pages_high_water() <= store.cache_capacity_pages(),
            "pinned {} pages at once",
            store.pinned_pages_high_water()
        );
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
