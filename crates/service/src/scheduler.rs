//! The locality scheduler: batch execution for the paged backend that
//! reorders queries by the **pages** they touch instead of answering them in
//! arrival order.
//!
//! Arrival-order paged batches are an I/O disaster: every query touches the
//! pages of two essentially random columns, so a cache smaller than the file
//! thrashes — the PR-4 bench measured ~400× below resident throughput with
//! the work being pure page decode, not arithmetic. The fix is the classic
//! external-memory discipline (PEERS; Yang et al., "Efficient Estimation of
//! Pairwise Effective Resistance"): *amortize every fetched block over all
//! the queries that need it before letting it go*.
//!
//! [`QueryEngine::execute_with`] runs every batch on a backend with a
//! [`paged_store`](crate::ResistanceBackend::paged_store) through this
//! scheduler, in three steps:
//!
//! 1. **Cluster** — each cache-missing query is mapped to its page pair
//!    `(page_lo, page_hi)` (permuted endpoints, unordered) and the batch is
//!    sorted into page-pair clusters.
//! 2. **Block** — the `page_lo` side is partitioned into blocks of pinned
//!    pages sized to the store's cache budget minus a readahead window.
//!    Each block is pinned once
//!    ([`PagedColumnStore::pin_pages`](effres_io::PagedColumnStore::pin_pages))
//!    and stays resident while *all* of its queries drain.
//! 3. **Sweep** — within a block, queries are re-sorted by `page_hi`, and
//!    the hi side becomes a sorted sweep: successive readahead windows of
//!    upcoming hi pages are pinned, drained, and dropped. Windows fan out
//!    as jobs on the engine's [`WorkerPool`](effres::WorkerPool) — each
//!    worker pins its own window (its private cache shard, in effect) while
//!    sharing the block pin.
//!
//! Every page is therefore read `O(blocks)` times instead of `O(queries)`
//! times. How much of a page is read depends on the batch's **page
//! footprint** (the distinct pages its queries touch). A batch that fits
//! the store's cache budget pins whole pages: adjacent missing pages merge
//! into large sequential reads, and the pages stay cached for whatever
//! comes next. A batch that outgrows the budget would flush the cache
//! anyway, so each block and window pin carries the columns its queries
//! read as a *demand*, and a page whose demanded columns hold under a
//! quarter of its bytes is read as runs of adjacent demanded columns —
//! pinned, not cached. A run pins its rows; its values are read the first
//! time a pair's suffixes share a row on one of its columns, and most
//! random pairs on a large sparse graph share none. A uniform batch over a
//! file many times the cache uses a few columns per page, so this is where
//! its I/O goes from whole-page to per-column, and from per-column to the
//! rows of most columns. The plan — blocks, windows, evaluation order — is
//! the same either way; only the bytes behind each pin change.
//!
//! Pin capacity is not assumed but **leased**: every block acquires its
//! pages from the engine's
//! [`AdmissionLedger`](crate::admission::AdmissionLedger) first, so
//! concurrent batches on one engine split the cache budget between them
//! (block by block) instead of over-pinning it — an uncontended lease gets
//! the full budget and the plan is exactly the solo plan.
//!
//! One body serves both [`ExecMode`](crate::ExecMode)s: every query gets a
//! value or a failure, and the mode only decides what a failure does. Fail-fast stops
//! at the first failure other than a cancellation (a block or window pin,
//! a window's kernel, an admission shed). Partial mode degrades instead:
//! block and window pins degrade page by page
//! ([`pin_pages_partial`](effres_io::PagedColumnStore::pin_pages_partial)),
//! a window whose grouped kernel fails is re-run query by query so only
//! the queries touching an unproducible page, or needing a run's
//! unproducible values, fail, and a shed after the first block marks the
//! remaining queries [`EffresError::Busy`]. In both
//! modes a cancellation token is checked at every block and readahead-wave
//! boundary — where the lease, the block pin and the window pins all
//! release by RAII — and a trip marks every query not yet drained
//! [`EffresError::DeadlineExceeded`].
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
use effres_io::{PagedColumnStore, PagedSnapshot, PinnedPages, PinnedReader};
use std::collections::VecDeque;
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

/// A readahead window of one block: the hi pages it pins, and the range of
/// the block's queries it drains.
type Window = (Vec<usize>, usize, usize);

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
    /// Leases pin capacity for one block, honoring the engine's admission
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
    /// [`EffresError::Busy`] shed before the first block ran.
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
        let sparse = outgrows_cache(store, &pending);

        // 1. Cluster: queries sharing a page pair become adjacent; the slot
        // tiebreak keeps the plan deterministic for identical batches.
        pending.sort_unstable_by_key(|t| (t.page_lo, t.page_hi, t.slot));
        let clusters = pending
            .windows(2)
            .filter(|w| (w[0].page_lo, w[0].page_hi) != (w[1].page_lo, w[1].page_hi))
            .count()
            + usize::from(!pending.is_empty());

        // 2. Budget split: the store's page budget funds one long-lived
        // block pin plus a readahead window per concurrent worker. The
        // scheduler needs at least two pages of budget (one per side of a
        // pair) — a smaller cache still works, it just re-reads more.
        //
        // Under concurrent batches the budget is not ours to assume: each
        // block **leases** its pin capacity from the engine's admission
        // ledger (full budget when uncontended — identical plan to solo
        // execution — a fair share otherwise), and the block/window split is
        // recomputed from the actual grant. Leasing per block, not per
        // batch, is what lets a large batch split: it re-queues at every
        // block boundary, so competing traffic interleaves.
        let budget = store.cache_capacity_pages().max(2);
        let threads = self.effective_threads(batch_len).max(1);
        // Brownout trims readahead to the single-page minimum: a pressured
        // cache stops speculating, at the cost of more, smaller reads. The
        // plan changes shape but the kernels and their inputs do not, so
        // values stay bit-identical.
        let brownout = self.brownout_active();
        let window_of = |grant: usize| {
            if brownout {
                1
            } else {
                match self.options.readahead_pages {
                    0 => (grant / 8).clamp(1, 64),
                    w => w,
                }
            }
            .min(grant - 1)
            .max(1)
        };
        let full_window = window_of(budget);
        let full_block_cap = budget.saturating_sub(full_window * threads).max(1);

        // Distinct lo pages in `pending[i..]`, for sizing the lease of a
        // final partial block to what it can actually use.
        let mut distinct_lo_from = vec![0usize; pending.len() + 1];
        for i in (0..pending.len()).rev() {
            let new_page = i + 1 == pending.len() || pending[i].page_lo != pending[i + 1].page_lo;
            distinct_lo_from[i] = distinct_lo_from[i + 1] + usize::from(new_page);
        }

        let mut report = ScheduleReport {
            clusters,
            blocks: 0,
            windows: 0,
        };
        let mut parallel_fan = 1usize;
        let mut at = 0usize;
        while at < pending.len() {
            // Block boundary: the cheapest place to notice a tripped token —
            // no lease held, nothing pinned, everything after `at` unread.
            if let Some(reason) = cancel.and_then(|token| token.cancelled()) {
                fail_all(
                    &mut run.failures,
                    &pending[at..],
                    &EffresError::DeadlineExceeded { reason },
                );
                break;
            }
            let desired = if distinct_lo_from[at] >= full_block_cap {
                budget
            } else {
                (distinct_lo_from[at] + full_window * threads).min(budget)
            };
            // Two pages is the smallest viable grant: one block page plus
            // one window page. The lease blocks until capacity is free and
            // returns it when dropped at the end of the block (or sheds
            // with `Busy` under bounded admission).
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
            let grant = lease.as_ref().map_or(budget, |l| l.granted());
            // Re-derive the split from the grant. `fan` caps how many
            // windows may be pinned at once so block + concurrent windows
            // never exceed the grant (`block_cap + fan·window ≤ grant`).
            let window = window_of(grant.max(2));
            let fan = threads.min((grant.saturating_sub(1) / window).max(1));
            let block_cap = grant.saturating_sub(window * fan).max(1);

            // Grow the block until it holds `block_cap` distinct lo pages.
            let block_start = at;
            let mut lo_pages: Vec<usize> = Vec::new();
            while at < pending.len() {
                let lo = pending[at].page_lo as usize;
                if lo_pages.last() != Some(&lo) {
                    if lo_pages.len() == block_cap {
                        break;
                    }
                    lo_pages.push(lo);
                }
                at += 1;
            }
            report.blocks += 1;
            let block = &mut pending[block_start..at];
            // 3. Pin the block (demand-sized when the batch outgrows the
            // cache) and sweep its hi side in sorted page order. A degraded
            // pin fails only the queries anchored on pages it could not
            // produce; the rest of the block proceeds over what did pin.
            let demand = sparse.then(|| demand_of(block));
            let (pinned, pin_failures) = if fail_fast {
                (store.pin_pages(&lo_pages, demand.as_deref())?, Vec::new())
            } else {
                store.pin_pages_partial(&lo_pages, demand.as_deref())
            };
            let pinned = Arc::new(pinned);
            block.sort_unstable_by_key(|t| (t.page_hi, t.page_lo, t.slot));
            let mut drainable: Vec<Pending> = Vec::new();
            let block: &[Pending] = if pin_failures.is_empty() {
                block
            } else {
                for t in block.iter() {
                    match pin_failures
                        .iter()
                        .find(|(pid, _)| *pid == t.page_lo as usize)
                    {
                        Some((_, err)) => run.failures.push((t.slot as usize, err.clone())),
                        None => drainable.push(*t),
                    }
                }
                &drainable
            };

            // Cut the sweep into windows: each accumulates up to `window`
            // distinct hi pages that are not already pinned with the block.
            let mut windows: Vec<Window> = Vec::new();
            let mut job_pids: Vec<usize> = Vec::new();
            let mut job_start = 0usize;
            for (i, t) in block.iter().enumerate() {
                let hi = t.page_hi as usize;
                let needed = lo_pages.binary_search(&hi).is_err() && job_pids.last() != Some(&hi);
                if needed && job_pids.len() == window {
                    windows.push((std::mem::take(&mut job_pids), job_start, i));
                    job_start = i;
                }
                if needed {
                    job_pids.push(hi);
                }
            }
            windows.push((job_pids, job_start, block.len()));
            report.windows += windows.len();

            // Fan the windows out when there is more than one and room for
            // more than one at a time: each worker pins its own window (its
            // per-worker shard of the grant) over the shared block pin.
            // Windows go out in waves of at most `fan`, because the pin
            // bound is per *concurrent* window — a pool with more workers
            // than `fan` would otherwise pin every window of the block at
            // once and blow through the lease. Otherwise waves hold one
            // window each, drained on this thread. Jobs are built per wave,
            // so a token that trips between waves abandons the
            // un-dispatched windows without ever materializing them.
            let fan_out = fan > 1 && windows.len() > 1;
            let wave_size = if fan_out { fan } else { 1 };
            if fan_out {
                parallel_fan = parallel_fan.max(windows.len().min(fan));
            }
            let mut windows: VecDeque<Window> = windows.into();
            let mut job_index = 0usize;
            while !windows.is_empty() {
                // Wave boundary: abandon the un-dispatched windows of this
                // block (the sticky token marks the later blocks at the top
                // of the outer loop).
                if let Some(reason) = cancel.and_then(|token| token.cancelled()) {
                    let error = EffresError::DeadlineExceeded { reason };
                    for (_, lo, hi) in &windows {
                        fail_all(&mut run.failures, &block[*lo..*hi], &error);
                    }
                    break;
                }
                let wave = windows.drain(..wave_size.min(windows.len()));
                let drained = if fan_out {
                    let jobs: Vec<_> = wave
                        .map(|(pids, lo, hi)| {
                            let job = job_index;
                            job_index += 1;
                            let core = Arc::clone(&self.core);
                            let pinned = Arc::clone(&pinned);
                            let queries = block[lo..hi].to_vec();
                            move || {
                                drain_window(
                                    &core, &pinned, &pids, &queries, batch_len, job, sparse,
                                    fail_fast,
                                )
                            }
                        })
                        .collect();
                    self.worker_pool().run(jobs)
                } else {
                    wave.map(|(pids, lo, hi)| {
                        drain_window(
                            &self.core,
                            &pinned,
                            &pids,
                            &block[lo..hi],
                            batch_len,
                            0,
                            sparse,
                            fail_fast,
                        )
                    })
                    .collect()
                };
                for result in drained {
                    let (answers, window_failures, window_kernel) = result?;
                    run.kernel.merge(window_kernel);
                    for (slot, value) in answers {
                        run.values[slot as usize] = value;
                    }
                    run.failures.extend(window_failures);
                }
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

/// Whether the batch's distinct page footprint exceeds the store's cache
/// budget. Such a batch would flush the LRU anyway, so its pins are
/// demand-sized (see
/// [`pin_pages`](effres_io::PagedColumnStore::pin_pages)); a batch that
/// fits reads, caches and reuses whole pages.
fn outgrows_cache(store: &PagedColumnStore, pending: &[Pending]) -> bool {
    let mut pages: Vec<u32> = pending
        .iter()
        .flat_map(|t| [t.page_lo, t.page_hi])
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages.len() > store.cache_capacity_pages()
}

/// The columns `queries` read — the demand of a demand-sized pin.
fn demand_of(queries: &[Pending]) -> Vec<usize> {
    queries
        .iter()
        .flat_map(|t| [t.pp as usize, t.qq as usize])
        .collect()
}

/// Drains one readahead window: pins its hi pages (one coalesced read for
/// adjacent pages — the sweep keeps them mostly adjacent — or, when
/// `sparse`, just the columns the window's queries read), then answers the
/// window's queries through the grouped multi-pair kernel
/// ([`grouped_values`]) — bit-identical to the pairwise kernel, but a
/// window's queries sharing a hub column stream that column once — via a
/// reader that prefers the pinned pages and never touches the cache locks
/// for them. The answers fill the pair cache unless the batch of
/// `batch_len` pairs bypasses it. The hub scratch comes from the engine's
/// sharded free list (`scratch_hint` spreads concurrent windows over
/// distinct shards), and the kernel counters it accumulated ride back
/// alongside the `(slot, value)` answers and the `(slot, error)` failures.
///
/// With `fail_fast` a failed window pin or kernel fails the window. Without
/// it the window pin degrades page by page, and a failed grouped kernel is
/// re-run query by query over the same pinned reader, so the successes stay
/// bit-identical and only queries actually touching an unproducible page,
/// or needing the values of a run that cannot produce them, fail.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn drain_window<B: ResistanceBackend>(
    core: &EngineCore<B>,
    block_pin: &PinnedPages,
    window_pids: &[usize],
    queries: &[Pending],
    batch_len: usize,
    scratch_hint: usize,
    sparse: bool,
    fail_fast: bool,
) -> Result<(Vec<(u32, f64)>, Vec<(usize, EffresError)>, KernelStats), EffresError> {
    let store = core
        .backend
        .paged_store()
        .expect("the scheduler runs on paged backends");
    let demand = sparse.then(|| demand_of(queries));
    // Failed window pins are not fatal in partial mode: the reader falls
    // back to the store for unpinned pages, and any page that truly cannot
    // be produced fails its queries in the per-query pass below.
    let window_pin = if fail_fast {
        store.pin_pages(window_pids, demand.as_deref())?
    } else {
        store.pin_pages_partial(window_pids, demand.as_deref()).0
    };
    let reader = PinnedReader::new(store, block_pin, Some(&window_pin));
    // Re-sort the window by column pair: pages hold neighbouring columns,
    // so the page-sorted window is nearly column-sorted already, and this
    // makes runs sharing a hub column contiguous for the grouped kernel.
    // Safe because queries are independent and answers scatter back by
    // slot.
    let mut sorted: Vec<Pending> = queries.to_vec();
    sorted.sort_unstable_by_key(|t| (t.pp, t.qq, t.slot));
    let pairs: Vec<(usize, usize)> = sorted
        .iter()
        .map(|t| (t.pp as usize, t.qq as usize))
        .collect();
    let mut scratch = core.take_scratch(scratch_hint);
    let outcome = grouped_values(&reader, &pairs, &core.norms, &mut scratch, fail_fast);
    let kernel = scratch.take_stats();
    core.return_scratch(scratch_hint, scratch);
    let (values, failures) = outcome?;
    if let Some(cache) = core.pair_cache(batch_len) {
        for (i, (t, &value)) in sorted.iter().zip(&values).enumerate() {
            if failures.binary_search_by_key(&i, |&(i, _)| i).is_err() {
                cache.insert(cache_key(t.pp as usize, t.qq as usize), value);
            }
        }
    }
    let failures = failures
        .into_iter()
        .map(|(i, error)| (sorted[i].slot as usize, error))
        .collect();
    let answers = sorted.iter().map(|t| t.slot).zip(values).collect();
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
                readahead_pages: 2,
                ..EngineOptions::default()
            },
        );
        let a = sequential.execute_scheduled(&batch).expect("sequential");
        let b = parallel.execute_scheduled(&batch).expect("parallel");
        assert!(b.threads > 1, "expected window fan-out");
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
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
    fn brownout_trims_readahead_windows_but_not_values() {
        let (path, _estimator) = temp_snapshot("sched16_brownout.snap");
        let paged_options = PagedOptions {
            columns_per_page: 2,
            cache_pages: 16,
            cache_shards: 2,
            ..PagedOptions::default()
        };
        let options = || EngineOptions {
            cache_capacity: 0,
            parallel_threshold: usize::MAX,
            ..EngineOptions::default()
        };
        let normal = paged_engine(&path, &paged_options, options());
        let browned = paged_engine(&path, &paged_options, options());
        browned.set_brownout(true);
        assert!(browned.brownout_active());
        let batch = QueryBatch::random(2000, 256, 33);
        let a = normal.execute_scheduled(&batch).expect("normal");
        let b = browned.execute_scheduled(&batch).expect("brownout");
        // Brownout only reshapes the I/O plan — single-page readahead means
        // strictly more, smaller windows — while every value stays
        // bit-identical.
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let (sa, sb) = (a.schedule.expect("normal"), b.schedule.expect("brownout"));
        assert!(
            sb.windows > sa.windows,
            "brownout must trim readahead: {} vs {}",
            sb.windows,
            sa.windows
        );
        // Clearing brownout restores the original plan.
        browned.set_brownout(false);
        let c = browned.execute_scheduled(&batch).expect("recovered");
        assert_eq!(c.schedule.expect("recovered").windows, sa.windows);
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
