//! Out-of-core column store: serving queries straight from a v3 or v4
//! snapshot file.
//!
//! The whole point of the paper's approximate inverse is that `Z̃` is sparse
//! enough to *keep around* — but keeping it around does not have to mean
//! keeping it in RAM. The v3 snapshot layout stores the arena as contiguous
//! bulk blocks (`col_ptr`, `rows`, `vals`; see [`crate::snapshot`]), so any
//! column is two positioned reads away:
//!
//! ```text
//! rows of column j:  file[rows_offset + 4·col_ptr[j] ..]      (raw codec)
//!                    file[rows_offset + row_off[j] ..]        (varint codec)
//! vals of column j:  file[vals_offset + 8·col_ptr[j] .. vals_offset + 8·col_ptr[j+1]]
//! ```
//!
//! [`PagedColumnStore`] keeps only the `col_ptr` block, the varint
//! byte-offset table (when the file uses that codec), the persisted
//! `‖z̃_j‖²` table and, for a v4 file, the offset table of the persisted
//! row-bucket skeleton resident (the permutation and labels live in
//! [`PagedSnapshot`]), and fetches column data on demand with positioned
//! reads — plain `pread`
//! (`std::os::unix::fs::FileExt::read_exact_at`) on Unix, `seek_read` on
//! Windows, no mmap, no platform crates. Single-column lookups fetch whole
//! *pages* (a fixed range of consecutive columns,
//! [`PagedOptions::columns_per_page`]), and decoded pages live in a sharded
//! LRU cache (an intrusive recency list over a slab) behind `Arc`s, so hot
//! columns are served from memory while cold ones stream from disk and
//! eviction can never invalidate a view a query is still reading. Batch
//! schedulers use the bulk path instead:
//! [`PagedColumnStore::pin_pages`] pins page sets into a [`PinnedPages`] set
//! served through a [`PinnedReader`]. Missing pages are fetched with
//! **coalesced readahead** (adjacent missing pages merge into single large
//! positioned reads) — unless the pin carries a *demand* (the columns its
//! queries will read) that covers under a quarter of a page's bytes, in
//! which case only the demanded columns are read, as runs of adjacent
//! columns pinned without entering the cache. A run pins its **rows** only
//! (one positioned read, decoded back to back into one arena per pin). Its
//! values are read when the pin's owner asks for them
//! ([`PagedColumnStore::read_run_values`]), into one buffer per run. The
//! scheduler first answers, from the rows alone, the pairs whose
//! suffixes share no row (`effres::column_store::suffix_rows_meet`), and on
//! large sparse graphs most random pairs share none, so most runs never
//! read their values. A partial pin plans once and degrades in place.
//!
//! A v4 file also persists every column's row-bucket skeleton
//! ([`effres::skeleton`]) in groups of 64 columns. A scheduled batch that
//! outgrows the cache reads the skeletons of its columns first
//! ([`PagedColumnStore::read_skeletons`]), in a few large reads of whole
//! groups, and every pair whose skeletons share no bucket is certified
//! disjoint and answered from the norm table without a pin: about 85% of
//! uniform random pairs on the benchmark grid. A v3 file has no skeleton
//! and certifies nothing.
//!
//! Decoded-page buffers are **recycled**, not churned: when the last `Arc`
//! to an evicted page drops, its row/value vectors return to a
//! per-store free list (bounded by the cache budget) and the next decode
//! reuses their capacity, and the multi-megabyte coalesced read scratch is
//! pooled the same way. Without this, a cache-sized sweep allocates and
//! frees one page buffer per miss — gigabytes of allocator traffic per
//! large batch that glibc hands back to the kernel, turning a long-lived
//! server's steady state into a minor-page-fault storm. With the pool,
//! steady-state serving allocates nothing on the whole-page path; a sparse
//! pin allocates its one row arena, and one value buffer per run whose
//! values are read.
//!
//! Trust model: the file is untrusted. The `col_ptr` block is fully
//! validated at [`open_paged`] time (monotone, spanning exactly the declared
//! nonzeros — *before* anything is served), and so is a v4 file's skeleton
//! offset table (from 0, never decreasing, ending at the records' byte
//! count); the file length must match the layout the header implies, and
//! every page is validated as it is decoded (strictly increasing
//! lower-triangular row indices in range, finite values) — a corrupt page
//! is a typed [`EffresError::StoreFailure`](effres::EffresError), never a
//! panic and never silently wrong answers. A column run's rows are
//! validated when it is pinned and its values when they are read, so
//! rotten rows fail the pin and rotten values fail every access to their
//! run. A skeleton group is validated when a batch reads it (its
//! records fill it exactly, a record's buckets strictly increase from its
//! column's own bucket and stay within the order); a group that stays
//! malformed certifies nothing, so its pairs take the row path and no
//! query fails for it. The whole-payload crc32 is *not computed*: it
//! covers the whole file, and streaming the file would defeat the
//! milliseconds-to-first-query cold start, so the opener parses the header
//! blocks without checksumming them. Corruption the structural checks
//! cannot see is caught by the resident loader
//! ([`crate::snapshot::load_snapshot`]), which verifies the crc on every
//! load, not by this one: flipped value bytes that stay finite, and a
//! skeleton record that rots into another well-formed record. Such a record
//! can lose a bucket two suffixes share, certify the pair and answer it
//! too high, silently, as value rot does. The integrity scrubber
//! ([`PagedColumnStore::scrub_page`]) recomputes the skeletons of each
//! page's columns from the rows it decodes and compares them with the
//! persisted records; a group that disagrees is distrusted from then on,
//! its pairs take the row path, and it counts in
//! [`ScrubStats::skeleton_groups_distrusted`], which tells a caller holding
//! answers certified from it (a query engine's pair cache) to drop them.
//!
//! Answers are **bit-identical** to the resident arena's for every page
//! geometry and cache size: pages decode the same little-endian bytes the
//! resident loader reads, the norm table is the same persisted block, and
//! the kernels are the same generic code (`effres::column_store`); a
//! certified pair's answer is the norm identity with a `+0.0` dot, the
//! bits the kernels give a pair whose suffixes share no row. v1 and v2
//! files have no norm table, so [`open_paged`] refuses them; the resident
//! loader still reads them, which is how they are re-encoded.

use crate::error::IoError;
use crate::fault::{FaultPlan, ReadFault, RetryPolicy, REFETCH_ATTEMPT_BASE};
use crate::snapshot::{
    decode_skeleton_body, decode_varint_column, long_varint, read_col_ptr_block,
    read_payload_header, read_row_off_block, read_skeleton_offsets, CrcReader, PayloadHeader,
    MAGIC, ROW_CODEC_RAW, ROW_CODEC_VARINT, SKELETON_GROUP, VERSION_V1, VERSION_V2, VERSION_V3,
    VERSION_V4,
};
use effres::approx_inverse::{ensure_u32_indexable, ArenaFootprint, ColumnView};
use effres::column_store::ColumnStore;
use effres::error::EffresError;
use effres::estimator::EstimatorStats;
use effres::skeleton::{self, PaddedBuckets, BUCKET_BLOCK};
use effres_sparse::Permutation;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Positioned reads over a shared [`File`], std-only on every platform:
/// `pread` on Unix and `seek_read` on Windows never touch a shared cursor,
/// so concurrent readers need no coordination; other targets fall back to a
/// mutex-serialized seek-then-read on the same handle.
#[derive(Debug)]
struct PositionedFile {
    file: File,
    #[cfg(not(any(unix, windows)))]
    cursor: Mutex<()>,
}

impl PositionedFile {
    fn new(file: File) -> Self {
        PositionedFile {
            file,
            #[cfg(not(any(unix, windows)))]
            cursor: Mutex::new(()),
        }
    }

    fn metadata(&self) -> std::io::Result<std::fs::Metadata> {
        self.file.metadata()
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
    }

    #[cfg(windows)]
    fn read_exact_at(&self, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
        use std::os::windows::fs::FileExt;
        while !buf.is_empty() {
            match self.file.seek_read(buf, offset) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "positioned read past end of file",
                    ))
                }
                Ok(n) => {
                    buf = &mut buf[n..];
                    offset += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    #[cfg(not(any(unix, windows)))]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        use std::io::{Read as _, Seek, SeekFrom};
        let _guard = self.cursor.lock().expect("file cursor lock poisoned");
        let mut file = &self.file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

/// Geometry and budget of the page cache of a [`PagedColumnStore`].
///
/// Every setting trades disk traffic for memory only — answers are
/// bit-identical across all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedOptions {
    /// Consecutive columns decoded per page. Larger pages amortize the
    /// `pread` syscall over more columns (good for scans and sorted
    /// batches); smaller pages waste less memory on isolated lookups.
    pub columns_per_page: usize,
    /// Total decoded pages kept resident across all cache shards (at least
    /// one per shard). This is the store's memory budget knob, surfaced as
    /// `EffresConfig::page_cache_pages` / `effres-cli --page-cache`.
    pub cache_pages: usize,
    /// Number of cache shards (rounded up to a power of two); more shards
    /// mean less lock contention between parallel query workers.
    pub cache_shards: usize,
    /// Bounded retry-with-backoff applied to every positioned read (see
    /// [`RetryPolicy`]): transient faults are absorbed and counted
    /// ([`PageCacheStats::retries`]) instead of failing the query.
    pub retry: RetryPolicy,
}

impl Default for PagedOptions {
    fn default() -> Self {
        PagedOptions {
            columns_per_page: 64,
            cache_pages: effres::config::DEFAULT_PAGE_CACHE_PAGES,
            cache_shards: 8,
            retry: RetryPolicy::default(),
        }
    }
}

impl PagedOptions {
    /// Sets the total decoded-page budget (see [`PagedOptions::cache_pages`]).
    pub fn with_cache_pages(mut self, pages: usize) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Sets the page size in columns (see
    /// [`PagedOptions::columns_per_page`]).
    pub fn with_columns_per_page(mut self, columns: usize) -> Self {
        self.columns_per_page = columns;
        self
    }

    /// Sets the positioned-read retry policy (see [`PagedOptions::retry`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Page-cache counters of a [`PagedColumnStore`]. A **hit** served a column
/// from a resident decoded page; a **miss** paid a disk read and a decode.
///
/// All counters are relaxed atomics underneath that count from open and
/// only grow: a window's traffic is the difference of two snapshots
/// ([`PageCacheStats::since`]), which is how the query engine reports
/// per-batch figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageCacheStats {
    /// Page lookups answered from the cache (or an already-pinned page).
    pub hits: u64,
    /// Page lookups that read and decoded from disk.
    pub misses: u64,
    /// Bytes fetched from disk by page misses, bulk pins and column runs.
    pub bytes_read: u64,
    /// Coalesced positioned reads issued by the bulk pin path — each one
    /// covers a run of adjacent pages that single-page misses would have
    /// fetched with one read (and one syscall) per page per block.
    pub readahead_reads: u64,
    /// Column runs read by demand-sized pins (see
    /// [`PagedColumnStore::pin_pages`]): each covers adjacent demanded
    /// columns of a sparsely demanded page, and is one positioned read of
    /// their rows, plus one of their values when the pin's pairs need them
    /// (counted in `value_reads`). Their bytes count in `bytes_read`; the
    /// page they stand in for counts as one miss.
    pub column_runs: u64,
    /// Column runs whose values were read
    /// ([`PagedColumnStore::read_run_values`]): the scheduler reads the
    /// values of only the runs its pairs with a shared suffix row use, so a
    /// run whose pairs all share no row with their partners is never
    /// counted.
    pub value_reads: u64,
    /// Read attempts re-issued after a fault: transient-failure retries
    /// plus validation-failure page re-fetches. A fault-free store reports
    /// zero; a store surviving on retries reports how hard it is working.
    pub retries: u64,
    /// Faults observed on the read path: failed read attempts (before and
    /// including the one that exhausted the retry budget) and page and
    /// skeleton-group validation failures. `faulted_reads > retries` means
    /// some faults burned through the whole retry budget and surfaced as
    /// errors (or, for a skeleton group, as pairs left to the row path).
    pub faulted_reads: u64,
    /// Positioned reads of a v4 file's skeleton block (see
    /// [`PagedColumnStore::read_skeletons`]), re-fetches included; their
    /// bytes count in `bytes_read`.
    pub skeleton_reads: u64,
}

/// Cumulative counters of the background integrity scrubber (see
/// [`PagedColumnStore::scrub_page`]): they describe the health of the
/// snapshot at rest over the store's whole lifetime, which is what a health
/// check wants to see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubStats {
    /// Pages fetched and revalidated by the scrubber.
    pub pages_scrubbed: u64,
    /// Scrub passes over a page that found it rotten (failed the same
    /// validation the serve path applies, after the one-shot re-fetch).
    pub scrub_failures: u64,
    /// Rotten pages evicted from the cache by
    /// [`PagedColumnStore::quarantine_page`] — the next query touching one
    /// re-fetches from disk and surfaces a typed error if the rot persists.
    pub quarantined: u64,
    /// Groups of a v4 file's skeleton the scrubber found disagreeing with
    /// their columns' rows (or unreadable) and stopped trusting. Each such
    /// find also counts in `scrub_failures`; a pair cache holding answers
    /// certified from the group should be cleared when this grows.
    pub skeleton_groups_distrusted: u64,
}

impl PageCacheStats {
    /// Counter-wise difference: the traffic between `earlier` and `self`,
    /// two snapshots of the same store taken in that order (its counters
    /// only grow, so no field goes negative).
    #[must_use]
    pub fn since(self, earlier: PageCacheStats) -> PageCacheStats {
        PageCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            bytes_read: self.bytes_read - earlier.bytes_read,
            readahead_reads: self.readahead_reads - earlier.readahead_reads,
            column_runs: self.column_runs - earlier.column_runs,
            value_reads: self.value_reads - earlier.value_reads,
            retries: self.retries - earlier.retries,
            faulted_reads: self.faulted_reads - earlier.faulted_reads,
            skeleton_reads: self.skeleton_reads - earlier.skeleton_reads,
        }
    }
}

/// One decoded page: the row/value data of its contiguous columns.
#[derive(Debug)]
struct Page {
    /// `col_ptr[first_col]` — the entry offset the page's buffers start at.
    base: u64,
    rows: Vec<u32>,
    vals: Vec<f64>,
    /// Where the buffers go when the last `Arc` drops (`Weak`: a store being
    /// torn down takes its pool with it and outstanding pages just free).
    pool: Weak<BufferPool>,
}

impl Drop for Page {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.put_page_buffers(PageBuffers {
                rows: std::mem::take(&mut self.rows),
                vals: std::mem::take(&mut self.vals),
            });
        }
    }
}

/// The recyclable allocations of one [`Page`], detached from its identity.
#[derive(Debug, Default)]
struct PageBuffers {
    rows: Vec<u32>,
    vals: Vec<f64>,
}

impl PageBuffers {
    /// Entries the set can hold without reallocating (rows and values are
    /// always sized together; the min guards against them ever diverging).
    fn entry_capacity(&self) -> usize {
        self.rows.capacity().min(self.vals.capacity())
    }
}

/// Spare [`ReadScratch`] sets retained per store. Each is bounded by
/// [`MAX_COALESCED_BYTES`], so this caps retained read scratch at ~128 MiB
/// worst case — in exchange, up to four concurrent batches run their bulk
/// reads without touching the allocator.
const SCRATCH_SPARES: usize = 4;

/// Free lists of decoded-page and read-scratch buffers, shared between a
/// store (which pops on decode) and its pages (which push on drop, via a
/// `Weak` back-reference). Only whole pages draw page buffers from it: the
/// column runs of a sparse pin decode into that pin's own arena.
///
/// Page entry counts vary along the column profile, so recycling is by
/// **best fit**: the spare list stays sorted by capacity and a decode takes
/// the smallest spare that already holds the page (a too-small spare would
/// just reallocate inside `extend` — allocator churn with extra steps), and
/// fresh buffers are sized to power-of-two entry classes so the capacities
/// in circulation converge onto a few reusable classes instead of chasing
/// every page size.
///
/// The page free list is capped at the cache budget: eviction can never
/// park more spare buffer sets than the cache holds pages, so the pool at
/// worst doubles the decoded-page footprint transiently (the same order as
/// the pin overshoot [`PagedColumnStore::pin_pages`] documents) and in
/// steady state holds roughly one pin burst. Lock order: a page shard lock
/// may be held while a dropped page takes a pool lock (eviction), never the
/// reverse — decode pops before any shard lock is taken.
#[derive(Debug)]
struct BufferPool {
    /// Spare buffer sets, sorted ascending by entry capacity.
    pages: Mutex<Vec<PageBuffers>>,
    scratch: Mutex<Vec<ReadScratch>>,
    page_cap: usize,
    /// Decodes served from a recycled buffer set vs. a fresh allocation —
    /// the pool's hit/miss counters ([`PagedColumnStore::buffer_pool_stats`]).
    recycled: AtomicU64,
    fresh: AtomicU64,
}

impl BufferPool {
    fn new(page_cap: usize) -> Self {
        BufferPool {
            pages: Mutex::new(Vec::new()),
            scratch: Mutex::new(Vec::new()),
            page_cap: page_cap.max(8),
            recycled: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
        }
    }

    /// A buffer set whose row/value capacity already covers `count` entries:
    /// the smallest fitting spare, or a fresh set in the next power-of-two
    /// entry class.
    fn take_page_buffers(&self, count: usize) -> PageBuffers {
        let fitting = {
            let mut spares = self.pages.lock().expect("buffer pool poisoned");
            let at = spares.partition_point(|b| b.entry_capacity() < count);
            (at < spares.len()).then(|| spares.remove(at))
        };
        match fitting {
            Some(buffers) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                buffers
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                let class = count.next_power_of_two();
                PageBuffers {
                    rows: Vec::with_capacity(class),
                    vals: Vec::with_capacity(class),
                }
            }
        }
    }

    fn put_page_buffers(&self, buffers: PageBuffers) {
        let mut evicted = None;
        {
            let mut spares = self.pages.lock().expect("buffer pool poisoned");
            if spares.len() >= self.page_cap {
                // Full: keep the larger set — a big spare can serve any
                // smaller page, never the other way around.
                if spares[0].entry_capacity() >= buffers.entry_capacity() {
                    return; // `buffers` frees after the guard unlocks
                }
                evicted = Some(spares.remove(0));
            }
            let at = spares.partition_point(|b| b.entry_capacity() < buffers.entry_capacity());
            spares.insert(at, buffers);
        }
        drop(evicted); // outside the lock
    }

    fn take_scratch(&self) -> ReadScratch {
        self.scratch
            .lock()
            .expect("buffer pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    fn put_scratch(&self, scratch: ReadScratch) {
        let mut spares = self.scratch.lock().expect("buffer pool poisoned");
        if spares.len() < SCRATCH_SPARES {
            spares.push(scratch);
        }
    }
}

const NIL: u32 = u32::MAX;

/// Upper bound on one coalesced readahead buffer (rows + values of a run of
/// adjacent pages). Big enough that sequential sweeps amortize the syscall
/// and decode setup over tens of pages; small enough that pinning a large
/// block never transiently doubles its memory in raw read buffers.
const MAX_COALESCED_BYTES: usize = 32 << 20;

/// Reusable raw-byte buffers for coalesced reads (one per bulk call, reused
/// across its chunks).
#[derive(Debug, Default)]
struct ReadScratch {
    rows: Vec<u8>,
    vals: Vec<u8>,
}

/// The first `len` bytes of a reused read buffer, growing it only when it
/// is shorter: reads of every size share one buffer without zero-filling
/// what an earlier, longer read already sized.
fn front(buffer: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if buffer.len() < len {
        buffer.resize(len, 0);
    }
    &mut buffer[..len]
}

#[derive(Debug)]
struct PageNode {
    key: usize,
    /// `None` only while the slot sits on the free list (the page of a
    /// removed entry must drop immediately, not linger until slot reuse).
    page: Option<Arc<Page>>,
    prev: u32,
    next: u32,
}

/// One shard of the page cache: an LRU kept as an intrusive doubly linked
/// recency list over a slab of nodes (head most recent, tail the next
/// victim), holding `Arc<Page>`s so a page can be evicted while a reader
/// still borrows from it.
#[derive(Debug)]
struct PageShard {
    map: HashMap<usize, u32>,
    slab: Vec<PageNode>,
    head: u32,
    tail: u32,
    capacity: usize,
    /// Slab slots vacated by [`PageShard::remove`] (quarantine), reused by
    /// the next inserts — eviction recycles its victim's slot in place, so
    /// only explicit removal ever frees one.
    free: Vec<u32>,
}

impl PageShard {
    fn new(capacity: usize) -> Self {
        PageShard {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            free: Vec::new(),
        }
    }

    fn unlink(&mut self, index: u32) {
        let (prev, next) = {
            let node = &self.slab[index as usize];
            (node.prev, node.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, index: u32) {
        let old_head = self.head;
        {
            let node = &mut self.slab[index as usize];
            node.prev = NIL;
            node.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = index;
        }
        self.head = index;
        if self.tail == NIL {
            self.tail = index;
        }
    }

    fn get(&mut self, key: usize) -> Option<Arc<Page>> {
        let index = *self.map.get(&key)?;
        if self.head != index {
            self.unlink(index);
            self.push_front(index);
        }
        Some(Arc::clone(
            self.slab[index as usize]
                .page
                .as_ref()
                .expect("mapped slot always holds a page"),
        ))
    }

    fn insert(&mut self, key: usize, page: Arc<Page>) {
        if let Some(&index) = self.map.get(&key) {
            // A concurrent miss decoded the same page; keep the resident one
            // fresh (both decodes hold identical bits).
            self.slab[index as usize].page = Some(page);
            if self.head != index {
                self.unlink(index);
                self.push_front(index);
            }
            return;
        }
        let index = if let Some(index) = self.free.pop() {
            let node = &mut self.slab[index as usize];
            node.key = key;
            node.page = Some(page);
            index
        } else if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let node = &mut self.slab[victim as usize];
            self.map.remove(&node.key);
            node.key = key;
            node.page = Some(page);
            victim
        } else {
            self.slab.push(PageNode {
                key,
                page: Some(page),
                prev: NIL,
                next: NIL,
            });
            (self.slab.len() - 1) as u32
        };
        self.map.insert(key, index);
        self.push_front(index);
    }

    /// Drops `key` from the shard (quarantine), freeing its slab slot for
    /// reuse; the page's buffers recycle as soon as the last outside reader
    /// releases its `Arc`. Returns whether the key was resident.
    fn remove(&mut self, key: usize) -> bool {
        let Some(index) = self.map.remove(&key) else {
            return false;
        };
        self.unlink(index);
        let node = &mut self.slab[index as usize];
        node.page = None;
        node.prev = NIL;
        node.next = NIL;
        self.free.push(index);
        true
    }
}

/// A sharded LRU of decoded pages keyed by page id.
#[derive(Debug)]
struct PageLru {
    shards: Vec<Mutex<PageShard>>,
    mask: u64,
    per_shard: usize,
}

impl PageLru {
    fn new(pages: usize, shards: usize) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        let per_shard = pages.div_ceil(shard_count).max(1);
        PageLru {
            shards: (0..shard_count)
                .map(|_| Mutex::new(PageShard::new(per_shard)))
                .collect(),
            mask: shard_count as u64 - 1,
            per_shard,
        }
    }

    fn shard(&self, key: usize) -> &Mutex<PageShard> {
        // SplitMix64 finalizer spreads consecutive page ids across shards.
        let mut h = (key as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        &self.shards[(h & self.mask) as usize]
    }

    fn get(&self, key: usize) -> Option<Arc<Page>> {
        self.shard(key)
            .lock()
            .expect("page cache shard poisoned")
            .get(key)
    }

    fn insert(&self, key: usize, page: Arc<Page>) {
        self.shard(key)
            .lock()
            .expect("page cache shard poisoned")
            .insert(key, page);
    }

    fn remove(&self, key: usize) -> bool {
        self.shard(key)
            .lock()
            .expect("page cache shard poisoned")
            .remove(key)
    }

    fn capacity(&self) -> usize {
        self.shards.len() * self.per_shard
    }
}

/// A column store serving the approximate inverse directly from a v3 or
/// v4 snapshot file through a page cache (see the module docs), with
/// column norms from the file's persisted norm table.
///
/// The store is `Send + Sync`: positioned reads do not touch a shared file
/// cursor, the cache shards are independently locked, and decoded pages are
/// shared behind `Arc`s — parallel batch workers hit it concurrently just
/// like the resident arena.
#[derive(Debug)]
pub struct PagedColumnStore {
    file: PositionedFile,
    order: usize,
    nnz: usize,
    /// The resident `col_ptr` block (entry offsets, as stored on disk).
    col_ptr: Vec<u64>,
    /// How the on-disk row block is encoded (negotiated at write time).
    codec: RowCodec,
    /// Per-column *byte* offsets into the row block — present iff the codec
    /// is [`RowCodec::Varint`], where entry offsets no longer locate bytes.
    row_off: Option<Vec<u64>>,
    /// The file's persisted `‖z̃_j‖²` table, summed in index order at write
    /// time. `Arc`-shared: the query engine keeps the same single copy.
    norms: Arc<Vec<f64>>,
    rows_offset: u64,
    vals_offset: u64,
    /// The persisted row-bucket skeleton's index, for a v4 file; `None`
    /// for a v3 file, whose pairs all take the row path.
    skeleton: Option<SkeletonIndex>,
    columns_per_page: usize,
    cache: PageLru,
    /// Retry policy for positioned reads ([`PagedOptions::retry`]).
    retry: RetryPolicy,
    /// Injected-fault schedule, if one was installed at open time
    /// ([`open_paged_with_faults`]); `None` on every production open, where
    /// the read seam costs a single branch.
    faults: Option<FaultPlan>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_read: AtomicU64,
    readahead_reads: AtomicU64,
    column_runs: AtomicU64,
    value_reads: AtomicU64,
    retries: AtomicU64,
    faulted_reads: AtomicU64,
    skeleton_reads: AtomicU64,
    /// Cumulative scrubber counters ([`ScrubStats`]).
    pages_scrubbed: AtomicU64,
    scrub_failures: AtomicU64,
    quarantined: AtomicU64,
    skeleton_groups_distrusted: AtomicU64,
    /// Live/high-water pin accounting, shared (`Arc`) with the guards inside
    /// every outstanding [`PinnedPages`] so drops decrement from anywhere.
    pin_counters: Arc<PinCounters>,
    /// Recycled decoded-page and read-scratch buffers (see [`BufferPool`]):
    /// dying pages park their vectors here and decodes reuse the capacity,
    /// so steady-state serving does not churn the allocator.
    buffers: Arc<BufferPool>,
}

/// Pin accounting shared between a store and its outstanding [`PinnedPages`]:
/// how many pages are pinned *right now* across all holders, and the highest
/// that count has ever been. Admission control leases capacity against the
/// cache budget; these counters are the ground truth that the leases actually
/// bound the pinned footprint (the over-pin test asserts
/// `high_water ≤ budget`).
#[derive(Debug, Default)]
struct PinCounters {
    current: AtomicU64,
    high_water: AtomicU64,
}

/// Decrements the live pin count when a [`PinnedPages`] set is dropped.
#[derive(Debug)]
struct PinGuard {
    counters: Arc<PinCounters>,
    count: u64,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.counters
            .current
            .fetch_sub(self.count, Ordering::Relaxed);
    }
}

/// Encoding of the on-disk row block (see the v3 layout in
/// [`crate::snapshot`]). Decoded pages hold plain `u32` rows either way —
/// the codec trades disk bytes for decode work, never bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCodec {
    /// `u32 × nnz`, as the in-memory arena stores them (files where varint
    /// would not have shrunk the block).
    Raw,
    /// Per-column LEB128 delta encoding with a resident byte-offset table.
    Varint,
}

impl PagedColumnStore {
    /// Number of pages the column space divides into.
    pub fn page_count(&self) -> usize {
        self.order.div_ceil(self.columns_per_page)
    }

    /// Columns decoded per page.
    pub fn columns_per_page(&self) -> usize {
        self.columns_per_page
    }

    /// Total decoded-page capacity of the cache (after shard rounding).
    pub fn cache_capacity_pages(&self) -> usize {
        self.cache.capacity()
    }

    /// The row codec of the underlying file.
    pub fn row_codec(&self) -> RowCodec {
        self.codec
    }

    /// The persisted `‖z̃_j‖²` table (permuted domain): `f64 × n` resident,
    /// like the rest of the cold-start state, so queries pay no page traffic
    /// for the norm terms. Consumers that keep it (the query engine) clone
    /// the `Arc`, not the `8n` bytes.
    pub fn norms(&self) -> &Arc<Vec<f64>> {
        &self.norms
    }

    /// Page-cache counters accumulated since open (see [`PageCacheStats`]).
    pub fn page_cache_stats(&self) -> PageCacheStats {
        PageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            readahead_reads: self.readahead_reads.load(Ordering::Relaxed),
            column_runs: self.column_runs.load(Ordering::Relaxed),
            value_reads: self.value_reads.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            faulted_reads: self.faulted_reads.load(Ordering::Relaxed),
            skeleton_reads: self.skeleton_reads.load(Ordering::Relaxed),
        }
    }

    /// Cumulative integrity-scrubber counters (see [`ScrubStats`]).
    pub fn scrub_stats(&self) -> ScrubStats {
        ScrubStats {
            pages_scrubbed: self.pages_scrubbed.load(Ordering::Relaxed),
            scrub_failures: self.scrub_failures.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            skeleton_groups_distrusted: self.skeleton_groups_distrusted.load(Ordering::SeqCst),
        }
    }

    /// Fetches page `pid` from disk and revalidates it with exactly the
    /// checks the serve path applies — including the one-shot re-fetch that
    /// lets corruption in transit heal — **without** touching the page
    /// cache: no insertion, no eviction, no interference with resident
    /// pages' recency. The read bytes/retries ride in the ordinary
    /// page-cache counters; the verdict lands in the cumulative
    /// [`ScrubStats`].
    ///
    /// A page that stays rotten (or unreadable past the retry budget) counts
    /// a [`ScrubStats::scrub_failures`] and is quarantined via
    /// [`PagedColumnStore::quarantine_page`], so a possibly-stale cached
    /// copy cannot outlive the knowledge that its backing bytes are bad.
    ///
    /// On a v4 file a sound page's columns also have their persisted
    /// skeletons checked against the skeletons of the rows just decoded: a
    /// group of 64 columns whose records disagree (or cannot be read) counts
    /// a scrub failure and is distrusted, so no batch certifies a pair from
    /// it again, and counts in [`ScrubStats::skeleton_groups_distrusted`]
    /// (answers certified from it before are the caller's to drop); the
    /// page is not quarantined.
    ///
    /// # Errors
    ///
    /// Returns the serve path's typed per-column
    /// [`EffresError::StoreFailure`] when the page is rotten.
    pub fn scrub_page(&self, pid: usize) -> Result<(), EffresError> {
        let page = self.decode_page(pid);
        self.pages_scrubbed.fetch_add(1, Ordering::Relaxed);
        let result = match &page {
            Ok(page) => self.scrub_skeleton(pid, page),
            Err(error) => Err(error.clone()),
        };
        if result.is_err() {
            self.scrub_failures.fetch_add(1, Ordering::Relaxed);
        }
        if page.is_err() {
            self.quarantine_page(pid);
        }
        result
    }

    /// The skeleton half of [`PagedColumnStore::scrub_page`], on a v4 file:
    /// recomputes the skeletons of page `pid`'s columns from the rows just
    /// decoded and compares them with the persisted records. A group whose
    /// records disagree, or cannot be read or decoded, is marked distrusted
    /// (one bit per group): from then on its pairs take the row path. The
    /// page itself is sound, so it is not quarantined.
    fn scrub_skeleton(&self, pid: usize, page: &Page) -> Result<(), EffresError> {
        let Some(index) = &self.skeleton else {
            return Ok(());
        };
        let (first_col, last_col) = self.page_columns(pid);
        let columns: Vec<usize> = (first_col..last_col)
            .filter(|&j| !index.is_distrusted(j / SKELETON_GROUP))
            .collect();
        let persisted = self.read_skeletons(&columns);
        let mut rot = None;
        for &j in &columns {
            let lo = (self.col_ptr[j] - page.base) as usize;
            let hi = (self.col_ptr[j + 1] - page.base) as usize;
            let rows = skeleton::column_buckets(&page.rows[lo..hi], index.shift);
            if persisted.buckets(j) != Some(rows.as_slice()) {
                if index.distrust(j / SKELETON_GROUP) {
                    self.skeleton_groups_distrusted
                        .fetch_add(1, Ordering::SeqCst);
                }
                rot.get_or_insert(j);
            }
        }
        match rot {
            None => Ok(()),
            Some(column) => Err(EffresError::StoreFailure {
                column,
                message: "the persisted row-bucket skeleton disagrees with the column's rows; \
                          its group is no longer trusted"
                    .to_string(),
            }),
        }
    }

    /// Quarantines page `pid`: evicts any resident copy from the cache (the
    /// next query touching the page re-fetches from disk and surfaces a
    /// typed error if the rot persists) and counts it in
    /// [`ScrubStats::quarantined`]. Outstanding readers holding the page's
    /// `Arc` finish unaffected. Returns whether a copy was resident.
    pub fn quarantine_page(&self, pid: usize) -> bool {
        let evicted = self.cache.remove(pid);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        evicted
    }

    /// Bytes this store keeps permanently resident (the `col_ptr` block,
    /// the varint byte-offset table when present, the norm table, and a v4
    /// file's skeleton offset table with its distrust bits) — the part of
    /// the snapshot that did *not* stay on disk. Decoded pages come and go
    /// within the cache budget on top of this.
    pub fn resident_bytes(&self) -> usize {
        let skeleton = self
            .skeleton
            .as_ref()
            .map_or(0, |index| index.group_off.len() + index.distrusted.len());
        (self.col_ptr.len()
            + self.row_off.as_ref().map_or(0, Vec::len)
            + self.norms.len()
            + skeleton)
            * 8
    }

    /// Whether the file carries a row-bucket skeleton (v4): only then does
    /// [`PagedColumnStore::read_skeletons`] certify anything.
    pub fn has_skeleton(&self) -> bool {
        self.skeleton.is_some()
    }

    /// On-disk footprint of the three arena blocks and the skeleton block,
    /// in the same shape the resident arena reports its memory footprint.
    /// With the raw codec the row block is `u32` on disk exactly as in
    /// memory; with the varint codec it is the (smaller) encoded byte
    /// count. A v3 file has no skeleton block and reports 0 for it.
    pub fn footprint(&self) -> ArenaFootprint {
        let rows_bytes = match (&self.codec, &self.row_off) {
            (RowCodec::Varint, Some(off)) => *off.last().expect("row_off never empty") as usize,
            _ => self.nnz * 4,
        };
        ArenaFootprint {
            col_ptr_bytes: self.col_ptr.len() * 8,
            rows_bytes,
            vals_bytes: self.nnz * 8,
            skeleton_bytes: self
                .skeleton
                .as_ref()
                .map_or(0, |index| index.block_bytes as usize),
            index_width_bytes: 4,
        }
    }

    /// The decoded page covering column `j`: from the cache, or read from
    /// disk (a miss) and published to the cache.
    fn page_for(&self, j: usize) -> Result<Arc<Page>, EffresError> {
        let pid = self.page_of_column(j);
        if let Some(page) = self.cache.get(pid) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(page);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let page = Arc::new(self.decode_page(pid)?);
        self.cache.insert(pid, Arc::clone(&page));
        Ok(page)
    }

    /// One positioned-read **attempt**: the real read, unless a fault plan
    /// is installed and schedules a failure for `(offset, attempt)`; poison
    /// (injected at-rest corruption) is applied to successful reads. This is
    /// the single seam every page/readahead byte passes through.
    fn read_attempt(&self, buf: &mut [u8], offset: u64, attempt: u32) -> std::io::Result<()> {
        let Some(plan) = &self.faults else {
            return self.file.read_exact_at(buf, offset);
        };
        match plan.read_fault(offset, attempt) {
            ReadFault::TransientError => Err(std::io::Error::other(
                "injected transient read error (fault plan)",
            )),
            ReadFault::ShortRead => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "injected short read (fault plan)",
            )),
            ReadFault::None => {
                self.file.read_exact_at(buf, offset)?;
                plan.apply_poison(buf, offset, attempt);
                Ok(())
            }
        }
    }

    /// A positioned read with bounded retry-with-backoff: transient failures
    /// are counted ([`PageCacheStats::faulted_reads`]) and retried
    /// ([`PageCacheStats::retries`]) up to the policy's budget before the
    /// last error surfaces. `attempt_base` keys the fault schedule — the
    /// validation-failure re-fetch pass uses a disjoint attempt range so its
    /// reads draw fresh outcomes.
    fn read_block(&self, buf: &mut [u8], offset: u64, attempt_base: u32) -> std::io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match self.read_attempt(buf, offset, attempt_base + attempt) {
                Ok(()) => return Ok(()),
                Err(error) => {
                    self.faulted_reads.fetch_add(1, Ordering::Relaxed);
                    if attempt >= self.retry.max_retries {
                        return Err(error);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = self.retry.backoff_for(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// First and one-past-last column of page `pid`.
    fn page_columns(&self, pid: usize) -> (usize, usize) {
        let first_col = pid * self.columns_per_page;
        let last_col = (first_col + self.columns_per_page).min(self.order);
        (first_col, last_col)
    }

    /// Byte range of the row data covering columns `first_col..last_col`
    /// (contiguous for any consecutive column range, in either codec).
    fn row_byte_range(&self, first_col: usize, last_col: usize) -> (u64, usize) {
        match (&self.codec, &self.row_off) {
            (RowCodec::Varint, Some(off)) => (
                self.rows_offset + off[first_col],
                (off[last_col] - off[first_col]) as usize,
            ),
            _ => (
                self.rows_offset + self.col_ptr[first_col] * 4,
                ((self.col_ptr[last_col] - self.col_ptr[first_col]) * 4) as usize,
            ),
        }
    }

    /// Byte range of the value data covering columns `first_col..last_col`.
    fn val_byte_range(&self, first_col: usize, last_col: usize) -> (u64, usize) {
        (
            self.vals_offset + self.col_ptr[first_col] * 8,
            ((self.col_ptr[last_col] - self.col_ptr[first_col]) * 8) as usize,
        )
    }

    /// On-disk bytes (rows plus values) of columns `first_col..last_col`.
    fn column_bytes(&self, first_col: usize, last_col: usize) -> usize {
        self.row_byte_range(first_col, last_col).1 + self.val_byte_range(first_col, last_col).1
    }

    /// Reads and validates one page from disk. Two threads may race to
    /// decode the same page; both produce identical bits and the cache keeps
    /// one of them — correctness is unaffected, only a read is duplicated.
    fn decode_page(&self, pid: usize) -> Result<Page, EffresError> {
        let (first_col, last_col) = self.page_columns(pid);
        let mut page = self.empty_page(first_col, last_col);
        let mut scratch = self.buffers.take_scratch();
        let result = self.read_columns(
            first_col,
            last_col,
            &mut scratch,
            Some(&mut page.rows),
            Some(&mut page.vals),
        );
        self.buffers.put_scratch(scratch);
        result.map(|()| page)
    }

    /// An empty page for columns `first_col..last_col`, on pooled buffers
    /// that already hold its entries. Recycled buffers are cleared here, so
    /// only capacity (never contents) survives reuse.
    fn empty_page(&self, first_col: usize, last_col: usize) -> Page {
        let base = self.col_ptr[first_col];
        let count = (self.col_ptr[last_col] - base) as usize;
        let PageBuffers { mut rows, mut vals } = self.buffers.take_page_buffers(count);
        rows.clear();
        vals.clear();
        Page {
            base,
            rows,
            vals,
            pool: Arc::downgrade(&self.buffers),
        }
    }

    /// Reads the raw bytes of columns `first_col..last_col` into the front
    /// of `scratch`: the row block when `rows`, the value block when
    /// `vals`, with the retry policy applied to each positioned read.
    /// Returns how many bytes of `scratch.rows` and `scratch.vals` hold
    /// them (zero for a block not read).
    fn fetch_column_bytes(
        &self,
        (first_col, last_col): (usize, usize),
        (rows, vals): (bool, bool),
        scratch: &mut ReadScratch,
        attempt_base: u32,
    ) -> Result<(usize, usize), EffresError> {
        let failed = |message: String| EffresError::StoreFailure {
            column: first_col,
            message,
        };
        let (mut row_len, mut val_len) = (0, 0);
        if rows {
            let row_at;
            (row_at, row_len) = self.row_byte_range(first_col, last_col);
            self.read_block(front(&mut scratch.rows, row_len), row_at, attempt_base)
                .map_err(|e| failed(format!("reading the row block: {e}")))?;
        }
        if vals {
            let val_at;
            (val_at, val_len) = self.val_byte_range(first_col, last_col);
            self.read_block(front(&mut scratch.vals, val_len), val_at, attempt_base)
                .map_err(|e| failed(format!("reading the value block: {e}")))?;
        }
        self.bytes_read
            .fetch_add((row_len + val_len) as u64, Ordering::Relaxed);
        Ok((row_len, val_len))
    }

    /// Fetches columns `first_col..last_col` — a page, a run's rows or a
    /// run's values — and appends the halves asked for, decoded and
    /// validated, to `rows` and `vals` (a half left `None` is not read). A
    /// range that fails *validation* (the bytes read fine but do not decode
    /// as well-formed columns) is truncated away and fetched once more —
    /// corruption in transit heals, corruption at rest fails again and
    /// surfaces as the typed per-column error of the second attempt.
    fn read_columns(
        &self,
        first_col: usize,
        last_col: usize,
        scratch: &mut ReadScratch,
        mut rows: Option<&mut Vec<u32>>,
        mut vals: Option<&mut Vec<f64>>,
    ) -> Result<(), EffresError> {
        let range = (first_col, last_col);
        let halves = (rows.is_some(), vals.is_some());
        let row_start = rows.as_ref().map_or(0, |rows| rows.len());
        let val_start = vals.as_ref().map_or(0, |vals| vals.len());
        // Each attempt decodes over whatever a failed one appended.
        let mut decode = |bytes: &ReadScratch, (row_len, val_len): (usize, usize)| {
            if let Some(rows) = rows.as_deref_mut() {
                rows.truncate(row_start);
                self.decode_rows(first_col, last_col, &bytes.rows[..row_len], rows)?;
            }
            if let Some(vals) = vals.as_deref_mut() {
                vals.truncate(val_start);
                self.decode_values(first_col, last_col, &bytes.vals[..val_len], vals)?;
            }
            Ok(())
        };
        let read = self.fetch_column_bytes(range, halves, scratch, 0)?;
        if decode(scratch, read).is_ok() {
            return Ok(());
        }
        self.faulted_reads.fetch_add(1, Ordering::Relaxed);
        self.retries.fetch_add(1, Ordering::Relaxed);
        let read = self.fetch_column_bytes(range, halves, scratch, REFETCH_ATTEMPT_BASE)?;
        decode(scratch, read)
    }

    /// The row half of decoding columns `first_col..last_col` from their raw
    /// on-disk bytes (fetched by [`PagedColumnStore::read_columns`], or
    /// sliced out of a larger coalesced read by the bulk path): appends
    /// their rows to `rows`; an error can leave part of them appended. The
    /// on-disk data is untrusted and the kernels rely on sorted
    /// lower-triangular columns, so every column's rows are validated
    /// before they can serve a query.
    fn decode_rows(
        &self,
        first_col: usize,
        last_col: usize,
        row_bytes: &[u8],
        rows: &mut Vec<u32>,
    ) -> Result<(), EffresError> {
        let base = self.col_ptr[first_col];
        let start = rows.len();
        // Where column `j` starts in the appended block.
        let at = |j: usize| start + (self.col_ptr[j] - base) as usize;
        match (&self.codec, &self.row_off) {
            (RowCodec::Varint, Some(off)) => {
                let byte_base = off[first_col];
                for j in first_col..last_col {
                    let lo = (off[j] - byte_base) as usize;
                    let hi = (off[j + 1] - byte_base) as usize;
                    let entries = (self.col_ptr[j + 1] - self.col_ptr[j]) as usize;
                    // The decoder enforces strictly increasing in-range rows.
                    decode_varint_column(&row_bytes[lo..hi], entries, self.order, rows)
                        .map_err(|message| EffresError::StoreFailure { column: j, message })?;
                }
            }
            _ => {
                rows.extend(
                    row_bytes
                        .chunks_exact(4)
                        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk"))),
                );
                // Raw rows arrive unchecked: reject non-increasing or
                // out-of-range indices per column.
                for j in first_col..last_col {
                    let column = &rows[at(j)..at(j + 1)];
                    if !column.windows(2).all(|w| w[0] < w[1])
                        || column.last().is_some_and(|&i| i as usize >= self.order)
                    {
                        return Err(EffresError::StoreFailure {
                            column: j,
                            message: format!(
                                "row indices are not strictly increasing within 0..{}",
                                self.order
                            ),
                        });
                    }
                }
            }
        };
        for j in first_col..last_col {
            if rows[at(j)..at(j + 1)]
                .first()
                .is_some_and(|&i| (i as usize) < j)
            {
                return Err(EffresError::StoreFailure {
                    column: j,
                    message: "column has an entry above the diagonal; \
                              inverse columns must be supported on the diagonal suffix"
                        .to_string(),
                });
            }
        }
        Ok(())
    }

    /// The value half of decoding columns `first_col..last_col` (see
    /// [`PagedColumnStore::decode_rows`]): appends their values to `vals`,
    /// each validated finite; an error can leave part of them appended.
    fn decode_values(
        &self,
        first_col: usize,
        last_col: usize,
        val_bytes: &[u8],
        vals: &mut Vec<f64>,
    ) -> Result<(), EffresError> {
        let base = self.col_ptr[first_col];
        let start = vals.len();
        vals.extend(
            val_bytes
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
        );
        // One branch-free pass over the block; only a block holding a
        // non-finite value is scanned column by column, to name the column.
        let finite = vals[start..]
            .iter()
            .fold(true, |finite, v| finite & v.is_finite());
        if finite {
            return Ok(());
        }
        let at = |j: usize| start + (self.col_ptr[j] - base) as usize;
        for j in first_col..last_col {
            if !vals[at(j)..at(j + 1)].iter().all(|v| v.is_finite()) {
                return Err(EffresError::StoreFailure {
                    column: j,
                    message: "non-finite value".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Reads the values of the column runs of `pinned` that hold any of
    /// `columns` (in any order) and whose values were not read yet: one
    /// read per run, through the same retry, validation and re-fetch cycle
    /// as any read, each counted in [`PageCacheStats::value_reads`], into
    /// a buffer of the run's own. Other columns need no read. A read
    /// that fails is kept as its run's typed [`EffresError::StoreFailure`]:
    /// every [`PinnedReader`] access to the run's columns gets it, and the
    /// run is not read again.
    pub fn read_run_values(&self, pinned: &mut PinnedPages, columns: &[usize]) {
        let runs = &mut pinned.runs.runs;
        let mut scratch = None;
        for &j in columns {
            let at = runs.partition_point(|run| run.first_col <= j);
            let Some(run) = at.checked_sub(1).map(|at| &mut runs[at]) else {
                continue;
            };
            if j >= run.last_col || run.values.is_some() {
                continue;
            }
            self.value_reads.fetch_add(1, Ordering::Relaxed);
            let scratch = scratch.get_or_insert_with(|| self.buffers.take_scratch());
            let entries = self.col_ptr[run.last_col] - self.col_ptr[run.first_col];
            let mut vals = Vec::with_capacity(entries as usize);
            let read =
                self.read_columns(run.first_col, run.last_col, scratch, None, Some(&mut vals));
            run.values = Some(read.map(|()| vals));
        }
        if let Some(scratch) = scratch {
            self.buffers.put_scratch(scratch);
        }
    }

    /// The persisted row-bucket skeletons of `columns` (ascending and
    /// distinct: a batch's columns), in one batch-local padded arena. A v3
    /// file has none, and every column comes back without one.
    ///
    /// The groups of 64 columns holding them are read through the retry
    /// policy and fault seam of every read, coalesced across gaps of at
    /// most 4 KiB into reads of at most 256 KiB (one group larger than that
    /// is one read of its own); each read counts in
    /// [`PageCacheStats::skeleton_reads`] and its bytes in
    /// [`PageCacheStats::bytes_read`]. Each demanded record is
    /// validated like rows are: the records of a group fill it exactly, and
    /// a record's buckets strictly increase from its column's own bucket and
    /// never pass the order's last bucket. A group that fails is fetched
    /// once more; if it fails again, or cannot be read, or the scrubber has
    /// distrusted it, its columns get no skeleton and their pairs take the
    /// row path (the failure counts in [`PageCacheStats::faulted_reads`]).
    /// A skeleton never fails a query.
    ///
    /// # Panics
    ///
    /// Panics if a column is out of range.
    pub fn read_skeletons(&self, columns: &[usize]) -> BatchSkeletons {
        debug_assert!(columns.windows(2).all(|w| w[0] < w[1]));
        let mut out = BatchSkeletons {
            shift: 0,
            columns: columns.to_vec(),
            spans: Vec::with_capacity(columns.len()),
            buckets: Vec::new(),
        };
        let Some(index) = &self.skeleton else {
            out.spans.resize(columns.len(), None);
            return out.finish();
        };
        out.shift = index.shift;
        if let Some(&last) = columns.last() {
            assert!(
                last < self.order,
                "column {last} out of bounds for order {}",
                self.order
            );
        }
        // Each demanded group with the range of `columns` it holds.
        let mut groups: Vec<(usize, usize, usize)> = Vec::new();
        for (k, &j) in columns.iter().enumerate() {
            let g = j / SKELETON_GROUP;
            match groups.last_mut() {
                Some((last, _, end)) if *last == g => *end = k + 1,
                _ => groups.push((g, k, k + 1)),
            }
        }
        let off = &index.group_off;
        let mut scratch = self.buffers.take_scratch();
        let mut at = 0;
        while at < groups.len() {
            let first = groups[at].0;
            if index.is_distrusted(first) {
                out.spans.resize(groups[at].2, None);
                at += 1;
                continue;
            }
            let mut end = at + 1;
            while let Some(&(g, _, _)) = groups.get(end) {
                let prev = groups[end - 1].0;
                if index.is_distrusted(g)
                    || off[g] - off[prev + 1] > SKELETON_GAP_BYTES
                    || off[g + 1] - off[first] > SKELETON_READ_BYTES
                {
                    break;
                }
                end += 1;
            }
            let (lo, hi) = (off[first], off[groups[end - 1].0 + 1]);
            let read = self.read_skeleton_bytes(index, lo, hi, &mut scratch.rows, 0);
            for &(g, from, to) in &groups[at..end] {
                let wanted = &columns[from..to];
                let span = (off[g] - lo) as usize..(off[g + 1] - lo) as usize;
                let decoded = read.is_ok()
                    && (self.decode_skeleton_group(
                        index,
                        g,
                        &scratch.rows[span],
                        wanted,
                        &mut out,
                    ) || self.refetch_skeleton_group(
                        index,
                        g,
                        wanted,
                        &mut scratch.vals,
                        &mut out,
                    ));
                if !decoded {
                    out.spans.resize(to, None);
                }
            }
            at = end;
        }
        self.buffers.put_scratch(scratch);
        out.finish()
    }

    /// Group `g` read into `buffer` once more after it failed validation,
    /// and decoded as in [`PagedColumnStore::decode_skeleton_group`]: rot
    /// in transit heals, rot at rest fails again. Both failures count as
    /// faulted reads, the second read as a retry.
    fn refetch_skeleton_group(
        &self,
        index: &SkeletonIndex,
        g: usize,
        wanted: &[usize],
        buffer: &mut Vec<u8>,
        out: &mut BatchSkeletons,
    ) -> bool {
        self.faulted_reads.fetch_add(1, Ordering::Relaxed);
        self.retries.fetch_add(1, Ordering::Relaxed);
        let (lo, hi) = (index.group_off[g], index.group_off[g + 1]);
        if self
            .read_skeleton_bytes(index, lo, hi, buffer, REFETCH_ATTEMPT_BASE)
            .is_err()
        {
            return false;
        }
        let bytes = &buffer[..(hi - lo) as usize];
        let decoded = self.decode_skeleton_group(index, g, bytes, wanted, out);
        if !decoded {
            self.faulted_reads.fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }

    /// Reads bytes `lo..hi` of the skeleton records into the front of
    /// `buffer`, through [`PagedColumnStore::read_block`].
    fn read_skeleton_bytes(
        &self,
        index: &SkeletonIndex,
        lo: u64,
        hi: u64,
        buffer: &mut Vec<u8>,
        attempt_base: u32,
    ) -> std::io::Result<()> {
        let len = (hi - lo) as usize;
        self.skeleton_reads.fetch_add(1, Ordering::Relaxed);
        self.read_block(front(buffer, len), index.records_offset + lo, attempt_base)?;
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Walks group `g`'s records in `bytes` (exactly the group's span) and
    /// appends the skeletons of `wanted` (ascending columns of the group)
    /// to `out`. Returns `false`, with `out` as it was, when a record
    /// overruns the group, the records leave bytes over, or a wanted
    /// record's buckets are malformed.
    fn decode_skeleton_group(
        &self,
        index: &SkeletonIndex,
        g: usize,
        bytes: &[u8],
        wanted: &[usize],
        out: &mut BatchSkeletons,
    ) -> bool {
        let (spans, buckets) = (out.spans.len(), out.buckets.len());
        let last_bucket = ((self.order - 1) >> index.shift) as u64;
        let first_col = g * SKELETON_GROUP;
        let last_col = (first_col + SKELETON_GROUP).min(self.order);
        let mut wanted = wanted.iter().peekable();
        let mut at = 0;
        let mut walk = || -> Result<(), String> {
            for j in first_col..last_col {
                let len = long_varint(bytes, &mut at)? as usize;
                let body = bytes
                    .get(at..at.saturating_add(len))
                    .ok_or_else(|| format!("column {j}: the skeleton record overruns its group"))?;
                at += len;
                if wanted.next_if_eq(&&j).is_some() {
                    let start = out.buckets.len();
                    decode_skeleton_body(body, j, index.shift, last_bucket, &mut out.buckets)?;
                    let span = (
                        u32::try_from(start),
                        u32::try_from(out.buckets.len() - start),
                    );
                    let (Ok(start), Ok(len)) = span else {
                        return Err("the batch's skeletons overflow their arena".to_string());
                    };
                    out.spans.push(Some((start, len)));
                }
            }
            if at == bytes.len() {
                Ok(())
            } else {
                Err(format!(
                    "group {g} has {} trailing byte(s)",
                    bytes.len() - at
                ))
            }
        };
        let decoded = walk().is_ok();
        if !decoded {
            out.spans.truncate(spans);
            out.buckets.truncate(buckets);
        }
        decoded
    }

    /// Page id serving column `j`.
    pub fn page_of_column(&self, j: usize) -> usize {
        j / self.columns_per_page
    }

    /// File offset of the first stored value (`f64`, little-endian) of
    /// column `j` — the seam chaos tests aim [`FaultPlan::poison`] at: the
    /// two *high* bytes of a value (offset `+6`) overwritten with `0xFF`
    /// decode as NaN, which page validation rejects deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.order()`.
    pub fn column_value_byte_offset(&self, j: usize) -> u64 {
        assert!(
            j < self.order,
            "column {j} out of bounds for order {}",
            self.order
        );
        self.vals_offset + self.col_ptr[j] * 8
    }

    /// Pins a set of pages until the returned set drops (the locality
    /// scheduler pins each chunk of a batch once, in one call): pages
    /// already in the LRU are reused (a **hit** each), and the missing ones
    /// are fetched with **coalesced readahead** — maximal runs of adjacent
    /// missing pages become one large positioned read per block (rows and
    /// values), instead of two small reads per page — then decoded and
    /// validated page by page.
    ///
    /// `demand`, when given, lists the columns the pin's queries will read
    /// (in any order, duplicates allowed; columns on other pages are
    /// ignored). A missing page whose demanded columns hold under a quarter
    /// of its on-disk bytes is then read **sparsely**: each run of adjacent
    /// demanded columns (counted in [`PageCacheStats::column_runs`]) pins
    /// its rows — one positioned read through the same retry, validation
    /// and re-fetch cycle as a page — and the page counts as one miss. All
    /// runs' rows decode into one arena owned by the pin, reserved once from
    /// `col_ptr` before any read and freed when the pin drops. The pin reads
    /// no run's values: [`PagedColumnStore::read_run_values`] reads them,
    /// through the same cycle, for the runs the pin's owner names, after it
    /// has answered from the rows what needs no value. Cached pages and
    /// densely demanded pages take the whole-page path either way. A column
    /// outside the demand is still served correctly — the [`PinnedReader`]
    /// falls back to the store's cached path for it.
    ///
    /// Whole pages are owned by the returned [`PinnedPages`], so eviction
    /// can never pull one out from under the queries draining it; they are
    /// *also* published to the LRU (the same `Arc`s — no bytes are
    /// duplicated), so a scheduled batch leaves the cache warm for whatever
    /// comes next. Column runs cover only part of their page, so they are
    /// pinned but never published. A batch may transiently keep alive up to
    /// its pin budget *beyond* the pages the cache itself retains;
    /// schedulers size their pins out of the cache budget to keep the total
    /// bounded (a sparsely read page counts as one pinned page).
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::StoreFailure`] on read failure or if any
    /// fetched page or column run's rows fail validation. A run's values
    /// are not read here: their read failure or rot is kept by
    /// [`PagedColumnStore::read_run_values`] and surfaces, as the same typed
    /// error, from every [`PinnedReader`] access to the run.
    ///
    /// # Panics
    ///
    /// Panics if any page id or demanded column is out of range.
    pub fn pin_pages(
        &self,
        page_ids: &[usize],
        demand: Option<&[usize]>,
    ) -> Result<PinnedPages, EffresError> {
        self.pin(page_ids, demand, false).map(|(pinned, _)| pinned)
    }

    /// Degraded form of [`PagedColumnStore::pin_pages`] for partial-results
    /// batch execution: instead of failing the whole pin when any page is
    /// bad, returns whatever subset could be fetched plus a typed failure
    /// per page that could not, in page order. The pin is planned once,
    /// exactly as `pin_pages` plans it, and degrades in place: a coalesced
    /// read that fails is fetched again page by page, and a sparse page
    /// whose run's rows stay rotten drops its runs from the arena. Every
    /// other page and run stands, and each page counts its hit or miss, its
    /// runs and its retries once — so one rotten page costs the batch that
    /// page's queries, not the batch. Runs pin their rows only, so rotten
    /// values fail no pin: once [`PagedColumnStore::read_run_values`] has
    /// read them, they fail every [`PinnedReader`] access to their run, and
    /// only the pairs whose answers need them.
    ///
    /// # Panics
    ///
    /// Panics if any page id or demanded column is out of range.
    pub fn pin_pages_partial(
        &self,
        page_ids: &[usize],
        demand: Option<&[usize]>,
    ) -> (PinnedPages, Vec<(usize, EffresError)>) {
        self.pin(page_ids, demand, true)
            .expect("a partial pin lists its failures instead of returning one")
    }

    /// The one pin body of [`PagedColumnStore::pin_pages`] (`partial` off:
    /// the first failure fails the pin) and
    /// [`PagedColumnStore::pin_pages_partial`] (`partial` on: failures are
    /// listed and the pin goes on without those pages).
    fn pin(
        &self,
        page_ids: &[usize],
        demand: Option<&[usize]>,
        partial: bool,
    ) -> Result<(PinnedPages, Vec<(usize, EffresError)>), EffresError> {
        let PinPlan {
            count,
            mut pages,
            whole,
            sparse,
        } = self.plan_pin(page_ids, demand);
        let mut failures = Vec::new();
        // One scratch serves every read of the pin (on a failed pin it just
        // drops: corrupt files are not a steady state worth optimizing).
        let mut scratch = self.buffers.take_scratch();
        for chunk in self.coalesced_chunks(&whole) {
            self.misses.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            let decoded = match self.read_page_chunk(chunk, &mut scratch) {
                Ok(decoded) => decoded,
                Err(error) if !partial => return Err(error),
                // The coalesced read failed: fetch its pages one by one.
                Err(_) => chunk.iter().map(|&pid| self.decode_page(pid)).collect(),
            };
            for (&pid, page) in chunk.iter().zip(decoded) {
                match page {
                    Ok(page) => {
                        let page = Arc::new(page);
                        self.cache.insert(pid, Arc::clone(&page));
                        pages.insert(pid, page);
                    }
                    Err(error) if !partial => return Err(error),
                    Err(error) => failures.push((pid, error)),
                }
            }
        }
        // The demanded entries are known before any read: one reservation.
        let entries = sparse
            .iter()
            .flat_map(|(_, runs)| runs)
            .map(|&(first_col, last_col)| {
                (self.col_ptr[last_col] - self.col_ptr[first_col]) as usize
            })
            .sum();
        let mut arena = RunArena {
            rows: Vec::with_capacity(entries),
            ..RunArena::default()
        };
        for (pid, runs) in sparse {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let (page_entries, page_runs) = (arena.rows.len(), arena.runs.len());
            for (first_col, last_col) in runs {
                self.column_runs.fetch_add(1, Ordering::Relaxed);
                let offset = arena.rows.len();
                // Rows only: the values wait for `read_run_values`.
                let read = self.read_columns(
                    first_col,
                    last_col,
                    &mut scratch,
                    Some(&mut arena.rows),
                    None,
                );
                match read {
                    Ok(()) => arena.runs.push(Run {
                        first_col,
                        last_col,
                        offset,
                        values: None,
                    }),
                    Err(error) if !partial => return Err(error),
                    Err(error) => {
                        arena.rows.truncate(page_entries);
                        arena.runs.truncate(page_runs);
                        failures.push((pid, error));
                        break;
                    }
                }
            }
        }
        self.buffers.put_scratch(scratch);
        failures.sort_unstable_by_key(|&(pid, _)| pid);

        let pinned = (count - failures.len()) as u64;
        let now = self
            .pin_counters
            .current
            .fetch_add(pinned, Ordering::Relaxed)
            + pinned;
        self.pin_counters
            .high_water
            .fetch_max(now, Ordering::Relaxed);
        let pinned = PinnedPages {
            pages,
            runs: arena,
            count: pinned as usize,
            _guard: Some(PinGuard {
                counters: Arc::clone(&self.pin_counters),
                count: pinned,
            }),
        };
        Ok((pinned, failures))
    }

    /// Sorts one pin's pages into cache hits (taken here, a hit each),
    /// missing pages to read whole, and missing pages to read as column runs
    /// (see [`PagedColumnStore::pin_pages`]).
    fn plan_pin(&self, page_ids: &[usize], demand: Option<&[usize]>) -> PinPlan {
        let mut pids: Vec<usize> = page_ids.to_vec();
        pids.sort_unstable();
        pids.dedup();
        if let Some(&last) = pids.last() {
            assert!(
                last < self.page_count(),
                "page {last} out of bounds for {} pages",
                self.page_count()
            );
        }
        let demand = demand.map(|columns| {
            let mut columns = columns.to_vec();
            columns.sort_unstable();
            columns.dedup();
            if let Some(&last) = columns.last() {
                assert!(
                    last < self.order,
                    "column {last} out of bounds for order {}",
                    self.order
                );
            }
            columns
        });
        let mut plan = PinPlan {
            count: pids.len(),
            pages: HashMap::with_capacity(pids.len()),
            whole: Vec::new(),
            sparse: Vec::new(),
        };
        for pid in pids {
            if let Some(page) = self.cache.get(pid) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                plan.pages.insert(pid, page);
                continue;
            }
            match demand
                .as_deref()
                .and_then(|columns| self.sparse_runs(pid, columns))
            {
                Some(runs) => plan.sparse.push((pid, runs)),
                None => plan.whole.push(pid),
            }
        }
        plan
    }

    /// The runs of adjacent demanded columns to read in place of page `pid`
    /// — or `None` to read the page whole, when the demanded columns
    /// (`demand`: ascending, distinct) hold a quarter or more of its on-disk
    /// bytes.
    fn sparse_runs(&self, pid: usize, demand: &[usize]) -> Option<Vec<(usize, usize)>> {
        let (first_col, last_col) = self.page_columns(pid);
        let on_page = &demand
            [demand.partition_point(|&j| j < first_col)..demand.partition_point(|&j| j < last_col)];
        let demanded: usize = on_page.iter().map(|&j| self.column_bytes(j, j + 1)).sum();
        if 4 * demanded >= self.column_bytes(first_col, last_col) {
            return None;
        }
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &j in on_page {
            match runs.last_mut() {
                Some((_, end)) if *end == j => *end = j + 1,
                _ => runs.push((j, j + 1)),
            }
        }
        Some(runs)
    }

    /// Pages currently pinned across all outstanding [`PinnedPages`] sets.
    pub fn pinned_pages_now(&self) -> usize {
        self.pin_counters.current.load(Ordering::Relaxed) as usize
    }

    /// The highest simultaneous pin count the store has ever seen. Admission
    /// control promises this never exceeds the cache budget even under
    /// concurrent batches; the over-pin regression test asserts exactly that.
    pub fn pinned_pages_high_water(&self) -> usize {
        self.pin_counters.high_water.load(Ordering::Relaxed) as usize
    }

    /// Spare decoded-page buffer sets currently parked in the recycling
    /// pool (test-only: asserts that eviction feeds decode).
    #[cfg(test)]
    fn spare_page_buffers(&self) -> usize {
        self.buffers
            .pages
            .lock()
            .expect("buffer pool poisoned")
            .len()
    }

    /// How many whole-page decodes reused a recycled buffer set vs.
    /// allocated fresh, since open: `(recycled, fresh)`. A long-lived store
    /// should see `recycled` dominate once the cache has filled once — fresh
    /// decodes after warm-up mean the allocator (and, behind it, the
    /// kernel's page fault path) is back on the serving path.
    pub fn buffer_pool_stats(&self) -> (u64, u64) {
        (
            self.buffers.recycled.load(Ordering::Relaxed),
            self.buffers.fresh.load(Ordering::Relaxed),
        )
    }

    /// Cuts a sorted, deduplicated list of missing pages into the chunks
    /// coalesced readahead reads whole: at every break in adjacency, and
    /// before a chunk would outgrow [`MAX_COALESCED_BYTES`] (so a large
    /// pin never demands a read buffer proportional to itself).
    fn coalesced_chunks<'a>(&self, missing: &'a [usize]) -> Vec<&'a [usize]> {
        let page_bytes = |pid: usize| {
            let (first_col, last_col) = self.page_columns(pid);
            self.column_bytes(first_col, last_col)
        };
        let mut chunks = Vec::new();
        let mut start = 0;
        while start < missing.len() {
            let mut end = start + 1;
            let mut total = page_bytes(missing[start]);
            while end < missing.len()
                && missing[end] == missing[end - 1] + 1
                && total + page_bytes(missing[end]) <= MAX_COALESCED_BYTES
            {
                total += page_bytes(missing[end]);
                end += 1;
            }
            chunks.push(&missing[start..end]);
            start = end;
        }
        chunks
    }

    /// Reads one chunk of adjacent pages through
    /// [`PagedColumnStore::fetch_column_bytes`] (two coalesced positioned
    /// reads) and decodes each page out of the shared buffers, in order. A
    /// page that fails validation is re-fetched alone through the
    /// single-page path (which carries its own fetch-validate-refetch cycle)
    /// and its outcome is its own: corruption that may heal fails no chunk.
    fn read_page_chunk(
        &self,
        chunk: &[usize],
        scratch: &mut ReadScratch,
    ) -> Result<Vec<Result<Page, EffresError>>, EffresError> {
        let (first_col, _) = self.page_columns(chunk[0]);
        let (_, last_col) = self.page_columns(*chunk.last().expect("non-empty chunk"));
        self.fetch_column_bytes((first_col, last_col), (true, true), scratch, 0)?;
        self.readahead_reads.fetch_add(2, Ordering::Relaxed);
        let (row_at, _) = self.row_byte_range(first_col, last_col);
        let (val_at, _) = self.val_byte_range(first_col, last_col);
        let decode = |pid: usize| {
            let (lo_col, hi_col) = self.page_columns(pid);
            let (page_row_at, page_row_len) = self.row_byte_range(lo_col, hi_col);
            let row_lo = (page_row_at - row_at) as usize;
            let (page_val_at, page_val_len) = self.val_byte_range(lo_col, hi_col);
            let val_lo = (page_val_at - val_at) as usize;
            let mut page = self.empty_page(lo_col, hi_col);
            let row_bytes = &scratch.rows[row_lo..row_lo + page_row_len];
            let val_bytes = &scratch.vals[val_lo..val_lo + page_val_len];
            self.decode_rows(lo_col, hi_col, row_bytes, &mut page.rows)
                .and_then(|()| self.decode_values(lo_col, hi_col, val_bytes, &mut page.vals))
                .map(|()| page)
                .or_else(|_| {
                    self.faulted_reads.fetch_add(1, Ordering::Relaxed);
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.decode_page(pid)
                })
        };
        Ok(chunk.iter().map(|&pid| decode(pid)).collect())
    }
}

/// A set of decoded pages held resident by a batch scheduler (see
/// [`PagedColumnStore::pin_pages`]): as long as the set is alive, its pages
/// — whole, or as the column runs of a sparsely demanded page — cannot be
/// evicted out from under the queries draining them.
#[derive(Debug, Default)]
pub struct PinnedPages {
    /// Whole pages, keyed by page id.
    pages: HashMap<usize, Arc<Page>>,
    /// Column runs of sparsely demanded pages, in one arena.
    runs: RunArena,
    /// Pages pinned, whole or as runs.
    count: usize,
    /// `None` only for the empty `Default` set, which pins nothing. Held
    /// purely for its `Drop` (decrements the store's live pin count).
    _guard: Option<PinGuard>,
}

impl PinnedPages {
    /// Number of pinned pages (a sparsely read page counts as one).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no pages are pinned.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Column `j` (on page `pid`) from a pinned whole page or column run,
    /// if the set holds it; `col_ptr` is the store's.
    fn column(&self, j: usize, pid: usize, col_ptr: &[u64]) -> Option<PinnedColumn<'_>> {
        let entries = (col_ptr[j + 1] - col_ptr[j]) as usize;
        if let Some(page) = self.pages.get(&pid) {
            let at = (col_ptr[j] - page.base) as usize;
            let end = at + entries;
            return Some(PinnedColumn {
                rows: &page.rows[at..end],
                values: Some(Ok(&page.vals[at..end])),
            });
        }
        let runs = &self.runs.runs;
        let run = runs[..runs.partition_point(|run| run.first_col <= j)]
            .last()
            .filter(|run| j < run.last_col)?;
        let lo = (col_ptr[j] - col_ptr[run.first_col]) as usize;
        let at = run.offset + lo;
        let values = run.values.as_ref().map(|read| match read {
            Ok(vals) => Ok(&vals[lo..lo + entries]),
            Err(error) => Err(error),
        });
        Some(PinnedColumn {
            rows: &self.runs.rows[at..at + entries],
            values,
        })
    }
}

/// A column a [`PinnedPages`] set holds: its rows, and its values as far
/// as the pin has them.
#[derive(Debug, Clone, Copy)]
struct PinnedColumn<'a> {
    rows: &'a [u32],
    /// The values of a whole page's column or of a run read by
    /// [`PagedColumnStore::read_run_values`], or that read's failure;
    /// `None` for a run whose values were never read.
    values: Option<Result<&'a [f64], &'a EffresError>>,
}

/// The column runs of one pin's sparsely demanded pages: their rows,
/// decoded back to back into one buffer when the pin is made, and the
/// values of the runs [`PagedColumnStore::read_run_values`] read.
#[derive(Debug, Default)]
struct RunArena {
    rows: Vec<u32>,
    /// Ascending and disjoint.
    runs: Vec<Run>,
}

/// One column run of a [`RunArena`].
#[derive(Debug)]
struct Run {
    first_col: usize,
    last_col: usize,
    /// Where the run's rows start in the arena's `rows`.
    offset: usize,
    /// The run's values, or the typed failure of their read; `None` until
    /// [`PagedColumnStore::read_run_values`] reads them. One buffer per
    /// run, not one per pin: a pin-sized buffer outgrows the allocator's
    /// heap, and every pin would then fault its pages in afresh.
    values: Option<Result<Vec<f64>, EffresError>>,
}

/// How one pin produces its pages (see [`PagedColumnStore::pin_pages`]).
#[derive(Debug)]
struct PinPlan {
    /// Distinct pages requested.
    count: usize,
    /// Pages already resident in the LRU.
    pages: HashMap<usize, Arc<Page>>,
    /// Missing pages to read whole, ascending (adjacent ones coalesce).
    whole: Vec<usize>,
    /// Missing, sparsely demanded pages, ascending, each with its runs of
    /// adjacent demanded columns.
    sparse: Vec<(usize, Vec<(usize, usize)>)>,
}

/// Skeleton bytes a batch's read bridges between two demanded groups
/// rather than issue a second read.
const SKELETON_GAP_BYTES: u64 = 4 << 10;

/// Upper bound on one coalesced read of skeleton records.
const SKELETON_READ_BYTES: u64 = 256 << 10;

/// Where a v4 file's skeleton records are, kept resident by the paged
/// store: the group offset table and one distrust bit per group.
#[derive(Debug)]
struct SkeletonIndex {
    /// File offset of column 0's record.
    records_offset: u64,
    /// Byte offsets, within the records, of the records of columns
    /// `64·g..`, `g` in `0..=⌈n / 64⌉`.
    group_off: Vec<u64>,
    /// The bucket shift of the order ([`skeleton::bucket_shift`]).
    shift: u32,
    /// Groups the scrubber found disagreeing with their rows, one bit each.
    distrusted: Vec<AtomicU64>,
    /// Bytes of the whole block on disk: its length field, the records and
    /// the offset table.
    block_bytes: u64,
}

impl SkeletonIndex {
    fn is_distrusted(&self, g: usize) -> bool {
        self.distrusted[g / 64].load(Ordering::SeqCst) & (1 << (g % 64)) != 0
    }

    /// Marks group `g` distrusted; whether it was trusted until now.
    fn distrust(&self, g: usize) -> bool {
        let bit = 1 << (g % 64);
        self.distrusted[g / 64].fetch_or(bit, Ordering::SeqCst) & bit == 0
    }
}

/// The persisted row-bucket skeletons of one batch's columns, read by
/// [`PagedColumnStore::read_skeletons`]: one padded `u16` arena, freed with
/// the batch.
#[derive(Debug, Default)]
pub struct BatchSkeletons {
    shift: u32,
    /// The columns asked for, ascending.
    columns: Vec<usize>,
    /// Per column, where its buckets sit in `buckets`; `None` for a column
    /// without a trusted record.
    spans: Vec<Option<(u32, u32)>>,
    buckets: Vec<u16>,
}

impl BatchSkeletons {
    /// Pads the bucket arena so a block compare can start at any bucket.
    fn finish(mut self) -> Self {
        self.buckets.resize(self.buckets.len() + BUCKET_BLOCK, 0);
        self
    }

    fn skeleton(&self, j: usize) -> Option<PaddedBuckets<'_>> {
        let k = self.columns.binary_search(&j).ok()?;
        let (start, len) = self.spans[k]?;
        Some(PaddedBuckets::new(
            &self.buckets[start as usize..],
            len as usize,
        ))
    }

    /// Appends `later`: the skeletons of columns that all come after this
    /// batch's, read from the same store (a batch read in parts). One
    /// arena then answers for both. A skeleton whose place in the joined
    /// arena would not fit its `u32` span is dropped, so its pairs take the
    /// row path.
    ///
    /// # Panics
    ///
    /// Panics if a column of `later` does not come after every column here.
    pub fn append(&mut self, later: BatchSkeletons) {
        if let (Some(&last), Some(&first)) = (self.columns.last(), later.columns.first()) {
            assert!(last < first, "appended skeletons follow in column order");
        }
        if self.columns.is_empty() {
            self.shift = later.shift;
        }
        // Both arenas end in padding; `later`'s pads the joined one.
        let base = self.buckets.len().saturating_sub(BUCKET_BLOCK);
        self.buckets.truncate(base);
        let base = u32::try_from(base).ok();
        self.spans.extend(later.spans.into_iter().map(|span| {
            let (start, len) = span?;
            Some((base?.checked_add(start)?, len))
        }));
        self.columns.extend(later.columns);
        self.buckets.extend(later.buckets);
    }

    /// Column `j`'s persisted skeleton, if it was asked for and read.
    pub fn buckets(&self, j: usize) -> Option<&[u16]> {
        self.skeleton(j).map(|column| column.buckets())
    }

    /// Whether the suffixes of columns `p` and `q` at rows `max(p, q)..`
    /// are certified disjoint: both skeletons were read and share no
    /// bucket from `max(p, q)`'s own on ([`skeleton::meet_from`]), so the
    /// pair's dot is `+0.0`.
    pub fn certifies(&self, p: usize, q: usize) -> bool {
        let (lo, hi) = (p.min(q), p.max(q));
        match (self.skeleton(lo), self.skeleton(hi)) {
            (Some(a), Some(b)) => skeleton::meet_from(a, b, hi, self.shift).is_none(),
            _ => false,
        }
    }
}

/// A [`ColumnStore`] view combining a [`PagedColumnStore`] with one
/// [`PinnedPages`] set (a batch scheduler's chunk pin). A column resolves
/// to a slice of a pinned whole page or of the pin's runs, without
/// touching the cache or its locks; anything else — including a column
/// outside a sparse pin's demand — falls back to the store's normal cached
/// path. Pins hold the same decoded bits the cache would, so answers are
/// bit-identical to unpinned serving.
///
/// A run's column serves its rows from the pin at once
/// ([`PinnedReader::rows`]). [`ColumnStore::with_column`] serves it from
/// the run's values once [`PagedColumnStore::read_run_values`] has read
/// them, or with that read's typed
/// [`EffresError::StoreFailure`](effres::EffresError) when it failed. The
/// values must be read before a run's column is asked for them (see
/// [`PinnedReader::new`]).
#[derive(Debug, Clone, Copy)]
pub struct PinnedReader<'s> {
    store: &'s PagedColumnStore,
    pinned: &'s PinnedPages,
}

impl<'s> PinnedReader<'s> {
    /// A view over `store` preferring the `pinned` pages.
    ///
    /// A sparse pin's column runs hold their rows only, so the pin's owner
    /// reads the values of every run whose columns it will ask
    /// [`ColumnStore::with_column`] for
    /// ([`PagedColumnStore::read_run_values`]) before it makes this view;
    /// [`PinnedReader::rows`] needs no such step. A run column asked for
    /// before its values were read is a caller's bug: debug builds panic,
    /// and release builds serve it through the store's cached path, which
    /// reads its whole page.
    pub fn new(store: &'s PagedColumnStore, pinned: &'s PinnedPages) -> Self {
        PinnedReader { store, pinned }
    }

    /// Column `j` from the pin, if it holds it.
    fn pinned(&self, j: usize) -> Option<PinnedColumn<'s>> {
        assert!(
            j < self.store.order,
            "column {j} out of bounds for order {}",
            self.store.order
        );
        let pid = self.store.page_of_column(j);
        self.pinned.column(j, pid, &self.store.col_ptr)
    }

    /// The rows of column `j`, if the pin holds the column, and whether it
    /// holds the column's values too: a whole page's column always does, a
    /// column run's once [`PagedColumnStore::read_run_values`] has read
    /// them (a run whose read failed holds none).
    pub fn rows(&self, j: usize) -> Option<(&'s [u32], bool)> {
        self.pinned(j)
            .map(|column| (column.rows, matches!(column.values, Some(Ok(_)))))
    }
}

impl ColumnStore for PinnedReader<'_> {
    fn order(&self) -> usize {
        self.store.order
    }

    fn nnz(&self) -> usize {
        self.store.nnz
    }

    fn with_column<R>(
        &self,
        j: usize,
        f: impl FnOnce(ColumnView<'_>) -> R,
    ) -> Result<R, EffresError> {
        let Some(PinnedColumn { rows, values }) = self.pinned(j) else {
            return self.store.with_column(j, f);
        };
        debug_assert!(
            values.is_some(),
            "column {j} is on a pinned run whose values were never read"
        );
        match values {
            Some(values) => {
                let vals = values.map_err(Clone::clone)?;
                Ok(f(ColumnView::from_slices(self.store.order, rows, vals)))
            }
            None => self.store.with_column(j, f),
        }
    }
}

impl ColumnStore for PagedColumnStore {
    fn order(&self) -> usize {
        self.order
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn with_column<R>(
        &self,
        j: usize,
        f: impl FnOnce(ColumnView<'_>) -> R,
    ) -> Result<R, EffresError> {
        assert!(
            j < self.order,
            "column {j} out of bounds for order {}",
            self.order
        );
        let page = self.page_for(j)?;
        let lo = (self.col_ptr[j] - page.base) as usize;
        let hi = (self.col_ptr[j + 1] - page.base) as usize;
        Ok(f(ColumnView::from_slices(
            self.order,
            &page.rows[lo..hi],
            &page.vals[lo..hi],
        )))
    }
}

/// Everything a query service needs from a v3 or v4 snapshot, opened for paged
/// serving: the out-of-core column [`store`](PagedSnapshot::store), which
/// also holds the persisted norm table, plus the resident metadata
/// (permutation, build statistics, dataset labels) the header carries.
#[derive(Debug)]
pub struct PagedSnapshot {
    /// The disk-backed column store.
    pub store: PagedColumnStore,
    /// Fill-reducing permutation (original node id → column of `Z̃`).
    pub permutation: Permutation,
    /// Build statistics recorded by the estimator that wrote the snapshot.
    pub stats: EstimatorStats,
    /// Pruning threshold the inverse was built with.
    pub epsilon: f64,
    /// Original dataset ids of the dense nodes, if the snapshot was written
    /// from an ingested dataset.
    pub labels: Option<Vec<u64>>,
    /// On-disk format version of the file (3 or 4; only 4 carries a
    /// skeleton).
    pub version: u32,
}

impl PagedSnapshot {
    /// Number of nodes served.
    pub fn node_count(&self) -> usize {
        self.stats.node_count
    }
}

/// Opens a v3 or v4 snapshot for paged serving: reads and validates the
/// header, the permutation, the full `col_ptr` block, the row codec (with
/// its byte-offset table), the persisted norms block, a v4 file's skeleton
/// offset table and the labels — never the rows/vals blocks or the
/// skeleton records, which stay on disk until batches read them.
///
/// Cold-start cost is proportional to the *node* count, not the nonzero
/// count: on large graphs the rows/vals blocks dominate the file and are
/// exactly what this skips.
///
/// # Errors
///
/// Returns [`IoError::Format`] for files that are not v3 or v4 snapshots
/// (v1 and v2 files name the re-encode command), have a non-monotone or
/// out-of-span `col_ptr`/`row_off`/skeleton offset table, or whose length
/// disagrees with the layout the header implies (truncation is caught here,
/// before serving); [`IoError::Io`] on read failure.
pub fn open_paged(
    path: impl AsRef<Path>,
    options: &PagedOptions,
) -> Result<PagedSnapshot, IoError> {
    open_paged_impl(path, options, None)
}

/// [`open_paged`] with a deterministic [`FaultPlan`] installed behind the
/// store's positioned-read seam (see [`crate::fault`]): every page and
/// readahead read consults the plan, so chaos tests exercise the real
/// retry/re-fetch/degrade machinery against seeded, reproducible faults.
/// Open-time reads (header, `col_ptr`, norms, labels) are *not* injected —
/// the plan models faults while serving, not a file that was never valid.
///
/// # Errors
///
/// As [`open_paged`].
pub fn open_paged_with_faults(
    path: impl AsRef<Path>,
    options: &PagedOptions,
    plan: FaultPlan,
) -> Result<PagedSnapshot, IoError> {
    open_paged_impl(path, options, Some(plan))
}

fn open_paged_impl(
    path: impl AsRef<Path>,
    options: &PagedOptions,
    faults: Option<FaultPlan>,
) -> Result<PagedSnapshot, IoError> {
    if options.columns_per_page == 0 {
        return Err(IoError::Format(
            "columns_per_page must be at least 1".into(),
        ));
    }
    let file = File::open(path)?;
    let mut reader = BufReader::new(&file);
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|_| IoError::Format("truncated snapshot (no magic)".into()))?;
    if &magic != MAGIC {
        return Err(IoError::Format("not an effres snapshot (bad magic)".into()));
    }
    let mut version = [0u8; 4];
    reader
        .read_exact(&mut version)
        .map_err(|_| IoError::Format("truncated snapshot (no version)".into()))?;
    let version = u32::from_le_bytes(version);
    match version {
        VERSION_V3 | VERSION_V4 => {}
        v @ (VERSION_V1 | VERSION_V2) => {
            return Err(IoError::Format(format!(
                "version {v} snapshots have no norm table and cannot be served paged; \
                 re-encode with `effres-cli build <snapshot> --output <new.snap>`"
            )))
        }
        other => {
            return Err(IoError::Format(format!(
                "unsupported snapshot version {other} \
                 (paged serving reads {VERSION_V3} and {VERSION_V4})"
            )))
        }
    }

    // The payload crc32 covers the whole file; the opener reads only the
    // header blocks, so it never gets to compare one and computes none.
    let mut input = CrcReader::without_crc(&mut reader);
    let PayloadHeader {
        n,
        epsilon,
        stats,
        inv_stats: _,
        permutation,
    } = read_payload_header(&mut input)?;
    ensure_u32_indexable(n)?;
    let nnz = input.take_u64()?;
    let col_ptr = read_col_ptr_block(&mut input, n, nnz)?;
    let overflow = || IoError::Format("arena block sizes overflow the file offset space".into());
    // A row codec byte (and, for the varint codec, the encoded byte count
    // plus the per-column byte-offset table) sits between col_ptr and the
    // row block.
    let (codec, row_off, rows_bytes) = match input.take_u8()? {
        ROW_CODEC_RAW => (
            RowCodec::Raw,
            None,
            nnz.checked_mul(4).ok_or_else(overflow)?,
        ),
        ROW_CODEC_VARINT => {
            let rows_bytes = input.take_u64()?;
            let row_off = read_row_off_block(&mut input, &col_ptr, rows_bytes)?;
            (RowCodec::Varint, Some(row_off), rows_bytes)
        }
        other => return Err(IoError::Format(format!("unknown v3 row codec {other}"))),
    };
    // 12 header bytes (magic + version) precede the crc-covered payload.
    let rows_offset = 12 + input.consumed();
    drop(input);
    drop(reader);
    let file = PositionedFile::new(file);

    let vals_bytes = nnz.checked_mul(8).ok_or_else(overflow)?;
    let vals_offset = rows_offset.checked_add(rows_bytes).ok_or_else(overflow)?;
    let after_vals = vals_offset.checked_add(vals_bytes).ok_or_else(overflow)?;
    // The persisted norms block sits between the values and the labels; it
    // is part of the resident cold-start state (∝ nodes, not nonzeros).
    let norms_bytes = (n as u64).checked_mul(8).ok_or_else(overflow)?;
    let after_norms = after_vals.checked_add(norms_bytes).ok_or_else(overflow)?;
    // A v4 file's skeleton block sits between the norms and the labels:
    // its offset table stays resident, its records on disk.
    let (skeleton, labels_offset) = if version == VERSION_V4 {
        let index = read_skeleton_index(&file, after_norms, n)?;
        let labels_offset = after_norms
            .checked_add(index.block_bytes)
            .ok_or_else(overflow)?;
        (Some(index), labels_offset)
    } else {
        (None, after_norms)
    };
    let mut bytes = vec![0u8; norms_bytes as usize];
    file.read_exact_at(&mut bytes, after_vals)
        .map_err(|_| IoError::Format("truncated snapshot (norms block out of range)".into()))?;
    let norms: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect();
    if !norms.iter().all(|v| v.is_finite() && *v >= 0.0) {
        return Err(IoError::Format(
            "non-finite or negative entry in the norms block".into(),
        ));
    }

    let truncated =
        |_| IoError::Format("truncated snapshot (labels block out of range)".to_string());
    let mut flag = [0u8; 1];
    file.read_exact_at(&mut flag, labels_offset)
        .map_err(truncated)?;
    let labels = match flag[0] {
        0 => None,
        1 => {
            let mut bytes = vec![0u8; n * 8];
            file.read_exact_at(&mut bytes, labels_offset + 1)
                .map_err(truncated)?;
            Some(
                bytes
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                    .collect::<Vec<u64>>(),
            )
        }
        other => return Err(IoError::Format(format!("invalid labels flag {other}"))),
    };
    // The file must end exactly where the layout says it does (labels, then
    // the 4-byte crc trailer): a truncated or padded rows/vals region is
    // rejected here, before a query can page it in.
    let expected_len = labels_offset
        .checked_add(1 + if labels.is_some() { n as u64 * 8 } else { 0 } + 4)
        .ok_or_else(overflow)?;
    let actual_len = file.metadata()?.len();
    if actual_len != expected_len {
        return Err(IoError::Format(format!(
            "snapshot is {actual_len} bytes but the layout implies {expected_len}: \
             truncated or trailing garbage"
        )));
    }

    let cache = PageLru::new(options.cache_pages, options.cache_shards);
    let buffers = Arc::new(BufferPool::new(cache.capacity()));
    let store = PagedColumnStore {
        file,
        order: n,
        nnz: nnz as usize,
        col_ptr,
        codec,
        row_off,
        norms: Arc::new(norms),
        rows_offset,
        vals_offset,
        skeleton,
        columns_per_page: options.columns_per_page,
        cache,
        retry: options.retry,
        faults: faults.filter(|plan| !plan.is_empty()),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        bytes_read: AtomicU64::new(0),
        readahead_reads: AtomicU64::new(0),
        column_runs: AtomicU64::new(0),
        value_reads: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        faulted_reads: AtomicU64::new(0),
        skeleton_reads: AtomicU64::new(0),
        pages_scrubbed: AtomicU64::new(0),
        scrub_failures: AtomicU64::new(0),
        quarantined: AtomicU64::new(0),
        skeleton_groups_distrusted: AtomicU64::new(0),
        pin_counters: Arc::new(PinCounters::default()),
        buffers,
    };
    Ok(PagedSnapshot {
        store,
        permutation,
        stats,
        epsilon,
        labels,
        version,
    })
}

/// Reads the index of the v4 skeleton block starting at `offset`: its
/// records' byte count and its checked offset table
/// ([`read_skeleton_offsets`]), which locates the records of every group.
fn read_skeleton_index(
    file: &PositionedFile,
    offset: u64,
    n: usize,
) -> Result<SkeletonIndex, IoError> {
    let truncated = |_| IoError::Format("truncated snapshot (skeleton block out of range)".into());
    let overflow = || IoError::Format("skeleton block overflows the file offset space".into());
    let mut length = [0u8; 8];
    file.read_exact_at(&mut length, offset).map_err(truncated)?;
    let records_bytes = u64::from_le_bytes(length);
    let records_offset = offset.checked_add(8).ok_or_else(overflow)?;
    let table_offset = records_offset
        .checked_add(records_bytes)
        .ok_or_else(overflow)?;
    let groups = n.div_ceil(SKELETON_GROUP);
    let mut table = vec![0u8; (groups + 1) * 8];
    file.read_exact_at(&mut table, table_offset)
        .map_err(truncated)?;
    let group_off = read_skeleton_offsets(
        &mut CrcReader::without_crc(&mut table.as_slice()),
        n,
        records_bytes,
    )?;
    Ok(SkeletonIndex {
        records_offset,
        group_off,
        shift: skeleton::bucket_shift(n),
        distrusted: (0..groups.div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect(),
        block_bytes: (table_offset - offset) + table.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{load_snapshot, write_snapshot};
    use effres::{EffectiveResistanceEstimator, EffresConfig};
    use effres_graph::generators;

    fn sample_estimator() -> EffectiveResistanceEstimator {
        let graph = generators::grid_2d(10, 10, 0.5, 2.0, 3).expect("generator");
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build")
    }

    fn temp_snapshot(name: &str, estimator: &EffectiveResistanceEstimator) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("effres-paged-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        let file = std::fs::File::create(&path).expect("create");
        let mut writer = std::io::BufWriter::new(file);
        write_snapshot(&mut writer, estimator, None).expect("write");
        use std::io::Write as _;
        writer.flush().expect("flush");
        path
    }

    #[test]
    fn paged_columns_match_the_resident_arena_bitwise() {
        let estimator = sample_estimator();
        let path = temp_snapshot("grid10.snap", &estimator);
        for options in [
            PagedOptions::default(),
            PagedOptions {
                columns_per_page: 1,
                cache_pages: 1,
                cache_shards: 1,
                ..PagedOptions::default()
            },
            PagedOptions {
                columns_per_page: 7,
                cache_pages: 3,
                cache_shards: 2,
                ..PagedOptions::default()
            },
        ] {
            let paged = open_paged(&path, &options).expect("open");
            let inverse = estimator.approximate_inverse();
            assert_eq!(ColumnStore::order(&paged.store), inverse.order());
            assert_eq!(ColumnStore::nnz(&paged.store), inverse.nnz());
            for j in 0..inverse.order() {
                let (rows, vals) = paged
                    .store
                    .with_column(j, |c| (c.indices().to_vec(), c.values().to_vec()))
                    .expect("fetch");
                assert_eq!(rows.as_slice(), inverse.column(j).indices(), "col {j}");
                let same = vals
                    .iter()
                    .zip(inverse.column(j).values())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "col {j} values differ");
                assert_eq!(
                    paged.store.norms()[j].to_bits(),
                    inverse.column(j).norm2_squared().to_bits(),
                    "col {j} norm"
                );
            }
        }
    }

    #[test]
    fn open_reports_header_metadata_without_touching_column_blocks() {
        let estimator = sample_estimator();
        let path = temp_snapshot("grid10_meta.snap", &estimator);
        let paged = open_paged(&path, &PagedOptions::default()).expect("open");
        assert_eq!(paged.node_count(), estimator.node_count());
        assert_eq!(paged.stats, estimator.stats());
        assert_eq!(paged.epsilon, estimator.approximate_inverse().epsilon());
        assert_eq!(
            paged.permutation.new_to_old(),
            estimator.permutation().new_to_old()
        );
        assert!(paged.labels.is_none());
        // Nothing decoded yet.
        let s = paged.store.page_cache_stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        assert!(paged.store.resident_bytes() < paged.store.footprint().total_bytes());
    }

    #[test]
    fn one_page_cache_churns_but_stays_correct() {
        let estimator = sample_estimator();
        let path = temp_snapshot("grid10_churn.snap", &estimator);
        let options = PagedOptions {
            columns_per_page: 4,
            cache_pages: 1,
            cache_shards: 1,
            ..PagedOptions::default()
        };
        let paged = open_paged(&path, &options).expect("open");
        assert_eq!(paged.store.cache_capacity_pages(), 1);
        let inverse = estimator.approximate_inverse();
        // Two full sweeps over the column data: the second sweep misses
        // again because each page evicts the previous one.
        for _ in 0..2 {
            for j in 0..inverse.order() {
                assert_eq!(
                    paged
                        .store
                        .with_column(j, |c| c.norm2_squared())
                        .expect("fetch")
                        .to_bits(),
                    inverse.column(j).norm2_squared().to_bits()
                );
            }
        }
        let s = paged.store.page_cache_stats();
        assert_eq!(s.misses as usize, 2 * paged.store.page_count());
        // Within a page, consecutive columns hit.
        assert!(s.hits > 0);
        // Every eviction parked its buffers for the next decode to reuse:
        // a churning cache recycles instead of hammering the allocator. One
        // page is still resident and one spare set cycles through the pool.
        assert_eq!(paged.store.spare_page_buffers(), 1);
    }

    #[test]
    fn v2_snapshots_are_rejected_with_a_reencode_hint() {
        let estimator = sample_estimator();
        let dir = std::env::temp_dir().join("effres-paged-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("grid10_v2.snap");
        let file = std::fs::File::create(&path).expect("create");
        let mut writer = std::io::BufWriter::new(file);
        crate::snapshot::write_snapshot_v2(&mut writer, &estimator, None).expect("write v2");
        use std::io::Write as _;
        writer.flush().expect("flush");
        let err = open_paged(&path, &PagedOptions::default()).expect_err("v2 must be rejected");
        assert!(err.to_string().contains("version 2"), "{err}");
        assert!(err.to_string().contains("effres-cli build"), "{err}");
        // The resident loader still reads it fine.
        assert!(load_snapshot(&path).is_ok());
    }

    #[test]
    fn v3_opens_with_resident_norms_and_the_negotiated_codec() {
        let estimator = sample_estimator();
        let path = temp_snapshot("grid10_v3.snap", &estimator);
        let paged = open_paged(&path, &PagedOptions::default()).expect("open");
        // The 100-node grid compresses: varint wins the negotiation.
        assert_eq!(paged.store.row_codec(), RowCodec::Varint);
        let norms = paged.store.norms();
        let inverse = estimator.approximate_inverse();
        let recomputed = inverse.column_norms_squared();
        assert_eq!(norms.len(), recomputed.len());
        assert!(norms
            .iter()
            .zip(&recomputed)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // The varint footprint reports the encoded (smaller) row block.
        assert!(paged.store.footprint().rows_bytes < inverse.nnz() * 4);
        // Norms were served without touching a single page.
        let s = paged.store.page_cache_stats();
        assert_eq!((s.hits, s.misses, s.bytes_read), (0, 0, 0));
    }

    #[test]
    fn pinned_pages_serve_bit_identical_columns_via_coalesced_reads() {
        let estimator = sample_estimator();
        let path = temp_snapshot("grid10_pin.snap", &estimator);
        let options = PagedOptions {
            columns_per_page: 8,
            cache_pages: 2,
            cache_shards: 1,
            ..PagedOptions::default()
        };
        let paged = open_paged(&path, &options).expect("open");
        let inverse = estimator.approximate_inverse();
        let pages = paged.store.page_count();
        assert!(pages > 4, "want several pages, got {pages}");

        // Pin an adjacent run plus an isolated page: the run coalesces into
        // one (rows, vals) read pair, the isolated page into another.
        let pinned = paged
            .store
            .pin_pages(&[0, 1, 2, pages - 1], None)
            .expect("pin");
        assert_eq!(pinned.len(), 4);
        let pinning = paged.store.page_cache_stats();
        assert_eq!(pinning.misses, 4);
        assert_eq!(
            pinning.readahead_reads, 4,
            "two coalesced runs x (rows + vals)"
        );
        assert!(pinning.bytes_read > 0);

        // Pinned columns serve without the cache; unpinned ones fall back.
        let reader = PinnedReader::new(&paged.store, &pinned);
        for j in 0..inverse.order() {
            let (rows, vals) = reader
                .with_column(j, |c| (c.indices().to_vec(), c.values().to_vec()))
                .expect("fetch");
            assert_eq!(rows.as_slice(), inverse.column(j).indices(), "col {j}");
            assert!(vals
                .iter()
                .zip(inverse.column(j).values())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(
                paged.store.norms()[j].to_bits(),
                inverse.column(j).norm2_squared().to_bits()
            );
        }
        // Pinned columns are served off the pin (no lock traffic); the
        // unpinned middle pages fall back to the cache path and miss.
        let s = paged.store.page_cache_stats().since(pinning);
        assert!(s.misses > 0);
    }

    #[test]
    fn v1_snapshots_are_rejected_with_a_reencode_hint() {
        let estimator = sample_estimator();
        let dir = std::env::temp_dir().join("effres-paged-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("grid10_v1.snap");
        let file = std::fs::File::create(&path).expect("create");
        let mut writer = std::io::BufWriter::new(file);
        crate::snapshot::write_snapshot_v1(&mut writer, &estimator, None).expect("write v1");
        use std::io::Write as _;
        writer.flush().expect("flush");
        let err = open_paged(&path, &PagedOptions::default()).expect_err("v1 must be rejected");
        assert!(err.to_string().contains("version 1"), "{err}");
        // The resident loader still reads it fine.
        assert!(load_snapshot(&path).is_ok());
    }

    #[test]
    fn truncated_files_are_rejected_at_open() {
        let estimator = sample_estimator();
        let path = temp_snapshot("grid10_trunc.snap", &estimator);
        let bytes = std::fs::read(&path).expect("read");
        let cut = bytes.len() - 9; // into the value block + crc
        std::fs::write(&path, &bytes[..cut]).expect("rewrite");
        assert!(matches!(
            open_paged(&path, &PagedOptions::default()),
            Err(IoError::Format(_))
        ));
    }
}
