//! The `ColumnStore` abstraction: where the columns of `Z̃` live.
//!
//! The paper's query kernel needs exactly one capability from its data
//! structure — *give me column `j` of the approximate inverse as sorted
//! parallel `u32`/`f64` slices* — yet until this module existed the kernels
//! were welded to the in-memory flat CSC arena of
//! [`SparseApproximateInverse`]. [`ColumnStore`] is that capability as a
//! trait, and the effective-resistance kernels ([`column_dot`],
//! [`column_norms_squared`], [`column_distance_squared`],
//! [`column_distance_squared_with_norms`]) are generic over it, so the same
//! code serves:
//!
//! * the **resident** backend — [`SparseApproximateInverse`]'s arena, where a
//!   column is two slice borrows and access can never fail; and
//! * **out-of-core** backends — `effres_io::PagedColumnStore` decodes
//!   columns on demand from a v3 snapshot file behind a page cache (column
//!   norms come from the file's persisted norm table), where a fetch can
//!   fail (I/O error, corruption discovered while decoding a page) and
//!   borrowed access must be scoped to a closure because the page a view
//!   points into is owned by the cache, not the caller.
//!
//! Those two constraints shape the trait: column access is
//! [`ColumnStore::with_column`] — *call this closure with a borrowed
//! [`ColumnView`]* — and it returns a `Result` so disk-backed stores can
//! surface a typed [`EffresError::StoreFailure`] instead of panicking the
//! serving thread. For the in-memory store the closure compiles down to the
//! direct slice access it always was.
//!
//! Most random pairs need no stored value at all: `⟨z̃_p, z̃_q⟩` sums over
//! the rows the two suffixes share, and on large sparse graphs most pairs
//! share none, so the norm table answers them alone. The trait's one
//! provided method, [`ColumnStore::with_rows_first`], lends a column's rows
//! at once and its values on request ([`RowsFirst`]); the two-column dot
//! walks the rows first and asks for values only where the suffixes meet,
//! so a store that can produce rows for less than rows and values — a paged
//! pin that reads a run's values on first use — reads no value a pair's
//! answer does not use.

use crate::approx_inverse::{ColumnView, SparseApproximateInverse};
use crate::error::EffresError;
use effres_sparse::vecops;

/// A source of the columns of the approximate inverse `Z̃`.
///
/// Implementations must present each column `j` as strictly increasing `u32`
/// indices with parallel `f64` values, supported on `j..order()` (the
/// lower-triangular invariant the suffix-restricted kernels rely on — see
/// [`column_dot`]). Columns must be stable: two fetches of the same column
/// observe the same bits, so every kernel is deterministic regardless of
/// caching or paging underneath.
///
/// Access is scoped: [`ColumnStore::with_column`] lends the view to a
/// closure instead of returning it, so backends whose column storage is
/// transient (a cache page, a decode buffer) can hand out borrows without
/// copying. Fetches are fallible for the same reason — an out-of-core
/// backend can hit I/O errors or detect corruption lazily; in-memory
/// backends simply never return `Err`.
pub trait ColumnStore {
    /// Number of columns (the order of the factor).
    fn order(&self) -> usize;

    /// Total number of stored nonzeros across all columns.
    fn nnz(&self) -> usize;

    /// Calls `f` with a borrowed view of column `j` and returns its result.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::StoreFailure`] when the backend cannot produce
    /// the column (I/O failure, page-validation failure). In-memory stores
    /// are infallible.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.order()` — like slice indexing, an out-of-bounds
    /// column is a caller bug, not a store failure.
    fn with_column<R>(
        &self,
        j: usize,
        f: impl FnOnce(ColumnView<'_>) -> R,
    ) -> Result<R, EffresError>;

    /// Calls `f` with column `j` lent rows first: its rows at once, its
    /// values on request ([`RowsFirst::values`]). A store that can produce
    /// a column's rows for less than its rows and values overrides this;
    /// the default lends [`ColumnStore::with_column`]'s view, so it is the
    /// same one access.
    ///
    /// # Errors
    ///
    /// As [`ColumnStore::with_column`]. A store that defers the values
    /// reports a failure to produce them from [`RowsFirst::values`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.order()`.
    fn with_rows_first<R>(
        &self,
        j: usize,
        f: impl FnOnce(RowsFirst<'_>) -> R,
    ) -> Result<R, EffresError> {
        self.with_column(j, |column| f(RowsFirst::lent(column)))
    }
}

/// A column lent rows first (see [`ColumnStore::with_rows_first`]): its row
/// indices at once, and its values when [`RowsFirst::values`] asks for them.
#[derive(Clone, Copy)]
pub struct RowsFirst<'a> {
    rows: &'a [u32],
    values: Values<'a>,
}

/// Where a [`RowsFirst`] column's values come from.
#[derive(Clone, Copy)]
enum Values<'a> {
    /// Lent with the rows.
    Lent(&'a [f64]),
    /// Produced by the store on request.
    Deferred(&'a dyn Fn() -> Result<&'a [f64], EffresError>),
}

impl<'a> RowsFirst<'a> {
    /// A column whose values are lent with its rows.
    pub fn lent(column: ColumnView<'a>) -> Self {
        RowsFirst {
            rows: column.indices(),
            values: Values::Lent(column.values()),
        }
    }

    /// A column whose values `values` produces on request: exactly one per
    /// row of `rows`, or the store's failure to produce them.
    pub fn deferred(
        rows: &'a [u32],
        values: &'a dyn Fn() -> Result<&'a [f64], EffresError>,
    ) -> Self {
        RowsFirst {
            rows,
            values: Values::Deferred(values),
        }
    }

    /// The column's row indices, strictly increasing.
    pub fn rows(&self) -> &'a [u32] {
        self.rows
    }

    /// The column's values, parallel to [`RowsFirst::rows`].
    ///
    /// # Errors
    ///
    /// Returns the store's [`EffresError::StoreFailure`] when it cannot
    /// produce the values.
    ///
    /// # Panics
    ///
    /// Panics if the store produced a different number of values than rows.
    pub fn values(&self) -> Result<&'a [f64], EffresError> {
        let values = match self.values {
            Values::Lent(values) => values,
            Values::Deferred(read) => read()?,
        };
        assert_eq!(
            values.len(),
            self.rows.len(),
            "a column's values must be parallel to its rows"
        );
        Ok(values)
    }

    /// Bytes per stored entry: a `u32` row index plus an `f64` value.
    pub fn entry_bytes(&self) -> usize {
        std::mem::size_of::<u32>() + std::mem::size_of::<f64>()
    }
}

impl std::fmt::Debug for RowsFirst<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowsFirst")
            .field("rows", &self.rows)
            .finish_non_exhaustive()
    }
}

impl ColumnStore for SparseApproximateInverse {
    fn order(&self) -> usize {
        SparseApproximateInverse::order(self)
    }

    fn nnz(&self) -> usize {
        SparseApproximateInverse::nnz(self)
    }

    fn with_column<R>(
        &self,
        j: usize,
        f: impl FnOnce(ColumnView<'_>) -> R,
    ) -> Result<R, EffresError> {
        Ok(f(self.column(j)))
    }
}

/// Stores behind shared references are stores (lets kernels and engines take
/// `&S` or smart pointers interchangeably).
impl<S: ColumnStore + ?Sized> ColumnStore for &S {
    fn order(&self) -> usize {
        (**self).order()
    }

    fn nnz(&self) -> usize {
        (**self).nnz()
    }

    fn with_column<R>(
        &self,
        j: usize,
        f: impl FnOnce(ColumnView<'_>) -> R,
    ) -> Result<R, EffresError> {
        (**self).with_column(j, f)
    }

    fn with_rows_first<R>(
        &self,
        j: usize,
        f: impl FnOnce(RowsFirst<'_>) -> R,
    ) -> Result<R, EffresError> {
        (**self).with_rows_first(j, f)
    }
}

/// Inner product `⟨z̃_p, z̃_q⟩` of two columns of a store.
///
/// Columns of the inverse of a lower-triangular factor are themselves
/// lower-triangular — column `j` is supported on indices `≥ j` — so the
/// intersection of columns `p` and `q` lies entirely in `max(p, q)..n`. The
/// merge therefore starts at that bound (found by binary search), which
/// skips most of the longer column and is what makes the norm-table query
/// kernel of [`column_distance_squared_with_norms`] cheaper than the full
/// union merge of [`column_distance_squared`].
///
/// The rows come first ([`ColumnStore::with_rows_first`]): values are asked
/// for only when the two suffixes share a row, so a pair whose suffixes
/// share none reads no value and gets the `+0.0` dot.
///
/// # Errors
///
/// Propagates the store's fetch errors (see [`ColumnStore::with_column`]
/// and [`RowsFirst::values`]).
///
/// # Panics
///
/// Panics if either index is out of bounds.
pub fn column_dot<S: ColumnStore + ?Sized>(
    store: &S,
    p: usize,
    q: usize,
) -> Result<f64, EffresError> {
    suffix_merge(store, p, q).map(|(dot, _)| dot)
}

/// Where the entries of column `j` at rows `bound..` start in its `rows`.
/// Column `j` is supported on `j..` (the lower-triangular invariant of
/// [`ColumnStore`]), so when `j` is the bound its suffix is the whole
/// column and no search runs; otherwise one binary search finds the start.
fn suffix_start(rows: &[u32], j: usize, bound: u32) -> usize {
    if j as u32 >= bound {
        0
    } else {
        rows.partition_point(|&row| row < bound)
    }
}

/// Entries of column `j` at rows `bound..`, as parallel slices (see
/// [`suffix_start`]).
fn suffix(column: ColumnView<'_>, j: usize, bound: u32) -> (&[u32], &[f64]) {
    let start = suffix_start(column.indices(), j, bound);
    (&column.indices()[start..], &column.values()[start..])
}

/// The suffix-restricted intersection of columns `p` and `q` over rows
/// `max(p, q)..`: the shared sparse dot product of `vecops`, and its
/// [`KernelStats::bytes_streamed`] count. One rows-first access per column;
/// only the smaller index's column is searched for its suffix start. The
/// dot's index walk ([`vecops::sparse_meet`]) runs over the rows alone, and
/// both columns' values are asked for only when it finds a shared row.
///
/// A random pair's columns are cold, and reading them is a chain of cache
/// misses: the suffix search probes one line after another, then the dot
/// walks both suffixes a line at a time. So the rows of both columns are
/// touched first (see [`touch_lines`]): their misses are in flight
/// together before the search and the dot read them.
fn suffix_merge<S: ColumnStore + ?Sized>(
    store: &S,
    p: usize,
    q: usize,
) -> Result<(f64, usize), EffresError> {
    let bound = p.max(q) as u32;
    let merge = |a: RowsFirst<'_>, b: RowsFirst<'_>| {
        std::hint::black_box(touch_lines(a.rows()) ^ touch_lines(b.rows()));
        let (a_from, b_from) = (
            suffix_start(a.rows(), p, bound),
            suffix_start(b.rows(), q, bound),
        );
        let (ai, bi) = (&a.rows()[a_from..], &b.rows()[b_from..]);
        let dot = match vecops::sparse_meet(ai, bi) {
            Some(at) => {
                let (av, bv) = (&a.values()?[a_from..], &b.values()?[b_from..]);
                vecops::sparse_dot_from(ai, av, bi, bv, at)
            }
            None => 0.0,
        };
        Ok::<_, EffresError>((dot, ai.len() * a.entry_bytes() + bi.len() * b.entry_bytes()))
    };
    store.with_rows_first(p, |a| store.with_rows_first(q, |b| merge(a, b)))??
}

/// Row indices per 64-byte cache line.
const ROWS_PER_LINE: usize = 64 / std::mem::size_of::<u32>();

/// Most cache lines [`touch_lines`] loads per column: 1 KiB of rows. On the
/// minimum-degree-ordered benchmark grid a random pair's columns hold about
/// 160 rows (under 256 for 99% of pairs), so they are touched whole. A
/// longer column gets only its head touched: the hardware prefetcher
/// streams the rest, and a longer pre-pass only delays the dot behind it
/// (touching whole RCM-ordered columns of the same grid, about 1,450 rows,
/// made random pairs 10–20% slower than no touch at all).
const TOUCH_LINES: usize = 16;

/// Loads one row index from every 64-byte line of the first
/// [`TOUCH_LINES`] lines of `rows` and folds them into one value, so no
/// load is optimized away. The loads do not depend on each other, so their
/// misses overlap instead of queueing one behind another.
fn touch_lines(rows: &[u32]) -> u32 {
    let head = &rows[..rows.len().min(TOUCH_LINES * ROWS_PER_LINE)];
    let last = head.last().copied().unwrap_or(0);
    (head.iter().step_by(ROWS_PER_LINE)).fold(last, |acc, &row| acc ^ row)
}

/// Adds `dense[row] · v` over one column's entries to `sum`, in entry
/// order.
fn add_dense_products(sum: f64, dense: &[f64], (rows, values): (&[u32], &[f64])) -> f64 {
    rows.iter()
        .zip(values)
        .fold(sum, |sum, (&row, v)| sum + dense[row as usize] * v)
}

/// `Σ dense[row] · v` over one column's entries, in entry order. The sum
/// starts from `-0.0`, the exact additive identity (`-0.0 + x` is `x` for
/// every `x`), which is also where `Iterator::sum` starts.
fn dense_dot(dense: &[f64], entries: (&[u32], &[f64])) -> f64 {
    add_dense_products(-0.0, dense, entries)
}

/// Two [`dense_dot`]s in one pass: the loop steps both entry streams
/// together, keeping two independent accumulations in flight instead of one
/// chain of dependent adds, then finishes the longer stream alone. Each
/// lane still sums its own entries in entry order from `-0.0`, so each is
/// bit-identical to its one-lane `dense_dot`.
fn dense_dots_two(
    dense: &[f64],
    (a_rows, a_values): (&[u32], &[f64]),
    (b_rows, b_values): (&[u32], &[f64]),
) -> (f64, f64) {
    let common = a_rows.len().min(b_rows.len());
    let (mut sum_a, mut sum_b) = (-0.0, -0.0);
    let lane_a = a_rows[..common].iter().zip(&a_values[..common]);
    let lane_b = b_rows[..common].iter().zip(&b_values[..common]);
    for ((&row_a, va), (&row_b, vb)) in lane_a.zip(lane_b) {
        sum_a += dense[row_a as usize] * va;
        sum_b += dense[row_b as usize] * vb;
    }
    (
        add_dense_products(sum_a, dense, (&a_rows[common..], &a_values[common..])),
        add_dense_products(sum_b, dense, (&b_rows[common..], &b_values[common..])),
    )
}

/// Squared Euclidean distance between two columns — the effective-resistance
/// kernel `‖z̃_p − z̃_q‖²` of Eq. (22), as a full union merge (no norm table
/// needed).
///
/// # Errors
///
/// Propagates the store's fetch errors.
///
/// # Panics
///
/// Panics if either index is out of bounds.
pub fn column_distance_squared<S: ColumnStore + ?Sized>(
    store: &S,
    p: usize,
    q: usize,
) -> Result<f64, EffresError> {
    store.with_column(p, |a| {
        store.with_column(q, |b| {
            vecops::sparse_distance_squared(a.indices(), a.values(), b.indices(), b.values())
        })
    })?
}

/// The effective-resistance kernel evaluated with precomputed column norms
/// (see [`column_norms_squared`]): one suffix-restricted sparse dot product
/// instead of a full two-column merge.
///
/// # Errors
///
/// Propagates the store's fetch errors.
///
/// # Panics
///
/// Panics if either index is out of bounds or `norms_squared` is shorter
/// than the store's order.
pub fn column_distance_squared_with_norms<S: ColumnStore + ?Sized>(
    store: &S,
    p: usize,
    q: usize,
    norms_squared: &[f64],
) -> Result<f64, EffresError> {
    let dot = column_dot(store, p, q)?;
    // Clamp: cancellation can produce a tiny negative value when the columns
    // are nearly identical, and resistances are nonnegative.
    Ok((norms_squared[p] + norms_squared[q] - 2.0 * dot).max(0.0))
}

/// Batched form of the effective-resistance kernel: answers every (permuted)
/// pair of `pairs` in order, using the norm table when one is provided and
/// summing each fetched column otherwise (the table holds the same sums, so
/// the bits agree).
///
/// This is the store-generic entry point batch schedulers build on: callers
/// that reorder queries for locality (the `effres-service` paged scheduler)
/// evaluate each pair through exactly this arithmetic, so any evaluation
/// order produces the same bits as this in-order reference.
///
/// # Errors
///
/// Propagates the store's fetch errors; on error some prefix of the batch
/// may have been evaluated but nothing is returned.
///
/// # Panics
///
/// Panics if any index is out of bounds or `norms_squared` is `Some` but
/// shorter than the store's order.
pub fn column_distances_squared_batch<S: ColumnStore + ?Sized>(
    store: &S,
    pairs: &[(usize, usize)],
    norms_squared: Option<&[f64]>,
) -> Result<Vec<f64>, EffresError> {
    pairs
        .iter()
        .map(|&(p, q)| {
            if p == q {
                return Ok(0.0);
            }
            let dot = column_dot(store, p, q)?;
            let (np, nq) = match norms_squared {
                Some(table) => (table[p], table[q]),
                None => (fetched_norm(store, p)?, fetched_norm(store, q)?),
            };
            // Same clamp as the scalar kernel: cancellation can dip below 0.
            Ok((np + nq - 2.0 * dot).max(0.0))
        })
        .collect()
}

/// Work counters of the multi-pair kernels — the observability half of
/// the batched path: `bytes_streamed / pairs()` is the per-query work
/// figure (12 bytes per column entry walked) the hub kernels exist to
/// shrink, and `hub_pairs / hub_loads` is how many pairs each hub-column
/// load was amortized over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Hub columns scattered into a dense scratch (each streams the hub's
    /// rows/vals exactly once, however many pairs follow).
    pub hub_loads: u64,
    /// Pairs answered against a resident hub (only the partner's suffix is
    /// streamed).
    pub hub_pairs: u64,
    /// Pairs answered by the two-column suffix intersection (no neighbour
    /// shared a hub, so batching had nothing to amortize).
    pub isolated_pairs: u64,
    /// A work count, not a byte count: 12 (a 4-byte row index plus an
    /// 8-byte value) per suffix entry the kernels walked. The hub paths
    /// read every value they count; the two-column intersection reads
    /// values only from the first block of rows the suffixes share (about 2
    /// of 290 entries for a random pair of the benchmark grid, none at all
    /// for most), while its suffix search and touch pass load rows below
    /// the bound that are not counted. Norm-table lookups are not counted
    /// either.
    pub bytes_streamed: u64,
}

impl KernelStats {
    /// Total pairs answered.
    pub fn pairs(&self) -> u64 {
        self.hub_pairs + self.isolated_pairs
    }

    /// Mean pairs amortized over each hub-column load (`0` when no hub was
    /// ever loaded).
    pub fn pairs_per_hub_load(&self) -> f64 {
        if self.hub_loads == 0 {
            0.0
        } else {
            self.hub_pairs as f64 / self.hub_loads as f64
        }
    }

    /// Accumulates `other` into `self` (for summing per-worker or
    /// per-window counters into a batch total).
    pub fn merge(&mut self, other: KernelStats) {
        self.hub_loads += other.hub_loads;
        self.hub_pairs += other.hub_pairs;
        self.isolated_pairs += other.isolated_pairs;
        self.bytes_streamed += other.bytes_streamed;
    }
}

/// Reusable state for the batched multi-pair kernels: one dense scatter of
/// a pinned "hub" column, so every pair sharing that hub streams only its
/// partner's suffix instead of re-merging the hub's rows/vals.
///
/// The scatter trades the two-pointer merge for indexed loads
/// `dense[row] · v` over the partner's entries. Positions the hub does not
/// store hold `0.0`, so the extra terms are exact zeros; with the
/// nonnegative columns of a Laplacian factor (Lemma 1 of the paper, pinned
/// by the build tests) adding them never flips the accumulator's sign bit,
/// making the scatter path **bit-identical** to [`column_dot`]'s merge —
/// the property the grouped kernels are pinned to.
///
/// The scratch is `O(order)` memory and is meant to be pooled and reused
/// across batches; [`HubScratch::load`] is a no-op when the hub is already
/// resident, and the scatter is cleaned eagerly via the recorded indices
/// (not a full `O(order)` wipe). A scratch identifies its resident hub by
/// column index only, so reuse it against a **single store** — pools are
/// per-engine, never shared across backends.
#[derive(Debug, Default)]
pub struct HubScratch {
    dense: Vec<f64>,
    loaded_indices: Vec<u32>,
    hub: Option<usize>,
    /// First row the resident scatter covers: rows `loaded_from..` of the
    /// hub are in `dense`, rows below it were skipped (suffix load).
    loaded_from: u32,
    stats: KernelStats,
}

impl HubScratch {
    /// A scratch ready for stores of `order` columns (it grows on demand,
    /// so `new(0)` is a valid lazy initializer for pools).
    pub fn new(order: usize) -> Self {
        HubScratch {
            dense: vec![0.0; order],
            loaded_indices: Vec::new(),
            hub: None,
            loaded_from: 0,
            stats: KernelStats::default(),
        }
    }

    /// The column currently scattered into the dense buffer, if any.
    pub fn hub(&self) -> Option<usize> {
        self.hub
    }

    /// Counters accumulated since construction or the last
    /// [`HubScratch::take_stats`].
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Returns the accumulated counters and resets them to zero (the
    /// per-batch reporting hook: pool the scratch, drain its counters).
    pub fn take_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }

    /// Scatters column `hub` of `store` into the dense buffer (a no-op if
    /// it is already resident). On error the scratch is left empty, never
    /// holding a stale or partial column.
    ///
    /// # Errors
    ///
    /// Propagates the store's fetch errors.
    ///
    /// # Panics
    ///
    /// Panics if `hub >= store.order()`.
    pub fn load<S: ColumnStore + ?Sized>(
        &mut self,
        store: &S,
        hub: usize,
    ) -> Result<(), EffresError> {
        self.load_suffix(store, hub, 0)
    }

    /// Scatters only rows `from_row..` of column `hub` into the dense
    /// buffer — the part the suffix dots can ever read. A no-op when the
    /// hub is already resident with a covering suffix
    /// (`loaded_from <= from_row`); a resident hub whose suffix starts too
    /// late is re-scattered from the new bound. On error the scratch is
    /// left empty, never holding a stale or partial column.
    ///
    /// This is what makes the hub path pay from the second pair of a run
    /// on: callers sorted by `(min, max)` endpoint see ascending bounds, so
    /// the scatter streams exactly the hub suffix the *first* pairwise
    /// merge would have read, and every later pair in the run skips its hub
    /// suffix stream entirely.
    ///
    /// # Errors
    ///
    /// Propagates the store's fetch errors.
    ///
    /// # Panics
    ///
    /// Panics if `hub >= store.order()`.
    pub fn load_suffix<S: ColumnStore + ?Sized>(
        &mut self,
        store: &S,
        hub: usize,
        from_row: u32,
    ) -> Result<(), EffresError> {
        if self.hub == Some(hub) && self.loaded_from <= from_row {
            return Ok(());
        }
        for &i in &self.loaded_indices {
            self.dense[i as usize] = 0.0;
        }
        self.loaded_indices.clear();
        self.hub = None;
        if self.dense.len() < store.order() {
            self.dense.resize(store.order(), 0.0);
        }
        let dense = &mut self.dense;
        let loaded_indices = &mut self.loaded_indices;
        let bytes = store.with_column(hub, |column| {
            let (rows, values) = suffix(column, hub, from_row);
            // Record the indices before scattering so a store that fails
            // after running the closure still leaves a cleanable scratch.
            loaded_indices.extend_from_slice(rows);
            for (&i, &v) in rows.iter().zip(values) {
                dense[i as usize] = v;
            }
            rows.len() * column.entry_bytes()
        })?;
        self.hub = Some(hub);
        self.loaded_from = from_row;
        self.stats.hub_loads += 1;
        self.stats.bytes_streamed += bytes as u64;
        Ok(())
    }

    /// Inner product of the resident hub column with column `partner`,
    /// restricted (like [`column_dot`]) to the `max(hub, partner)..` suffix
    /// — only the partner's suffix is streamed. If the resident suffix does
    /// not cover this pair's bound (a [`HubScratch::load_suffix`] with a
    /// larger bound), the hub is re-scattered from the needed bound first,
    /// so the answer is always the full suffix dot.
    ///
    /// # Errors
    ///
    /// Propagates the store's fetch errors.
    ///
    /// # Panics
    ///
    /// Panics if no hub is loaded or `partner >= store.order()`.
    pub fn suffix_dot<S: ColumnStore + ?Sized>(
        &mut self,
        store: &S,
        partner: usize,
    ) -> Result<f64, EffresError> {
        let hub = self
            .hub
            .expect("HubScratch::suffix_dot without a loaded hub");
        let bound = hub.max(partner) as u32;
        if self.loaded_from > bound {
            self.hub = None;
            self.load_suffix(store, hub, bound)?;
        }
        let dense = &self.dense;
        let (dot, bytes) = store.with_column(partner, |column| {
            let entries = suffix(column, partner, bound);
            (
                dense_dot(dense, entries),
                entries.0.len() * column.entry_bytes(),
            )
        })?;
        self.stats.hub_pairs += 1;
        self.stats.bytes_streamed += bytes as u64;
        Ok(dot)
    }

    /// [`HubScratch::suffix_dot`] for partners `a` and `b` at once, in one
    /// pass over both partner suffixes with two accumulators (see
    /// [`dense_dots_two`]): the same two dots, bits and counters as two
    /// `suffix_dot` calls. The resident scatter must already cover both
    /// bounds.
    fn suffix_dots_two<S: ColumnStore + ?Sized>(
        &mut self,
        store: &S,
        a: usize,
        b: usize,
    ) -> Result<(f64, f64), EffresError> {
        let hub = self
            .hub
            .expect("HubScratch::suffix_dots_two without a loaded hub");
        let (bound_a, bound_b) = (hub.max(a) as u32, hub.max(b) as u32);
        debug_assert!(self.loaded_from <= bound_a.min(bound_b));
        let dense = &self.dense;
        let (dots, bytes) = store.with_column(a, |column_a| {
            store.with_column(b, |column_b| {
                let entries_a = suffix(column_a, a, bound_a);
                let entries_b = suffix(column_b, b, bound_b);
                (
                    dense_dots_two(dense, entries_a, entries_b),
                    entries_a.0.len() * column_a.entry_bytes()
                        + entries_b.0.len() * column_b.entry_bytes(),
                )
            })
        })??;
        self.stats.hub_pairs += 2;
        self.stats.bytes_streamed += bytes as u64;
        Ok(dots)
    }

    /// The two-column suffix intersection of [`column_dot`], counted as an
    /// isolated pair (the grouped kernels fall back to this when no
    /// neighbouring pair shares a hub, leaving any resident hub untouched).
    /// Like [`column_dot`], it asks for values only when the two suffixes
    /// share a row.
    ///
    /// # Errors
    ///
    /// Propagates the store's fetch errors.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn isolated_dot<S: ColumnStore + ?Sized>(
        &mut self,
        store: &S,
        p: usize,
        q: usize,
    ) -> Result<f64, EffresError> {
        let (dot, bytes) = suffix_merge(store, p, q)?;
        self.stats.isolated_pairs += 1;
        self.stats.bytes_streamed += bytes as u64;
        Ok(dot)
    }
}

/// Batched multi-pair dot products against one pinned hub column: loads
/// `hub` once into `scratch` and answers `⟨z̃_hub, z̃_partner⟩` for every
/// partner, streaming the hub's rows/vals a single time however many
/// partners follow. Each dot is bit-identical to
/// [`column_dot`]`(store, hub, partner)` (see [`HubScratch`] for why the
/// scatter preserves bits).
///
/// # Errors
///
/// Propagates the store's fetch errors; on error some prefix of the
/// partners may have been evaluated but nothing is returned.
///
/// # Panics
///
/// Panics if `hub` or any partner is out of bounds.
pub fn column_dots_hub<S: ColumnStore + ?Sized>(
    store: &S,
    hub: usize,
    partners: &[usize],
    scratch: &mut HubScratch,
) -> Result<Vec<f64>, EffresError> {
    if partners.is_empty() {
        return Ok(Vec::new());
    }
    // One scatter covering every partner's bound: the smallest bound over
    // the set is all the suffix dots can ever read below.
    let from_row = partners
        .iter()
        .map(|&partner| hub.max(partner) as u32)
        .min()
        .expect("partners is non-empty");
    scratch.load_suffix(store, hub, from_row)?;
    partners
        .iter()
        .map(|&partner| scratch.suffix_dot(store, partner))
        .collect()
}

/// The grouped form of [`column_distances_squared_batch`]: answers every
/// (permuted) pair of `pairs` in order, but runs consecutive pairs that
/// share their smaller endpoint through the hub-scatter kernel so the
/// shared column is streamed once per run instead of once per pair.
/// Callers that sort their batch by `(min, max)` endpoint — the service
/// engine and the paged scheduler already do — turn every hub cluster into
/// one load.
///
/// Within a run, pairs are answered **two at a time**: one pass over both
/// partners' suffixes with two accumulators, so two independent chains of
/// adds are in flight instead of one. A run's odd last pair, a pair whose
/// bound the resident scatter does not cover (possible only out of sorted
/// order), and isolated pairs take the one-pair paths.
///
/// Answers are **bit-identical** to the pairwise batch kernel for any pair
/// order: each pair evaluates the same suffix-restricted dot (see
/// [`HubScratch`]) summed in the same entry order, and the same norm
/// identity with the same clamp. The [`KernelStats`] are those of
/// answering the pairs one at a time.
///
/// # Errors
///
/// Propagates the store's fetch errors; on error some prefix of the batch
/// may have been evaluated but nothing is returned.
///
/// # Panics
///
/// Panics if any index is out of bounds or `norms_squared` is `Some` but
/// shorter than the store's order.
pub fn column_distances_squared_grouped<S: ColumnStore + ?Sized>(
    store: &S,
    pairs: &[(usize, usize)],
    norms_squared: Option<&[f64]>,
    scratch: &mut HubScratch,
) -> Result<Vec<f64>, EffresError> {
    let distance = |p: usize, q: usize, dot: f64| {
        let (np, nq) = match norms_squared {
            Some(table) => (table[p], table[q]),
            None => (fetched_norm(store, p)?, fetched_norm(store, q)?),
        };
        // Same clamp as the scalar kernel: cancellation can dip below 0.
        Ok::<f64, EffresError>((np + nq - 2.0 * dot).max(0.0))
    };
    let mut out = Vec::with_capacity(pairs.len());
    let mut slot = 0;
    while let Some(&(p, q)) = pairs.get(slot) {
        slot += 1;
        if p == q {
            out.push(0.0);
            continue;
        }
        let hub = p.min(q);
        let partner = p.max(q);
        let next = pairs.get(slot).filter(|&&(r, s)| r.min(s) == hub);
        // Scatter the hub only when it amortizes: it is already resident,
        // or the next pair shares it.
        if scratch.hub() != Some(hub) && next.is_none() {
            let dot = scratch.isolated_dot(store, p, q)?;
            out.push(distance(p, q, dot)?);
            continue;
        }
        // Suffix-bounded scatter: on a batch sorted by `(min, max)` the
        // run's first pair has the smallest bound, so later pairs no-op
        // here and the hub streams exactly once, from that bound on.
        scratch.load_suffix(store, hub, partner as u32)?;
        // The next pair rides along as a second lane when the scatter
        // already covers its bound — always, on a sorted batch.
        match next.filter(|&&(r, s)| r != s && scratch.loaded_from <= r.max(s) as u32) {
            Some(&(r, s)) => {
                let (dot, next_dot) = scratch.suffix_dots_two(store, partner, r.max(s))?;
                out.push(distance(p, q, dot)?);
                out.push(distance(r, s, next_dot)?);
                slot += 1;
            }
            None => {
                let dot = scratch.suffix_dot(store, partner)?;
                out.push(distance(p, q, dot)?);
            }
        }
    }
    Ok(out)
}

/// `‖z̃_j‖²` summed in index order over the fetched column: the value a norm
/// table holds, for kernels called without one.
fn fetched_norm<S: ColumnStore + ?Sized>(store: &S, j: usize) -> Result<f64, EffresError> {
    store.with_column(j, |column| column.norm2_squared())
}

/// Squared Euclidean norms `‖z̃_j‖²` of every column, in column order,
/// summed in index order — the table resident services precompute once (and
/// v3 snapshots persist) so a query reduces to one sparse dot product.
///
/// # Errors
///
/// Propagates the store's fetch errors.
pub fn column_norms_squared<S: ColumnStore + ?Sized>(store: &S) -> Result<Vec<f64>, EffresError> {
    (0..store.order()).map(|j| fetched_norm(store, j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use effres_sparse::cholesky::CholeskyFactor;
    use effres_sparse::TripletMatrix;

    fn sample_inverse() -> SparseApproximateInverse {
        let rows = 6;
        let cols = 6;
        let idx = |r: usize, c: usize| r * cols + c;
        let n = rows * cols;
        let mut t = TripletMatrix::new(n, n);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    t.add_laplacian_edge(idx(r, c), idx(r, c + 1), 1.0);
                }
                if r + 1 < rows {
                    t.add_laplacian_edge(idx(r, c), idx(r + 1, c), 1.0);
                }
            }
        }
        t.push(0, 0, 1e-3);
        let chol = CholeskyFactor::factor(&t.to_csc()).expect("spd");
        SparseApproximateInverse::from_factor(chol.factor_l(), 1e-3, 2).expect("valid")
    }

    #[test]
    fn generic_kernels_match_the_arena_inherent_methods() {
        let z = sample_inverse();
        let norms_inherent = z.column_norms_squared();
        let norms_generic = column_norms_squared(&z).expect("infallible");
        assert_eq!(norms_inherent.len(), norms_generic.len());
        for (a, b) in norms_inherent.iter().zip(&norms_generic) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for &(p, q) in &[(0, 35), (3, 3), (10, 20), (34, 35), (0, 1)] {
            assert_eq!(
                column_dot(&z, p, q).expect("infallible").to_bits(),
                z.column_dot(p, q).to_bits(),
                "dot ({p},{q})"
            );
            assert_eq!(
                column_distance_squared(&z, p, q)
                    .expect("infallible")
                    .to_bits(),
                z.column_distance_squared(p, q).to_bits(),
                "distance ({p},{q})"
            );
            assert_eq!(
                column_distance_squared_with_norms(&z, p, q, &norms_generic)
                    .expect("infallible")
                    .to_bits(),
                z.column_distance_squared_with_norms(p, q, &norms_inherent)
                    .to_bits(),
                "norm-table distance ({p},{q})"
            );
        }
    }

    #[test]
    fn batched_kernel_matches_the_scalar_kernels_bitwise() {
        let z = sample_inverse();
        let norms = z.column_norms_squared();
        let pairs = [(0, 35), (3, 3), (10, 20), (34, 35), (0, 1), (20, 10)];
        let with_table =
            column_distances_squared_batch(&z, &pairs, Some(&norms)).expect("infallible");
        let without_table = column_distances_squared_batch(&z, &pairs, None).expect("infallible");
        assert_eq!(with_table.len(), pairs.len());
        for (slot, &(p, q)) in pairs.iter().enumerate() {
            let scalar = if p == q {
                0.0
            } else {
                z.column_distance_squared_with_norms(p, q, &norms)
            };
            assert_eq!(with_table[slot].to_bits(), scalar.to_bits(), "({p},{q})");
            assert_eq!(without_table[slot].to_bits(), scalar.to_bits(), "({p},{q})");
        }
    }

    #[test]
    fn hub_kernel_matches_column_dot_bitwise() {
        let z = sample_inverse();
        let mut scratch = HubScratch::new(z.order());
        for hub in [0usize, 7, 20, 35] {
            let partners: Vec<usize> = vec![hub, 0, 5, 20, 35, 35];
            let dots = column_dots_hub(&z, hub, &partners, &mut scratch).expect("infallible");
            for (&partner, dot) in partners.iter().zip(&dots) {
                assert_eq!(
                    dot.to_bits(),
                    z.column_dot(hub, partner).to_bits(),
                    "hub {hub} partner {partner}"
                );
            }
        }
        // Empty partner sets are answered without touching the store.
        let loads_before = scratch.stats().hub_loads;
        assert!(column_dots_hub(&z, 3, &[], &mut scratch)
            .expect("infallible")
            .is_empty());
        assert_eq!(scratch.stats().hub_loads, loads_before);
    }

    #[test]
    fn grouped_kernel_matches_batched_kernel_bitwise() {
        let z = sample_inverse();
        let norms = z.column_norms_squared();
        // Mixed workload: hub runs, isolated pairs, self pairs, reversed
        // endpoints sharing a hub.
        let pairs = [
            (0, 35),
            (0, 12),
            (12, 0),
            (3, 3),
            (10, 20),
            (34, 35),
            (5, 9),
            (9, 5),
            (35, 9),
        ];
        let mut scratch = HubScratch::new(z.order());
        for norms_arg in [Some(norms.as_slice()), None] {
            let grouped = column_distances_squared_grouped(&z, &pairs, norms_arg, &mut scratch)
                .expect("infallible");
            let batched =
                column_distances_squared_batch(&z, &pairs, norms_arg).expect("infallible");
            for (slot, (g, b)) in grouped.iter().zip(&batched).enumerate() {
                assert_eq!(g.to_bits(), b.to_bits(), "pair {:?}", pairs[slot]);
            }
        }
        let stats = scratch.take_stats();
        assert_eq!(stats.pairs(), 2 * (pairs.len() as u64 - 1)); // self pair excluded
        assert!(stats.hub_pairs > 0 && stats.isolated_pairs > 0);
        assert!(stats.bytes_streamed > 0);
        assert!(stats.pairs_per_hub_load() > 1.0);
        assert_eq!(scratch.stats(), KernelStats::default());
    }

    /// Entries of column `j` at rows `bound..`, counted straight from the
    /// arena's `col_ptr`/`rows` buffers.
    fn suffix_entries(z: &SparseApproximateInverse, j: usize, bound: usize) -> u64 {
        let rows = &z.arena_rows()[z.col_ptr()[j]..z.col_ptr()[j + 1]];
        rows.iter().filter(|&&row| row as usize >= bound).count() as u64
    }

    #[test]
    fn kernels_stream_twelve_bytes_per_suffix_entry() {
        // A 4-byte row index plus an 8-byte value per suffix entry walked.
        const ENTRY_BYTES: u64 = 12;
        let z = sample_inverse();
        for hub in [0usize, 7, 20, 35] {
            let partners = [hub, 0, 5, 20, 35, 35];
            let mut scratch = HubScratch::new(z.order());
            column_dots_hub(&z, hub, &partners, &mut scratch).expect("infallible");
            // One hub load from the smallest bound, then each partner's
            // suffix from its own bound.
            let from_row = partners
                .iter()
                .map(|&p| hub.max(p))
                .min()
                .expect("non-empty");
            let mut entries = suffix_entries(&z, hub, from_row);
            for &partner in &partners {
                entries += suffix_entries(&z, partner, hub.max(partner));
            }
            let stats = scratch.take_stats();
            assert_eq!(
                (stats.hub_loads, stats.hub_pairs),
                (1, partners.len() as u64)
            );
            assert_eq!(stats.bytes_streamed, ENTRY_BYTES * entries, "hub {hub}");
        }
        let mut scratch = HubScratch::new(z.order());
        for (p, q) in [(0, 35), (3, 3), (10, 20), (34, 35), (20, 10), (0, 1)] {
            scratch.isolated_dot(&z, p, q).expect("infallible");
            let bound = p.max(q);
            let entries = suffix_entries(&z, p, bound) + suffix_entries(&z, q, bound);
            let stats = scratch.take_stats();
            assert_eq!(stats.isolated_pairs, 1);
            assert_eq!(stats.bytes_streamed, ENTRY_BYTES * entries, "({p}, {q})");
        }
    }

    #[test]
    fn failed_kernel_stats_merge_adds_counters() {
        let mut a = KernelStats {
            hub_loads: 1,
            hub_pairs: 2,
            isolated_pairs: 3,
            bytes_streamed: 4,
        };
        a.merge(KernelStats {
            hub_loads: 10,
            hub_pairs: 20,
            isolated_pairs: 30,
            bytes_streamed: 40,
        });
        assert_eq!(a.hub_loads, 11);
        assert_eq!(a.hub_pairs, 22);
        assert_eq!(a.isolated_pairs, 33);
        assert_eq!(a.bytes_streamed, 44);
        assert_eq!(a.pairs(), 55);
    }

    #[test]
    fn with_column_borrows_the_arena() {
        let z = sample_inverse();
        let (nnz, first) = z
            .with_column(0, |column| {
                (column.nnz(), column.indices().first().copied())
            })
            .expect("infallible");
        assert_eq!(nnz, z.column(0).nnz());
        assert_eq!(first, z.column(0).indices().first().copied());
        assert_eq!(ColumnStore::order(&z), z.order());
        assert_eq!(ColumnStore::nnz(&z), z.nnz());
    }

    #[test]
    fn reference_impl_forwards() {
        let z = sample_inverse();
        let by_ref: &SparseApproximateInverse = &z;
        assert_eq!(ColumnStore::order(&by_ref), z.order());
        assert_eq!(
            column_dot(&by_ref, 0, 10).expect("infallible").to_bits(),
            z.column_dot(0, 10).to_bits()
        );
    }

    /// The arena, lent rows first with values that cost a request: each
    /// request is counted, and column `rotten`'s fail.
    struct DeferredValues {
        z: SparseApproximateInverse,
        rotten: usize,
        requests: std::cell::Cell<usize>,
    }

    impl ColumnStore for DeferredValues {
        fn order(&self) -> usize {
            self.z.order()
        }

        fn nnz(&self) -> usize {
            self.z.nnz()
        }

        fn with_column<R>(
            &self,
            j: usize,
            f: impl FnOnce(ColumnView<'_>) -> R,
        ) -> Result<R, EffresError> {
            self.z.with_column(j, f)
        }

        fn with_rows_first<R>(
            &self,
            j: usize,
            f: impl FnOnce(RowsFirst<'_>) -> R,
        ) -> Result<R, EffresError> {
            let column = self.z.column(j);
            let values = || {
                self.requests.set(self.requests.get() + 1);
                match j == self.rotten {
                    true => Err(EffresError::StoreFailure {
                        column: j,
                        message: "rotten".to_string(),
                    }),
                    false => Ok(column.values()),
                }
            };
            Ok(f(RowsFirst::deferred(column.indices(), &values)))
        }
    }

    /// Two grounded 3×6 grids with no edge between them: a column of one
    /// block has no row in the other, so pairs across the blocks share no
    /// row, and pairs within a block share some.
    fn two_block_inverse() -> SparseApproximateInverse {
        let n = 36;
        let mut t = TripletMatrix::new(n, n);
        for block in [0, 18] {
            for r in 0..3 {
                for c in 0..6 {
                    let u = block + 6 * r + c;
                    if c + 1 < 6 {
                        t.add_laplacian_edge(u, u + 1, 1.0);
                    }
                    if r + 1 < 3 {
                        t.add_laplacian_edge(u, u + 6, 1.0);
                    }
                }
            }
            t.push(block, block, 1e-3);
        }
        let chol = CholeskyFactor::factor(&t.to_csc()).expect("spd");
        SparseApproximateInverse::from_factor(chol.factor_l(), 1e-3, 2).expect("valid")
    }

    #[test]
    fn the_pair_dot_asks_for_values_only_where_suffixes_meet() {
        let z = two_block_inverse();
        let n = z.order();
        let meets = |p: usize, q: usize| {
            let b = z.column(q).indices();
            let bound = p.max(q) as u32;
            let mut a = z.column(p).indices().iter();
            a.any(|r| *r >= bound && b.binary_search(r).is_ok())
        };
        // A rotten column whose suffix meets some partners and not others.
        let rotten = (0..n)
            .find(|&j| (0..n).any(|q| meets(j, q)) && (0..n).any(|q| !meets(j, q)))
            .expect("both kinds of pairs");
        let store = DeferredValues {
            z: two_block_inverse(),
            rotten,
            requests: std::cell::Cell::new(0),
        };
        let mut scratch = HubScratch::new(n);
        for p in 0..n {
            for q in 0..n {
                store.requests.set(0);
                let dot = scratch.isolated_dot(&store, p, q);
                if !meets(p, q) {
                    // No shared row: no value is read and the dot is
                    // `+0.0`, rotten column or not.
                    assert_eq!(store.requests.get(), 0, "({p}, {q})");
                    assert_eq!(dot.expect("no value read").to_bits(), 0.0f64.to_bits());
                    continue;
                }
                // Column `p`'s values are asked for first.
                let asked = if p == rotten { 1 } else { 2 };
                assert_eq!(store.requests.get(), asked, "({p}, {q})");
                match p == rotten || q == rotten {
                    true => assert!(dot.is_err(), "({p}, {q})"),
                    false => assert_eq!(
                        dot.expect("healthy").to_bits(),
                        z.column_dot(p, q).to_bits()
                    ),
                }
            }
        }
    }
}
