//! Sparse approximate inverse of a Cholesky factor (Alg. 2 of the paper).
//!
//! Let `L` be the (incomplete) Cholesky factor of the grounded Laplacian and
//! `Z = L⁻¹`. Lemma 1 shows `Z` is nonnegative and that its columns obey the
//! recurrence
//!
//! ```text
//! z_j = (1 / L_jj) e_j + Σ_{i > j, L_ij ≠ 0} (−L_ij / L_jj) z_i
//! ```
//!
//! so the columns can be built from the last one backwards. The algorithm
//! keeps every column sparse by pruning: after assembling the candidate
//! column `z*_j` from the already-pruned columns, the smallest entries whose
//! absolute values sum to at most `ε · ‖z*_j‖₁` are dropped (the `trunc_k`
//! rule of Eq. (10)). Theorem 1 then bounds the column error by
//! `depth(j) · ε`.
//!
//! # Storage: a flat CSC arena with `u32` row indices
//!
//! The finished inverse is stored as three contiguous buffers —
//! `col_ptr`/`rows`/`vals`, the classic compressed-sparse-column layout —
//! rather than one heap allocation per column. Row indices are stored as
//! `u32` (the width the snapshot format has always used on disk), so on a
//! 64-bit host the query kernels move **half the index bytes** a
//! `usize`-indexed arena would: the kernels are memory-bandwidth bound and
//! every cache line of `rows` now carries 16 indices instead of 8. The
//! narrowing caps the supported order at `u32::MAX` columns; the cap is
//! enforced by [`ensure_u32_indexable`] at build and load time with a typed
//! [`EffresError::IndexOverflow`] — never a silent truncation. Query kernels
//! ([`SparseApproximateInverse::column_dot`], the distance kernels, the
//! service engine's dense-scatter scratch) read columns as plain slices, so
//! a batch walking many columns streams through one arena instead of
//! pointer-chasing per-column `Vec`s.
//!
//! # Building a column, and the build's memory
//!
//! Each candidate column `z*_j` is scattered into a dense accumulator. Its
//! pattern starts with `j` and the rows of `z̃` of `j`'s elimination-tree
//! parent, already sorted, so draining it sorts only the entries the other
//! contributors add and merges the two runs. The drained column is pruned in
//! place with integer magnitude keys (see `prune_tail`). Each column is
//! written once. The sequential sweep writes it straight into the buffers
//! the finished inverse keeps, last column first, and finishes in place by
//! reversing the buffers and then each column: a sequential build peaks at
//! one arena. The parallel sweep publishes columns in completion order and
//! copies them into column order at the end, so its peak is two arenas.
//!
//! # Parallel construction
//!
//! Column `j` depends only on the columns `i > j` in `L`'s column-`j`
//! pattern — `j`'s elimination-tree ancestors — so the backward sweep admits
//! *level scheduling* ([`effres_sparse::LevelSchedule`]): all columns of one
//! level are independent once the shallower levels are done. The parallel
//! build processes levels root-downward, partitioning each level across the
//! workers of a persistent [`WorkerPool`] with per-worker
//! [`SparseAccumulator`] scratch; one pool round per level replaces the old
//! per-build scoped threads and barriers, and a deployment that builds and
//! then serves can share a single pool between both stages
//! ([`SparseApproximateInverse::from_factor_shared`],
//! `EffresConfig::with_worker_pool`). Every column is assembled from the
//! same already-pruned columns with the same floating-point operation order
//! as in the sequential sweep, so the parallel build is **bit-identical** to
//! the sequential one; the sequential path is kept for one thread, small
//! factors and schedules too narrow to win.

use crate::config::BuildOptions;
use crate::error::EffresError;
use effres_sparse::schedule::LevelSchedule;
use effres_sparse::sparse_vec::{SparseAccumulator, SparseVec};
use effres_sparse::{CscMatrix, WorkerPool};
use std::sync::{Arc, Mutex, RwLock};

/// Statistics gathered while building the approximate inverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApproxInverseStats {
    /// Total number of stored nonzeros across all columns of `Z̃`.
    pub nnz: usize,
    /// Largest number of nonzeros in a single column.
    pub max_column_nnz: usize,
    /// Number of entries removed by the pruning rule.
    pub pruned_entries: usize,
    /// Number of columns kept exactly because they were already small.
    pub small_columns_kept: usize,
}

/// Checks that an order of `n` rows/columns fits the arena's `u32` index
/// space.
///
/// This is the single overflow guard of the `usize`→`u32` index narrowing:
/// every constructor of [`SparseApproximateInverse`] (and the snapshot
/// loaders in `effres-io`) calls it before any index is cast, so an
/// over-large graph produces a typed [`EffresError::IndexOverflow`] instead
/// of truncated indices.
///
/// # Errors
///
/// Returns [`EffresError::IndexOverflow`] when `n > u32::MAX`.
pub fn ensure_u32_indexable(n: usize) -> Result<(), EffresError> {
    if n > u32::MAX as usize {
        Err(EffresError::IndexOverflow { node_count: n })
    } else {
        Ok(())
    }
}

/// Byte-level memory footprint of the flat CSC arena, reported by
/// [`SparseApproximateInverse::footprint`] so operators can see what the
/// query path actually streams (`effres-cli stats` prints it). The row block
/// is the one the `usize`→`u32` narrowing halved; `index_width_bytes`
/// records the in-memory index width so the savings stay visible in logs
/// and perf reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFootprint {
    /// Bytes of the column-pointer block (`(order + 1) × 8`).
    pub col_ptr_bytes: usize,
    /// Bytes of the row-index block (`nnz × 4`).
    pub rows_bytes: usize,
    /// Bytes of the value block (`nnz × 8`).
    pub vals_bytes: usize,
    /// Width of one stored row index in bytes (4 for the `u32` arena).
    pub index_width_bytes: usize,
}

impl ArenaFootprint {
    /// Total bytes across the three arena blocks.
    pub fn total_bytes(&self) -> usize {
        self.col_ptr_bytes + self.rows_bytes + self.vals_bytes
    }
}

/// A borrowed view of one column of the approximate inverse: parallel
/// `indices`/`values` slices into the flat CSC arena, with strictly
/// increasing `u32` indices (see the module docs for the index narrowing).
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    dim: usize,
    indices: &'a [u32],
    values: &'a [f64],
}

impl<'a> ColumnView<'a> {
    /// Dimension of the (conceptual) vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Stored indices (strictly increasing), at the arena's native `u32`
    /// width.
    pub fn indices(&self) -> &'a [u32] {
        self.indices
    }

    /// Stored values, parallel to [`ColumnView::indices`].
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Bytes one stored entry occupies in the arena (a `u32` row index plus
    /// an `f64` value) — what a kernel streams per entry it touches.
    pub fn entry_bytes(&self) -> usize {
        std::mem::size_of::<u32>() + std::mem::size_of::<f64>()
    }

    /// Iterates over stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.indices
            .iter()
            .map(|&i| i as usize)
            .zip(self.values.iter().copied())
    }

    /// Value at `index` (zero if not stored).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    pub fn get(&self, index: usize) -> f64 {
        assert!(index < self.dim, "index out of bounds");
        match self.indices.binary_search(&(index as u32)) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// 1-norm (sum of absolute values).
    pub fn norm1(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// Squared Euclidean norm.
    pub fn norm2_squared(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// 1-norm of the difference with a sparse vector of the same dimension
    /// (a diagnostics path: allocation is fine, so the view is copied and
    /// the shared `vecops` merge kernel does the work).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn diff_norm1(&self, other: &SparseVec) -> f64 {
        self.to_sparse_vec().diff_norm1(other)
    }

    /// Assembles a view from raw parallel slices.
    ///
    /// This is the entry point for column stores that do not own a resident
    /// arena — e.g. a paged store lending a slice of a decoded cache page
    /// (see the `ColumnStore` trait in [`crate::column_store`]). The caller
    /// is responsible for the view invariants: `indices` strictly
    /// increasing below `dim`, parallel to `values`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` and `values` have different lengths.
    pub fn from_slices(dim: usize, indices: &'a [u32], values: &'a [f64]) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "ColumnView slices must be parallel"
        );
        ColumnView {
            dim,
            indices,
            values,
        }
    }

    /// Copies the view into an owned [`SparseVec`] (widening the indices
    /// back to `usize`).
    pub fn to_sparse_vec(&self) -> SparseVec {
        SparseVec::from_sorted(
            self.dim,
            self.indices.iter().map(|&i| i as usize).collect(),
            self.values.to_vec(),
        )
    }
}

/// A sparse approximation `Z̃ ≈ L⁻¹` of the inverse of a lower-triangular
/// Cholesky factor, stored as a flat CSC arena with `u32` row indices (see
/// the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseApproximateInverse {
    dim: usize,
    /// `col_ptr[j]..col_ptr[j + 1]` indexes `rows` and `vals` for column
    /// `j`.
    col_ptr: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
    stats: ApproxInverseStats,
    epsilon: f64,
}

impl SparseApproximateInverse {
    /// Runs Alg. 2 on the factor `L` with pruning threshold `epsilon`,
    /// using the default [`BuildOptions`] (one worker thread per core; the
    /// result is bit-identical to the sequential build regardless).
    ///
    /// Columns whose candidate has at most `max(dense_column_threshold, ln n)`
    /// entries are kept without pruning, as in step 3 of Alg. 2.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::Sparse`] if the factor is not square, and
    /// [`EffresError::InvalidConfig`] if `epsilon` is not in `[0, 1)` or a
    /// diagonal entry of the factor is missing or nonpositive.
    pub fn from_factor(
        factor: &CscMatrix,
        epsilon: f64,
        dense_column_threshold: usize,
    ) -> Result<Self, EffresError> {
        Self::from_factor_with(
            factor,
            epsilon,
            dense_column_threshold,
            &BuildOptions::default(),
        )
    }

    /// Runs Alg. 2 with explicit execution options (see
    /// [`SparseApproximateInverse::from_factor`] for the numerical contract).
    ///
    /// The level-scheduled parallel sweep is used when `options` allow more
    /// than one thread, the factor is large enough
    /// (`options.parallel_threshold`) and the schedule is wide enough to
    /// amortize the per-level synchronization; otherwise the sequential
    /// reference sweep runs. Both produce bit-identical output.
    ///
    /// # Errors
    ///
    /// See [`SparseApproximateInverse::from_factor`].
    pub fn from_factor_with(
        factor: &CscMatrix,
        epsilon: f64,
        dense_column_threshold: usize,
        options: &BuildOptions,
    ) -> Result<Self, EffresError> {
        Self::build_impl(
            FactorSource::Borrowed(factor),
            epsilon,
            dense_column_threshold,
            options,
            None,
        )
    }

    /// Runs Alg. 2 on a shared factor, optionally on a shared persistent
    /// [`WorkerPool`].
    ///
    /// This is the entry point for build-then-serve deployments: the factor
    /// arrives in an [`Arc`] (so the level-scheduled sweep can hand it to
    /// pool workers without copying it) and `pool`, when given, is reused
    /// instead of spawning per-build threads — pass the same pool to the
    /// query engine and the whole deployment runs on one set of workers.
    /// With `pool: None` a transient pool is spawned for the build when the
    /// parallel path is taken. The numerical contract (and the bit-identity
    /// of parallel and sequential sweeps) is that of
    /// [`SparseApproximateInverse::from_factor`].
    ///
    /// # Errors
    ///
    /// See [`SparseApproximateInverse::from_factor`].
    pub fn from_factor_shared(
        factor: Arc<CscMatrix>,
        epsilon: f64,
        dense_column_threshold: usize,
        options: &BuildOptions,
        pool: Option<&WorkerPool>,
    ) -> Result<Self, EffresError> {
        Self::build_impl(
            FactorSource::Shared(factor),
            epsilon,
            dense_column_threshold,
            options,
            pool,
        )
    }

    fn build_impl(
        factor: FactorSource<'_>,
        epsilon: f64,
        dense_column_threshold: usize,
        options: &BuildOptions,
        pool: Option<&WorkerPool>,
    ) -> Result<Self, EffresError> {
        if factor.get().nrows() != factor.get().ncols() {
            return Err(EffresError::Sparse(effres_sparse::SparseError::NotSquare {
                nrows: factor.get().nrows(),
                ncols: factor.get().ncols(),
            }));
        }
        if !(0.0..1.0).contains(&epsilon) {
            return Err(EffresError::InvalidConfig {
                name: "epsilon",
                message: "must lie in [0, 1)".to_string(),
            });
        }
        let n = factor.get().ncols();
        ensure_u32_indexable(n)?;
        let keep_limit = dense_column_threshold.max((n.max(2) as f64).ln().ceil() as usize);

        // Pre-validate every diagonal up front so the sweeps are infallible
        // (pool workers have no error channel mid-level).
        let mut diag = Vec::with_capacity(n);
        for j in 0..n {
            let rows = factor.get().column_rows(j);
            let pos = rows
                .binary_search(&j)
                .map_err(|_| EffresError::InvalidConfig {
                    name: "factor",
                    message: format!("missing diagonal entry in column {j}"),
                })?;
            let d = factor.get().column_values(j)[pos];
            if !(d > 0.0) {
                return Err(EffresError::InvalidConfig {
                    name: "factor",
                    message: format!("nonpositive diagonal {d} in column {j}"),
                });
            }
            diag.push(d);
        }

        let threads = match (options.threads, pool) {
            // Unconfigured + shared pool: use the workers that exist.
            (0, Some(pool)) => pool.threads(),
            (configured, _) => resolve_threads(configured),
        }
        .min(n.max(1));
        // A narrow schedule (long dependency chains) spends more time
        // synchronizing per level than computing; the sequential sweep wins
        // there.
        let schedule = if threads > 1 && n >= options.parallel_threshold {
            Some(LevelSchedule::from_lower_factor(factor.get()))
                .filter(|s| s.mean_width() >= (4 * threads) as f64)
        } else {
            None
        };
        let ((col_ptr, rows, vals), stats) = match schedule {
            Some(schedule) => {
                // The pool workers need `'static` access to the factor: use
                // the shared handle when the caller provided one, clone the
                // borrowed factor into a transient Arc otherwise (build-time
                // only, and small next to the inverse the sweep produces).
                let factor = factor.into_shared();
                let transient;
                let pool = match pool {
                    Some(pool) => pool,
                    None => {
                        transient = WorkerPool::new(threads);
                        &transient
                    }
                };
                let (store, stats) =
                    parallel_sweep(factor, diag, keep_limit, epsilon, schedule, threads, pool);
                (store.into_csc(n), stats)
            }
            None => {
                let (store, stats) = sequential_sweep(factor.get(), &diag, keep_limit, epsilon);
                (store.into_csc_in_place(), stats)
            }
        };
        Ok(SparseApproximateInverse {
            dim: n,
            col_ptr,
            rows,
            vals,
            stats,
            epsilon,
        })
    }

    /// Order of the factor (number of columns).
    pub fn order(&self) -> usize {
        self.dim
    }

    /// The pruning threshold the inverse was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Column `j` of `Z̃` (an approximation of `L⁻¹ e_j`) as a borrowed view
    /// into the arena.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn column(&self, j: usize) -> ColumnView<'_> {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        ColumnView {
            dim: self.dim,
            indices: &self.rows[lo..hi],
            values: &self.vals[lo..hi],
        }
    }

    /// The arena's column-pointer buffer (`order() + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The arena's concatenated row indices, in column order, at the
    /// arena's native `u32` width.
    pub fn arena_rows(&self) -> &[u32] {
        &self.rows
    }

    /// The arena's concatenated values, parallel to
    /// [`SparseApproximateInverse::arena_rows`].
    pub fn arena_values(&self) -> &[f64] {
        &self.vals
    }

    /// Total number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.stats.nnz
    }

    /// `nnz(Z̃) / (n · log₂ n)`, the density figure reported in Table I.
    pub fn nnz_ratio(&self) -> f64 {
        let n = self.order().max(2) as f64;
        self.stats.nnz as f64 / (n * n.log2())
    }

    /// Build statistics.
    pub fn stats(&self) -> ApproxInverseStats {
        self.stats
    }

    /// Byte-level footprint of the arena buffers (see [`ArenaFootprint`]).
    pub fn footprint(&self) -> ArenaFootprint {
        ArenaFootprint {
            col_ptr_bytes: self.col_ptr.len() * std::mem::size_of::<usize>(),
            rows_bytes: self.rows.len() * std::mem::size_of::<u32>(),
            vals_bytes: self.vals.len() * std::mem::size_of::<f64>(),
            index_width_bytes: std::mem::size_of::<u32>(),
        }
    }

    /// Squared Euclidean distance between two columns — the effective
    /// resistance kernel `‖z̃_p − z̃_q‖²` of Eq. (22).
    ///
    /// Delegates to the store-generic [`crate::column_store`] kernel; the
    /// resident arena is infallible, so this keeps the plain `f64` return.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn column_distance_squared(&self, p: usize, q: usize) -> f64 {
        crate::column_store::column_distance_squared(self, p, q)
            .expect("resident arena access is infallible")
    }

    /// Inner product `⟨z̃_p, z̃_q⟩` of two columns (the suffix-restricted
    /// merge of [`crate::column_store::column_dot`] on the resident arena).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn column_dot(&self, p: usize, q: usize) -> f64 {
        crate::column_store::column_dot(self, p, q).expect("resident arena access is infallible")
    }

    /// Squared Euclidean norms `‖z̃_j‖²` of every column, in column order.
    ///
    /// Query services precompute this once so a query reduces to one sparse
    /// dot product: `‖z̃_p − z̃_q‖² = ‖z̃_p‖² + ‖z̃_q‖² − 2⟨z̃_p, z̃_q⟩`.
    pub fn column_norms_squared(&self) -> Vec<f64> {
        crate::column_store::column_norms_squared(self)
            .expect("resident arena access is infallible")
    }

    /// The effective-resistance kernel evaluated with precomputed column
    /// norms (see [`SparseApproximateInverse::column_norms_squared`]): one
    /// sparse dot product instead of a full two-column merge.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `norms_squared` is shorter
    /// than the factor order.
    pub fn column_distance_squared_with_norms(
        &self,
        p: usize,
        q: usize,
        norms_squared: &[f64],
    ) -> f64 {
        crate::column_store::column_distance_squared_with_norms(self, p, q, norms_squared)
            .expect("resident arena access is infallible")
    }

    /// Decomposes the inverse into its arena buffers and build metadata, for
    /// serialization: `(dim, col_ptr, rows, vals, stats, epsilon)`. The row
    /// buffer is at the arena's native `u32` width — exactly the bytes the
    /// v2 snapshot encoding writes.
    #[allow(clippy::type_complexity)]
    pub fn into_arena(
        self,
    ) -> (
        usize,
        Vec<usize>,
        Vec<u32>,
        Vec<f64>,
        ApproxInverseStats,
        f64,
    ) {
        (
            self.dim,
            self.col_ptr,
            self.rows,
            self.vals,
            self.stats,
            self.epsilon,
        )
    }

    /// Rebuilds an inverse directly from flat CSC arena buffers (the layout
    /// produced by [`SparseApproximateInverse::into_arena`], and what the
    /// `effres-io` snapshot reader assembles while streaming a file). The
    /// size-derived statistics (`nnz`, `max_column_nnz`) are recomputed; the
    /// build-history counters (`pruned_entries`, `small_columns_kept`) are
    /// taken from `stats`.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::IndexOverflow`] if `dim` exceeds the `u32`
    /// index space, and [`EffresError::InvalidConfig`] if `epsilon` is
    /// outside `[0, 1)`, the buffers are inconsistent (`col_ptr` not
    /// monotone from `0` to `rows.len()`, `rows`/`vals` length mismatch), a
    /// column's indices are not strictly increasing within bounds, or a
    /// column has an entry above the diagonal.
    pub fn from_arena(
        dim: usize,
        col_ptr: Vec<usize>,
        rows: Vec<u32>,
        vals: Vec<f64>,
        stats: ApproxInverseStats,
        epsilon: f64,
    ) -> Result<Self, EffresError> {
        ensure_u32_indexable(dim)?;
        if !(0.0..1.0).contains(&epsilon) {
            return Err(EffresError::InvalidConfig {
                name: "epsilon",
                message: "must lie in [0, 1)".to_string(),
            });
        }
        let invalid = |message: String| EffresError::InvalidConfig {
            name: "arena",
            message,
        };
        if col_ptr.len() != dim + 1 {
            return Err(invalid(format!(
                "col_ptr has {} entries for {dim} columns (need {})",
                col_ptr.len(),
                dim + 1
            )));
        }
        if rows.len() != vals.len() {
            return Err(invalid(format!(
                "rows/vals length mismatch: {} vs {}",
                rows.len(),
                vals.len()
            )));
        }
        if col_ptr[0] != 0 || col_ptr[dim] != rows.len() {
            return Err(invalid(format!(
                "col_ptr must span 0..={} (got {}..={})",
                rows.len(),
                col_ptr[0],
                col_ptr[dim]
            )));
        }
        let mut recomputed = ApproxInverseStats {
            pruned_entries: stats.pruned_entries,
            small_columns_kept: stats.small_columns_kept,
            ..ApproxInverseStats::default()
        };
        for j in 0..dim {
            let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
            if lo > hi || hi > rows.len() {
                return Err(invalid(format!(
                    "col_ptr is not monotone within 0..={} at column {j}",
                    rows.len()
                )));
            }
            let column = &rows[lo..hi];
            if !column.windows(2).all(|w| w[0] < w[1])
                || column.last().is_some_and(|&i| i as usize >= dim)
            {
                return Err(invalid(format!(
                    "column {j} indices are not strictly increasing within 0..{dim}"
                )));
            }
            // The query kernels rely on the lower-triangular support of the
            // columns (see `column_dot`), so the invariant is enforced here
            // rather than trusted from serialized input.
            if column.first().is_some_and(|&i| (i as usize) < j) {
                return Err(invalid(format!(
                    "column {j} has an entry above the diagonal; \
                     inverse columns must be supported on {j}.."
                )));
            }
            recomputed.nnz += hi - lo;
            recomputed.max_column_nnz = recomputed.max_column_nnz.max(hi - lo);
        }
        Ok(SparseApproximateInverse {
            dim,
            col_ptr,
            rows,
            vals,
            stats: recomputed,
            epsilon,
        })
    }

    /// Rebuilds an inverse from per-column sparse vectors (the pre-arena
    /// representation; still the convenient entry point for hand-built
    /// columns). The columns are packed into a fresh arena and validated as
    /// in [`SparseApproximateInverse::from_arena`].
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::InvalidConfig`] if `epsilon` is outside
    /// `[0, 1)`, any column's dimension differs from the column count, or a
    /// column has an entry above the diagonal.
    pub fn from_parts(
        columns: Vec<SparseVec>,
        stats: ApproxInverseStats,
        epsilon: f64,
    ) -> Result<Self, EffresError> {
        let n = columns.len();
        // Guard before any index is narrowed: `SparseVec` keeps indices
        // below its dimension, so once `n` fits in `u32` every cast does.
        ensure_u32_indexable(n)?;
        let total: usize = columns.iter().map(SparseVec::nnz).sum();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut rows: Vec<u32> = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        col_ptr.push(0);
        for (j, column) in columns.iter().enumerate() {
            if column.dim() != n {
                return Err(EffresError::InvalidConfig {
                    name: "columns",
                    message: format!(
                        "column {j} has dimension {} but the inverse has {n} columns",
                        column.dim()
                    ),
                });
            }
            rows.extend(column.indices().iter().map(|&i| i as u32));
            vals.extend_from_slice(column.values());
            col_ptr.push(rows.len());
        }
        Self::from_arena(n, col_ptr, rows, vals, stats, epsilon)
    }
}

/// How the build received its factor: borrowed from the caller (the classic
/// entry points) or already shared behind an [`Arc`] (the pooled path, which
/// must hand `'static` references to pool workers).
enum FactorSource<'a> {
    Borrowed(&'a CscMatrix),
    Shared(Arc<CscMatrix>),
}

impl FactorSource<'_> {
    fn get(&self) -> &CscMatrix {
        match self {
            FactorSource::Borrowed(factor) => factor,
            FactorSource::Shared(factor) => factor,
        }
    }

    /// Upgrades to a shared handle, cloning the matrix only when it was
    /// borrowed.
    fn into_shared(self) -> Arc<CscMatrix> {
        match self {
            FactorSource::Borrowed(factor) => Arc::new(factor.clone()),
            FactorSource::Shared(factor) => factor,
        }
    }
}

/// Resolves a configured thread count (`0` = one per core).
fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        configured
    }
}

/// The column store used *during* construction: columns live at arbitrary
/// offsets of two flat buffers, with per-column `start`/`len` tables for
/// random access. The sequential sweep appends straight onto `rows`/`vals`,
/// last column first, and [`SweepStore::into_csc_in_place`] then puts the
/// columns in order without a second arena. The parallel sweep appends
/// whole chunks in completion order, and [`SweepStore::into_csc`] copies
/// them into column order, so its final layout is independent of how the
/// sweep was scheduled.
struct SweepStore {
    start: Vec<usize>,
    len: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
}

impl SweepStore {
    fn with_order(n: usize) -> Self {
        SweepStore {
            start: vec![0; n],
            len: vec![0; n],
            rows: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn rows_of(&self, i: usize) -> &[u32] {
        &self.rows[self.start[i]..self.start[i] + self.len[i]]
    }

    fn vals_of(&self, i: usize) -> &[f64] {
        &self.vals[self.start[i]..self.start[i] + self.len[i]]
    }

    /// Appends finished columns (given as `(column, nnz)` in the order their
    /// data lies in `rows`/`vals`) to the store.
    fn append(&mut self, cols: &[(usize, usize)], rows: &[u32], vals: &[f64]) {
        let mut off = self.rows.len();
        self.rows.extend_from_slice(rows);
        self.vals.extend_from_slice(vals);
        for &(j, nnz) in cols {
            self.start[j] = off;
            self.len[j] = nnz;
            off += nnz;
        }
    }

    /// Copies the store into a canonical column-ordered CSC arena (the
    /// parallel sweep's finish; it holds two arenas at its peak).
    fn into_csc(self, n: usize) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let total: usize = self.len.iter().sum();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut rows = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        col_ptr.push(0);
        for j in 0..n {
            rows.extend_from_slice(self.rows_of(j));
            vals.extend_from_slice(self.vals_of(j));
            col_ptr.push(rows.len());
        }
        (col_ptr, rows, vals)
    }

    /// Turns the sequential sweep's store — columns `n − 1, …, 0` back to
    /// back — into the column-ordered CSC arena in place: reversing both
    /// buffers puts the columns in order with each one reversed, and
    /// reversing each column's segment restores its row order.
    fn into_csc_in_place(self) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let SweepStore {
            len,
            mut rows,
            mut vals,
            ..
        } = self;
        rows.reverse();
        vals.reverse();
        let mut col_ptr = Vec::with_capacity(len.len() + 1);
        col_ptr.push(0);
        let mut end = 0;
        for nnz in len {
            let lo = end;
            end += nnz;
            rows[lo..end].reverse();
            vals[lo..end].reverse();
            col_ptr.push(end);
        }
        rows.shrink_to_fit();
        vals.shrink_to_fit();
        (col_ptr, rows, vals)
    }
}

/// Scatters the candidate column `z*_j = (1 / L_jj) e_j + Σ (−L_ij / L_jj) z̃_i`
/// into the empty accumulator `acc` and returns the length of the sorted run
/// its pattern starts with.
///
/// The first column scattered is normally `z̃` of `j`'s elimination-tree
/// parent, the first off-diagonal row of `L(:, j)`. Its rows all exceed `j`
/// and arrive in increasing order, so the pattern starts with `j` followed
/// by those rows; [`finish_column`] sorts only what the other contributors
/// add after that run.
///
/// With [`finish_column`] this is the numeric kernel of the build; the
/// sequential and parallel sweeps both call the pair with the same inputs,
/// which is what makes them bit-identical.
fn assemble_column(
    factor: &CscMatrix,
    j: usize,
    diag: f64,
    store: &SweepStore,
    acc: &mut SparseAccumulator,
) -> usize {
    let rows = factor.column_rows(j);
    let vals = factor.column_values(j);
    acc.add(j, 1.0 / diag);
    let mut sorted_run = None;
    for (pos, &i) in rows.iter().enumerate() {
        if i <= j {
            continue;
        }
        let scale = -vals[pos] / diag;
        if scale != 0.0 {
            let column = store.rows_of(i);
            sorted_run.get_or_insert(1 + column.len());
            acc.axpy_raw_u32(scale, column, store.vals_of(i));
        }
    }
    sorted_run.unwrap_or(1)
}

/// Drains the column [`assemble_column`] left in `acc` onto the ends of
/// `rows`/`vals`, prunes it there and returns its stored nonzero count.
#[allow(clippy::too_many_arguments)]
fn finish_column(
    acc: &mut SparseAccumulator,
    sorted_run: usize,
    keep_limit: usize,
    epsilon: f64,
    rows: &mut Vec<u32>,
    vals: &mut Vec<f64>,
    scratch: &mut PruneScratch,
    stats: &mut ApproxInverseStats,
) -> usize {
    let start = rows.len();
    let candidate_nnz = acc.take_append_u32(rows, vals, sorted_run);
    let nnz = if candidate_nnz <= keep_limit {
        stats.small_columns_kept += 1;
        candidate_nnz
    } else {
        let dropped = prune_tail(rows, vals, start, epsilon, scratch);
        stats.pruned_entries += dropped;
        candidate_nnz - dropped
    };
    stats.nnz += nnz;
    stats.max_column_nnz = stats.max_column_nnz.max(nnz);
    nnz
}

/// The reference backward sweep: one column at a time, last to first, each
/// written once onto the end of the store's own buffers.
fn sequential_sweep(
    factor: &CscMatrix,
    diag: &[f64],
    keep_limit: usize,
    epsilon: f64,
) -> (SweepStore, ApproxInverseStats) {
    let n = factor.ncols();
    let mut store = SweepStore::with_order(n);
    let mut stats = ApproxInverseStats::default();
    let mut acc = SparseAccumulator::new(n);
    let mut scratch = PruneScratch::default();
    for j in (0..n).rev() {
        let sorted_run = assemble_column(factor, j, diag[j], &store, &mut acc);
        store.start[j] = store.rows.len();
        store.len[j] = finish_column(
            &mut acc,
            sorted_run,
            keep_limit,
            epsilon,
            &mut store.rows,
            &mut store.vals,
            &mut scratch,
            &mut stats,
        );
    }
    (store, stats)
}

/// Per-slot state of the level-scheduled sweep, reused across every level of
/// one build: the dense accumulator and pruning scratch plus the local
/// staging buffers a worker fills before publishing a chunk of columns.
struct SweepScratch {
    acc: SparseAccumulator,
    prune: PruneScratch,
    rows: Vec<u32>,
    vals: Vec<f64>,
    cols: Vec<(usize, usize)>,
    stats: ApproxInverseStats,
}

impl SweepScratch {
    fn new(n: usize) -> Self {
        SweepScratch {
            acc: SparseAccumulator::new(n),
            prune: PruneScratch::default(),
            rows: Vec::new(),
            vals: Vec::new(),
            cols: Vec::new(),
            stats: ApproxInverseStats::default(),
        }
    }
}

/// The level-scheduled parallel sweep on a persistent [`WorkerPool`]: each
/// level is partitioned into contiguous chunks and submitted as one round of
/// pool jobs; workers compute into per-slot scratch under a shared read
/// lock, publish under the write lock, and the blocking round submission is
/// the per-level synchronization point (replacing the old scoped threads and
/// barrier). Because [`assemble_column`] and [`finish_column`] run with the
/// same inputs and floating-point order regardless of chunking — and
/// [`SweepStore::into_csc`] canonicalizes the arena afterwards — the result
/// is bit-identical to the sequential sweep for any pool size.
fn parallel_sweep(
    factor: Arc<CscMatrix>,
    diag: Vec<f64>,
    keep_limit: usize,
    epsilon: f64,
    schedule: LevelSchedule,
    threads: usize,
    pool: &WorkerPool,
) -> (SweepStore, ApproxInverseStats) {
    let n = factor.ncols();
    let diag: Arc<[f64]> = diag.into();
    let schedule = Arc::new(schedule);
    let store = Arc::new(RwLock::new(SweepStore::with_order(n)));
    let scratches: Arc<Vec<Mutex<SweepScratch>>> = Arc::new(
        (0..threads)
            .map(|_| Mutex::new(SweepScratch::new(n)))
            .collect(),
    );
    for li in 0..schedule.num_levels() {
        let level_len = schedule.level(li).len();
        let chunk = level_len.div_ceil(threads);
        let jobs: Vec<_> = (0..threads)
            .filter_map(|t| {
                let lo = (t * chunk).min(level_len);
                let hi = ((t + 1) * chunk).min(level_len);
                if lo >= hi {
                    return None;
                }
                let factor = Arc::clone(&factor);
                let diag = Arc::clone(&diag);
                let schedule = Arc::clone(&schedule);
                let store = Arc::clone(&store);
                let scratches = Arc::clone(&scratches);
                Some(move || {
                    // Chunk `t` always uses scratch slot `t`; within one
                    // round the chunks are disjoint, so the lock is
                    // uncontended and only serializes reuse across rounds.
                    let mut slot = scratches[t].lock().expect("sweep scratch lock poisoned");
                    let scratch = &mut *slot;
                    {
                        let read = store.read().expect("column store lock poisoned");
                        for &j in &schedule.level(li)[lo..hi] {
                            let sorted_run =
                                assemble_column(&factor, j, diag[j], &read, &mut scratch.acc);
                            let nnz = finish_column(
                                &mut scratch.acc,
                                sorted_run,
                                keep_limit,
                                epsilon,
                                &mut scratch.rows,
                                &mut scratch.vals,
                                &mut scratch.prune,
                                &mut scratch.stats,
                            );
                            scratch.cols.push((j, nnz));
                        }
                    }
                    let mut write = store.write().expect("column store lock poisoned");
                    write.append(&scratch.cols, &scratch.rows, &scratch.vals);
                    scratch.cols.clear();
                    scratch.rows.clear();
                    scratch.vals.clear();
                })
            })
            .collect();
        // One pool round per level: `run` returns only when every chunk of
        // this level is published, so the next level down reads a complete
        // store.
        pool.run(jobs);
    }
    let mut stats = ApproxInverseStats::default();
    for slot in scratches.iter() {
        let s = slot.lock().expect("sweep scratch lock poisoned").stats;
        stats.nnz += s.nnz;
        stats.max_column_nnz = stats.max_column_nnz.max(s.max_column_nnz);
        stats.pruned_entries += s.pruned_entries;
        stats.small_columns_kept += s.small_columns_kept;
    }
    drop(scratches);
    let store = match Arc::try_unwrap(store) {
        Ok(store) => store.into_inner().expect("column store lock poisoned"),
        // Every job of every round has completed (pool.run blocks), so no
        // other handle can be alive.
        Err(_) => unreachable!("a sweep job outlived its round"),
    };
    (store, stats)
}

/// Reusable workspace of [`prune_tail`].
#[derive(Default)]
struct PruneScratch {
    /// The candidate's magnitudes as integer keys, permuted by selection.
    keys: Vec<u64>,
    /// How many entries the previous column dropped: where the next
    /// column's first selection starts looking for its cut.
    hint: usize,
}

/// Applies the `trunc_k` pruning rule (Eq. (10)) to the candidate column
/// occupying `rows[start..]` / `vals[start..]`, compacting the buffers in
/// place and returning the number of dropped entries.
///
/// The rule drops the largest set of smallest-magnitude entries whose
/// absolute values sum to at most `epsilon * ‖x‖₁`, with `‖x‖₁` summed in
/// row order and the dropped magnitudes summed in ascending order (ties
/// broken towards dropping larger indices, so the result is deterministic).
///
/// Magnitudes are ranked by the integer key `v.abs().to_bits()`: for floats
/// with the sign bit cleared, integer order is `total_cmp` order. The
/// smallest keys are exposed through `select_nth_unstable` prefixes that
/// double in size, the first one sized from the previous column's dropped
/// count (see [`PruneScratch::hint`]); only those prefixes are sorted, so a
/// `k`-entry column that drops `d` entries costs `O(k log d)` expected, and
/// one selection in the common case. The last dropped key is the cut. One
/// branch-free pass then keeps every entry above the cut and drops every
/// entry below it. Entries equal to the cut are all dropped unless the next
/// key up equals it too; only then does a backward counting pass find
/// which of them to keep.
fn prune_tail(
    rows: &mut Vec<u32>,
    vals: &mut Vec<f64>,
    start: usize,
    epsilon: f64,
    scratch: &mut PruneScratch,
) -> usize {
    let k = rows.len() - start;
    if k == 0 || epsilon == 0.0 {
        return 0;
    }
    let tail = &vals[start..];
    let norm1: f64 = tail.iter().map(|v| v.abs()).sum();
    if norm1 == 0.0 {
        return 0;
    }
    let budget = epsilon * norm1;
    scratch.keys.clear();
    scratch.keys.extend(tail.iter().map(|v| v.abs().to_bits()));

    // Count the dropped entries: scan keys in ascending order, accumulating
    // magnitudes while the running sum stays within the budget. `above` is
    // the first key that did not fit, if any.
    let keys = &mut scratch.keys[..];
    let mut dropped = 0usize;
    let mut acc = 0.0f64;
    let mut above = None;
    let mut lo = 0usize;
    let mut chunk = scratch.hint + scratch.hint / 4 + 8;
    'count: while lo < k {
        let hi = (lo + chunk).min(k);
        if hi < k {
            keys[lo..].select_nth_unstable(hi - lo - 1);
        }
        keys[lo..hi].sort_unstable();
        for &key in &keys[lo..hi] {
            let magnitude = f64::from_bits(key);
            if acc + magnitude <= budget {
                acc += magnitude;
                dropped += 1;
            } else {
                above = Some(key);
                break 'count;
            }
        }
        lo = hi;
        chunk *= 2;
    }
    scratch.hint = dropped;
    if dropped == 0 {
        return 0;
    }
    // A budget close to ‖x‖₁ can let every entry fit (`dropped == k`); the
    // passes below then empty the column.
    let cut = keys[dropped - 1];

    // Entries equal to the cut at positions from `ties_from` on are dropped,
    // those before it kept. Without a tie at the cut every such entry is
    // among the `dropped` smallest, so all are dropped.
    let mut ties_from = start;
    if above == Some(cut) {
        let below = keys[..dropped].partition_point(|&key| key < cut);
        let mut to_drop = dropped - below;
        ties_from = rows.len();
        while to_drop > 0 {
            ties_from -= 1;
            to_drop -= usize::from(vals[ties_from].abs().to_bits() == cut);
        }
    }

    // Compact in place; the kept entries stay in index order.
    let mut w = start;
    for r in start..rows.len() {
        let key = vals[r].abs().to_bits();
        let keep = (key > cut) | ((key == cut) & (r < ties_from));
        rows[w] = rows[r];
        vals[w] = vals[r];
        w += usize::from(keep);
    }
    rows.truncate(w);
    vals.truncate(w);
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depth::FilledGraphDepth;
    use effres_sparse::cholesky::CholeskyFactor;
    use effres_sparse::trisolve;
    use effres_sparse::TripletMatrix;

    fn grid_laplacian(rows: usize, cols: usize, shift: f64) -> CscMatrix {
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
        t.push(0, 0, shift);
        t.to_csc()
    }

    /// Block-diagonal matrix of `blocks` independent path Laplacians: its
    /// factor's level schedule is wide (one column per block per level), so
    /// the parallel sweep is exercised even with the width heuristic active.
    fn block_paths_laplacian(blocks: usize, len: usize) -> CscMatrix {
        let n = blocks * len;
        let mut t = TripletMatrix::new(n, n);
        for b in 0..blocks {
            let base = b * len;
            for i in 0..len - 1 {
                t.add_laplacian_edge(base + i, base + i + 1, 1.0 + b as f64 * 0.01);
            }
            t.push(base, base, 1e-2);
        }
        t.to_csc()
    }

    /// The old `SparseVec`-based pruning entry point, kept as a test shim
    /// over [`prune_tail`].
    fn prune_column(x: &SparseVec, epsilon: f64) -> (SparseVec, usize) {
        let mut rows: Vec<u32> = x.indices().iter().map(|&i| i as u32).collect();
        let mut vals = x.values().to_vec();
        let mut scratch = PruneScratch::default();
        let dropped = prune_tail(&mut rows, &mut vals, 0, epsilon, &mut scratch);
        let rows = rows.into_iter().map(|i| i as usize).collect();
        (SparseVec::from_sorted(x.dim(), rows, vals), dropped)
    }

    /// Reusable workspace of [`prune_tail_reference`].
    #[derive(Default)]
    struct ReferenceScratch {
        mags: Vec<f64>,
        order: Vec<u32>,
        dropped: Vec<bool>,
    }

    /// The pruning rule before integer keys, kept unchanged as the oracle of
    /// [`prune_tail`]: doubling `total_cmp` selections from a first chunk of
    /// 8 count the dropped entries, an index selection under (magnitude
    /// ascending, index descending) picks them, and a mask compacts the
    /// column.
    fn prune_tail_reference(
        rows: &mut Vec<u32>,
        vals: &mut Vec<f64>,
        start: usize,
        epsilon: f64,
        scratch: &mut ReferenceScratch,
    ) -> usize {
        let k = rows.len() - start;
        if k == 0 || epsilon == 0.0 {
            return 0;
        }
        let tail = &vals[start..];
        let norm1: f64 = tail.iter().map(|v| v.abs()).sum();
        if norm1 == 0.0 {
            return 0;
        }
        let budget = epsilon * norm1;

        // Phase 1 — count the dropped entries: scan magnitudes in ascending
        // order, accumulating while the running sum stays within the budget.
        // Selection exposes each next chunk of smallest magnitudes without
        // sorting the (much larger) kept remainder; chunks double so columns
        // that drop little stop after inspecting only a handful of entries.
        scratch.mags.clear();
        scratch.mags.extend(tail.iter().map(|v| v.abs()));
        let mags = &mut scratch.mags[..];
        let mut dropped = 0usize;
        let mut acc = 0.0f64;
        let mut lo = 0usize;
        let mut chunk = 8usize;
        'count: while lo < k {
            let hi = (lo + chunk).min(k);
            if hi < k {
                mags[lo..].select_nth_unstable_by(hi - lo - 1, |a, b| a.total_cmp(b));
            }
            mags[lo..hi].sort_unstable_by(|a, b| a.total_cmp(b));
            for idx in lo..hi {
                if acc + mags[idx] <= budget {
                    acc += mags[idx];
                    dropped += 1;
                } else {
                    break 'count;
                }
            }
            lo = hi;
            chunk *= 2;
        }
        if dropped == 0 {
            return 0;
        }
        // Phase 2 — identify *which* entries to drop: the `dropped` smallest
        // under (magnitude ascending, index descending), one more selection.
        let tail = &vals[start..];
        scratch.order.clear();
        scratch.order.extend(0..k as u32);
        scratch.order.select_nth_unstable_by(dropped - 1, |&a, &b| {
            tail[a as usize]
                .abs()
                .total_cmp(&tail[b as usize].abs())
                .then(b.cmp(&a))
        });
        scratch.dropped.clear();
        scratch.dropped.resize(k, false);
        for &p in &scratch.order[..dropped] {
            scratch.dropped[p as usize] = true;
        }

        // Phase 3 — compact in place; the kept entries stay in index order.
        let mut w = start;
        for r in 0..k {
            if !scratch.dropped[r] {
                rows[w] = rows[start + r];
                vals[w] = vals[start + r];
                w += 1;
            }
        }
        rows.truncate(w);
        vals.truncate(w);
        dropped
    }

    #[test]
    fn zero_epsilon_reproduces_exact_inverse_columns() {
        let a = grid_laplacian(4, 4, 1e-3);
        let chol = CholeskyFactor::factor(&a).expect("spd");
        let l = chol.factor_l();
        let z = SparseApproximateInverse::from_factor(l, 0.0, 0).expect("valid");
        for j in 0..a.ncols() {
            let exact = trisolve::solve_lower_unit_sparse(l, j);
            let diff = z.column(j).diff_norm1(&exact);
            assert!(diff < 1e-12, "column {j}: diff {diff}");
        }
    }

    #[test]
    fn columns_are_nonnegative_for_laplacian_factor() {
        // Lemma 1: Z = L^{-1} is nonnegative for Laplacian Cholesky factors,
        // and pruning only removes entries, so Z̃ must stay nonnegative.
        let a = grid_laplacian(5, 5, 1e-4);
        let chol = CholeskyFactor::factor(&a).expect("spd");
        let z = SparseApproximateInverse::from_factor(chol.factor_l(), 1e-3, 4).expect("valid");
        for j in 0..a.ncols() {
            assert!(z.column(j).values().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn theorem1_error_bound_holds() {
        // ‖z_p − z̃_p‖₁ / ‖z_p‖₁ ≤ depth(p) · ε for every column.
        let a = grid_laplacian(6, 6, 1e-3);
        let chol = CholeskyFactor::factor(&a).expect("spd");
        let l = chol.factor_l();
        let epsilon = 1e-2;
        let z = SparseApproximateInverse::from_factor(l, epsilon, 0).expect("valid");
        let depth = FilledGraphDepth::from_factor(l);
        for p in 0..a.ncols() {
            let exact = trisolve::solve_lower_unit_sparse(l, p);
            let err = z.column(p).diff_norm1(&exact) / exact.norm1();
            let bound = depth.depth(p) as f64 * epsilon + 1e-12;
            assert!(
                err <= bound,
                "column {p}: error {err} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn pruning_reduces_nnz_monotonically_in_epsilon() {
        let a = grid_laplacian(8, 8, 1e-3);
        let chol = CholeskyFactor::factor(&a).expect("spd");
        let l = chol.factor_l();
        let tight = SparseApproximateInverse::from_factor(l, 1e-4, 0).expect("valid");
        let loose = SparseApproximateInverse::from_factor(l, 1e-1, 0).expect("valid");
        assert!(loose.nnz() < tight.nnz());
        assert!(loose.stats().pruned_entries > 0);
        assert!(loose.nnz_ratio() < tight.nnz_ratio());
    }

    #[test]
    fn small_columns_are_kept_exactly() {
        // A diagonal factor has single-entry columns: no pruning can occur.
        let mut t = TripletMatrix::new(4, 4);
        for j in 0..4 {
            t.push(j, j, 2.0);
        }
        let z = SparseApproximateInverse::from_factor(&t.to_csc(), 0.5, 4).expect("valid");
        assert_eq!(z.stats().small_columns_kept, 4);
        for j in 0..4 {
            assert_eq!(z.column(j).nnz(), 1);
            assert!((z.column(j).get(j) - 0.5).abs() < 1e-15);
        }
    }

    #[test]
    fn column_distance_matches_effective_resistance_on_path() {
        // For a path graph grounded at node 0, the effective resistance
        // between adjacent nodes i and i+1 is 1 (unit conductances), and
        // Z = L^{-1} reproduces it through ‖z_p − z_q‖².
        let n = 6;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - 1 {
            t.add_laplacian_edge(i, i + 1, 1.0);
        }
        t.push(0, 0, 1e3); // strong ground so the matrix is well conditioned
        let a = t.to_csc();
        let chol = CholeskyFactor::factor(&a).expect("spd");
        let z = SparseApproximateInverse::from_factor(chol.factor_l(), 0.0, 0).expect("valid");
        // R(2, 3) should be close to 1 (exact up to the 1e-3 ground leakage).
        let r = z.column_distance_squared(2, 3);
        assert!((r - 1.0).abs() < 1e-2, "R = {r}");
    }

    #[test]
    fn column_dot_matches_full_sparse_dot() {
        let a = grid_laplacian(6, 6, 1e-3);
        let chol = CholeskyFactor::factor(&a).expect("spd");
        let z = SparseApproximateInverse::from_factor(chol.factor_l(), 1e-3, 2).expect("valid");
        let norms = z.column_norms_squared();
        for &(p, q) in &[(0, 35), (3, 3), (10, 20), (34, 35), (0, 1)] {
            let fast = z.column_dot(p, q);
            let full = z
                .column(p)
                .to_sparse_vec()
                .dot(&z.column(q).to_sparse_vec());
            assert!((fast - full).abs() < 1e-12, "({p},{q}): {fast} vs {full}");
            let d_fast = z.column_distance_squared_with_norms(p, q, &norms);
            let d_full = z.column_distance_squared(p, q);
            assert!(
                (d_fast - d_full).abs() <= 1e-9 * d_full.max(1.0),
                "({p},{q}): {d_fast} vs {d_full}"
            );
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        // Wide schedule (many independent chains) so the parallel sweep
        // really runs, plus a grid whose schedule exercises several levels.
        for a in [block_paths_laplacian(64, 6), grid_laplacian(12, 12, 1e-3)] {
            let chol = CholeskyFactor::factor(&a).expect("spd");
            let l = chol.factor_l();
            for epsilon in [0.0, 1e-4, 1e-2, 0.3] {
                let seq = SparseApproximateInverse::from_factor_with(
                    l,
                    epsilon,
                    2,
                    &BuildOptions::sequential(),
                )
                .expect("sequential");
                for threads in [2usize, 3, 4, 7] {
                    let par = SparseApproximateInverse::from_factor_with(
                        l,
                        epsilon,
                        2,
                        &BuildOptions {
                            threads,
                            parallel_threshold: 1,
                        },
                    )
                    .expect("parallel");
                    // Bitwise identity of the full arena, not approximate
                    // agreement: same pointers, same rows, same value bits.
                    assert_eq!(seq.col_ptr(), par.col_ptr(), "eps {epsilon} x{threads}");
                    assert_eq!(seq.arena_rows(), par.arena_rows());
                    let same_bits = seq
                        .arena_values()
                        .iter()
                        .zip(par.arena_values())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same_bits, "eps {epsilon} x{threads}: value bits differ");
                    assert_eq!(seq.stats(), par.stats());
                }
            }
        }
    }

    #[test]
    fn narrow_schedules_fall_back_to_the_sequential_sweep() {
        // A single path is a pure dependency chain: the width heuristic must
        // reject it, and the result must still be correct.
        let mut t = TripletMatrix::new(64, 64);
        for i in 0..63 {
            t.add_laplacian_edge(i, i + 1, 1.0);
        }
        t.push(0, 0, 1e-2);
        let a = t.to_csc();
        let l = CholeskyFactor::factor(&a).expect("spd");
        let seq = SparseApproximateInverse::from_factor_with(
            l.factor_l(),
            1e-3,
            2,
            &BuildOptions::sequential(),
        )
        .expect("sequential");
        let par = SparseApproximateInverse::from_factor_with(
            l.factor_l(),
            1e-3,
            2,
            &BuildOptions {
                threads: 8,
                parallel_threshold: 1,
            },
        )
        .expect("parallel request");
        assert_eq!(seq, par);
    }

    #[test]
    fn arena_layout_is_consistent() {
        let a = grid_laplacian(7, 7, 1e-3);
        let chol = CholeskyFactor::factor(&a).expect("spd");
        let z = SparseApproximateInverse::from_factor(chol.factor_l(), 1e-3, 2).expect("valid");
        let n = z.order();
        assert_eq!(z.col_ptr().len(), n + 1);
        assert_eq!(z.col_ptr()[0], 0);
        assert_eq!(z.col_ptr()[n], z.arena_rows().len());
        assert_eq!(z.arena_rows().len(), z.arena_values().len());
        assert_eq!(z.arena_rows().len(), z.nnz());
        for j in 0..n {
            let column = z.column(j);
            assert!(column.indices().windows(2).all(|w| w[0] < w[1]));
            assert!(column.indices().first().is_some_and(|&i| i as usize >= j));
        }
        // Round-trip through the arena parts.
        let clone = z.clone();
        let (dim, col_ptr, rows, vals, stats, epsilon) = clone.into_arena();
        let rebuilt =
            SparseApproximateInverse::from_arena(dim, col_ptr, rows, vals, stats, epsilon)
                .expect("valid arena");
        assert_eq!(rebuilt, z);
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn from_arena_rejects_inconsistent_buffers() {
        let ok = |f: &dyn Fn(&mut Vec<usize>, &mut Vec<u32>, &mut Vec<f64>)| {
            let mut col_ptr = vec![0usize, 1, 3];
            let mut rows = vec![0u32, 0, 1];
            let mut vals = vec![1.0, 0.5, 1.0];
            f(&mut col_ptr, &mut rows, &mut vals);
            SparseApproximateInverse::from_arena(
                2,
                col_ptr,
                rows,
                vals,
                ApproxInverseStats::default(),
                0.0,
            )
        };
        // The unmodified buffers describe column 1 with an above-diagonal
        // entry (row 0 < column 1): rejected.
        assert!(ok(&|_, _, _| {}).is_err());
        // Fixing the offending row index makes it valid.
        assert!(ok(&|_, rows, _| rows[1] = 1).is_err()); // duplicate row 1
        assert!(ok(&|cp, rows, vals| {
            *cp = vec![0, 1, 2];
            *rows = vec![0, 1];
            *vals = vec![1.0, 1.0];
        })
        .is_ok());
        // col_ptr length / span mismatches.
        assert!(ok(&|cp, _, _| cp.truncate(2)).is_err());
        assert!(ok(&|cp, _, _| cp[2] = 2).is_err());
        // rows/vals length mismatch.
        assert!(ok(&|_, _, vals| vals.truncate(2)).is_err());
        // Non-monotone col_ptr whose intermediate pointer overshoots the
        // buffer: must be a clean error, not a slice-range panic, even
        // though the endpoints look consistent.
        assert!(SparseApproximateInverse::from_arena(
            2,
            vec![0, 5, 3],
            vec![0, 1, 1],
            vec![1.0, 0.5, 1.0],
            ApproxInverseStats::default(),
            0.0,
        )
        .is_err());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn overflow_guard_rejects_orders_beyond_u32() {
        assert!(ensure_u32_indexable(0).is_ok());
        assert!(ensure_u32_indexable(144).is_ok());
        // The largest order the u32 arena can index is fine...
        assert!(ensure_u32_indexable(u32::MAX as usize).is_ok());
        // ...one past it is a typed error, not a truncated index.
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            ensure_u32_indexable(too_big),
            Err(EffresError::IndexOverflow { node_count }) if node_count == too_big
        ));
        // Every arena constructor guards before touching a buffer, so the
        // mock needs no multi-gigabyte graph.
        assert!(matches!(
            SparseApproximateInverse::from_arena(
                too_big,
                Vec::new(),
                Vec::new(),
                Vec::new(),
                ApproxInverseStats::default(),
                0.0,
            ),
            Err(EffresError::IndexOverflow { .. })
        ));
        assert!(ensure_u32_indexable(too_big)
            .unwrap_err()
            .to_string()
            .contains("u32 index space"));
    }

    #[test]
    fn footprint_reports_narrowed_index_bytes() {
        let a = grid_laplacian(6, 6, 1e-3);
        let chol = CholeskyFactor::factor(&a).expect("spd");
        let z = SparseApproximateInverse::from_factor(chol.factor_l(), 1e-3, 2).expect("valid");
        let f = z.footprint();
        assert_eq!(f.index_width_bytes, 4);
        assert_eq!(f.col_ptr_bytes, (z.order() + 1) * 8);
        assert_eq!(f.rows_bytes, z.nnz() * 4);
        assert_eq!(f.vals_bytes, z.nnz() * 8);
        assert_eq!(
            f.total_bytes(),
            f.col_ptr_bytes + f.rows_bytes + f.vals_bytes
        );
    }

    #[test]
    fn shared_pool_build_is_bit_identical_and_reusable() {
        // One pool, several builds: the pooled entry point must agree with
        // the sequential reference bit-for-bit, and the pool must survive
        // for the next build (it is the same set of workers throughout).
        let pool = effres_sparse::WorkerPool::new(3);
        for a in [block_paths_laplacian(48, 5), grid_laplacian(10, 10, 1e-3)] {
            let chol = CholeskyFactor::factor(&a).expect("spd");
            let l = chol.factor_l();
            let seq =
                SparseApproximateInverse::from_factor_with(l, 1e-3, 2, &BuildOptions::sequential())
                    .expect("sequential");
            let pooled = SparseApproximateInverse::from_factor_shared(
                Arc::new(l.clone()),
                1e-3,
                2,
                &BuildOptions {
                    threads: 0, // resolve from the shared pool
                    parallel_threshold: 1,
                },
                Some(&pool),
            )
            .expect("pooled");
            assert_eq!(seq, pooled);
        }
    }

    #[test]
    fn from_parts_rejects_entries_above_the_diagonal() {
        let columns = vec![
            SparseVec::from_sorted(2, vec![0], vec![1.0]),
            SparseVec::from_sorted(2, vec![0, 1], vec![0.5, 1.0]), // 0 < 1: invalid
        ];
        let stats = ApproxInverseStats::default();
        assert!(SparseApproximateInverse::from_parts(columns, stats, 0.0).is_err());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let a = grid_laplacian(2, 2, 1.0);
        let chol = CholeskyFactor::factor(&a).expect("spd");
        assert!(SparseApproximateInverse::from_factor(chol.factor_l(), 1.0, 0).is_err());
        assert!(SparseApproximateInverse::from_factor(chol.factor_l(), -0.1, 0).is_err());
        let rect = CscMatrix::zeros(2, 3);
        assert!(SparseApproximateInverse::from_factor(&rect, 0.1, 0).is_err());
        // Missing diagonal.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, -0.5);
        assert!(SparseApproximateInverse::from_factor(&t.to_csc(), 0.1, 0).is_err());
    }

    #[test]
    fn prune_column_respects_budget() {
        let x = SparseVec::from_sorted(6, vec![0, 1, 2, 3, 4], vec![10.0, 0.1, 0.2, 5.0, 0.05]);
        let (pruned, dropped) = prune_column(&x, 0.03);
        // Budget = 0.03 * 15.35 ≈ 0.46: can drop 0.05 + 0.1 + 0.2 = 0.35 but
        // not also 5.0.
        assert_eq!(dropped, 3);
        assert_eq!(pruned.nnz(), 2);
        assert!(pruned.get(0) == 10.0 && pruned.get(3) == 5.0);
        let (unchanged, zero_dropped) = prune_column(&x, 0.0);
        assert_eq!(zero_dropped, 0);
        assert_eq!(unchanged.nnz(), 5);
    }

    #[test]
    fn prune_selection_matches_full_sort_reference() {
        // Deterministic pseudo-random columns, including heavy ties: the
        // partial-selection pruning must agree entry-for-entry with the
        // straightforward sort-everything reference.
        let reference = |x: &SparseVec, epsilon: f64| -> (Vec<usize>, usize) {
            let mut mags: Vec<f64> = x.values().iter().map(|v| v.abs()).collect();
            mags.sort_unstable_by(|a, b| a.total_cmp(b));
            let budget = epsilon * x.norm1();
            let mut acc = 0.0;
            let mut dropped = 0;
            for &m in &mags {
                if acc + m <= budget {
                    acc += m;
                    dropped += 1;
                } else {
                    break;
                }
            }
            let keep = x.nnz() - dropped;
            (x.truncate_to(keep).indices().to_vec(), dropped)
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for case in 0..200 {
            let k = 1 + (next() % 60) as usize;
            let dim = k + (next() % 10) as usize;
            let mut indices: Vec<usize> = (0..dim).collect();
            // Keep the first k of a shuffled index set, sorted.
            for i in (1..dim).rev() {
                indices.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            indices.truncate(k);
            indices.sort_unstable();
            let values: Vec<f64> = (0..k)
                .map(|_| ((next() % 16) as f64) / 4.0 + 0.25) // many ties
                .collect();
            let x = SparseVec::from_sorted(dim, indices, values);
            let epsilon = ((next() % 90) as f64 + 1.0) / 100.0;
            let (expected_indices, expected_dropped) = reference(&x, epsilon);
            let (pruned, dropped) = prune_column(&x, epsilon);
            assert_eq!(dropped, expected_dropped, "case {case}");
            assert_eq!(pruned.indices(), &expected_indices[..], "case {case}");
        }
    }

    #[test]
    fn prune_with_integer_keys_matches_the_reference_rule() {
        // Seeded candidate columns behind a prefix of earlier columns, in
        // four value families: heavy ties, magnitudes spread over many
        // decades, a few large values over a sea of equal small ones (ties
        // at the cut), and signed values with zeros of both signs.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = PruneScratch::default();
        let mut reference_scratch = ReferenceScratch::default();
        let (mut ties_at_cut, mut emptied) = (0, 0);
        for case in 0..12_000u64 {
            let k = 1 + (next() % 500) as usize;
            let start = 1 + (next() % 24) as usize;
            let mut row = 0u32;
            let rows: Vec<u32> = (0..start + k)
                .map(|_| {
                    row += 1 + (next() % 4) as u32;
                    row
                })
                .collect();
            let vals: Vec<f64> = (0..start + k)
                .map(|_| match case % 4 {
                    0 => (next() % 16) as f64 / 4.0 + 0.25,
                    1 => {
                        (1.0 + (next() % 1024) as f64 / 1024.0) * 0.5f64.powi((next() % 40) as i32)
                    }
                    2 if next() % 8 == 0 => 1.0 + (next() % 100) as f64,
                    2 => 1e-3 * (1 + next() % 2) as f64,
                    _ => {
                        let v = (next() % 8) as f64 * 0.125;
                        if next() % 2 == 0 {
                            -v
                        } else {
                            v
                        }
                    }
                })
                .collect();
            // ε log-uniform over [1e-3, 0.9]; every 500th case uses 1, where
            // the whole column fits the budget and empties.
            let epsilon = if case % 500 == 499 {
                1.0
            } else {
                1e-3 * 900f64.powf((next() % 10_001) as f64 / 10_000.0)
            };
            // Odd cases start from an arbitrary hint; even ones carry the
            // previous case's, as the sweep does.
            if case % 2 == 1 {
                scratch.hint = (next() % 600) as usize;
            }
            let (mut rows_new, mut vals_new) = (rows.clone(), vals.clone());
            let (mut rows_ref, mut vals_ref) = (rows.clone(), vals.clone());
            let dropped = prune_tail(&mut rows_new, &mut vals_new, start, epsilon, &mut scratch);
            let expected = prune_tail_reference(
                &mut rows_ref,
                &mut vals_ref,
                start,
                epsilon,
                &mut reference_scratch,
            );
            assert_eq!(dropped, expected, "case {case}: dropped count");
            assert_eq!(rows_new, rows_ref, "case {case}: kept rows");
            assert!(
                vals_new
                    .iter()
                    .zip(&vals_ref)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "case {case}: kept value bits"
            );
            assert_eq!(
                &rows_new[..start],
                &rows[..start],
                "case {case}: prefix rows"
            );
            assert!(
                vals_new[..start]
                    .iter()
                    .zip(&vals[..start])
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "case {case}: prefix value bits"
            );
            let mut keys: Vec<u64> = vals[start..].iter().map(|v| v.abs().to_bits()).collect();
            keys.sort_unstable();
            if expected > 0 && expected < k && keys[expected] == keys[expected - 1] {
                ties_at_cut += 1;
            }
            emptied += usize::from(expected == k);
        }
        assert!(
            ties_at_cut >= 1_000,
            "only {ties_at_cut} cases tie at the cut"
        );
        assert!(emptied >= 10, "only {emptied} cases empty their column");
    }
}
