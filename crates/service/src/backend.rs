//! Backends the query engine can serve from.
//!
//! A [`ResistanceBackend`] bundles what a serving deployment actually ships:
//! a [`ColumnStore`] holding the columns of `Z̃`, the fill-reducing
//! permutation mapping node ids onto columns, and the policy facts the
//! engine needs (is a precomputed norm table affordable? is there a paged
//! store to schedule batches over?). The engine is generic over it, so the
//! same batching, pair cache, scratch reuse and worker-pool fan-out serve:
//!
//! * [`EffectiveResistanceEstimator`] — the **resident** backend: the arena
//!   is in memory, so the engine precomputes the `‖z̃_j‖²` table once and
//!   every query is a single suffix dot product;
//! * [`PagedSnapshot`] — the **out-of-core** backend: columns live in a v3
//!   snapshot file behind a page cache, and the engine reads per-column
//!   norms from the file's persisted norm table. v2 files have no table and
//!   computing one would cost a full file scan at boot, so for them the
//!   engine reads norms off the decoded pages instead (bit-identical by the
//!   [`ColumnStore`] contract).

use effres::column_store::ColumnStore;
use effres::EffectiveResistanceEstimator;
use effres_io::{PagedColumnStore, PagedSnapshot};
use effres_sparse::Permutation;
use std::sync::Arc;

/// A complete source of effective-resistance answers: columns plus the
/// permutation into them.
///
/// The `Send + Sync + 'static` bound is what lets one `Arc`'d backend fan
/// out across worker-pool jobs.
pub trait ResistanceBackend: Send + Sync + 'static {
    /// The column store queries read from.
    type Store: ColumnStore + Send + Sync;

    /// The column store.
    fn store(&self) -> &Self::Store;

    /// The fill-reducing permutation (original node id → column of `Z̃`).
    fn permutation(&self) -> &Permutation;

    /// Number of nodes served.
    fn node_count(&self) -> usize;

    /// A precomputed `‖z̃_j‖²` table in the permuted domain, if this backend
    /// can produce one without paying per-query I/O for it: resident stores
    /// sweep data that is already in memory (once, memoized), and paged v3
    /// snapshots load the table straight from the file's persisted norms
    /// block. The table comes behind an [`Arc`] so backend, store and engine
    /// share one copy of the `8n` bytes. Backends that return `None` (paged
    /// v2 files, whose table would stream the whole file at boot) make the
    /// engine fall back to [`ColumnStore::column_norm_squared`] per query,
    /// which the trait contract pins to the same bits.
    fn precomputed_norms(&self) -> Option<Arc<Vec<f64>>>;

    /// The paged column store behind this backend, for backends that page
    /// columns in from a snapshot file; resident backends return `None`.
    /// This is the engine's one backend hook: batches run through
    /// [`QueryEngine::execute_with`](crate::QueryEngine::execute_with) take
    /// the locality [`scheduler`](crate::scheduler) over this store (and
    /// the hub-sorted runner without one), the engine puts an
    /// [`AdmissionLedger`](crate::admission::AdmissionLedger) of its page
    /// budget in front of the scheduler, and page-cache counters and the
    /// server's integrity scrubber read it.
    fn paged_store(&self) -> Option<&PagedColumnStore> {
        None
    }

    /// `"paged"` for backends with a [`paged_store`](Self::paged_store),
    /// `"resident"` otherwise.
    fn kind(&self) -> &'static str {
        if self.paged_store().is_some() {
            "paged"
        } else {
            "resident"
        }
    }
}

impl ResistanceBackend for EffectiveResistanceEstimator {
    type Store = effres::approx_inverse::SparseApproximateInverse;

    fn store(&self) -> &Self::Store {
        self.approximate_inverse()
    }

    fn permutation(&self) -> &Permutation {
        EffectiveResistanceEstimator::permutation(self)
    }

    fn node_count(&self) -> usize {
        EffectiveResistanceEstimator::node_count(self)
    }

    fn precomputed_norms(&self) -> Option<Arc<Vec<f64>>> {
        Some(self.column_norms_shared())
    }
}

impl ResistanceBackend for PagedSnapshot {
    type Store = PagedColumnStore;

    fn store(&self) -> &Self::Store {
        &self.store
    }

    fn permutation(&self) -> &Permutation {
        &self.permutation
    }

    fn node_count(&self) -> usize {
        PagedSnapshot::node_count(self)
    }

    /// v3 snapshots persist the table, so the paged engine gets it resident
    /// for free (`f64 × n`, part of the cold-start state — shared with the
    /// store, not copied) and queries pay zero page traffic for the norm
    /// terms. v2 files return `None` — computing the table would read every
    /// value block at boot, defeating the paged cold start — and per-column
    /// norms come off the decoded pages instead.
    fn precomputed_norms(&self) -> Option<Arc<Vec<f64>>> {
        self.store.resident_norms_shared()
    }

    fn paged_store(&self) -> Option<&PagedColumnStore> {
        Some(&self.store)
    }
}
