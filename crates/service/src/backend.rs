//! Backends the query engine can serve from.
//!
//! A [`ResistanceBackend`] bundles what a serving deployment actually ships:
//! a [`ColumnStore`] holding the columns of `Z̃`, the fill-reducing
//! permutation mapping node ids onto columns, the `‖z̃_j‖²` norm table every
//! answer reads, and whether there is a paged store to schedule batches
//! over. The engine is generic over it, so the same batching, pair cache,
//! scratch reuse and worker-pool fan-out serve:
//!
//! * [`EffectiveResistanceEstimator`] — the **resident** backend: the arena
//!   is in memory, the norm table is computed once (or loaded with a v3 or
//!   v4 snapshot), and every query is a single suffix dot product;
//! * [`PagedSnapshot`] — the **out-of-core** backend: columns live in a v3
//!   or v4 snapshot file behind a page cache, and the norm table is the
//!   file's persisted norms block.

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

    /// The `‖z̃_j‖²` table in the permuted domain, summed in index order:
    /// resident stores sweep data that is already in memory (once,
    /// memoized), and paged snapshots load the file's persisted norms
    /// block. The table comes behind an [`Arc`] so backend, store and engine
    /// share one copy of the `8n` bytes.
    fn norms(&self) -> Arc<Vec<f64>>;

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

    fn norms(&self) -> Arc<Vec<f64>> {
        self.column_norms_shared()
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

    fn norms(&self) -> Arc<Vec<f64>> {
        Arc::clone(self.store.norms())
    }

    fn paged_store(&self) -> Option<&PagedColumnStore> {
        Some(&self.store)
    }
}
