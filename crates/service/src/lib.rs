//! Batched effective-resistance query service.
//!
//! The paper's algorithms turn a graph into an immutable query structure —
//! the pruned approximate inverse `Z̃` — that answers `R(p, q)` in
//! microseconds. This crate is the serving layer on top:
//!
//! * [`engine::QueryEngine`] — a thread-safe engine over an `Arc`-shared
//!   [`backend::ResistanceBackend`], fanning [`batch::QueryBatch`]es out
//!   onto a persistent [`WorkerPool`](effres::WorkerPool) (shareable with
//!   the estimator build) with reusable scratch column buffers. Every batch
//!   takes one path, [`QueryEngine::execute_with`], whose
//!   [`ExecOptions`] pick fail-fast or partial results
//!   ([`ExecMode`]) and an optional [`CancelToken`];
//!   [`QueryEngine::execute`] is the backend-independent reference path;
//! * [`backend::ResistanceBackend`] — the serving backends: the resident
//!   [`EffectiveResistanceEstimator`](effres::EffectiveResistanceEstimator)
//!   arena, or the out-of-core
//!   [`PagedSnapshot`](effres_io::PagedSnapshot) paging columns in from a
//!   v3 or v4 snapshot file (bit-identical answers either way). Its
//!   [`paged_store`](backend::ResistanceBackend::paged_store) hook picks
//!   the batch runner;
//! * [`scheduler`] — the locality scheduler paged batches run through:
//!   it clusters queries by the pages they touch, leases pin capacity out
//!   of the cache budget round by round and pins each chunk of queries
//!   once — same bits, a fraction of the I/O;
//! * [`cache::ShardedLru`] — a striped, four-way set-associative cache of
//!   recent pair results in front of the sparse kernel (one cache line per
//!   probe, LRU within each set);
//! * [`admission::AdmissionLedger`] — cross-batch admission control for the
//!   paged backend: concurrent scheduled batches lease page-cache pin
//!   capacity from one FIFO budget ledger, so many clients can run large
//!   batches at once without over-pinning the cache;
//! * [`metrics::LatencyHistogram`] — a streaming log-linear histogram for
//!   per-request latency (p50/p95/p99 without storing samples).
//!
//! The `effres-cli` binary (`load` / `build` / `query` / `batch` / `stats`
//! / `serve` / `bench-client`) lives in the `effres-server` crate, which
//! puts a TCP front-end over one shared [`engine::QueryEngine`]; see the
//! repository README for a walkthrough.
//!
//! # Quick start
//!
//! ```
//! use effres::{EffectiveResistanceEstimator, EffresConfig};
//! use effres_graph::generators;
//! use effres_service::{EngineOptions, QueryBatch, QueryEngine};
//!
//! # fn main() -> Result<(), effres::EffresError> {
//! let graph = generators::grid_2d(20, 20, 1.0, 1.0, 0)?;
//! let estimator = EffectiveResistanceEstimator::build(&graph, &EffresConfig::default())?;
//! let engine = QueryEngine::from_estimator(estimator);
//! let batch = QueryBatch::random(10_000, engine.node_count(), 42);
//! let result = engine.execute(&batch)?;
//! assert_eq!(result.values.len(), 10_000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod backend;
pub mod batch;
pub mod cache;
pub mod cancel;
pub mod engine;
pub mod metrics;
pub mod scheduler;

pub use admission::{AdmissionLedger, AdmissionStats, PinLease};
pub use backend::ResistanceBackend;
pub use batch::QueryBatch;
pub use cache::ShardedLru;
pub use cancel::CancelToken;
pub use engine::{
    BatchAbort, BatchResult, EngineOptions, ExecMode, ExecOptions, QueryEngine, ScheduleReport,
    ServiceStats,
};
pub use metrics::{HistogramSnapshot, LatencyHistogram, ServiceTimeEwma};

/// Compile-time audit that everything shared across query workers is
/// `Send + Sync`: the estimator and its constituents are plain owned data
/// with no interior mutability, and the engine itself only adds atomics and
/// mutex-guarded shards. If a future change introduces `Rc`, `Cell` or a raw
/// pointer anywhere in these types, this module stops compiling.
#[allow(dead_code)]
mod send_sync_audit {
    fn assert_send_sync<T: Send + Sync>() {}

    fn audit() {
        assert_send_sync::<effres::EffectiveResistanceEstimator>();
        assert_send_sync::<effres_io::PagedSnapshot>();
        assert_send_sync::<effres_io::PagedColumnStore>();
        assert_send_sync::<effres::WorkerPool>();
        assert_send_sync::<effres::approx_inverse::SparseApproximateInverse>();
        assert_send_sync::<effres_sparse::SparseVec>();
        assert_send_sync::<effres_sparse::CscMatrix>();
        assert_send_sync::<effres_sparse::Permutation>();
        assert_send_sync::<effres_graph::Graph>();
        assert_send_sync::<crate::cache::ShardedLru>();
        assert_send_sync::<crate::engine::QueryEngine>();
        assert_send_sync::<crate::batch::QueryBatch>();
        assert_send_sync::<crate::admission::AdmissionLedger>();
        assert_send_sync::<crate::cancel::CancelToken>();
        assert_send_sync::<crate::metrics::LatencyHistogram>();
        assert_send_sync::<crate::metrics::ServiceTimeEwma>();
    }
}
