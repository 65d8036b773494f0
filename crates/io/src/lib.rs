//! Dataset ingestion and persistence for the `effres` workspace.
//!
//! The paper's subject is effective resistances on *large real graphs*, and
//! this crate is how those graphs get into the system:
//!
//! * [`edge_list`] — SNAP-style whitespace edge lists (`u v [weight]`, `#`
//!   comments), with sparse node ids remapped densely;
//! * [`matrix_market`] — NIST Matrix Market coordinate files (`.mtx`), the
//!   SuiteSparse exchange format, read as undirected graphs;
//! * [`gzip`] — pure-std gzip decoding (and a stored-block encoder), so
//!   `.txt.gz` downloads feed straight into the parsers;
//! * [`dataset`] — the ingestion pipeline: file-type dispatch, duplicate and
//!   self-loop handling, largest-connected-component extraction and the
//!   [`dataset::IngestStats`] report;
//! * [`snapshot`] — a compact, checksummed binary format persisting a built
//!   [`EffectiveResistanceEstimator`](effres::EffectiveResistanceEstimator)
//!   (the pruned approximate-inverse columns and the permutation) so query
//!   services restart without refactorizing;
//! * [`paged`] — the out-of-core column store: queries read a v3 snapshot
//!   file in place, with its persisted norm table (v1/v2 files are refused),
//!   via positioned reads and an LRU page cache — no resident arena;
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]) and the
//!   positioned-read retry policy ([`RetryPolicy`]) behind the paged store's
//!   failure tolerance;
//! * [`pairs`] — query-pair files driving batched workloads.
//!
//! # Quick start
//!
//! ```
//! use effres::{EffectiveResistanceEstimator, EffresConfig};
//! use effres_io::dataset::{load_graph, IngestOptions};
//! use std::io::Write;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small SNAP-style file: comments, duplicates, two components.
//! let dir = std::env::temp_dir();
//! let path = dir.join("effres_io_doc_example.txt");
//! let mut f = std::fs::File::create(&path)?;
//! writeln!(f, "# toy graph")?;
//! writeln!(f, "0 1\n1 0\n1 2\n2 3\n3 0\n7 8")?;
//! drop(f);
//!
//! let ds = load_graph(&path, &IngestOptions::default())?;
//! // The {7, 8} component was dropped, the duplicate merged.
//! assert_eq!(ds.graph.node_count(), 4);
//! assert_eq!(ds.stats.duplicates, 1);
//! let est = EffectiveResistanceEstimator::build(&ds.graph, &EffresConfig::default())?;
//! assert!(est.query(0, 2)? > 0.0);
//! # std::fs::remove_file(&path).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod edge_list;
pub mod error;
pub mod fault;
pub mod gzip;
pub mod matrix_market;
pub mod paged;
pub mod pairs;
pub mod snapshot;

pub use dataset::{load_graph, Dataset, IngestOptions, IngestStats};
pub use error::IoError;
pub use fault::{FaultPlan, RetryPolicy};
pub use paged::{
    open_paged, open_paged_with_faults, PageCacheStats, PagedColumnStore, PagedOptions,
    PagedSnapshot, PinnedPages, PinnedReader, RowCodec, ScrubStats,
};
pub use snapshot::{load_snapshot, save_snapshot, save_snapshot_crashing_at, Snapshot};
