//! Effective resistances on large graphs via a sparse approximate inverse of
//! the Cholesky factor.
//!
//! This crate implements the DATE 2023 paper *"Computing Effective
//! Resistances on Large Graphs Based on Approximate Inverse of Cholesky
//! Factor"* (Liu & Yu):
//!
//! * [`approx_inverse`] — Alg. 2: a sparse approximation `Z̃ ≈ L⁻¹` of the
//!   inverse of a (possibly incomplete) Cholesky factor, built column by
//!   column with 1-norm controlled pruning;
//! * [`column_store`] — the [`column_store::ColumnStore`]
//!   abstraction the query kernels are generic over, so the same kernels
//!   serve the resident CSC arena and out-of-core (paged, disk-backed)
//!   column stores;
//! * [`depth`] — the filled-graph depth of Eq. (11), which bounds the column
//!   error (Theorem 1);
//! * [`estimator`] — Alg. 3: the end-to-end effective-resistance engine
//!   (incomplete Cholesky → approximate inverse → `R(p,q) ≈ ‖z̃_p − z̃_q‖²`);
//! * [`exact`] — exact effective resistances through a full sparse Cholesky
//!   factorization (the accuracy reference of the experiments);
//! * [`random_projection`] — the random-projection baseline of
//!   Mavroforakis et al. (WWW'15), the paper's main competitor;
//! * [`stats`] — error metrics used to produce the tables of the paper;
//! * [`centrality`] — spanning-edge centrality and current-flow closeness,
//!   the graph-mining applications the paper's introduction motivates.
//!
//! # Quick start
//!
//! ```
//! use effres::prelude::*;
//! use effres_graph::generators;
//!
//! # fn main() -> Result<(), effres::EffresError> {
//! let graph = generators::grid_2d(16, 16, 1.0, 2.0, 7)?;
//! let estimator = EffectiveResistanceEstimator::build(&graph, &EffresConfig::default())?;
//! let exact = ExactEffectiveResistance::build(&graph, 1.0)?;
//! // Query the effective resistance across one edge in the middle of the mesh.
//! let approx = estimator.query(100, 101)?;
//! let truth = exact.query(100, 101)?;
//! assert!((approx - truth).abs() / truth < 0.05);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod approx_inverse;
pub mod centrality;
pub mod column_store;
pub mod config;
pub mod depth;
pub mod error;
pub mod estimator;
pub mod exact;
pub mod random_projection;
pub mod stats;

pub use approx_inverse::SparseApproximateInverse;
pub use config::{BuildOptions, EffresConfig, Ordering};
pub use effres_sparse::WorkerPool;
pub use error::{BusyReason, CancelReason, EffresError};
pub use estimator::EffectiveResistanceEstimator;
pub use exact::ExactEffectiveResistance;
pub use random_projection::{RandomProjectionEstimator, RandomProjectionOptions, SolverKind};

pub use column_store::{ColumnStore, HubScratch, KernelStats, RowsFirst};

/// Convenient glob import of the main types.
pub mod prelude {
    pub use crate::approx_inverse::SparseApproximateInverse;
    pub use crate::column_store::{ColumnStore, HubScratch, KernelStats, RowsFirst};
    pub use crate::config::{BuildOptions, EffresConfig, Ordering};
    pub use crate::error::{BusyReason, CancelReason, EffresError};
    pub use crate::estimator::EffectiveResistanceEstimator;
    pub use crate::exact::ExactEffectiveResistance;
    pub use crate::random_projection::{
        RandomProjectionEstimator, RandomProjectionOptions, SolverKind,
    };
    pub use crate::WorkerPool;
}
