//! Sparse linear algebra kernel for the `effres` workspace.
//!
//! This crate provides, from scratch, every piece of sparse numerical linear
//! algebra the effective-resistance algorithms and the power-grid analysis
//! flow need:
//!
//! * sparse matrix storage: triplet ([`TripletMatrix`]), compressed sparse
//!   column ([`CscMatrix`]) and compressed sparse row ([`CsrMatrix`]);
//! * small dense matrices ([`DenseMatrix`]) used as reference implementations
//!   and for Schur complements of small blocks;
//! * fill-reducing orderings: minimum degree ([`amd::amd`]) and
//!   reverse Cuthill–McKee ([`rcm::rcm`]);
//! * symbolic analysis: elimination trees, postorder, column counts
//!   ([`etree`], [`symbolic`]);
//! * numeric factorizations: full sparse Cholesky ([`cholesky::CholeskyFactor`])
//!   and incomplete Cholesky with threshold dropping ([`ichol::IncompleteCholesky`]);
//! * sparse and dense triangular solves ([`trisolve`]);
//! * (preconditioned) conjugate gradients ([`cg`]).
//!
//! # Example
//!
//! ```
//! use effres_sparse::{TripletMatrix, cholesky::CholeskyFactor};
//!
//! # fn main() -> Result<(), effres_sparse::SparseError> {
//! // A small symmetric positive definite matrix.
//! let mut t = TripletMatrix::new(3, 3);
//! t.push(0, 0, 4.0);
//! t.push(1, 1, 5.0);
//! t.push(2, 2, 6.0);
//! t.push(1, 0, -1.0);
//! t.push(0, 1, -1.0);
//! t.push(2, 1, -2.0);
//! t.push(1, 2, -2.0);
//! let a = t.to_csc();
//! let chol = CholeskyFactor::factor(&a)?;
//! let x = chol.solve(&[1.0, 2.0, 3.0]);
//! let r = a.residual_inf_norm(&x, &[1.0, 2.0, 3.0]);
//! assert!(r < 1e-10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod amd;
pub mod cg;
pub mod cholesky;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod etree;
pub mod ichol;
pub mod permutation;
pub mod pool;
pub mod rcm;
pub mod schedule;
pub mod sparse_vec;
pub mod symbolic;
pub mod trisolve;
pub mod vecops;

pub use coo::TripletMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use permutation::Permutation;
pub use pool::WorkerPool;
pub use schedule::LevelSchedule;
pub use sparse_vec::SparseVec;
