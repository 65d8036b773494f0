//! Incomplete Cholesky factorization with threshold dropping (ICT).
//!
//! The paper's Alg. 3 uses an incomplete Cholesky factorization of the
//! grounded Laplacian (drop tolerance 1e-3 in the experiments) as the input
//! of the approximate-inverse construction. This module implements a
//! left-looking column factorization that drops computed entries whose
//! magnitude falls below `drop_tolerance` times the 1-norm of the
//! corresponding column of `A`, mirroring MATLAB's `ichol(..., 'ict')`.
//!
//! For the symmetric diagonally dominant M-matrices arising from graph
//! Laplacians the incomplete factorization cannot break down (Meijerink–van
//! der Vorst); a small diagonal compensation is applied defensively if a
//! nonpositive pivot is ever produced by round-off.

use crate::csc::CscMatrix;
use crate::error::SparseError;

/// Options controlling the incomplete Cholesky factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcholOptions {
    /// Relative drop tolerance: an entry of the working column is dropped if
    /// its magnitude is at most `drop_tolerance * ||A(:, j)||_1`.
    ///
    /// A value of `0.0` keeps every entry and reproduces the full
    /// factorization (with its fill).
    pub drop_tolerance: f64,
    /// Hard cap on the number of off-diagonal entries kept per column
    /// (`usize::MAX` disables the cap). The largest-magnitude entries win.
    pub max_fill_per_column: usize,
    /// Multiplicative diagonal boost applied when a nonpositive pivot is
    /// encountered; the pivot is replaced by
    /// `breakdown_shift * |A(j, j)|` (plus a tiny absolute floor).
    pub breakdown_shift: f64,
}

impl Default for IcholOptions {
    fn default() -> Self {
        IcholOptions {
            drop_tolerance: 1e-3,
            max_fill_per_column: usize::MAX,
            breakdown_shift: 1e-3,
        }
    }
}

impl IcholOptions {
    /// Creates options with the given drop tolerance and defaults elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidParameter`] for negative or non-finite
    /// tolerances.
    pub fn with_drop_tolerance(drop_tolerance: f64) -> Result<Self, SparseError> {
        if !(drop_tolerance >= 0.0) || !drop_tolerance.is_finite() {
            return Err(SparseError::InvalidParameter {
                name: "drop_tolerance",
                message: "must be finite and nonnegative",
            });
        }
        Ok(IcholOptions {
            drop_tolerance,
            ..IcholOptions::default()
        })
    }
}

/// Summary statistics of an incomplete factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IcholStats {
    /// Number of entries dropped by the threshold rule.
    pub dropped: usize,
    /// Number of columns whose pivot needed a breakdown shift.
    pub shifted_pivots: usize,
    /// Number of nonzeros in the factor (diagonal included).
    pub factor_nnz: usize,
}

/// An incomplete Cholesky factor `L` with `L L^T ≈ A`.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    l: CscMatrix,
    stats: IcholStats,
}

impl IncompleteCholesky {
    /// Computes the incomplete factorization of a sparse symmetric matrix
    /// using the given options. Only the lower triangle of `a` is referenced.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular input and
    /// [`SparseError::InvalidParameter`] for invalid options.
    pub fn factor(a: &CscMatrix, options: IcholOptions) -> Result<Self, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        if !(options.drop_tolerance >= 0.0) || !options.drop_tolerance.is_finite() {
            return Err(SparseError::InvalidParameter {
                name: "drop_tolerance",
                message: "must be finite and nonnegative",
            });
        }
        if !(options.breakdown_shift > 0.0) {
            return Err(SparseError::InvalidParameter {
                name: "breakdown_shift",
                message: "must be positive",
            });
        }
        let n = a.ncols();
        // 1-norms of the lower-triangular part of each column of A, the
        // reference magnitude of the drop rule (as in MATLAB's `ichol` with
        // the `ict` option).
        let mut col_norm1 = vec![0.0f64; n];
        for j in 0..n {
            col_norm1[j] = a
                .column(j)
                .filter(|&(i, _)| i >= j)
                .map(|(_, v)| v.abs())
                .sum();
        }

        // Growing factor columns.
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut col_vals: Vec<Vec<f64>> = vec![Vec::new(); n];

        // Linked lists for the left-looking update: for each row j,
        // `row_heads[j]` is a list of columns k < j whose next unprocessed
        // entry has row index j. `col_next[k]` is the position of that entry
        // within column k.
        let mut row_heads: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut col_next: Vec<usize> = vec![0; n];

        // Dense workspace.
        let mut w = vec![0.0f64; n];
        let mut pattern: Vec<usize> = Vec::new();
        let mut in_pattern = vec![false; n];

        let mut stats = IcholStats::default();

        for j in 0..n {
            // Scatter the lower part of column j of A.
            pattern.clear();
            for (i, v) in a.column(j) {
                if i >= j {
                    if !in_pattern[i] {
                        in_pattern[i] = true;
                        pattern.push(i);
                    }
                    w[i] += v;
                }
            }
            // Left-looking updates from all columns k with L(j, k) != 0.
            let updaters = std::mem::take(&mut row_heads[j]);
            for k in updaters {
                let pos = col_next[k];
                let ljk = col_vals[k][pos];
                // Apply w(j:n) -= ljk * L(j:n, k).
                for (p, &i) in col_rows[k].iter().enumerate().skip(pos) {
                    if !in_pattern[i] {
                        in_pattern[i] = true;
                        pattern.push(i);
                        w[i] = 0.0;
                    }
                    w[i] -= ljk * col_vals[k][p];
                }
                // Advance column k's cursor to its next row and re-enqueue.
                if pos + 1 < col_rows[k].len() {
                    col_next[k] = pos + 1;
                    row_heads[col_rows[k][pos + 1]].push(k);
                }
            }

            // Collect the off-diagonal entries of the working column and
            // split them into kept and dropped sets.
            let threshold = options.drop_tolerance * col_norm1[j];
            let mut kept: Vec<(usize, f64)> = Vec::new();
            let pivot_accum = w[j];
            for &i in &pattern {
                in_pattern[i] = false;
                let v = w[i];
                w[i] = 0.0;
                if i == j {
                    continue;
                }
                if v.abs() > threshold {
                    kept.push((i, v));
                } else {
                    stats.dropped += 1;
                }
            }
            if kept.len() > options.max_fill_per_column {
                kept.sort_unstable_by(|a, b| {
                    b.1.abs()
                        .partial_cmp(&a.1.abs())
                        .expect("factor entries are finite")
                });
                stats.dropped += kept.len() - options.max_fill_per_column;
                kept.truncate(options.max_fill_per_column);
            }
            kept.sort_unstable_by_key(|&(i, _)| i);

            let mut d = pivot_accum;
            if d <= 0.0 {
                let shift = options.breakdown_shift * a.get(j, j).abs() + f64::EPSILON;
                d = shift.max(f64::EPSILON);
                stats.shifted_pivots += 1;
            }
            let diag = d.sqrt();

            // Store column j: diagonal first, then the scaled kept off-diagonals.
            col_rows[j].push(j);
            col_vals[j].push(diag);
            for (i, v) in kept {
                col_rows[j].push(i);
                col_vals[j].push(v / diag);
            }
            // Register column j for the left-looking update of its first
            // off-diagonal row.
            if col_rows[j].len() > 1 {
                col_next[j] = 1;
                row_heads[col_rows[j][1]].push(j);
            }
        }

        // Assemble the CSC factor.
        let mut colptr = vec![0usize; n + 1];
        for j in 0..n {
            colptr[j + 1] = colptr[j] + col_rows[j].len();
        }
        let mut rowidx = Vec::with_capacity(colptr[n]);
        let mut values = Vec::with_capacity(colptr[n]);
        for j in 0..n {
            rowidx.extend_from_slice(&col_rows[j]);
            values.extend_from_slice(&col_vals[j]);
        }
        stats.factor_nnz = rowidx.len();
        let l = CscMatrix::from_raw(n, n, colptr, rowidx, values)?;
        Ok(IncompleteCholesky { l, stats })
    }

    /// Computes the incomplete factorization with default options and the
    /// given drop tolerance.
    ///
    /// # Errors
    ///
    /// See [`IncompleteCholesky::factor`].
    pub fn with_drop_tolerance(a: &CscMatrix, drop_tolerance: f64) -> Result<Self, SparseError> {
        Self::factor(a, IcholOptions::with_drop_tolerance(drop_tolerance)?)
    }

    /// The incomplete lower-triangular factor.
    pub fn factor_l(&self) -> &CscMatrix {
        &self.l
    }

    /// Consumes the factorization and returns the factor.
    pub fn into_factor(self) -> CscMatrix {
        self.l
    }

    /// Statistics gathered during the factorization.
    pub fn stats(&self) -> IcholStats {
        self.stats
    }

    /// Number of nonzeros in the factor.
    pub fn nnz(&self) -> usize {
        self.l.nnz()
    }

    /// Applies the preconditioner: solves `L L^T z = r`.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` differs from the factor order.
    pub fn apply(&self, r: &[f64]) -> Vec<f64> {
        let mut z = r.to_vec();
        crate::trisolve::solve_cholesky(&self.l, &mut z);
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::CholeskyFactor;
    use crate::coo::TripletMatrix;

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
        for i in 0..n {
            t.push(i, i, shift);
        }
        t.to_csc()
    }

    #[test]
    fn zero_drop_tolerance_reproduces_full_factor() {
        let a = grid_laplacian(4, 4, 0.3);
        let full = CholeskyFactor::factor(&a).expect("spd");
        let inc = IncompleteCholesky::with_drop_tolerance(&a, 0.0).expect("spd");
        assert!(
            inc.factor_l()
                .to_dense()
                .max_abs_diff(&full.factor_l().to_dense())
                < 1e-12
        );
        assert_eq!(inc.stats().dropped, 0);
        assert_eq!(inc.stats().shifted_pivots, 0);
    }

    #[test]
    fn dropping_reduces_fill() {
        let a = grid_laplacian(8, 8, 1e-3);
        let full = IncompleteCholesky::with_drop_tolerance(&a, 0.0).expect("spd");
        let dropped = IncompleteCholesky::with_drop_tolerance(&a, 0.05).expect("spd");
        assert!(dropped.nnz() < full.nnz());
        assert!(dropped.stats().dropped > 0);
    }

    #[test]
    fn factor_is_a_useful_preconditioner() {
        let a = grid_laplacian(6, 6, 1e-2);
        let inc = IncompleteCholesky::with_drop_tolerance(&a, 1e-3).expect("spd");
        // L L^T should approximate A: check the relative Frobenius error is small.
        let l = inc.factor_l();
        let llt = l.matmul(&l.transpose()).expect("shapes");
        let diff = llt.add_scaled(1.0, &a, -1.0).expect("same shape");
        let rel = diff.to_dense().frobenius_norm() / a.to_dense().frobenius_norm();
        assert!(rel < 0.05, "relative error {rel} too large");
    }

    #[test]
    fn max_fill_cap_is_respected() {
        let a = grid_laplacian(6, 6, 1e-3);
        let opts = IcholOptions {
            drop_tolerance: 0.0,
            max_fill_per_column: 2,
            ..IcholOptions::default()
        };
        let inc = IncompleteCholesky::factor(&a, opts).expect("spd");
        let l = inc.factor_l();
        for j in 0..l.ncols() {
            assert!(l.column_rows(j).len() <= 3, "column {j} exceeds cap");
        }
    }

    #[test]
    fn laplacian_factor_keeps_sign_structure() {
        // Lemma 1 requires positive diagonal and nonpositive off-diagonals.
        let a = grid_laplacian(5, 5, 1e-3);
        let inc = IncompleteCholesky::with_drop_tolerance(&a, 1e-2).expect("spd");
        let l = inc.factor_l();
        for j in 0..l.ncols() {
            for (i, v) in l.column(j) {
                if i == j {
                    assert!(v > 0.0);
                } else {
                    assert!(v <= 0.0);
                }
            }
        }
    }

    #[test]
    fn invalid_options_rejected() {
        let a = grid_laplacian(2, 2, 1.0);
        assert!(IcholOptions::with_drop_tolerance(-1.0).is_err());
        assert!(IcholOptions::with_drop_tolerance(f64::NAN).is_err());
        let bad = IcholOptions {
            drop_tolerance: 0.1,
            breakdown_shift: 0.0,
            ..IcholOptions::default()
        };
        assert!(IncompleteCholesky::factor(&a, bad).is_err());
    }

    #[test]
    fn rectangular_rejected() {
        let a = CscMatrix::zeros(2, 3);
        assert!(IncompleteCholesky::with_drop_tolerance(&a, 0.1).is_err());
    }
}
