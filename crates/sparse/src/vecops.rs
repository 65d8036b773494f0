//! Small dense-vector helpers shared across the crate.
//!
//! These are deliberately plain functions over slices so they can be reused
//! by every solver and factorization without pulling in a vector type.

/// Dot product of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// 1-norm (sum of absolute values) of a slice.
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Infinity norm (maximum absolute value) of a slice.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scale a vector in place: `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Element-wise difference `x - y` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Dot product of two sparse vectors given as sorted parallel
/// `indices`/`values` slices — the shared merge kernel behind
/// [`crate::SparseVec::dot`] and the flat-arena column views of the `effres`
/// crate. Generic over the index width so both `usize`-indexed sparse
/// vectors and the arena's narrowed `u32` columns share one implementation.
pub fn sparse_dot<I: Copy + Ord>(ai: &[I], av: &[f64], bi: &[I], bv: &[f64]) -> f64 {
    let mut s = 0.0;
    let mut ia = 0;
    let mut ib = 0;
    while ia < ai.len() && ib < bi.len() {
        match ai[ia].cmp(&bi[ib]) {
            std::cmp::Ordering::Less => ia += 1,
            std::cmp::Ordering::Greater => ib += 1,
            std::cmp::Ordering::Equal => {
                s += av[ia] * bv[ib];
                ia += 1;
                ib += 1;
            }
        }
    }
    s
}

/// Runs the union merge of two sorted sparse vectors, feeding `visit` with
/// the pair of values at every index where either vector is nonzero (zero
/// for the absent side). The reduction behind the sparse distance and
/// difference norms. Generic over the index width (see [`sparse_dot`]).
fn sparse_union_fold<I: Copy + Ord>(
    ai: &[I],
    av: &[f64],
    bi: &[I],
    bv: &[f64],
    mut visit: impl FnMut(f64, f64),
) {
    let mut ia = 0;
    let mut ib = 0;
    while ia < ai.len() && ib < bi.len() {
        match ai[ia].cmp(&bi[ib]) {
            std::cmp::Ordering::Less => {
                visit(av[ia], 0.0);
                ia += 1;
            }
            std::cmp::Ordering::Greater => {
                visit(0.0, bv[ib]);
                ib += 1;
            }
            std::cmp::Ordering::Equal => {
                visit(av[ia], bv[ib]);
                ia += 1;
                ib += 1;
            }
        }
    }
    // Once one side is exhausted the remainder needs no index comparisons:
    // drain it in a tight loop (this is the hot exit for the estimator's
    // lower-triangular columns, whose supports often barely overlap).
    for &a in &av[ia..] {
        visit(a, 0.0);
    }
    for &b in &bv[ib..] {
        visit(0.0, b);
    }
}

/// Squared Euclidean distance between two sparse vectors given as sorted
/// parallel `indices`/`values` slices. Generic over the index width (see
/// [`sparse_dot`]).
pub fn sparse_distance_squared<I: Copy + Ord>(ai: &[I], av: &[f64], bi: &[I], bv: &[f64]) -> f64 {
    let mut s = 0.0;
    sparse_union_fold(ai, av, bi, bv, |a, b| {
        let d = a - b;
        s += d * d;
    });
    s
}

/// 1-norm of the difference of two sparse vectors given as sorted parallel
/// `indices`/`values` slices. Generic over the index width (see
/// [`sparse_dot`]).
pub fn sparse_diff_norm1<I: Copy + Ord>(ai: &[I], av: &[f64], bi: &[I], bv: &[f64]) -> f64 {
    let mut s = 0.0;
    sparse_union_fold(ai, av, bi, bv, |a, b| s += (a - b).abs());
    s
}

/// Maximum absolute difference between two vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    x.iter()
        .zip(y)
        .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm1(&x), 7.0);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
    }

    #[test]
    fn axpy_scale_sub() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
        assert_eq!(sub(&y, &x), vec![5.0, 10.0]);
        assert_eq!(max_abs_diff(&y, &x), 10.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms_of_empty_vector_are_zero() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm1(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn sparse_merges_match_dense_reference() {
        let (ai, av) = (vec![0usize, 2, 4], vec![1.0, 2.0, 3.0]);
        let (bi, bv) = (vec![1usize, 2], vec![-1.0, 5.0]);
        let dense = |i: &[usize], v: &[f64]| {
            let mut out = vec![0.0; 5];
            for (&idx, &val) in i.iter().zip(v) {
                out[idx] = val;
            }
            out
        };
        let (da, db) = (dense(&ai, &av), dense(&bi, &bv));
        let d2: f64 = da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)).sum();
        let d: f64 = da.iter().zip(&db).map(|(x, y)| x * y).sum();
        let l1: f64 = da.iter().zip(&db).map(|(x, y)| (x - y).abs()).sum();
        assert_eq!(sparse_dot(&ai, &av, &bi, &bv), d);
        assert_eq!(sparse_distance_squared(&ai, &av, &bi, &bv), d2);
        assert_eq!(sparse_diff_norm1(&ai, &av, &bi, &bv), l1);
        // Empty operands short-circuit to the other side's contribution.
        assert_eq!(sparse_dot(&[], &[], &bi, &bv), 0.0);
        assert_eq!(sparse_diff_norm1(&[], &[], &bi, &bv), 6.0);
    }
}
