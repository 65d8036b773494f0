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

/// Indices per block of [`sparse_dot`]'s block intersection.
const BLOCK: usize = 8;

/// Dot product of two sparse vectors given as sorted parallel
/// `indices`/`values` slices — the shared kernel behind
/// [`crate::SparseVec::dot`] and the flat-arena column views of the `effres`
/// crate. Generic over the index width so both `usize`-indexed sparse
/// vectors and the arena's narrowed `u32` columns share one implementation.
///
/// A block intersection: the next eight indices of each side are compared
/// all-pairs without branching. When no index is shared, the block with the
/// smaller last index moves on (the last indices differ, or they would be
/// shared); when one is, the two-pointer merge runs inside the block pair
/// until one side leaves its block. The rest is merged. Supports that share
/// few indices skip most of the merge's unpredictable branches, and
/// supports that share most of them pay one compare per eight merge steps.
/// Every shared index still contributes the same product, added in
/// ascending index order from `+0.0`, so the result is bit-identical to the
/// plain merge.
///
/// It runs in two parts, which callers whose values cost a read can run
/// apart: [`sparse_meet`] walks the indices alone up to where the first
/// product lands, and [`sparse_dot_from`] sums the products from there.
pub fn sparse_dot<I: Copy + Ord>(ai: &[I], av: &[f64], bi: &[I], bv: &[f64]) -> f64 {
    match sparse_meet(ai, bi) {
        Some(at) => sparse_dot_from(ai, av, bi, bv, at),
        None => 0.0,
    }
}

/// The index half of [`sparse_dot`]: its block walk over `ai` and `bi`
/// without values, up to the first block pair that shares an index, or
/// into the merged tail up to its first shared index. Returns where the
/// values are first needed — the start for [`sparse_dot_from`] — or `None`
/// when the two supports share no index, whose dot is `+0.0`.
pub fn sparse_meet<I: Copy + Ord>(ai: &[I], bi: &[I]) -> Option<(usize, usize)> {
    let (mut ia, mut ib) = (0, 0);
    while let (Some(a), Some(b)) = (ai.get(ia..ia + BLOCK), bi.get(ib..ib + BLOCK)) {
        if shares_an_index(a, b) {
            return Some((ia, ib));
        }
        // Which block moves on is as unpredictable as the rows: no branch.
        let a_first = a[BLOCK - 1] < b[BLOCK - 1];
        ia += BLOCK * usize::from(a_first);
        ib += BLOCK * usize::from(!a_first);
    }
    while ia < ai.len() && ib < bi.len() {
        match ai[ia].cmp(&bi[ib]) {
            std::cmp::Ordering::Less => ia += 1,
            std::cmp::Ordering::Greater => ib += 1,
            std::cmp::Ordering::Equal => return Some((ia, ib)),
        }
    }
    None
}

/// The value half of [`sparse_dot`]: its walk from `(ia, ib)`, where
/// [`sparse_meet`] stopped, to the end. Every product lands at or after
/// that point, so the sum is [`sparse_dot`]'s, bit for bit.
pub fn sparse_dot_from<I: Copy + Ord>(
    ai: &[I],
    av: &[f64],
    bi: &[I],
    bv: &[f64],
    (mut ia, mut ib): (usize, usize),
) -> f64 {
    let mut s = 0.0;
    while let (Some(a), Some(b)) = (ai.get(ia..ia + BLOCK), bi.get(ib..ib + BLOCK)) {
        if shares_an_index(a, b) {
            let (sum, passed_a, passed_b) =
                merge_dot(s, (a, &av[ia..ia + BLOCK]), (b, &bv[ib..ib + BLOCK]));
            (s, ia, ib) = (sum, ia + passed_a, ib + passed_b);
            continue;
        }
        let a_first = a[BLOCK - 1] < b[BLOCK - 1];
        ia += BLOCK * usize::from(a_first);
        ib += BLOCK * usize::from(!a_first);
    }
    merge_dot(s, (&ai[ia..], &av[ia..]), (&bi[ib..], &bv[ib..])).0
}

/// Whether two blocks share an index: all pairs compared, no branch.
fn shares_an_index<I: Copy + Ord>(a: &[I], b: &[I]) -> bool {
    a.iter()
        .fold(false, |any, x| b.iter().fold(any, |any, y| any | (x == y)))
}

/// The two-pointer merge of [`sparse_dot`]: adds the product at every
/// shared index to `s`, in ascending index order, until one side runs out.
/// Returns the sum and how many entries of each side it passed.
fn merge_dot<I: Copy + Ord>(
    mut s: f64,
    (ai, av): (&[I], &[f64]),
    (bi, bv): (&[I], &[f64]),
) -> (f64, usize, usize) {
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
    (s, ia, ib)
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
    use proptest::prelude::*;

    /// The plain two-pointer merge `sparse_dot` was before the block
    /// intersection: the bitwise oracle.
    fn merged_dot<I: Copy + Ord>(ai: &[I], av: &[f64], bi: &[I], bv: &[f64]) -> f64 {
        let mut s = 0.0;
        let (mut ia, mut ib) = (0, 0);
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

    /// Values of every sign and magnitude, zeros of both signs included,
    /// so that a product added out of order or twice changes the bits.
    fn value(k: usize) -> f64 {
        const VALUES: [f64; 9] = [1.5, -0.25, 0.0, 3.0e-7, -2.0, -0.0, 1.0e9, -1.0e-300, 0.1];
        VALUES[k % VALUES.len()] * (1.0 + k as f64 / 7.0)
    }

    /// Checks the block intersection against the merge, bitwise, with `u32`
    /// and `usize` indices.
    fn assert_block_dot_is_the_merge(ai: &[u32], bi: &[u32], shift: usize) {
        let av: Vec<f64> = (0..ai.len()).map(|k| value(k + shift)).collect();
        let bv: Vec<f64> = (0..bi.len()).map(|k| value(3 * k + shift + 1)).collect();
        let expected = merged_dot(ai, &av, bi, &bv).to_bits();
        assert_eq!(
            sparse_dot(ai, &av, bi, &bv).to_bits(),
            expected,
            "{ai:?} · {bi:?}"
        );
        let (au, bu): (Vec<usize>, Vec<usize>) = (
            ai.iter().map(|&i| i as usize).collect(),
            bi.iter().map(|&i| i as usize).collect(),
        );
        assert_eq!(sparse_dot(&au, &av, &bu, &bv).to_bits(), expected);
        // The index walk stops at or before the first shared index of
        // either side, and finds one iff there is one.
        let shared: Vec<(usize, usize)> = (0..ai.len())
            .filter_map(|ka| bi.binary_search(&ai[ka]).ok().map(|kb| (ka, kb)))
            .collect();
        match (sparse_meet(ai, bi), shared.first()) {
            (None, None) => {}
            (Some((ia, ib)), Some(&(ka, kb))) => {
                assert!(ia <= ka && ib <= kb, "{ai:?} · {bi:?}: met at {ia}, {ib}")
            }
            (met, first) => panic!("{ai:?} · {bi:?}: met {met:?}, first shared {first:?}"),
        }
        assert_eq!(
            sparse_dot(bi, &bv, ai, &av).to_bits(),
            merged_dot(bi, &bv, ai, &av).to_bits()
        );
    }

    #[test]
    fn block_dot_is_the_merge_on_every_shape_up_to_25_entries() {
        let evens = |len: u32| (0..len).map(|k| 2 * k).collect::<Vec<u32>>();
        let odds = |len: u32| (0..len).map(|k| 2 * k + 1).collect::<Vec<u32>>();
        // Rows `4k + 1` plus the rows at entries 7, 8, 15, 16, 23 and 24 of
        // `evens` (the last and first rows of its blocks), which land off
        // the diagonal of `b`'s blocks.
        let edges = |len: u32| {
            let edge = |row: &u32| [14, 16, 30, 32, 46, 48].contains(row);
            let rows = (0..).filter(|row| row % 4 == 1 || edge(row));
            rows.take(len as usize).collect::<Vec<u32>>()
        };
        for len_a in 0..=25u32 {
            for len_b in 0..=25u32 {
                let shapes = [
                    // Identical (or one a prefix of the other).
                    ((0..len_a).collect(), (0..len_b).collect()),
                    // Disjoint ranges.
                    ((0..len_a).collect(), (100..100 + len_b).collect()),
                    // Interleaved, never equal.
                    (evens(len_a), odds(len_b)),
                    // Multiples of three against evens: every sixth row is
                    // shared, off the diagonal, and the blocks of `a` end
                    // first, so the merge leaves `b`'s blocks midway.
                    (evens(len_a), (0..len_b).map(|k| 3 * k).collect()),
                    // Rows `4k + 1`, every fifth moved to the even row `4k`:
                    // a block of `b` shares nothing with the first block of
                    // `a`, waits for the next one, and shares a row with it.
                    (
                        evens(len_a),
                        (0..len_b).map(|k| 4 * k + u32::from(k % 5 != 4)).collect(),
                    ),
                    // Matches on block edges.
                    (evens(len_a), edges(len_b)),
                    // Equal block maxima: entry 7 of every block of `b` is
                    // the last row of the matching block of `a`, so the
                    // merge leaves both blocks at once.
                    (
                        evens(len_a),
                        (0..len_b).map(|k| 2 * k + u32::from(k % 8 != 7)).collect(),
                    ),
                ];
                for (shift, (ai, bi)) in shapes.iter().enumerate() {
                    assert_block_dot_is_the_merge(ai, bi, shift);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn block_dot_is_the_merge_on_random_supports(
            (raw_a, raw_b) in (
                proptest::collection::vec(any::<u32>(), 0..26),
                proptest::collection::vec(any::<u32>(), 0..26),
            ),
            (universe, shift) in (1u32..64, 0usize..9),
        ) {
            // Sorted distinct rows from a small universe, so shared rows,
            // equal block maxima and block-edge matches are all common.
            let rows = |raw: Vec<u32>| {
                let mut rows: Vec<u32> = raw.into_iter().map(|r| r % universe).collect();
                rows.sort_unstable();
                rows.dedup();
                rows
            };
            assert_block_dot_is_the_merge(&rows(raw_a), &rows(raw_b), shift);
        }
    }

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
