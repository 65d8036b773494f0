//! Sparse vectors with sorted indices.
//!
//! [`SparseVec`] is the column representation used by the approximate-inverse
//! algorithm (Alg. 2 of the paper): each column of the approximate inverse is
//! a short sorted list of `(index, value)` pairs, and columns are combined by
//! scaled sparse accumulation.

use crate::vecops;

/// A sparse vector storing `(index, value)` pairs with strictly increasing indices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Creates an empty sparse vector of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        SparseVec {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates a sparse vector from sorted parallel arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length, indices are not strictly
    /// increasing, or an index is out of bounds.
    pub fn from_sorted(dim: usize, indices: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        if let Some(&last) = indices.last() {
            assert!(last < dim, "index out of bounds");
        }
        SparseVec {
            dim,
            indices,
            values,
        }
    }

    /// Creates a unit vector `e_i / scale` — i.e. a single entry `value` at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn single(dim: usize, index: usize, value: f64) -> Self {
        assert!(index < dim, "index out of bounds");
        SparseVec {
            dim,
            indices: vec![index],
            values: vec![value],
        }
    }

    /// Builds a sparse vector from a dense slice, keeping nonzero entries.
    pub fn from_dense(x: &[f64]) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in x.iter().enumerate() {
            if v != 0.0 {
                indices.push(i);
                values.push(v);
            }
        }
        SparseVec {
            dim: x.len(),
            indices,
            values,
        }
    }

    /// Dimension of the vector.
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

    /// Stored indices (strictly increasing).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices.iter().zip(&self.values).map(|(&i, &v)| (i, v))
    }

    /// Value at `index` (zero if not stored).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    pub fn get(&self, index: usize) -> f64 {
        assert!(index < self.dim, "index out of bounds");
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Converts to a dense vector.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            out[i] = v;
        }
        out
    }

    /// 1-norm (sum of absolute values).
    pub fn norm1(&self) -> f64 {
        vecops::norm1(&self.values)
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> f64 {
        vecops::norm2(&self.values)
    }

    /// Squared Euclidean norm.
    pub fn norm2_squared(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Squared Euclidean distance to another sparse vector of the same dimension.
    ///
    /// This is the kernel of the effective-resistance evaluation
    /// `R(p, q) ≈ ||z̃_p - z̃_q||²`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance_squared(&self, other: &SparseVec) -> f64 {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        vecops::sparse_distance_squared(&self.indices, &self.values, &other.indices, &other.values)
    }

    /// Dot product with another sparse vector of the same dimension.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        vecops::sparse_dot(&self.indices, &self.values, &other.indices, &other.values)
    }

    /// 1-norm of the difference with another sparse vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn diff_norm1(&self, other: &SparseVec) -> f64 {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        vecops::sparse_diff_norm1(&self.indices, &self.values, &other.indices, &other.values)
    }

    /// Keeps only the `keep` largest-magnitude entries, dropping the rest.
    ///
    /// This is the `trunc_k` operation of Alg. 2: entries are ranked by
    /// absolute value and the smallest ones are removed. Ties are broken in
    /// favour of keeping smaller indices so the result is deterministic.
    pub fn truncate_to(&self, keep: usize) -> SparseVec {
        if keep >= self.nnz() {
            return self.clone();
        }
        // Rank entries by |value| descending, index ascending.
        let mut order: Vec<usize> = (0..self.nnz()).collect();
        order.sort_unstable_by(|&a, &b| {
            self.values[b]
                .abs()
                .partial_cmp(&self.values[a].abs())
                .expect("no NaN values in sparse vector")
                .then(self.indices[a].cmp(&self.indices[b]))
        });
        let mut kept: Vec<usize> = order[..keep].to_vec();
        kept.sort_unstable();
        let indices: Vec<usize> = kept.iter().map(|&p| self.indices[p]).collect();
        let values: Vec<f64> = kept.iter().map(|&p| self.values[p]).collect();
        SparseVec {
            dim: self.dim,
            indices,
            values,
        }
    }
}

/// A dense accumulator ("scatter workspace") used to build sparse vectors by
/// summing scaled sparse vectors, as the approximate-inverse algorithm does.
///
/// The accumulator has O(dim) memory but every operation touches only the
/// nonzero pattern, so repeated use is cheap.
#[derive(Debug, Clone)]
pub struct SparseAccumulator {
    values: Vec<f64>,
    occupied: Vec<bool>,
    pattern: Vec<usize>,
}

impl SparseAccumulator {
    /// Creates an empty accumulator of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        SparseAccumulator {
            values: vec![0.0; dim],
            occupied: vec![false; dim],
            pattern: Vec::new(),
        }
    }

    /// Dimension of the accumulator.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Number of positions currently holding a value.
    pub fn nnz(&self) -> usize {
        self.pattern.len()
    }

    /// Adds `value` at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn add(&mut self, index: usize, value: f64) {
        assert!(index < self.values.len(), "index out of bounds");
        if !self.occupied[index] {
            self.occupied[index] = true;
            self.pattern.push(index);
            self.values[index] = value;
        } else {
            self.values[index] += value;
        }
    }

    /// Adds `alpha * x` to the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn axpy(&mut self, alpha: f64, x: &SparseVec) {
        assert_eq!(x.dim(), self.dim(), "dimension mismatch");
        for (i, v) in x.iter() {
            self.add(i, alpha * v);
        }
    }

    /// Adds `alpha * x` where `x` is given as parallel `u32` index / `f64`
    /// value slices — a column of a flat CSC arena, which stores row
    /// indices as `u32` so the query path moves half the index bytes (see
    /// the approximate-inverse column store in the `effres` crate).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or an index is out of bounds.
    pub fn axpy_raw_u32(&mut self, alpha: f64, indices: &[u32], values: &[f64]) {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        for (&i, &v) in indices.iter().zip(values) {
            self.add(i as usize, alpha * v);
        }
    }

    /// Extracts the accumulated sparse vector and clears the accumulator.
    ///
    /// Entries that are exactly zero are kept (the caller decides about
    /// numerical dropping); indices are sorted.
    pub fn take(&mut self) -> SparseVec {
        self.pattern.sort_unstable();
        let indices = std::mem::take(&mut self.pattern);
        let values: Vec<f64> = indices.iter().map(|&i| self.values[i]).collect();
        for &i in &indices {
            self.values[i] = 0.0;
            self.occupied[i] = false;
        }
        SparseVec {
            dim: self.dim(),
            indices,
            values,
        }
    }

    /// Appends the accumulated entries, in sorted index order, to the ends of
    /// `rows` and `vals` (an arena's `u32` row buffer and its value buffer),
    /// clears the accumulator and returns the number of entries appended.
    ///
    /// This is the allocation-free counterpart of
    /// [`SparseAccumulator::take`]: arena-style column stores call it to
    /// deposit a finished column directly at the tail of their flat buffers.
    ///
    /// The pattern is kept in insertion order, and `sorted_prefix` tells the
    /// drain how many of its first entries are already strictly increasing
    /// — for example `1 + x.len()` after adding one index below every index
    /// of `x` and then scattering the sorted vector `x` into an otherwise
    /// empty accumulator. Only the entries after that run are sorted; the
    /// two runs are then merged while draining. A `sorted_prefix` of `0`
    /// sorts the whole pattern. The result is the same for every valid
    /// `sorted_prefix`.
    ///
    /// # Panics
    ///
    /// Panics if `sorted_prefix` exceeds [`SparseAccumulator::nnz`], if the
    /// first `sorted_prefix` entries are not strictly increasing, or if an
    /// accumulated index does not fit in `u32`; arena builders guard their
    /// dimension (`n ≤ u32::MAX`) before accumulating, so the last only
    /// fires on a caller bug.
    pub fn take_append_u32(
        &mut self,
        rows: &mut Vec<u32>,
        vals: &mut Vec<f64>,
        sorted_prefix: usize,
    ) -> usize {
        let SparseAccumulator {
            values,
            occupied,
            pattern,
        } = self;
        let nnz = pattern.len();
        assert!(sorted_prefix <= nnz, "sorted prefix exceeds the pattern");
        let (run, rest) = pattern.split_at_mut(sorted_prefix);
        assert!(
            run.windows(2).all(|w| w[0] < w[1]),
            "the sorted prefix is not strictly increasing"
        );
        rest.sort_unstable();
        rows.reserve(nnz);
        vals.reserve(nnz);
        let mut drain = |i: usize| {
            rows.push(u32::try_from(i).expect("accumulator index exceeds u32"));
            vals.push(values[i]);
            values[i] = 0.0;
            occupied[i] = false;
        };
        let mut next = 0;
        for &i in rest.iter() {
            while next < run.len() && run[next] < i {
                drain(run[next]);
                next += 1;
            }
            drain(i);
        }
        for &i in &run[next..] {
            drain(i);
        }
        pattern.clear();
        nnz
    }

    /// Clears the accumulator without extracting a vector.
    pub fn clear(&mut self) {
        for &i in &self.pattern {
            self.values[i] = 0.0;
            self.occupied[i] = false;
        }
        self.pattern.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_round_trips() {
        let x = vec![0.0, 1.5, 0.0, -2.0];
        let s = SparseVec::from_dense(&x);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), x);
        assert_eq!(s.get(1), 1.5);
        assert_eq!(s.get(0), 0.0);
    }

    #[test]
    fn norms() {
        let s = SparseVec::from_sorted(4, vec![0, 3], vec![3.0, -4.0]);
        assert_eq!(s.norm1(), 7.0);
        assert_eq!(s.norm2(), 5.0);
        assert_eq!(s.norm2_squared(), 25.0);
    }

    #[test]
    fn distance_and_dot_match_dense() {
        let a = SparseVec::from_sorted(5, vec![0, 2, 4], vec![1.0, 2.0, 3.0]);
        let b = SparseVec::from_sorted(5, vec![1, 2], vec![-1.0, 5.0]);
        let da = a.to_dense();
        let db = b.to_dense();
        let expected_d2: f64 = da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)).sum();
        let expected_dot: f64 = da.iter().zip(&db).map(|(x, y)| x * y).sum();
        let expected_l1: f64 = da.iter().zip(&db).map(|(x, y)| (x - y).abs()).sum();
        assert!((a.distance_squared(&b) - expected_d2).abs() < 1e-14);
        assert!((a.dot(&b) - expected_dot).abs() < 1e-14);
        assert!((a.diff_norm1(&b) - expected_l1).abs() < 1e-14);
    }

    #[test]
    fn truncate_keeps_largest() {
        let s = SparseVec::from_sorted(6, vec![0, 1, 2, 3], vec![0.1, -5.0, 0.2, 3.0]);
        let t = s.truncate_to(2);
        assert_eq!(t.indices(), &[1, 3]);
        assert_eq!(t.values(), &[-5.0, 3.0]);
        // Truncating to more than nnz is a no-op.
        assert_eq!(s.truncate_to(10), s);
    }

    #[test]
    fn accumulator_axpy_and_take() {
        let mut acc = SparseAccumulator::new(4);
        let a = SparseVec::from_sorted(4, vec![0, 2], vec![1.0, 1.0]);
        let b = SparseVec::from_sorted(4, vec![2, 3], vec![1.0, 2.0]);
        acc.axpy(2.0, &a);
        acc.axpy(-1.0, &b);
        let out = acc.take();
        assert_eq!(out.to_dense(), vec![2.0, 0.0, 1.0, -2.0]);
        // Accumulator reusable after take.
        acc.add(1, 7.0);
        let out2 = acc.take();
        assert_eq!(out2.to_dense(), vec![0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn accumulator_take_append_matches_take() {
        let mut a = SparseAccumulator::new(5);
        let mut b = SparseAccumulator::new(5);
        let x = SparseVec::from_sorted(5, vec![0, 2, 4], vec![1.0, -2.0, 3.0]);
        let x_rows: Vec<u32> = x.indices().iter().map(|&i| i as u32).collect();
        a.axpy(2.0, &x);
        a.add(1, 0.5);
        b.axpy_raw_u32(2.0, &x_rows, x.values());
        b.add(1, 0.5);
        let taken = a.take();
        let mut rows = vec![9u32]; // pre-existing tail content must survive
        let mut vals = vec![7.0];
        let nnz = b.take_append_u32(&mut rows, &mut vals, 3);
        assert_eq!(nnz, taken.nnz());
        let appended: Vec<usize> = rows[1..].iter().map(|&i| i as usize).collect();
        assert_eq!(appended, taken.indices());
        assert_eq!(&vals[1..], taken.values());
        assert_eq!((rows[0], vals[0]), (9, 7.0));
        // Both accumulators are reusable afterwards.
        a.add(3, 1.0);
        b.add(3, 1.0);
        assert_eq!(a.take().to_dense(), b.take().to_dense());
    }

    /// Deterministic xorshift stream for the randomized drain tests.
    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Fills `acc` the way the approximate-inverse sweep does: one entry,
    /// then a sorted vector of larger indices into the otherwise empty
    /// accumulator, then scaled vectors over arbitrary indices (some new,
    /// some already present). Returns the length of the sorted run the
    /// pattern starts with.
    fn fill_like_a_sweep(acc: &mut SparseAccumulator, rng: &mut Xorshift) -> usize {
        let dim = acc.dim();
        let first = rng.below(dim);
        acc.add(first, 1.0 + rng.below(4) as f64);
        let sorted: Vec<usize> = (first + 1..dim).filter(|_| rng.below(3) != 0).collect();
        for &i in &sorted {
            acc.add(i, rng.below(1000) as f64 / 7.0);
        }
        for _ in 0..rng.below(4) {
            for _ in 0..rng.below(dim) {
                acc.add(rng.below(dim), -(rng.below(1000) as f64) / 3.0);
            }
        }
        1 + sorted.len()
    }

    #[test]
    fn drain_merges_a_sorted_prefix_like_a_full_sort() {
        let mut rng = Xorshift(0x2545_f491_4f6c_dd1d);
        let mut acc = SparseAccumulator::new(64);
        let mut oracle = SparseAccumulator::new(64);
        for case in 0..300 {
            let run = fill_like_a_sweep(&mut oracle, &mut Xorshift(case + 1));
            let expected = oracle.take();
            // Every prefix of the sorted run is itself a valid run length.
            for sorted_prefix in 0..=run {
                assert_eq!(fill_like_a_sweep(&mut acc, &mut Xorshift(case + 1)), run);
                let mut rows = vec![7u32, 3];
                let mut vals = vec![-1.5, 2.5];
                let nnz = acc.take_append_u32(&mut rows, &mut vals, sorted_prefix);
                assert_eq!(nnz, expected.nnz(), "case {case}, prefix {sorted_prefix}");
                assert_eq!((&rows[..2], &vals[..2]), (&[7u32, 3][..], &[-1.5, 2.5][..]));
                assert!(rows[2..]
                    .iter()
                    .map(|&i| i as usize)
                    .eq(expected.indices().iter().copied()));
                assert!(vals[2..]
                    .iter()
                    .zip(expected.values())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                // Empty afterwards, with nothing left behind in the dense
                // workspace: a fresh entry comes back alone.
                assert_eq!(acc.nnz(), 0);
                let probe = rng.below(64);
                acc.add(probe, 0.25);
                assert_eq!(acc.take(), SparseVec::single(64, probe, 0.25));
            }
        }
    }

    #[test]
    #[should_panic(expected = "sorted prefix exceeds the pattern")]
    fn drain_rejects_a_prefix_longer_than_the_pattern() {
        let mut acc = SparseAccumulator::new(4);
        acc.add(1, 1.0);
        acc.take_append_u32(&mut Vec::new(), &mut Vec::new(), 2);
    }

    #[test]
    #[should_panic(expected = "the sorted prefix is not strictly increasing")]
    fn drain_rejects_an_unsorted_prefix() {
        let mut acc = SparseAccumulator::new(4);
        acc.add(2, 1.0);
        acc.add(1, 1.0);
        acc.take_append_u32(&mut Vec::new(), &mut Vec::new(), 2);
    }

    #[test]
    fn accumulator_clear_resets() {
        let mut acc = SparseAccumulator::new(3);
        acc.add(0, 1.0);
        acc.clear();
        assert_eq!(acc.nnz(), 0);
        let out = acc.take();
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_rejects_unsorted() {
        let _ = SparseVec::from_sorted(3, vec![1, 0], vec![1.0, 2.0]);
    }
}
