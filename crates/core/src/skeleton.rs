//! Row-bucket skeletons: which rows a column of `Z̃` can hold, coarsely.
//!
//! A column's skeleton is the ascending list of its distinct row buckets
//! `row >> shift`, as `u16`. Two suffixes that share a row `r` both hold
//! the bucket `r >> shift`, so two skeletons that share no bucket from the
//! larger column's own bucket on prove that the suffixes share no row: the
//! pair's dot is `+0.0` and the norm table answers it alone. On the
//! benchmark grid a column holds about 155 rows in about 22 buckets, and
//! about 85% of uniform random pairs are proved disjoint this way.
//!
//! There is one bucket rule ([`bucket_shift`], [`column_buckets`]) and one
//! meet routine ([`meet_from`]). The resident arena derives its skeleton
//! from its rows and answers from it; the v4 snapshot persists the same
//! skeleton (`effres-io`), and the paged scheduler reads the skeletons of a
//! batch's columns from it and certifies pairs before it reads a row.

/// Buckets [`meet_from`] compares at once. A skeleton is lent in a slice
/// that runs at least this many buckets past its end ([`PaddedBuckets`]),
/// so a block can start at any bucket.
pub const BUCKET_BLOCK: usize = 8;

/// The bucket shift for an order of `order` rows: `max(4, bits(order) −
/// 16)`, so every bucket fits `u16` up to the arena's `u32` order cap.
pub fn bucket_shift(order: usize) -> u32 {
    (usize::BITS - order.leading_zeros())
        .saturating_sub(16)
        .max(4)
}

/// Writes the distinct buckets of `rows` (ascending) to the front of
/// `buckets` without a branch and returns how many there are: every row's
/// bucket is written at the end, which advances only past a bucket that
/// differs from the one before. `buckets` must hold one slot per row.
fn write_buckets(rows: &[u32], shift: u32, buckets: &mut [u16]) -> usize {
    let (mut len, mut last) = (0, u32::MAX);
    for &row in rows {
        let bucket = row >> shift;
        buckets[len] = bucket as u16;
        len += usize::from(bucket != last);
        last = bucket;
    }
    len
}

/// The skeleton of one column from its ascending `rows`: the distinct
/// `row >> shift`, in order.
pub fn column_buckets(rows: &[u32], shift: u32) -> Vec<u16> {
    let mut buckets = vec![0; rows.len()];
    let len = write_buckets(rows, shift, &mut buckets);
    buckets.truncate(len);
    buckets
}

/// One column's skeleton as [`meet_from`] reads it: the ascending distinct
/// buckets `padded[..len]`, lent in a slice that runs at least
/// [`BUCKET_BLOCK`] buckets past them.
#[derive(Debug, Clone, Copy)]
pub struct PaddedBuckets<'a> {
    padded: &'a [u16],
    len: usize,
}

impl<'a> PaddedBuckets<'a> {
    /// The skeleton `padded[..len]`.
    ///
    /// # Panics
    ///
    /// Panics unless `padded` holds at least `len + BUCKET_BLOCK` buckets.
    pub fn new(padded: &'a [u16], len: usize) -> Self {
        assert!(
            len + BUCKET_BLOCK <= padded.len(),
            "a skeleton is lent with {BUCKET_BLOCK} buckets of padding"
        );
        PaddedBuckets { padded, len }
    }

    /// The column's buckets, ascending and distinct.
    pub fn buckets(&self) -> &'a [u16] {
        &self.padded[..self.len]
    }

    /// The [`BUCKET_BLOCK`] buckets from position `at`, which may run past
    /// the column's end; callers mask the lanes past it.
    fn block(&self, at: usize) -> &'a [u16; BUCKET_BLOCK] {
        (self.padded[at..at + BUCKET_BLOCK].try_into()).expect("a block of the padded buckets")
    }
}

/// Where the suffixes at rows `hi..` of two columns can first share a row,
/// from their skeletons: `lo`, the skeleton of the smaller column, and
/// `hi_buckets`, that of the larger column `hi`. `None` when the skeletons
/// share no bucket from `hi`'s own bucket on, so the suffixes share no row;
/// otherwise the first row of their first shared bucket, raised to `hi`. No
/// shared row lies below it, since a shared row's bucket is in both
/// skeletons.
///
/// The two lists are compared a block of eight at a time, all pairs
/// without a branch (`held_lanes`); a block pair that shares no
/// bucket moves the block with the smaller last bucket on.
pub fn meet_from(
    lo: PaddedBuckets<'_>,
    hi_buckets: PaddedBuckets<'_>,
    hi: usize,
    shift: u32,
) -> Option<u32> {
    let (a_end, b_end) = (lo.len, hi_buckets.len);
    // Column `hi` is supported on `hi..`, so its skeleton starts at or
    // after `hi`'s own bucket; the smaller column's is cut there.
    let from = (hi >> shift) as u16;
    let mut a = lo.buckets().partition_point(|&bucket| bucket < from);
    let mut b = 0;
    while a < a_end && b < b_end {
        let (x, y) = (lo.block(a), hi_buckets.block(b));
        let (na, nb) = ((a_end - a).min(BUCKET_BLOCK), (b_end - b).min(BUCKET_BLOCK));
        let held = held_lanes(x, na, y, nb);
        if held != 0 {
            // The lists ascend, so the first held lane is the first shared
            // bucket.
            let shared = x[held.trailing_zeros() as usize];
            return Some((u32::from(shared) << shift).max(hi as u32));
        }
        // Which block moves on is as unpredictable as the buckets.
        let a_first = x[na - 1] < y[nb - 1];
        a += na * usize::from(a_first);
        b += nb * usize::from(!a_first);
    }
    None
}

/// Which of the first `na` lanes of `x` equal one of the first `nb` lanes
/// of `y`, as bits, without a branch. The lanes past either end are first
/// overwritten with the block's lane 0, a bucket its list really holds:
/// that can only repeat a real match, and never on a lane below the first
/// real one. Then all 64 pairs are compared.
fn held_lanes(x: &[u16; BUCKET_BLOCK], na: usize, y: &[u16; BUCKET_BLOCK], nb: usize) -> u32 {
    // `LIVE[n]` keeps the first `n` lanes. A mask loaded by length, not a
    // compare against it, keeps the lanes in vector registers.
    const LIVE: [[u16; BUCKET_BLOCK]; BUCKET_BLOCK + 1] = {
        let mut live = [[0; BUCKET_BLOCK]; BUCKET_BLOCK + 1];
        let mut n = 0;
        while n <= BUCKET_BLOCK {
            let mut lane = 0;
            while lane < n {
                live[n][lane] = u16::MAX;
                lane += 1;
            }
            n += 1;
        }
        live
    };
    let live = |block: &[u16; BUCKET_BLOCK], n: usize| -> [u16; BUCKET_BLOCK] {
        let keep = &LIVE[n];
        std::array::from_fn(|i| (block[i] & keep[i]) | (block[0] & !keep[i]))
    };
    let (x, y) = (live(x, na), live(y, nb));
    let mut held = [0u16; BUCKET_BLOCK];
    for bucket in y {
        for (held, &lane) in held.iter_mut().zip(&x) {
            *held |= u16::from(lane == bucket).wrapping_neg();
        }
    }
    (held.iter().enumerate()).fold(0, |bits, (lane, &held)| bits | u32::from(held != 0) << lane)
}

/// The row-bucket skeleton of an arena: every column's skeleton in one flat
/// array with an offset per column, ending with [`BUCKET_BLOCK`] padding
/// buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowSkeleton {
    /// [`bucket_shift`] of the arena's order.
    shift: u32,
    /// `ptr[j]..ptr[j + 1]` indexes `buckets` for column `j`.
    ptr: Vec<usize>,
    buckets: Vec<u16>,
}

impl RowSkeleton {
    /// The skeleton of a column-ordered arena, in one pass over its rows.
    pub(crate) fn of(order: usize, col_ptr: &[usize], rows: &[u32]) -> Self {
        let mut builder = SkeletonBuilder::new(order, rows.len());
        for j in 0..order {
            builder.push_column(&rows[col_ptr[j]..col_ptr[j + 1]]);
        }
        builder.finish()
    }

    pub(crate) fn shift(&self) -> u32 {
        self.shift
    }

    /// Column `j`'s skeleton, lent with the padding that follows it.
    pub(crate) fn column(&self, j: usize) -> PaddedBuckets<'_> {
        PaddedBuckets::new(&self.buckets[self.ptr[j]..], self.ptr[j + 1] - self.ptr[j])
    }

    /// [`meet_from`] for columns `p` and `q`, in either order.
    pub(crate) fn meet_from(&self, p: usize, q: usize) -> Option<u32> {
        let (lo, hi) = (p.min(q), p.max(q));
        meet_from(self.column(lo), self.column(hi), hi, self.shift)
    }

    pub(crate) fn bytes(&self) -> usize {
        self.ptr.len() * std::mem::size_of::<usize>()
            + self.buckets.len() * std::mem::size_of::<u16>()
    }
}

/// Appends columns to a [`RowSkeleton`], one column's rows at a time.
pub(crate) struct SkeletonBuilder {
    skeleton: RowSkeleton,
    /// Buckets written so far; `skeleton.buckets` is sized for one per row.
    len: usize,
}

impl SkeletonBuilder {
    /// A builder for `order` columns holding `nnz` rows in all. The bucket
    /// buffer is allocated zeroed for one bucket per row and cut to size by
    /// [`SkeletonBuilder::finish`], so no column zero-fills its part.
    pub(crate) fn new(order: usize, nnz: usize) -> Self {
        let mut ptr = Vec::with_capacity(order + 1);
        ptr.push(0);
        SkeletonBuilder {
            skeleton: RowSkeleton {
                shift: bucket_shift(order),
                ptr,
                buckets: vec![0; nnz],
            },
            len: 0,
        }
    }

    /// Appends the next column's distinct buckets ([`write_buckets`]).
    /// Returns whether `rows` strictly increase, the check the loader makes
    /// on the column while it is in cache.
    ///
    /// Kept out of line: inlined into the loader's column loop, the row
    /// loop ran short of registers and reloaded its pointers every row.
    #[inline(never)]
    pub(crate) fn push_column(&mut self, rows: &[u32]) -> bool {
        let increasing = rows.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]));
        let shift = self.skeleton.shift;
        self.len += write_buckets(rows, shift, &mut self.skeleton.buckets[self.len..]);
        self.skeleton.ptr.push(self.len);
        increasing
    }

    pub(crate) fn finish(self) -> RowSkeleton {
        let mut skeleton = self.skeleton;
        skeleton.buckets.truncate(self.len);
        skeleton.buckets.resize(self.len + BUCKET_BLOCK, 0);
        skeleton.buckets.shrink_to_fit();
        skeleton
    }
}
