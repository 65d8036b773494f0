//! Compact binary snapshots of prebuilt estimators.
//!
//! Building the approximate inverse is the expensive part of the pipeline —
//! minutes for multi-million-node graphs — while queries are microseconds.
//! A snapshot persists everything the query path needs (the pruned columns
//! of `Z̃`, the fill-reducing permutation, the build statistics and, when the
//! graph came from a dataset file, the original node labels) so a service
//! can restart without refactorizing.
//!
//! ## Format version 4 (current, all little-endian)
//!
//! Version 4 is version 3 plus one block, the arena's **row-bucket
//! skeleton** ([`effres::skeleton`]), between the norms block and the
//! labels flag. A column's skeleton is its distinct `row >> shift`,
//! ascending, with the shift `max(4, bits(n) − 16)` of the order (it is not
//! stored). The block holds one *record* per column, in column order: the
//! byte length of the record's body as a LEB128 varint, then the body, the
//! buckets delta-varint coded from the column's own bucket `j >> shift`
//! (the first delta may be 0, every later one is at least 1). An empty
//! column's record is the single byte 0. The length prefix lets a reader
//! skip a record without decoding it. The block ends with an offset table:
//! the byte offset, within the records, of the record of every 64th column
//! (a *group* of 64 columns, a constant of the format), `⌈n / 64⌉ + 1`
//! entries from 0 to the records' byte count.
//!
//! ```text
//!   ... v3 payload up to and including the norms block,
//!   skeleton block:  records_bytes u64,
//!                    records (records_bytes bytes),
//!                    group offsets u64 × (⌈n / 64⌉ + 1),
//!   labels flag u8 (0|1), then labels u64 × n if 1
//! crc32     u32      of the payload bytes
//! ```
//!
//! The paged store keeps the offset table resident and reads the groups a
//! batch needs (see [`crate::paged`]); the resident loader reads the block
//! under the payload checksum and checks the table, but keeps nothing: it
//! derives the same skeleton from the rows. On the benchmark grid the block
//! is about 2% of the file. [`write_snapshot`] writes v4 from the arena's
//! own skeleton; [`write_snapshot_v3`] keeps the v3 writer for
//! compatibility tests.
//!
//! ## Format version 3 (legacy, read and paged serving kept)
//!
//! Version 3 extends the v2 bulk-arena layout with two blocks aimed at the
//! out-of-core serving path:
//!
//! * a **row codec**: the row block is written either raw (`u32 × nnz`,
//!   codec 0, exactly the v2 encoding) or **delta-varint** (codec 1): per
//!   column, the first row index as a LEB128 varint followed by the gaps to
//!   each subsequent index (strictly increasing rows ⇒ gaps ≥ 1). The gaps
//!   of a sparse lower-triangular column are small, so most entries fit one
//!   byte instead of four — the disk-bound page-miss path reads ~3–4× fewer
//!   row bytes. Codec 1 additionally stores a per-column *byte*-offset table
//!   (`row_off`, `u64 × (n + 1)`) so a paged reader can still locate any
//!   column range with one positioned read. The writer auto-negotiates:
//!   codec 1 is chosen iff varint bytes + offset table < raw bytes, and
//!   decoding is bit-identical either way;
//! * a **per-column squared-norms block** (`f64 × n`, summed in index order
//!   at write time): both the resident loader and the paged opener load the
//!   `‖z̃_j‖²` table from it instead of recomputing — the resident load skips
//!   a full arena sweep, and paged queries pay zero extra page traffic for
//!   the norm terms.
//!
//! ```text
//! magic     8 bytes  "EFRSNAP\n"
//! version   u32      3 (4: see above)
//! payload   (crc-checked):
//!   node_count u64, epsilon f64,
//!   estimator stats (factor_nnz u64, inverse_nnz u64, inverse_nnz_ratio f64,
//!                    max_depth u64, ichol_dropped u64, pruned_entries u64),
//!   inverse build counters (pruned_entries u64, small_columns_kept u64),
//!   permutation new→old (u32 × n),
//!   nnz u64,
//!   col_ptr block  u64 × (n + 1),
//!   row codec u8 (0 = raw, 1 = delta-varint),
//!   [codec 1 only] rows_bytes u64, row_off block u64 × (n + 1),
//!   rows block     u32 × nnz (codec 0) | rows_bytes varint bytes (codec 1),
//!   vals block     f64 × nnz,
//!   norms block    f64 × n,
//!   labels flag u8 (0|1), then labels u64 × n if 1
//! crc32     u32      of the payload bytes
//! ```
//!
//! ## Format version 2 (legacy, read support kept)
//!
//! Version 2 serializes the estimator's flat CSC arena *as the three bulk
//! buffers it already is in memory* — one `col_ptr` block, one raw `u32` row
//! block, one `f64` value block — with the same header and trailer as v3 but
//! no codec byte and no norms block. [`write_snapshot_v2`] keeps the writer
//! available for compatibility tests and fixtures.
//!
//! ## Format version 1 (legacy, read support kept)
//!
//! Version 1 stored the inverse as `n` per-column records (`nnz u32`,
//! `indices u32 × nnz`, `values f64 × nnz`) between the permutation and the
//! labels, with the same header, stats and trailing crc32.
//! [`read_snapshot`] auto-detects the version from the header and keeps
//! loading v1 and v2 files bit-exactly; compatibility is pinned by the
//! committed fixtures in `tests/snapshot_migration.rs`. [`write_snapshot_v1`]
//! keeps the legacy writer available for compatibility tests.

use crate::error::IoError;
use crate::gzip::Crc32;
use effres::approx_inverse::{ApproxInverseStats, SparseApproximateInverse};
use effres::estimator::EstimatorStats;
use effres::EffectiveResistanceEstimator;
use effres_sparse::Permutation;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 8] = b"EFRSNAP\n";
pub(crate) const VERSION_V1: u32 = 1;
pub(crate) const VERSION_V2: u32 = 2;
pub(crate) const VERSION_V3: u32 = 3;
pub(crate) const VERSION_V4: u32 = 4;

/// Columns per group of the v4 skeleton block: its offset table locates the
/// record of every `SKELETON_GROUP`-th column. A constant of the format,
/// independent of any paged store's page size; a reader that splits a
/// batch's columns at multiples of it reads no group twice.
pub const SKELETON_GROUP: usize = 64;

/// v3 row-codec ids (one byte on disk).
pub(crate) const ROW_CODEC_RAW: u8 = 0;
pub(crate) const ROW_CODEC_VARINT: u8 = 1;

/// Bytes of the LEB128 varint encoding of `v` (1–5 for a `u32`).
pub(crate) fn varint_len(v: u32) -> u64 {
    let bits = 32 - v.leading_zeros().min(31);
    u64::from(bits.div_ceil(7).max(1))
}

/// Appends the LEB128 varint encoding of `v` to `out`.
pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Total varint bytes of one column's delta encoding (first index raw, then
/// the gaps) — used by the writer to size the `row_off` table and negotiate
/// the codec without encoding anything.
pub(crate) fn varint_column_len(rows: &[u32]) -> u64 {
    let mut bytes = 0u64;
    let mut prev = 0u32;
    for (k, &row) in rows.iter().enumerate() {
        bytes += if k == 0 {
            varint_len(row)
        } else {
            varint_len(row - prev)
        };
        prev = row;
    }
    bytes
}

/// Appends one column's delta-varint encoding to `out` (the inverse of
/// [`decode_varint_column`]).
pub(crate) fn encode_varint_column(out: &mut Vec<u8>, rows: &[u32]) {
    let mut prev = 0u32;
    for (k, &row) in rows.iter().enumerate() {
        push_varint(out, if k == 0 { row } else { row - prev });
        prev = row;
    }
}

/// Appends column `j`'s v4 skeleton record to `out`: the byte length of its
/// body as a varint, then the body, the column's buckets delta-varint coded
/// from the column's own bucket `j >> shift` (so the first delta may be 0
/// and every later one is at least 1).
pub(crate) fn encode_skeleton_record(out: &mut Vec<u8>, j: usize, shift: u32, buckets: &[u16]) {
    let mut body = Vec::with_capacity(buckets.len());
    let mut prev = (j >> shift) as u32;
    for &bucket in buckets {
        push_varint(&mut body, u32::from(bucket) - prev);
        prev = u32::from(bucket);
    }
    push_varint(out, body.len() as u32);
    out.extend_from_slice(&body);
}

/// Decodes the body of column `j`'s v4 skeleton record (see
/// [`encode_skeleton_record`]) onto `out`: buckets that strictly increase
/// from `j >> shift` and never pass `last_bucket`, the bucket of the
/// order's last row. Every malformation is an error; `out` may then hold
/// part of the column.
pub(crate) fn decode_skeleton_body(
    body: &[u8],
    j: usize,
    shift: u32,
    last_bucket: u64,
    out: &mut Vec<u16>,
) -> Result<(), String> {
    let mut at = 0;
    let mut bucket = (j >> shift) as u64;
    let mut first = true;
    while at < body.len() {
        let delta = long_varint(body, &mut at)?;
        if delta == 0 && !first {
            return Err(format!(
                "column {j}: skeleton buckets do not strictly increase"
            ));
        }
        bucket += delta;
        if bucket > last_bucket {
            return Err(format!(
                "column {j}: skeleton bucket {bucket} lies past the last bucket {last_bucket}"
            ));
        }
        out.push(bucket as u16);
        first = false;
    }
    Ok(())
}

/// Decodes one column's delta-varint row encoding: exactly `count` strictly
/// increasing indices in `0..order`, consuming exactly `bytes`. Every
/// malformation — a truncated or over-long varint, a zero gap (rows not
/// strictly increasing), an out-of-range index, trailing garbage — is a
/// typed error, so both the resident loader and the paged page decoder can
/// treat the block as untrusted. Any anomaly on the word-at-a-time path
/// reruns the column through [`decode_varint_column_exact`], so every
/// output and every error is that decoder's.
pub(crate) fn decode_varint_column(
    bytes: &[u8],
    count: usize,
    order: usize,
    out: &mut Vec<u32>,
) -> Result<(), String> {
    let start = out.len();
    // A well-formed column spends at least one byte per row: `count` sizes
    // the output only when the bytes already read could hold that many.
    if count <= bytes.len() {
        out.resize(start + count, 0);
        if decode_varint_words(bytes, order, &mut out[start..]) {
            return Ok(());
        }
        out.truncate(start);
    }
    decode_varint_column_exact(bytes, count, order, out)
}

/// The hot path of [`decode_varint_column`], and of both loaders: fills
/// `rows` from `bytes`, or returns `false` on anything out of the ordinary.
/// Sparse columns' gaps are mostly one-byte varints, so each 8-byte load
/// writes those before its first continuation or zero byte; the first row,
/// a multi-byte gap and the tail go one varint at a time.
fn decode_varint_words(bytes: &[u8], order: usize, rows: &mut [u32]) -> bool {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let bound = order as u64;
    let count = rows.len();
    let mut k = 0;
    let mut at = 0;
    let mut prev = 0u64;
    while k < count {
        if let (true, Some(word)) = (k > 0, bytes.get(at..at + 8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte window"));
            // High bit of each continuation or zero byte. The zero test
            // borrows only upwards from a zero byte, so it is exact for the
            // lowest one, which is all the run length needs.
            let stops = (w | (w.wrapping_sub(LOW) & !w)) & HIGH;
            let run = ((stops.trailing_zeros() / 8) as usize).min(count - k);
            for (i, row) in rows[k..k + run].iter_mut().enumerate() {
                prev += (w >> (8 * i)) & 0xff;
                *row = prev as u32;
            }
            k += run;
            at += run;
            if run == 8 || k == count {
                continue;
            }
        }
        // One varint: the first row, a multi-byte or zero gap, or the tail.
        let Ok(value) = long_varint(bytes, &mut at) else {
            return false;
        };
        prev += value;
        if (k > 0 && value == 0) || prev >= bound {
            return false;
        }
        rows[k] = prev as u32;
        k += 1;
    }
    at == bytes.len() && prev < bound
}

/// Reads one LEB128 varint of at most five bytes at `*at`, moving past it.
pub(crate) fn long_varint(bytes: &[u8], at: &mut usize) -> Result<u64, String> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*at) else {
            return Err("varint row encoding is truncated".to_string());
        };
        *at += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 28 {
            return Err("varint row encoding overflows u32".to_string());
        }
    }
}

/// The exact, one-varint-at-a-time decoder behind [`decode_varint_column`],
/// which defers to it whenever a column is not plainly well formed.
fn decode_varint_column_exact(
    bytes: &[u8],
    count: usize,
    order: usize,
    out: &mut Vec<u32>,
) -> Result<(), String> {
    let len = bytes.len();
    let bound = order as u64;
    let mut at = 0usize;
    let mut prev = 0u64;
    out.reserve(count.min(len));
    for k in 0..count {
        let value = if at < len && bytes[at] < 0x80 {
            at += 1;
            u64::from(bytes[at - 1])
        } else {
            long_varint(bytes, &mut at)?
        };
        let row = if k == 0 {
            value
        } else {
            if value == 0 {
                return Err("row indices are not strictly increasing (zero gap)".to_string());
            }
            prev + value
        };
        if row >= bound {
            return Err(format!("row index {row} out of range for {order} nodes"));
        }
        prev = row;
        out.push(row as u32);
    }
    if at != len {
        return Err(format!("column encoding has {} trailing byte(s)", len - at));
    }
    Ok(())
}

/// Entries per chunk when streaming bulk blocks: bounds the scratch buffer
/// (and any allocation driven by an untrusted header) to a few hundred KiB.
const BLOCK_CHUNK: usize = 1 << 15;

/// Preallocation cap for length-prefixed vectors: a corrupt header must
/// produce a clean format error (via a failed read), not a multi-gigabyte
/// allocation request that aborts the process.
const PREALLOC_CAP: usize = 1 << 20;

/// The error for a non-finite entry of a v2/v3 value block.
const NON_FINITE_VALUE: &str = "non-finite value in the arena value block";

/// A persisted estimator plus the optional dataset node labels.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The reassembled query engine core.
    pub estimator: EffectiveResistanceEstimator,
    /// Original dataset ids of the estimator's dense nodes, if the snapshot
    /// was written from an ingested dataset.
    pub labels: Option<Vec<u64>>,
    /// On-disk format version the snapshot was read from (1 to 4), or
    /// `None` for estimators built in memory that never touched a file.
    /// Surfaced so `effres-cli stats` and the server's stats reply can name
    /// the format a deployment is actually serving.
    pub version: Option<u32>,
}

struct CrcWriter<'a, W: Write> {
    inner: &'a mut W,
    crc: Crc32,
    /// Reusable little-endian staging buffer for bulk blocks.
    chunk: Vec<u8>,
}

impl<W: Write> CrcWriter<'_, W> {
    fn new(inner: &mut W) -> CrcWriter<'_, W> {
        CrcWriter {
            inner,
            crc: Crc32::new(),
            chunk: Vec::new(),
        }
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), IoError> {
        self.crc.update(bytes);
        self.inner.write_all(bytes)?;
        Ok(())
    }

    fn put_u32(&mut self, v: u32) -> Result<(), IoError> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> Result<(), IoError> {
        self.put(&v.to_le_bytes())
    }

    fn put_f64(&mut self, v: f64) -> Result<(), IoError> {
        self.put(&v.to_le_bytes())
    }

    /// Writes one bulk block of fixed-width items, staging `BLOCK_CHUNK`
    /// items at a time so the crc and the writer both see large slices.
    fn put_block<T: Copy, const W2: usize>(
        &mut self,
        items: &[T],
        encode: impl Fn(T) -> [u8; W2],
    ) -> Result<(), IoError> {
        for chunk in items.chunks(BLOCK_CHUNK) {
            self.chunk.clear();
            self.chunk.reserve(chunk.len() * W2);
            for &item in chunk {
                self.chunk.extend_from_slice(&encode(item));
            }
            let staged = std::mem::take(&mut self.chunk);
            self.put(&staged)?;
            self.chunk = staged;
        }
        Ok(())
    }
}

pub(crate) struct CrcReader<'a, R: Read> {
    inner: &'a mut R,
    /// The running payload checksum; `None` for a reader that never gets to
    /// the trailer (the paged opener reads only the header blocks).
    crc: Option<Crc32>,
    /// Payload bytes consumed so far (the paged opener uses this to locate
    /// the bulk blocks within the file without duplicating layout math).
    consumed: u64,
    /// Reusable staging buffer for bulk blocks.
    chunk: Vec<u8>,
}

impl<R: Read> CrcReader<'_, R> {
    /// A reader that checksums every payload byte it consumes.
    pub(crate) fn new(inner: &mut R) -> CrcReader<'_, R> {
        CrcReader {
            inner,
            crc: Some(Crc32::new()),
            consumed: 0,
            chunk: Vec::new(),
        }
    }

    /// A reader that only parses: for callers that never compare the
    /// trailer, so computing the checksum would be wasted work.
    pub(crate) fn without_crc(inner: &mut R) -> CrcReader<'_, R> {
        CrcReader {
            crc: None,
            ..CrcReader::new(inner)
        }
    }

    /// Payload bytes consumed since construction (excludes the 12 magic +
    /// version bytes, which are read before the crc region starts).
    pub(crate) fn consumed(&self) -> u64 {
        self.consumed
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), IoError> {
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                IoError::Format("truncated snapshot".into())
            } else {
                IoError::Io(e)
            }
        })?;
        if let Some(crc) = &mut self.crc {
            crc.update(buf);
        }
        self.consumed += buf.len() as u64;
        Ok(())
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], IoError> {
        let mut buf = [0u8; N];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, IoError> {
        Ok(self.take::<1>()?[0])
    }

    fn take_u32(&mut self) -> Result<u32, IoError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, IoError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn take_f64(&mut self) -> Result<f64, IoError> {
        Ok(f64::from_le_bytes(self.take::<8>()?))
    }

    /// Reads one bulk block of `count` fixed-width items, handing `each`
    /// one chunk of up to `BLOCK_CHUNK` items at a time. Reading chunk by
    /// chunk means a hostile count costs at most one chunk of scratch
    /// before the stream runs dry.
    fn take_chunks<const W2: usize>(
        &mut self,
        count: usize,
        mut each: impl FnMut(&[[u8; W2]]) -> Result<(), IoError>,
    ) -> Result<(), IoError> {
        let mut remaining = count;
        while remaining > 0 {
            let take = remaining.min(BLOCK_CHUNK);
            self.chunk.resize(take * W2, 0);
            let mut staged = std::mem::take(&mut self.chunk);
            let result = self.fill(&mut staged);
            self.chunk = staged;
            result?;
            each(self.chunk.as_chunks::<W2>().0)?;
            remaining -= take;
        }
        Ok(())
    }

    /// [`take_chunks`](Self::take_chunks), one item at a time.
    fn take_block<const W2: usize>(
        &mut self,
        count: usize,
        mut push: impl FnMut([u8; W2]) -> Result<(), IoError>,
    ) -> Result<(), IoError> {
        self.take_chunks(count, |items: &[[u8; W2]]| {
            items.iter().try_for_each(|&item| push(item))
        })
    }

    /// Reads a block of `count` `f64`s, rejecting it with `what` unless
    /// every value passes `valid`. Each chunk is decoded by one `extend`
    /// and checked by one pass that does not stop early (so the finiteness
    /// check vectorizes); the vector's preallocation is capped like every
    /// other untrusted count.
    fn take_f64_block(
        &mut self,
        count: usize,
        valid: impl Fn(f64) -> bool,
        what: &str,
    ) -> Result<Vec<f64>, IoError> {
        let mut values: Vec<f64> = Vec::with_capacity(count.min(PREALLOC_CAP));
        self.take_chunks(count, |items: &[[u8; 8]]| {
            let start = values.len();
            values.extend(items.iter().map(|&b| f64::from_le_bytes(b)));
            if values[start..].iter().fold(true, |ok, &v| ok & valid(v)) {
                Ok(())
            } else {
                Err(IoError::Format(what.to_string()))
            }
        })?;
        Ok(values)
    }
}

/// Serializes an estimator (and optional node labels) to `writer` in the
/// current format (version 4): the arena's bulk buffers behind a checksummed
/// header, with the row block auto-negotiated between the raw and
/// delta-varint codecs, the per-column squared norms persisted so loads
/// (resident and paged) never recompute them, and the arena's row-bucket
/// skeleton persisted so paged batches can certify pairs disjoint before
/// they read a row.
///
/// # Errors
///
/// Returns [`IoError::Io`] on write failure and [`IoError::Format`] if the
/// estimator is too large for the u32 index space or `labels` has the wrong
/// length.
pub fn write_snapshot<W: Write>(
    writer: &mut W,
    estimator: &EffectiveResistanceEstimator,
    labels: Option<&[u64]>,
) -> Result<(), IoError> {
    write_arena_snapshot(writer, estimator, labels, VERSION_V4)
}

/// Serializes an estimator in the version-3 format (no skeleton block).
///
/// Kept so compatibility tests can produce fresh v3 bytes; new snapshots
/// should use [`write_snapshot`].
///
/// # Errors
///
/// See [`write_snapshot`].
pub fn write_snapshot_v3<W: Write>(
    writer: &mut W,
    estimator: &EffectiveResistanceEstimator,
    labels: Option<&[u64]>,
) -> Result<(), IoError> {
    write_arena_snapshot(writer, estimator, labels, VERSION_V3)
}

/// The v3 and v4 writer: v4 is v3 plus the skeleton block.
fn write_arena_snapshot<W: Write>(
    writer: &mut W,
    estimator: &EffectiveResistanceEstimator,
    labels: Option<&[u64]>,
    version: u32,
) -> Result<(), IoError> {
    let n = validate_for_write(estimator, labels)?;
    writer.write_all(MAGIC)?;
    writer.write_all(&version.to_le_bytes())?;
    let mut out = CrcWriter::new(writer);
    write_header_fields(&mut out, estimator, n)?;
    let inverse = estimator.approximate_inverse();
    let col_ptr = inverse.col_ptr();
    let rows = inverse.arena_rows();
    out.put_u64(rows.len() as u64)?;
    out.put_block(col_ptr, |p: usize| (p as u64).to_le_bytes())?;

    // Codec negotiation: per-column byte offsets of the delta-varint
    // encoding, against the raw u32 block. The offset table itself counts
    // against the varint side — tiny or gap-dense graphs keep the raw codec.
    let mut row_off: Vec<u64> = Vec::with_capacity(n + 1);
    row_off.push(0);
    let mut varint_bytes = 0u64;
    for j in 0..n {
        varint_bytes += varint_column_len(&rows[col_ptr[j]..col_ptr[j + 1]]);
        row_off.push(varint_bytes);
    }
    let raw_bytes = rows.len() as u64 * 4;
    if varint_bytes + (n as u64 + 1) * 8 < raw_bytes {
        out.put(&[ROW_CODEC_VARINT])?;
        out.put_u64(varint_bytes)?;
        out.put_block(&row_off, |p: u64| p.to_le_bytes())?;
        // Stream the encoded rows in bounded chunks, column-aligned.
        let mut buf: Vec<u8> = Vec::with_capacity(BLOCK_CHUNK * 5);
        for j in 0..n {
            encode_varint_column(&mut buf, &rows[col_ptr[j]..col_ptr[j + 1]]);
            if buf.len() >= BLOCK_CHUNK * 4 {
                out.put(&buf)?;
                buf.clear();
            }
        }
        out.put(&buf)?;
    } else {
        out.put(&[ROW_CODEC_RAW])?;
        out.put_block(rows, |r: u32| r.to_le_bytes())?;
    }

    out.put_block(inverse.arena_values(), f64::to_le_bytes)?;
    // The norms block: summed in index order, exactly what a resident sweep
    // would compute — loaded tables are bit-identical to recomputed ones.
    // (This also primes the estimator's own memoized table as a side effect.)
    let norms = estimator.column_norms_shared();
    out.put_block(&norms, f64::to_le_bytes)?;
    if version == VERSION_V4 {
        let (records, group_off) = skeleton_block(inverse);
        out.put_u64(records.len() as u64)?;
        out.put(&records)?;
        out.put_block(&group_off, u64::to_le_bytes)?;
    }
    write_labels(&mut out, labels)?;
    let crc = out.crc.finish();
    writer.write_all(&crc.to_le_bytes())?;
    Ok(())
}

/// The v4 skeleton block of an arena, from the arena's own row-bucket
/// skeleton: every column's record, and the byte offset of the record of
/// every [`SKELETON_GROUP`]-th column (`⌈n / 64⌉ + 1` entries, the last
/// one the records' byte count).
fn skeleton_block(inverse: &SparseApproximateInverse) -> (Vec<u8>, Vec<u64>) {
    let n = inverse.order();
    let shift = inverse.skeleton_shift();
    let mut records = Vec::new();
    let mut group_off = Vec::with_capacity(n.div_ceil(SKELETON_GROUP) + 1);
    for j in 0..n {
        if j % SKELETON_GROUP == 0 {
            group_off.push(records.len() as u64);
        }
        encode_skeleton_record(&mut records, j, shift, inverse.skeleton_buckets(j));
    }
    group_off.push(records.len() as u64);
    (records, group_off)
}

/// Serializes an estimator in the version-2 format (bulk arena blocks, raw
/// row codec, no norms block).
///
/// Kept so compatibility tests can produce fresh v2 bytes (and fixtures can
/// be regenerated); new snapshots should use [`write_snapshot`].
///
/// # Errors
///
/// See [`write_snapshot`].
pub fn write_snapshot_v2<W: Write>(
    writer: &mut W,
    estimator: &EffectiveResistanceEstimator,
    labels: Option<&[u64]>,
) -> Result<(), IoError> {
    let n = validate_for_write(estimator, labels)?;
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION_V2.to_le_bytes())?;
    let mut out = CrcWriter::new(writer);
    write_header_fields(&mut out, estimator, n)?;
    let inverse = estimator.approximate_inverse();
    // The arena, as-is: one col_ptr block, one u32 row block, one f64 value
    // block. No per-column framing.
    out.put_u64(inverse.arena_rows().len() as u64)?;
    out.put_block(inverse.col_ptr(), |p: usize| (p as u64).to_le_bytes())?;
    out.put_block(inverse.arena_rows(), |r: u32| r.to_le_bytes())?;
    out.put_block(inverse.arena_values(), f64::to_le_bytes)?;
    write_labels(&mut out, labels)?;
    let crc = out.crc.finish();
    writer.write_all(&crc.to_le_bytes())?;
    Ok(())
}

/// Serializes an estimator in the legacy per-column format (version 1).
///
/// Kept so compatibility tests can produce fresh v1 bytes (and fixtures can
/// be regenerated); new snapshots should use [`write_snapshot`].
///
/// # Errors
///
/// See [`write_snapshot`].
pub fn write_snapshot_v1<W: Write>(
    writer: &mut W,
    estimator: &EffectiveResistanceEstimator,
    labels: Option<&[u64]>,
) -> Result<(), IoError> {
    let n = validate_for_write(estimator, labels)?;
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION_V1.to_le_bytes())?;
    let mut out = CrcWriter::new(writer);
    write_header_fields(&mut out, estimator, n)?;
    let inverse = estimator.approximate_inverse();
    for j in 0..n {
        let column = inverse.column(j);
        out.put_u32(column.nnz() as u32)?;
        for &i in column.indices() {
            out.put_u32(i)?;
        }
        for &v in column.values() {
            out.put_f64(v)?;
        }
    }
    write_labels(&mut out, labels)?;
    let crc = out.crc.finish();
    writer.write_all(&crc.to_le_bytes())?;
    Ok(())
}

fn validate_for_write(
    estimator: &EffectiveResistanceEstimator,
    labels: Option<&[u64]>,
) -> Result<usize, IoError> {
    let n = estimator.node_count();
    if n > u32::MAX as usize {
        return Err(IoError::Format(format!(
            "{n} nodes exceed the snapshot's u32 index space"
        )));
    }
    if let Some(labels) = labels {
        if labels.len() != n {
            return Err(IoError::Format(format!(
                "label table has {} entries for {n} nodes",
                labels.len()
            )));
        }
    }
    Ok(n)
}

/// Writes the fields shared by both versions: counts, epsilon, stats and the
/// permutation.
fn write_header_fields<W: Write>(
    out: &mut CrcWriter<'_, W>,
    estimator: &EffectiveResistanceEstimator,
    n: usize,
) -> Result<(), IoError> {
    let stats = estimator.stats();
    let inverse = estimator.approximate_inverse();
    out.put_u64(n as u64)?;
    out.put_f64(inverse.epsilon())?;
    out.put_u64(stats.factor_nnz as u64)?;
    out.put_u64(stats.inverse_nnz as u64)?;
    out.put_f64(stats.inverse_nnz_ratio)?;
    out.put_u64(stats.max_depth as u64)?;
    out.put_u64(stats.ichol_dropped as u64)?;
    out.put_u64(stats.pruned_entries as u64)?;
    let inv_stats = inverse.stats();
    out.put_u64(inv_stats.pruned_entries as u64)?;
    out.put_u64(inv_stats.small_columns_kept as u64)?;
    out.put_block(estimator.permutation().new_to_old(), |old: usize| {
        (old as u32).to_le_bytes()
    })?;
    Ok(())
}

fn write_labels<W: Write>(
    out: &mut CrcWriter<'_, W>,
    labels: Option<&[u64]>,
) -> Result<(), IoError> {
    match labels {
        None => out.put(&[0u8]),
        Some(labels) => {
            out.put(&[1u8])?;
            out.put_block(labels, u64::to_le_bytes)
        }
    }
}

/// Reads a snapshot written by [`write_snapshot`] (version 4, the current
/// format) or the legacy [`write_snapshot_v3`], [`write_snapshot_v2`] and
/// [`write_snapshot_v1`] formats, auto-detecting the version from the header, verifying magic and
/// checksum, and revalidating every structural invariant.
///
/// # Errors
///
/// Returns [`IoError::Format`] for bad magic/version/checksum or structurally
/// invalid contents, [`IoError::Io`] on read failure.
pub fn read_snapshot<R: Read>(reader: &mut R) -> Result<Snapshot, IoError> {
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|_| IoError::Format("truncated snapshot (no magic)".into()))?;
    if &magic != MAGIC {
        return Err(IoError::Format("not an effres snapshot (bad magic)".into()));
    }
    let mut version = [0u8; 4];
    reader
        .read_exact(&mut version)
        .map_err(|_| IoError::Format("truncated snapshot (no version)".into()))?;
    match u32::from_le_bytes(version) {
        VERSION_V1 => read_payload(reader, Version::V1),
        VERSION_V2 => read_payload(reader, Version::V2),
        VERSION_V3 => read_payload(reader, Version::V3),
        VERSION_V4 => read_payload(reader, Version::V4),
        other => Err(IoError::Format(format!(
            "unsupported snapshot version {other} \
             (this build reads {VERSION_V1} to {VERSION_V4})"
        ))),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Version {
    V1,
    V2,
    V3,
    V4,
}

/// The payload fields shared by both snapshot versions, up to (and
/// excluding) the column data: sizes, statistics and the fill-reducing
/// permutation. The paged opener reads exactly this much sequentially and
/// then locates the bulk blocks by offset.
pub(crate) struct PayloadHeader {
    pub(crate) n: usize,
    pub(crate) epsilon: f64,
    pub(crate) stats: EstimatorStats,
    pub(crate) inv_stats: ApproxInverseStats,
    pub(crate) permutation: Permutation,
}

/// Reads the shared payload header (see [`PayloadHeader`]).
pub(crate) fn read_payload_header<R: Read>(
    input: &mut CrcReader<'_, R>,
) -> Result<PayloadHeader, IoError> {
    let n = input.take_u64()? as usize;
    if n > u32::MAX as usize {
        return Err(IoError::Format("node count exceeds u32 index space".into()));
    }
    let epsilon = input.take_f64()?;
    let stats = EstimatorStats {
        node_count: n,
        factor_nnz: input.take_u64()? as usize,
        inverse_nnz: input.take_u64()? as usize,
        inverse_nnz_ratio: input.take_f64()?,
        max_depth: input.take_u64()? as usize,
        ichol_dropped: input.take_u64()? as usize,
        pruned_entries: input.take_u64()? as usize,
    };
    let inv_stats = ApproxInverseStats {
        nnz: 0,
        max_column_nnz: 0,
        pruned_entries: input.take_u64()? as usize,
        small_columns_kept: input.take_u64()? as usize,
    };
    let mut new_to_old = Vec::with_capacity(n.min(PREALLOC_CAP));
    input.take_block(n, |b: [u8; 4]| {
        new_to_old.push(u32::from_le_bytes(b) as usize);
        Ok(())
    })?;
    let permutation = Permutation::from_new_to_old(new_to_old)
        .map_err(|e| IoError::Format(format!("invalid permutation: {e}")))?;
    Ok(PayloadHeader {
        n,
        epsilon,
        stats,
        inv_stats,
        permutation,
    })
}

fn read_payload<R: Read>(reader: &mut R, version: Version) -> Result<Snapshot, IoError> {
    let mut input = CrcReader::new(reader);
    let PayloadHeader {
        n,
        epsilon,
        stats,
        inv_stats,
        permutation,
    } = read_payload_header(&mut input)?;

    let (col_ptr, arena_rows, arena_vals, norms) = match version {
        Version::V1 => {
            let (c, r, v) = read_columns_v1(&mut input, n)?;
            (c, r, v, None)
        }
        Version::V2 => {
            let (c, r, v) = read_arena_v2(&mut input, n)?;
            (c, r, v, None)
        }
        Version::V3 | Version::V4 => {
            let (c, r, v, norms) = read_arena_v3(&mut input, n)?;
            if version == Version::V4 {
                read_skeleton_block(&mut input, n)?;
            }
            (c, r, v, Some(norms))
        }
    };

    let labels = match input.take_u8()? {
        0 => None,
        1 => {
            let mut labels = Vec::with_capacity(n.min(PREALLOC_CAP));
            input.take_block(n, |b: [u8; 8]| {
                labels.push(u64::from_le_bytes(b));
                Ok(())
            })?;
            Some(labels)
        }
        other => {
            return Err(IoError::Format(format!("invalid labels flag {other}")));
        }
    };
    let computed = input
        .crc
        .as_ref()
        .expect("the resident loader checksums its whole payload")
        .finish();
    let mut trailer = [0u8; 4];
    input
        .inner
        .read_exact(&mut trailer)
        .map_err(|_| IoError::Format("truncated snapshot (no checksum)".into()))?;
    let expected = u32::from_le_bytes(trailer);
    if computed != expected {
        return Err(IoError::Format(format!(
            "snapshot checksum mismatch: computed {computed:#010x}, stored {expected:#010x}"
        )));
    }
    // `from_arena` revalidates the structural invariants (monotone col_ptr,
    // strictly increasing lower-triangular columns) for every version, so a
    // corrupt-but-checksummed payload still cannot reach the query kernels.
    let inverse = SparseApproximateInverse::from_arena(
        n, col_ptr, arena_rows, arena_vals, inv_stats, epsilon,
    )?;
    let estimator = EffectiveResistanceEstimator::from_parts(inverse, permutation, stats)?;
    if let Some(norms) = norms {
        // v3 persists the write-time norm table (summed in index order, so
        // bit-identical to a recomputed sweep): priming it means a resident
        // load never sweeps the arena for norms again.
        estimator
            .prime_column_norms(norms)
            .map_err(|e| IoError::Format(format!("invalid norms block: {e}")))?;
    }
    let version = Some(match version {
        Version::V1 => 1,
        Version::V2 => 2,
        Version::V3 => 3,
        Version::V4 => 4,
    });
    Ok(Snapshot {
        estimator,
        labels,
        version,
    })
}

/// Reads the v1 per-column records, assembling them into arena buffers.
#[allow(clippy::type_complexity)]
fn read_columns_v1<R: Read>(
    input: &mut CrcReader<'_, R>,
    n: usize,
) -> Result<(Vec<usize>, Vec<u32>, Vec<f64>), IoError> {
    let mut col_ptr = Vec::with_capacity((n + 1).min(PREALLOC_CAP));
    let mut arena_rows: Vec<u32> = Vec::new();
    let mut arena_vals: Vec<f64> = Vec::new();
    col_ptr.push(0usize);
    for j in 0..n {
        let nnz = input.take_u32()? as usize;
        if nnz > n {
            return Err(IoError::Format(format!(
                "column {j} claims {nnz} nonzeros in a {n}-node inverse"
            )));
        }
        let start = arena_rows.len();
        arena_rows.reserve(nnz.min(PREALLOC_CAP));
        for _ in 0..nnz {
            arena_rows.push(input.take_u32()?);
        }
        let column = &arena_rows[start..];
        let sorted = column.windows(2).all(|w| w[0] < w[1]);
        if !sorted || column.last().is_some_and(|&i| i as usize >= n) {
            return Err(IoError::Format(format!(
                "column {j} indices are not strictly increasing within 0..{n}"
            )));
        }
        arena_vals.reserve(nnz.min(PREALLOC_CAP));
        for _ in 0..nnz {
            let v = input.take_f64()?;
            if !v.is_finite() {
                return Err(IoError::Format(format!("non-finite value in column {j}")));
            }
            arena_vals.push(v);
        }
        col_ptr.push(arena_rows.len());
    }
    Ok((col_ptr, arena_rows, arena_vals))
}

/// Reads and validates the v2 `col_ptr` block: `n + 1` `u64` entries that
/// must start at `0`, be monotone non-decreasing, stay within the declared
/// `nnz` and end exactly at it. Violations are rejected *while streaming* —
/// before a single byte of the (much larger) rows/vals blocks is read or
/// allocated — which is what lets the paged store trust the block enough to
/// serve columns lazily from an untrusted file.
pub(crate) fn read_col_ptr_block<R: Read>(
    input: &mut CrcReader<'_, R>,
    n: usize,
    nnz: u64,
) -> Result<Vec<u64>, IoError> {
    let mut col_ptr: Vec<u64> = Vec::with_capacity((n + 1).min(PREALLOC_CAP));
    let mut prev = 0u64;
    input.take_block(n + 1, |b: [u8; 8]| {
        let p = u64::from_le_bytes(b);
        if col_ptr.is_empty() && p != 0 {
            return Err(IoError::Format(format!("col_ptr must start at 0, got {p}")));
        }
        if p < prev {
            return Err(IoError::Format(format!(
                "col_ptr is not monotone: entry {} is {p} after {prev}",
                col_ptr.len()
            )));
        }
        if p > nnz {
            return Err(IoError::Format(format!(
                "col_ptr entry {p} exceeds the declared {nnz} nonzeros"
            )));
        }
        prev = p;
        col_ptr.push(p);
        Ok(())
    })?;
    if col_ptr.last() != Some(&nnz) {
        return Err(IoError::Format(format!(
            "col_ptr must end at the declared {nnz} nonzeros, got {:?}",
            col_ptr.last()
        )));
    }
    Ok(col_ptr)
}

/// Reads the v2 bulk arena blocks straight into the arena buffers.
#[allow(clippy::type_complexity)]
fn read_arena_v2<R: Read>(
    input: &mut CrcReader<'_, R>,
    n: usize,
) -> Result<(Vec<usize>, Vec<u32>, Vec<f64>), IoError> {
    let nnz = input.take_u64()? as usize;
    let col_ptr: Vec<usize> = read_col_ptr_block(input, n, nnz as u64)?
        .into_iter()
        .map(|p| p as usize)
        .collect();
    let mut arena_rows: Vec<u32> = Vec::with_capacity(nnz.min(PREALLOC_CAP));
    input.take_block(nnz, |b: [u8; 4]| {
        let r = u32::from_le_bytes(b);
        // Out-of-range rows are rejected while the block streams, before
        // the value block is allocated.
        if r as usize >= n {
            return Err(IoError::Format(format!(
                "row index {r} out of range for {n} nodes"
            )));
        }
        arena_rows.push(r);
        Ok(())
    })?;
    let arena_vals = input.take_f64_block(nnz, f64::is_finite, NON_FINITE_VALUE)?;
    Ok((col_ptr, arena_rows, arena_vals))
}

/// Reads and validates a v3 `row_off` block (per-column byte offsets of the
/// delta-varint row encoding): `n + 1` monotone `u64` entries starting at 0
/// and ending exactly at `rows_bytes`, with each column's span consistent
/// with its entry count (`count ≤ n` — a column has at most `n` strictly
/// increasing rows — and `count ≤ span ≤ 5·count`, a LEB128 `u32` being 1–5
/// bytes). Like `col_ptr`, violations are rejected while streaming, before
/// the row bytes are touched, which is what lets the paged store locate
/// varint column ranges in an untrusted file — and what bounds every later
/// per-column buffer to `5n` bytes, so a hostile `nnz`/`rows_bytes` cannot
/// drive a giant allocation (the `count ≤ n` bound also keeps `count * 5`
/// far from overflowing).
pub(crate) fn read_row_off_block<R: Read>(
    input: &mut CrcReader<'_, R>,
    col_ptr: &[u64],
    rows_bytes: u64,
) -> Result<Vec<u64>, IoError> {
    let n = col_ptr.len() - 1;
    let mut row_off: Vec<u64> = Vec::with_capacity((n + 1).min(PREALLOC_CAP));
    let mut prev = 0u64;
    input.take_block(n + 1, |b: [u8; 8]| {
        let p = u64::from_le_bytes(b);
        let j = row_off.len();
        if j == 0 {
            if p != 0 {
                return Err(IoError::Format(format!("row_off must start at 0, got {p}")));
            }
        } else {
            if p < prev || p > rows_bytes {
                return Err(IoError::Format(format!(
                    "row_off entry {j} ({p}) is outside the monotone range {prev}..={rows_bytes}"
                )));
            }
            let span = p - prev;
            let count = col_ptr[j] - col_ptr[j - 1];
            if count > n as u64 {
                return Err(IoError::Format(format!(
                    "column {} claims {count} rows in a {n}-node inverse",
                    j - 1
                )));
            }
            if span < count || span > count * 5 {
                return Err(IoError::Format(format!(
                    "column {} claims {span} varint bytes for {count} row(s)",
                    j - 1
                )));
            }
        }
        prev = p;
        row_off.push(p);
        Ok(())
    })?;
    if row_off.last() != Some(&rows_bytes) {
        return Err(IoError::Format(format!(
            "row_off must end at the declared {rows_bytes} row bytes, got {:?}",
            row_off.last()
        )));
    }
    Ok(row_off)
}

/// Reads the v3 arena blocks (codec-dispatched rows, values, norms) into the
/// arena buffers plus the persisted norm table.
#[allow(clippy::type_complexity)]
fn read_arena_v3<R: Read>(
    input: &mut CrcReader<'_, R>,
    n: usize,
) -> Result<(Vec<usize>, Vec<u32>, Vec<f64>, Vec<f64>), IoError> {
    let nnz = input.take_u64()? as usize;
    let col_ptr_u64 = read_col_ptr_block(input, n, nnz as u64)?;
    let codec = input.take_u8()?;
    let mut arena_rows: Vec<u32> = Vec::with_capacity(nnz.min(PREALLOC_CAP));
    match codec {
        ROW_CODEC_RAW => {
            input.take_block(nnz, |b: [u8; 4]| {
                let r = u32::from_le_bytes(b);
                if r as usize >= n {
                    return Err(IoError::Format(format!(
                        "row index {r} out of range for {n} nodes"
                    )));
                }
                arena_rows.push(r);
                Ok(())
            })?;
        }
        ROW_CODEC_VARINT => {
            let rows_bytes = input.take_u64()?;
            let row_off = read_row_off_block(input, &col_ptr_u64, rows_bytes)?;
            // Decode column by column: each column's byte span is known from
            // row_off, so a corrupt encoding can cost at most one bounded
            // column buffer before it is rejected.
            let mut buf: Vec<u8> = Vec::new();
            for j in 0..n {
                let span = (row_off[j + 1] - row_off[j]) as usize;
                let count = (col_ptr_u64[j + 1] - col_ptr_u64[j]) as usize;
                buf.resize(span, 0);
                input.fill(&mut buf)?;
                decode_varint_column(&buf, count, n, &mut arena_rows)
                    .map_err(|e| IoError::Format(format!("column {j}: {e}")))?;
            }
        }
        other => {
            return Err(IoError::Format(format!("unknown v3 row codec {other}")));
        }
    }
    let col_ptr: Vec<usize> = col_ptr_u64.into_iter().map(|p| p as usize).collect();
    let arena_vals = input.take_f64_block(nnz, f64::is_finite, NON_FINITE_VALUE)?;
    let norms = input.take_f64_block(
        n,
        |v| v.is_finite() && v >= 0.0,
        "non-finite or negative entry in the norms block",
    )?;
    Ok((col_ptr, arena_rows, arena_vals, norms))
}

/// Reads the v4 skeleton block under the payload checksum without keeping
/// it: the resident arena derives its skeleton from the rows. The records
/// stream through one bounded chunk buffer; the offset table is checked
/// ([`read_skeleton_offsets`]).
fn read_skeleton_block<R: Read>(input: &mut CrcReader<'_, R>, n: usize) -> Result<(), IoError> {
    let records_bytes = input.take_u64()?;
    let count = usize::try_from(records_bytes)
        .map_err(|_| IoError::Format("skeleton block overflows the address space".into()))?;
    input.take_chunks(count, |_: &[[u8; 1]]| Ok(()))?;
    read_skeleton_offsets(input, n, records_bytes).map(drop)
}

/// Reads and checks the offset table that ends a v4 skeleton block:
/// `⌈n / 64⌉ + 1` `u64` byte offsets into the records, which must start at
/// 0, never decrease, and end at `records_bytes`. Violations are rejected
/// while streaming, so a paged store can locate any group of records with
/// one positioned read.
pub(crate) fn read_skeleton_offsets<R: Read>(
    input: &mut CrcReader<'_, R>,
    n: usize,
    records_bytes: u64,
) -> Result<Vec<u64>, IoError> {
    let entries = n.div_ceil(SKELETON_GROUP) + 1;
    let mut offsets: Vec<u64> = Vec::with_capacity(entries.min(PREALLOC_CAP));
    input.take_block(entries, |b: [u8; 8]| {
        let off = u64::from_le_bytes(b);
        let prev = offsets.last().copied().unwrap_or(0);
        if (offsets.is_empty() && off != 0) || off < prev || off > records_bytes {
            return Err(IoError::Format(format!(
                "skeleton offset {} ({off}) is outside the ascending range {prev}..={records_bytes}",
                offsets.len()
            )));
        }
        offsets.push(off);
        Ok(())
    })?;
    if offsets.last() != Some(&records_bytes) {
        return Err(IoError::Format(format!(
            "skeleton offsets must end at the block's {records_bytes} bytes, got {:?}",
            offsets.last()
        )));
    }
    Ok(offsets)
}

/// The staging path [`save_snapshot`] writes to before its atomic rename: a
/// dot-prefixed sibling of `path` tagged with the writing process id, so the
/// rename never crosses a filesystem boundary and concurrent writers from
/// different processes never collide on the staging file.
fn staging_path(path: &Path) -> std::path::PathBuf {
    let name = path.file_name().map_or_else(
        || std::ffi::OsString::from("snapshot"),
        |n| n.to_os_string(),
    );
    let mut staged = std::ffi::OsString::from(".");
    staged.push(&name);
    staged.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(staged)
}

/// Makes the rename that committed `path` durable by fsyncing its parent
/// directory (the rename itself lives in the directory's metadata). A no-op
/// on non-Unix targets, where directories cannot be opened for syncing.
fn sync_parent_dir(path: &Path) -> Result<(), IoError> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let dir = std::fs::File::open(parent)?;
        dir.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Flushes `writer`, fsyncs the staged file behind it, and atomically renames
/// it over `path` (fsyncing the parent directory so the rename is durable).
fn commit_staged(
    mut writer: BufWriter<std::fs::File>,
    staged: &Path,
    path: &Path,
) -> Result<(), IoError> {
    writer.flush()?;
    let file = writer
        .into_inner()
        .map_err(|e| IoError::Io(e.into_error()))?;
    file.sync_all()?;
    std::fs::rename(staged, path)?;
    sync_parent_dir(path)
}

/// Writes a snapshot to a file in the current format, **crash-safely**: the
/// bytes are staged in a temporary sibling file, flushed and fsynced, and
/// only then atomically renamed over `path` (with the parent directory
/// fsynced so the rename itself is durable). A crash — of this process or
/// the machine — at any byte leaves either the previous contents of `path`
/// or no file at all, never a torn snapshot. On an error return the staging
/// file is removed.
///
/// # Errors
///
/// See [`write_snapshot`]; staging, fsync and rename failures surface as
/// [`IoError::Io`].
pub fn save_snapshot(
    path: impl AsRef<Path>,
    estimator: &EffectiveResistanceEstimator,
    labels: Option<&[u64]>,
) -> Result<(), IoError> {
    let path = path.as_ref();
    let staged = staging_path(path);
    let result = (|| {
        let file = std::fs::File::create(&staged)?;
        let mut writer = BufWriter::new(file);
        write_snapshot(&mut writer, estimator, labels)?;
        commit_staged(writer, &staged, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&staged);
    }
    result
}

/// The marker message carried by the simulated-crash I/O error that
/// [`save_snapshot_crashing_at`] injects.
const SIMULATED_CRASH: &str = "simulated crash point";

/// A writer that passes through exactly `remaining` bytes and then fails
/// every further write, simulating a process death at a byte boundary.
struct CrashWriter<W> {
    inner: W,
    remaining: u64,
}

impl<W: Write> Write for CrashWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return Err(std::io::Error::other(SIMULATED_CRASH));
        }
        let take = buf
            .len()
            .min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let written = self.inner.write(&buf[..take])?;
        self.remaining -= written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Test support for the crash-safety guarantee: runs the exact
/// [`save_snapshot`] staging path, but simulates a process crash once
/// `crash_after_bytes` bytes have reached the staging file — writing stops
/// mid-stream, nothing is fsynced or renamed, and the truncated staging file
/// is **left behind**, reproducing the on-disk state an interrupted
/// [`save_snapshot`] leaves. `path` itself is never touched.
///
/// Returns `Ok(false)` if the simulated crash fired, and `Ok(true)` if the
/// whole snapshot fit within the budget, in which case the write committed
/// normally (fsync + atomic rename) exactly as [`save_snapshot`] would.
///
/// # Errors
///
/// See [`save_snapshot`]; the injected crash itself is reported via the
/// `Ok(false)` return, not as an error.
pub fn save_snapshot_crashing_at(
    path: impl AsRef<Path>,
    estimator: &EffectiveResistanceEstimator,
    labels: Option<&[u64]>,
    crash_after_bytes: u64,
) -> Result<bool, IoError> {
    let path = path.as_ref();
    let staged = staging_path(path);
    let file = std::fs::File::create(&staged)?;
    let mut writer = BufWriter::new(CrashWriter {
        inner: file,
        remaining: crash_after_bytes,
    });
    let staged_result = write_snapshot(&mut writer, estimator, labels).and_then(|()| {
        // The buffered tail may still trip the crash point on flush.
        writer.flush().map_err(IoError::Io)
    });
    match staged_result {
        Ok(()) => {
            let file = writer
                .into_inner()
                .map_err(|e| IoError::Io(e.into_error()))?
                .inner;
            file.sync_all()?;
            std::fs::rename(&staged, path)?;
            sync_parent_dir(path)?;
            Ok(true)
        }
        Err(IoError::Io(e)) if e.to_string().contains(SIMULATED_CRASH) => Ok(false),
        Err(other) => {
            let _ = std::fs::remove_file(&staged);
            Err(other)
        }
    }
}

/// Loads a snapshot from a file (buffered), auto-detecting the version.
///
/// # Errors
///
/// See [`read_snapshot`].
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Snapshot, IoError> {
    let file = std::fs::File::open(path)?;
    read_snapshot(&mut BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use effres::EffresConfig;
    use effres_graph::generators;
    use proptest::prelude::*;

    fn sample_estimator() -> EffectiveResistanceEstimator {
        let graph = generators::grid_2d(12, 12, 0.5, 2.0, 9).expect("generator");
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build")
    }

    #[test]
    fn round_trip_preserves_queries_stats_and_labels() {
        let estimator = sample_estimator();
        let labels: Vec<u64> = (0..estimator.node_count() as u64)
            .map(|i| i * 7 + 3)
            .collect();
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &estimator, Some(&labels)).expect("write");
        let snapshot = read_snapshot(&mut bytes.as_slice()).expect("read");
        assert_eq!(snapshot.labels.as_deref(), Some(labels.as_slice()));
        assert_eq!(snapshot.estimator.stats(), estimator.stats());
        for &(p, q) in &[(0, 143), (10, 77), (64, 65), (3, 3)] {
            let a = estimator.query(p, q).expect("query");
            let b = snapshot.estimator.query(p, q).expect("query");
            assert_eq!(a, b, "({p},{q})");
        }
    }

    #[test]
    fn all_writers_round_trip_identically() {
        // Same estimator through every format: the loaded arenas must match
        // bit-for-bit — v1's per-column records, v2's bulk blocks, v3's
        // codec-negotiated blocks and v4's v3 plus skeleton are four
        // encodings of the same buffers.
        let estimator = sample_estimator();
        let mut v1 = Vec::new();
        write_snapshot_v1(&mut v1, &estimator, None).expect("write v1");
        let mut v2 = Vec::new();
        write_snapshot_v2(&mut v2, &estimator, None).expect("write v2");
        let mut v3 = Vec::new();
        write_snapshot_v3(&mut v3, &estimator, None).expect("write v3");
        let mut v4 = Vec::new();
        write_snapshot(&mut v4, &estimator, None).expect("write v4");
        assert_eq!(u32::from_le_bytes(v1[8..12].try_into().unwrap()), 1);
        assert_eq!(u32::from_le_bytes(v2[8..12].try_into().unwrap()), 2);
        assert_eq!(u32::from_le_bytes(v3[8..12].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(v4[8..12].try_into().unwrap()), 4);
        // Same rows/vals payload; v1 and v2 differ only in framing (v1: one
        // u32 nnz per column, v2: a u64 col_ptr block + nnz header).
        assert_eq!(v2.len() as i64 - v1.len() as i64, 8 * 145 + 8 - 4 * 144);
        let from_v1 = read_snapshot(&mut v1.as_slice()).expect("read v1");
        let from_v2 = read_snapshot(&mut v2.as_slice()).expect("read v2");
        let from_v3 = read_snapshot(&mut v3.as_slice()).expect("read v3");
        let from_v4 = read_snapshot(&mut v4.as_slice()).expect("read v4");
        let a = from_v1.estimator.approximate_inverse();
        for loaded in [&from_v2, &from_v3, &from_v4] {
            let b = loaded.estimator.approximate_inverse();
            assert_eq!(a.col_ptr(), b.col_ptr());
            assert_eq!(a.arena_rows(), b.arena_rows());
            assert!(a
                .arena_values()
                .iter()
                .zip(b.arena_values())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
            assert_eq!(from_v1.estimator.stats(), loaded.estimator.stats());
        }
        // Only the v3 load arrives with the norm table already resident, and
        // it matches a recomputed sweep bit for bit.
        assert!(from_v1.estimator.cached_column_norms().is_none());
        assert!(from_v2.estimator.cached_column_norms().is_none());
        let primed = from_v3
            .estimator
            .cached_column_norms()
            .expect("v3 loads norms");
        assert!(estimator
            .approximate_inverse()
            .column_norms_squared()
            .iter()
            .zip(primed)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn v3_negotiates_the_varint_codec_when_it_shrinks_the_rows() {
        // The 144-node sample has dense-ish columns with small gaps: varint
        // deltas beat raw u32 rows even after paying for the offset table.
        let estimator = sample_estimator();
        let mut v3 = Vec::new();
        write_snapshot(&mut v3, &estimator, None).expect("write v3");
        let n = estimator.node_count();
        let codec_at = 12 + 16 + 48 + 16 + 4 * n + 8 + 8 * (n + 1);
        assert_eq!(v3[codec_at], super::ROW_CODEC_VARINT);
        let mut v2 = Vec::new();
        write_snapshot_v2(&mut v2, &estimator, None).expect("write v2");
        assert!(
            v3.len() < v2.len(),
            "v3 ({}) should be smaller than v2 ({})",
            v3.len(),
            v2.len()
        );
    }

    #[test]
    fn varint_codec_round_trips_hostile_shaped_columns() {
        // Encode/decode edge cases directly: empty columns, the maximum
        // index, single-byte and five-byte varints.
        for rows in [
            vec![],
            vec![0u32],
            vec![u32::MAX - 1],
            vec![0, 1, 2, 3],
            vec![5, 1000, 1001, u32::MAX - 2],
        ] {
            let mut bytes = Vec::new();
            super::encode_varint_column(&mut bytes, &rows);
            assert_eq!(bytes.len() as u64, super::varint_column_len(&rows));
            let mut decoded = Vec::new();
            super::decode_varint_column(&bytes, rows.len(), u32::MAX as usize, &mut decoded)
                .expect("round trip");
            assert_eq!(decoded, rows);
        }
        // Malformed encodings are rejected: zero gap, truncation, trailing
        // garbage, out-of-range index, over-long varint.
        let mut ok = Vec::new();
        super::encode_varint_column(&mut ok, &[3, 7]);
        let mut out = Vec::new();
        assert!(super::decode_varint_column(&[3, 0], 2, 100, &mut out).is_err());
        out.clear();
        assert!(super::decode_varint_column(&ok[..1], 2, 100, &mut out).is_err());
        out.clear();
        let mut padded = ok.clone();
        padded.push(1);
        assert!(super::decode_varint_column(&padded, 2, 100, &mut out).is_err());
        out.clear();
        assert!(super::decode_varint_column(&ok, 2, 7, &mut out).is_err());
        out.clear();
        assert!(super::decode_varint_column(
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            1,
            100,
            &mut out
        )
        .is_err());
    }

    /// Runs the word-at-a-time decoder and the exact one over the same
    /// column, each appending to the same non-empty output, and asserts
    /// equal results (`Err` strings included) and equal outputs.
    fn assert_decoders_agree(bytes: &[u8], count: usize, order: usize) {
        let mut fast = vec![7u32, 9];
        let mut exact = fast.clone();
        let got = super::decode_varint_column(bytes, count, order, &mut fast);
        let want = super::decode_varint_column_exact(bytes, count, order, &mut exact);
        assert_eq!(got, want, "{bytes:?}, count {count}, order {order}");
        assert_eq!(fast, exact, "{bytes:?}, count {count}, order {order}");
    }

    /// `rows` encoded, then decoded at `count` and at both order bounds.
    fn check_column(rows: &[u32], mutate: impl Fn(&mut Vec<u8>)) {
        let mut bytes = Vec::new();
        super::encode_varint_column(&mut bytes, rows);
        mutate(&mut bytes);
        let last = rows.last().map_or(0, |&r| r as usize);
        for order in [last + 1, last, u32::MAX as usize, usize::MAX] {
            for count in [rows.len(), rows.len() + 1, rows.len().saturating_sub(1)] {
                assert_decoders_agree(&bytes, count, order);
            }
        }
    }

    #[test]
    fn word_decoder_matches_the_exact_decoder_on_shaped_columns() {
        for count in 0..=40usize {
            for align in 0..8usize {
                for big in [1u32, 127, 128, 16_383, 16_384] {
                    // Small gaps with a `big` one every fifth row, shifted
                    // by `align` so it lands on every byte of a word.
                    let mut rows = Vec::with_capacity(count);
                    let mut row = align as u32;
                    for i in 0..count {
                        if i > 0 {
                            row += if (i + align) % 5 == 0 {
                                big
                            } else {
                                1 + (i * 37 % 127) as u32
                            };
                        }
                        rows.push(row);
                    }
                    check_column(&rows, |_| {});
                    // A well-formed column never leaves the word path.
                    let mut words = vec![0; count];
                    let mut encoded = Vec::new();
                    super::encode_varint_column(&mut encoded, &rows);
                    assert!(super::decode_varint_words(
                        &encoded,
                        row as usize + 1,
                        &mut words
                    ));
                    assert_eq!(words, rows);
                    // The same bytes at every alignment of the buffer.
                    let mut bytes = vec![0xAA; align];
                    super::encode_varint_column(&mut bytes, &rows);
                    assert_decoders_agree(&bytes[align..], count, row as usize + 1);
                    // Every byte made a zero gap, a continuation or an
                    // over-long varint's start.
                    for at in (0..bytes.len() - align).filter(|_| big >= 128) {
                        for byte in [0u8, 0x80, 0xFF] {
                            check_column(&rows, |b| b[at] = byte);
                        }
                    }
                    // Truncated and trailing bytes.
                    check_column(&rows, |b| {
                        b.pop();
                    });
                    check_column(&rows, |b| b.push(1));
                    check_column(&rows, |b| b.push(0));
                }
            }
        }
        // First rows up to u32::MAX and beyond (five-byte varints), and
        // over-long and multi-byte zero varints, first and as a gap.
        for first in [0u32, 127, 128, u32::MAX - 3, u32::MAX] {
            check_column(&[first], |_| {});
            check_column(&[first, first.saturating_add(1)], |_| {});
        }
        for bytes in [
            &[0x80, 0x80, 0x80, 0x80, 0x10][..],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            &[0x05, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            &[0x05, 0x80, 0x00],
            &[0x05, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x80, 0x00],
        ] {
            for count in 0..4 {
                for order in [100, usize::MAX] {
                    assert_decoders_agree(bytes, count, order);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Random byte strings: almost all malformed, in every way at once.
        #[test]
        fn word_decoder_matches_the_exact_decoder_on_random_bytes(
            (bytes, count, order) in (
                proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..48),
                0usize..50,
                0usize..20_000,
            ),
        ) {
            assert_decoders_agree(&bytes, count, order);
        }

        /// Random well-formed columns of mostly one-byte gaps, then one
        /// random byte overwritten.
        #[test]
        fn word_decoder_matches_the_exact_decoder_on_near_valid_columns(
            (gaps, at, byte) in (
                proptest::collection::vec((0u32..300).prop_map(|g| g % 150 + 1), 0..80),
                0usize..100,
                0u32..256,
            ),
        ) {
            let rows: Vec<u32> = gaps
                .iter()
                .scan(0u32, |row, &gap| {
                    *row += gap;
                    Some(*row)
                })
                .collect();
            check_column(&rows, |_| {});
            check_column(&rows, |b| {
                if let Some(slot) = b.get_mut(at) {
                    *slot = byte as u8;
                }
            });
        }
    }

    #[test]
    fn no_labels_flag_round_trips() {
        let estimator = sample_estimator();
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &estimator, None).expect("write");
        let snapshot = read_snapshot(&mut bytes.as_slice()).expect("read");
        assert!(snapshot.labels.is_none());
    }

    #[test]
    fn corruption_is_detected() {
        let estimator = sample_estimator();
        for write in [
            write_snapshot::<Vec<u8>>,
            write_snapshot_v3::<Vec<u8>>,
            write_snapshot_v2::<Vec<u8>>,
            write_snapshot_v1::<Vec<u8>>,
        ] {
            let mut bytes = Vec::new();
            write(&mut bytes, &estimator, None).expect("write");

            // Bad magic.
            let mut bad = bytes.clone();
            bad[0] ^= 0xff;
            assert!(matches!(
                read_snapshot(&mut bad.as_slice()),
                Err(IoError::Format(_))
            ));

            // Bad version.
            let mut bad = bytes.clone();
            bad[8] = 99;
            assert!(matches!(
                read_snapshot(&mut bad.as_slice()),
                Err(IoError::Format(_))
            ));

            // Flipped payload byte → checksum mismatch (or a structural
            // error if the flip lands on a count).
            let mut bad = bytes.clone();
            let mid = bytes.len() / 2;
            bad[mid] ^= 0x01;
            assert!(read_snapshot(&mut bad.as_slice()).is_err());

            // Truncation.
            let cut = &bytes[..bytes.len() - 7];
            assert!(read_snapshot(&mut &cut[..]).is_err());
        }
    }

    #[test]
    fn a_flipped_bit_in_any_region_of_the_v3_fixture_is_rejected() {
        // The committed 144-node labeled fixture, varint rows. Region
        // bounds come from its own size fields, then are pinned.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v3_grid12.snap");
        let bytes = std::fs::read(path).expect("fixture");
        read_snapshot(&mut bytes.as_slice()).expect("the fixture loads");
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let n = u64_at(12);
        let permutation = 12 + 16 + 48 + 16;
        let col_ptr = permutation + 4 * n + 8;
        let row_off = col_ptr + 8 * (n + 1) + 1 + 8;
        let rows = row_off + 8 * (n + 1);
        let values = rows + u64_at(row_off - 8);
        let norms = values + 8 * u64_at(col_ptr - 8);
        let labels = norms + 8 * n + 1;
        let crc = labels + 8 * n;
        assert_eq!((n, values, norms, crc + 4), (144, 12_890, 91_842, 94_151));
        let regions = [
            ("header", 0..permutation),
            ("permutation", permutation..col_ptr - 8),
            ("col_ptr", col_ptr..row_off - 9),
            ("row_off", row_off..rows),
            ("rows", rows..values),
            ("values", values..norms),
            ("norms", norms..labels - 1),
            ("labels", labels..crc),
            ("crc trailer", crc..crc + 4),
        ];
        // One bit (the lowest) of every 31st byte, walking down from the
        // last. A low bit never turns a finite f64 non-finite, so no
        // structural check can see a flip in the value block: only the
        // checksum catches it.
        let mut flips = [0usize; 9];
        for at in (0..bytes.len()).rev().step_by(31) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            let err = read_snapshot(&mut bad.as_slice())
                .map(|_| ())
                .expect_err(&format!("a flip at byte {at} must be rejected"));
            if (values..norms).contains(&at) {
                assert!(
                    matches!(&err, IoError::Format(m) if m.contains("checksum mismatch")),
                    "byte {at}: {err}"
                );
            }
            if let Some(k) = regions.iter().position(|(_, r)| r.contains(&at)) {
                flips[k] += 1;
            }
        }
        for ((name, _), count) in regions.iter().zip(flips) {
            assert!(count > 0, "no flip landed in the {name}");
        }
    }

    #[test]
    fn hostile_header_errors_instead_of_allocating() {
        // A tiny snapshot whose header claims u32::MAX nodes must fail with a
        // clean format error (truncated payload), not abort the process
        // trying to preallocate gigabytes — in every version.
        for version in [1u32, 2, 3, 4] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(b"EFRSNAP\n");
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
            bytes.extend_from_slice(&[0u8; 16]); // a few payload bytes, then EOF
            assert!(matches!(
                read_snapshot(&mut bytes.as_slice()),
                Err(IoError::Format(_))
            ));
        }
    }

    #[test]
    fn hostile_v3_varint_header_errors_instead_of_allocating() {
        // A tiny crafted v3 file whose single column claims 2^61 rows and
        // 2^61 varint bytes: the count-per-column bound (≤ n) must reject it
        // while streaming row_off — before `buf.resize(span)` or
        // `out.reserve(count)` could turn the hostile sizes into a
        // multi-exbibyte allocation request.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"EFRSNAP\n");
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes()); // n = 1
        bytes.extend_from_slice(&1e-3f64.to_le_bytes()); // epsilon
        bytes.extend_from_slice(&[0u8; 48]); // estimator stats
        bytes.extend_from_slice(&[0u8; 16]); // inverse counters
        bytes.extend_from_slice(&0u32.to_le_bytes()); // permutation [0]
        let huge = 1u64 << 61;
        bytes.extend_from_slice(&huge.to_le_bytes()); // nnz
        bytes.extend_from_slice(&0u64.to_le_bytes()); // col_ptr[0]
        bytes.extend_from_slice(&huge.to_le_bytes()); // col_ptr[1]
        bytes.extend_from_slice(&[1u8]); // varint codec
        bytes.extend_from_slice(&huge.to_le_bytes()); // rows_bytes
        bytes.extend_from_slice(&0u64.to_le_bytes()); // row_off[0]
        bytes.extend_from_slice(&huge.to_le_bytes()); // row_off[1]
        let err = read_snapshot(&mut bytes.as_slice()).expect_err("must reject");
        assert!(
            matches!(&err, IoError::Format(m) if m.contains("claims")),
            "{err}"
        );
    }

    #[test]
    fn hostile_nnz_errors_instead_of_allocating() {
        // A structurally plausible v2 header whose nnz field is absurd must
        // run out of payload (format error), not allocate nnz-sized buffers.
        let estimator = sample_estimator();
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &estimator, None).expect("write");
        // The nnz u64 sits right after the permutation block.
        let n = estimator.node_count();
        let nnz_offset = 8 + 4 + 8 + 8 + 6 * 8 + 2 * 8 + 4 * n;
        bytes[nnz_offset..nnz_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_snapshot(&mut bytes.as_slice()),
            Err(IoError::Format(_))
        ));
    }

    #[test]
    fn wrong_label_length_rejected_at_write_time() {
        let estimator = sample_estimator();
        let labels = vec![1u64; 3];
        let mut bytes = Vec::new();
        assert!(matches!(
            write_snapshot(&mut bytes, &estimator, Some(&labels)),
            Err(IoError::Format(_))
        ));
    }
}
