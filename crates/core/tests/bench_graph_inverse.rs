//! The approximate inverse of the benchmark graph, pinned.
//!
//! `perfbench` and the `inverse_build` bench build `Z̃` (Alg. 2, ε = 1e-3,
//! dense-column threshold 4) from the incomplete factor (drop tolerance
//! 1e-3) of the grounded Laplacian of `grid_2d(320, 320, 0.5, 2.0, 7)` under
//! `amd::amd`. The snapshot bytes and every answer downstream follow from
//! that arena, so a faster sweep has to return it bit for bit. Each case
//! pins an FNV-1a fingerprint of the sequential build's `col_ptr`,
//! `arena_rows` and value bits, and its four build counters; a 2-thread
//! pooled build must give the same fingerprint and counters. Every stored
//! value must also be finite with its sign bit clear (Lemma 1), the
//! property behind the fingerprint that any content check of paged reads
//! may rely on.
//!
//! The 320×320 case takes tens of seconds in a debug build, so it is
//! ignored there; CI runs it in release:
//!
//! ```text
//! cargo test --release -p effres --test bench_graph_inverse -- --include-ignored
//! ```

use effres::approx_inverse::{ApproxInverseStats, SparseApproximateInverse};
use effres::BuildOptions;
use effres_graph::{generators, laplacian::grounded_laplacian};
use effres_sparse::ichol::{IcholOptions, IncompleteCholesky};
use effres_sparse::{amd, WorkerPool};
use std::sync::Arc;

const EPSILON: f64 = 1e-3;
const DENSE_COLUMN_THRESHOLD: usize = 4;

/// FNV-1a over the little-endian bytes of `col_ptr` (as `u64`), then of
/// `arena_rows` (as `u32`), then of the value bits (as `u64`).
fn fingerprint(inverse: &SparseApproximateInverse) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &p in inverse.col_ptr() {
        feed(&(p as u64).to_le_bytes());
    }
    for &row in inverse.arena_rows() {
        feed(&row.to_le_bytes());
    }
    for &value in inverse.arena_values() {
        feed(&value.to_bits().to_le_bytes());
    }
    hash
}

fn assert_pinned(side: usize, expected_fingerprint: u64, expected_stats: ApproxInverseStats) {
    let graph = generators::grid_2d(side, side, 0.5, 2.0, 7).expect("generator");
    let laplacian = grounded_laplacian(&graph, 1.0);
    let permutation = amd::amd(&laplacian).expect("square");
    let permuted = laplacian.permute_symmetric(&permutation).expect("square");
    let factor = IncompleteCholesky::factor(
        &permuted,
        IcholOptions {
            drop_tolerance: 1e-3,
            ..IcholOptions::default()
        },
    )
    .expect("factor")
    .into_factor();

    let sequential = SparseApproximateInverse::from_factor_with(
        &factor,
        EPSILON,
        DENSE_COLUMN_THRESHOLD,
        &BuildOptions::sequential(),
    )
    .expect("Alg. 2");
    assert_eq!(
        sequential.stats(),
        expected_stats,
        "{side}x{side} grid: the build counters changed"
    );
    assert_eq!(
        fingerprint(&sequential),
        expected_fingerprint,
        "{side}x{side} grid: the sequential arena changed"
    );
    let values = sequential.arena_values();
    assert!(
        values
            .iter()
            .all(|v| v.is_finite() && !v.is_sign_negative()),
        "{side}x{side} grid: a stored value is non-finite or has its sign bit set"
    );

    let pool = WorkerPool::new(2);
    let pooled = SparseApproximateInverse::from_factor_shared(
        Arc::new(factor),
        EPSILON,
        DENSE_COLUMN_THRESHOLD,
        &BuildOptions::default().with_threads(2),
        Some(&pool),
    )
    .expect("Alg. 2");
    assert_eq!(
        pooled.stats(),
        expected_stats,
        "{side}x{side} pooled counters"
    );
    assert_eq!(
        fingerprint(&pooled),
        expected_fingerprint,
        "{side}x{side} grid: the 2-thread pooled arena differs from the sequential one"
    );
}

#[test]
fn quarter_size_grid_inverse_is_pinned() {
    assert_pinned(
        160,
        0x0aa5_1c91_1732_f757,
        ApproxInverseStats {
            nnz: 3_786_685,
            max_column_nnz: 258,
            pruned_entries: 617_475,
            small_columns_kept: 35,
        },
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs it in release"
)]
fn bench_grid_inverse_is_pinned() {
    assert_pinned(
        320,
        0xfdf8_8b65_f6d4_2fa4,
        ApproxInverseStats {
            nnz: 15_878_865,
            max_column_nnz: 328,
            pruned_entries: 2_796_209,
            small_columns_kept: 110,
        },
    );
}
