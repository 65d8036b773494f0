//! The minimum-degree ordering of the benchmark graph, pinned.
//!
//! `perfbench` and the `inverse_build` bench factor the grounded Laplacian
//! of `grid_2d(320, 320, 0.5, 2.0, 7)` under `amd::amd`. The incomplete
//! factor, the approximate inverse, the snapshot bytes and every answer
//! downstream follow from that permutation, so a faster ordering has to
//! return it bit for bit. Each case pins an FNV-1a fingerprint of
//! `new_to_old()` and the fill of the exact factor under the permutation.
//!
//! The 320×320 case takes tens of seconds in a debug build, so it is
//! ignored there; CI runs it in release:
//!
//! ```text
//! cargo test --release -p effres --test bench_graph_ordering -- --include-ignored
//! ```

use effres_graph::{generators, laplacian::grounded_laplacian};
use effres_sparse::amd;
use effres_sparse::symbolic::SymbolicCholesky;

/// FNV-1a over the little-endian `u64` of every entry.
fn fingerprint(new_to_old: &[usize]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &old in new_to_old {
        for byte in (old as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn assert_pinned(side: usize, expected_fingerprint: u64, expected_factor_nnz: usize) {
    let graph = generators::grid_2d(side, side, 0.5, 2.0, 7).expect("generator");
    let laplacian = grounded_laplacian(&graph, 1.0);
    let permutation = amd::amd(&laplacian).expect("square");
    assert_eq!(
        fingerprint(permutation.new_to_old()),
        expected_fingerprint,
        "{side}x{side} grid: the minimum-degree permutation changed"
    );
    let permuted = laplacian.permute_symmetric(&permutation).expect("square");
    let factor_nnz = SymbolicCholesky::analyze(&permuted)
        .expect("square")
        .factor_nnz();
    assert_eq!(factor_nnz, expected_factor_nnz, "{side}x{side} grid fill");
}

#[test]
fn quarter_size_grid_ordering_is_pinned() {
    assert_pinned(160, 0xc946_caf8_7a3e_12d5, 740_514);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs it in release"
)]
fn bench_grid_ordering_is_pinned() {
    assert_pinned(320, 0x1f98_5fe9_b386_3979, 3_951_480);
}
