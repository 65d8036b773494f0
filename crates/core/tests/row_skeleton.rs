//! The resident arena's row-bucket skeleton is sound: whenever
//! `suffixes_meet_from(p, q)` certifies a pair disjoint, the two suffixes at
//! rows `max(p, q)..` share no row, and whenever it returns a row, no
//! shared row lies below it. The pair kernel leans on both facts to answer
//! certified pairs without a row read and to start other pairs' walks late,
//! so the dot must keep the bits of a plain dot over the whole suffixes.
//!
//! Checked on grids under both orderings, power-grid meshes, preferential
//! attachment and a disconnected graph, with random pairs in both argument
//! orders, and on hand-built inverses: rows on bucket edges, an empty
//! column, a column paired with itself, and the shift rule at an order
//! above 2^20.

use effres::approx_inverse::{ApproxInverseStats, SparseApproximateInverse};
use effres::column_store::{column_dot, ColumnStore};
use effres::{EffectiveResistanceEstimator, EffresConfig, Ordering};
use effres_graph::generators::{self, PowerGridMeshOptions};
use effres_graph::Graph;
use effres_sparse::{vecops, SparseVec};
use proptest::prelude::*;

/// Rows `bound..` of column `j`.
fn suffix(z: &SparseApproximateInverse, j: usize, bound: usize) -> (&[u32], &[f64]) {
    let column = z.column(j);
    let start = column
        .indices()
        .partition_point(|&row| (row as usize) < bound);
    (&column.indices()[start..], &column.values()[start..])
}

/// Checks the skeleton's answer for `(p, q)` against the rows, and the
/// kernel's dot against a plain dot over the whole suffixes, bitwise.
/// Returns whether the pair was certified.
fn assert_sound(z: &SparseApproximateInverse, p: usize, q: usize) -> bool {
    let bound = p.max(q);
    let ((ai, av), (bi, bv)) = (suffix(z, p, bound), suffix(z, q, bound));
    let first_shared = ai.iter().find(|row| bi.binary_search(row).is_ok());
    let meet = ColumnStore::suffixes_meet_from(z, p, q);
    assert_eq!(
        meet,
        ColumnStore::suffixes_meet_from(z, q, p),
        "({p}, {q}) both ways"
    );
    match meet {
        None => {
            assert_eq!(vecops::sparse_meet(ai, bi), None, "({p}, {q}) certified");
        }
        Some(from) => {
            assert!(from as usize >= bound, "({p}, {q}) starts at {from}");
            if let Some(&row) = first_shared {
                assert!(row >= from, "({p}, {q}) shares row {row} below {from}");
            }
        }
    }
    let dot = column_dot(z, p, q).expect("resident");
    assert_eq!(
        dot.to_bits(),
        vecops::sparse_dot(ai, av, bi, bv).to_bits(),
        "({p}, {q}) dot"
    );
    meet.is_none()
}

/// Two grids with no edge between them.
fn two_grids(side: usize) -> Graph {
    let n = side * side;
    let mut graph = Graph::with_capacity(2 * n, 4 * n);
    for block in [0, n] {
        for r in 0..side {
            for c in 0..side {
                let u = block + r * side + c;
                if c + 1 < side {
                    graph
                        .add_edge(u, u + 1, 1.0 + (u % 3) as f64)
                        .expect("edge");
                }
                if r + 1 < side {
                    graph.add_edge(u, u + side, 1.0).expect("edge");
                }
            }
        }
    }
    graph
}

/// One random graph, ordering and pair seed.
fn case() -> impl Strategy<Value = (Graph, Ordering, u64)> {
    (0usize..5, 8usize..40, any::<u64>(), any::<bool>()).prop_map(|(shape, size, seed, md)| {
        let graph = match shape {
            0 | 1 => generators::grid_2d(size, size + seed as usize % 7, 0.5, 2.0, seed),
            2 => generators::power_grid_mesh(PowerGridMeshOptions {
                rows: size,
                cols: size,
                seed,
                ..PowerGridMeshOptions::default()
            }),
            3 => generators::preferential_attachment(size * size, 1 + size % 3, 0.5, 2.0, seed),
            _ => Ok(two_grids(size)),
        }
        .expect("generator");
        let ordering = if md {
            Ordering::MinimumDegree
        } else {
            Ordering::Rcm
        };
        (graph, ordering, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn a_certified_pair_shares_no_row_and_no_walk_skips_a_shared_row(
        (graph, ordering, seed) in case()
    ) {
        let config = EffresConfig::default().with_ordering(ordering);
        let estimator = EffectiveResistanceEstimator::build(&graph, &config).expect("build");
        let z = estimator.approximate_inverse();
        let n = z.order();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % n
        };
        for _ in 0..400 {
            let (p, q) = (next(), next());
            assert_sound(z, p, q);
        }
    }
}

#[test]
fn most_pairs_of_a_large_grid_are_certified_and_none_meets() {
    let graph = generators::grid_2d(100, 100, 0.5, 2.0, 3).expect("generator");
    let config = EffresConfig::default().with_ordering(Ordering::MinimumDegree);
    let estimator = EffectiveResistanceEstimator::build(&graph, &config).expect("build");
    let z = estimator.approximate_inverse();
    let n = z.order();
    let certified = (0..4_000)
        .filter(|&k| assert_sound(z, (k * 7_919) % n, (k * 104_729 + 13) % n))
        .count();
    assert!(certified > 0, "no pair of a 100 × 100 grid certified");
}

/// A hand-built inverse of `order` columns from `(column, rows)` lists; the
/// other columns are empty.
fn hand_built(order: usize, columns: &[(usize, &[usize])]) -> SparseApproximateInverse {
    let mut parts: Vec<SparseVec> = (0..order).map(|_| SparseVec::new(order)).collect();
    for &(j, rows) in columns {
        let values = rows.iter().map(|&row| 1.0 + row as f64).collect();
        parts[j] = SparseVec::from_sorted(order, rows.to_vec(), values);
    }
    SparseApproximateInverse::from_parts(parts, ApproxInverseStats::default(), 0.0)
        .expect("valid columns")
}

#[test]
fn bucket_edges_empty_columns_and_self_pairs() {
    let z = &hand_built(
        80,
        &[
            // 31 | 32: the last row of bucket 1 against the first of bucket 2.
            (20, &[20, 31]),
            (32, &[32, 40]),
            // 15 | 16 in one suffix: column 5's row 15 lies below the bound.
            (5, &[5, 15, 16]),
            (16, &[16]),
            // A shared row on a bucket edge, and rows in a shared bucket that
            // are not shared.
            (6, &[6, 47, 64]),
            (48, &[48, 64]),
            (7, &[7, 50]),
            (49, &[49, 51]),
            // Column 60 is left empty.
        ],
    );
    // Rows 31 and 32 lie in different buckets: certified, no shared row.
    assert_eq!(ColumnStore::suffixes_meet_from(z, 20, 32), None);
    // Row 15 lies below the bound 16, and both hold row 16.
    assert_eq!(ColumnStore::suffixes_meet_from(z, 5, 16), Some(16));
    // Row 47 lies below the bound 48, and column 6 holds nothing in bucket
    // 3; row 64 is shared, and the walk starts at its bucket, not at 48.
    assert_eq!(ColumnStore::suffixes_meet_from(z, 6, 48), Some(64));
    // Rows 50 and 51 share bucket 3 but no row: not certified, and the walk
    // starts at the bound.
    assert_eq!(ColumnStore::suffixes_meet_from(z, 7, 49), Some(49));
    // An empty column is disjoint from every suffix, itself included.
    for j in [0, 5, 20, 60, 79] {
        assert_eq!(ColumnStore::suffixes_meet_from(z, 60, j), None, "(60, {j})");
    }
    // A column meets itself from its own index.
    assert_eq!(ColumnStore::suffixes_meet_from(z, 20, 20), Some(20));
    assert_eq!(ColumnStore::suffixes_meet_from(z, 5, 5), Some(5));
    for p in 0..80 {
        for q in 0..80 {
            assert_sound(z, p, q);
        }
    }
}

#[test]
fn above_two_to_the_twenty_the_shift_widens_and_buckets_fit_u16() {
    // 2^20 + 32 columns: 21 bits, so 32-row buckets, the top one 2^15.
    let order = (1 << 20) + 32;
    let top = order - 1;
    let columns: [(usize, Vec<u32>); 5] = [
        // Rows 2^20 + 1 and 2^20 + 17 share a 32-row bucket, not a 16-row one.
        (100, vec![(1 << 20) + 1]),
        (101, vec![(1 << 20) + 17]),
        // A 16-row bucket of the top row would be 2^16 + 1, which a `u16`
        // wraps onto bucket 1 (rows 16..32) of column 16.
        (16, vec![16, 17]),
        (17, vec![top as u32]),
        (top, vec![top as u32]),
    ];
    let mut col_ptr = vec![0usize; order + 1];
    let mut rows = Vec::new();
    for j in 0..order {
        if let Some((_, column)) = columns.iter().find(|(c, _)| *c == j) {
            rows.extend_from_slice(column);
        }
        col_ptr[j + 1] = rows.len();
    }
    let vals = vec![1.0; rows.len()];
    let z = &SparseApproximateInverse::from_arena(
        order,
        col_ptr,
        rows,
        vals,
        ApproxInverseStats::default(),
        0.0,
    )
    .expect("valid arena");
    assert_eq!(ColumnStore::suffixes_meet_from(z, 100, 101), Some(1 << 20));
    assert_eq!(ColumnStore::suffixes_meet_from(z, 16, 17), None);
    assert_eq!(
        ColumnStore::suffixes_meet_from(z, 17, top),
        Some(top as u32)
    );
    assert_eq!(ColumnStore::suffixes_meet_from(z, 16, top), None);
    for (p, q) in [(100, 101), (16, 17), (17, top), (16, top), (101, top)] {
        assert_sound(z, p, q);
    }
    // An offset per column plus 2 bytes per distinct bucket of a column,
    // one each (column 16's two rows share theirs), and 8 padding buckets.
    assert_eq!(z.footprint().skeleton_bytes, (order + 1) * 8 + (5 + 8) * 2);
}
