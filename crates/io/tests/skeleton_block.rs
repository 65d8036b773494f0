//! The v4 skeleton block: what `write_snapshot` persists is exactly the
//! arena's row-bucket skeleton, a paged store reads it back bit for bit in
//! any batch-shaped subset of columns, whole or in parts joined by
//! `BatchSkeletons::append`, its certificates agree with the
//! resident arena's, and `open_paged` rejects a hostile offset table with
//! a typed error.
//!
//! Checked on grids under RCM and minimum degree, power-grid meshes,
//! preferential attachment, a disconnected graph, and a hand-built inverse
//! of order above 2^20, where the bucket shift widens to 5.

use effres::approx_inverse::{ApproxInverseStats, SparseApproximateInverse};
use effres::column_store::ColumnStore;
use effres::estimator::EstimatorStats;
use effres::{EffectiveResistanceEstimator, EffresConfig, Ordering};
use effres_graph::generators::{self, PowerGridMeshOptions};
use effres_graph::Graph;
use effres_io::paged::{open_paged, PagedOptions};
use effres_io::snapshot::write_snapshot;
use effres_io::IoError;
use effres_sparse::Permutation;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("effres-skeleton-block");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn write_v4(path: &Path, estimator: &EffectiveResistanceEstimator) {
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, estimator, None).expect("write");
    std::fs::write(path, bytes).expect("write file");
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

/// Checks a written v4 file against the arena it was written from: every
/// column's persisted skeleton, read back whole and in a strided subset,
/// equals the arena's, and the paged certificate of every sampled pair is
/// the resident arena's.
fn assert_persisted_skeleton_matches(
    name: &str,
    estimator: &EffectiveResistanceEstimator,
    pairs: &[(usize, usize)],
) {
    let z = estimator.approximate_inverse();
    let n = z.order();
    let path = temp_path(name);
    write_v4(&path, estimator);
    let paged = open_paged(&path, &PagedOptions::default()).expect("open v4");
    assert!(paged.store.has_skeleton());
    let all: Vec<usize> = (0..n).collect();
    let whole = paged.store.read_skeletons(&all);
    for j in 0..n {
        assert_eq!(whole.buckets(j), Some(z.skeleton_buckets(j)), "column {j}");
    }
    // A batch-shaped subset: scattered columns, so reads bridge gaps.
    let some: Vec<usize> = (0..n).filter(|j| j % 7 == 3 || j % 64 == 63).collect();
    let subset = paged.store.read_skeletons(&some);
    for &j in &some {
        assert_eq!(subset.buckets(j), Some(z.skeleton_buckets(j)), "column {j}");
    }
    assert_eq!(subset.buckets(0), None, "a column not asked for has none");
    // The same subset read in three parts and joined, as a batch split
    // over workers: the same skeletons and the same certificates.
    let third = some.len() / 3;
    let mut parts = paged.store.read_skeletons(&some[..third]);
    parts.append(paged.store.read_skeletons(&some[third..2 * third]));
    parts.append(paged.store.read_skeletons(&some[2 * third..]));
    for &j in &some {
        assert_eq!(parts.buckets(j), subset.buckets(j), "column {j}");
    }
    for &(p, q) in pairs {
        assert_eq!(parts.certifies(p, q), subset.certifies(p, q), "({p}, {q})");
    }
    for &(p, q) in pairs {
        assert_eq!(
            whole.certifies(p, q),
            p != q && ColumnStore::suffixes_meet_from(z, p, q).is_none(),
            "({p}, {q})"
        );
    }
    let stats = paged.store.page_cache_stats();
    assert_eq!((stats.misses, stats.faulted_reads), (0, 0));
    assert!(stats.skeleton_reads >= 2);
    let block = paged.store.footprint().skeleton_bytes;
    assert!(block > 0 && block < std::fs::metadata(&path).expect("size").len() as usize);
}

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_written_v4_file_persists_exactly_the_arena_skeleton(
        (graph, ordering, seed) in case()
    ) {
        let config = EffresConfig::default().with_ordering(ordering);
        let estimator = EffectiveResistanceEstimator::build(&graph, &config).expect("build");
        let n = estimator.node_count();
        let mut state = seed | 1;
        let pairs: Vec<(usize, usize)> = (0..300)
            .map(|_| {
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as usize % n
                };
                (next(), next())
            })
            .collect();
        assert_persisted_skeleton_matches(&format!("case-{seed}.snap"), &estimator, &pairs);
    }
}

#[test]
fn above_two_to_the_twenty_the_persisted_skeleton_uses_the_wider_shift() {
    // 2^20 + 32 columns: 21 bits, so 32-row buckets. Column 17's only row
    // is the top one, whose 32-row bucket is 2^15 (a 16-row bucket would
    // not fit `u16`).
    let order = (1usize << 20) + 32;
    let top = order - 1;
    let columns: [(usize, Vec<u32>); 5] = [
        (100, vec![(1 << 20) + 1]),
        (101, vec![(1 << 20) + 17]),
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
    let inverse = SparseApproximateInverse::from_arena(
        order,
        col_ptr,
        rows,
        vals,
        ApproxInverseStats::default(),
        0.0,
    )
    .expect("valid arena");
    assert_eq!(inverse.skeleton_shift(), 5);
    assert_eq!(inverse.skeleton_buckets(17), &[1 << 15]);
    let stats = EstimatorStats {
        node_count: order,
        factor_nnz: 0,
        inverse_nnz: inverse.nnz(),
        inverse_nnz_ratio: 0.0,
        max_depth: 0,
        ichol_dropped: 0,
        pruned_entries: 0,
    };
    let estimator =
        EffectiveResistanceEstimator::from_parts(inverse, Permutation::identity(order), stats)
            .expect("estimator");
    let pairs = [
        (100, 101),
        (16, 17),
        (17, top),
        (16, top),
        (101, top),
        (0, 5),
    ];
    assert_persisted_skeleton_matches("wide-shift.snap", &estimator, &pairs);
}

/// Byte offset of the v4 skeleton block (its `records_bytes` field) in
/// `bytes`, from the file's own size fields.
fn skeleton_block_offset(bytes: &[u8]) -> usize {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let n = u64_at(12);
    let nnz_at = 12 + 16 + 48 + 16 + 4 * n;
    let nnz = u64_at(nnz_at);
    let codec_at = nnz_at + 8 + 8 * (n + 1);
    let rows_end = match bytes[codec_at] {
        0 => codec_at + 1 + 4 * nnz,
        _ => codec_at + 1 + 8 + 8 * (n + 1) + u64_at(codec_at + 1),
    };
    rows_end + 8 * nnz + 8 * n
}

#[test]
fn a_hostile_offset_table_is_rejected_at_open_with_a_typed_error() {
    let graph = generators::grid_2d(20, 20, 0.5, 2.0, 5).expect("generator");
    let estimator =
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
    let mut clean = Vec::new();
    write_snapshot(&mut clean, &estimator, None).expect("write");
    let block = skeleton_block_offset(&clean);
    let records_bytes = u64::from_le_bytes(clean[block..block + 8].try_into().unwrap());
    let table = block + 8 + records_bytes as usize;
    let groups = 400usize.div_ceil(64);
    let set = |bytes: &mut Vec<u8>, entry: usize, value: u64| {
        let at = table + 8 * entry;
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    };
    let entry = |entry: usize| {
        let at = table + 8 * entry;
        u64::from_le_bytes(clean[at..at + 8].try_into().unwrap())
    };
    assert_eq!((entry(0), entry(groups)), (0, records_bytes));
    let path = temp_path("hostile-table.snap");
    std::fs::write(&path, &clean).expect("write");
    open_paged(&path, &PagedOptions::default()).expect("the clean file opens");

    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    // The file ends inside the offset table.
    cases.push(("truncated", clean[..table + 8 * groups - 3].to_vec()));
    // An offset below the one before it.
    let mut decreasing = clean.clone();
    set(&mut decreasing, 3, entry(2) - 1);
    cases.push(("decreasing", decreasing));
    // An offset past the records.
    let mut overrun = clean.clone();
    set(&mut overrun, 4, records_bytes + 1);
    cases.push(("overrun", overrun));
    // A table that does not start at 0, or ends short of the records.
    let mut late_start = clean.clone();
    set(&mut late_start, 0, 1);
    cases.push(("late start", late_start));
    let mut short_end = clean.clone();
    set(&mut short_end, groups, records_bytes - 1);
    cases.push(("short end", short_end));
    // A records length that runs the table past the file.
    let mut long_records = clean.clone();
    long_records[block..block + 8].copy_from_slice(&(records_bytes + 64).to_le_bytes());
    cases.push(("records past the file", long_records));
    for (name, bytes) in cases {
        std::fs::write(&path, &bytes).expect("write");
        let error = open_paged(&path, &PagedOptions::default()).expect_err(name);
        assert!(matches!(error, IoError::Format(_)), "{name}: {error}");
    }
}
