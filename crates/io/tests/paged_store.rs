//! The paged column store against the resident arena, pinned on two v3
//! files of the same estimator: the committed `v3_grid12.snap` fixture
//! (varint rows) and a raw-codec file derived from the committed
//! `v2_grid12.snap` (see [`raw_v3_bytes`]). Every query answer must be
//! **bit-identical** between the backends for every page geometry and cache
//! size (including a one-page cache that evicts on every page switch), and
//! hostile files — including corrupt raw rows, varint rows and norms blocks
//! — must produce typed errors *before* corrupt data can serve a query.
//! Demand-sized pins must read exactly the demanded columns' on-disk bytes
//! — their rows when pinned, a run's values when `read_run_values` names
//! its columns — serve the same bits, and fail, heal and degrade the way
//! whole pages do: rotten rows at pin time, rotten values where they are
//! read, kept as the run's typed error.

use effres::column_store::{self, ColumnStore};
use effres::EffresError;
use effres_io::paged::{open_paged, PageCacheStats, PagedOptions, PagedSnapshot};
use effres_io::snapshot::load_snapshot;
use effres_io::{IoError, RowCodec, Snapshot};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Byte offsets of the layouts of the 144-node labeled fixtures, used to
/// splice the raw-codec file and to craft hostile mutations at precise
/// positions. Both versions start
/// magic+version (12) | n,eps (16) | stats (48) | counters (16) | perm (4n)
/// | nnz (8) | col_ptr (8(n+1)).
/// v2 continues | rows (4·nnz) | vals (8·nnz) | labels (1 + 8n) | crc (4).
/// v3 continues | codec (1) | rows (raw: 4·nnz; varint: rows_bytes (8)
/// | row_off (8(n+1)) | varint bytes) | vals (8·nnz) | norms (8n)
/// | labels (1 + 8n) | crc (4).
const N: usize = 144;
const COL_PTR_OFFSET: usize = 12 + 16 + 48 + 16 + 4 * N + 8;
/// v3's codec byte, where v2's row block starts.
const V3_CODEC_OFFSET: usize = COL_PTR_OFFSET + 8 * (N + 1);
const RAW_ROWS_OFFSET: usize = V3_CODEC_OFFSET + 1;
const V3_ROW_OFF_OFFSET: usize = V3_CODEC_OFFSET + 1 + 8;
const V3_ROWS_OFFSET: usize = V3_ROW_OFF_OFFSET + 8 * (N + 1);
/// Offset of the norms block, counted from the END of a v3 file (crc, then
/// the labeled fixture's label block, then norms).
const V3_NORMS_FROM_END: usize = 4 + (1 + 8 * N) + 8 * N;

fn work_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("effres-paged-store");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The committed v2 fixture spliced into a v3 file with the raw row codec:
/// version 3, codec byte 0 after `col_ptr`, the norms block (the resident
/// table's bits) after the values, and a fresh crc over the payload. The
/// writer only picks the raw codec when varint would not shrink the rows,
/// which never happens on the grid fixtures, so raw-row decode needs a
/// derived file.
fn raw_v3_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let v2 = std::fs::read(fixture("v2_grid12.snap")).expect("fixture bytes");
        let nnz_at = COL_PTR_OFFSET - 8;
        let nnz = u64::from_le_bytes(v2[nnz_at..COL_PTR_OFFSET].try_into().unwrap()) as usize;
        let labels_at = V3_CODEC_OFFSET + 12 * nnz;
        let mut bytes = v2[..8].to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&v2[12..V3_CODEC_OFFSET]);
        bytes.push(0);
        bytes.extend_from_slice(&v2[V3_CODEC_OFFSET..labels_at]);
        for norm in resident_norms() {
            bytes.extend_from_slice(&norm.to_le_bytes());
        }
        bytes.extend_from_slice(&v2[labels_at..v2.len() - 4]);
        let crc = effres_io::gzip::crc32(&bytes[12..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    })
}

fn raw_v3_path() -> &'static Path {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let path = work_dir().join("raw_v3_grid12.snap");
        std::fs::write(&path, raw_v3_bytes()).expect("write raw v3");
        path
    })
}

/// The two served encodings of the fixture estimator, by name.
fn served_files() -> [(&'static str, PathBuf); 2] {
    [
        ("raw v3", raw_v3_path().to_path_buf()),
        ("varint v3", fixture("v3_grid12.snap")),
    ]
}

/// The page geometries the property test sweeps: the default, a one-column /
/// one-page configuration (maximum eviction churn), an odd page size with a
/// tiny cache, and a page size larger than the whole fixture.
fn paged_configs() -> &'static [PagedOptions] {
    static CONFIGS: OnceLock<Vec<PagedOptions>> = OnceLock::new();
    CONFIGS.get_or_init(|| {
        vec![
            PagedOptions::default(),
            PagedOptions {
                columns_per_page: 1,
                cache_pages: 1,
                cache_shards: 1,
                ..PagedOptions::default()
            },
            PagedOptions {
                columns_per_page: 7,
                cache_pages: 2,
                cache_shards: 1,
                ..PagedOptions::default()
            },
            PagedOptions {
                columns_per_page: 1024,
                cache_pages: 4,
                cache_shards: 2,
                ..PagedOptions::default()
            },
        ]
    })
}

fn resident() -> &'static Snapshot {
    static RESIDENT: OnceLock<Snapshot> = OnceLock::new();
    RESIDENT.get_or_init(|| load_snapshot(fixture("v2_grid12.snap")).expect("v2 fixture loads"))
}

fn resident_norms() -> &'static [f64] {
    static NORMS: OnceLock<Vec<f64>> = OnceLock::new();
    NORMS.get_or_init(|| {
        resident()
            .estimator
            .approximate_inverse()
            .column_norms_squared()
    })
}

/// Every page geometry over both served encodings: indices `0..4` are the
/// raw-codec file, `4..8` the varint fixture.
fn paged_stores() -> &'static [PagedSnapshot] {
    static STORES: OnceLock<Vec<PagedSnapshot>> = OnceLock::new();
    STORES.get_or_init(|| {
        served_files()
            .into_iter()
            .flat_map(|(_, path)| {
                paged_configs()
                    .iter()
                    .map(move |options| open_paged(&path, options).expect("file opens"))
            })
            .collect()
    })
}

#[test]
fn the_raw_v3_file_opens_raw_and_loads_resident() {
    let paged = open_paged(raw_v3_path(), &PagedOptions::default()).expect("opens");
    assert_eq!(paged.store.row_codec(), RowCodec::Raw);
    let loaded = load_snapshot(raw_v3_path()).expect("the spliced file loads resident");
    assert_eq!(loaded.version, Some(3));
    let (inverse, spliced) = (
        resident().estimator.approximate_inverse(),
        loaded.estimator.approximate_inverse(),
    );
    assert_eq!(spliced.col_ptr(), inverse.col_ptr());
    assert_eq!(spliced.arena_rows(), inverse.arena_rows());
    assert!(spliced
        .arena_values()
        .iter()
        .zip(inverse.arena_values())
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    assert_eq!(loaded.labels, resident().labels);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random pairs through the fill-reducing permutation, across every page
    /// geometry and both row codecs: the paged store must reproduce the
    /// resident arena's distance, norm table and norm-table distance bit
    /// for bit.
    #[test]
    fn paged_queries_match_resident_bitwise(
        (p, q, which) in (0usize..144, 0usize..144, 0usize..8),
    ) {
        let snapshot = resident();
        let inverse = snapshot.estimator.approximate_inverse();
        let permutation = snapshot.estimator.permutation();
        let paged = &paged_stores()[which];
        prop_assert_eq!(ColumnStore::order(&paged.store), inverse.order());
        prop_assert_eq!(ColumnStore::nnz(&paged.store), inverse.nnz());

        let pp = permutation.new(p);
        let qq = permutation.new(q);
        // Full union-merge distance.
        let resident_distance = inverse.column_distance_squared(pp, qq);
        let paged_distance = column_store::column_distance_squared(&paged.store, pp, qq)
            .expect("healthy fixture");
        prop_assert_eq!(resident_distance.to_bits(), paged_distance.to_bits());
        // Norm-table distance (the engine's hot path): the resident side
        // uses the table it computed, the paged side the file's persisted
        // norms block.
        let paged_norms = paged.store.norms();
        prop_assert_eq!(resident_norms()[pp].to_bits(), paged_norms[pp].to_bits());
        prop_assert_eq!(resident_norms()[qq].to_bits(), paged_norms[qq].to_bits());
        let resident_fast =
            inverse.column_distance_squared_with_norms(pp, qq, resident_norms());
        let paged_fast = column_store::column_distance_squared_with_norms(
            &paged.store,
            pp,
            qq,
            paged_norms,
        )
        .expect("healthy fixture");
        prop_assert_eq!(resident_fast.to_bits(), paged_fast.to_bits());
    }
}

#[test]
fn one_page_cache_evicts_on_every_page_switch_and_stays_bit_identical() {
    // The degenerate cache: one page of one column. Walking all columns
    // forward and backward forces an eviction on every access after the
    // first repeat; answers must not change.
    let snapshot = resident();
    let inverse = snapshot.estimator.approximate_inverse();
    let paged = open_paged(
        raw_v3_path(),
        &PagedOptions {
            columns_per_page: 1,
            cache_pages: 1,
            cache_shards: 1,
            ..PagedOptions::default()
        },
    )
    .expect("file opens");
    assert_eq!(paged.store.cache_capacity_pages(), 1);
    let column_norm = |j: usize| {
        paged
            .store
            .with_column(j, |c| c.norm2_squared())
            .expect("fetch")
            .to_bits()
    };
    let forward: Vec<u64> = (0..inverse.order()).map(column_norm).collect();
    let backward: Vec<u64> = (0..inverse.order()).rev().map(column_norm).collect();
    for j in 0..inverse.order() {
        let expected = inverse.column(j).norm2_squared().to_bits();
        assert_eq!(forward[j], expected, "forward col {j}");
        assert_eq!(
            backward[inverse.order() - 1 - j],
            expected,
            "backward col {j}"
        );
    }
    let stats = paged.store.page_cache_stats();
    // Two full sweeps over distinct single-column pages: every access but
    // the back-to-back repeat at the turnaround misses.
    assert_eq!(stats.hits + stats.misses, 2 * inverse.order() as u64);
    assert!(
        stats.misses >= 2 * inverse.order() as u64 - 1,
        "expected eviction churn, got {stats:?}"
    );
}

#[test]
fn a_full_cache_evicts_the_least_recently_used_page() {
    // Three pages in one shard: the victim must be the page touched least
    // recently, not the one inserted first (FIFO would evict page 0 below).
    let paged = open_paged(
        fixture("v3_grid12.snap"),
        &PagedOptions {
            columns_per_page: 8,
            cache_pages: 3,
            cache_shards: 1,
            ..PagedOptions::default()
        },
    )
    .expect("opens");
    assert_eq!(paged.store.cache_capacity_pages(), 3);
    // Touches the first column of page `pid`; true on a cache hit.
    let touch = |pid: usize| {
        let before = paged.store.page_cache_stats();
        paged.store.with_column(8 * pid, |_| ()).expect("fetch");
        let step = paged.store.page_cache_stats().since(before);
        assert_eq!(step.hits + step.misses, 1, "page {pid}");
        step.hits == 1
    };
    for pid in [0, 1, 2] {
        assert!(!touch(pid), "page {pid} starts cold");
    }
    assert!(touch(0), "page 0 is resident");
    // Recency is now 0, 2, 1: inserting page 3 evicts page 1.
    assert!(!touch(3));
    assert!(touch(0), "page 0 was touched after page 1");
    assert!(touch(2), "page 2 was touched after page 1");
    assert!(!touch(1), "page 1 was the least recently used");
    // Page 1's return evicted page 3; pages 0, 2 and 1 stay resident.
    assert!(touch(0) && touch(2) && touch(1));
    assert!(!touch(3), "page 3 was the least recently used");
}

#[test]
fn paged_metadata_matches_the_resident_loader() {
    let snapshot = resident();
    let paged = open_paged(raw_v3_path(), &PagedOptions::default()).expect("opens");
    assert_eq!(paged.stats, snapshot.estimator.stats());
    assert_eq!(paged.labels, snapshot.labels);
    assert_eq!(
        paged.permutation.new_to_old(),
        snapshot.estimator.permutation().new_to_old()
    );
    assert_eq!(
        paged.epsilon,
        snapshot.estimator.approximate_inverse().epsilon()
    );
}

/// A mutated copy of the raw-codec file, written under its own name.
fn hostile_copy(name: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> PathBuf {
    let mut bytes = raw_v3_bytes().to_vec();
    assert_eq!(
        bytes[V3_CODEC_OFFSET], 0,
        "the spliced file uses the raw codec"
    );
    mutate(&mut bytes);
    let path = work_dir().join(format!("hostile_raw_{name}.snap"));
    std::fs::write(&path, bytes).expect("write hostile");
    path
}

#[test]
fn non_monotone_col_ptr_is_rejected_by_both_loaders_before_serving() {
    // Make col_ptr[1] larger than col_ptr[2]: the prefix sums go backwards.
    let path = hostile_copy("col_ptr", |bytes| {
        let at = COL_PTR_OFFSET + 8 * 2;
        let next = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let at1 = COL_PTR_OFFSET + 8;
        bytes[at1..at1 + 8].copy_from_slice(&(next + 1).to_le_bytes());
    });
    // The paged opener validates the whole col_ptr block up front...
    let err = open_paged(&path, &PagedOptions::default()).expect_err("must reject");
    assert!(err.to_string().contains("monotone"), "{err}");
    // ...and the resident loader rejects it while streaming, before the
    // rows/vals blocks are allocated.
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn out_of_range_row_is_a_typed_store_failure_at_page_decode() {
    // Corrupt the first row index to point past the 144-node order. The
    // paged opener cannot see it (rows stay on disk), but decoding the
    // page that contains it must fail with a typed error — never serve it.
    let path = hostile_copy("row", |bytes| {
        bytes[RAW_ROWS_OFFSET..RAW_ROWS_OFFSET + 4].copy_from_slice(&500u32.to_le_bytes());
    });
    let paged = open_paged(&path, &PagedOptions::default()).expect("open skips row blocks");
    let err = paged
        .store
        .with_column(0, |_| ())
        .expect_err("corrupt page must not serve");
    assert!(
        matches!(err, EffresError::StoreFailure { .. }),
        "unexpected error: {err}"
    );
    // The resident loader rejects the same bytes while streaming the rows.
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn col_ptr_past_the_declared_nnz_is_rejected() {
    // Push the last col_ptr entry past nnz: both the "exceeds" and the
    // "must end at nnz" guards protect the offset arithmetic the paged
    // reads rely on.
    let path = hostile_copy("nnz", |bytes| {
        let at = COL_PTR_OFFSET + 8 * N;
        let last = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        bytes[at..at + 8].copy_from_slice(&(last + 4).to_le_bytes());
    });
    assert!(matches!(
        open_paged(&path, &PagedOptions::default()),
        Err(IoError::Format(_))
    ));
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn truncated_column_data_is_rejected_at_open_not_at_query_time() {
    // Cut the file in the middle of the value block: the resident loader
    // hits EOF; the paged opener must notice at open — before a query
    // could fail half-way through a batch.
    let bytes = raw_v3_bytes();
    let path = work_dir().join("truncated.snap");
    std::fs::write(&path, &bytes[..bytes.len() - V3_NORMS_FROM_END - 100]).expect("write");
    assert!(matches!(
        open_paged(&path, &PagedOptions::default()),
        Err(IoError::Format(_))
    ));
    assert!(load_snapshot(&path).is_err());
}

#[test]
fn zero_columns_per_page_is_rejected() {
    let options = PagedOptions::default().with_columns_per_page(0);
    assert!(matches!(
        open_paged(raw_v3_path(), &options),
        Err(IoError::Format(_))
    ));
}

fn hostile_v3_copy(name: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> PathBuf {
    let mut bytes = std::fs::read(fixture("v3_grid12.snap")).expect("fixture bytes");
    assert_eq!(bytes[V3_CODEC_OFFSET], 1, "fixture uses the varint codec");
    mutate(&mut bytes);
    let path = work_dir().join(format!("hostile_v3_{name}.snap"));
    std::fs::write(&path, bytes).expect("write hostile");
    path
}

#[test]
fn corrupt_varint_rows_are_a_typed_store_failure_at_page_decode() {
    // Zero the first column's varint bytes: the second entry decodes as a
    // zero gap — rows no longer strictly increasing. The paged opener
    // cannot see it (rows stay on disk), but the page must refuse to serve.
    let path = hostile_v3_copy("zero_gap", |bytes| {
        bytes[V3_ROWS_OFFSET] = 0;
        bytes[V3_ROWS_OFFSET + 1] = 0;
    });
    let paged = open_paged(&path, &PagedOptions::default()).expect("open skips row bytes");
    let err = paged
        .store
        .with_column(0, |_| ())
        .expect_err("corrupt varint must not serve");
    assert!(
        matches!(err, EffresError::StoreFailure { .. }),
        "unexpected error: {err}"
    );
    // The resident loader rejects the same bytes while streaming.
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn truncated_varint_column_is_rejected_wherever_it_is_noticed() {
    // A continuation bit with no terminator: decoding the column overruns
    // its declared byte span.
    let path = hostile_v3_copy("dangling_continuation", |bytes| {
        bytes[V3_ROWS_OFFSET] |= 0x80;
    });
    let paged = open_paged(&path, &PagedOptions::default()).expect("open skips row bytes");
    assert!(paged.store.with_column(0, |_| ()).is_err());
    assert!(load_snapshot(&path).is_err());
}

#[test]
fn non_monotone_row_off_is_rejected_by_both_loaders_before_serving() {
    // Make row_off[1] overshoot row_off[2]: the byte offsets go backwards,
    // which would misplace every later positioned read.
    let path = hostile_v3_copy("row_off", |bytes| {
        let at2 = V3_ROW_OFF_OFFSET + 8 * 2;
        let next = u64::from_le_bytes(bytes[at2..at2 + 8].try_into().unwrap());
        let at1 = V3_ROW_OFF_OFFSET + 8;
        bytes[at1..at1 + 8].copy_from_slice(&(next + 1).to_le_bytes());
    });
    let err = open_paged(&path, &PagedOptions::default()).expect_err("must reject at open");
    assert!(matches!(err, IoError::Format(_)), "{err}");
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn non_finite_norms_are_rejected_by_both_loaders() {
    let path = hostile_v3_copy("nan_norm", |bytes| {
        let at = bytes.len() - V3_NORMS_FROM_END;
        bytes[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    });
    let err = open_paged(&path, &PagedOptions::default()).expect_err("must reject at open");
    assert!(err.to_string().contains("norms"), "{err}");
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn truncated_norms_block_is_rejected_at_open() {
    // Cut the file in the middle of the norms block: the paged opener's
    // layout-implied length check must notice before serving.
    let bytes = std::fs::read(fixture("v3_grid12.snap")).expect("fixture bytes");
    let cut = bytes.len() - V3_NORMS_FROM_END + 8 * (N / 2);
    let path = work_dir().join("hostile_v3_truncated_norms.snap");
    std::fs::write(&path, &bytes[..cut]).expect("write");
    assert!(matches!(
        open_paged(&path, &PagedOptions::default()),
        Err(IoError::Format(_))
    ));
    assert!(load_snapshot(&path).is_err());
}

#[test]
fn v3_fixture_serves_persisted_norms_bit_identical_to_resident() {
    let snapshot = resident();
    let paged = open_paged(fixture("v3_grid12.snap"), &PagedOptions::default()).expect("opens");
    let norms = paged.store.norms();
    assert_eq!(norms.len(), 144);
    for (j, norm) in norms.iter().enumerate() {
        assert_eq!(
            norm.to_bits(),
            snapshot
                .estimator
                .approximate_inverse()
                .column(j)
                .norm2_squared()
                .to_bits(),
            "col {j}"
        );
    }
    // And the store never touched a page to produce them.
    let stats = paged.store.page_cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.bytes_read), (0, 0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Pair sequences through the grouped multi-pair kernel on the paged
    /// store: bit for bit the pairwise batch reference on the *resident*
    /// arena, for every page geometry and both row codecs, with the
    /// persisted norm table and without one (norms summed over the fetched
    /// columns), on a reused (dirty) scratch.
    #[test]
    fn paged_grouped_kernel_matches_resident_pairwise_bitwise(
        (pairs, which) in (
            proptest::collection::vec((0usize..144, 0usize..144), 0..24),
            0usize..8,
        ),
    ) {
        let inverse = resident().estimator.approximate_inverse();
        let paged = &paged_stores()[which];
        let reference = column_store::column_distances_squared_batch(
            inverse,
            &pairs,
            Some(resident_norms()),
        )
        .expect("resident store never fails");
        let mut scratch = column_store::HubScratch::new(ColumnStore::order(&paged.store));
        for norms in [Some(paged.store.norms().as_slice()), None] {
            for _ in 0..2 {
                let grouped = column_store::column_distances_squared_grouped(
                    &paged.store,
                    &pairs,
                    norms,
                    &mut scratch,
                )
                .expect("healthy fixture");
                prop_assert_eq!(reference.len(), grouped.len());
                for (r, g) in reference.iter().zip(&grouped) {
                    prop_assert_eq!(r.to_bits(), g.to_bits());
                }
            }
        }
    }
}

/// Geometry of the demand-sized pin tests: 16-column pages (9 over the
/// 144-column fixtures) and a cache too small to matter.
fn sparse_options() -> PagedOptions {
    PagedOptions {
        columns_per_page: 16,
        cache_pages: 1,
        cache_shards: 1,
        ..PagedOptions::default()
    }
}

/// On-disk bytes of one column of a served file: its rows, then its values.
#[derive(Debug, Clone, Copy)]
struct DiskBytes {
    rows: u64,
    vals: u64,
}

impl DiskBytes {
    fn total(self) -> u64 {
        self.rows + self.vals
    }
}

/// On-disk bytes of each column of a served file, from its `col_ptr` block
/// and — for the varint codec — its `row_off` table, read straight from the
/// bytes at the layout offsets above.
fn column_disk_bytes(path: &Path) -> Vec<DiskBytes> {
    let bytes = std::fs::read(path).expect("file bytes");
    let table = |at: usize| -> Vec<u64> {
        bytes[at..at + 8 * (N + 1)]
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect()
    };
    let col_ptr = table(COL_PTR_OFFSET);
    let row_off = (bytes[V3_CODEC_OFFSET] == 1).then(|| table(V3_ROW_OFF_OFFSET));
    (0..N)
        .map(|j| {
            let entries = col_ptr[j + 1] - col_ptr[j];
            let rows = row_off
                .as_ref()
                .map_or(4 * entries, |off| off[j + 1] - off[j]);
            DiskBytes {
                rows,
                vals: 8 * entries,
            }
        })
        .collect()
}

/// Demanded columns on pages 1 and 4: runs {17, 18} and {29} on page 1,
/// {70} on page 4 — a few columns out of sixteen, so both pages are sparse.
const SPARSE_PAGES: [usize; 2] = [1, 4];
const SPARSE_DEMAND: [usize; 4] = [29, 17, 70, 18];

/// Column `j` through a store, as (rows, norm bits): equal iff the decoded
/// rows match and the values sum to the same bits.
fn column_bits<S: ColumnStore>(store: &S, j: usize) -> (Vec<u32>, u64) {
    store
        .with_column(j, |c| (c.indices().to_vec(), c.norm2_squared().to_bits()))
        .expect("healthy fixture")
}

#[test]
fn a_sparse_pin_reads_exactly_the_demanded_columns_bytes() {
    for (name, path) in served_files() {
        let disk = column_disk_bytes(&path);
        let page_bytes = |pid: usize| -> u64 {
            disk[16 * pid..(16 * pid + 16).min(N)]
                .iter()
                .map(|d| d.total())
                .sum()
        };
        let demanded = |bytes: fn(DiskBytes) -> u64| -> u64 {
            SPARSE_DEMAND.iter().map(|&j| bytes(disk[j])).sum()
        };
        for pid in SPARSE_PAGES {
            let on_page: u64 = SPARSE_DEMAND
                .iter()
                .filter(|&&j| j / 16 == pid)
                .map(|&j| disk[j].total())
                .sum();
            assert!(
                4 * on_page < page_bytes(pid),
                "{name}: page {pid} must be sparsely demanded for this test"
            );
        }
        let paged = open_paged(&path, &sparse_options()).expect("opens");
        let mut pinned = paged
            .store
            .pin_pages(&SPARSE_PAGES, Some(&SPARSE_DEMAND))
            .expect("healthy fixture");
        assert_eq!(pinned.len(), 2, "{name}");
        // The pin reads the demanded columns' rows, one read per run.
        let stats = paged.store.page_cache_stats();
        assert_eq!(stats.bytes_read, demanded(|d| d.rows), "{name}");
        assert_eq!(stats.column_runs, 3, "{name}: runs 17..19, 29, 70");
        assert_eq!(stats.value_reads, 0, "{name}");
        assert_eq!((stats.hits, stats.misses), (0, 2), "{name}");
        assert_eq!(stats.readahead_reads, 0, "{name}");

        // Reading the runs' values reads each run's once; the demanded
        // columns then serve off the runs, bit-identical to the resident
        // arena, and nothing else touches the store.
        paged.store.read_run_values(&mut pinned, &SPARSE_DEMAND);
        let reader = effres_io::PinnedReader::new(&paged.store, &pinned);
        let inverse = resident().estimator.approximate_inverse();
        for j in SPARSE_DEMAND {
            assert_eq!(column_bits(&reader, j), column_bits(inverse, j), "col {j}");
            assert_eq!(
                paged.store.norms()[j].to_bits(),
                inverse.column(j).norm2_squared().to_bits(),
                "{name} col {j} norm"
            );
        }
        let served = paged.store.page_cache_stats();
        assert_eq!(served.bytes_read, demanded(DiskBytes::total), "{name}");
        assert_eq!(served.value_reads, 3, "{name}: each run's values once");
        assert_eq!(
            PageCacheStats {
                bytes_read: stats.bytes_read,
                value_reads: 0,
                ..served
            },
            stats,
            "{name}: demanded columns never fall back"
        );
    }
}

#[test]
fn a_dense_demand_and_a_cached_page_keep_the_whole_page_path() {
    let paged = open_paged(
        fixture("v3_grid12.snap"),
        &PagedOptions {
            cache_pages: 4,
            ..sparse_options()
        },
    )
    .expect("opens");
    // Every column of page 2 demanded: read whole, coalesced, and cached.
    let dense: Vec<usize> = (32..48).collect();
    drop(paged.store.pin_pages(&[2], Some(&dense)).expect("pin"));
    let whole = paged.store.page_cache_stats();
    assert_eq!(
        (whole.misses, whole.column_runs, whole.readahead_reads),
        (1, 0, 2)
    );
    // A cached page is a hit even under a sparse demand: nothing is read.
    drop(paged.store.pin_pages(&[2], Some(&[33])).expect("pin"));
    let mut before = paged.store.page_cache_stats();
    let stats = before.since(whole);
    assert_eq!((stats.hits, stats.misses, stats.bytes_read), (1, 0, 0));
    // Sparse runs are pinned but never published: pinning the same sparse
    // demand again reads again.
    for _ in 0..2 {
        drop(paged.store.pin_pages(&[5], Some(&[81])).expect("pin"));
        let after = paged.store.page_cache_stats();
        let stats = after.since(before);
        assert_eq!((stats.hits, stats.misses, stats.column_runs), (0, 1, 1));
        before = after;
    }
}

#[test]
fn a_column_outside_the_demand_reads_the_resident_value() {
    for (name, path) in served_files() {
        let paged = open_paged(&path, &sparse_options()).expect("opens");
        let mut pinned = paged
            .store
            .pin_pages(&SPARSE_PAGES, Some(&SPARSE_DEMAND))
            .expect("healthy fixture");
        paged.store.read_run_values(&mut pinned, &SPARSE_DEMAND);
        let reader = effres_io::PinnedReader::new(&paged.store, &pinned);
        let inverse = resident().estimator.approximate_inverse();
        // Column 20 sits on sparsely pinned page 1 but was not demanded. An
        // empty slice here would answer ‖z_p‖² + ‖z_q‖²; the reader must
        // fall back to the store and read the real column.
        let outside = 20;
        assert_eq!(column_bits(&reader, outside), column_bits(inverse, outside));
        assert!(!inverse.column(outside).indices().is_empty());
        for (p, q) in [(17, outside), (outside, 70), (29, 18)] {
            let want = column_store::column_distance_squared(inverse, p, q).expect("resident");
            let got = column_store::column_distance_squared(&reader, p, q).expect("paged");
            assert_eq!(got.to_bits(), want.to_bits(), "{name} ({p}, {q})");
        }
        // The fallback is the store's cached page path: one whole-page miss
        // on top of the two sparse pages, then hits.
        let stats = paged.store.page_cache_stats();
        assert_eq!((stats.misses, stats.column_runs), (3, 3), "{name}");
    }
}

/// A run column serves its rows before its values are read, and asking it
/// for values before `read_run_values` has read them is a caller's bug
/// that debug builds catch.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "whose values were never read")]
fn a_run_column_asked_for_values_before_they_are_read_panics_in_debug() {
    let paged = open_paged(raw_v3_path(), &sparse_options()).expect("opens");
    let mut pinned = paged
        .store
        .pin_pages(&SPARSE_PAGES, Some(&SPARSE_DEMAND))
        .expect("healthy fixture");
    paged.store.read_run_values(&mut pinned, &[17]);
    let reader = effres_io::PinnedReader::new(&paged.store, &pinned);
    let inverse = resident().estimator.approximate_inverse();
    for (j, read) in [(17, true), (29, false)] {
        let (rows, held) = reader.rows(j).expect("pinned run");
        assert_eq!(rows, inverse.column(j).indices(), "col {j}");
        assert_eq!(held, read, "col {j}");
    }
    let _ = reader.with_column(29, |_| ());
}

#[test]
fn poison_on_a_demanded_column_fails_typed_heals_on_refetch_and_stays_page_confined() {
    use effres_io::{open_paged_with_faults, FaultPlan, RetryPolicy};
    let retry = RetryPolicy {
        max_retries: 2,
        backoff: std::time::Duration::from_micros(1),
    };
    let options = sparse_options().with_retry(retry);
    let path = fixture("v3_grid12.snap");
    let clean = open_paged(&path, &options).expect("opens");
    // A demanded column on sparse page 1; overwriting the two high bytes
    // of its first value makes it decode as NaN.
    let victim = 29;
    let offset = clean.store.column_value_byte_offset(victim) + 6;

    // Persistent rot: the pin reads rows only and stands; reading the
    // victim's run's values fails validation twice, and every use of the
    // run gets that typed failure without a read.
    let rotten = open_paged_with_faults(&path, &options, FaultPlan::new(0).poison(offset, 2))
        .expect("opens");
    for partial in [false, true] {
        let before = rotten.store.page_cache_stats();
        let mut pinned = if partial {
            let (pinned, failures) = rotten
                .store
                .pin_pages_partial(&SPARSE_PAGES, Some(&SPARSE_DEMAND));
            assert!(failures.is_empty(), "{failures:?}");
            pinned
        } else {
            rotten
                .store
                .pin_pages(&SPARSE_PAGES, Some(&SPARSE_DEMAND))
                .expect("rows are healthy")
        };
        assert_eq!(pinned.len(), 2);
        assert_eq!(rotten.store.page_cache_stats().since(before).retries, 0);
        rotten.store.read_run_values(&mut pinned, &[victim]);
        let reader = effres_io::PinnedReader::new(&rotten.store, &pinned);
        for _ in 0..2 {
            let err = reader
                .with_column(victim, |_| ())
                .expect_err("poisoned demanded column");
            assert!(
                matches!(err, EffresError::StoreFailure { column, .. } if column == victim),
                "{err:?}"
            );
        }
        let stats = rotten.store.page_cache_stats().since(before);
        assert_eq!((stats.faulted_reads, stats.retries), (1, 1));
        assert_eq!(stats.value_reads, 1);

        // The rot stays in its run: the other runs, on the rotten page and
        // off it, serve bit-identically.
        rotten.store.read_run_values(&mut pinned, &[17, 18, 70]);
        let reader = effres_io::PinnedReader::new(&rotten.store, &pinned);
        let inverse = resident().estimator.approximate_inverse();
        for j in [17, 18, 70] {
            assert_eq!(column_bits(&reader, j), column_bits(inverse, j), "col {j}");
        }
        drop(pinned);
        assert_eq!(rotten.store.pinned_pages_now(), 0);
    }

    // Rot in transit: the re-fetch of the values reads clean bytes and the
    // run serves.
    let healing = open_paged_with_faults(
        &path,
        &options,
        FaultPlan::new(0).poison_until_refetch(offset, 2),
    )
    .expect("opens");
    let mut pinned = healing
        .store
        .pin_pages(&SPARSE_PAGES, Some(&SPARSE_DEMAND))
        .expect("rows are healthy");
    healing.store.read_run_values(&mut pinned, &SPARSE_DEMAND);
    let reader = effres_io::PinnedReader::new(&healing.store, &pinned);
    let inverse = resident().estimator.approximate_inverse();
    assert_eq!(column_bits(&reader, victim), column_bits(inverse, victim));
    let stats = healing.store.page_cache_stats();
    assert_eq!((stats.faulted_reads, stats.retries), (1, 1));
    for j in SPARSE_DEMAND {
        assert_eq!(column_bits(&reader, j), column_bits(inverse, j), "col {j}");
    }
}

#[test]
fn row_rot_on_a_demanded_column_still_fails_the_pin() {
    // Column 29's first row, pointed past the 144-node order in the raw
    // file: the run's rows are read and validated when it is pinned.
    let victim = 29;
    let path = hostile_copy("run_row", |bytes| {
        let at = COL_PTR_OFFSET + 8 * victim;
        let entry = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let row = RAW_ROWS_OFFSET + 4 * entry;
        bytes[row..row + 4].copy_from_slice(&500u32.to_le_bytes());
    });
    let rotten = open_paged(&path, &sparse_options()).expect("open skips row blocks");
    let err = rotten
        .store
        .pin_pages(&SPARSE_PAGES, Some(&SPARSE_DEMAND))
        .expect_err("rotten rows fail the pin");
    assert!(
        matches!(err, EffresError::StoreFailure { column, .. } if column == victim),
        "{err:?}"
    );
    // The partial pin fails only the rotten page; the other sparse page
    // pins and serves bit-identically.
    let (mut pinned, failures) = rotten
        .store
        .pin_pages_partial(&SPARSE_PAGES, Some(&SPARSE_DEMAND));
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 1);
    assert!(matches!(
        failures[0].1,
        EffresError::StoreFailure { column, .. } if column == victim
    ));
    assert_eq!(pinned.len(), 1);
    rotten.store.read_run_values(&mut pinned, &SPARSE_DEMAND);
    let reader = effres_io::PinnedReader::new(&rotten.store, &pinned);
    let inverse = resident().estimator.approximate_inverse();
    assert_eq!(column_bits(&reader, 70), column_bits(inverse, 70));
}

#[test]
fn a_partial_pin_fails_only_its_rotten_page_and_counts_each_page_once() {
    use effres_io::{open_paged_with_faults, FaultPlan, RetryPolicy};
    let path = fixture("v3_grid12.snap");
    let options = PagedOptions {
        cache_pages: 4,
        ..sparse_options()
    }
    .with_retry(RetryPolicy::none());
    let clean = open_paged(&path, &options).expect("opens");
    // Sparse pages 1, 4 and 6 around cached page 2; the demanded column of
    // the middle sparse page, 70, is rotten at rest.
    let victim = 70;
    let offset = clean.store.column_value_byte_offset(victim) + 6;
    let rotten = open_paged_with_faults(&path, &options, FaultPlan::new(0).poison(offset, 2))
        .expect("opens");
    let dense: Vec<usize> = (32..48).collect();
    drop(rotten.store.pin_pages(&[2], Some(&dense)).expect("page 2"));
    let cached = rotten.store.page_cache_stats();

    // Runs pin their rows only, and the victim's rows are healthy: every
    // page pins.
    let mut demand = dense.clone();
    demand.extend([17, 18, 29, victim, 100]);
    let (mut pinned, failures) = rotten.store.pin_pages_partial(&[1, 2, 4, 6], Some(&demand));
    assert!(failures.is_empty(), "{failures:?}");
    assert_eq!(pinned.len(), 4);
    assert_eq!(rotten.store.pinned_pages_now(), 4);
    let disk = column_disk_bytes(&path);
    let pinning = rotten.store.page_cache_stats().since(cached);
    assert_eq!(
        (pinning.hits, pinning.misses, pinning.column_runs),
        (1, 3, 4)
    );
    assert_eq!((pinning.retries, pinning.faulted_reads), (0, 0));
    assert_eq!(
        pinning.bytes_read,
        [17, 18, 29, victim, 100]
            .iter()
            .map(|&j| disk[j].rows)
            .sum::<u64>()
    );

    // Reading the runs' values fails validation on the victim's, re-fetches
    // them once and keeps the typed failure, which its use gets.
    rotten.store.read_run_values(&mut pinned, &demand);
    let reader = effres_io::PinnedReader::new(&rotten.store, &pinned);
    let err = reader
        .with_column(victim, |_| ())
        .expect_err("rotten values");
    assert!(
        matches!(err, EffresError::StoreFailure { column, .. } if column == victim),
        "{err:?}"
    );

    // One hit, three misses, runs 17..19, 29, 70 and 100, and one re-fetch
    // of the rotten run's values, which are read twice.
    let inverse = resident().estimator.approximate_inverse();
    for &j in demand.iter().filter(|&&j| j != victim) {
        assert_eq!(column_bits(&reader, j), column_bits(inverse, j), "col {j}");
    }
    let stats = rotten.store.page_cache_stats().since(cached);
    assert_eq!((stats.hits, stats.misses, stats.column_runs), (1, 3, 4));
    assert_eq!(stats.value_reads, 4);
    assert_eq!((stats.retries, stats.faulted_reads), (1, 1));
    assert_eq!(stats.readahead_reads, 0);
    assert_eq!(
        stats.bytes_read,
        disk[17].total()
            + disk[18].total()
            + disk[29].total()
            + disk[victim].rows
            + 2 * disk[victim].vals
            + disk[100].total()
    );
    // Every demanded column of the healthy runs served off the pin,
    // bit-identical to the resident arena, without falling back.
    drop(pinned);
    assert_eq!(rotten.store.pinned_pages_now(), 0);
}

#[test]
fn sparse_pins_leave_the_buffer_pool_alone_and_whole_pages_recycle() {
    let paged = open_paged(fixture("v3_grid12.snap"), &sparse_options()).expect("opens");
    let sparse_pin = || {
        drop(
            paged
                .store
                .pin_pages(&SPARSE_PAGES, Some(&SPARSE_DEMAND))
                .expect("healthy fixture"),
        );
    };
    sparse_pin();
    assert_eq!(paged.store.buffer_pool_stats(), (0, 0));
    // A one-page cache: pinning page 1 evicts page 0, whose buffers then
    // serve page 0's next decode.
    for pid in [0, 1, 0] {
        drop(
            paged
                .store
                .pin_pages(&[pid], None)
                .expect("healthy fixture"),
        );
    }
    assert_eq!(paged.store.buffer_pool_stats(), (1, 2));
    sparse_pin();
    assert_eq!(paged.store.buffer_pool_stats(), (1, 2));
}

#[test]
fn a_pin_publishes_its_whole_pages_in_page_order() {
    // Two cache slots in one shard: a pin of pages 0, 1 and 2 publishes
    // them in page order, so pages 1 and 2 stay resident and the page
    // counts of whatever comes next repeat from run to run.
    let paged = open_paged(
        fixture("v3_grid12.snap"),
        &PagedOptions {
            columns_per_page: 8,
            cache_pages: 2,
            cache_shards: 1,
            ..PagedOptions::default()
        },
    )
    .expect("opens");
    drop(paged.store.pin_pages(&[2, 0, 1], None).expect("pin"));
    let pinned = paged.store.page_cache_stats();
    for pid in [1, 2, 0] {
        paged.store.with_column(8 * pid, |_| ()).expect("fetch");
    }
    let stats = paged.store.page_cache_stats().since(pinned);
    assert_eq!((stats.hits, stats.misses), (2, 1));
}
