//! Paged pairs certified from the persisted skeleton. A scheduled batch on
//! a v4 snapshot reads the row-bucket skeletons of its columns, answers
//! the pairs they prove disjoint from the norm table, and pins, reads and
//! drains only the rest. Its answers stay bit-identical to
//! `QueryEngine::execute` and to resident serving in both modes and at
//! one and two threads; no certified pair's suffixes share a row; a v3
//! file certifies nothing and reads what it read before; a hostile
//! skeleton record sends its group's pairs down the row path instead of
//! failing them; the scrubber catches a record that rotted into a
//! well-formed lie, and the pair cache drops the lie with it; a batch
//! that fits the page cache is not certified; and traffic whose pairs all
//! meet stops the pass at its probe.

use effres::column_store::ColumnStore;
use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::{load_snapshot, write_snapshot, write_snapshot_v3};
use effres_service::{EngineOptions, ExecMode, ExecOptions, QueryBatch, QueryEngine};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// A 100 × 100 unit grid, its estimator and its v4 snapshot bytes.
fn grid100() -> &'static (Arc<EffectiveResistanceEstimator>, Vec<u8>) {
    static GRID: OnceLock<(Arc<EffectiveResistanceEstimator>, Vec<u8>)> = OnceLock::new();
    GRID.get_or_init(|| {
        let graph = generators::grid_2d(100, 100, 1.0, 1.0, 1).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &estimator, None).expect("write");
        (Arc::new(estimator), bytes)
    })
}

/// A snapshot file under the temp dir, removed when the guard drops: when
/// its test ends, also on a panic.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl std::ops::Deref for TempFile {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempFile {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

fn temp_file(name: &str, bytes: &[u8]) -> TempFile {
    let dir = std::env::temp_dir().join("effres-certified-pairs");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = TempFile(dir.join(format!("{}-{name}", std::process::id())));
    std::fs::write(&file.0, bytes).expect("write");
    file
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../io/tests/fixtures")
        .join(name)
}

fn engine_options(threads: usize) -> EngineOptions {
    EngineOptions {
        cache_capacity: 0,
        threads,
        parallel_threshold: if threads > 1 { 8 } else { usize::MAX },
        ..EngineOptions::default()
    }
}

fn paged_engine(path: &Path, options: &PagedOptions, threads: usize) -> QueryEngine<PagedSnapshot> {
    let paged = open_paged(path, options).expect("open paged");
    QueryEngine::new(Arc::new(paged), engine_options(threads))
}

fn pages(columns_per_page: usize, cache_pages: usize) -> PagedOptions {
    PagedOptions {
        columns_per_page,
        cache_pages,
        cache_shards: 1,
        ..PagedOptions::default()
    }
}

fn assert_same_bits(expected: &[f64], got: &[f64], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}");
    for (slot, (x, y)) in expected.iter().zip(got).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: slot {slot}");
    }
}

/// Whether the suffixes of columns `p` and `q` at rows `max(p, q)..` share
/// a row, straight from the resident arena's rows.
fn suffixes_meet(estimator: &EffectiveResistanceEstimator, p: usize, q: usize) -> bool {
    let z = estimator.approximate_inverse();
    let bound = p.max(q) as u32;
    let rows = |j: usize| -> Vec<u32> {
        (z.column(j).indices().iter().copied())
            .filter(|&row| row >= bound)
            .collect()
    };
    let b = rows(q);
    rows(p).iter().any(|row| b.binary_search(row).is_ok())
}

#[test]
fn scheduled_v4_batches_certify_pairs_and_stay_bit_identical() {
    let (estimator, bytes) = grid100();
    let path = temp_file("grid100.snap", bytes);
    let batch = QueryBatch::random(2000, estimator.node_count(), 7);
    let resident = QueryEngine::new(Arc::clone(estimator), engine_options(1))
        .execute(&batch)
        .expect("resident")
        .values;
    // An 8-page cache (one chunk per round at either thread count) and a
    // 64-page one (two chunks per round at two threads).
    for options in [pages(64, 8), pages(64, 64)] {
        let reference = paged_engine(&path, &options, 1)
            .execute(&batch)
            .expect("arrival order")
            .values;
        assert_same_bits(&resident, &reference, "execute");
        // The pass split over two workers certifies what one thread does.
        let mut certified = Vec::new();
        for threads in [1, 2] {
            for mode in [ExecMode::FailFast, ExecMode::Partial] {
                let engine = paged_engine(&path, &options, threads);
                let result = engine
                    .execute_with(&batch, &ExecOptions { mode, cancel: None })
                    .expect("scheduled");
                let what = format!("{options:?} threads {threads} {mode:?}");
                assert!(result.failures.is_empty(), "{what}");
                assert_same_bits(&resident, &result.values, &what);
                let kernel = result.kernel;
                assert!(kernel.certified_pairs > 0, "{what}: {kernel:?}");
                assert!(kernel.certified_pairs <= kernel.isolated_pairs, "{what}");
                let page = result.page_cache.expect("paged");
                assert!(page.skeleton_reads > 0, "{what}: {page:?}");
                assert_eq!(page.faulted_reads, 0, "{what}");
                assert_eq!(engine.stats().page_skeleton_reads, page.skeleton_reads);
                certified.push(kernel.certified_pairs);
            }
        }
        assert!(certified.windows(2).all(|w| w[0] == w[1]), "{certified:?}");
    }
}

#[test]
fn no_certified_pair_shares_a_row() {
    let (estimator, bytes) = grid100();
    let path = temp_file("grid100-brute.snap", bytes);
    let paged = open_paged(&path, &PagedOptions::default()).expect("open");
    let z = estimator.approximate_inverse();
    let n = z.order();
    let pairs: Vec<(usize, usize)> = (0..6_000)
        .map(|k| ((k * 7_919) % n, (k * 104_729 + 13) % n))
        .collect();
    let mut columns: Vec<usize> = pairs.iter().flat_map(|&(p, q)| [p, q]).collect();
    columns.sort_unstable();
    columns.dedup();
    let skeletons = paged.store.read_skeletons(&columns);
    let mut certified = 0;
    for &(p, q) in &pairs {
        if skeletons.certifies(p, q) {
            certified += 1;
            assert!(
                !suffixes_meet(estimator, p, q),
                "({p}, {q}) certified but meets"
            );
            assert_eq!(ColumnStore::suffixes_meet_from(z, p, q), None, "({p}, {q})");
        }
    }
    assert!(certified > 0, "no pair of a 100 × 100 grid certified");
}

#[test]
fn a_scheduled_batch_on_the_v3_fixture_certifies_none_and_reads_as_before() {
    // The v3 fixture has no skeleton: every pair takes the row path, and
    // the batch's page traffic is what it was before v4 existed (pinned
    // from a run of the same batch at the previous format version).
    let engine = paged_engine(&fixture("v3_grid12.snap"), &pages(4, 8), 1);
    assert!(!engine.backend().store.has_skeleton());
    let batch = QueryBatch::random(500, 144, 7);
    let result = engine.execute_scheduled(&batch).expect("scheduled");
    let resident = load_snapshot(fixture("v3_grid12.snap")).expect("load");
    let expected = QueryEngine::new(Arc::new(resident.estimator), engine_options(1))
        .execute(&batch)
        .expect("resident");
    assert_same_bits(&expected.values, &result.values, "v3");
    assert_eq!(result.kernel.certified_pairs, 0);
    let page = result.page_cache.expect("paged");
    let schedule = result.schedule.expect("scheduled");
    assert_eq!(page.skeleton_reads, 0);
    assert_eq!(
        (
            page.hits,
            page.misses,
            page.bytes_read,
            page.column_runs,
            page.value_reads,
            page.readahead_reads,
            schedule.blocks,
            schedule.windows,
        ),
        V3_FIXTURE_TRAFFIC
    );
}

/// `(hits, misses, bytes_read, column_runs, value_reads, readahead_reads,
/// rounds, pins)` of the v3-fixture batch above.
const V3_FIXTURE_TRAFFIC: (u64, u64, u64, u64, u64, u64, usize, usize) =
    (107, 285, 436_000, 84, 84, 300, 49, 49);

/// The skeleton block of a v4 file, split into its groups' bytes so a test
/// can rewrite them and put the file back together.
struct SplitV4 {
    head: Vec<u8>,
    groups: Vec<Vec<u8>>,
    tail: Vec<u8>,
}

impl SplitV4 {
    fn new(bytes: &[u8]) -> Self {
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let n = u64_at(12);
        let nnz_at = 12 + 16 + 48 + 16 + 4 * n;
        let nnz = u64_at(nnz_at);
        let codec_at = nnz_at + 8 + 8 * (n + 1);
        let rows_end = match bytes[codec_at] {
            0 => codec_at + 1 + 4 * nnz,
            _ => codec_at + 1 + 8 + 8 * (n + 1) + u64_at(codec_at + 1),
        };
        let block = rows_end + 8 * nnz + 8 * n;
        let records = block + 8;
        let table = records + u64_at(block);
        let entries = n.div_ceil(64) + 1;
        let offsets: Vec<usize> = (0..entries).map(|g| u64_at(table + 8 * g)).collect();
        SplitV4 {
            head: bytes[..block].to_vec(),
            groups: (offsets.windows(2))
                .map(|w| bytes[records + w[0]..records + w[1]].to_vec())
                .collect(),
            tail: bytes[table + 8 * entries..].to_vec(),
        }
    }

    fn join(&self) -> Vec<u8> {
        let records: usize = self.groups.iter().map(Vec::len).sum();
        let mut bytes = self.head.clone();
        bytes.extend_from_slice(&(records as u64).to_le_bytes());
        for group in &self.groups {
            bytes.extend_from_slice(group);
        }
        let mut offset = 0u64;
        bytes.extend_from_slice(&offset.to_le_bytes());
        for group in &self.groups {
            offset += group.len() as u64;
            bytes.extend_from_slice(&offset.to_le_bytes());
        }
        bytes.extend_from_slice(&self.tail);
        bytes
    }

    /// Byte ranges of the records of group `g`: `(length prefix, body)`.
    fn records(&self, g: usize) -> Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> {
        let bytes = &self.groups[g];
        let mut at = 0;
        let mut out = Vec::new();
        while at < bytes.len() {
            let start = at;
            let (mut len, mut shift) = (0usize, 0);
            loop {
                let byte = bytes[at];
                at += 1;
                len |= usize::from(byte & 0x7f) << shift;
                shift += 7;
                if byte & 0x80 == 0 {
                    break;
                }
            }
            out.push((start..at, at..at + len));
            at += len;
        }
        out
    }
}

#[test]
fn hostile_skeleton_records_fall_back_to_the_row_path() {
    let (estimator, bytes) = grid100();
    let n = estimator.node_count();
    let to_node = estimator.permutation().new_to_old();
    let clean = SplitV4::new(bytes);
    assert_eq!(
        clean.join(),
        *bytes,
        "the split puts the file back together"
    );
    let options = pages(64, 8);
    let g = 37; // columns 2368..2432
    let batch_with = |columns: &[usize]| {
        let mut pairs = QueryBatch::random(1500, n, 11).pairs().to_vec();
        pairs.extend(
            columns
                .iter()
                .map(|&j| (to_node[j], to_node[(j * 31 + 5) % n])),
        );
        QueryBatch::from_pairs(pairs)
    };
    let mut cases: Vec<(&str, Vec<u8>, Vec<usize>)> = Vec::new();
    // The group's last record claims one byte more than the group holds.
    let mut overrun = SplitV4::new(bytes);
    let (prefix, _) = overrun.records(g).pop().expect("records");
    overrun.groups[g][prefix.start] += 1;
    cases.push(("overrun", overrun.join(), vec![64 * g]));
    // A zero delta after a record's first bucket.
    let mut zero = SplitV4::new(bytes);
    let (k, (_, body)) = (zero.records(g).into_iter().enumerate())
        .find(|(_, (_, body))| body.len() >= 2 && zero.groups[g][body.start] < 0x80)
        .expect("a record with two one-byte deltas");
    zero.groups[g][body.start + 1] = 0;
    cases.push(("zero delta", zero.join(), vec![64 * g + k]));
    // A bucket past the order's last bucket, in the last column's record.
    let last = n.div_ceil(64) - 1;
    let mut past = SplitV4::new(bytes);
    let (_, body) = past.records(last).pop().expect("records");
    past.groups[last][body.end - 1] = 0x7f;
    cases.push(("past the order", past.join(), vec![n - 1]));
    // A byte after the group's last record.
    let mut trailing = SplitV4::new(bytes);
    trailing.groups[g].push(0);
    cases.push(("trailing", trailing.join(), vec![64 * g]));

    for (name, file, columns) in cases {
        let path = temp_file(&format!("hostile-{}.snap", name.replace(' ', "-")), &file);
        let batch = batch_with(&columns);
        let resident = QueryEngine::new(Arc::clone(estimator), engine_options(1))
            .execute(&batch)
            .expect("resident")
            .values;
        for mode in [ExecMode::FailFast, ExecMode::Partial] {
            let engine = paged_engine(&path, &options, 1);
            let result = engine
                .execute_with(&batch, &ExecOptions { mode, cancel: None })
                .unwrap_or_else(|abort| panic!("{name}: {:?}", abort.error));
            assert!(result.failures.is_empty(), "{name}");
            assert_same_bits(&resident, &result.values, name);
            let page = result.page_cache.expect("paged");
            // The group failed twice (its read and one re-fetch) and its
            // pairs took the row path; the other groups certified theirs.
            assert_eq!(
                (page.faulted_reads, page.retries),
                (2, 1),
                "{name}: {page:?}"
            );
            assert!(result.kernel.certified_pairs > 0, "{name}");
            let store = &engine.backend().store;
            let skeletons = store.read_skeletons(&columns);
            assert_eq!(skeletons.buckets(columns[0]), None, "{name}");
        }
    }
}

#[test]
fn the_scrubber_catches_a_skeleton_record_that_rots_into_a_well_formed_lie() {
    // Clean pages never trip the scrubber's skeleton check, on the
    // committed v4 fixture (whose columns hold every bucket from their own
    // to the last, so no one-byte flip of a record stays well formed) or
    // on the 100 × 100 grid.
    let options = pages(64, 64);
    for (name, bytes) in [
        (
            "v4-fixture.snap",
            std::fs::read(fixture("v4_grid12.snap")).expect("v4 fixture"),
        ),
        ("grid100-clean.snap", grid100().1.clone()),
    ] {
        let clean = open_paged(temp_file(name, &bytes), &pages(4, 64)).expect("open");
        for pid in 0..clean.store.page_count() {
            clean
                .store
                .scrub_page(pid)
                .expect("a clean page scrubs clean");
        }
        assert_eq!(clean.store.scrub_stats().scrub_failures, 0, "{name}");
    }

    // Find a one-byte flip of a record body on the grid that still parses
    // but certifies a pair whose suffixes meet: an odd delta of 3 or more,
    // lowered by one, moves every later bucket of its column down one.
    let (estimator, clean_bytes) = grid100();
    let n = estimator.node_count();
    let split = SplitV4::new(clean_bytes);
    let mut found = None;
    'search: for g in (0..split.groups.len()).step_by(7) {
        for (k, (_, body)) in split.records(g).into_iter().enumerate() {
            let j = 64 * g + k;
            let Some(at) = body
                .clone()
                .skip(1)
                .find(|&at| split.groups[g][at] >= 3 && split.groups[g][at] % 2 == 1)
            else {
                continue;
            };
            let mut rotten = SplitV4::new(clean_bytes);
            rotten.groups[g][at] ^= 1;
            let bytes = rotten.join();
            let paged = open_paged(temp_file("grid100-probe.snap", &bytes), &options)
                .expect("the offset table is intact");
            let all: Vec<usize> = (0..n).collect();
            let skeletons = paged.store.read_skeletons(&all);
            assert_eq!(paged.store.page_cache_stats().faulted_reads, 0, "it parses");
            let lie = (0..n)
                .find(|&q| q != j && skeletons.certifies(j, q) && suffixes_meet(estimator, j, q));
            if let Some(q) = lie {
                found = Some((bytes, (j, q)));
                break 'search;
            }
        }
    }
    let (bytes, (p, q)) = found.expect("some flip certifies a meeting pair");
    let path = temp_file("grid100-rot.snap", &bytes);
    let to_node = estimator.permutation().new_to_old();
    let batch = QueryBatch::from_pairs(vec![(to_node[p], to_node[q])]);
    let expected = QueryEngine::new(Arc::clone(estimator), engine_options(1))
        .execute(&batch)
        .expect("resident")
        .values[0];
    // Served with the default pair cache, on one-column pages and a
    // one-page cache, so the one-pair batch outgrows the cache and is
    // certified.
    let paged = open_paged(&path, &pages(1, 1)).expect("open paged");
    let engine = QueryEngine::new(Arc::new(paged), EngineOptions::default());
    let before = engine.execute_scheduled(&batch).expect("rotten batch");
    assert_eq!(before.kernel.certified_pairs, 1);
    assert!(
        before.values[0] > expected,
        "a lost bucket answers too high"
    );
    // The pair cache keeps the lie: a repeat is answered from it.
    let repeat = engine.execute_scheduled(&batch).expect("repeat");
    assert_eq!(repeat.cache_hits, 1);
    assert_eq!(repeat.values[0].to_bits(), before.values[0].to_bits());
    // One scrubber pass flags the rotten column's page, once, and clears
    // the pair cache.
    let store = &engine.backend().store;
    let failed: Vec<usize> = (0..store.page_count())
        .filter(|&pid| engine.scrub_page(pid).is_err())
        .collect();
    assert_eq!(failed, vec![store.page_of_column(p)]);
    let scrub = store.scrub_stats();
    assert_eq!(
        (scrub.scrub_failures, scrub.skeleton_groups_distrusted),
        (1, 1)
    );
    assert_eq!(scrub.quarantined, 0, "the page itself is sound");
    assert_eq!(engine.stats().cache_entries, 0);
    // From then on the pair takes the row path, and answers as resident.
    let after = engine.execute_scheduled(&batch).expect("scrubbed batch");
    assert_eq!(after.kernel.certified_pairs, 0);
    assert_eq!(after.values[0].to_bits(), expected.to_bits());
}

#[test]
fn a_batch_that_fits_the_cache_is_not_certified_and_repeats_without_reads() {
    // 20 pairs touch at most 40 of the grid's 157 pages: within a 64-page
    // cache the batch reads, caches and reuses whole pages.
    let (estimator, bytes) = grid100();
    let path = temp_file("grid100-fits.snap", bytes);
    let batch = QueryBatch::random(20, estimator.node_count(), 5);
    let resident = QueryEngine::new(Arc::clone(estimator), engine_options(1))
        .execute(&batch)
        .expect("resident")
        .values;
    let engine = paged_engine(&path, &pages(64, 64), 1);
    let first = engine.execute_scheduled(&batch).expect("first run");
    assert_same_bits(&resident, &first.values, "first run");
    assert_eq!(first.kernel.certified_pairs, 0);
    let page = first.page_cache.expect("paged");
    assert_eq!((page.skeleton_reads, page.column_runs), (0, 0), "{page:?}");
    assert!(page.misses > 0);
    let second = engine.execute_scheduled(&batch).expect("second run");
    assert_same_bits(&resident, &second.values, "second run");
    let page = second.page_cache.expect("paged");
    assert_eq!(
        (page.misses, page.bytes_read, page.skeleton_reads),
        (0, 0, 0),
        "{page:?}"
    );
}

#[test]
fn graph_edges_stop_the_pass_at_its_probe() {
    // The column of an edge's earlier endpoint holds the later endpoint's
    // row, so the suffixes of every edge meet (checked below): no probed
    // pair certifies, the pass stops, and the batch reads the rows a v3
    // file of the same inverse makes it read, plus the probe's groups.
    let (estimator, bytes) = grid100();
    let graph = generators::grid_2d(100, 100, 1.0, 1.0, 1).expect("generator");
    let edges: Vec<(usize, usize)> = graph.edges().map(|(_, e)| (e.u, e.v)).collect();
    let batch = QueryBatch::from_pairs(
        (0..2000)
            .map(|k| edges[(k * 7_919) % edges.len()])
            .collect(),
    );
    let permutation = estimator.permutation();
    for &(u, v) in batch.pairs() {
        let (p, q) = (permutation.new(u), permutation.new(v));
        assert!(suffixes_meet(estimator, p, q), "edge ({u}, {v})");
    }
    let resident = QueryEngine::new(Arc::clone(estimator), engine_options(1))
        .execute(&batch)
        .expect("resident")
        .values;
    let v4 = temp_file("grid100-edges.snap", bytes);
    let mut v3_bytes = Vec::new();
    write_snapshot_v3(&mut v3_bytes, estimator, None).expect("write v3");
    let v3 = temp_file("grid100-edges-v3.snap", &v3_bytes);
    for threads in [1, 2] {
        let run = |path: &Path| {
            let engine = paged_engine(path, &pages(64, 8), threads);
            let result = engine.execute_scheduled(&batch).expect("scheduled");
            assert_same_bits(&resident, &result.values, "edges");
            assert_eq!(result.kernel.certified_pairs, 0);
            let page = result.page_cache.expect("paged");
            let schedule = result.schedule.expect("scheduled");
            (page, schedule)
        };
        let ((page, schedule), (v3_page, v3_schedule)) = (run(&v4), run(&v3));
        assert!(page.skeleton_reads > 0, "threads {threads}: {page:?}");
        // At most one read per probed column.
        assert!(page.skeleton_reads <= 128, "threads {threads}: {page:?}");
        let traffic = |page: effres_io::PageCacheStats| {
            (
                page.hits,
                page.misses,
                page.column_runs,
                page.value_reads,
                page.readahead_reads,
            )
        };
        assert_eq!(traffic(page), traffic(v3_page), "threads {threads}");
        assert_eq!(
            (schedule.blocks, schedule.windows),
            (v3_schedule.blocks, v3_schedule.windows),
            "threads {threads}"
        );
    }
}
