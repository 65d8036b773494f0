//! Rows-first column runs through the locality scheduler, on a unit grid
//! large enough that some random pairs' suffixes share rows and some share
//! none. A sparse pin reads each run's rows; a run's values are read only
//! when a pair's suffixes meet on one of its columns, once per pin, at one
//! thread or two, also for pairs that share a hub column. Answers stay
//! bit-identical to the arrival-order path, and value rot fails only the
//! pairs that read it.

use effres::{EffectiveResistanceEstimator, EffresConfig, EffresError};
use effres_graph::generators;
use effres_io::paged::{open_paged, open_paged_with_faults, PagedOptions, PagedSnapshot};
use effres_io::snapshot::write_snapshot_v3;
use effres_io::{FaultPlan, RetryPolicy, RowCodec};
use effres_service::{EngineOptions, ExecMode, ExecOptions, QueryBatch, QueryEngine};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// A 64×64 unit grid: 4,096 nodes, 64 pages of 64 columns.
const SIDE: usize = 64;
const COLUMNS_PER_PAGE: usize = 64;
/// Far below the batches' page footprint, so every pin is demand-sized.
const CACHE_PAGES: usize = 4;
/// Demanded columns per page, few enough to keep every page sparse.
const PER_PAGE: usize = 2;

/// The grid's estimator and its v3 snapshot.
struct Fixture {
    path: PathBuf,
    estimator: EffectiveResistanceEstimator,
    /// Permuted columns of the batch, one pair each, no two adjacent: every
    /// demanded column is its own run.
    pairs: Vec<(usize, usize)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = generators::grid_2d(SIDE, SIDE, 1.0, 1.0, 5).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let dir = std::env::temp_dir().join("effres-rows-first-pins");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("grid{SIDE}.snap"));
        // A v3 file, without the skeleton: on a v4 file the batch
        // certifies every pair of this set whose suffixes share no row
        // before it pins a page, and no run would be left to show that a
        // disjoint pair reads no values.
        // Staged beside it and renamed into place, so a process that runs
        // this binary at the same time never reads a torn file.
        let mut bytes = Vec::new();
        write_snapshot_v3(&mut bytes, &estimator, None).expect("write");
        let staged = dir.join(format!(".grid{SIDE}.snap.{}", std::process::id()));
        std::fs::write(&staged, bytes).expect("stage");
        std::fs::rename(&staged, &path).expect("save");
        let pairs = sparse_pairs(&estimator);
        Fixture {
            path,
            estimator,
            pairs,
        }
    })
}

/// The rows of column `j` of the inverse.
fn rows(estimator: &EffectiveResistanceEstimator, j: usize) -> &[u32] {
    estimator.approximate_inverse().column(j).indices()
}

/// On-disk row bytes of a column under `codec`: `u32` rows, or the first
/// row then the gaps as LEB128 varints (the v3 layout).
fn row_bytes(rows: &[u32], codec: RowCodec) -> u64 {
    let varint = |v: u32| u64::from((32 - v.leading_zeros()).div_ceil(7).max(1));
    match codec {
        RowCodec::Raw => 4 * rows.len() as u64,
        RowCodec::Varint => {
            let gaps = rows.windows(2).map(|w| varint(w[1] - w[0])).sum::<u64>();
            rows.first().map_or(0, |&first| varint(first) + gaps)
        }
    }
}

/// The `PER_PAGE` lightest columns of every page, no two adjacent
/// anywhere, paired column `k` with column `k + m/2` of the `m` chosen so
/// that pairs span the file.
fn sparse_pairs(estimator: &EffectiveResistanceEstimator) -> Vec<(usize, usize)> {
    let n = estimator.node_count();
    let mut chosen: Vec<usize> = Vec::new();
    for first in (0..n).step_by(COLUMNS_PER_PAGE) {
        let mut page: Vec<usize> = (first..(first + COLUMNS_PER_PAGE).min(n)).collect();
        page.sort_by_key(|&j| (rows(estimator, j).len(), j));
        let mut picked: Vec<usize> = Vec::new();
        for j in page {
            let clear = |c: &usize| c.abs_diff(j) < 2;
            if picked.len() < PER_PAGE && !picked.iter().any(clear) && !chosen.iter().any(clear) {
                picked.push(j);
            }
        }
        chosen.extend(picked);
    }
    chosen.sort_unstable();
    let half = chosen.len() / 2;
    (0..half).map(|k| (chosen[k], chosen[k + half])).collect()
}

/// Whether the suffixes of columns `p` and `q` from row `max(p, q)` share a
/// row: the pairs whose answers need stored values.
fn meets(estimator: &EffectiveResistanceEstimator, p: usize, q: usize) -> bool {
    let bound = p.max(q) as u32;
    let b = rows(estimator, q);
    rows(estimator, p)
        .iter()
        .filter(|&&row| row >= bound)
        .any(|row| b.binary_search(row).is_ok())
}

/// Permuted pairs as a batch of node pairs.
fn node_batch(pairs: &[(usize, usize)]) -> QueryBatch {
    let to_node = fixture().estimator.permutation().new_to_old();
    QueryBatch::from_pairs(
        pairs
            .iter()
            .map(|&(p, q)| (to_node[p], to_node[q]))
            .collect(),
    )
}

fn paged_options() -> PagedOptions {
    PagedOptions {
        columns_per_page: COLUMNS_PER_PAGE,
        cache_pages: CACHE_PAGES,
        cache_shards: 1,
        ..PagedOptions::default()
    }
    .with_retry(RetryPolicy::none())
}

fn engine(paged: PagedSnapshot, threads: usize) -> QueryEngine<PagedSnapshot> {
    QueryEngine::new(
        Arc::new(paged),
        EngineOptions {
            cache_capacity: 0,
            threads,
            parallel_threshold: if threads > 1 { 8 } else { usize::MAX },
            ..EngineOptions::default()
        },
    )
}

/// Answers of the arrival-order path of a cache-less engine, which reads
/// whole pages through the page cache.
fn arrival_order(batch: &QueryBatch) -> Vec<f64> {
    let paged = open_paged(&fixture().path, &paged_options()).expect("open paged");
    engine(paged, 1)
        .execute(batch)
        .expect("arrival order")
        .values
}

fn assert_bits(expected: &[f64], got: &[f64], context: &str) {
    assert_eq!(expected.len(), got.len(), "{context}");
    for (slot, (x, y)) in expected.iter().zip(got).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: slot {slot}");
    }
}

/// The column a typed store failure names.
fn failed_column(error: &EffresError) -> Option<usize> {
    match error {
        EffresError::StoreFailure { column, .. } => Some(*column),
        _ => None,
    }
}

fn modes() -> [(&'static str, ExecOptions); 2] {
    [
        ("fail-fast", ExecOptions::default()),
        (
            "partial",
            ExecOptions {
                mode: ExecMode::Partial,
                cancel: None,
            },
        ),
    ]
}

#[test]
fn runs_read_their_values_only_where_suffixes_meet() {
    let fixture = fixture();
    let estimator = &fixture.estimator;
    let pairs = &fixture.pairs;
    let meeting: Vec<&(usize, usize)> = pairs
        .iter()
        .filter(|&&(p, q)| meets(estimator, p, q))
        .collect();
    assert!(
        !meeting.is_empty() && meeting.len() < pairs.len(),
        "the grid must give both kinds of pairs: {} of {} meet",
        meeting.len(),
        pairs.len()
    );
    let batch = node_batch(pairs);
    let expected = arrival_order(&batch);
    let codec = open_paged(&fixture.path, &paged_options())
        .expect("open paged")
        .store
        .row_codec();
    let nnz = |j: usize| rows(estimator, j).len() as u64;
    let all_rows: u64 = pairs
        .iter()
        .flat_map(|&(p, q)| [p, q])
        .map(|j| row_bytes(rows(estimator, j), codec))
        .sum();
    let met_values: u64 = meeting.iter().map(|&&(p, q)| 8 * (nnz(p) + nnz(q))).sum();

    for threads in [1, 2] {
        for (mode, options) in modes() {
            let context = format!("{mode}, {threads} thread(s)");
            let paged = open_paged(&fixture.path, &paged_options()).expect("open paged");
            assert!(paged.store.page_count() > CACHE_PAGES, "{context}");
            let engine = engine(paged, threads);
            let result = engine.execute_with(&batch, &options).expect("healthy");
            assert!(result.failures.is_empty(), "{context}");
            assert_bits(&expected, &result.values, &context);
            let page = result.page_cache.expect("paged batch");
            // Every demanded column is a run of its own, pinned once.
            assert_eq!(page.column_runs, 2 * pairs.len() as u64, "{context}");
            assert_eq!(page.readahead_reads, 0, "{context}");
            // A meeting pair reads both runs' values; a disjoint one none.
            assert_eq!(page.value_reads, 2 * meeting.len() as u64, "{context}");
            assert!(page.value_reads < page.column_runs, "{context}");
            assert_eq!(page.bytes_read, all_rows + met_values, "{context}");
            let store = &engine.backend().store;
            assert!(store.pinned_pages_high_water() <= store.cache_capacity_pages());
            assert_eq!(engine.stats().page_value_reads, page.value_reads);
        }
    }
}

/// Hub runs whose suffixes share no row: `HUBS` hub columns, two on each
/// of the first pages (the grid's corner, where columns stay short), each
/// paired with two columns of its own page among the last pages whose
/// suffixes share no row with the hub's. The two pairs of a hub share
/// their smaller endpoint and one page pair, so they drain in one chunk,
/// where the grouped kernel would scatter the hub and stream both
/// partners.
fn disjoint_hub_pairs(estimator: &EffectiveResistanceEstimator) -> Vec<(usize, usize)> {
    let pages = estimator.node_count() / COLUMNS_PER_PAGE;
    let by_weight = |page: usize| {
        let first = page * COLUMNS_PER_PAGE;
        let mut columns: Vec<usize> = (first..first + COLUMNS_PER_PAGE).collect();
        columns.sort_by_key(|&j| (rows(estimator, j).len(), j));
        columns
    };
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for k in 0..HUBS {
        let partners = by_weight(pages - 1 - 3 * k);
        let hubs = by_weight(k / 2).into_iter();
        let found = hubs
            .filter(|&hub| pairs.iter().all(|&(h, _)| h != hub))
            .find_map(|hub| {
                let mut apart = partners.iter().filter(|&&j| !meets(estimator, hub, j));
                let a = *apart.next()?;
                let b = *apart.find(|&&j| j.abs_diff(a) > 1)?;
                Some([(hub, a), (hub, b)])
            });
        pairs.extend(found.expect("a hub with two disjoint partners"));
    }
    pairs
}

/// Hubs in [`disjoint_hub_pairs`]: on six pages, more than the cache holds.
const HUBS: usize = 4;

#[test]
fn hub_runs_whose_suffixes_share_no_row_read_no_values() {
    let fixture = fixture();
    let pairs = disjoint_hub_pairs(&fixture.estimator);
    let batch = node_batch(&pairs);
    let expected = arrival_order(&batch);
    for threads in [1, 2] {
        for (mode, options) in modes() {
            let context = format!("{mode}, {threads} thread(s)");
            let paged = open_paged(&fixture.path, &paged_options()).expect("open paged");
            let engine = engine(paged, threads);
            let result = engine.execute_with(&batch, &options).expect("healthy");
            assert!(result.failures.is_empty(), "{context}");
            assert_bits(&expected, &result.values, &context);
            // Every pair is answered from its pinned rows: no hub is
            // scattered and no run reads its values.
            let page = result.page_cache.expect("paged batch");
            assert!(page.column_runs > 0, "{context}");
            assert_eq!(page.value_reads, 0, "{context}");
            let kernel = result.kernel;
            assert_eq!(kernel.hub_loads, 0, "{context}");
            assert_eq!(kernel.isolated_pairs, pairs.len() as u64, "{context}");
            // A v3 file has no skeleton: nothing is certified.
            assert_eq!(kernel.certified_pairs, 0, "{context}");
        }
    }
}

#[test]
fn value_rot_fails_only_the_pairs_that_read_it() {
    let fixture = fixture();
    let estimator = &fixture.estimator;
    let pairs = &fixture.pairs;
    // A column whose only pair shares no row with it, and a partner `e`
    // from its own rows, which shares at least row `e` with it.
    let (slot, victim) = pairs
        .iter()
        .enumerate()
        .find(|&(_, &(p, q))| !meets(estimator, p, q))
        .map(|(slot, &(p, _))| (slot, p))
        .expect("a disjoint pair");
    let demanded: Vec<usize> = pairs.iter().flat_map(|&(p, q)| [p, q]).collect();
    let partner = rows(estimator, victim)
        .iter()
        .map(|&row| row as usize)
        .find(|&e| e > victim + 1 && demanded.iter().all(|c| c.abs_diff(e) > 1))
        .expect("a meeting partner");
    assert!(meets(estimator, victim, partner));

    let offset = open_paged(&fixture.path, &paged_options())
        .expect("open paged")
        .store
        .column_value_byte_offset(victim)
        + 6;
    let rotten = || {
        let plan = FaultPlan::new(0).poison(offset, 2);
        open_paged_with_faults(&fixture.path, &paged_options(), plan).expect("open paged")
    };

    // The victim's pair shares no row: its values are never read, and the
    // batch is answered whole in both modes.
    let disjoint = node_batch(pairs);
    let expected = arrival_order(&disjoint);
    for threads in [1, 2] {
        for (mode, options) in modes() {
            let context = format!("disjoint, {mode}, {threads} thread(s)");
            let result = engine(rotten(), threads)
                .execute_with(&disjoint, &options)
                .expect("the rotten values are never read");
            assert!(result.failures.is_empty(), "{context}");
            assert_bits(&expected, &result.values, &context);
            let page = result.page_cache.expect("paged batch");
            assert_eq!((page.faulted_reads, page.retries), (0, 0), "{context}");
        }
    }

    // The same batch with the victim paired to a partner it meets: that
    // pair reads the rotten values and fails typed — the batch in
    // fail-fast mode, the pair alone in partial mode.
    let mut meeting = pairs.clone();
    meeting[slot] = (victim, partner);
    let batch = node_batch(&meeting);
    let mut expected = arrival_order(&batch);
    expected[slot] = 0.0;
    for threads in [1, 2] {
        let context = format!("meeting, {threads} thread(s)");
        let abort = engine(rotten(), threads)
            .execute_with(&batch, &ExecOptions::default())
            .expect_err("fail-fast reads the rotten values");
        assert_eq!(failed_column(&abort.error), Some(victim), "{context}");

        let partial = ExecOptions {
            mode: ExecMode::Partial,
            cancel: None,
        };
        let engine = engine(rotten(), threads);
        let result = engine.execute_with(&batch, &partial).expect("partial");
        assert_eq!(result.failures.len(), 1, "{context}: {:?}", result.failures);
        assert_eq!(result.failures[0].0, slot, "{context}");
        assert_eq!(
            failed_column(&result.failures[0].1),
            Some(victim),
            "{context}"
        );
        assert_bits(&expected, &result.values, &context);
        // The rotten values were read once, re-fetched once, and every
        // later ask got the same failure without reading again.
        let page = result.page_cache.expect("paged batch");
        assert_eq!((page.faulted_reads, page.retries), (1, 1), "{context}");
    }
}
