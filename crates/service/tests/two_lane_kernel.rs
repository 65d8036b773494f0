//! The grouped kernel's two-lane hub path, pinned **bitwise** against the
//! pairwise batch kernel on the resident arena and on a paged store read
//! through pinned pages, with the counters of answering one pair at a time.
//! Runs come in odd and even lengths, with self-pairs and duplicate
//! partners inside them, sorted (the runners' order) and unsorted (where a
//! later, smaller bound forces the hub to re-scatter). The engine's
//! hub-sorted runner feeds the kernel in chunks; a run crossing a chunk
//! boundary must keep both its bits and the counters of one kernel call.

use effres::approx_inverse::SparseApproximateInverse;
use effres::column_store::{
    column_distances_squared_batch, column_distances_squared_grouped, HubScratch, KernelStats,
};
use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::save_snapshot;
use effres_io::PinnedReader;
use effres_service::{EngineOptions, QueryBatch, QueryEngine};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const SIDE: usize = 12;
const NODES: usize = SIDE * SIDE;

fn estimator() -> &'static EffectiveResistanceEstimator {
    static EST: OnceLock<EffectiveResistanceEstimator> = OnceLock::new();
    EST.get_or_init(|| {
        let graph = generators::grid_2d(SIDE, SIDE, 0.5, 2.0, 5).expect("generator");
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build")
    })
}

fn norms() -> &'static [f64] {
    static NORMS: OnceLock<Vec<f64>> = OnceLock::new();
    NORMS.get_or_init(|| estimator().approximate_inverse().column_norms_squared())
}

/// The same estimator served paged: 8-column pages behind a 4-page cache.
fn paged() -> &'static PagedSnapshot {
    static PAGED: OnceLock<PagedSnapshot> = OnceLock::new();
    PAGED.get_or_init(|| {
        let dir = std::env::temp_dir().join("effres-two-lane-kernel");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("grid12.snap");
        save_snapshot(&path, estimator(), None).expect("save");
        let options = PagedOptions {
            columns_per_page: 8,
            cache_pages: 4,
            cache_shards: 1,
            ..PagedOptions::default()
        };
        open_paged(&path, &options).expect("open paged")
    })
}

/// The counters of answering `pairs` one at a time on a fresh scratch —
/// the grouped kernel's hub-or-isolated choice and suffix-bounded scatter,
/// pair by pair — counted from the arena's column entries (12 bytes each).
/// With `skeleton`, an isolated pair walks from where the arena's row-bucket
/// skeleton says its suffixes can first meet (the first 16-row bucket of
/// the larger column that holds a row of the smaller one), or not at all
/// when they share no bucket; without it, from `max(p, q)`.
fn one_at_a_time(
    inverse: &SparseApproximateInverse,
    pairs: &[(usize, usize)],
    skeleton: bool,
) -> KernelStats {
    let bytes_from = |j: usize, bound: usize| {
        let rows = inverse.column(j).indices();
        12 * rows.iter().filter(|&&row| row as usize >= bound).count() as u64
    };
    let meet_from = |lo: usize, hi: usize| {
        if !skeleton {
            return Some(hi);
        }
        let buckets = |j: usize| {
            inverse
                .column(j)
                .indices()
                .iter()
                .map(|&row| row as usize >> 4)
        };
        let mut shared = buckets(lo).filter(|&b| b >= hi >> 4 && buckets(hi).any(|c| c == b));
        shared.next().map(|bucket| (bucket << 4).max(hi))
    };
    let mut stats = KernelStats::default();
    // The resident hub and the first row its scatter covers.
    let mut resident: Option<(usize, usize)> = None;
    for (slot, &(p, q)) in pairs.iter().enumerate() {
        if p == q {
            continue;
        }
        let (hub, partner) = (p.min(q), p.max(q));
        let next_shares = pairs.get(slot + 1).is_some_and(|&(r, s)| r.min(s) == hub);
        if resident.is_some_and(|(h, _)| h == hub) || next_shares {
            if !resident.is_some_and(|(h, from)| h == hub && from <= partner) {
                resident = Some((hub, partner));
                stats.hub_loads += 1;
                stats.bytes_streamed += bytes_from(hub, partner);
            }
            stats.hub_pairs += 1;
            stats.bytes_streamed += bytes_from(partner, partner);
        } else {
            stats.isolated_pairs += 1;
            match meet_from(hub, partner) {
                Some(from) => stats.bytes_streamed += bytes_from(p, from) + bytes_from(q, from),
                None => stats.certified_pairs += 1,
            }
        }
    }
    stats
}

/// Runs of pairs sharing a hub: each run draws partners `hub + offset`
/// (offset 0 is a self-pair; small offsets repeat), in either orientation.
/// Sorted by `(min, max)` the runs are contiguous with ascending bounds;
/// unsorted they keep the drawn partner order.
fn batch_of_runs(runs: &[(usize, Vec<usize>, bool)], sorted: bool) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = runs
        .iter()
        .flat_map(|(hub, offsets, flip)| {
            offsets.iter().map(move |&offset| {
                let partner = (hub + offset).min(NODES - 1);
                if *flip {
                    (partner, *hub)
                } else {
                    (*hub, partner)
                }
            })
        })
        .collect();
    if sorted {
        pairs.sort_unstable_by_key(|&(p, q)| (p.min(q), p.max(q)));
    }
    pairs
}

/// Asserts the grouped kernel on `store` returns the pairwise reference's
/// bits and the one-at-a-time counters, on a fresh scratch. Only the
/// resident arena has a `skeleton`.
fn assert_lanes_exact<S: effres::ColumnStore + ?Sized>(
    store: &S,
    pairs: &[(usize, usize)],
    skeleton: bool,
) -> Result<(), String> {
    let inverse = estimator().approximate_inverse();
    let reference =
        column_distances_squared_batch(inverse, pairs, Some(norms())).expect("resident");
    let mut scratch = HubScratch::new(NODES);
    let grouped = column_distances_squared_grouped(store, pairs, Some(norms()), &mut scratch)
        .map_err(|err| err.to_string())?;
    if reference.len() != grouped.len() {
        return Err(format!(
            "{} answers for {} pairs",
            grouped.len(),
            pairs.len()
        ));
    }
    for (slot, (r, g)) in reference.iter().zip(&grouped).enumerate() {
        if r.to_bits() != g.to_bits() {
            return Err(format!("pair {:?}: {r} vs {g}", pairs[slot]));
        }
    }
    let (got, want) = (
        scratch.take_stats(),
        one_at_a_time(inverse, pairs, skeleton),
    );
    if got != want {
        return Err(format!("counters {got:?}, one at a time {want:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Runs of one to six pairs, sorted and unsorted, on the resident arena
    /// and through a `PinnedReader` that pins every other page (the rest
    /// fall back to the page cache).
    #[test]
    fn two_lane_runs_match_the_pairwise_kernel_bitwise(
        runs in proptest::collection::vec(
            (0usize..NODES, proptest::collection::vec(0usize..24, 1..7), any::<bool>()),
            1..10,
        ),
        sorted in any::<bool>(),
    ) {
        let pairs = batch_of_runs(&runs, sorted);
        let resident = assert_lanes_exact(estimator().approximate_inverse(), &pairs, true);
        prop_assert_eq!(resident, Ok(()));

        let store = &paged().store;
        let even: Vec<usize> = (0..store.page_count()).step_by(2).collect();
        let block = store.pin_pages(&even, None).expect("block pin");
        let window = store.pin_pages(&[1], None).expect("window pin");
        let reader = PinnedReader::new(store, &block, Some(&window));
        prop_assert_eq!(assert_lanes_exact(&reader, &pairs, false), Ok(()));
    }
}

#[test]
fn lane_shapes_keep_bits_and_one_at_a_time_counters() {
    let hub = 20;
    let shapes: [&[(usize, usize)]; 6] = [
        // Even run: two lanes.
        &[(hub, 40), (hub, 41), (hub, 60), (hub, 90)],
        // Odd run: two lanes, then the last pair alone on the resident hub.
        &[(hub, 40), (hub, 41), (hub, 60)],
        // A self-pair inside a run, and a duplicate partner.
        &[(hub, 40), (hub, hub), (hub, 41), (hub, 41), (90, hub)],
        // Unsorted: the second pair's bound is below the scatter, so it
        // cannot ride as a lane and the hub re-scatters from its bound.
        &[(hub, 100), (hub, 50), (hub, 120), (hub, 30)],
        // A pair of a run followed by an isolated pair, then a new run.
        &[(hub, 40), (hub, 41), (3, 7), (50, 51), (51, 50)],
        // An isolated pair, then a run whose hub is the pair's partner.
        &[(10, hub), (hub, 33), (hub, 34)],
    ];
    let store = &paged().store;
    let pages: Vec<usize> = (0..store.page_count()).collect();
    let block = store.pin_pages(&pages[..3], None).expect("block pin");
    let reader = PinnedReader::new(store, &block, None);
    for pairs in shapes {
        assert_eq!(
            assert_lanes_exact(estimator().approximate_inverse(), pairs, true),
            Ok(()),
            "{pairs:?}"
        );
        assert_eq!(
            assert_lanes_exact(&reader, pairs, false),
            Ok(()),
            "{pairs:?}"
        );
    }
    // The unsorted shape re-scatters: three loads for one hub.
    let mut scratch = HubScratch::new(NODES);
    column_distances_squared_grouped(
        estimator().approximate_inverse(),
        shapes[3],
        Some(norms()),
        &mut scratch,
    )
    .expect("resident");
    assert_eq!(scratch.take_stats().hub_loads, 3);
}

/// The engine's hub-sorted runner answers a sorted slice in chunks of 4,096
/// queries. A run placed across that boundary, starting anywhere from three
/// queries before it to its first query after, must come back with the
/// pairwise bits,
/// and a one-job engine must report the counters of one grouped-kernel call
/// over the whole sorted batch — a chunk never ends on a run's first pair.
#[test]
fn runs_across_a_runner_chunk_boundary_keep_bits_and_counters() {
    const CHUNK: usize = 4096;
    let side = 65;
    let graph = generators::grid_2d(side, side, 0.5, 2.0, 9).expect("generator");
    let estimator = Arc::new(
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build"),
    );
    let inverse = estimator.approximate_inverse();
    let norms = estimator.column_norms_squared();
    let permutation = estimator.permutation();
    for start in CHUNK - 3..=CHUNK {
        for run_len in 1..=4 {
            // Permuted pairs in sorted order: single-pair hubs up to
            // `start`, a run of `run_len` pairs on hub `start`, then more
            // single-pair hubs.
            let mut sorted: Vec<(usize, usize)> = (0..start).map(|h| (h, h + 1)).collect();
            sorted.extend((1..=run_len).map(|offset| (start, start + offset)));
            let after = start + run_len + 1;
            sorted.extend((after..after + 16).map(|h| (h, h + 1)));
            let pairwise =
                column_distances_squared_batch(inverse, &sorted, Some(&norms)).expect("resident");
            let mut scratch = HubScratch::new(inverse.order());
            column_distances_squared_grouped(inverse, &sorted, Some(&norms), &mut scratch)
                .expect("resident");
            let batch = QueryBatch::from_pairs(
                sorted
                    .iter()
                    .map(|&(a, b)| (permutation.old(a), permutation.old(b)))
                    .collect(),
            );
            // A fresh engine: a pooled scratch keeps its resident hub
            // across batches, which would save a load the kernel call pays.
            let engine = QueryEngine::new(
                Arc::clone(&estimator),
                EngineOptions {
                    threads: 1,
                    cache_capacity: 0,
                    ..EngineOptions::default()
                },
            );
            let result = engine.execute(&batch).expect("batch");
            for (slot, (p, e)) in pairwise.iter().zip(&result.values).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    e.to_bits(),
                    "start {start} run {run_len} slot {slot}"
                );
            }
            assert_eq!(
                result.kernel,
                scratch.take_stats(),
                "start {start} run {run_len}"
            );
        }
    }
}
