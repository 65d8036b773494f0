//! Approximate-inverse construction: sequential backward sweep vs. the
//! level-scheduled parallel build, on a ≥100k-node grid.
//!
//! This is the acceptance workload of the parallel-build subsystem: build
//! `Z̃` (Alg. 2) for the incomplete Cholesky factor of a 320×320 grid
//! Laplacian under AMD ordering (the ordering the CLI defaults to — its
//! level schedule is wide, which is what the parallel sweep exploits) and
//! compare wall-clock times at 1/2/4/8 worker threads. Every parallel run
//! is verified **bit-identical** to the sequential arena before any timing
//! is reported. The ordering itself is timed too (`ordering_seconds`), since
//! the CLI's build pays for it before the factorization.
//!
//! Besides the human-readable table the bench writes
//! `BENCH_inverse_build.json` at the repository root so the perf trajectory
//! is tracked across PRs. On hosts with a single available core the speedup
//! column degenerates to ~1.0× by construction — the JSON records
//! `hardware_threads` so consumers can tell scheduling overhead from a
//! genuine regression.

use effres::approx_inverse::SparseApproximateInverse;
use effres::BuildOptions;
use effres_bench::report::{min_seconds, write_report, Json};
use effres_graph::{generators, laplacian::grounded_laplacian};
use effres_sparse::ichol::{IcholOptions, IncompleteCholesky};
use effres_sparse::{amd, LevelSchedule};

const SIDE: usize = 320; // 320 × 320 = 102 400 nodes
const EPSILON: f64 = 1e-3;
const DENSE_COLUMN_THRESHOLD: usize = 4;
const SAMPLES: usize = 3;

fn main() {
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("== inverse_build ({SIDE}x{SIDE} grid, eps {EPSILON:e}, {hardware} core(s))");

    let graph = generators::grid_2d(SIDE, SIDE, 0.5, 2.0, 7).expect("generator");
    let lap = grounded_laplacian(&graph, 1.0);
    let perm = amd::amd(&lap).expect("amd");
    let ordering_seconds = min_seconds(SAMPLES, false, || amd::amd(&lap).expect("amd"));
    println!("ordering (minimum degree): {ordering_seconds:.3}s");
    let permuted = lap.permute_symmetric(&perm).expect("permute");
    let factor = IncompleteCholesky::factor(
        &permuted,
        IcholOptions {
            drop_tolerance: 1e-3,
            ..IcholOptions::default()
        },
    )
    .expect("factor");
    let l = factor.factor_l();
    let schedule = LevelSchedule::from_lower_factor(l);
    println!(
        "factor: {} nnz; schedule: {} levels, mean width {:.1}, max width {}",
        l.nnz(),
        schedule.num_levels(),
        schedule.mean_width(),
        schedule.max_width()
    );

    let build = |options: &BuildOptions| {
        SparseApproximateInverse::from_factor_with(l, EPSILON, DENSE_COLUMN_THRESHOLD, options)
            .expect("Alg. 2")
    };
    let reference = build(&BuildOptions::sequential());
    let sequential_seconds = min_seconds(SAMPLES, false, || build(&BuildOptions::sequential()));
    println!(
        "sequential: {sequential_seconds:.3}s  (inverse nnz {}, ratio {:.3})",
        reference.nnz(),
        reference.nnz_ratio()
    );

    // The parallel configurations run the production deployment shape: the
    // factor shared in one Arc (no per-build copy) on a persistent pool
    // reused across every sample.
    let shared = std::sync::Arc::new(l.clone());
    let mut parallel_reports = Vec::new();
    let mut best_speedup = 1.0f64;
    for threads in [2usize, 4, 8] {
        let pool = effres_sparse::WorkerPool::new(threads);
        let options = BuildOptions {
            threads,
            ..BuildOptions::default()
        };
        let build = |options: &BuildOptions| {
            SparseApproximateInverse::from_factor_shared(
                std::sync::Arc::clone(&shared),
                EPSILON,
                DENSE_COLUMN_THRESHOLD,
                options,
                Some(&pool),
            )
            .expect("Alg. 2")
        };
        let candidate = build(&options);
        let bit_identical = candidate.col_ptr() == reference.col_ptr()
            && candidate.arena_rows() == reference.arena_rows()
            && candidate
                .arena_values()
                .iter()
                .zip(reference.arena_values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            bit_identical,
            "{threads}-thread build is not bit-identical to the sequential build"
        );
        let seconds = min_seconds(SAMPLES, false, || build(&options));
        let speedup = sequential_seconds / seconds;
        best_speedup = best_speedup.max(speedup);
        println!("{threads} threads:  {seconds:.3}s  speedup {speedup:.2}x  bit-identical yes");
        parallel_reports.push(Json::Obj(vec![
            ("threads", Json::Int(threads as u64)),
            ("seconds", Json::Num(seconds)),
            ("speedup", Json::Num(speedup)),
            ("bit_identical", Json::Bool(bit_identical)),
        ]));
    }

    let body = Json::Obj(vec![
        ("graph", Json::Str(format!("grid_2d_{SIDE}x{SIDE}"))),
        ("nodes", Json::Int((SIDE * SIDE) as u64)),
        ("epsilon", Json::Num(EPSILON)),
        ("ordering", Json::Str("amd".to_string())),
        ("ordering_seconds", Json::Num(ordering_seconds)),
        ("factor_nnz", Json::Int(l.nnz() as u64)),
        ("inverse_nnz", Json::Int(reference.nnz() as u64)),
        // Bytes of row indices in the finished arena (u32 width — half of
        // what a usize-indexed arena would hold on 64-bit hosts).
        (
            "arena_index_bytes",
            Json::Int(reference.footprint().rows_bytes as u64),
        ),
        (
            "arena_index_width_bytes",
            Json::Int(reference.footprint().index_width_bytes as u64),
        ),
        ("schedule_levels", Json::Int(schedule.num_levels() as u64)),
        ("schedule_mean_width", Json::Num(schedule.mean_width())),
        ("hardware_threads", Json::Int(hardware as u64)),
        ("samples", Json::Int(SAMPLES as u64)),
        ("sequential_seconds", Json::Num(sequential_seconds)),
        ("parallel", Json::Arr(parallel_reports)),
        ("best_speedup", Json::Num(best_speedup)),
    ]);
    match write_report("inverse_build", body) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
