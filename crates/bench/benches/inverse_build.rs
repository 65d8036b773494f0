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
//! Two ablations of the design choices of Alg. 2 / Alg. 3 ride along: the
//! pruning threshold `ε` (sequential build time against nnz(Z̃), on the same
//! factor) and the fill-reducing ordering applied before the incomplete
//! factorization (build plus all-edge queries under the natural, RCM and
//! minimum-degree orderings, on a small power-grid mesh).
//!
//! Every timed row records the sample count and the spread (`n`, `min`,
//! `median`, `max` seconds over `SAMPLES` runs); speedups compare medians.
//! Besides the human-readable table the bench writes
//! `BENCH_inverse_build.json` at the repository root so the perf trajectory
//! is tracked across PRs, together with the finished arena's bytes. On
//! hosts with a single available core the speedup column degenerates to
//! ~1.0× by construction — the JSON records `hardware_threads` so consumers
//! can tell scheduling overhead from a genuine regression.

use effres::approx_inverse::SparseApproximateInverse;
use effres::{BuildOptions, EffectiveResistanceEstimator, EffresConfig, Ordering};
use effres_bench::report::{write_report, Json, Sample};
use effres_graph::{generators, laplacian::grounded_laplacian};
use effres_sparse::ichol::{IcholOptions, IncompleteCholesky};
use effres_sparse::{amd, LevelSchedule};

const SIDE: usize = 320; // 320 × 320 = 102 400 nodes
const EPSILON: f64 = 1e-3;
const DENSE_COLUMN_THRESHOLD: usize = 4;
const SAMPLES: usize = 5;
/// Runs per ordering of the ordering ablation (each takes milliseconds).
const ORDERING_SAMPLES: usize = 10;

fn main() {
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("== inverse_build ({SIDE}x{SIDE} grid, eps {EPSILON:e}, {hardware} core(s))");

    let graph = generators::grid_2d(SIDE, SIDE, 0.5, 2.0, 7).expect("generator");
    let lap = grounded_laplacian(&graph, 1.0);
    let perm = amd::amd(&lap).expect("amd");
    let ordering = Sample::time(SAMPLES, false, || amd::amd(&lap).expect("amd"));
    println!("ordering (minimum degree): {}", spread(&ordering));
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
    let sequential = Sample::time(SAMPLES, false, || build(&BuildOptions::sequential()));
    let arena_bytes = reference.footprint().total_bytes();
    println!(
        "sequential: {}  (inverse nnz {}, ratio {:.3}, arena {arena_bytes} B)",
        spread(&sequential),
        reference.nnz(),
        reference.nnz_ratio()
    );

    // Ablation of the pruning threshold on the same factor.
    let mut epsilon_reports = Vec::new();
    for epsilon in [1e-2, 1e-3, 1e-4] {
        let mut inverse_nnz = 0;
        let seconds = Sample::time(SAMPLES, false, || {
            let inverse = SparseApproximateInverse::from_factor_with(
                l,
                epsilon,
                DENSE_COLUMN_THRESHOLD,
                &BuildOptions::sequential(),
            )
            .expect("Alg. 2");
            inverse_nnz = inverse.nnz();
            inverse
        });
        println!(
            "eps {epsilon:e}:   {}  (inverse nnz {inverse_nnz})",
            spread(&seconds)
        );
        epsilon_reports.push(Json::Obj(vec![
            ("epsilon", Json::Num(epsilon)),
            ("seconds", seconds.json()),
            ("inverse_nnz", Json::Int(inverse_nnz as u64)),
        ]));
    }

    // Ablation of the fill-reducing ordering: Alg. 3 end to end.
    let mesh = generators::power_grid_mesh(Default::default()).expect("generator");
    let mut ordering_reports = Vec::new();
    for (name, ordering) in [
        ("natural", Ordering::Natural),
        ("rcm", Ordering::Rcm),
        ("min_degree", Ordering::MinimumDegree),
    ] {
        let config = EffresConfig::default().with_ordering(ordering);
        let mut inverse_nnz = 0;
        let seconds = Sample::time(ORDERING_SAMPLES, true, || {
            let estimator = EffectiveResistanceEstimator::build(&mesh, &config).expect("build");
            inverse_nnz = estimator.stats().inverse_nnz;
            estimator.query_all_edges(&mesh).expect("queries")
        });
        println!(
            "ordering {name}: {}  build + {} edge queries (inverse nnz {inverse_nnz})",
            spread(&seconds),
            mesh.edge_count()
        );
        ordering_reports.push(Json::Obj(vec![
            ("ordering", Json::Str(name.to_string())),
            ("seconds", seconds.json()),
            ("inverse_nnz", Json::Int(inverse_nnz as u64)),
        ]));
    }

    // The parallel configurations run the production deployment shape: the
    // factor shared in one Arc (no per-build copy) on a persistent pool
    // reused across every sample.
    let shared = std::sync::Arc::new(l.clone());
    let mut parallel_reports = Vec::new();
    let mut best_speedup = 0.0f64;
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
        let seconds = Sample::time(SAMPLES, false, || build(&options));
        let speedup = sequential.median / seconds.median;
        best_speedup = best_speedup.max(speedup);
        println!(
            "{threads} threads:  {}  speedup {speedup:.2}x  bit-identical yes",
            spread(&seconds)
        );
        parallel_reports.push(Json::Obj(vec![
            ("threads", Json::Int(threads as u64)),
            ("seconds", seconds.json()),
            ("speedup", Json::Num(speedup)),
            ("bit_identical", Json::Bool(bit_identical)),
        ]));
    }

    let body = Json::Obj(vec![
        ("graph", Json::Str(format!("grid_2d_{SIDE}x{SIDE}"))),
        ("nodes", Json::Int((SIDE * SIDE) as u64)),
        ("epsilon", Json::Num(EPSILON)),
        ("ordering", Json::Str("amd".to_string())),
        ("ordering_seconds", ordering.json()),
        ("factor_nnz", Json::Int(l.nnz() as u64)),
        ("inverse_nnz", Json::Int(reference.nnz() as u64)),
        // Bytes of the finished arena (col_ptr + rows + vals), and of its
        // row indices alone (u32 width — half of what a usize-indexed arena
        // would hold on 64-bit hosts).
        ("arena_bytes", Json::Int(arena_bytes as u64)),
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
        ("sequential_seconds", sequential.json()),
        ("parallel", Json::Arr(parallel_reports)),
        ("best_speedup", Json::Num(best_speedup)),
        ("epsilon_ablation", Json::Arr(epsilon_reports)),
        (
            "ordering_ablation",
            Json::Obj(vec![
                ("graph", Json::Str("power_grid_mesh_32x32".to_string())),
                ("nodes", Json::Int(mesh.node_count() as u64)),
                ("edges", Json::Int(mesh.edge_count() as u64)),
                ("rows", Json::Arr(ordering_reports)),
            ]),
        ),
    ]);
    match write_report("inverse_build", body) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}

/// `median [min, max] over n` in seconds, for the human-readable table.
fn spread(sample: &Sample) -> String {
    format!(
        "{:.3}s [{:.3}, {:.3}] over {}",
        sample.median, sample.min, sample.max, sample.n
    )
}
