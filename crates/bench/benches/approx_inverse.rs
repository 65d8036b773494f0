//! Ablation benches for the design choices of Alg. 2 / Alg. 3: the pruning
//! threshold `ε` (size of the approximate inverse vs. construction time) and
//! the fill-reducing ordering applied before the incomplete factorization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use effres::approx_inverse::SparseApproximateInverse;
use effres::prelude::*;
use effres_graph::{generators, laplacian::grounded_laplacian};
use effres_sparse::ichol::IncompleteCholesky;

fn bench_approx_inverse(c: &mut Criterion) {
    let graph = generators::grid_2d(48, 48, 0.5, 2.0, 3).expect("generator");
    let lap = grounded_laplacian(&graph, 1.0);
    let factor = IncompleteCholesky::with_drop_tolerance(&lap, 1e-3)
        .expect("factor")
        .into_factor();

    let mut group = c.benchmark_group("approx_inverse_epsilon");
    group.sample_size(10);
    for &epsilon in &[1e-2, 1e-3, 1e-4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("eps_{epsilon:e}")),
            &epsilon,
            |b, &eps| {
                b.iter(|| SparseApproximateInverse::from_factor(&factor, eps, 4).expect("Alg. 2"))
            },
        );
    }
    group.finish();
}

fn bench_orderings(c: &mut Criterion) {
    // Ablation of the fill-reducing ordering used before the incomplete
    // factorization (RCM is the library default, minimum degree the CLI's):
    // end-to-end Alg. 3 build + all-edge queries under each ordering.
    let graph = generators::power_grid_mesh(Default::default()).expect("generator");
    let mut group = c.benchmark_group("estimator_ordering");
    group.sample_size(10);
    for (name, ordering) in [
        ("natural", Ordering::Natural),
        ("rcm", Ordering::Rcm),
        ("min_degree", Ordering::MinimumDegree),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &ordering, |b, &ord| {
            b.iter(|| {
                let config = EffresConfig::default().with_ordering(ord);
                let est = EffectiveResistanceEstimator::build(&graph, &config).expect("build");
                est.query_all_edges(&graph).expect("queries")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_approx_inverse, bench_orderings);
criterion_main!(benches);
