//! Random-projection effective-resistance baseline (WWW'15, reference \[1\]).
//!
//! Spielman–Srivastava observed that `R(p, q) = ‖W^{1/2} B L⁺ (e_p − e_q)‖²`
//! (Eq. (4) of the paper), i.e. the effective resistance is a squared
//! Euclidean distance between columns of the `m × n` matrix `W^{1/2} B L⁺`.
//! By the Johnson–Lindenstrauss lemma those columns can be projected onto
//! `k = O(log m)` dimensions: with `Q ∈ R^{k×m}` a random ±1/√k matrix,
//!
//! ```text
//! R(p, q) ≈ ‖Q W^{1/2} B L⁺ e_p − Q W^{1/2} B L⁺ e_q‖².
//! ```
//!
//! Constructing `Y = Q W^{1/2} B L⁺` requires `k` Laplacian solves; each query
//! is then an `O(k)` distance computation. The original implementation uses a
//! combinatorial-multigrid solver; this reproduction offers either a direct
//! sparse Cholesky solve or incomplete-Cholesky-preconditioned conjugate
//! gradients, which keep the cost structure: `k` Laplacian solves up front.

use crate::error::EffresError;
use effres_graph::laplacian::{edge_weights, grounded_laplacian, incidence_matrix};
use effres_graph::Graph;
use effres_sparse::cg::{pcg, CgOptions};
use effres_sparse::cholesky::CholeskyFactor;
use effres_sparse::ichol::IncompleteCholesky;
use effres_sparse::{amd, Permutation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which Laplacian solver backs the `k` projection solves.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolverKind {
    /// Full sparse Cholesky factorization (factor once, solve `k` times).
    #[default]
    DirectCholesky,
    /// Incomplete-Cholesky-preconditioned conjugate gradients with the given
    /// relative residual tolerance.
    PreconditionedCg {
        /// Relative residual tolerance of each solve.
        tolerance: f64,
    },
}

/// Options of the random-projection estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomProjectionOptions {
    /// Multiplier `c` in `k = ceil(c · ln m)` projected dimensions.
    pub dimension_multiplier: f64,
    /// Minimum number of projected dimensions.
    pub min_dimensions: usize,
    /// Laplacian solver used for the `k` solves.
    pub solver: SolverKind,
    /// Conductance of the implicit ground edge per connected component.
    pub ground_conductance: f64,
    /// Seed of the random projection.
    pub seed: u64,
}

impl Default for RandomProjectionOptions {
    fn default() -> Self {
        RandomProjectionOptions {
            // The Johnson–Lindenstrauss guarantee needs k = O(log m / ε²)
            // dimensions; the WWW'15 implementation the paper benchmarks
            // against targets ε ≈ 0.1–0.3, i.e. hundreds of solves. A
            // multiplier of 32 reproduces that accuracy/effort trade-off.
            dimension_multiplier: 32.0,
            min_dimensions: 64,
            solver: SolverKind::default(),
            ground_conductance: 1.0,
            seed: 1,
        }
    }
}

/// The random-projection effective-resistance estimator of WWW'15.
#[derive(Debug, Clone)]
pub struct RandomProjectionEstimator {
    /// `k × n` projected embedding, stored row-major (`k` rows of length `n`).
    embedding: Vec<Vec<f64>>,
    node_count: usize,
    dimensions: usize,
}

impl RandomProjectionEstimator {
    /// Builds the estimator: draws `Q`, forms `Q W^{1/2} B` and solves `k`
    /// Laplacian systems.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::InvalidConfig`] for invalid options and
    /// [`EffresError::Sparse`] if a solve fails.
    pub fn build(graph: &Graph, options: &RandomProjectionOptions) -> Result<Self, EffresError> {
        if !(options.dimension_multiplier > 0.0) {
            return Err(EffresError::InvalidConfig {
                name: "dimension_multiplier",
                message: "must be positive".to_string(),
            });
        }
        if !(options.ground_conductance > 0.0) {
            return Err(EffresError::InvalidConfig {
                name: "ground_conductance",
                message: "must be positive".to_string(),
            });
        }
        let n = graph.node_count();
        let m = graph.edge_count().max(2);
        let k = ((options.dimension_multiplier * (m as f64).ln()).ceil() as usize)
            .max(options.min_dimensions);
        let lap = grounded_laplacian(graph, options.ground_conductance);
        let incidence = incidence_matrix(graph);
        let weights = edge_weights(graph);
        let sqrt_w: Vec<f64> = weights.iter().map(|w| w.sqrt()).collect();

        let mut rng = StdRng::seed_from_u64(options.seed);
        let scale = 1.0 / (k as f64).sqrt();

        // Prepare the solver.
        let direct = match options.solver {
            SolverKind::DirectCholesky => {
                let perm = amd::amd(&lap).unwrap_or_else(|_| Permutation::identity(n));
                Some(CholeskyFactor::factor_permuted(&lap, perm)?)
            }
            SolverKind::PreconditionedCg { .. } => None,
        };
        let preconditioner = match options.solver {
            SolverKind::PreconditionedCg { .. } => {
                Some(IncompleteCholesky::with_drop_tolerance(&lap, 1e-3)?)
            }
            SolverKind::DirectCholesky => None,
        };

        let mut embedding = Vec::with_capacity(k);
        for _ in 0..k {
            // One row of Q W^{1/2} B: random ±1/√k entries per edge, scattered
            // onto the two endpoint columns of B.
            let mut row = vec![0.0f64; n];
            for (id, e) in graph.edges() {
                let sign = if rng.gen::<bool>() { scale } else { -scale };
                let value = sign * sqrt_w[id];
                row[e.u] += value;
                row[e.v] -= value;
            }
            // Solve L_G y = rowᵀ.
            let y = match (&direct, &preconditioner, options.solver) {
                (Some(chol), _, _) => chol.solve(&row),
                (None, Some(ic), SolverKind::PreconditionedCg { tolerance }) => {
                    let sol = pcg(
                        &lap,
                        &row,
                        ic,
                        CgOptions {
                            tolerance,
                            max_iterations: 20_000,
                        },
                    )?;
                    sol.x
                }
                _ => unreachable!("solver setup covers both variants"),
            };
            embedding.push(y);
        }
        let _ = incidence; // incidence is embodied in the scatter above
        Ok(RandomProjectionEstimator {
            embedding,
            node_count: n,
            dimensions: k,
        })
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of projected dimensions `k`.
    pub fn dimensions(&self) -> usize {
        self.dimensions
    }

    /// Number of stored values in the projection embedding (the `nnz(Q)`
    /// column of Table I counts the dense `k × n` embedding).
    pub fn embedding_nnz(&self) -> usize {
        self.dimensions * self.node_count
    }

    /// `nnz / (n log₂ n)`, comparable to the density column of Table I.
    pub fn nnz_ratio(&self) -> f64 {
        let n = self.node_count.max(2) as f64;
        self.embedding_nnz() as f64 / (n * n.log2())
    }

    /// Approximate effective resistance between `p` and `q`.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] for invalid node indices.
    pub fn query(&self, p: usize, q: usize) -> Result<f64, EffresError> {
        for node in [p, q] {
            if node >= self.node_count {
                return Err(EffresError::NodeOutOfBounds {
                    node,
                    node_count: self.node_count,
                });
            }
        }
        if p == q {
            return Ok(0.0);
        }
        let mut sum = 0.0;
        for row in &self.embedding {
            let d = row[p] - row[q];
            sum += d * d;
        }
        Ok(sum)
    }

    /// Approximate effective resistances for a batch of queries.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by [`RandomProjectionEstimator::query`].
    pub fn query_many(&self, queries: &[(usize, usize)]) -> Result<Vec<f64>, EffresError> {
        queries.iter().map(|&(p, q)| self.query(p, q)).collect()
    }

    /// Approximate effective resistances of every edge of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] if the graph has more nodes
    /// than the estimator.
    pub fn query_all_edges(&self, graph: &Graph) -> Result<Vec<f64>, EffresError> {
        graph.edges().map(|(_, e)| self.query(e.u, e.v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactEffectiveResistance;
    use crate::stats::relative_errors;
    use effres_graph::generators;

    #[test]
    fn approximates_exact_resistances_within_jl_error() {
        let g = generators::grid_2d(8, 8, 1.0, 2.0, 3).expect("valid");
        let exact = ExactEffectiveResistance::build(&g, 1e-6).expect("build");
        let rp = RandomProjectionEstimator::build(
            &g,
            &RandomProjectionOptions {
                dimension_multiplier: 24.0,
                ..RandomProjectionOptions::default()
            },
        )
        .expect("build");
        let queries: Vec<(usize, usize)> = g.edges().map(|(_, e)| (e.u, e.v)).collect();
        let a = rp.query_many(&queries).expect("ok");
        let b = exact.query_many(&queries).expect("ok");
        let (avg, _max) = relative_errors(&a, &b);
        assert!(avg < 0.15, "average relative error {avg} too large");
    }

    #[test]
    fn pcg_solver_matches_direct_solver() {
        let g = generators::grid_2d(6, 6, 1.0, 1.0, 1).expect("valid");
        let direct = RandomProjectionEstimator::build(
            &g,
            &RandomProjectionOptions {
                seed: 7,
                ..RandomProjectionOptions::default()
            },
        )
        .expect("build");
        let iterative = RandomProjectionEstimator::build(
            &g,
            &RandomProjectionOptions {
                seed: 7,
                solver: SolverKind::PreconditionedCg { tolerance: 1e-10 },
                ..RandomProjectionOptions::default()
            },
        )
        .expect("build");
        for &(p, q) in &[(0, 35), (5, 30), (10, 20)] {
            let a = direct.query(p, q).expect("ok");
            let b = iterative.query(p, q).expect("ok");
            assert!((a - b).abs() / a < 1e-6, "({p},{q}): {a} vs {b}");
        }
    }

    #[test]
    fn accuracy_is_worse_than_the_approximate_inverse_method() {
        // The headline claim of the paper: at comparable effort the
        // random-projection estimator is one to two orders of magnitude less
        // accurate than Alg. 3.
        use crate::config::EffresConfig;
        use crate::estimator::EffectiveResistanceEstimator;
        let g = generators::grid_2d(10, 10, 0.5, 1.5, 9).expect("valid");
        let exact = ExactEffectiveResistance::build(&g, 1e-6).expect("build");
        let queries: Vec<(usize, usize)> = g.edges().map(|(_, e)| (e.u, e.v)).collect();
        let truth = exact.query_many(&queries).expect("ok");

        let alg3 =
            EffectiveResistanceEstimator::build(&g, &EffresConfig::default()).expect("build");
        let (avg_alg3, _) = relative_errors(&alg3.query_many(&queries).expect("ok"), &truth);

        let rp = RandomProjectionEstimator::build(&g, &RandomProjectionOptions::default())
            .expect("build");
        let (avg_rp, _) = relative_errors(&rp.query_many(&queries).expect("ok"), &truth);

        assert!(
            avg_alg3 * 5.0 < avg_rp,
            "Alg.3 error {avg_alg3} should be far below projection error {avg_rp}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = generators::random_connected(40, 60, 0.5, 1.5, 4).expect("valid");
        let o = RandomProjectionOptions {
            seed: 99,
            ..RandomProjectionOptions::default()
        };
        let a = RandomProjectionEstimator::build(&g, &o).expect("build");
        let b = RandomProjectionEstimator::build(&g, &o).expect("build");
        assert_eq!(a.query(0, 10).expect("ok"), b.query(0, 10).expect("ok"));
    }

    #[test]
    fn dimension_scaling_follows_log_m() {
        let small = generators::grid_2d(4, 4, 1.0, 1.0, 0).expect("valid");
        let large = generators::grid_2d(20, 20, 1.0, 1.0, 0).expect("valid");
        let o = RandomProjectionOptions {
            min_dimensions: 1,
            ..RandomProjectionOptions::default()
        };
        let ks = RandomProjectionEstimator::build(&small, &o)
            .expect("build")
            .dimensions();
        let kl = RandomProjectionEstimator::build(&large, &o)
            .expect("build")
            .dimensions();
        assert!(kl > ks);
        // 25x more edges should only grow k logarithmically (about +60%).
        assert!(
            (kl as f64) < 2.5 * ks as f64,
            "k should stay logarithmic: {ks} -> {kl}"
        );
    }

    #[test]
    fn invalid_options_and_queries_rejected() {
        let g = generators::grid_2d(3, 3, 1.0, 1.0, 0).expect("valid");
        assert!(RandomProjectionEstimator::build(
            &g,
            &RandomProjectionOptions {
                dimension_multiplier: 0.0,
                ..RandomProjectionOptions::default()
            }
        )
        .is_err());
        let rp = RandomProjectionEstimator::build(&g, &RandomProjectionOptions::default())
            .expect("build");
        assert!(rp.query(0, 50).is_err());
        assert_eq!(rp.query(3, 3).expect("ok"), 0.0);
    }
}
