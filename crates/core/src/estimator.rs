//! The end-to-end effective-resistance estimator (Alg. 3 of the paper).
//!
//! The pipeline is:
//!
//! 1. build the grounded Laplacian of the graph;
//! 2. apply a fill-reducing ordering;
//! 3. compute an incomplete Cholesky factorization `L Lᵀ ≈ P L_G Pᵀ` with a
//!    drop tolerance (1e-3 in the paper's experiments);
//! 4. run Alg. 2 to obtain the sparse approximate inverse `Z̃ ≈ L⁻¹`;
//! 5. answer each query `(p, q)` as `R(p, q) ≈ ‖z̃_{π(p)} − z̃_{π(q)}‖²`.

use crate::approx_inverse::SparseApproximateInverse;
use crate::column_store::{column_distances_squared_grouped, HubScratch};
use crate::config::{EffresConfig, Ordering};
use crate::depth::FilledGraphDepth;
use crate::error::EffresError;
use effres_graph::laplacian::grounded_laplacian;
use effres_graph::Graph;
use effres_sparse::ichol::{IcholOptions, IncompleteCholesky};
use effres_sparse::{amd, rcm, CscMatrix, Permutation};

/// Summary of the data structures built by the estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorStats {
    /// Number of nodes.
    pub node_count: usize,
    /// Nonzeros in the incomplete Cholesky factor.
    pub factor_nnz: usize,
    /// Nonzeros in the approximate inverse `Z̃`.
    pub inverse_nnz: usize,
    /// `nnz(Z̃) / (n log₂ n)` — the density column of Table I.
    pub inverse_nnz_ratio: f64,
    /// Maximum filled-graph depth (the `dpt` column of Table I).
    pub max_depth: usize,
    /// Entries dropped by the incomplete factorization.
    pub ichol_dropped: usize,
    /// Entries pruned by Alg. 2.
    pub pruned_entries: usize,
}

/// Effective-resistance estimator based on the sparse approximate inverse of
/// the (incomplete) Cholesky factor.
#[derive(Debug, Clone)]
pub struct EffectiveResistanceEstimator {
    inverse: SparseApproximateInverse,
    permutation: Permutation,
    stats: EstimatorStats,
    /// Memoized `‖z̃_j‖²` table (permuted domain). Computed lazily on first
    /// use, or primed from a snapshot's persisted norms block — the two are
    /// bit-identical because the snapshot writer sums in the same index
    /// order. `Arc`-shared so query engines borrow the one copy instead of
    /// cloning `8n` bytes per consumer.
    norms: std::sync::OnceLock<std::sync::Arc<Vec<f64>>>,
}

impl EffectiveResistanceEstimator {
    /// Builds the estimator for a weighted undirected graph (Alg. 3, steps 1–2).
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::InvalidConfig`] for invalid configuration and
    /// [`EffresError::Sparse`] if a factorization step fails.
    pub fn build(graph: &Graph, config: &EffresConfig) -> Result<Self, EffresError> {
        config.validate()?;
        let lap = grounded_laplacian(graph, config.ground_conductance);
        Self::build_from_laplacian(&lap, config)
    }

    /// Builds the estimator from an already-grounded SDD matrix (used by the
    /// power-grid reduction flow, whose reduced blocks are conductance
    /// matrices rather than graphs).
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::InvalidConfig`] for invalid configuration and
    /// [`EffresError::Sparse`] if a factorization step fails.
    pub fn build_from_laplacian(
        matrix: &CscMatrix,
        config: &EffresConfig,
    ) -> Result<Self, EffresError> {
        config.validate()?;
        let permutation = match config.ordering {
            Ordering::Natural => Permutation::identity(matrix.ncols()),
            Ordering::Rcm => rcm::rcm(matrix)?,
            Ordering::MinimumDegree => amd::amd(matrix)?,
        };
        let permuted = if permutation.is_identity() {
            matrix.clone()
        } else {
            matrix.permute_symmetric(&permutation)?
        };
        let ichol = IncompleteCholesky::factor(
            &permuted,
            IcholOptions {
                drop_tolerance: config.drop_tolerance,
                ..IcholOptions::default()
            },
        )?;
        let factor_nnz = ichol.nnz();
        let ichol_dropped = ichol.stats().dropped;
        // Hand the factor to the build as an owned Arc: the level-scheduled
        // sweep runs on persistent pool workers (the config's shared pool
        // when set), and shared ownership lets it do so without copying the
        // factor.
        let factor = std::sync::Arc::new(ichol.into_factor());
        let depth = FilledGraphDepth::from_factor(&factor);
        let inverse = SparseApproximateInverse::from_factor_shared(
            factor,
            config.epsilon,
            config.dense_column_threshold,
            &config.build,
            config.worker_pool.as_ref(),
        )?;
        let stats = EstimatorStats {
            node_count: matrix.ncols(),
            factor_nnz,
            inverse_nnz: inverse.nnz(),
            inverse_nnz_ratio: inverse.nnz_ratio(),
            max_depth: depth.max_depth(),
            ichol_dropped,
            pruned_entries: inverse.stats().pruned_entries,
        };
        Ok(EffectiveResistanceEstimator {
            inverse,
            permutation,
            stats,
            norms: std::sync::OnceLock::new(),
        })
    }

    /// Number of nodes covered by the estimator.
    pub fn node_count(&self) -> usize {
        self.stats.node_count
    }

    /// Build statistics (factor size, inverse size, maximum depth, ...).
    pub fn stats(&self) -> EstimatorStats {
        self.stats
    }

    /// Approximate effective resistance between `p` and `q` (Eq. (22)).
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] for invalid node indices.
    pub fn query(&self, p: usize, q: usize) -> Result<f64, EffresError> {
        self.check(p)?;
        self.check(q)?;
        if p == q {
            return Ok(0.0);
        }
        let pp = self.permutation.new(p);
        let qq = self.permutation.new(q);
        Ok(self.inverse.column_distance_squared(pp, qq))
    }

    /// Approximate effective resistances for a batch of queries.
    ///
    /// Every node index is validated *before* any resistance is computed, so
    /// a malformed pair deep inside a large batch fails fast instead of
    /// wasting work (or panicking mid-batch); `p == q` pairs short-circuit
    /// to `0.0`.
    ///
    /// The batch is answered by the grouped multi-pair kernel
    /// ([`crate::column_store::column_distances_squared_grouped`]): pairs
    /// are sorted by their (permuted) endpoints so queries sharing a column
    /// stream that column's rows/vals once, and each pair is evaluated with
    /// the memoized norm table. Answers are returned in the caller's order.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] naming the first invalid
    /// node; in that case no query has been evaluated.
    pub fn query_many(&self, queries: &[(usize, usize)]) -> Result<Vec<f64>, EffresError> {
        for &(p, q) in queries {
            self.check(p)?;
            self.check(q)?;
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        // Permute and normalize to (min, max) endpoints, then sort so every
        // cluster sharing a smaller endpoint becomes one hub run.
        let permuted: Vec<(usize, usize)> = queries
            .iter()
            .map(|&(p, q)| {
                let pp = self.permutation.new(p);
                let qq = self.permutation.new(q);
                (pp.min(qq), pp.max(qq))
            })
            .collect();
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&slot| permuted[slot]);
        let sorted: Vec<(usize, usize)> = order.iter().map(|&slot| permuted[slot]).collect();
        let norms = self.column_norms_shared();
        let mut scratch = HubScratch::new(self.inverse.order());
        let values =
            column_distances_squared_grouped(&self.inverse, &sorted, Some(&norms), &mut scratch)?;
        let mut out = vec![0.0; queries.len()];
        for (&slot, value) in order.iter().zip(values) {
            out[slot] = value;
        }
        Ok(out)
    }

    /// Approximate effective resistances of every edge of `graph`, in edge-id
    /// order. This is the `Q_r = E` workload of Table I, and it runs on the
    /// same grouped multi-pair kernel as
    /// [`EffectiveResistanceEstimator::query_many`] — all-edges batches are
    /// exactly the hub-heavy workload the kernel amortizes best.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] — detected up front, before
    /// any query runs — if the graph has more nodes than the estimator.
    pub fn query_all_edges(&self, graph: &Graph) -> Result<Vec<f64>, EffresError> {
        if graph.node_count() > self.stats.node_count {
            return Err(EffresError::NodeOutOfBounds {
                node: graph.node_count() - 1,
                node_count: self.stats.node_count,
            });
        }
        let pairs: Vec<(usize, usize)> = graph.edges().map(|(_, e)| (e.u, e.v)).collect();
        self.query_many(&pairs)
    }

    /// Approximate effective resistance using squared column norms
    /// precomputed by [`EffectiveResistanceEstimator::column_norms_squared`].
    /// This halves the per-query sparse work and is the kernel the
    /// `effres-service` query engine runs on its hot path.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] for invalid node indices.
    pub fn query_with_norms(
        &self,
        p: usize,
        q: usize,
        norms_squared: &[f64],
    ) -> Result<f64, EffresError> {
        self.check(p)?;
        self.check(q)?;
        if p == q {
            return Ok(0.0);
        }
        let pp = self.permutation.new(p);
        let qq = self.permutation.new(q);
        Ok(self
            .inverse
            .column_distance_squared_with_norms(pp, qq, norms_squared))
    }

    /// Squared Euclidean norms of the approximate-inverse columns, indexed in
    /// the *permuted* domain expected by
    /// [`EffectiveResistanceEstimator::query_with_norms`].
    ///
    /// The table is memoized: the first call sweeps the arena once (or uses
    /// a table primed from a snapshot's persisted norms block via
    /// [`EffectiveResistanceEstimator::prime_column_norms`]); later calls
    /// clone the cached table.
    pub fn column_norms_squared(&self) -> Vec<f64> {
        self.column_norms_shared().to_vec()
    }

    /// The memoized table behind a shared handle: consumers that keep the
    /// table around (query engines) clone the `Arc`, not the `8n` bytes.
    pub fn column_norms_shared(&self) -> std::sync::Arc<Vec<f64>> {
        std::sync::Arc::clone(
            self.norms
                .get_or_init(|| std::sync::Arc::new(self.inverse.column_norms_squared())),
        )
    }

    /// The memoized `‖z̃_j‖²` table, if it has been computed or primed.
    pub fn cached_column_norms(&self) -> Option<&[f64]> {
        self.norms.get().map(|table| table.as_slice())
    }

    /// Primes the memoized norm table with values derived at snapshot write
    /// time, so loading skips the full arena sweep. The caller asserts the
    /// table was produced by summing `v·v` over each column in index order
    /// (the snapshot writer does exactly that, making the primed table
    /// bit-identical to a recomputed one). A table that is already cached is
    /// left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::InvalidConfig`] if the table length disagrees
    /// with the node count or contains a non-finite entry.
    pub fn prime_column_norms(&self, norms: Vec<f64>) -> Result<(), EffresError> {
        if norms.len() != self.stats.node_count {
            return Err(EffresError::InvalidConfig {
                name: "norms",
                message: format!(
                    "norm table has {} entries for {} nodes",
                    norms.len(),
                    self.stats.node_count
                ),
            });
        }
        if !norms.iter().all(|v| v.is_finite() && *v >= 0.0) {
            return Err(EffresError::InvalidConfig {
                name: "norms",
                message: "norm table contains a non-finite or negative entry".to_string(),
            });
        }
        // Lost race / already computed: the resident table wins.
        let _ = self.norms.set(std::sync::Arc::new(norms));
        Ok(())
    }

    /// Access to the underlying approximate inverse (for diagnostics).
    pub fn approximate_inverse(&self) -> &SparseApproximateInverse {
        &self.inverse
    }

    /// The fill-reducing permutation applied before factorization (maps
    /// original node ids to the row/column order of the approximate inverse).
    pub fn permutation(&self) -> &Permutation {
        &self.permutation
    }

    /// Reassembles an estimator from parts produced by a snapshot (see the
    /// `effres-io` crate): the approximate inverse, the fill-reducing
    /// permutation and the recorded build statistics.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::InvalidConfig`] if the permutation length, the
    /// inverse order and `stats.node_count` disagree.
    pub fn from_parts(
        inverse: SparseApproximateInverse,
        permutation: Permutation,
        stats: EstimatorStats,
    ) -> Result<Self, EffresError> {
        if permutation.len() != inverse.order() || stats.node_count != inverse.order() {
            return Err(EffresError::InvalidConfig {
                name: "snapshot",
                message: format!(
                    "inconsistent sizes: inverse order {}, permutation length {}, recorded node count {}",
                    inverse.order(),
                    permutation.len(),
                    stats.node_count
                ),
            });
        }
        Ok(EffectiveResistanceEstimator {
            inverse,
            permutation,
            stats,
            norms: std::sync::OnceLock::new(),
        })
    }

    fn check(&self, node: usize) -> Result<(), EffresError> {
        if node >= self.stats.node_count {
            Err(EffresError::NodeOutOfBounds {
                node,
                node_count: self.stats.node_count,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactEffectiveResistance;
    use crate::stats::relative_errors;
    use effres_graph::generators;

    fn build_pair(
        graph: &Graph,
        config: &EffresConfig,
    ) -> (EffectiveResistanceEstimator, ExactEffectiveResistance) {
        let approx = EffectiveResistanceEstimator::build(graph, config).expect("build");
        let exact =
            ExactEffectiveResistance::build(graph, config.ground_conductance).expect("build");
        (approx, exact)
    }

    #[test]
    fn matches_exact_on_small_mesh() {
        let g = generators::grid_2d(10, 10, 0.5, 2.0, 11).expect("valid");
        let config = EffresConfig::default();
        let (approx, exact) = build_pair(&g, &config);
        let queries: Vec<(usize, usize)> = g.edges().map(|(_, e)| (e.u, e.v)).collect();
        let a = approx.query_many(&queries).expect("in bounds");
        let b = exact.query_many(&queries).expect("in bounds");
        let (avg, max) = relative_errors(&a, &b);
        assert!(avg < 1e-2, "average relative error {avg}");
        assert!(max < 1e-1, "max relative error {max}");
    }

    #[test]
    fn matches_exact_on_social_like_graph() {
        let g = generators::preferential_attachment(300, 3, 0.5, 1.5, 2).expect("valid");
        let config = EffresConfig::default();
        let (approx, exact) = build_pair(&g, &config);
        let queries: Vec<(usize, usize)> = g.edges().map(|(_, e)| (e.u, e.v)).take(200).collect();
        let a = approx.query_many(&queries).expect("in bounds");
        let b = exact.query_many(&queries).expect("in bounds");
        let (avg, max) = relative_errors(&a, &b);
        assert!(avg < 2e-2, "average relative error {avg}");
        assert!(max < 2e-1, "max relative error {max}");
    }

    #[test]
    fn error_scales_roughly_linearly_with_epsilon() {
        // Eq. (26): the relative error is bounded by alpha * epsilon, so
        // shrinking epsilon by 100x should shrink the observed error by a
        // comparable factor (we allow slack because the bound is not tight).
        let g = generators::grid_2d(12, 12, 1.0, 1.0, 3).expect("valid");
        let queries: Vec<(usize, usize)> = g.edges().map(|(_, e)| (e.u, e.v)).collect();
        let exact = ExactEffectiveResistance::build(&g, 1e-6).expect("build");
        let truth = exact.query_many(&queries).expect("in bounds");
        // Use exact factorization (drop tolerance 0) to isolate the epsilon error.
        let loose_cfg = EffresConfig::default()
            .with_drop_tolerance(0.0)
            .with_epsilon(1e-2);
        let tight_cfg = EffresConfig::default()
            .with_drop_tolerance(0.0)
            .with_epsilon(1e-4);
        let loose = EffectiveResistanceEstimator::build(&g, &loose_cfg).expect("build");
        let tight = EffectiveResistanceEstimator::build(&g, &tight_cfg).expect("build");
        let (avg_loose, _) = relative_errors(&loose.query_many(&queries).expect("ok"), &truth);
        let (avg_tight, _) = relative_errors(&tight.query_many(&queries).expect("ok"), &truth);
        assert!(
            avg_tight < avg_loose / 5.0,
            "tight {avg_tight} not much better than loose {avg_loose}"
        );
    }

    #[test]
    fn zero_epsilon_and_zero_drop_is_exact() {
        let g = generators::random_connected(60, 80, 0.5, 2.0, 7).expect("valid");
        let cfg = EffresConfig::default()
            .with_drop_tolerance(0.0)
            .with_epsilon(0.0);
        let (approx, exact) = build_pair(&g, &cfg);
        for &(p, q) in &[(0, 59), (5, 40), (13, 27)] {
            let a = approx.query(p, q).expect("in bounds");
            let b = exact.query(p, q).expect("in bounds");
            assert!((a - b).abs() / b < 1e-9, "({p},{q}): {a} vs {b}");
        }
    }

    #[test]
    fn orderings_give_consistent_results() {
        let g = generators::grid_2d(8, 8, 1.0, 2.0, 5).expect("valid");
        let exact = ExactEffectiveResistance::build(&g, 1e-6).expect("build");
        for ordering in [Ordering::Natural, Ordering::Rcm, Ordering::MinimumDegree] {
            let cfg = EffresConfig::default().with_ordering(ordering);
            let approx = EffectiveResistanceEstimator::build(&g, &cfg).expect("build");
            let a = approx.query(0, 63).expect("in bounds");
            let b = exact.query(0, 63).expect("in bounds");
            assert!((a - b).abs() / b < 0.1, "{ordering:?}: {a} vs {b}");
        }
    }

    #[test]
    fn symmetry_and_identity_of_queries() {
        let g = generators::grid_2d(6, 6, 1.0, 1.0, 0).expect("valid");
        let approx =
            EffectiveResistanceEstimator::build(&g, &EffresConfig::default()).expect("build");
        assert_eq!(approx.query(4, 4).expect("in bounds"), 0.0);
        let a = approx.query(2, 30).expect("in bounds");
        let b = approx.query(30, 2).expect("in bounds");
        assert!((a - b).abs() < 1e-14);
    }

    #[test]
    fn stats_are_populated() {
        let g = generators::grid_2d(12, 12, 1.0, 1.0, 0).expect("valid");
        let approx =
            EffectiveResistanceEstimator::build(&g, &EffresConfig::default()).expect("build");
        let s = approx.stats();
        assert_eq!(s.node_count, 144);
        assert!(s.factor_nnz >= 144);
        assert!(s.inverse_nnz >= 144);
        assert!(s.max_depth > 0);
        assert!(s.inverse_nnz_ratio > 0.0);
    }

    #[test]
    fn out_of_bounds_and_bad_config_rejected() {
        let g = generators::grid_2d(3, 3, 1.0, 1.0, 0).expect("valid");
        let approx =
            EffectiveResistanceEstimator::build(&g, &EffresConfig::default()).expect("build");
        assert!(approx.query(0, 100).is_err());
        assert!(EffectiveResistanceEstimator::build(
            &g,
            &EffresConfig::default().with_epsilon(2.0)
        )
        .is_err());
    }

    #[test]
    fn query_many_validates_the_whole_batch_up_front() {
        let g = generators::grid_2d(4, 4, 1.0, 1.0, 0).expect("valid");
        let approx =
            EffectiveResistanceEstimator::build(&g, &EffresConfig::default()).expect("build");
        // A bad pair deep in the batch fails the whole call...
        let batch = vec![(0, 1), (2, 3), (1, 999), (4, 5)];
        assert!(matches!(
            approx.query_many(&batch),
            Err(EffresError::NodeOutOfBounds { node: 999, .. })
        ));
        // ...while p == q pairs short-circuit to exactly 0.
        let values = approx
            .query_many(&[(7, 7), (0, 15), (3, 3)])
            .expect("valid");
        assert_eq!(values[0], 0.0);
        assert_eq!(values[2], 0.0);
        assert!(values[1] > 0.0);
    }

    #[test]
    fn query_all_edges_rejects_oversized_graphs_up_front() {
        let small = generators::grid_2d(3, 3, 1.0, 1.0, 0).expect("valid");
        let approx =
            EffectiveResistanceEstimator::build(&small, &EffresConfig::default()).expect("build");
        let big = generators::grid_2d(4, 4, 1.0, 1.0, 0).expect("valid");
        assert!(matches!(
            approx.query_all_edges(&big),
            Err(EffresError::NodeOutOfBounds { .. })
        ));
        assert_eq!(
            approx.query_all_edges(&small).expect("valid").len(),
            small.edge_count()
        );
    }

    #[test]
    fn query_with_norms_matches_plain_query() {
        let g = generators::grid_2d(8, 8, 0.5, 2.0, 1).expect("valid");
        let approx =
            EffectiveResistanceEstimator::build(&g, &EffresConfig::default()).expect("build");
        let norms = approx.column_norms_squared();
        for &(p, q) in &[(0, 63), (5, 40), (13, 27), (9, 9)] {
            let a = approx.query(p, q).expect("in bounds");
            let b = approx.query_with_norms(p, q, &norms).expect("in bounds");
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "({p},{q}): {a} vs {b}"
            );
        }
        assert!(approx.query_with_norms(0, 999, &norms).is_err());
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let g = generators::grid_2d(6, 6, 1.0, 1.0, 2).expect("valid");
        let approx =
            EffectiveResistanceEstimator::build(&g, &EffresConfig::default()).expect("build");
        let rebuilt = EffectiveResistanceEstimator::from_parts(
            approx.approximate_inverse().clone(),
            approx.permutation().clone(),
            approx.stats(),
        )
        .expect("consistent parts");
        assert_eq!(
            rebuilt.query(0, 35).expect("in bounds"),
            approx.query(0, 35).expect("in bounds")
        );
        // Mismatched permutation length must be rejected.
        let bad = EffectiveResistanceEstimator::from_parts(
            approx.approximate_inverse().clone(),
            effres_sparse::Permutation::identity(3),
            approx.stats(),
        );
        assert!(matches!(bad, Err(EffresError::InvalidConfig { .. })));
    }

    #[test]
    fn norm_table_is_memoized_and_primable() {
        let g = generators::grid_2d(8, 8, 0.5, 2.0, 3).expect("valid");
        let approx =
            EffectiveResistanceEstimator::build(&g, &EffresConfig::default()).expect("build");
        assert!(approx.cached_column_norms().is_none());
        let computed = approx.column_norms_squared();
        assert_eq!(approx.cached_column_norms(), Some(computed.as_slice()));

        // Priming a fresh estimator with a write-time table short-circuits
        // the arena sweep but must serve the same bits.
        let fresh = EffectiveResistanceEstimator::from_parts(
            approx.approximate_inverse().clone(),
            approx.permutation().clone(),
            approx.stats(),
        )
        .expect("consistent parts");
        fresh
            .prime_column_norms(computed.clone())
            .expect("valid table");
        let primed = fresh.column_norms_squared();
        assert!(computed
            .iter()
            .zip(&primed)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        for &(p, q) in &[(0, 63), (5, 40), (13, 27)] {
            assert_eq!(
                approx
                    .query_with_norms(p, q, &computed)
                    .expect("in bounds")
                    .to_bits(),
                fresh
                    .query_with_norms(p, q, &primed)
                    .expect("in bounds")
                    .to_bits()
            );
        }

        // Hostile tables are rejected.
        assert!(fresh.prime_column_norms(vec![1.0; 3]).is_err());
        let mut bad = computed.clone();
        bad[0] = f64::NAN;
        assert!(approx.prime_column_norms(bad).is_err());
        // An already-cached table is left untouched by a later prime.
        fresh
            .prime_column_norms(vec![0.0; fresh.node_count()])
            .expect("valid shape");
        assert_eq!(fresh.cached_column_norms(), Some(primed.as_slice()));
    }

    #[test]
    fn disconnected_graphs_are_supported() {
        // Two disjoint squares; queries within a component behave normally.
        let mut g = Graph::new(8);
        for &(u, v) in &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
        ] {
            g.add_edge(u, v, 1.0).expect("valid");
        }
        let approx =
            EffectiveResistanceEstimator::build(&g, &EffresConfig::default()).expect("build");
        let exact = ExactEffectiveResistance::build(&g, 1e-6).expect("build");
        let a = approx.query(0, 2).expect("in bounds");
        let b = exact.query(0, 2).expect("in bounds");
        assert!((a - b).abs() / b < 0.05);
    }
}
