//! Configuration of the effective-resistance estimator.

use crate::error::EffresError;
use effres_sparse::WorkerPool;

/// Fill-reducing ordering applied before factoring the grounded Laplacian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Natural ordering (no permutation).
    Natural,
    /// Reverse Cuthill–McKee: cheap, effective on mesh-like graphs.
    #[default]
    Rcm,
    /// Minimum degree: better fill reduction on irregular graphs at a higher
    /// ordering cost — on a 320 × 320 grid (102,400 nodes) about 0.5 s
    /// against 0.03 s for RCM, measured on one core of a 2-core Xeon.
    MinimumDegree,
}

/// Knobs of the approximate-inverse construction (Alg. 2), independent of
/// the numerical parameters: how the backward column sweep is executed.
///
/// The parallel build partitions each level of the factor's
/// [`effres_sparse::LevelSchedule`] across the workers of a persistent
/// [`effres_sparse::WorkerPool`] (a shared one when configured, a transient
/// one otherwise). It is
/// **bit-identical** to the sequential build — every column is assembled
/// from the same already-pruned columns with the same floating-point
/// operation order — so these options trade wall-clock time only, never
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Worker threads for the level-scheduled build; `0` means one per
    /// available core, `1` forces the sequential path.
    pub threads: usize,
    /// Factors with fewer columns than this run sequentially regardless of
    /// `threads`: spawning and synchronizing workers costs more than the
    /// sweep itself on small problems.
    pub parallel_threshold: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            threads: 0,
            parallel_threshold: 1 << 12,
        }
    }
}

impl BuildOptions {
    /// Options forcing the sequential reference path.
    pub fn sequential() -> Self {
        BuildOptions {
            threads: 1,
            ..BuildOptions::default()
        }
    }

    /// Sets the worker-thread count (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Configuration of [`crate::EffectiveResistanceEstimator`] (Alg. 3).
///
/// The defaults reproduce the parameters of the paper's experiments:
/// incomplete-Cholesky drop tolerance `1e-3` and pruning threshold
/// `epsilon = 1e-3`.
#[derive(Debug, Clone, PartialEq)]
pub struct EffresConfig {
    /// Drop tolerance of the incomplete Cholesky factorization (Section III-C).
    pub drop_tolerance: f64,
    /// Column pruning threshold `ε` of Alg. 2: each approximate column
    /// satisfies `‖z̃_j − z*_j‖₁ ≤ ε · ‖z*_j‖₁`.
    pub epsilon: f64,
    /// Conductance of the implicit ground edge added to one node per
    /// connected component (Section II-A).
    ///
    /// Because the net current of every effective-resistance query is zero,
    /// the computed resistance is independent of this value; choosing a
    /// conductance comparable to the edge weights (the default of `1.0`)
    /// keeps the columns of `L⁻¹` well scaled, which is what makes the
    /// `ε`-pruning of Alg. 2 accurate.
    pub ground_conductance: f64,
    /// Fill-reducing ordering.
    pub ordering: Ordering,
    /// Columns with at most `max(dense_column_threshold, log n)` nonzeros are
    /// kept exactly (step 3 of Alg. 2). The paper uses `log n`; the floor lets
    /// tiny graphs behave sensibly.
    pub dense_column_threshold: usize,
    /// Execution options of the approximate-inverse build (thread count and
    /// the sequential-fallback threshold). Results are bit-identical across
    /// all settings.
    pub build: BuildOptions,
    /// A persistent [`WorkerPool`] for the level-scheduled build. `None`
    /// (the default) spawns a transient pool per parallel build; a
    /// build-then-serve deployment sets a shared pool here (and on the query
    /// engine's options) so both stages reuse one set of workers instead of
    /// churning threads. Two configs compare equal on this field iff they
    /// share the *same* pool. Results are bit-identical either way.
    pub worker_pool: Option<WorkerPool>,
    /// Decoded-page budget of a *paged* (out-of-core) column store, in
    /// pages, when the deployment serves straight from a v3 or v4 snapshot file
    /// and its persisted norm table instead of a resident arena
    /// (`effres_io::PagedColumnStore`, `effres-cli --paged`). Resident
    /// serving ignores it. Carried here so a build-then-serve deployment
    /// configures both stages from one config; answers are bit-identical
    /// for every cache size — the knob trades disk reads only.
    pub page_cache_pages: usize,
}

impl Default for EffresConfig {
    fn default() -> Self {
        EffresConfig {
            drop_tolerance: 1e-3,
            epsilon: 1e-3,
            ground_conductance: 1.0,
            ordering: Ordering::default(),
            dense_column_threshold: 4,
            build: BuildOptions::default(),
            worker_pool: None,
            page_cache_pages: DEFAULT_PAGE_CACHE_PAGES,
        }
    }
}

/// Default decoded-page budget of a paged column store (see
/// [`EffresConfig::page_cache_pages`]): with the default page geometry of 64
/// columns per page this keeps the hot ~65k columns resident.
pub const DEFAULT_PAGE_CACHE_PAGES: usize = 1024;

impl EffresConfig {
    /// Creates the default configuration (the paper's parameters).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pruning threshold `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the incomplete-Cholesky drop tolerance.
    pub fn with_drop_tolerance(mut self, drop_tolerance: f64) -> Self {
        self.drop_tolerance = drop_tolerance;
        self
    }

    /// Sets the fill-reducing ordering.
    pub fn with_ordering(mut self, ordering: Ordering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the ground conductance.
    pub fn with_ground_conductance(mut self, ground_conductance: f64) -> Self {
        self.ground_conductance = ground_conductance;
        self
    }

    /// Sets the approximate-inverse build options.
    pub fn with_build_options(mut self, build: BuildOptions) -> Self {
        self.build = build;
        self
    }

    /// Sets the worker-thread count of the approximate-inverse build
    /// (`0` = one per core, `1` = sequential).
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build.threads = threads;
        self
    }

    /// Shares a persistent [`WorkerPool`] with the build (see
    /// [`EffresConfig::worker_pool`]).
    pub fn with_worker_pool(mut self, pool: WorkerPool) -> Self {
        self.worker_pool = Some(pool);
        self
    }

    /// Sets the decoded-page budget of a paged column store (see
    /// [`EffresConfig::page_cache_pages`]). Clamped to at least one page at
    /// the store, never here.
    pub fn with_page_cache_pages(mut self, pages: usize) -> Self {
        self.page_cache_pages = pages;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::InvalidConfig`] when a parameter is out of range.
    pub fn validate(&self) -> Result<(), EffresError> {
        if !(self.drop_tolerance >= 0.0) || !self.drop_tolerance.is_finite() {
            return Err(EffresError::InvalidConfig {
                name: "drop_tolerance",
                message: "must be finite and nonnegative".to_string(),
            });
        }
        if !(self.epsilon >= 0.0) || !(self.epsilon < 1.0) {
            return Err(EffresError::InvalidConfig {
                name: "epsilon",
                message: "must lie in [0, 1)".to_string(),
            });
        }
        if !(self.ground_conductance > 0.0) || !self.ground_conductance.is_finite() {
            return Err(EffresError::InvalidConfig {
                name: "ground_conductance",
                message: "must be positive and finite".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = EffresConfig::default();
        assert_eq!(c.drop_tolerance, 1e-3);
        assert_eq!(c.epsilon, 1e-3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_chain() {
        let c = EffresConfig::new()
            .with_epsilon(1e-2)
            .with_drop_tolerance(1e-4)
            .with_ordering(Ordering::MinimumDegree)
            .with_ground_conductance(1e-3)
            .with_build_threads(3);
        assert_eq!(c.epsilon, 1e-2);
        assert_eq!(c.drop_tolerance, 1e-4);
        assert_eq!(c.ordering, Ordering::MinimumDegree);
        assert_eq!(c.ground_conductance, 1e-3);
        assert_eq!(c.build.threads, 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn build_options_defaults_and_builders() {
        let d = BuildOptions::default();
        assert_eq!(d.threads, 0, "default resolves to one thread per core");
        assert!(d.parallel_threshold > 0);
        assert_eq!(BuildOptions::sequential().threads, 1);
        assert_eq!(BuildOptions::default().with_threads(8).threads, 8);
        let c = EffresConfig::new().with_build_options(BuildOptions::sequential());
        assert_eq!(c.build, BuildOptions::sequential());
    }

    #[test]
    fn worker_pool_is_shared_not_copied() {
        let pool = WorkerPool::new(2);
        let c = EffresConfig::new().with_worker_pool(pool.clone());
        assert_eq!(c.worker_pool.as_ref(), Some(&pool));
        // Clones of the config refer to the same pool.
        let d = c.clone();
        assert_eq!(c, d);
        // A different pool makes configs unequal even with equal scalars.
        let e = EffresConfig::new().with_worker_pool(WorkerPool::new(2));
        assert_ne!(c, e);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configurations_rejected() {
        assert!(EffresConfig::new().with_epsilon(1.5).validate().is_err());
        assert!(EffresConfig::new().with_epsilon(-0.1).validate().is_err());
        assert!(EffresConfig::new()
            .with_drop_tolerance(f64::NAN)
            .validate()
            .is_err());
        assert!(EffresConfig::new()
            .with_ground_conductance(0.0)
            .validate()
            .is_err());
    }
}
