//! A sequential approximate-inverse build holds one arena at its peak.
//!
//! The sequential sweep writes each column of `Z̃` once, into the buffers the
//! finished inverse keeps, and puts the columns in order in place. So the
//! process's peak resident set grows by about one arena over the build, not
//! two. This file has a single test so that no other test shares the
//! process while the peak is measured.

#[cfg(target_os = "linux")]
#[test]
fn a_sequential_build_peaks_at_one_arena() {
    use effres::approx_inverse::SparseApproximateInverse;
    use effres::BuildOptions;
    use effres_graph::{generators, laplacian::grounded_laplacian};
    use effres_sparse::amd;
    use effres_sparse::ichol::{IcholOptions, IncompleteCholesky};

    /// A `/proc/self/status` field in bytes (the kernel reports kB).
    fn status_bytes(field: &str) -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        let line = status
            .lines()
            .find(|line| line.starts_with(field))
            .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
        let kib: usize = line[field.len()..]
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .expect("kB count");
        kib * 1024
    }

    let graph = generators::grid_2d(160, 160, 0.5, 2.0, 7).expect("generator");
    let laplacian = grounded_laplacian(&graph, 1.0);
    let permutation = amd::amd(&laplacian).expect("square");
    let permuted = laplacian.permute_symmetric(&permutation).expect("square");
    let factor = IncompleteCholesky::factor(
        &permuted,
        IcholOptions {
            drop_tolerance: 1e-3,
            ..IcholOptions::default()
        },
    )
    .expect("factor")
    .into_factor();

    // Writing 5 to clear_refs resets the peak (VmHWM) to the current RSS.
    std::fs::write("/proc/self/clear_refs", "5").expect("reset the peak resident set");
    let before = status_bytes("VmRSS:");
    let inverse =
        SparseApproximateInverse::from_factor_with(&factor, 1e-3, 4, &BuildOptions::sequential())
            .expect("Alg. 2");
    let peak = status_bytes("VmHWM:");
    let arena = inverse.footprint().total_bytes();
    let growth = peak.saturating_sub(before);
    println!(
        "arena {arena} B, peak growth {growth} B ({:.2}x)",
        growth as f64 / arena as f64
    );
    assert!(
        growth as f64 <= 1.25 * arena as f64,
        "a sequential build grew the peak resident set by {growth} B, {:.2}x its \
         {arena} B arena (bound 1.25x)",
        growth as f64 / arena as f64
    );
}
