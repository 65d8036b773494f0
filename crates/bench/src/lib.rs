//! Benchmark suite definitions and report helpers.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figure:
//!
//! * `table1` — Table I: effective resistances on large graphs, Alg. 3 vs.
//!   the WWW'15 random-projection baseline;
//! * `table2_transient` — Table II (upper): power-grid reduction + transient
//!   analysis;
//! * `table2_incremental` — Table II (lower): DC incremental analysis;
//! * `fig1` — Fig. 1: transient waveforms of a load node, original vs.
//!   reduced model.
//!
//! The graph suite mirrors the structural regimes of the paper's test cases
//! (social networks, finite-element meshes, circuit meshes) with synthetic
//! generators at laptop scale, since the paper's benchmark graphs are not
//! redistributable (`effres_graph::generators` names the case each stands in for).

pub mod report;

use effres_graph::generators;
use effres_graph::Graph;

/// One entry of the Table I graph suite.
#[derive(Debug, Clone)]
pub struct SuiteCase {
    /// Short case name (patterned after the paper's case names).
    pub name: &'static str,
    /// The generated graph.
    pub graph: Graph,
}

/// Builds the Table I graph suite.
///
/// `scale` multiplies the case sizes; `1.0` is the default laptop-scale suite
/// (thousands of nodes), larger values approach the paper's sizes at the cost
/// of runtime.
///
/// # Panics
///
/// Panics only if the built-in generator parameters are invalid, which would
/// be a bug in this crate.
pub fn table1_suite(scale: f64) -> Vec<SuiteCase> {
    let s = |base: usize| ((base as f64 * scale).round() as usize).max(64);
    vec![
        SuiteCase {
            name: "social-pa",
            graph: generators::preferential_attachment(s(3000), 3, 0.5, 1.5, 11)
                .expect("valid generator parameters"),
        },
        SuiteCase {
            name: "social-sw",
            graph: generators::small_world(s(3000), 3, 0.05, 0.5, 1.5, 12)
                .expect("valid generator parameters"),
        },
        SuiteCase {
            name: "fe-mesh3d",
            graph: {
                let side = (((s(2200)) as f64).powf(1.0 / 3.0).round() as usize).max(6);
                generators::fe_mesh(side, side, side, 0.5, 2.0, 13)
                    .expect("valid generator parameters")
            },
        },
        SuiteCase {
            name: "grid3d",
            graph: {
                let side = (((s(2700)) as f64).powf(1.0 / 3.0).round() as usize).max(6);
                generators::grid_3d(side, side, side, 0.5, 2.0, 14)
                    .expect("valid generator parameters")
            },
        },
        SuiteCase {
            name: "pg-mesh",
            graph: {
                let side = ((s(4096) as f64).sqrt().round() as usize).max(16);
                generators::power_grid_mesh(effres_graph::generators::PowerGridMeshOptions {
                    rows: side,
                    cols: side,
                    seed: 15,
                    ..Default::default()
                })
                .expect("valid generator parameters")
            },
        },
        SuiteCase {
            name: "grid2d",
            graph: {
                let side = ((s(4096) as f64).sqrt().round() as usize).max(16);
                generators::grid_2d(side, side, 0.5, 2.0, 16).expect("valid generator parameters")
            },
        },
    ]
}

/// Formats a floating-point value in the compact scientific style of the
/// paper's tables (e.g. `2.6E-2`).
pub fn sci(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    format!("{value:.1E}")
}

/// Formats a duration in seconds with three decimal digits.
pub fn secs(duration: std::time::Duration) -> String {
    format!("{:.3}", duration.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_nonempty_and_connected_enough() {
        let suite = table1_suite(0.1);
        assert_eq!(suite.len(), 6);
        for case in &suite {
            assert!(case.graph.node_count() >= 64, "{} too small", case.name);
            assert!(case.graph.edge_count() > case.graph.node_count() / 2);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(sci(0.0), "0");
        assert!(sci(0.026).starts_with("2.6E"));
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
