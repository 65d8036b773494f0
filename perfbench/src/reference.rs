//! The shared inputs — the graph and the estimator configuration — and the
//! exact reference resistances the correctness gates compare against.
//!
//! The reference is computed once with `ExactEffectiveResistance` (a full
//! sparse Cholesky factorization: minutes, not a per-run cost) and stored in
//! `perfbench/reference.txt` together with a fingerprint of the generated
//! graph. A run refuses a reference whose fingerprint does not match the
//! graph the code under test generates; `--regenerate-reference` rewrites
//! the file.

use crate::util::Fnv;
use effres::stats::{relative_errors, sample_edges, sample_node_pairs};
use effres::{EffresConfig, ExactEffectiveResistance, Ordering};
use effres_graph::Graph;
use std::fmt::Write as _;
use std::path::Path;

/// Side of the grid: 320 × 320 = 102,400 nodes, 204,160 edges.
const SIDE: usize = 320;
/// Sampled edges and random pairs in the reference (Table I uses 1,000).
const SAMPLES: usize = 1000;
const EDGE_SAMPLE_SEED: u64 = 2023;
const PAIR_SAMPLE_SEED: u64 = 2024;

/// The graph every workload serves.
pub fn graph() -> Graph {
    effres_graph::generators::grid_2d(SIDE, SIDE, 0.5, 2.0, 7).expect("grid generator")
}

/// `effres-cli` build defaults: AMD ordering, ε = 1e-3, drop tolerance
/// 1e-3.
pub fn config() -> EffresConfig {
    EffresConfig::default().with_ordering(Ordering::MinimumDegree)
}

/// Fingerprint of a graph: node count and every edge with its weight bits.
pub fn fingerprint(graph: &Graph) -> u64 {
    let mut hash = Fnv::new().u64(graph.node_count() as u64);
    for (_, edge) in graph.edges() {
        hash = hash
            .u64(edge.u as u64)
            .u64(edge.v as u64)
            .u64(edge.weight.to_bits());
    }
    hash.0
}

/// Exact resistances of the sampled edges and the random pairs.
pub struct Reference {
    pub edges: Vec<(usize, usize)>,
    pub edge_values: Vec<f64>,
    pub pairs: Vec<(usize, usize)>,
    pub pair_values: Vec<f64>,
}

/// Relative errors of approximate answers against the reference.
#[derive(Clone, Copy, Debug)]
pub struct Accuracy {
    pub edge_mean: f64,
    pub edge_max: f64,
    pub pair_mean: f64,
    pub pair_max: f64,
}

/// Ceilings of the correctness gate. At this commit the estimator measures
/// edge errors of about 1e-3 mean and 1e-2 max; a change that degrades
/// accuracy several-fold fails the run.
const EDGE_MEAN_CEILING: f64 = 5e-3;
const EDGE_MAX_CEILING: f64 = 5e-2;
/// Random pairs carry the drop tolerance's error (about 0.4 mean here);
/// the gate only catches a collapse.
const PAIR_MEAN_CEILING: f64 = 1.0;

impl Reference {
    /// Loads the stored reference, refusing one made for another graph.
    pub fn load(path: &Path, graph: &Graph) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut reference = Reference {
            edges: Vec::new(),
            edge_values: Vec::new(),
            pairs: Vec::new(),
            pair_values: Vec::new(),
        };
        let mut stored_fingerprint = None;
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed reference line `{line}`");
            match fields.as_slice() {
                ["fingerprint", hex] => {
                    stored_fingerprint = Some(u64::from_str_radix(hex, 16).map_err(|_| bad())?);
                }
                [kind @ ("edge" | "pair"), p, q, r] => {
                    let pair = (p.parse().map_err(|_| bad())?, q.parse().map_err(|_| bad())?);
                    let value: f64 = r.parse().map_err(|_| bad())?;
                    if *kind == "edge" {
                        reference.edges.push(pair);
                        reference.edge_values.push(value);
                    } else {
                        reference.pairs.push(pair);
                        reference.pair_values.push(value);
                    }
                }
                _ => return Err(bad()),
            }
        }
        let expected = fingerprint(graph);
        match stored_fingerprint {
            Some(stored) if stored == expected => Ok(reference),
            Some(stored) => Err(format!(
                "reference fingerprint {stored:016x} does not match the generated graph \
                 ({expected:016x}); rerun with --regenerate-reference"
            )),
            None => Err("reference has no fingerprint line".to_string()),
        }
    }

    /// Computes the reference with the exact solver and writes it.
    pub fn regenerate(path: &Path, graph: &Graph) -> Result<(), String> {
        let started = std::time::Instant::now();
        let exact = ExactEffectiveResistance::build(graph, config().ground_conductance)
            .map_err(|e| format!("exact factorization failed: {e}"))?;
        eprintln!(
            "exact factorization in {:.1}s",
            started.elapsed().as_secs_f64()
        );
        let edges = sample_edges(graph, SAMPLES, EDGE_SAMPLE_SEED);
        let pairs = sample_node_pairs(graph, SAMPLES, PAIR_SAMPLE_SEED);
        let edge_values = exact.query_many(&edges).map_err(|e| e.to_string())?;
        let pair_values = exact.query_many(&pairs).map_err(|e| e.to_string())?;
        let mut out = String::new();
        out.push_str(
            "# Exact effective resistances of grid_2d(320, 320, 0.5, 2.0, 7) from\n\
             # ExactEffectiveResistance: 1000 stats::sample_edges edges (seed 2023) and\n\
             # 1000 stats::sample_node_pairs pairs (seed 2024). Regenerate with\n\
             # `python3 perfbench/run.py --regenerate-reference`.\n",
        );
        writeln!(out, "fingerprint {:016x}", fingerprint(graph)).expect("string write");
        for (&(p, q), r) in edges.iter().zip(&edge_values) {
            writeln!(out, "edge {p} {q} {r}").expect("string write");
        }
        for (&(p, q), r) in pairs.iter().zip(&pair_values) {
            writeln!(out, "pair {p} {q} {r}").expect("string write");
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "wrote {} in {:.1}s",
            path.display(),
            started.elapsed().as_secs_f64()
        );
        Ok(())
    }

    /// Relative errors of approximate answers (edges first, then pairs, in
    /// reference order).
    pub fn accuracy(&self, edge_answers: &[f64], pair_answers: &[f64]) -> Accuracy {
        let (edge_mean, edge_max) = relative_errors(edge_answers, &self.edge_values);
        let (pair_mean, pair_max) = relative_errors(pair_answers, &self.pair_values);
        Accuracy {
            edge_mean,
            edge_max,
            pair_mean,
            pair_max,
        }
    }
}

impl Accuracy {
    /// The accuracy half of the correctness gate.
    pub fn check(&self) -> Result<(), String> {
        let finite = [self.edge_mean, self.edge_max, self.pair_mean, self.pair_max]
            .iter()
            .all(|v| v.is_finite());
        if !finite
            || self.edge_mean > EDGE_MEAN_CEILING
            || self.edge_max > EDGE_MAX_CEILING
            || self.pair_mean > PAIR_MEAN_CEILING
        {
            return Err(format!("accuracy outside the gate: {self:?}"));
        }
        Ok(())
    }
}
