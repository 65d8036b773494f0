//! Regenerates Table I: computing effective resistances on large graphs.
//!
//! For every case of the synthetic suite the binary reports, for the WWW'15
//! random-projection baseline and for the paper's Alg. 3: runtime for all
//! edge queries, average (`Ea`) and maximum (`Em`) relative error against
//! exact effective resistances on up to 1000 sampled edges, and the density
//! figure `nnz / (n log2 n)`. The `dpt` column is the maximum filled-graph
//! depth of the incomplete factor.
//!
//! Usage: `cargo run -p effres-bench --bin table1 --release [scale]`
//! where `scale` multiplies the case sizes (default 1.0).

use effres::prelude::*;
use effres::random_projection::RandomProjectionOptions;
use effres::stats::{geometric_mean, relative_errors, sample_edges};
use effres_bench::{sci, secs, table1_suite};
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    println!("Table I: results for computing effective resistances on large graphs");
    println!("(synthetic suite, scale {scale}: generated stand-ins for the circuit, FE and social graphs)\n");
    println!(
        "{:<10} {:>8} {:>9} {:>5} | {:>9} {:>8} {:>8} {:>8} | {:>9} {:>8} {:>8} {:>8}",
        "case",
        "|V|",
        "|E|",
        "dpt",
        "T_rp(s)",
        "Ea_rp",
        "Em_rp",
        "nnzQ/nlg",
        "T_a3(s)",
        "Ea_a3",
        "Em_a3",
        "nnzZ/nlg"
    );

    let mut speedups = Vec::new();
    let mut error_ratios = Vec::new();
    for case in table1_suite(scale) {
        let graph = &case.graph;
        let n = graph.node_count();
        let m = graph.edge_count();

        // Ground truth on up to 1000 random edges (the paper's protocol).
        let exact = ExactEffectiveResistance::build(graph, 1.0).expect("exact factorization");
        let sample = sample_edges(graph, 1000, 99);
        let truth = exact.query_many(&sample).expect("exact queries");

        // WWW'15 random-projection baseline.
        let rp_start = Instant::now();
        let rp = RandomProjectionEstimator::build(graph, &RandomProjectionOptions::default())
            .expect("baseline build");
        let _all_rp = rp.query_all_edges(graph).expect("baseline queries");
        let rp_time = rp_start.elapsed();
        let rp_sampled = rp.query_many(&sample).expect("baseline queries");
        let (rp_ea, rp_em) = relative_errors(&rp_sampled, &truth);

        // Alg. 3.
        let a3_start = Instant::now();
        let estimator = EffectiveResistanceEstimator::build(graph, &EffresConfig::default())
            .expect("Alg. 3 build");
        let _all_a3 = estimator.query_all_edges(graph).expect("Alg. 3 queries");
        let a3_time = a3_start.elapsed();
        let a3_sampled = estimator.query_many(&sample).expect("Alg. 3 queries");
        let (a3_ea, a3_em) = relative_errors(&a3_sampled, &truth);

        let stats = estimator.stats();
        println!(
            "{:<10} {:>8} {:>9} {:>5} | {:>9} {:>8} {:>8} {:>8.2} | {:>9} {:>8} {:>8} {:>8.2}",
            case.name,
            n,
            m,
            stats.max_depth,
            secs(rp_time),
            sci(rp_ea),
            sci(rp_em),
            rp.nnz_ratio(),
            secs(a3_time),
            sci(a3_ea),
            sci(a3_em),
            stats.inverse_nnz_ratio,
        );
        speedups.push(rp_time.as_secs_f64() / a3_time.as_secs_f64().max(1e-9));
        if a3_ea > 0.0 {
            error_ratios.push(rp_ea / a3_ea);
        }
    }
    println!();
    println!(
        "geometric-mean speedup of Alg. 3 over the random-projection baseline: {:.1}x",
        geometric_mean(&speedups)
    );
    println!(
        "geometric-mean improvement in average relative error: {:.1}x",
        geometric_mean(&error_ratios)
    );
    println!(
        "(the paper reports 168x average speedup and 1-2 orders of magnitude error improvement \
         on benchmark graphs that are 10-1000x larger)"
    );
}
