//! End-to-end benchmark of the effres workspace.
//!
//! ```text
//! effres-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  --cli <effres-cli> --cache-dir <dir> --reference <file>
//!                  [--regenerate-reference]
//! ```
//!
//! `perfbench/run.py` builds this harness and `effres-cli` from the
//! checkout and supplies the last three paths. Workloads:
//!
//! * `paper_edges` — Table I in-process: build the estimator, then sweep
//!   all edges through `QueryEngine::execute` ([`paper`]);
//! * `hot_pairs_server` — `effres-cli serve` on a resident snapshot, Zipf
//!   pairs through the pair cache ([`served`]);
//! * `paged_uniform_server` — `effres-cli serve --paged --page-cache 128`,
//!   uniform pairs through page I/O and the locality scheduler.
//!
//! Everything runs on one CPU, and end-to-end times are reported at a
//! reference host speed measured on that CPU during the run ([`host`]).
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it replays the same inputs and times the calls into each
//! layer instead. The last line of standard output is the JSON result.

mod host;
mod load;
mod paper;
mod reference;
mod served;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics (untraced runs), with units. Times are at the
/// reference host speed ([`host`]).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("edge_rel_err_mean", "ratio"),
    ("edge_rel_err_max", "ratio"),
    ("pair_rel_err_mean", "ratio"),
    ("pair_rel_err_max", "ratio"),
];

/// Per-layer metrics (traced runs), with units; times as measured. A layer
/// a workload bypasses reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("build.ordering_s", "s"),
    ("build.ichol_s", "s"),
    ("build.inverse_s", "s"),
    ("build.inverse_nnz", "count"),
    ("build.traced_sum_ratio", "ratio"),
    ("kernel.ns_per_pair", "ns"),
    ("kernel.bytes_per_pair", "B"),
    ("kernel.pairs_per_hub_load", "ratio"),
    ("engine.execute_ms_p50", "ms"),
    ("engine.pair_cache_hit_ratio", "ratio"),
    ("io.snapshot_load_s", "s"),
    ("io.open_paged_s", "s"),
    ("io.page_miss_ratio", "ratio"),
    ("io.bytes_read_per_pair", "B"),
    ("io.page_fetch_ms", "ms"),
    ("io.page_retries", "count"),
    ("scheduler.execute_ms_p50", "ms"),
    ("scheduler.blocks_per_batch", "count"),
    ("scheduler.windows_per_batch", "count"),
    ("admission.queued", "count"),
    ("server.handler_p50_ms", "ms"),
    ("server.handler_tail_ms", "ms"),
    ("server.wire_p50_ms", "ms"),
    ("client.failed_ratio", "ratio"),
    ("workload.repeat_share", "ratio"),
    ("host.speed", "ratio"),
    ("trace.overhead_s", "s"),
];

const WORKLOADS: &[&str] = &["paper_edges", "hot_pairs_server", "paged_uniform_server"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub cli: PathBuf,
    pub cache_dir: PathBuf,
    pub reference: PathBuf,
    pub regenerate_reference: bool,
}

/// What a run measured.
pub struct Outcome {
    /// `Err` names the correctness check that failed.
    pub correct: Result<(), String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: Ok(()),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(16),
        trace: false,
        cli: PathBuf::new(),
        cache_dir: PathBuf::new(),
        reference: PathBuf::new(),
        regenerate_reference: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--regenerate-reference" {
            args.regenerate_reference = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid value `{value}` for {flag}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Duration::from_secs(number()?.max(1)),
            "--trace" => args.trace = number()? != 0,
            "--cli" => args.cli = value.into(),
            "--cache-dir" => args.cache_dir = value.into(),
            "--reference" => args.reference = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = util::pin_to_one_cpu() {
        eprintln!("error: CPU affinity: {e}");
        return ExitCode::from(2);
    }
    let graph = reference::graph();
    if args.regenerate_reference {
        return match reference::Reference::regenerate(&args.reference, &graph) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        };
    }
    let reference = match reference::Reference::load(&args.reference, &graph) {
        Ok(reference) => reference,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_edges" => paper::run(&args, &graph, &reference),
        "hot_pairs_server" | "paged_uniform_server" => served::run(&args, &graph, &reference),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in expected {
        let value = *outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload did not report {name}"));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Err(message) = &outcome.correct {
        eprintln!("correctness check failed: {message}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct.is_ok(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
