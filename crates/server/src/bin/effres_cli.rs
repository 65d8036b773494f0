//! `effres-cli` — the full pipeline from the shell.
//!
//! ```text
//! effres-cli load  <dataset>                      ingest + report
//! effres-cli build <dataset> [-o out.snap]        ingest + factor + snapshot
//! effres-cli build <snapshot> -o out.snap         re-encode as v3
//! effres-cli query <dataset|snapshot> <p> <q>     one resistance
//! effres-cli batch <dataset|snapshot> --random N  thousands of queries
//! effres-cli batch <dataset|snapshot> --pairs f   ... from a pair file
//! effres-cli centrality <dataset>                 all-edges centralities
//! effres-cli stats <dataset|snapshot>             what's inside
//! effres-cli stats <host:port>                    live server stats JSON
//! effres-cli serve <dataset|snapshot> --port N    long-lived TCP front-end
//! effres-cli ping  <host:port>                    health check
//! effres-cli reload <host:port> <snapshot>        hot-swap the served data
//! effres-cli bench-client <host:port>             load generator
//! ```
//!
//! `<dataset>` is a SNAP-style edge list or a Matrix Market `.mtx` file,
//! optionally gzipped; a snapshot is the binary format written by `build
//! --output`. Node ids on the command line and in pair files are the
//! *original dataset ids*; the CLI maps them onto the dense node space the
//! estimator uses internally (`--dense` skips the mapping — that is the id
//! space the network protocol speaks).
//!
//! With `--paged`, `query`/`batch`/`stats` serve a **v3 snapshot straight
//! from disk**: only the header, permutation, column pointers and persisted
//! norm table are loaded (milliseconds even for huge graphs) and column data
//! pages in on demand through an LRU cache sized by `--page-cache`. Answers
//! are bit-identical to resident serving. v1 and v2 snapshots have no norm
//! table and are refused; `build <old.snap> --output <new.snap>` loads any
//! version and writes it as v3.

use effres::centrality::centralities_from_resistances;
use effres::{EffectiveResistanceEstimator, EffresConfig, Ordering, WorkerPool};
use effres_graph::builder::MergePolicy;
use effres_io::dataset::{load_graph, IngestOptions};
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::{load_snapshot, save_snapshot, Snapshot};
use effres_io::{pairs, IoError};
use effres_server::{Client, ClientError, PartialBatch, Server, ServerOptions};
use effres_service::{
    BatchResult, EngineOptions, ExecOptions, LatencyHistogram, QueryBatch, QueryEngine,
    ResistanceBackend,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering as MemOrder};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "effres-cli — effective-resistance queries on graph datasets

USAGE:
    effres-cli load  <dataset> [ingest options]
    effres-cli build <dataset|snapshot> [ingest|build options] [--output <snapshot>]
    effres-cli query <dataset|snapshot> <p> <q> [ingest|build options]
                     [--paged [--page-cache N]]
    effres-cli batch <dataset|snapshot> (--pairs <file> | --random <count>)
                     [--threads N] [--cache N] [--seed S] [--output <file>]
                     [--paged [--page-cache N]] [ingest|build options]
    effres-cli centrality <dataset> [--snapshot <file> [--paged]]
                     [--threads N] [--cache N] [--output <file>]
                     [ingest|build options]
    effres-cli stats <dataset|snapshot> [--paged [--page-cache N]]
    effres-cli stats <host:port>
    effres-cli serve <dataset|snapshot> [--host H] [--port N] [--threads N]
                     [--cache N] [--paged [--page-cache N]]
                     [--frame-deadline S] [--idle-deadline S]
                     [--drain-deadline S] [--scrub-rate M]
                     [--admission-depth N [--admission-timeout-ms T]]
                     [--brownout-enter X] [--brownout-exit Y]
    effres-cli ping  <host:port>
    effres-cli reload <host:port> <snapshot>
    effres-cli bench-client <host:port> [--connections N] [--requests N]
                     [--batch K [--batch-every J]] [--rate R] [--seed S]
                     [--deadline-ms T] [--check K] [--shutdown]

INGEST OPTIONS (dataset inputs):
    --keep-all-components   keep every component (default: largest only)
    --merge <first|sum|max> duplicate-edge policy        [default: first]
    --default-weight <w>    weight of unweighted records [default: 1]

BUILD OPTIONS (dataset inputs):
    --epsilon <e>           pruning threshold of Alg. 2  [default: 1e-3]
    --drop-tolerance <t>    incomplete Cholesky drop tol [default: 1e-3]
    --ordering <o>          natural | rcm | amd          [default: amd]
    --ground <g>            ground conductance           [default: 1]
    --build-threads <n>     approximate-inverse build workers
                            (0 = all cores, 1 = sequential; results are
                            bit-identical either way)     [default: 0]

CENTRALITY OPTIONS (spanning-edge centrality of every edge):
    --snapshot <file>       serve queries from this prebuilt snapshot
                            instead of building from the dataset (the
                            dataset still supplies the edges)
    --paged                 with --snapshot: serve it out-of-core
    --output <file>         write `u v centrality` lines here

BATCH OPTIONS:
    --pairs <file>          pair file: one `p q` per line, # comments
    --random <count>        generate <count> random pairs instead
    --seed <s>              seed for --random            [default: 42]
    --threads <n>           worker-pool threads (0 = all cores); one
                            persistent pool is shared between the estimator
                            build and the batch engine
    --cache <n>             result-cache entries (0 disables)
    --output <file>         write `p q resistance` lines here

PAGED OPTIONS (snapshot inputs; out-of-core serving):
    --paged                 serve columns directly from the v3 snapshot
                            file (positioned reads + LRU page cache) instead
                            of loading the arena into memory; answers are
                            bit-identical to resident serving. Re-encode a
                            v1/v2 snapshot first with
                            `build <old.snap> --output <new.snap>`
    --page-cache <n>        decoded pages kept resident   [default: 1024]
    --columns-per-page <n>  columns decoded per page      [default: 64]

SERVE OPTIONS:
    --host <h>              listen address               [default: 127.0.0.1]
    --port <n>              listen port (0 = ephemeral)  [default: 7878]
    --frame-deadline <s>    close a connection stalled mid-frame after this
                            many seconds                 [default: 10]
    --idle-deadline <s>     close a connection idle this many seconds
                            (clients reconnect)          [default: 300]
    --drain-deadline <s>    on shutdown, wait up to this many seconds for
                            in-flight requests to finish [default: 30]
    --scrub-rate <m>        background integrity scrubber budget, in MiB/s
                            of snapshot pages re-validated (0 = off; paged
                            backend only)                [default: 0]
    --admission-depth <n>   paged only: bound the admission queue at n
                            waiting batches; beyond that the server answers
                            BUSY instead of queueing (0 = unbounded, the
                            default)
    --admission-timeout-ms <t>
                            paged only: shed a queued batch that has not
                            been granted pin capacity after t milliseconds
                            [default: 2000]
    --brownout-enter <x>    enter brownout (degraded, partial-mode batches)
                            when the shed-rate EWMA crosses x; set above 1.0
                            to disable                   [default: 0.5]
    --brownout-exit <y>     leave brownout once the shed-rate EWMA decays
                            below y                      [default: 0.1]

BENCH-CLIENT OPTIONS:
    --connections <n>       concurrent client connections [default: 4]
    --requests <n>          requests per connection       [default: 1000]
    --batch <k>             mixed traffic: batches of k pairs between the
                            single queries (0 = singles only)
    --batch-every <j>       every j-th request is a batch [default: 8]
    --rate <r>              open-loop target rate per connection, in
                            requests/s (0 = closed loop)  [default: 0]
    --deadline-ms <t>       attach a t-millisecond deadline to every batch
                            request; missed deadlines and busy sheds are
                            counted, not fatal (0 = off)  [default: 0]
    --check <k>             after the run, print k deterministic `p q R`
                            lines (cross-check against `query --dense`)
    --shutdown              ask the server to shut down once done

Node ids are the dataset's original ids (SNAP ids, 1-based .mtx indices);
`--dense` on query/batch switches to the dense ids `0..nodes` — the id
space the network protocol speaks.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}\n");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Run(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

enum CliError {
    /// Bad command line: print usage.
    Usage(String),
    /// Valid command line, failed while running.
    Run(String),
}

impl From<IoError> for CliError {
    fn from(e: IoError) -> Self {
        CliError::Run(e.to_string())
    }
}

impl From<effres::EffresError> for CliError {
    fn from(e: effres::EffresError) -> Self {
        CliError::Run(e.to_string())
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    let rest = &args[1..];
    match command.as_str() {
        "load" => cmd_load(rest),
        "build" => cmd_build(rest),
        "query" => cmd_query(rest),
        "batch" => cmd_batch(rest),
        "centrality" => cmd_centrality(rest),
        "stats" => cmd_stats(rest),
        "serve" => cmd_serve(rest),
        "ping" => cmd_ping(rest),
        "reload" => cmd_reload(rest),
        "bench-client" => cmd_bench_client(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

/// Everything the flag parser can produce.
struct Options {
    input: Option<PathBuf>,
    positional: Vec<String>,
    ingest: IngestOptions,
    config: EffresConfig,
    output: Option<PathBuf>,
    snapshot: Option<PathBuf>,
    pairs_file: Option<PathBuf>,
    random: Option<usize>,
    seed: u64,
    threads: usize,
    cache: usize,
    paged: bool,
    columns_per_page: Option<usize>,
    dense: bool,
    host: String,
    port: u16,
    frame_deadline_secs: u64,
    idle_deadline_secs: u64,
    drain_deadline_secs: u64,
    scrub_mibps: f64,
    admission_depth: usize,
    admission_timeout_ms: u64,
    brownout_enter: f64,
    brownout_exit: f64,
    connections: usize,
    requests: usize,
    batch: usize,
    batch_every: usize,
    rate: f64,
    deadline_ms: u64,
    check: usize,
    shutdown: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            input: None,
            positional: Vec::new(),
            ingest: IngestOptions::default(),
            config: EffresConfig::default().with_ordering(Ordering::MinimumDegree),
            output: None,
            snapshot: None,
            pairs_file: None,
            random: None,
            seed: 42,
            threads: 0,
            cache: EngineOptions::default().cache_capacity,
            paged: false,
            columns_per_page: None,
            dense: false,
            host: "127.0.0.1".to_string(),
            port: 7878,
            frame_deadline_secs: 10,
            idle_deadline_secs: 300,
            drain_deadline_secs: 30,
            scrub_mibps: 0.0,
            admission_depth: 0,
            admission_timeout_ms: 2000,
            brownout_enter: 0.5,
            brownout_exit: 0.1,
            connections: 4,
            requests: 1000,
            batch: 0,
            batch_every: 8,
            rate: 0.0,
            deadline_ms: 0,
            check: 0,
            shutdown: false,
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut options = Options::default();
    let mut iter = args.iter();
    let value_of = |flag: &str, iter: &mut std::slice::Iter<'_, String>| {
        iter.next()
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--keep-all-components" => options.ingest.keep_largest_component = false,
            "--merge" => {
                options.ingest.merge = match value_of("--merge", &mut iter)?.as_str() {
                    "first" => MergePolicy::KeepFirst,
                    "sum" => MergePolicy::Sum,
                    "max" => MergePolicy::Max,
                    other => {
                        return Err(CliError::Usage(format!("unknown merge policy `{other}`")))
                    }
                }
            }
            "--default-weight" => {
                options.ingest.default_weight = parse_number(
                    &value_of("--default-weight", &mut iter)?,
                    "--default-weight",
                )?
            }
            "--epsilon" => {
                let e: f64 = parse_number(&value_of("--epsilon", &mut iter)?, "--epsilon")?;
                options.config = options.config.with_epsilon(e);
            }
            "--drop-tolerance" => {
                let t: f64 = parse_number(
                    &value_of("--drop-tolerance", &mut iter)?,
                    "--drop-tolerance",
                )?;
                options.config = options.config.with_drop_tolerance(t);
            }
            "--ground" => {
                let g: f64 = parse_number(&value_of("--ground", &mut iter)?, "--ground")?;
                options.config = options.config.with_ground_conductance(g);
            }
            "--ordering" => {
                let ordering = match value_of("--ordering", &mut iter)?.as_str() {
                    "natural" => Ordering::Natural,
                    "rcm" => Ordering::Rcm,
                    "amd" => Ordering::MinimumDegree,
                    other => return Err(CliError::Usage(format!("unknown ordering `{other}`"))),
                };
                options.config = options.config.with_ordering(ordering);
            }
            "--build-threads" => {
                let threads: usize =
                    parse_number(&value_of("--build-threads", &mut iter)?, "--build-threads")?;
                options.config = options.config.with_build_threads(threads);
            }
            "--output" | "-o" => options.output = Some(value_of("--output", &mut iter)?.into()),
            "--snapshot" => options.snapshot = Some(value_of("--snapshot", &mut iter)?.into()),
            "--pairs" => options.pairs_file = Some(value_of("--pairs", &mut iter)?.into()),
            "--random" => {
                options.random = Some(parse_number(&value_of("--random", &mut iter)?, "--random")?)
            }
            "--seed" => options.seed = parse_number(&value_of("--seed", &mut iter)?, "--seed")?,
            "--threads" => {
                options.threads = parse_number(&value_of("--threads", &mut iter)?, "--threads")?
            }
            "--cache" => options.cache = parse_number(&value_of("--cache", &mut iter)?, "--cache")?,
            "--paged" => options.paged = true,
            "--page-cache" => {
                let pages = parse_number(&value_of("--page-cache", &mut iter)?, "--page-cache")?;
                options.config = options.config.with_page_cache_pages(pages);
            }
            "--columns-per-page" => {
                options.columns_per_page = Some(parse_number(
                    &value_of("--columns-per-page", &mut iter)?,
                    "--columns-per-page",
                )?)
            }
            "--dense" => options.dense = true,
            "--host" => options.host = value_of("--host", &mut iter)?,
            "--port" => options.port = parse_number(&value_of("--port", &mut iter)?, "--port")?,
            "--frame-deadline" => {
                options.frame_deadline_secs = parse_number(
                    &value_of("--frame-deadline", &mut iter)?,
                    "--frame-deadline",
                )?
            }
            "--idle-deadline" => {
                options.idle_deadline_secs =
                    parse_number(&value_of("--idle-deadline", &mut iter)?, "--idle-deadline")?
            }
            "--drain-deadline" => {
                options.drain_deadline_secs = parse_number(
                    &value_of("--drain-deadline", &mut iter)?,
                    "--drain-deadline",
                )?
            }
            "--scrub-rate" => {
                options.scrub_mibps =
                    parse_number(&value_of("--scrub-rate", &mut iter)?, "--scrub-rate")?
            }
            "--admission-depth" => {
                options.admission_depth = parse_number(
                    &value_of("--admission-depth", &mut iter)?,
                    "--admission-depth",
                )?
            }
            "--admission-timeout-ms" => {
                options.admission_timeout_ms = parse_number(
                    &value_of("--admission-timeout-ms", &mut iter)?,
                    "--admission-timeout-ms",
                )?
            }
            "--brownout-enter" => {
                options.brownout_enter = parse_number(
                    &value_of("--brownout-enter", &mut iter)?,
                    "--brownout-enter",
                )?
            }
            "--brownout-exit" => {
                options.brownout_exit =
                    parse_number(&value_of("--brownout-exit", &mut iter)?, "--brownout-exit")?
            }
            "--connections" => {
                options.connections =
                    parse_number(&value_of("--connections", &mut iter)?, "--connections")?
            }
            "--requests" => {
                options.requests = parse_number(&value_of("--requests", &mut iter)?, "--requests")?
            }
            "--batch" => options.batch = parse_number(&value_of("--batch", &mut iter)?, "--batch")?,
            "--batch-every" => {
                options.batch_every =
                    parse_number(&value_of("--batch-every", &mut iter)?, "--batch-every")?
            }
            "--rate" => options.rate = parse_number(&value_of("--rate", &mut iter)?, "--rate")?,
            "--deadline-ms" => {
                options.deadline_ms =
                    parse_number(&value_of("--deadline-ms", &mut iter)?, "--deadline-ms")?
            }
            "--check" => options.check = parse_number(&value_of("--check", &mut iter)?, "--check")?,
            "--shutdown" => options.shutdown = true,
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`")))
            }
            positional => {
                if options.input.is_none() {
                    options.input = Some(positional.into());
                } else {
                    options.positional.push(positional.to_string());
                }
            }
        }
    }
    Ok(options)
}

fn parse_number<T: std::str::FromStr>(token: &str, flag: &str) -> Result<T, CliError> {
    token
        .parse()
        .map_err(|_| CliError::Usage(format!("invalid value `{token}` for {flag}")))
}

fn require_input(options: &Options) -> Result<&Path, CliError> {
    options
        .input
        .as_deref()
        .ok_or_else(|| CliError::Usage("missing input file".into()))
}

fn is_snapshot(path: &Path) -> bool {
    std::fs::File::open(path)
        .and_then(|mut f| {
            use std::io::Read;
            let mut magic = [0u8; 8];
            f.read_exact(&mut magic)?;
            Ok(&magic == b"EFRSNAP\n")
        })
        .unwrap_or(false)
}

/// Loads the input as either a snapshot or a dataset-plus-build, reporting
/// the timings either way.
fn obtain_snapshot(path: &Path, options: &Options) -> Result<Snapshot, CliError> {
    if is_snapshot(path) {
        let start = Instant::now();
        let snapshot = load_snapshot(path)?;
        println!(
            "loaded snapshot {} ({} nodes) in {:.3}s",
            path.display(),
            snapshot.estimator.node_count(),
            start.elapsed().as_secs_f64()
        );
        return Ok(snapshot);
    }
    let start = Instant::now();
    let ds = load_graph(path, &options.ingest)?;
    println!(
        "ingested {} ({} nodes, {} edges kept) in {:.3}s",
        path.display(),
        ds.graph.node_count(),
        ds.graph.edge_count(),
        start.elapsed().as_secs_f64()
    );
    let start = Instant::now();
    let estimator = EffectiveResistanceEstimator::build(&ds.graph, &options.config)?;
    println!(
        "built estimator (factor nnz {}, inverse nnz {}) in {:.3}s",
        estimator.stats().factor_nnz,
        estimator.stats().inverse_nnz,
        start.elapsed().as_secs_f64()
    );
    Ok(Snapshot {
        estimator,
        labels: Some(ds.labels),
        version: None,
    })
}

/// Opens a snapshot for paged (out-of-core) serving, reporting the
/// cold-start timing: only the header, permutation and column pointers are
/// read — the column blocks stay on disk until queries page them in.
fn obtain_paged(path: &Path, options: &Options) -> Result<PagedSnapshot, CliError> {
    if !is_snapshot(path) {
        return Err(CliError::Usage(
            "--paged serves prebuilt snapshots; run `build --output <snapshot>` first".into(),
        ));
    }
    let start = Instant::now();
    let mut paged_options =
        PagedOptions::default().with_cache_pages(options.config.page_cache_pages);
    if let Some(columns) = options.columns_per_page {
        paged_options = paged_options.with_columns_per_page(columns);
    }
    let paged = open_paged(path, &paged_options)?;
    let f = paged.store.footprint();
    println!(
        "opened paged snapshot {} ({} nodes, {:.1} MiB on disk, {:.1} MiB resident, \
         {} rows, norms persisted) in {:.3}s",
        path.display(),
        paged.node_count(),
        mib(f.total_bytes()),
        mib(paged.store.resident_bytes()),
        match paged.store.row_codec() {
            effres_io::RowCodec::Raw => "raw",
            effres_io::RowCodec::Varint => "delta-varint",
        },
        start.elapsed().as_secs_f64()
    );
    Ok(paged)
}

/// Maps an original dataset id to the dense node space.
fn resolve_node(label: u64, labels: &Option<Vec<u64>>, map: &HashMap<u64, usize>) -> Option<usize> {
    match labels {
        Some(_) => map.get(&label).copied(),
        None => Some(label as usize),
    }
}

fn label_map(labels: &Option<Vec<u64>>) -> HashMap<u64, usize> {
    labels
        .as_ref()
        .map(|labels| {
            labels
                .iter()
                .enumerate()
                .map(|(dense, &label)| (label, dense))
                .collect()
        })
        .unwrap_or_default()
}

fn cmd_load(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let path = require_input(&options)?;
    let start = Instant::now();
    let ds = load_graph(path, &options.ingest)?;
    let elapsed = start.elapsed();
    let s = ds.stats;
    println!("dataset    {}", path.display());
    println!("lines      {} ({} comments/blank)", s.lines, s.comments);
    println!(
        "parsed     {} nodes, {} edges",
        s.parsed_nodes, s.parsed_edges
    );
    println!(
        "cleaned    {} self-loops, {} duplicates, {} explicit zeros",
        s.self_loops, s.duplicates, s.zeros
    );
    println!("components {}", s.components);
    println!(
        "kept       {} nodes, {} edges{}",
        s.kept_nodes,
        s.kept_edges,
        if options.ingest.keep_largest_component && s.components > 1 {
            " (largest component)"
        } else {
            ""
        }
    );
    println!("ingest     {:.3}s", elapsed.as_secs_f64());
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let path = require_input(&options)?;
    let snapshot = obtain_snapshot(path, &options)?;
    if let Some(output) = &options.output {
        let start = Instant::now();
        save_snapshot(output, &snapshot.estimator, snapshot.labels.as_deref())?;
        let bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
        println!(
            "snapshot   {} ({:.1} MiB) in {:.3}s",
            output.display(),
            bytes as f64 / (1024.0 * 1024.0),
            start.elapsed().as_secs_f64()
        );
    }
    print_estimator_stats(&snapshot.estimator);
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let path = require_input(&options)?;
    let [p, q] = options.positional.as_slice() else {
        return Err(CliError::Usage(
            "query needs exactly `<input> <p> <q>`".into(),
        ));
    };
    let (p, q): (u64, u64) = (parse_number(p, "<p>")?, parse_number(q, "<q>")?);
    let labels_of = |labels: &Option<Vec<u64>>| if options.dense { None } else { labels.clone() };
    if options.paged {
        let boot = Instant::now();
        let paged = obtain_paged(path, &options)?;
        let labels = labels_of(&paged.labels);
        let (engine, r, took) = query_engine(paged, &labels, (p, q))?;
        println!(
            "R({p}, {q}) = {r}   ({:.1} µs; first answer {:.3}s after open began)",
            took.as_secs_f64() * 1e6,
            boot.elapsed().as_secs_f64()
        );
        let s = engine.stats();
        println!(
            "page cache {} hit(s), {} miss(es)",
            s.page_cache_hits, s.page_cache_misses
        );
    } else {
        let snapshot = obtain_snapshot(path, &options)?;
        let labels = labels_of(&snapshot.labels);
        let (_, r, took) = query_engine(snapshot.estimator, &labels, (p, q))?;
        println!("R({p}, {q}) = {r}   ({:.1} µs)", took.as_secs_f64() * 1e6);
    }
    Ok(())
}

/// Answers one `(p, q)` pair of dataset ids through a cache-less
/// [`QueryEngine`] over `backend` — the path `batch` and `serve` answer
/// through, so `query` prints the bits they serve on either backend —
/// returning the engine, the resistance and the time the query took.
fn query_engine<B: ResistanceBackend>(
    backend: B,
    labels: &Option<Vec<u64>>,
    (p, q): (u64, u64),
) -> Result<(QueryEngine<B>, f64, Duration), CliError> {
    let map = label_map(labels);
    let dense = |id: u64| {
        resolve_node(id, labels, &map)
            .ok_or_else(|| CliError::Run(format!("node id {id} not in the dataset")))
    };
    let (dense_p, dense_q) = (dense(p)?, dense(q)?);
    let engine = QueryEngine::new(
        Arc::new(backend),
        EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );
    let start = Instant::now();
    let r = engine.query(dense_p, dense_q)?;
    Ok((engine, r, start.elapsed()))
}

/// Where a batch's pairs come from.
enum Source<'a> {
    Pairs(&'a PathBuf),
    Random(usize),
}

/// Resolves the batch source into dense node pairs.
fn build_batch(
    source: Source<'_>,
    labels: &Option<Vec<u64>>,
    map: &HashMap<u64, usize>,
    node_count: usize,
    seed: u64,
) -> Result<QueryBatch, CliError> {
    match source {
        Source::Pairs(file) => {
            let reader = effres_io::dataset::open_text(file)?;
            let raw = pairs::read_pairs(reader)?;
            let mut dense = Vec::with_capacity(raw.len());
            for &(p, q) in &raw {
                let dp = resolve_node(p, labels, map)
                    .ok_or_else(|| CliError::Run(format!("node id {p} not in the dataset")))?;
                let dq = resolve_node(q, labels, map)
                    .ok_or_else(|| CliError::Run(format!("node id {q} not in the dataset")))?;
                dense.push((dp, dq));
            }
            Ok(QueryBatch::from_pairs(dense))
        }
        Source::Random(count) => Ok(QueryBatch::random(count, node_count, seed)),
    }
}

/// Prints a batch summary (plus the per-batch page-traffic and scheduler
/// lines when the backend pages columns in from disk) and writes the result
/// file.
fn serve_batch(
    result: &effres_service::BatchResult,
    batch: &QueryBatch,
    labels: &Option<Vec<u64>>,
    output: Option<&Path>,
    pool_threads: usize,
) -> Result<(), CliError> {
    println!(
        "batch      {} queries in {:.3}s, {} chunk(s) on a {}-worker pool — {:.0} queries/s",
        batch.len(),
        result.elapsed.as_secs_f64(),
        result.threads,
        pool_threads,
        result.throughput()
    );
    println!(
        "cache      {} hits, {} misses",
        result.cache_hits, result.cache_misses
    );
    let k = result.kernel;
    if k.pairs() > 0 {
        println!(
            "kernel     {:.1} MiB streamed, {} hub load(s) × {:.1} pair(s)/hub column, \
             {} isolated pair(s), {} certified disjoint",
            k.bytes_streamed as f64 / (1024.0 * 1024.0),
            k.hub_loads,
            k.pairs_per_hub_load(),
            k.isolated_pairs,
            k.certified_pairs
        );
    }
    if let Some(page) = result.page_cache {
        // Per-batch traffic (the store counters' growth across the batch),
        // not process-lifetime totals.
        let lookups = page.hits + page.misses;
        println!(
            "page cache {} hits, {} misses ({:.1}% hit rate), {:.1} MiB read, \
             {} readahead read(s), {} column run(s), {} value read(s) — this batch",
            page.hits,
            page.misses,
            if lookups == 0 {
                100.0
            } else {
                100.0 * page.hits as f64 / lookups as f64
            },
            page.bytes_read as f64 / (1024.0 * 1024.0),
            page.readahead_reads,
            page.column_runs,
            page.value_reads
        );
    }
    if let Some(schedule) = result.schedule {
        println!(
            "schedule   {} page-pair cluster(s) -> {} lease round(s), {} pin(s)",
            schedule.clusters, schedule.blocks, schedule.windows
        );
    }
    let mean = if result.values.is_empty() {
        0.0
    } else {
        result.values.iter().sum::<f64>() / result.values.len() as f64
    };
    println!("mean R     {mean:.6}");

    if let Some(output) = output {
        let file = std::fs::File::create(output).map_err(IoError::Io)?;
        let mut writer = std::io::BufWriter::new(file);
        use std::io::Write;
        let original = |dense: usize| -> u64 {
            match labels {
                Some(labels) => labels[dense],
                None => dense as u64,
            }
        };
        for (&(p, q), &r) in batch.pairs().iter().zip(&result.values) {
            writeln!(writer, "{} {} {r}", original(p), original(q)).map_err(IoError::Io)?;
        }
        writer.flush().map_err(IoError::Io)?;
        println!("results    {}", output.display());
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), CliError> {
    let mut options = parse_options(args)?;
    let path = require_input(&options)?.to_path_buf();
    // Validate the batch source before the (potentially expensive) load.
    let source = match (&options.pairs_file, options.random) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--pairs and --random are mutually exclusive".into(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage(
                "batch needs --pairs <file> or --random <count>".into(),
            ))
        }
        (Some(file), None) => Source::Pairs(file),
        (None, Some(count)) => Source::Random(count),
    };
    // One persistent pool for the whole build-then-serve run: the
    // level-scheduled estimator build (dataset inputs) and the batch engine
    // reuse the same workers instead of each spawning their own. Sized for
    // the larger of the two stages (`0` on either flag means all cores).
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let resolve = |threads: usize| if threads == 0 { cores } else { threads };
    let pool = WorkerPool::new(resolve(options.threads).max(resolve(options.config.build.threads)));
    options.config = options.config.with_worker_pool(pool.clone());

    if options.paged {
        // Out-of-core serving: never materialize the arena. Cold start is
        // header + col_ptr only; the first answered query then additionally
        // pages in its two columns, so it is the honest time-to-first-query.
        let boot = Instant::now();
        let paged = obtain_paged(&path, &options)?;
        let labels = paged.labels.clone();
        return run_batch(paged, labels, source, &options, &pool, Some(boot));
    }
    let snapshot = obtain_snapshot(&path, &options)?;
    run_batch(
        snapshot.estimator,
        snapshot.labels,
        source,
        &options,
        &pool,
        None,
    )
}

/// The engine options every command serves with: the CLI's thread, cache
/// and admission flags on the shared worker pool (resident backends ignore
/// the paged-only knobs).
fn engine_options(options: &Options, pool: &WorkerPool) -> EngineOptions {
    EngineOptions {
        threads: options.threads,
        cache_capacity: options.cache,
        pool: Some(pool.clone()),
        admission_queue_depth: (options.admission_depth > 0).then_some(options.admission_depth),
        admission_timeout: Duration::from_millis(options.admission_timeout_ms),
        ..EngineOptions::default()
    }
}

/// Executes a batch the way a server does ([`QueryEngine::execute_with`]:
/// paged batches run through the locality scheduler, which clusters
/// queries by the pages they touch and pins each chunk of them once).
fn execute<B: ResistanceBackend>(
    engine: &QueryEngine<B>,
    batch: &QueryBatch,
) -> Result<BatchResult, CliError> {
    Ok(engine
        .execute_with(batch, &ExecOptions::default())
        .map_err(|abort| abort.error)?)
}

/// `batch` over an opened backend: resolves the pairs against its labels
/// (unless `--dense`), reports the cold start when `boot` says when opening
/// began, runs the batch and prints its summary.
fn run_batch<B: ResistanceBackend>(
    backend: B,
    labels: Option<Vec<u64>>,
    source: Source<'_>,
    options: &Options,
    pool: &WorkerPool,
    boot: Option<Instant>,
) -> Result<(), CliError> {
    let labels = if options.dense { None } else { labels };
    let map = label_map(&labels);
    let batch = build_batch(source, &labels, &map, backend.node_count(), options.seed)?;
    let engine = QueryEngine::new(Arc::new(backend), engine_options(options, pool));
    if let (Some(boot), Some(&(p, q))) = (boot, batch.pairs().first()) {
        engine.query(p, q)?;
        println!(
            "cold start first query answered {:.3}s after open began",
            boot.elapsed().as_secs_f64()
        );
    }
    let result = execute(&engine, &batch)?;
    serve_batch(
        &result,
        &batch,
        &labels,
        options.output.as_deref(),
        pool.threads(),
    )
}

/// `centrality <dataset>` — spanning-edge centrality of every edge,
/// `c(e) = min(w(e) · R(u, v), 1)`. The all-edges batch is the natural
/// stress workload for the grouped multi-pair kernels: an edge list shares
/// endpoints heavily, so after hub sorting most pairs ride a pinned hub
/// column instead of re-streaming it.
///
/// By default the estimator is built from the dataset; `--snapshot <file>`
/// serves the queries from a prebuilt snapshot instead (resident, or
/// out-of-core with `--paged`) while the dataset still supplies the edge
/// list — it must be the same dataset (same ingest options) the snapshot
/// was built from, so the dense id spaces line up.
fn cmd_centrality(args: &[String]) -> Result<(), CliError> {
    let mut options = parse_options(args)?;
    let path = require_input(&options)?.to_path_buf();
    if is_snapshot(&path) {
        return Err(CliError::Usage(
            "centrality needs the dataset for its edge list; pass a prebuilt snapshot \
             with --snapshot <file>"
                .into(),
        ));
    }
    if options.paged && options.snapshot.is_none() {
        return Err(CliError::Usage(
            "--paged serves a prebuilt snapshot; add --snapshot <file>".into(),
        ));
    }
    // One persistent pool for build-then-serve, exactly like `batch`.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let resolve = |threads: usize| if threads == 0 { cores } else { threads };
    let pool = WorkerPool::new(resolve(options.threads).max(resolve(options.config.build.threads)));
    options.config = options.config.with_worker_pool(pool.clone());

    let start = Instant::now();
    let ds = load_graph(&path, &options.ingest)?;
    println!(
        "ingested {} ({} nodes, {} edges kept) in {:.3}s",
        path.display(),
        ds.graph.node_count(),
        ds.graph.edge_count(),
        start.elapsed().as_secs_f64()
    );
    let graph = ds.graph;
    let batch = QueryBatch::all_edges(&graph);

    let check_nodes = |served: usize| -> Result<(), CliError> {
        if graph.node_count() > served {
            return Err(CliError::Run(format!(
                "snapshot covers {served} nodes but the dataset has {}; build the snapshot \
                 from this dataset with the same ingest options",
                graph.node_count()
            )));
        }
        Ok(())
    };
    let result = match options.snapshot.clone() {
        Some(snap) if options.paged => {
            let paged = obtain_paged(&snap, &options)?;
            check_nodes(paged.node_count())?;
            execute(
                &QueryEngine::new(Arc::new(paged), engine_options(&options, &pool)),
                &batch,
            )?
        }
        Some(snap) => {
            let snapshot = obtain_snapshot(&snap, &options)?;
            check_nodes(snapshot.estimator.node_count())?;
            execute(
                &QueryEngine::new(
                    Arc::new(snapshot.estimator),
                    engine_options(&options, &pool),
                ),
                &batch,
            )?
        }
        None => {
            let start = Instant::now();
            let estimator = EffectiveResistanceEstimator::build(&graph, &options.config)?;
            println!(
                "built estimator (factor nnz {}, inverse nnz {}) in {:.3}s",
                estimator.stats().factor_nnz,
                estimator.stats().inverse_nnz,
                start.elapsed().as_secs_f64()
            );
            execute(
                &QueryEngine::new(Arc::new(estimator), engine_options(&options, &pool)),
                &batch,
            )?
        }
    };

    let centralities = centralities_from_resistances(&graph, &result.values);
    println!(
        "centrality {} edge(s) in {:.3}s, {} chunk(s) on a {}-worker pool — {:.0} queries/s",
        batch.len(),
        result.elapsed.as_secs_f64(),
        result.threads,
        pool.threads(),
        result.throughput()
    );
    let k = result.kernel;
    if k.pairs() > 0 {
        println!(
            "kernel     {:.1} MiB streamed, {} hub load(s) × {:.1} pair(s)/hub column, \
             {} isolated pair(s), {} certified disjoint",
            k.bytes_streamed as f64 / (1024.0 * 1024.0),
            k.hub_loads,
            k.pairs_per_hub_load(),
            k.isolated_pairs,
            k.certified_pairs
        );
    }
    if let Some(page) = result.page_cache {
        let lookups = page.hits + page.misses;
        println!(
            "page cache {} hits, {} misses ({:.1}% hit rate), {:.1} MiB read — this batch",
            page.hits,
            page.misses,
            if lookups == 0 {
                100.0
            } else {
                100.0 * page.hits as f64 / lookups as f64
            },
            page.bytes_read as f64 / (1024.0 * 1024.0)
        );
    }
    if let Some(schedule) = result.schedule {
        println!(
            "schedule   {} page-pair cluster(s) -> {} lease round(s), {} pin(s)",
            schedule.clusters, schedule.blocks, schedule.windows
        );
    }
    // For exact resistances the centralities of a connected graph sum to
    // n − 1 (every spanning tree has n − 1 edges); the approximate sum
    // landing near it is a cheap whole-workload sanity check.
    let sum: f64 = centralities.iter().sum();
    println!(
        "sum        {sum:.3} (spanning-tree identity: n - 1 = {})",
        graph.node_count().saturating_sub(1)
    );

    if let Some(output) = &options.output {
        let file = std::fs::File::create(output).map_err(IoError::Io)?;
        let mut writer = std::io::BufWriter::new(file);
        use std::io::Write;
        for ((_, e), &c) in graph.edges().zip(&centralities) {
            writeln!(writer, "{} {} {c}", ds.labels[e.u], ds.labels[e.v]).map_err(IoError::Io)?;
        }
        writer.flush().map_err(IoError::Io)?;
        println!("results    {}", output.display());
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let path = require_input(&options)?;
    // `stats <host:port>` against something that is not a local file fetches
    // a live server's stats document instead.
    if !path.exists() {
        if let Some(addr) = path.to_str().filter(|s| s.contains(':')) {
            let mut client = Client::connect(addr)
                .map_err(|e| CliError::Run(format!("cannot connect to {addr}: {e}")))?;
            let stats = client
                .stats_json()
                .map_err(|e| CliError::Run(format!("stats request failed: {e}")))?;
            println!("{stats}");
            return Ok(());
        }
    }
    if options.paged {
        let paged = obtain_paged(path, &options)?;
        println!("snapshot   {} (paged)", path.display());
        println!("format     v3");
        let s = paged.stats;
        println!("nodes      {}", s.node_count);
        println!(
            "factor     {} nnz ({} dropped)",
            s.factor_nnz, s.ichol_dropped
        );
        println!(
            "inverse    {} nnz ({} pruned), nnz/(n·log2 n) = {:.3}",
            s.inverse_nnz, s.pruned_entries, s.inverse_nnz_ratio
        );
        let f = paged.store.footprint();
        println!(
            "on disk    col_ptr {:.1} MiB + rows {:.1} MiB + vals {:.1} MiB = {:.1} MiB \
             ({}-byte row indices)",
            mib(f.col_ptr_bytes),
            mib(f.rows_bytes),
            mib(f.vals_bytes),
            mib(f.total_bytes()),
            f.index_width_bytes
        );
        println!(
            "resident   {:.1} MiB (col_ptr/offset/norm blocks; columns page in on demand)",
            mib(paged.store.resident_bytes())
        );
        println!(
            "pages      {} column(s)/page, {} page(s) on disk, cache {} page(s)",
            paged.store.columns_per_page(),
            paged.store.page_count(),
            paged.store.cache_capacity_pages()
        );
        println!(
            "codec      {} rows, norms persisted",
            match paged.store.row_codec() {
                effres_io::RowCodec::Raw => "raw u32",
                effres_io::RowCodec::Varint => "delta-varint",
            }
        );
        println!("max depth  {}", s.max_depth);
        println!(
            "labels     {}",
            if paged.labels.is_some() { "yes" } else { "no" }
        );
        return Ok(());
    }
    if is_snapshot(path) {
        let snapshot = load_snapshot(path)?;
        println!("snapshot   {}", path.display());
        match snapshot.version {
            Some(v) => println!("format     v{v}"),
            None => println!("format     built in memory"),
        }
        print_estimator_stats(&snapshot.estimator);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let workers = if options.threads == 0 {
            cores
        } else {
            options.threads
        };
        println!("pool       {workers} worker thread(s) for build-then-serve (--threads)");
        println!(
            "labels     {}",
            if snapshot.labels.is_some() {
                "yes"
            } else {
                "no"
            }
        );
        Ok(())
    } else {
        cmd_load(args)
    }
}

/// Opens the served engine from a path, reporting the timings, and returns
/// it with the snapshot format version it came from — shared by `serve`
/// startup and `OP_RELOAD`, so a hot reload goes through exactly the code
/// path a fresh start would (on the same worker pool).
///
/// The server speaks dense node ids, so labels are not needed here; a
/// client that has dataset ids maps them with `query --dense` semantics.
type Opener<B> =
    fn(&Path, &Options, &WorkerPool) -> Result<(QueryEngine<B>, Option<u32>), CliError>;

/// The paged [`Opener`]: a snapshot served out of core.
fn open_paged_engine(
    path: &Path,
    options: &Options,
    pool: &WorkerPool,
) -> Result<(QueryEngine<PagedSnapshot>, Option<u32>), CliError> {
    let paged = obtain_paged(path, options)?;
    let engine = QueryEngine::new(Arc::new(paged), engine_options(options, pool));
    // `open_paged` serves v3 files only.
    Ok((engine, Some(3)))
}

/// The resident [`Opener`]: a snapshot loaded, or a dataset built, into
/// memory.
fn open_resident_engine(
    path: &Path,
    options: &Options,
    pool: &WorkerPool,
) -> Result<(QueryEngine, Option<u32>), CliError> {
    let snapshot = obtain_snapshot(path, options)?;
    let engine = QueryEngine::new(Arc::new(snapshot.estimator), engine_options(options, pool));
    Ok((engine, snapshot.version))
}

/// SIGINT/SIGTERM handling for `serve`, std-only: the handler just flips an
/// atomic (the only thing that is async-signal-safe to do), and a watcher
/// thread polls it and triggers the same graceful drain as `OP_SHUTDOWN`.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SEEN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SEEN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // `signal(2)` from the platform libc that std already links.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Registers the flag-setting handler for SIGINT and SIGTERM.
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// True once either signal has been delivered.
    pub fn seen() -> bool {
        SEEN.load(Ordering::SeqCst)
    }
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    if options.paged {
        serve(options, open_paged_engine)
    } else {
        serve(options, open_resident_engine)
    }
}

fn serve<B: ResistanceBackend>(options: Options, open: Opener<B>) -> Result<(), CliError> {
    let path = require_input(&options)?.to_path_buf();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = if options.threads == 0 {
        cores
    } else {
        options.threads
    };
    let pool = WorkerPool::new(workers);
    let (engine, version) = open(&path, &options, &pool)?;
    let addr = format!("{}:{}", options.host, options.port);
    let server_options = ServerOptions {
        frame_deadline: Duration::from_secs(options.frame_deadline_secs.max(1)),
        idle_deadline: Duration::from_secs(options.idle_deadline_secs.max(1)),
        drain_deadline: Duration::from_secs(options.drain_deadline_secs),
        scrub_bytes_per_sec: (options.scrub_mibps * 1024.0 * 1024.0) as u64,
        brownout_enter: options.brownout_enter,
        brownout_exit: options.brownout_exit,
    };
    let snapshot_path = is_snapshot(&path).then(|| path.clone());
    let server = Server::bind_with(&addr, engine, version, snapshot_path, server_options)
        .map_err(|e| CliError::Run(format!("cannot bind {addr}: {e}")))?;
    // Hot reloads reopen through the same opener with the same serve
    // options and the same worker pool; `options` moves into the closure
    // (nothing below needs it).
    {
        let pool = pool.clone();
        server.set_reloader(move |new_path: &Path| {
            open(new_path, &options, &pool).map_err(|e| match e {
                CliError::Usage(message) | CliError::Run(message) => message,
            })
        });
    }
    let served = match version {
        Some(v) => format!("snapshot v{v}"),
        None => "built in memory".to_string(),
    };
    let epoch = server.engine();
    println!(
        "serving on {} — {} nodes, {} backend, {served}, {workers} worker(s)",
        server.local_addr(),
        epoch.engine.node_count(),
        epoch.engine.backend().kind(),
    );
    println!(
        "stop with `effres-cli bench-client <addr> --requests 0 --shutdown`, SIGINT, or \
         SIGTERM — in-flight requests drain first"
    );
    #[cfg(unix)]
    let serving = Arc::new(std::sync::atomic::AtomicBool::new(true));
    #[cfg(unix)]
    {
        sig::install();
        let handle = server.handle();
        let serving = Arc::clone(&serving);
        std::thread::spawn(move || {
            while serving.load(MemOrder::Relaxed) {
                if sig::seen() {
                    eprintln!("signal received — draining in-flight requests");
                    handle.shutdown();
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
    }
    let stats = server
        .run()
        .map_err(|e| CliError::Run(format!("serve loop failed: {e}")))?;
    #[cfg(unix)]
    serving.store(false, MemOrder::Relaxed);
    println!("final stats {stats}");
    Ok(())
}

/// `ping <host:port>` — one round trip against a live server; exit code is
/// the health check (scriptable from cron or an orchestrator's liveness
/// probe).
fn cmd_ping(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let addr = require_input(&options)?
        .to_str()
        .ok_or_else(|| CliError::Usage("ping needs a <host:port> address".into()))?
        .to_string();
    let started = Instant::now();
    let mut client = Client::connect(addr.as_str())
        .map_err(|e| CliError::Run(format!("cannot connect to {addr}: {e}")))?;
    let report = client
        .ping()
        .map_err(|e| CliError::Run(format!("ping failed: {e}")))?;
    println!(
        "{addr} alive — {} backend, {} nodes, epoch {}, health {}{}, up {:.1}s \
         (round trip {:.1} ms)",
        if report.paged { "paged" } else { "resident" },
        report.node_count,
        report.epoch,
        report.health.as_str(),
        if report.brownout { " (brownout)" } else { "" },
        report.uptime_secs,
        started.elapsed().as_secs_f64() * 1e3
    );
    if let Some(snapshot) = &report.snapshot_path {
        println!("snapshot   {snapshot}");
    }
    Ok(())
}

/// `reload <host:port> <snapshot>` — hot-swap the served engine without
/// dropping a connection: in-flight requests finish on the old snapshot,
/// everything after the swap answers from the new one.
fn cmd_reload(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let addr = require_input(&options)?
        .to_str()
        .ok_or_else(|| CliError::Usage("reload needs a <host:port> address".into()))?
        .to_string();
    let [path] = options.positional.as_slice() else {
        return Err(CliError::Usage(
            "reload needs exactly `<host:port> <snapshot>`".into(),
        ));
    };
    let started = Instant::now();
    let mut client = Client::connect(addr.as_str())
        .map_err(|e| CliError::Run(format!("cannot connect to {addr}: {e}")))?;
    let report = client
        .reload(path)
        .map_err(|e| CliError::Run(format!("reload failed: {e}")))?;
    println!(
        "{addr} reloaded {path} — epoch {}, {} nodes, {} ({:.3}s)",
        report.epoch,
        report.node_count,
        match report.snapshot_version {
            Some(v) => format!("snapshot v{v}"),
            None => "built in memory".to_string(),
        },
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Per-connection batch outcomes under `--deadline-ms` (all zero without it).
#[derive(Default)]
struct DeadlineTally {
    batches: u64,
    ok_batches: u64,
    missed: u64,
    shed: u64,
}

fn cmd_bench_client(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let addr = require_input(&options)?
        .to_str()
        .ok_or_else(|| CliError::Usage("bench-client needs a <host:port> address".into()))?
        .to_string();
    let connect = |what: &str| -> Result<Client, CliError> {
        Client::connect(addr.as_str())
            .map_err(|e| CliError::Run(format!("cannot connect {what} to {addr}: {e}")))
    };
    let mut probe = connect("probe")?;
    let info = probe.info();
    println!(
        "server     {} — {} nodes, {} backend, {}",
        addr,
        info.node_count,
        if info.paged { "paged" } else { "resident" },
        match info.snapshot_version {
            Some(v) => format!("snapshot v{v}"),
            None => "built in memory".to_string(),
        }
    );
    if info.node_count < 2 {
        return Err(CliError::Run("server has fewer than two nodes".into()));
    }

    // ---- load phase: N connections, closed loop (or paced open loop) ----
    let latency = Arc::new(LatencyHistogram::new());
    let queries_done = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut workers = Vec::new();
    for connection in 0..options.connections {
        let addr = addr.clone();
        let latency = Arc::clone(&latency);
        let queries_done = Arc::clone(&queries_done);
        let node_count = info.node_count;
        let requests = options.requests;
        let batch = options.batch;
        let batch_every = options.batch_every.max(1);
        let rate = options.rate;
        let deadline_ms = options.deadline_ms;
        let mut rng = options.seed ^ (0x9E37 + connection as u64);
        workers.push(std::thread::spawn(
            move || -> Result<DeadlineTally, ClientError> {
                let mut client = Client::connect(addr.as_str())?;
                let mut tally = DeadlineTally::default();
                let begun = Instant::now();
                for request in 0..requests {
                    if rate > 0.0 {
                        // Open loop: stick to the schedule; if we are behind,
                        // fire immediately (no catch-up bursts beyond that).
                        let due = Duration::from_secs_f64(request as f64 / rate);
                        if let Some(pause) = due.checked_sub(begun.elapsed()) {
                            std::thread::sleep(pause);
                        }
                    }
                    let sent = Instant::now();
                    if batch > 0 && request % batch_every == batch_every - 1 {
                        let pairs: Vec<(u64, u64)> = (0..batch)
                            .map(|_| {
                                (
                                    splitmix64(&mut rng) % node_count,
                                    splitmix64(&mut rng) % node_count,
                                )
                            })
                            .collect();
                        tally.batches += 1;
                        let deadline =
                            (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
                        let outcome = client
                            .query_batch_with(&pairs, false, deadline)
                            .and_then(PartialBatch::into_values);
                        match outcome {
                            Ok(_) => {
                                tally.ok_batches += 1;
                                queries_done.fetch_add(batch as u64, MemOrder::Relaxed);
                            }
                            // Under a deadline, misses and sheds are the
                            // measurement, not a failure — count and go on.
                            Err(ClientError::DeadlineExceeded(_)) if deadline_ms > 0 => {
                                tally.missed += 1;
                            }
                            Err(ClientError::Busy(_)) if deadline_ms > 0 => {
                                tally.shed += 1;
                            }
                            Err(e) => return Err(e),
                        }
                    } else {
                        let p = splitmix64(&mut rng) % node_count;
                        let q = splitmix64(&mut rng) % node_count;
                        client.query(p, q)?;
                        queries_done.fetch_add(1, MemOrder::Relaxed);
                    }
                    latency.record(sent.elapsed());
                }
                Ok(tally)
            },
        ));
    }
    let mut failures = Vec::new();
    let mut tally = DeadlineTally::default();
    for (connection, worker) in workers.into_iter().enumerate() {
        match worker.join() {
            Ok(Ok(t)) => {
                tally.batches += t.batches;
                tally.ok_batches += t.ok_batches;
                tally.missed += t.missed;
                tally.shed += t.shed;
            }
            Ok(Err(e)) => failures.push(format!("connection {connection}: {e}")),
            Err(_) => failures.push(format!("connection {connection}: worker panicked")),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    if !failures.is_empty() {
        return Err(CliError::Run(failures.join("; ")));
    }

    let queries = queries_done.load(MemOrder::Relaxed);
    let snapshot = latency.snapshot();
    if options.requests > 0 {
        println!(
            "load       {} connection(s) × {} request(s), {} queries in {elapsed:.3}s \
             — {:.0} queries/s",
            options.connections,
            options.requests,
            queries,
            queries as f64 / elapsed.max(1e-9),
        );
        println!(
            "latency    p50 {} µs, p95 {} µs, p99 {} µs, max {} µs (mean {:.1} µs, \
             per request{})",
            snapshot.quantile_micros(0.50),
            snapshot.quantile_micros(0.95),
            snapshot.quantile_micros(0.99),
            snapshot.max_micros,
            snapshot.mean_micros(),
            if options.batch > 0 {
                "; batches count once"
            } else {
                ""
            }
        );
        if options.deadline_ms > 0 {
            let cancelled = tally.missed + tally.shed;
            println!(
                "deadline   {} ms budget — {} batch(es): {} ok, {} deadline-missed, \
                 {} shed busy ({:.1}% cancelled)",
                options.deadline_ms,
                tally.batches,
                tally.ok_batches,
                tally.missed,
                tally.shed,
                100.0 * cancelled as f64 / (tally.batches.max(1)) as f64,
            );
        }
    }

    // ---- check phase: deterministic pairs, greppable `p q R` lines ----
    if options.check > 0 {
        let mut rng = options.seed ^ 0xC0FFEE;
        for _ in 0..options.check {
            let p = splitmix64(&mut rng) % info.node_count;
            let q = splitmix64(&mut rng) % info.node_count;
            let value = probe
                .query(p, q)
                .map_err(|e| CliError::Run(format!("check query failed: {e}")))?;
            // f64 Display is shortest-roundtrip, so these lines compare
            // byte-for-byte against `effres-cli query --dense` output.
            println!("check {p} {q} {value}");
        }
    }

    let stats = probe
        .stats_json()
        .map_err(|e| CliError::Run(format!("stats request failed: {e}")))?;
    println!("server stats {stats}");

    if options.shutdown {
        probe
            .shutdown_server()
            .map_err(|e| CliError::Run(format!("shutdown request failed: {e}")))?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

/// SplitMix64: the bench client's deterministic id stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn print_estimator_stats(estimator: &EffectiveResistanceEstimator) {
    let s = estimator.stats();
    println!("nodes      {}", s.node_count);
    println!(
        "factor     {} nnz ({} dropped)",
        s.factor_nnz, s.ichol_dropped
    );
    println!(
        "inverse    {} nnz ({} pruned), nnz/(n·log2 n) = {:.3}",
        s.inverse_nnz, s.pruned_entries, s.inverse_nnz_ratio
    );
    // The arena footprint is what the query path actually streams; the row
    // block is the one the u32 index narrowing halved. The skeleton is the
    // row-bucket index a resident load derives from the rows.
    let f = estimator.approximate_inverse().footprint();
    println!(
        "arena      col_ptr {:.1} MiB + rows {:.1} MiB + vals {:.1} MiB + skeleton {:.1} MiB \
         = {:.1} MiB ({}-byte row indices)",
        mib(f.col_ptr_bytes),
        mib(f.rows_bytes),
        mib(f.vals_bytes),
        mib(f.skeleton_bytes),
        mib(f.total_bytes()),
        f.index_width_bytes
    );
    println!("max depth  {}", s.max_depth);
}
