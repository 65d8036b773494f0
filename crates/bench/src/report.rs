//! Machine-readable benchmark reports.
//!
//! Every perf-critical bench binary emits a `BENCH_<name>.json` file at the
//! repository root alongside its human-readable output, so the performance
//! trajectory of the workspace can be tracked across PRs by diffing or
//! collecting those files. The format is plain JSON built from [`Json`]
//! values, the same writer the server's stats document uses — no external
//! dependencies, deterministic key order.

pub use effres_server::json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// Writes `BENCH_<name>.json` at the repository root, wrapping `body` with
/// the bench name and a capture timestamp. Returns the path written.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn write_report(name: &str, body: Json) -> std::io::Result<PathBuf> {
    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let report = Json::Obj(vec![
        ("bench", Json::Str(name.to_string())),
        ("unix_seconds", Json::Int(unix_seconds)),
        ("report", body),
    ]);
    let path = repo_root().join(format!("BENCH_{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(report.render().as_bytes())?;
    file.write_all(b"\n")?;
    Ok(path)
}

/// Wall-clock seconds of repeated runs of one routine: the sample count
/// and the spread, not just the best run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Number of timed runs.
    pub n: usize,
    /// Fastest run.
    pub min: f64,
    /// Median run (the mean of the middle two for an even count).
    pub median: f64,
    /// Slowest run.
    pub max: f64,
}

impl Sample {
    /// Times `routine` for `samples` runs (at least one), after one
    /// untimed warm-up when `warm_up` is set.
    pub fn time<O>(samples: usize, warm_up: bool, mut routine: impl FnMut() -> O) -> Sample {
        if warm_up {
            std::hint::black_box(routine());
        }
        Sample::of(
            (0..samples.max(1))
                .map(|_| {
                    let start = std::time::Instant::now();
                    std::hint::black_box(routine());
                    start.elapsed().as_secs_f64()
                })
                .collect(),
        )
    }

    /// The sample of runs timed elsewhere (for routines timed interleaved
    /// with others).
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is empty.
    pub fn of(mut seconds: Vec<f64>) -> Sample {
        assert!(!seconds.is_empty(), "a sample needs at least one run");
        seconds.sort_unstable_by(f64::total_cmp);
        let n = seconds.len();
        Sample {
            n,
            min: seconds[0],
            median: (seconds[(n - 1) / 2] + seconds[n / 2]) / 2.0,
            max: seconds[n - 1],
        }
    }

    /// The sample with every run multiplied by `factor` (seconds per batch
    /// into nanoseconds per pair, say).
    pub fn scaled(&self, factor: f64) -> Sample {
        Sample {
            n: self.n,
            min: self.min * factor,
            median: self.median * factor,
            max: self.max * factor,
        }
    }

    /// The sample as a JSON object with `n`, `min`, `median` and `max`
    /// (seconds, or the unit [`Sample::scaled`] turned them into).
    pub fn json(&self) -> Json {
        Json::Obj(vec![
            ("n", Json::Int(self.n as u64)),
            ("min", Json::Num(self.min)),
            ("median", Json::Num(self.median)),
            ("max", Json::Num(self.max)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_contains_the_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").is_file());
        assert!(repo_root().join("crates/bench").is_dir());
    }

    #[test]
    fn sample_orders_its_spread() {
        let mut calls = 0;
        let sample = Sample::time(4, true, || {
            calls += 1;
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(calls, 5, "one warm-up plus four timed runs");
        assert_eq!(sample.n, 4);
        assert!(sample.min <= sample.median && sample.median <= sample.max);
        assert!(sample.max < 1.0);
        let rendered = sample.json().render();
        assert!(rendered.starts_with(r#"{"n":4,"min":"#), "{rendered}");
    }

    #[test]
    fn sample_of_runs_timed_elsewhere() {
        let sample = Sample::of(vec![3.0, 1.0, 4.0, 2.0]);
        assert_eq!((sample.n, sample.min, sample.max), (4, 1.0, 4.0));
        assert_eq!(sample.median, 2.5);
        let per_pair = sample.scaled(0.5);
        assert_eq!(
            (per_pair.min, per_pair.median, per_pair.max),
            (0.5, 1.25, 2.0)
        );
    }
}
