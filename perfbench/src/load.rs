//! The load generator: one caller in a closed loop, on the same CPU as the
//! program, with host-speed samples taken between requests.

use crate::host::HostSpeed;
use crate::util::{median, quantile, tail_quantile};
use std::time::{Duration, Instant};

/// Longest stretch of requests between two host-speed samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// One answered request.
#[derive(Clone, Copy)]
pub struct Sample {
    pub pairs: usize,
    /// As measured.
    pub raw_ms: f64,
    /// At the reference speed (see [`HostSpeed`]).
    pub latency_ms: f64,
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    pub fn raw_p50_ms(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.raw_ms).collect::<Vec<_>>())
    }

    /// Median and tail latency at the reference speed (see
    /// [`tail_quantile`]; panics on fewer than `MIN_TAIL_SAMPLES`).
    pub fn p50_and_tail(&self) -> (f64, f64) {
        let latencies = self.latencies_ms();
        (
            median(&latencies),
            quantile(&latencies, tail_quantile(latencies.len())),
        )
    }

    /// Answered pairs per second the caller spent waiting, at the
    /// reference speed. One caller in a closed loop waits on the program
    /// the whole time, so this is the program's throughput.
    pub fn pairs_per_second(&self) -> f64 {
        let pairs: usize = self.samples.iter().map(|s| s.pairs).sum();
        let seconds: f64 = self.samples.iter().map(|s| s.latency_ms).sum::<f64>() / 1e3;
        pairs as f64 / seconds
    }
}

/// Sends request `0, 1, 2, …` through `call`, each as soon as the previous
/// one is answered, until `duration` has passed and at least `min_answers`
/// requests were answered (so a tail can be taken from them). A program too
/// slow to answer that many within three times `duration` plus 10 s is
/// stopped there. `call` returns the number of pairs answered.
pub fn closed_loop(
    host: &mut HostSpeed,
    duration: Duration,
    min_answers: usize,
    mut call: impl FnMut(u64) -> Result<usize, String>,
) -> Phase {
    let start = Instant::now();
    let end = start + duration;
    let hard_end = start + duration * 3 + Duration::from_secs(10);
    let mut phase = Phase::default();
    let mut timed = Vec::new();
    host.sample();
    let mut sampled = Instant::now();
    loop {
        let now = Instant::now();
        if now >= hard_end || (now >= end && timed.len() >= min_answers) {
            break;
        }
        if now - sampled >= SAMPLE_EVERY {
            host.sample();
            sampled = Instant::now();
        }
        let sent = Instant::now();
        let outcome = call(phase.attempted);
        let done = Instant::now();
        phase.attempted += 1;
        match outcome {
            Ok(pairs) => timed.push((sent, done, pairs)),
            Err(e) => {
                phase.failed += 1;
                eprintln!("request {} failed: {e}", phase.attempted - 1);
            }
        }
    }
    host.sample();
    phase.samples = timed
        .into_iter()
        .map(|(sent, done, pairs)| Sample {
            pairs,
            raw_ms: (done - sent).as_secs_f64() * 1e3,
            latency_ms: host.seconds(sent, done) * 1e3,
        })
        .collect();
    phase
}
