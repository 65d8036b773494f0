//! Host-speed calibration.
//!
//! On a small virtual machine the host's other tenants change how fast
//! this process runs by up to 2× within a minute, with no steal time
//! reported: a fixed arithmetic loop and a fixed memory loop each ran
//! between 1× and 2× their quickest time over 60 s on a 2-vCPU KVM guest,
//! and the engine's all-edge sweep slowed with them. Run-to-run spreads of
//! 20–40% follow, wider than any bound a benchmark could hold.
//!
//! So the harness runs two fixed kernels of its own, on the same CPU as the
//! program, between the requests it times: random reads from 32 MiB (a
//! share of the 300 MB last-level cache the guest's host shares among its
//! tenants) and random reads from 256 MiB. The program's data, about
//! 150 MiB, sits in that cache when the other tenants leave room, so its
//! speed follows the cache share and memory bandwidth it gets. A sample's
//! speed is the geometric mean of how much faster than `NOMINAL_S` the two
//! kernels ran. Over 6-s windows of a minute of all-edge sweeps with the
//! other vCPU loaded on and off, this mean cut the spread of the sweep's
//! median time (sd of its log) from 0.13 to 0.07; adding an arithmetic
//! kernel tracked worse (0.08), and left normalised times of whole runs
//! still rising as the host slowed. End-to-end times are reported at the
//! reference speed (both kernels taking `NOMINAL_S`): each measured
//! interval is multiplied by the host's speed around it. Neither kernel
//! runs code under test, so the factor cannot hide a change in it.

use crate::util::median;
use std::time::Instant;

/// Buffers of the two memory kernels, in 8-byte words: 32 MiB and 256 MiB.
const CACHE_WORDS: usize = 4 << 20;
const MEMORY_WORDS: usize = 32 << 20;
/// Reads of each kernel, about `NOMINAL_S` each on the guest above when
/// its host was quiet.
const CACHE_READS: u64 = 100_000;
const MEMORY_READS: u64 = 75_000;
const NOMINAL_S: f64 = 1e-3;

/// The calibration kernels and the speed samples taken so far.
pub struct HostSpeed {
    cache: Vec<u64>,
    memory: Vec<u64>,
    origin: Instant,
    /// `(seconds since origin, speed)`, in time order.
    samples: Vec<(f64, f64)>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `reads` independent random reads from `words` (a power-of-two
/// length), so the memory system's parallelism counts as it does for the
/// program's column scans.
fn read_kernel(words: &[u64], reads: u64) -> u64 {
    let mask = words.len() as u64 - 1;
    let mut x = 0x0123_4567_89AB_CDEFu64;
    let mut acc = 0u64;
    for _ in 0..reads {
        acc = acc.wrapping_add(words[(xorshift(&mut x) & mask) as usize]);
    }
    acc
}

impl HostSpeed {
    /// Allocates and touches the memory kernels' buffers (so their pages
    /// are resident, not the shared zero page).
    pub fn new() -> HostSpeed {
        HostSpeed {
            cache: (0..CACHE_WORDS as u64).collect(),
            memory: (0..MEMORY_WORDS as u64).collect(),
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Resident size of the buffers, which `peak_rss_mib` of an in-process
    /// workload leaves out.
    pub fn buffer_mib(&self) -> f64 {
        ((CACHE_WORDS + MEMORY_WORDS) * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Runs the kernels once and records the host's speed.
    pub fn sample(&mut self) {
        let timed = |words: &[u64], reads: u64| {
            let start = Instant::now();
            std::hint::black_box(read_kernel(std::hint::black_box(words), reads));
            NOMINAL_S / start.elapsed().as_secs_f64()
        };
        let start = Instant::now();
        let cache = timed(&self.cache, CACHE_READS);
        let memory = timed(&self.memory, MEMORY_READS);
        let at = (start - self.origin).as_secs_f64();
        self.samples.push((at, (cache * memory).sqrt()));
    }

    /// Takes `count` samples in a row.
    pub fn samples(&mut self, count: usize) {
        for _ in 0..count {
            self.sample();
        }
    }

    /// The host's speed over `from..to`: the median of the samples taken
    /// within it and the two nearest on each side.
    pub fn speed_over(&self, from: Instant, to: Instant) -> f64 {
        let seconds = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let (from, to) = (seconds(from), seconds(to));
        let first = self.samples.partition_point(|&(at, _)| at < from);
        let last = self.samples.partition_point(|&(at, _)| at <= to);
        let around = &self.samples[first.saturating_sub(2)..(last + 2).min(self.samples.len())];
        assert!(!around.is_empty(), "no host-speed sample was taken");
        median(&around.iter().map(|&(_, speed)| speed).collect::<Vec<_>>())
    }

    /// The length of `from..to` in seconds at the reference speed.
    pub fn seconds(&self, from: Instant, to: Instant) -> f64 {
        (to - from).as_secs_f64() * self.speed_over(from, to)
    }

    /// Median speed over every sample of the run.
    pub fn median_speed(&self) -> f64 {
        median(
            &self
                .samples
                .iter()
                .map(|&(_, speed)| speed)
                .collect::<Vec<_>>(),
        )
    }
}
