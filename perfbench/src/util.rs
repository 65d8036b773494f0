//! Small shared helpers: sample statistics, a seeded generator, a stable
//! hash, process memory, CPU affinity, and the stats-document reader.

use std::path::Path;

/// Percentile of raw samples by the nearest-rank rule (`q` in `0..=1`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Fewest samples a tail is taken from. At 40 the tail is p75 with ten
/// samples beyond it; every phase that reports a tail collects at least
/// this many.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The tail percentile of `n` samples: p90, or lower when fewer than ten
/// samples would lie beyond p90, and never below p75. Higher percentiles
/// of a run this short measure the host's scheduling stalls (milliseconds
/// on a small virtual machine) more than the program, and do not repeat.
///
/// Panics when `n < MIN_TAIL_SAMPLES`: such a "tail" would sit at or near
/// the median.
pub fn tail_quantile(n: usize) -> f64 {
    assert!(
        n >= MIN_TAIL_SAMPLES,
        "a tail needs at least {MIN_TAIL_SAMPLES} samples, got {n}"
    );
    (1.0 - 10.0 / n as f64).min(0.9)
}

/// One-line summary of latency samples for the run log.
pub fn describe(samples: &[f64]) -> String {
    format!(
        "n={} p50={:.3} p75={:.3} p90={:.3} max={:.3} ms",
        samples.len(),
        quantile(samples, 0.5),
        quantile(samples, 0.75),
        quantile(samples, 0.9),
        quantile(samples, 1.0)
    )
}

/// SplitMix64 step: the benchmark's only source of randomness, so every
/// input is a pure function of `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generator state derived from the run seed, a stream tag and an index,
/// so request `i` of a phase is the same whichever thread sends it.
pub fn stream_state(seed: u64, tag: u64, index: u64) -> u64 {
    let mut state = seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    state ^= splitmix64(&mut index.clone());
    splitmix64(&mut state)
}

/// Uniform draw in `0..bound`.
pub fn below(state: &mut u64, bound: u64) -> u64 {
    ((u128::from(splitmix64(state)) * u128::from(bound)) >> 64) as u64
}

/// A random pair of distinct nodes of `0..nodes`.
pub fn random_pair(state: &mut u64, nodes: u64) -> (u64, u64) {
    loop {
        let p = below(state, nodes);
        let q = below(state, nodes);
        if p != q {
            return (p, q);
        }
    }
}

/// 64-bit FNV-1a, stable across toolchains (used for fingerprints and
/// cache keys).
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn u64(self, value: u64) -> Self {
        self.bytes(&value.to_le_bytes())
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(Path::new("/proc").join(pid).join("status"))
        .expect("read /proc status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .expect("VmHWM in /proc status");
    kib / 1024.0
}

/// A Linux CPU set (`cpu_set_t`: 1,024 bits).
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process, and every thread and process it starts later, to
/// the highest-numbered CPU it may use, and returns that CPU. The host
/// speeds of a guest's virtual CPUs differ and drift apart, and a request
/// that wakes a thread on another idle virtual CPU waits for the host to
/// schedule it; on one CPU every measured interval runs at one speed,
/// which [`crate::host::HostSpeed`] samples on that same CPU. With one CPU
/// allowed, `available_parallelism` is 1 for the program too.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut allowed: CpuMask = [0; 16];
    // SAFETY: `allowed` is a live buffer of exactly the size passed, which
    // the kernel fills; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), allowed.as_mut_ptr()) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("no CPU allowed"))?;
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which the kernel only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Reads the number after `"key":` in the server's stats document. Keys
/// are unique within the document for every field read here.
pub fn stats_number(stats: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let start = stats
        .find(&needle)
        .unwrap_or_else(|| panic!("stats document lacks {key}: {stats}"))
        + needle.len();
    stats[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("stats field {key} is not a number"))
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
