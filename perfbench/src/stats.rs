//! Small numeric helpers: order statistics over raw samples, the
//! seeded input generator, registry deltas and the host's peak memory.

use a2a_obs::{HistogramSnapshot, RegistrySnapshot};

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Linear-interpolated quantile of `samples` (`q` in `[0, 1]`); 0 when
/// empty.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest quantile at or below `want` that still has
/// [`TAIL_SAMPLES`] samples beyond it, falling back to the median when
/// even that is not supported (a percentile is reported only where the
/// sample can carry it).
#[must_use]
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let max_q = 1.0 - TAIL_SAMPLES as f64 / n as f64;
    want.min(max_q).max(0.5)
}

/// SplitMix64: the benchmark's only source of randomness, so every
/// input is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `after − before` for one histogram (min/max are not recoverable
/// from a difference and are taken from `after`).
#[must_use]
pub fn hist_delta(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    name: &str,
) -> HistogramSnapshot {
    let mut out = after.histograms.get(name).cloned().unwrap_or_default();
    if let Some(b) = before.histograms.get(name) {
        out.count -= b.count;
        out.sum = out.sum.wrapping_sub(b.sum);
        for (o, x) in out.buckets.iter_mut().zip(&b.buckets) {
            *o -= x;
        }
    }
    out
}

/// `after − before` for one counter.
#[must_use]
pub fn counter_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    let get = |s: &RegistrySnapshot| s.counters.get(name).copied().unwrap_or(0);
    get(after) - get(before)
}

/// Sum of a histogram's samples.
#[must_use]
pub fn hist_sum(h: &HistogramSnapshot) -> f64 {
    h.sum as f64
}

/// Mean of a histogram's samples (0 when empty).
#[must_use]
pub fn hist_mean(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        assert!((supported_quantile(100, 0.99) - 0.90).abs() < 1e-12);
        assert_eq!(supported_quantile(12, 0.99), 0.5);
    }

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
