//! Order statistics over wall-clock samples. Every timing the benchmark
//! reports is an order statistic of many samples, never a single reading,
//! so that one descheduled slice does not move it. The helpers
//! are the benchmark's own even where `netsim::metrics` has a twin: the
//! statistics behind a bound must not change with the code under test.

/// Sort `xs` and return the value at quantile `q` (nearest rank, `q` in
/// `[0, 1]`). Returns 0 for an empty sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of floats (mean of the middle pair on even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per index, the minimum over `series` (all of one length): the same
/// deterministic work timed once per series. Host interference only ever
/// adds time, so the fastest of the readings is the one nearest the cost
/// of the work itself; it is disturbed only if every series was disturbed
/// at that index.
pub fn min_per_index(series: &[&[u64]]) -> Vec<u64> {
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| series.iter().map(|s| s[i]).min().unwrap_or(0))
        .collect()
}

/// Wall seconds of one call of `f`, which does the same work every time:
/// the median over `samples` samples, each the fastest of `per_sample`
/// consecutive calls.
pub fn median_of_fastest(samples: usize, per_sample: usize, mut f: impl FnMut()) -> f64 {
    let fastest: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            (0..per_sample.max(1))
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    f();
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    median(&fastest)
}

/// Geometric mean; the way per-program numbers combine into one metric so
/// that no program's scale dominates.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter()
        .map(|x| x.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / xs.len() as f64)
        .exp()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), so `compare` judges spread the way the driver does.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, linearly interpolated and clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// A percentile summary of one sample of wall-clock nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub n: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// The highest percentile with at least ten samples beyond it, and
    /// which one it is (as a fraction). With fewer than 20 samples this
    /// falls back to the median.
    pub ptail: u64,
    pub ptail_q: f64,
}

/// Summarise `samples` (consumed: sorted in place).
pub fn summarize(samples: &mut [u64]) -> Summary {
    samples.sort_unstable();
    let n = samples.len();
    if n == 0 {
        return Summary::default();
    }
    let ptail_q = if n >= 20 {
        (n - 10) as f64 / n as f64
    } else {
        0.5
    };
    Summary {
        n: n as u64,
        p50: quantile_sorted(samples, 0.50),
        p90: quantile_sorted(samples, 0.90),
        p99: quantile_sorted(samples, 0.99),
        ptail: quantile_sorted(samples, ptail_q),
        ptail_q,
    }
}

/// Incremental FNV-1a (64-bit) — enough to witness byte-identity of a
/// run's observable output.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let mut xs: Vec<u64> = (1..=1000).collect();
        let s = summarize(&mut xs);
        assert_eq!((s.p50, s.p90, s.p99), (500, 900, 990));
        assert_eq!(s.ptail, 990);
        assert!((s.ptail_q - 0.99).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(
            min_per_index(&[&[1, 50, 3], &[2, 5, 30], &[9, 6, 4]]),
            vec![1, 5, 3]
        );
    }
}
