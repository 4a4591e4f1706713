//! Measurement utilities: time-bucketed series and the robust statistics
//! the use cases need (median, MAD, percentiles).
//!
//! Edge-case contract (tested below): every statistic returns `0.0` for
//! an empty slice, the element itself for a single-element slice, and
//! never panics on NaN inputs — NaN sorts after every finite value
//! (IEEE 754 `totalOrder`), so it can surface in results but cannot
//! crash a reduction.
//!
//! For live percentile tracking during a run, prefer the log-linear
//! histograms of [`mantis_telemetry`] (see [`BucketSeries::record_into`]
//! for bridging a finished series into the registry).

use mantis_telemetry::Telemetry;
use rmt_sim::Nanos;

/// Accumulates values into fixed-width time buckets (e.g. goodput
/// timelines for Fig. 15).
#[derive(Clone, Debug)]
pub struct BucketSeries {
    bucket_ns: Nanos,
    buckets: Vec<f64>,
}

impl BucketSeries {
    pub fn new(bucket_ns: Nanos) -> Self {
        assert!(bucket_ns > 0);
        BucketSeries {
            bucket_ns,
            buckets: Vec::new(),
        }
    }

    /// Add `value` at time `at`.
    pub fn add(&mut self, at: Nanos, value: f64) {
        let idx = (at / self.bucket_ns) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += value;
    }

    /// `(bucket_start_ns, sum)` pairs.
    pub fn series(&self) -> Vec<(Nanos, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, v)| (i as Nanos * self.bucket_ns, *v))
            .collect()
    }

    /// Convert a byte-count series into a rate series in bits/s.
    pub fn rate_bps(&self) -> Vec<(Nanos, f64)> {
        let secs = self.bucket_ns as f64 / 1e9;
        self.series()
            .into_iter()
            .map(|(t, bytes)| (t, bytes * 8.0 / secs))
            .collect()
    }

    pub fn bucket_ns(&self) -> Nanos {
        self.bucket_ns
    }

    /// Feed the per-bucket sums into a telemetry histogram (negative
    /// sums clamp to zero, fractions truncate), so snapshots report
    /// p50/p95/p99 of the series alongside the agent's metrics.
    pub fn record_into(&self, telemetry: &Telemetry, name: &str) {
        for (_, v) in self.series() {
            telemetry.hist_record(name, v.max(0.0) as u64);
        }
    }
}

/// Median of a slice (averaging the middle pair for even lengths).
/// Empty slices give `0.0`; NaN elements sort last and never panic.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// p-th percentile (0..=100) by nearest-rank. Empty slices give `0.0`;
/// a single-element slice gives that element at every `p`; NaN elements
/// sort last and never panic.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Mean absolute deviation about the mean. Empty slices give `0.0`; a
/// single-element slice has zero deviation.
///
/// The paper's §8.3.3 says "Median Absolute Deviation (MAD)" but cites an
/// online *mean* absolute deviation algorithm \[38]; the median variant is
/// degenerate for fully polarized traffic (a single hot port out of four
/// has MAD = 0), so the use case uses this mean-based deviation.
pub fn mean_abs_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).abs()).sum::<f64>() / xs.len() as f64
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate() {
        let mut s = BucketSeries::new(1_000);
        s.add(0, 10.0);
        s.add(999, 5.0);
        s.add(1_000, 1.0);
        s.add(5_500, 2.0);
        let series = s.series();
        assert_eq!(series[0], (0, 15.0));
        assert_eq!(series[1], (1_000, 1.0));
        assert_eq!(series[5], (5_000, 2.0));
        assert_eq!(series.len(), 6);
    }

    #[test]
    fn rate_conversion() {
        let mut s = BucketSeries::new(1_000_000); // 1 ms buckets
        s.add(0, 125_000.0); // 125 kB in 1 ms = 1 Gbps
        let r = s.rate_bps();
        assert!((r[0].1 - 1e9).abs() < 1.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_bounds() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 50.0), 51.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn mean_abs_dev_detects_single_outlier() {
        assert!(mean_abs_dev(&[100.0, 0.0, 0.0, 0.0]) > 0.0);
        assert_eq!(mean_abs_dev(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn mean_simple() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_bucket_width_panics() {
        let _ = BucketSeries::new(0);
    }

    #[test]
    fn single_element_slices() {
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(mean_abs_dev(&[7.5]), 0.0);
        assert_eq!(mean(&[7.5]), 7.5);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), 7.5);
        }
    }

    #[test]
    fn nan_inputs_do_not_panic() {
        let xs = [1.0, f64::NAN, 3.0];
        // NaN sorts last (total order): the median of three is the
        // finite middle value, and low percentiles stay finite.
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert!(percentile(&xs, 100.0).is_nan());
        // Reductions through NaN stay NaN rather than crashing.
        assert!(mean(&xs).is_nan());
        assert!(mean_abs_dev(&xs).is_nan());
    }

    #[test]
    fn all_nan_slice_is_safe() {
        let xs = [f64::NAN, f64::NAN];
        assert!(median(&xs).is_nan());
        assert!(percentile(&xs, 50.0).is_nan());
        let _ = mean_abs_dev(&xs);
    }

    #[test]
    fn series_bridges_into_telemetry_histograms() {
        let tel = mantis_telemetry::Telemetry::new(Default::default());
        let mut s = BucketSeries::new(1_000);
        s.add(0, 100.0);
        s.add(1_500, 300.0);
        s.add(2_500, -5.0); // clamps to 0
        s.record_into(&tel, "netsim.goodput_per_ms");
        let snap = tel.snapshot();
        let h = snap.hist("netsim.goodput_per_ms").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 300);
    }
}
