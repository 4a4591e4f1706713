//! What a run reports: named metrics with units, output checks, and the
//! values that must repeat exactly between two runs of one seed.

use crate::host::HostInfo;
use crate::stats::{min_per_index, summarize, Summary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

pub type Metrics = BTreeMap<String, MetricValue>;

/// Insert `name = value unit`.
pub fn put(metrics: &mut Metrics, name: impl Into<String>, value: f64, unit: &str) {
    metrics.insert(
        name.into(),
        MetricValue {
            value,
            unit: unit.into(),
        },
    );
}

/// One output check; a failed check fails the run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What one workload hands back to the harness.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (packets planned, iterations run) and how many
    /// of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The contract metrics of this run: end-to-end ones on an untraced
    /// run, per-layer ones on a traced run.
    pub metrics: Metrics,
    /// Virtual-time statistics, counts and fingerprints: identical between
    /// two runs of one seed on one commit, so two commits compare exactly.
    pub exact: BTreeMap<String, String>,
    /// Printed for the reader, never gated (tail percentiles with their
    /// sample counts, per-program breakdowns).
    pub info: Metrics,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn exact(&mut self, name: &str, value: impl ToString) {
        self.exact.insert(name.into(), value.to_string());
    }

    /// The tail of a wall-clock sample, for the reader: p99 and the highest
    /// percentile with ten samples beyond it, with the sample count.
    pub fn put_tail(&mut self, s: &Summary) {
        put(&mut self.info, "iter_us_p99", s.p99 as f64 / 1e3, "us");
        put(&mut self.info, "iter_us_ptail", s.ptail as f64 / 1e3, "us");
        put(&mut self.info, "iter_us_ptail_quantile", s.ptail_q, "1");
        put(&mut self.info, "iter_samples", s.n as f64, "count");
    }

    /// The timing metrics of a workload that advances a simulator in
    /// equal virtual slices, `series` holding one repetition's slice wall
    /// times each. Every repetition simulates the same slices, so each
    /// slice counts at its fastest reading over the repetitions (see
    /// [`min_per_index`]). Returns the wall seconds of one repetition so
    /// computed.
    pub fn put_sliced(&mut self, series: &[&[u64]], packets: u64, virt_ns: u64) -> f64 {
        let mut slices = min_per_index(series);
        let wall_s = slices.iter().sum::<u64>() as f64 / 1e9;
        // The ROADMAP's headline figure; the gated metric is its inverse
        // at the block's fixed virtual length.
        put(&mut self.info, "pkts_per_s", packets as f64 / wall_s, "1/s");
        put(
            &mut self.metrics,
            "wall_ms_per_virt_ms",
            wall_s * 1e9 / virt_ns as f64,
            "ms/ms",
        );
        let s = summarize(&mut slices);
        put(&mut self.metrics, "iter_us_p50", s.p50 as f64 / 1e3, "us");
        put(&mut self.metrics, "iter_us_p90", s.p90 as f64 / 1e3, "us");
        self.put_tail(&s);
        wall_s
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// One run as written to `benchmark/out/` and read back by `compare`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub host: HostInfo,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Metrics,
    pub exact: BTreeMap<String, String>,
    pub info: Metrics,
}

/// A set of runs (`benchmark all` writes one): every workload, untraced
/// repetitions first, then one traced run each.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunSet {
    pub label: String,
    pub runs: Vec<RunRecord>,
}

/// The line the driver parses: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
pub fn contract_line(rec: &RunRecord) -> String {
    let metrics: Vec<String> = rec
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.correct,
        rec.attempted,
        rec.failed,
        metrics.join(", ")
    )
}

/// A finite float in shortest round-trip form; non-finite values (which no
/// metric should produce) become 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Human-readable report: every metric by name with its unit, then the
/// exactly-repeating values, the checks and the host descriptor.
pub fn print_human(rec: &RunRecord) {
    let h = &rec.host;
    println!(
        "# workload {} seed {} seconds {} trace {}",
        rec.workload, rec.seed, rec.seconds, rec.trace as u8
    );
    println!(
        "# host cores={} rustc=\"{}\" profile={} commit={} load1={:.2}{}",
        h.cores,
        h.rustc,
        h.profile,
        h.commit,
        h.load1,
        if h.loaded {
            " LOADED (load above core count: timings suspect)"
        } else {
            ""
        }
    );
    for (name, m) in &rec.metrics {
        // A per-layer metric names the end-to-end metric it should move.
        let moves: Vec<String> = crate::PER_LAYER
            .iter()
            .filter(|l| l.name == name)
            .flat_map(|l| l.moves)
            .map(|(metric, w)| format!("{metric}@{}", w.name()))
            .collect();
        let arrow = if moves.is_empty() { "" } else { "  -> " };
        println!(
            "metric {name} = {} {}{arrow}{}",
            m.value,
            m.unit,
            moves.join(", ")
        );
    }
    for (name, m) in &rec.info {
        println!("info   {name} = {} {}", m.value, m.unit);
    }
    for (name, v) in &rec.exact {
        println!("exact  {name} = {v}");
    }
    for c in &rec.checks {
        println!(
            "check  {} {} {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!(
        "ops    attempted {} failed {} correct {}",
        rec.attempted, rec.failed, rec.correct
    );
}
