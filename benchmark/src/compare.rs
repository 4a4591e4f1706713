//! `benchmark compare A.json B.json`: per workload and end-to-end metric,
//! both medians, the delta, the bound from `BENCHMARK.json` and a verdict.
//! It is what the A/A acceptance check runs and what parent-vs-change
//! pairs use; the exactly-repeating values are compared for equality.

use crate::report::{RunRecord, RunSet};
use crate::stats::{median, quartiles};
use serde::Deserialize;
use std::collections::BTreeSet;

/// The part of `BENCHMARK.json` `compare` needs.
#[derive(Clone, Debug, Deserialize)]
pub struct Spec {
    pub end_to_end: Vec<SpecMetric>,
}

#[derive(Clone, Debug, Deserialize)]
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    /// A side's own runs spread wider than the bound, and the sides'
    /// ranges overlap: the data cannot tell.
    Unresolved,
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Interquartile range over the median; the full range for fewer than
/// four values, zero for one.
fn spread(xs: &[f64]) -> f64 {
    let m = median(xs).abs().max(f64::MIN_POSITIVE);
    match xs.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (hi - lo) / m
        }
        _ => quartiles(xs).map_or(0.0, |(q1, _, q3)| (q3 - q1) / m),
    }
}

fn values(set: &RunSet, workload: &str, metric: &str) -> Vec<f64> {
    set.runs
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.get(metric).map(|m| m.value))
        .collect()
}

pub fn judge(spec: &Spec, a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in &a.runs {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        for m in &spec.end_to_end {
            let (xa, xb) = (values(a, w, &m.name), values(b, w, &m.name));
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&xa), median(&xb));
            let worse_by = if m.better == "higher" {
                (ma - mb) / ma.abs().max(f64::MIN_POSITIVE)
            } else {
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE)
            };
            let sp = spread(&xa).max(spread(&xb));
            // Every run of one side better than every run of the other
            // settles it even under a wide spread.
            let (min, max) = (
                |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min),
                |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            );
            let (b_dominates, a_dominates) = if m.better == "higher" {
                (min(&xb) > max(&xa), min(&xa) > max(&xb))
            } else {
                (max(&xb) < min(&xa), max(&xa) < min(&xb))
            };
            let verdict = if a_dominates && worse_by > m.bound {
                Verdict::Worse
            } else if sp > m.bound && !b_dominates {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Worse
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: w.into(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                a: ma,
                b: mb,
                worse_by,
                bound: m.bound,
                spread: sp,
                verdict,
            });
        }
    }
    rows
}

/// Exactly-repeating values that differ between the two sets, as
/// `(workload, name, a, b)`. Compared only between runs of equal seed and
/// size, first such pair per workload and trace mode.
pub fn exact_diffs(a: &RunSet, b: &RunSet) -> Vec<(String, String, String, String)> {
    let mut diffs = Vec::new();
    let mut seen: BTreeSet<(String, bool)> = BTreeSet::new();
    for ra in &a.runs {
        let same = |rb: &&RunRecord| {
            rb.workload == ra.workload
                && rb.trace == ra.trace
                && rb.seed == ra.seed
                && rb.seconds == ra.seconds
        };
        let Some(rb) = b.runs.iter().find(same) else {
            continue;
        };
        if !seen.insert((ra.workload.clone(), ra.trace)) {
            continue;
        }
        for (name, va) in &ra.exact {
            let vb = rb
                .exact
                .get(name)
                .cloned()
                .unwrap_or_else(|| "<absent>".into());
            if *va != vb {
                diffs.push((ra.workload.clone(), name.clone(), va.clone(), vb));
            }
        }
    }
    diffs
}

/// Print the table; returns true when nothing is worse and every exact
/// value agrees.
pub fn report(spec: &Spec, a: &RunSet, b: &RunSet) -> bool {
    let rows = judge(spec, a, b);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", a.label, b.label, "worse by", "bound", "spread"
    );
    for r in &rows {
        println!(
            "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}% {:>7.2}%  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread * 100.0,
            match r.verdict {
                Verdict::Within => "within",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let diffs = exact_diffs(a, b);
    for (w, name, va, vb) in &diffs {
        println!("exact value differs: {w} {name}: {va} vs {vb}");
    }
    if diffs.is_empty() {
        println!("every virtual-time statistic, count and fingerprint agrees");
    }
    let incorrect = a.runs.iter().chain(&b.runs).filter(|r| !r.correct).count();
    if incorrect > 0 {
        println!("{incorrect} run(s) failed their output checks");
    }
    rows.iter().all(|r| r.verdict != Verdict::Worse) && diffs.is_empty() && incorrect == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostInfo;
    use crate::report::{put, Metrics};
    use std::collections::BTreeMap;

    fn set(label: &str, pkts: &[f64]) -> RunSet {
        RunSet {
            label: label.into(),
            runs: pkts
                .iter()
                .map(|v| {
                    let mut metrics = Metrics::new();
                    put(&mut metrics, "rate", *v, "1/s");
                    RunRecord {
                        workload: "fabric_fwd".into(),
                        seed: 14,
                        seconds: 20,
                        trace: false,
                        host: HostInfo::default(),
                        correct: true,
                        attempted: 1,
                        failed: 0,
                        checks: vec![],
                        metrics,
                        exact: BTreeMap::new(),
                        info: Metrics::new(),
                    }
                })
                .collect(),
        }
    }

    fn spec() -> Spec {
        Spec {
            end_to_end: vec![SpecMetric {
                name: "rate".into(),
                unit: "1/s".into(),
                better: "higher".into(),
                bound: 0.05,
            }],
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = set("a", &[100.0, 101.0, 99.0]);
        let v = |b: &[f64]| judge(&spec(), &base, &set("b", b))[0].verdict;
        assert_eq!(v(&[98.0, 99.0, 100.0]), Verdict::Within);
        assert_eq!(v(&[90.0, 91.0, 89.0]), Verdict::Worse);
        // A noisy side cannot be told apart from a regression...
        assert_eq!(v(&[80.0, 100.0, 95.0]), Verdict::Unresolved);
        // ...unless every one of its runs beats every baseline run...
        assert_eq!(v(&[120.0, 150.0, 135.0]), Verdict::Within);
        // ...or loses to every baseline run: a regression that also
        // raises the variance is still a regression.
        assert_eq!(v(&[40.0, 50.0, 60.0]), Verdict::Worse);
    }
}
