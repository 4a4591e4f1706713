//! Self-test of the benchmark at smoke sizes (≈1 % of the Fig. 14 block,
//! 2 000 iterations, 5 ms horizon): every output check passes, every
//! virtual-time statistic, count and fingerprint repeats exactly on one
//! seed and moves with the seed, and every metric `BENCHMARK.json` names
//! is produced once with its unit. No assertion is about time.

use benchmark::compare::Spec;
use benchmark::report::Outcome;
use benchmark::{
    run_workload, Scale, Workload, BENCHMARK_JSON, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use std::collections::BTreeMap;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    benchmark::host::scrub_env();
    run_workload(workload, seed, Scale::Smoke, trace)
}

fn assert_checks(name: &str, out: &Outcome) {
    for c in &out.checks {
        assert!(c.ok, "{name}: check failed: {} ({})", c.name, c.detail);
    }
    assert_eq!(out.failed, 0, "{name}: failed operations");
    assert!(out.attempted > 0, "{name}: nothing attempted");
}

#[test]
fn workloads_repeat_exactly_on_a_seed_and_move_with_it() {
    for workload in Workload::ALL {
        let name = workload.name();
        let (a, b, other) = (
            smoke(workload, 14, false),
            smoke(workload, 14, false),
            smoke(workload, 15, false),
        );
        for out in [&a, &b, &other] {
            assert_checks(name, out);
            for (metric, unit) in END_TO_END {
                let m = out
                    .metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name}: no {metric}"));
                assert_eq!(m.unit, unit, "{name}: unit of {metric}");
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{name}: {metric} = {}",
                    m.value
                );
            }
            assert_eq!(out.metrics.len(), END_TO_END.len(), "{name}: stray metrics");
        }
        assert!(!a.exact.is_empty(), "{name}: no exact values");
        assert_eq!(
            a.exact, b.exact,
            "{name}: same seed, different simulated output"
        );
        assert_ne!(
            a.exact, other.exact,
            "{name}: the seed does not reach the inputs"
        );
    }
}

#[test]
fn local_and_remote_loops_end_in_the_same_configuration() {
    let local = smoke(Workload::ReactLocal, 14, false);
    let remote = smoke(Workload::ReactRemote, 14, false);
    let fingerprints = |out: &Outcome| -> BTreeMap<String, String> {
        out.exact
            .iter()
            .filter(|(k, _)| k.starts_with("config_fp.") || k.starts_with("entry_fp."))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    };
    assert_eq!(fingerprints(&local).len(), 10);
    assert_eq!(fingerprints(&local), fingerprints(&remote));
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    // The replays dominate a traced smoke run, so one packet-path and one
    // control-path workload stand for the four.
    for workload in [Workload::FabricFwd, Workload::ReactRemote] {
        let name = workload.name();
        let out = smoke(workload, 14, true);
        assert_checks(name, &out);
        for layer in &PER_LAYER {
            let m = out
                .metrics
                .get(layer.name)
                .unwrap_or_else(|| panic!("{name}: no {}", layer.name));
            assert_eq!(m.unit, layer.unit, "{name}: unit of {}", layer.name);
            assert!(m.value.is_finite(), "{name}: {} = {}", layer.name, m.value);
            // A part the workload does not run reads 0.
            if !layer.on.contains(&workload) {
                assert_eq!(m.value, 0.0, "{name}: {} is not its to measure", layer.name);
            }
        }
        assert_eq!(out.metrics.len(), PER_LAYER.len(), "{name}: stray metrics");
        // Shares and the stated remainder sum to 1 by construction.
        let sum: f64 = out
            .metrics
            .iter()
            .filter(|(k, _)| k.ends_with(".share") || *k == "bench.unattributed_share")
            .map(|(_, m)| m.value)
            .sum();
        assert!((sum - 1.0).abs() < 1e-9, "{name}: shares sum to {sum}");
        let spans = benchmark::out_dir().join(format!("trace-{name}.json"));
        assert!(
            spans.is_file(),
            "{name}: no span file at {}",
            spans.display()
        );
    }
}

#[test]
fn benchmark_json_names_exactly_the_metrics_the_harness_prints() {
    #[derive(serde::Deserialize)]
    struct Named {
        name: String,
        unit: String,
    }
    #[derive(serde::Deserialize)]
    struct Manifest {
        run_seconds: u64,
        workloads: Vec<WorkloadName>,
        per_layer: Vec<Named>,
    }
    #[derive(serde::Deserialize)]
    struct WorkloadName {
        name: String,
    }
    let spec: Spec = serde_json::from_str(BENCHMARK_JSON).expect("end_to_end parses");
    let manifest: Manifest = serde_json::from_str(BENCHMARK_JSON).expect("manifest parses");

    let e2e: Vec<(String, String)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, want);
    let layers: Vec<(String, String)> = manifest
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let want: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|l| (l.name.to_string(), l.unit.to_string()))
        .collect();
    assert_eq!(layers, want);
    let workloads: Vec<&str> = manifest.workloads.iter().map(|w| w.name.as_str()).collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, want);
    assert_eq!(manifest.run_seconds, RUN_SECONDS);
    assert!(spec
        .end_to_end
        .iter()
        .all(|m| m.bound > 0.0 && m.bound <= 0.25));
}

#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    for layer in &PER_LAYER {
        assert!(!layer.on.is_empty(), "{}: measured nowhere", layer.name);
        for (metric, _) in layer.moves {
            assert!(
                END_TO_END.iter().any(|(name, _)| name == metric),
                "{}: moves `{metric}`, which is not an end-to-end metric",
                layer.name
            );
        }
    }
}
