//! Regenerate every table and figure of the paper's evaluation (§8).
//!
//! ```sh
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- fig10a fig13 table1
//! cargo run --release -p bench --bin figures -- --quick --fuzz-budget 150 fuzz
//! ```
//!
//! Each figure prints a human-readable rendering and writes its raw series
//! to `results/<name>.json`. `--quick` runs every section at smoke size;
//! `--fuzz-budget N` sets how many programs `fuzz` generates.

use std::fs;
use std::path::Path;

/// Every figure name `figures` accepts.
const KNOWN: &str = "all fig10a fig10b fig11 fig12 fig13 fig14 fig15 fig16 table1 updates memo \
                     recirc ecmp rl telemetry perf scale faults fabric control chaos fuzz";

/// Upper clamp for `--fuzz-budget`, so a typo cannot make the campaign
/// unbounded.
const MAX_FUZZ_BUDGET: u64 = 100_000;

/// Read a command line into the figure names it asks for (none means
/// all), `--quick` (every section at smoke size) and `--fuzz-budget N`
/// (programs `fuzz` generates: a positive count clamped to
/// [`MAX_FUZZ_BUDGET`]; 500, or 60 with `--quick`, when absent). An
/// unknown word or a malformed count is an error, not a guess.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(Vec<String>, bool, u64), String> {
    let (mut names, mut unknown, mut quick, mut budget) = (Vec::new(), Vec::new(), false, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--fuzz-budget" => {
                let raw = args.next().unwrap_or_default();
                let n = (raw.trim().parse::<u64>().ok().filter(|&n| n > 0))
                    .ok_or(format!("--fuzz-budget {raw:?} is not a positive count"))?;
                if n > MAX_FUZZ_BUDGET {
                    eprintln!("warning: --fuzz-budget {n} clamped to {MAX_FUZZ_BUDGET}");
                }
                budget = Some(n.min(MAX_FUZZ_BUDGET));
            }
            name if KNOWN.split(' ').any(|k| k == name) => names.push(arg),
            _ => unknown.push(arg),
        }
    }
    if !unknown.is_empty() {
        let known = KNOWN.replace(' ', ", ");
        let flags = "--quick, --fuzz-budget N";
        return Err(format!(
            "unknown name(s) {unknown:?}; known: {known}; flags: {flags}"
        ));
    }
    Ok((names, quick, budget.unwrap_or(if quick { 60 } else { 500 })))
}

fn main() {
    let (names, quick, fuzz_budget) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let size = if quick { "quick" } else { "full" };
    let all = names.is_empty() || names.iter().any(|a| a == "all");
    let want = |name: &str| all || names.iter().any(|a| a == name);
    fs::create_dir_all("results").expect("create results/");

    if want("fig10a") {
        let series = bench::fig10a();
        save("fig10a", &series);
        println!("== Fig. 10a — measurement latency vs bytes read ==");
        for s in &series {
            println!("  {}", s.label);
            for (x, y) in &s.points {
                println!("    {:>6} B  {:>8.2} µs", x, y);
            }
        }
        println!();
    }

    if want("fig10b") {
        let series = bench::fig10b();
        save("fig10b", &series);
        println!("== Fig. 10b — update latency vs number of updates ==");
        for s in &series {
            println!("  {}", s.label);
            for (x, y) in &s.points {
                println!("    {:>4} updates  {:>9.2} µs", x, y);
            }
        }
        println!();
    }

    if want("fig11") {
        let s = bench::fig11();
        save("fig11", &s);
        println!("== Fig. 11 — CPU utilization vs reaction interval ==");
        for (util, interval) in &s.points {
            println!(
                "    {:>6.1}% CPU  →  {:>8.1} µs between reactions",
                util, interval
            );
        }
        println!();
    }

    if want("fig12") {
        let r = bench::fig12(400, 11);
        save("fig12", &r);
        println!("== Fig. 12 — concurrent legacy table update latency ==");
        println!(
            "    without Mantis: median {:>6.2} µs   p99 {:>6.2} µs",
            r.without_median_us, r.without_p99_us
        );
        println!(
            "    with Mantis:    median {:>6.2} µs   p99 {:>6.2} µs",
            r.with_mantis_median_us, r.with_mantis_p99_us
        );
        println!(
            "    overhead: median {:+.2}%  p99 {:+.2}%   (paper: 4.64% / 6.45%)",
            r.median_overhead_pct, r.p99_overhead_pct
        );
        println!();
    }

    if want("fig13") {
        let series = bench::fig13();
        save("fig13", &series);
        println!("== Fig. 13 — malleable-field TCAM usage ==");
        for s in &series {
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|(x, y)| format!("{x:.0}:{y:.1}KB"))
                .collect();
            println!("    {:<38} {}", s.label, pts.join("  "));
        }
        println!();
    }

    if want("fig14") {
        // Scaled trace: 40 K flows (paper: 370 K) against proportionally
        // scaled sketches; see DESIGN.md.
        let r = bench::fig14(40_000, 7);
        save("fig14", &r);
        println!(
            "== Fig. 14 — estimation error ({} flows, {} packets) ==",
            r.trace_flows, r.trace_packets
        );
        for e in &r.estimators {
            println!(
                "    {:<22} mean rel err {:>8.3}   traffic-weighted {:>7.3}",
                e.name, e.mean_rel_error, e.weighted_rel_error
            );
            let small = e.buckets.first().map(|(_, v)| *v).unwrap_or(0.0);
            let large = e.buckets.last().map(|(_, v)| *v).unwrap_or(0.0);
            println!(
                "    {:<22} small flows {:>8.3}        large flows {:>8.3}",
                "", small, large
            );
        }
        println!();
    }

    if want("fig15") {
        let r = bench::fig15();
        save("fig15", &r);
        println!("== Fig. 15 — DoS mitigation timeline ==");
        println!(
            "    mitigation latency: {} µs (paper: ~100 µs)",
            r.mitigation_latency_ns.map(|v| v / 1000).unwrap_or(0)
        );
        for ((t, legit), (_, attacker)) in r.legit_goodput.iter().zip(r.attacker_goodput.iter()) {
            println!(
                "    {:>5} µs  legit {:>6.2} Gbps  attacker {:>6.2} Gbps",
                t / 1000,
                legit / 1e9,
                attacker / 1e9
            );
        }
        println!();
    }

    if want("fig16") {
        let r = bench::fig16();
        save("fig16", &r);
        println!("== Fig. 16 — failover reaction time ==");
        for (td, mean, min, max) in &r.by_td {
            println!(
                "    T_d = {:>4.0} µs: {:>6.1} µs mean ({:.1}..{:.1})",
                td, mean, min, max
            );
        }
        for (eta, t) in &r.by_eta {
            println!("    η = {:.1}: {:>6.1} µs", eta, t);
        }
        println!();
    }

    if want("table1") {
        let rows = bench::table1();
        save("table1", &rows);
        println!("== Table 1 — use-case resources ==");
        print!("{}", mantis_apps::table1::render(&rows));
        println!();
    }

    if want("updates") {
        let rows = bench::update_protocols();
        save("update_protocols", &rows);
        println!("== §5.1.2 — two-phase vs Mantis update protocol ==");
        for r in &rows {
            println!(
                "    config {:>5} entries, {:>3} changed: two-phase {:>9.1} µs (space ×{:.0})  \
                 Mantis {:>7.1} µs (space ×{:.0})",
                r.total_entries,
                r.changed_entries,
                r.two_phase_us,
                r.two_phase_space_factor,
                r.mantis_us,
                r.mantis_space_factor
            );
        }
        println!();
    }

    if want("memo") {
        let r = bench::memoization_ablation();
        save("memoization", &r);
        println!("== §6 ablation — driver memoization ==");
        println!(
            "    first iteration {:.1} µs → steady state {:.1} µs ({:.2}× speedup)",
            r.cold_iteration_us, r.warm_iteration_us, r.speedup
        );
        println!();
    }

    if want("recirc") {
        let s = bench::recirc_penalty();
        save("recirc", &s);
        println!("== §2 — recirculation throughput penalty ==");
        for (r, f) in &s.points {
            println!(
                "    {r:.0} recirculations → {:>5.1}% usable throughput",
                f * 100.0
            );
        }
        println!();
    }

    if want("ecmp") {
        let r = bench::ecmp_experiment();
        save(
            "ecmp",
            &serde_json::json!({
                "imbalance_before": r.imbalance_before,
                "imbalance_after": r.imbalance_after,
                "first_shift_us": r.first_shift_ns.map(|t| t / 1000),
                "final_counts": r.final_counts,
            }),
        );
        println!("== §8.3.3 — hash polarization mitigation ==");
        println!(
            "    imbalance {:.2} → {:.2} after shifting at {:?} µs; final counts {:?}",
            r.imbalance_before,
            r.imbalance_after,
            r.first_shift_ns.map(|t| t / 1000),
            r.final_counts
        );
        println!();
    }

    if want("telemetry") {
        let (trace, snapshot, profile) = bench::telemetry_profile(100, 20_000);
        fs::write("results/telemetry_trace.json", &trace).expect("write trace");
        fs::write("results/telemetry_snapshot.json", &snapshot).expect("write snapshot");
        save("telemetry_profile", &profile);
        println!("== Telemetry — reaction-loop profile ==");
        println!(
            "    {} iterations, busy {} µs, utilization {:.1}%",
            profile.iterations,
            profile.busy_ns / 1000,
            profile.utilization * 100.0
        );
        for (phase, p50, p95, p99) in &profile.phase_quantiles {
            println!(
                "    phase {:<10} p50 {:>7} ns  p95 {:>7} ns  p99 {:>7} ns",
                phase, p50, p95, p99
            );
        }
        for (op, calls, p50, p95, p99) in &profile.driver_ops {
            println!(
                "    driver {:<16} ×{:<6} p50 {:>7} ns  p95 {:>7} ns  p99 {:>7} ns",
                op, calls, p50, p95, p99
            );
        }
        for (table, lookups, hits) in &profile.table_stats {
            println!(
                "    table  {:<16} lookups {:>7}  hits {:>7}",
                table, lookups, hits
            );
        }
        for (reaction, dispatched) in &profile.reaction_vm {
            println!(
                "    vm     {:<16} dispatched {:>9} ops",
                reaction, dispatched
            );
        }
        println!("    (trace: results/telemetry_trace.json — open in Perfetto)");
        println!();
    }

    if want("perf") {
        let r = bench::perf::run(quick);
        save("perf", &r);
        merge_bench_perf("data", &r);
        println!("== Perf — fast-path wall-clock throughput ({size}) ==");
        for lb in [&r.exact, &r.lpm, &r.ternary] {
            println!(
                "    {:<8} {:>5} entries: indexed {:>11.0}/s  linear {:>10.0}/s  speedup {:>6.1}x",
                lb.workload,
                lb.entries,
                lb.indexed_lookups_per_sec,
                lb.linear_lookups_per_sec,
                lb.speedup
            );
        }
        println!(
            "    reactions ({} ops):   VM {:>11.0}/s  walker {:>10.0}/s  speedup {:>6.1}x",
            r.reactions.body_ops,
            r.reactions.vm_runs_per_sec,
            r.reactions.walker_runs_per_sec,
            r.reactions.speedup
        );
        println!();
    }

    if want("scale") {
        let r = bench::scale::run(quick);
        save("scale", &r);
        merge_bench_perf("scale", &r);
        println!("== Scale — internet-scale traffic engine ({size}) ==");
        println!(
            "    {}x{} leaf-spine, {} hosts: {} flows, {} packets over {:.1} s virtual",
            r.leaves,
            r.spines,
            r.hosts,
            r.headline.flows,
            r.headline.injected_pkts,
            r.headline.virtual_secs
        );
        println!(
            "    headline: {:>12.0} pkts/s  (wall {:.2} s, {} accepted)",
            r.headline.pkts_per_sec, r.headline.wall_secs, r.headline.accepted_pkts
        );
        println!(
            "    mean batch {:.1} (max {}), wheel slots {}, arena {} B",
            r.gauges.mean_batch, r.gauges.max_batch, r.gauges.wheel_slots, r.gauges.arena_bytes
        );
        println!();
    }

    if want("faults") {
        let r = bench::faults::run(quick);
        save("faults", &r);
        println!("== Fault tolerance — recovery under injected faults ({size}) ==");
        println!(
            "    failover reaction time: fault-free {:>6.1} µs   faulted {:>6.1} µs",
            r.fault_free_reaction_ns as f64 / 1000.0,
            r.faulted_reaction_ns as f64 / 1000.0
        );
        println!(
            "    injected {} faults; {} retries, {} rollbacks; converged equal: {}",
            r.faults_injected, r.retries, r.rollbacks, r.converged_equal
        );
        println!(
            "    quarantine: {:?} ({} skips); healthy reaction ran {} more iterations",
            r.quarantined, r.quarantine_skips, r.other_reaction_iterations
        );
        println!();
    }

    if want("fabric") {
        let r = bench::fabric::run(quick);
        save("fabric", &r);
        println!("== Fabric — failover convergence & goodput vs topology size ({size}) ==");
        for p in &r.failover {
            println!(
                "    {}x{} leaf-spine ({} switches): convergence {:>7.1} µs, resume {:>7.1} µs, \
                 delivered {} → {} (goodput restored {:.2})",
                p.leaves,
                p.spines,
                p.switches,
                p.convergence_ns as f64 / 1000.0,
                p.resume_ns.map_or(f64::NAN, |t| t as f64 / 1000.0),
                p.delivered_before,
                p.delivered_after,
                p.goodput_restored
            );
        }
        println!(
            "    ecmp end-to-end: per-spine {:?}, delivered {}/{} (max/min {:.2})",
            r.ecmp.per_spine_tx, r.ecmp.delivered, r.ecmp.sent, r.ecmp.max_over_min
        );
        println!();
    }

    if want("control") {
        let r = bench::control::run(quick);
        save("control", &r);
        println!("== Control plane — wire latency, batching, failover ({size}) ==");
        println!(
            "    local baseline: {:>8.1} ns/iteration ({} table mods each)",
            r.local_iteration_ns, r.mods_per_iteration
        );
        for p in &r.rtt_sweep {
            println!(
                "    rtt {:>6.1} µs: {:>8.1} µs/iteration, {:.1} frames/iteration",
                p.rtt_ns as f64 / 1000.0,
                p.iteration_ns / 1000.0,
                p.frames_per_iteration
            );
        }
        println!(
            "    batching @ rtt {} µs: {:>8.1} µs vs {:>8.1} µs one-op-per-frame ({:.2}x, {} vs {} frames)",
            r.batching.rtt_ns / 1000,
            r.batching.batched_iteration_ns / 1000.0,
            r.batching.unbatched_iteration_ns / 1000.0,
            r.batching.speedup,
            r.batching.batched_frames,
            r.batching.unbatched_frames
        );
        for f in &r.failover {
            println!(
                "    failover @ lease {:>6} µs: converged in {:>8.1} µs ({} standby attempts)",
                f.lease_ns / 1000,
                f.convergence_ns as f64 / 1000.0,
                f.standby_attempts
            );
        }
        println!();
    }

    if want("chaos") {
        let r = bench::chaos::run(quick);
        save("chaos", &r);
        merge_bench_perf("chaos", &r);
        println!("== Chaos — seeded fault schedules vs invariant oracles ({size}) ==");
        println!(
            "    {} seeds: {} fabric trials ({} fingerprint-checked), {} mastership trials",
            r.seeds_run, r.fabric_trials, r.fingerprint_checked, r.mastership_trials
        );
        println!(
            "    fabric: {} crashes, {} restarts; reconcile mean {:>7.1} µs  max {:>7.1} µs",
            r.fabric_crashes,
            r.fabric_restarts,
            r.mean_reconcile_ns / 1000.0,
            r.max_reconcile_ns as f64 / 1000.0
        );
        println!(
            "    mastership: {} controller crashes, {} recoveries, {} failovers",
            r.ctl_crashes, r.ctl_recoveries, r.ctl_failovers
        );
        if r.violations.is_empty() {
            println!("    invariant violations: none");
        } else {
            println!("    invariant violations: {}", r.violations.len());
            for v in &r.violations {
                println!(
                    "      seed {} [{}] {}: {}",
                    v.seed, v.scenario, v.oracle, v.detail
                );
            }
            for p in &r.corpus_written {
                println!("      shrunk repro written: {p}");
            }
        }
        println!();
    }

    if want("fuzz") {
        let r = bench::fuzz::run(quick, fuzz_budget);
        save("fuzz", &r);
        println!("== Fuzz — differential compiler/interpreter campaign ({size}) ==");
        println!(
            "    {} programs generated (seeds {}..{}): {} compiled, {} rejected with a diagnostic",
            r.generated,
            r.seed_base,
            r.seed_base + r.budget,
            r.compiled,
            r.rejected
        );
        if r.divergences.is_empty() {
            println!("    divergences: none");
        } else {
            println!("    divergences: {}", r.divergences.len());
            for d in &r.divergences {
                println!(
                    "      seed {} ({} → {} stmts): {}",
                    d.seed, d.original_stmts, d.minimized_stmts, d.detail
                );
            }
            for p in &r.corpus_written {
                println!("      minimized repro written: {p}");
            }
        }
        println!();
    }

    if want("rl") {
        let r = bench::rl_experiment();
        save("rl", &r);
        println!("== §8.3.4 — RL threshold tuning ==");
        println!(
            "    learned reward {:.3} → {:.3}",
            r.learned_early, r.learned_late
        );
        for (t, reward) in &r.fixed {
            println!("    fixed {:>6} B: {:.3}", t, reward);
        }
        println!();
    }
}

fn save<T: serde::Serialize>(name: &str, value: &T) {
    let path = Path::new("results").join(format!("{name}.json"));
    fs::write(&path, bench::to_json(name, value)).expect("write figure data");
    eprintln!("(wrote {})", path.display());
}

/// Read–modify–write one section of the repo-root `BENCH_perf.json` so
/// the perf, chaos and scale sections can coexist in it.
fn merge_bench_perf<T: serde::Serialize>(section: &str, value: &T) {
    let existing = fs::read_to_string("BENCH_perf.json").ok();
    fs::write(
        "BENCH_perf.json",
        bench::merge_bench_perf(existing.as_deref(), section, value),
    )
    .expect("write BENCH_perf.json");
    eprintln!("(wrote BENCH_perf.json [{section}])");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Vec<String>, bool, u64), String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn fuzz_budgets_parse_clamp_and_refuse_garbage() {
        let budget = |args: &[&str]| parse(args).map(|(_, _, budget)| budget);
        // Absent: the default of the size asked for.
        assert_eq!(budget(&["fuzz"]), Ok(500));
        assert_eq!(budget(&["--quick", "fuzz"]), Ok(60));
        // Well-formed values parse, including ones beyond u16.
        assert_eq!(budget(&["--fuzz-budget", "70000"]), Ok(70_000));
        assert_eq!(budget(&["--fuzz-budget", " 150 ", "--quick"]), Ok(150));
        // Values above the cap clamp loudly; garbage, zero and a missing
        // value are errors.
        assert_eq!(
            budget(&["--fuzz-budget", "999999999999"]),
            Ok(MAX_FUZZ_BUDGET)
        );
        for bad in ["abc", "", "0", "-2", "4.5", "1e5"] {
            let err = budget(&["--fuzz-budget", bad]).unwrap_err();
            assert!(err.contains("not a positive count"), "{bad:?}: {err}");
        }
        assert!(budget(&["fuzz", "--fuzz-budget"]).is_err());
    }

    #[test]
    fn names_and_flags_mix_in_any_order() {
        let (names, quick, _) = parse(&["perf", "--quick", "table1"]).unwrap();
        assert_eq!((names, quick), (vec!["perf".into(), "table1".into()], true));
        let err = parse(&["perf", "--quik", "fig99"]).unwrap_err();
        assert!(err.contains(r#"["--quik", "fig99"]"#), "{err}");
        assert!(parse(&[]).unwrap().0.is_empty());
    }
}
