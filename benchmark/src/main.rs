//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark all [--seed n] [--seconds s] [--runs k] [--label l]
//! benchmark compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one process, and as the last line of standard output one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `all` runs every
//! workload that way in a fresh child process each (plain runs, then one
//! traced run per workload) and collects the records into
//! `benchmark/out/<label>.json`, which `compare` reads.

use benchmark::report::{contract_line, print_human, RunRecord, RunSet};
use benchmark::{
    compare, host, out_dir, record, run_workload, Scale, Workload, BENCHMARK_JSON, RUN_SECONDS,
};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  benchmark --workload <fabric_fwd|react_local|react_remote|reactive_fabric> \\
            --seed <n> --seconds <s> --trace <0|1>
  benchmark all [--seed <n>] [--seconds <s>] [--runs <k>] [--label <l>]
  benchmark compare <A.json> <B.json>";

/// `--name value` pairs, after any positional words.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = raw.next_if(|v| !v.starts_with("--"));
                    args.options.push((name.to_string(), value));
                }
                None => args.positional.push(a),
            }
        }
        args
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} wants a whole number, got `{v}`")),
        }
    }
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json<T: serde::Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where a single run's record goes; `all` reads it back from there.
fn record_path(workload: Workload, seed: u64, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "result-{}-seed{seed}-trace{}.json",
        workload.name(),
        trace as u8
    ))
}

/// One workload in this process: the contract's form.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.number("seed", 14)?;
    let seconds = args.number("seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    let trace = match args.value("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
    };
    let rec = record(
        workload,
        seed,
        seconds,
        trace,
        run_workload(workload, seed, Scale::Seconds(seconds), trace),
    );
    write_json(&record_path(workload, seed, trace), &rec)?;
    print_human(&rec);
    println!("{}", contract_line(&rec));
    Ok(if rec.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each run in a fresh child process.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", 14)?;
    let seconds = args.number("seconds", RUN_SECONDS)?;
    let runs = args.number("runs", 1)?.max(1);
    let label = args.value("label").unwrap_or("run").to_string();
    let out = out_dir().join(format!("{label}.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = RunSet {
        label,
        runs: Vec::new(),
    };
    let mut all_correct = true;
    for workload in Workload::ALL {
        // Plain runs on consecutive seeds, then one traced run.
        let plans = (0..runs).map(|i| (seed + i, false)).chain([(seed, true)]);
        for (run_seed, trace) in plans {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            set.runs.push(read_json::<RunRecord>(&record_path(
                workload, run_seed, trace,
            ))?);
        }
    }
    write_json(&out, &set)?;
    println!("# wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare wants two run files".into());
    };
    // The bounds are compiled in: a run file is judged by the
    // `BENCHMARK.json` of the commit that built this program.
    let spec: compare::Spec = serde_json::from_str(BENCHMARK_JSON).map_err(|e| e.to_string())?;
    let (a, b): (RunSet, RunSet) = (read_json(Path::new(a))?, read_json(Path::new(b))?);
    Ok(if compare::report(&spec, &a, &b) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Before any testbed is built and before any thread exists.
    host::scrub_env();
    let args = Args::parse(std::env::args().skip(1));
    let result = match args.positional.first().map(String::as_str) {
        None if args.value("workload").is_some() => run_one(&args),
        Some("all") => run_all(&args),
        Some("compare") => run_compare(&args),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
