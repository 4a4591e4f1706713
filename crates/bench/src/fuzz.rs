//! Differential compiler/interpreter fuzzing (`figures -- fuzz`).
//!
//! A seeded campaign generates random P4R programs
//! ([`p4r_compiler::generate`]), compiles each through the typed IR
//! pipeline, and differentially executes every program that compiles on
//! all three backends:
//!
//! * **pure engines** — the AST tree-walker vs the bytecode VM against
//!   identically seeded [`MockEnv`]s, across several step limits and
//!   repeated runs (statics covered), comparing results/errors, malleable
//!   writes, table-op logs, and array state;
//! * **testbed** — two complete rmt-sim testbeds built from the same
//!   source and fed identical packets: one agent registers its reactions
//!   the way every agent does (the VM), the other has the reference walker
//!   registered from outside ([`register_reference_walker`]); after every
//!   dialogue iteration the malleable slots and the config/entry
//!   fingerprints must agree.
//!
//! A program that fails to compile must be *rejected with a diagnostic*
//! (never a panic) and is counted, not executed. One that compiles must
//! compile on the VM too: a refusal is a divergence. A divergence is
//! minimized with the generic [`ddmin`] over the generated statement list
//! and written to `tests/fuzz_corpus/*.p4r`, which the regression suite
//! replays.

use mantis::p4r_compiler::generate::{generate, GenConfig, GenProgram};
use mantis::p4r_lang::creact::parse_body;
use mantis::reaction_interp::{CompiledReaction, Interpreter, MockEnv};
use mantis::{compile_source, AgentError, CompilerOptions, MantisAgent};
use mantis::{NativeReaction, ReactionCtx, Testbed};
use mantis_faults::ddmin;
use serde::Serialize;
use std::path::PathBuf;

/// Step limits swept in the pure-engine differential: tight (mid-loop
/// aborts), medium, and effectively unbounded for the generated sizes.
const STEP_LIMITS: [u64; 3] = [29, 997, 200_000];
/// Repeat runs per engine pair (statics persist across runs).
const RUNS: u32 = 3;
/// Step budget for testbed-registered reactions (runaway `while (1)`
/// loops abort identically instead of spinning 50M steps).
const TB_STEP_LIMIT: u64 = 100_000;
/// Dialogue iterations per testbed differential.
const TB_ITERS: u32 = 3;

/// Outcome of differentially executing one program.
#[derive(Clone, Debug, Default)]
pub struct CaseOutcome {
    /// Compile-time rejection (the expected outcome for generated
    /// programs with undeclared names); `None` when it compiled.
    pub rejected: Option<String>,
    /// First observed behavioral divergence between backends (a VM that
    /// refuses a body the pipeline accepted included).
    pub divergence: Option<String>,
}

/// Compile and differentially execute one P4R source.
pub fn run_case(src: &str) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    let compiled = match compile_source(src, &CompilerOptions::default()) {
        Ok(c) => c,
        Err(e) => {
            out.rejected = Some(e.to_string());
            return out;
        }
    };

    // Stage 1: pure-engine differential, per reaction binding.
    for binding in &compiled.iface.reactions {
        let body = match parse_body(&binding.body_src) {
            Ok(b) => b,
            Err(e) => {
                // A compiled program whose body no longer parses is itself
                // a pipeline bug.
                out.divergence = Some(format!(
                    "reaction `{}`: compiled body_src fails to re-parse: {e}",
                    binding.name
                ));
                return out;
            }
        };
        let mk_env = || {
            let mut env = MockEnv::default();
            for (i, f) in binding.fields.iter().enumerate() {
                let max = 1i128 << u32::from(f.width).min(30);
                env.scalars
                    .insert(f.binding.clone(), (i as i128 * 37 + 13) % max);
            }
            for (i, r) in binding.registers.iter().enumerate() {
                let len = (r.hi - r.lo + 1) as usize;
                let max = 1i128 << u32::from(r.width).min(30);
                let vals: Vec<i128> = (0..len)
                    .map(|j| ((i as i128 + 1) * 101 + j as i128 * 17) % max)
                    .collect();
                env.arrays
                    .insert(r.binding.clone(), (i128::from(r.lo), vals));
            }
            for v in &compiled.iface.values {
                env.mbls.insert(v.name.clone(), v.init.bits() as i128);
            }
            env
        };
        for limit in STEP_LIMITS {
            if let Err(d) = pure_parity(&binding.name, &body, mk_env(), limit) {
                out.divergence = Some(d);
                return out;
            }
        }
    }

    // Stage 2: full-testbed differential, the agent's VM against the
    // reference walker.
    out.divergence = testbed_parity(src, &compiled.iface).err();
    out
}

/// The reference tree-walker as a reaction an agent runs. No agent reaches
/// the walker by itself; a harness that wants one driven through a real
/// `ReactionCtx` registers it from outside, like any native reaction.
struct ReferenceWalker(Interpreter);

impl NativeReaction for ReferenceWalker {
    fn react(&mut self, ctx: &mut ReactionCtx<'_>) -> Result<(), AgentError> {
        // The error goes out as the agent would have raised it for its own
        // executor, so the twins' failure strings compare byte for byte.
        self.0.run(ctx).map(|_| ()).map_err(AgentError::from)
    }
}

/// Register every reaction of `agent`'s program on the reference walker,
/// each with step budget `step_limit` — what
/// `register_all_interpreted` + `set_reaction_step_limits` is for the VM.
pub fn register_reference_walker(
    agent: &mut MantisAgent,
    step_limit: u64,
) -> Result<(), AgentError> {
    for i in 0..agent.iface.reactions.len() {
        let binding = &agent.iface.reactions[i];
        let body = parse_body(&binding.body_src).expect("the compiler parsed this body");
        let mut walker = Interpreter::new(body);
        walker.step_limit = step_limit;
        let name = binding.name.clone();
        agent.register_native(&name, Box::new(ReferenceWalker(walker)))?;
    }
    Ok(())
}

/// Walker-vs-VM parity on fresh engine instances under one step limit,
/// `RUNS` consecutive runs on the same instances/envs.
fn pure_parity(
    name: &str,
    body: &mantis::p4r_lang::creact::Body,
    env_seed: MockEnv,
    limit: u64,
) -> Result<(), String> {
    // Totality is part of the oracle: the pipeline accepted this body.
    let mut vm = CompiledReaction::compile(body).map_err(|e| {
        format!("reaction `{name}`: the VM refuses a body the pipeline accepted: {e}")
    })?;
    let mut walker = Interpreter::new(body.clone());
    vm.step_limit = limit;
    walker.step_limit = limit;
    let mut env_vm = env_seed.clone();
    let mut env_walker = env_seed;
    for run in 0..RUNS {
        let r_vm = vm.run(&mut env_vm);
        let r_walker = walker.run(&mut env_walker);
        let whence = format!("reaction `{name}` run {run} @ step limit {limit}");
        if r_vm != r_walker {
            return Err(format!(
                "{whence}: result diverged: vm {r_vm:?} vs walker {r_walker:?}"
            ));
        }
        if env_vm.mbls != env_walker.mbls {
            return Err(format!(
                "{whence}: malleable writes diverged: vm {:?} vs walker {:?}",
                env_vm.mbls, env_walker.mbls
            ));
        }
        if env_vm.table_ops != env_walker.table_ops {
            return Err(format!(
                "{whence}: table ops diverged: vm {:?} vs walker {:?}",
                env_vm.table_ops, env_walker.table_ops
            ));
        }
        if env_vm.arrays != env_walker.arrays {
            return Err(format!("{whence}: array state diverged"));
        }
    }
    Ok(())
}

/// Two testbeds from the same source, the agent's VM vs the reference
/// walker registered from outside, identical packets, compared after every
/// dialogue iteration.
fn testbed_parity(
    src: &str,
    iface: &mantis::p4r_compiler::iface::ControlInterface,
) -> Result<(), String> {
    let (tb_w, tb_v) = match (Testbed::from_p4r(src), Testbed::from_p4r(src)) {
        (Ok(a), Ok(b)) => (a, b),
        // Compiled but not loadable (e.g. resource overflow): nothing to
        // compare — both builds fail identically by construction.
        _ => return Ok(()),
    };
    register_reference_walker(&mut tb_w.agent.borrow_mut(), TB_STEP_LIMIT)
        .map_err(|e| format!("walker registration failed: {e}"))?;
    {
        let mut agent = tb_v.agent.borrow_mut();
        agent
            .register_all_interpreted()
            .map_err(|e| format!("vm registration failed: {e}"))?;
        agent.set_reaction_step_limits(TB_STEP_LIMIT);
    }

    for i in 0..TB_ITERS {
        let v = u128::from(i);
        for tb in [&tb_w, &tb_v] {
            tb.sim.switch().borrow_mut().inject(
                &mantis::rmt_sim::PacketDesc::new(0)
                    .field("pkt", "f0", (v * 37 + 13) % 200)
                    .field("pkt", "f1", (v * 101 + 7) % 200)
                    .field("pkt", "f2", (v * 5 + 3) % 200)
                    .payload(64),
            );
        }
        let r_w = tb_w.agent.borrow_mut().dialogue_iteration();
        let r_v = tb_v.agent.borrow_mut().dialogue_iteration();
        let err_w = r_w.err().map(|e| e.to_string());
        let err_v = r_v.err().map(|e| e.to_string());
        if err_w != err_v {
            return Err(format!(
                "iteration {i}: outcome diverged: vm {err_v:?} vs walker {err_w:?}"
            ));
        }
        for mv in &iface.values {
            let s_w = tb_w.agent.borrow().slot(&mv.name);
            let s_v = tb_v.agent.borrow().slot(&mv.name);
            if s_w != s_v {
                return Err(format!(
                    "iteration {i}: malleable `{}` diverged: vm {s_v:?} vs walker {s_w:?}",
                    mv.name
                ));
            }
        }
        let (cf_w, cf_v) = (
            tb_w.agent.borrow().config_fingerprint(),
            tb_v.agent.borrow().config_fingerprint(),
        );
        if cf_w != cf_v {
            return Err(format!(
                "iteration {i}: config fingerprint diverged: vm {cf_v:#x} vs walker {cf_w:#x}"
            ));
        }
        let (ef_w, ef_v) = (
            tb_w.agent.borrow().entry_fingerprint(),
            tb_v.agent.borrow().entry_fingerprint(),
        );
        if ef_w != ef_v {
            return Err(format!(
                "iteration {i}: entry fingerprint diverged: vm {ef_v:#x} vs walker {ef_w:#x}"
            ));
        }
    }
    Ok(())
}

/// One divergence found by the campaign.
#[derive(Clone, Debug, Serialize)]
pub struct Divergence {
    pub seed: u64,
    pub detail: String,
    /// Minimized statement count (original body length in parens).
    pub minimized_stmts: usize,
    pub original_stmts: usize,
}

/// Everything `results/fuzz.json` reports.
#[derive(Clone, Debug, Serialize)]
pub struct FuzzReport {
    /// First seed of the campaign (seeds are `base..base + budget`).
    pub seed_base: u64,
    /// Programs generated.
    pub budget: u64,
    pub quick: bool,
    pub generated: u64,
    /// Programs that compiled through the IR pipeline.
    pub compiled: u64,
    /// Programs rejected with a diagnostic (expected for the generator's
    /// deliberate undeclared-name corner).
    pub rejected: u64,
    pub divergences: Vec<Divergence>,
    /// Minimized repro files written (none on a clean campaign).
    pub corpus_written: Vec<String>,
}

fn corpus_path(seed: u64) -> PathBuf {
    PathBuf::from("tests")
        .join("fuzz_corpus")
        .join(format!("fuzz_{seed}.p4r"))
}

/// Minimize a diverging program with ddmin over its statement list and
/// write the repro. Returns `(path, minimized_len)` on success.
fn write_repro(p: &GenProgram, detail: &str) -> Option<(String, usize)> {
    let kept = ddmin(&p.body, |body| {
        run_case(&p.render_with_body(body)).divergence.is_some()
    });
    let src = p.render_with_body(&kept);
    let first_line = detail.lines().next().unwrap_or(detail);
    let content = format!("// fuzz seed {}: {first_line}\n{src}", p.seed);
    let path = corpus_path(p.seed);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, content) {
        Ok(()) => Some((path.display().to_string(), kept.len())),
        Err(_) => None,
    }
}

/// Run the fuzz campaign over `budget` generated programs; `quick` is
/// recorded in the report.
pub fn run(quick: bool, budget: u64) -> FuzzReport {
    let seed_base = 0u64;
    let cfg = GenConfig::default();

    let mut r = FuzzReport {
        seed_base,
        budget,
        quick,
        generated: 0,
        compiled: 0,
        rejected: 0,
        divergences: Vec::new(),
        corpus_written: Vec::new(),
    };
    for seed in seed_base..seed_base + budget {
        let p = generate(seed, &cfg);
        let src = p.render();
        r.generated += 1;
        let outcome = run_case(&src);
        if let Some(_reason) = &outcome.rejected {
            r.rejected += 1;
            continue;
        }
        r.compiled += 1;
        if let Some(detail) = outcome.divergence {
            let (path, min_len) = match write_repro(&p, &detail) {
                Some((path, n)) => (Some(path), n),
                None => (None, p.body.len()),
            };
            r.divergences.push(Divergence {
                seed,
                detail,
                minimized_stmts: min_len,
                original_stmts: p.body.len(),
            });
            if let Some(path) = path {
                r.corpus_written.push(path);
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_seed_zero_runs_differentially_clean() {
        let p = generate(0, &GenConfig::default());
        let out = run_case(&p.render());
        assert!(out.divergence.is_none(), "{:?}", out.divergence);
    }

    #[test]
    fn rejected_programs_report_a_diagnostic() {
        // Force the undeclared-identifier corner deterministically.
        let p = generate(3, &GenConfig::default());
        let mut body = p.body.clone();
        body.push("${m0} = fz_no_such_name;".to_string());
        let out = run_case(&p.render_with_body(&body));
        let msg = out.rejected.expect("undeclared name must be rejected");
        assert!(msg.contains("fz_no_such_name"), "{msg}");
        assert!(msg.contains("line"), "diagnostic must carry a span: {msg}");
    }

    #[test]
    fn quick_campaign_is_divergence_free() {
        let mut clean = 0;
        for seed in 0..25 {
            let p = generate(seed, &GenConfig::default());
            let out = run_case(&p.render());
            if out.rejected.is_none() {
                assert!(
                    out.divergence.is_none(),
                    "seed {seed}: {:?}",
                    out.divergence
                );
                clean += 1;
            }
        }
        assert!(clean >= 15, "only {clean}/25 compiled and ran");
    }
}
