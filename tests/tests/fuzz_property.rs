//! Fuzz-generator properties and corpus regression replay.
//!
//! 1. Any program emitted by the seeded random generator either compiles
//!    on every backend (rmt-sim lowering + the bytecode VM, which takes
//!    every body the compiler accepts) or is rejected by the typechecker
//!    with a spanned diagnostic — never a panic, and never a silent
//!    half-compile.
//! 2. Every checked-in `tests/fuzz_corpus/*.p4r` regression case replays
//!    divergence-free across the VM, the reference walker, and the testbed
//!    agents.

use bench::fuzz::run_case;
use mantis::p4r_compiler::generate::{generate, GenConfig};
use mantis::reaction_interp::CompiledReaction;
use mantis::{compile_source, CompilerOptions};
use proptest::prelude::*;
use std::path::Path;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated programs compile everywhere or reject with a span.
    #[test]
    fn generated_programs_compile_or_reject_with_span(seed in 0u64..1_000_000) {
        let program = generate(seed, &GenConfig::default());
        let src = program.render();
        match compile_source(&src, &CompilerOptions::default()) {
            Ok(compiled) => {
                // The typed IR must carry every reaction the interface
                // exposes, with a body the VM compiles: totality over what
                // the front end accepts, as registration relies on.
                for binding in &compiled.iface.reactions {
                    let Some(r) = compiled.ir.reaction(&binding.name) else {
                        return Err(TestCaseError::fail(format!(
                            "seed {seed}: reaction `{}` missing from IR",
                            binding.name
                        )));
                    };
                    let vm = CompiledReaction::compile_with_slots(&r.body, &r.statics);
                    prop_assert!(
                        vm.is_ok(),
                        "seed {seed}: the VM refuses `{}`: {:?}",
                        binding.name,
                        vm.err()
                    );
                }
            }
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains("line"),
                    "seed {seed}: rejection lacks a source span: {msg}"
                );
            }
        }
    }

    /// The full differential harness never flags a generated program:
    /// walker, VM, and testbed agents agree (or the program is rejected).
    #[test]
    fn generated_programs_run_differentially_clean(seed in 0u64..1_000_000) {
        let program = generate(seed, &GenConfig::default());
        let outcome = run_case(&program.render());
        prop_assert!(
            outcome.divergence.is_none(),
            "seed {seed}: divergence: {:?}",
            outcome.divergence
        );
    }
}

/// Every minimized corpus case replays clean. This is the regression net:
/// divergences found by past fuzz campaigns land here ddmin-shrunk, and
/// must stay fixed forever after.
#[test]
fn fuzz_corpus_replays_divergence_free() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz_corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read tests/fuzz_corpus")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "p4r"))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "fuzz corpus at {} is empty",
        dir.display()
    );
    for path in files {
        let src = std::fs::read_to_string(&path).expect("read corpus case");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let outcome = run_case(&src);
        assert!(
            outcome.rejected.is_none(),
            "{name}: corpus case no longer compiles: {:?}",
            outcome.rejected
        );
        assert!(
            outcome.divergence.is_none(),
            "{name}: corpus case diverges again: {:?}",
            outcome.divergence
        );
    }
}
