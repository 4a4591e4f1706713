//! The `figures` binary refuses what it cannot read: an unknown figure
//! name or flag, or a fuzz budget that is not a positive count, exits 2
//! before any section runs or any file is written.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    let mut figures = Command::new(env!("CARGO_BIN_EXE_figures"));
    figures.args(args).output().expect("figures runs")
}

#[test]
fn a_fuzz_budget_other_than_a_positive_count_exits_2() {
    for bad in ["false", "off", "", "0", "-2", "4.5", "1e5"] {
        let out = figures(&["--fuzz-budget", bad, "table1"]);
        assert_eq!(out.status.code(), Some(2), "--fuzz-budget {bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("is not a positive count"), "{bad:?}: {err}");
        assert!(out.stdout.is_empty(), "{bad:?}: a section ran");
    }
    // A missing value is malformed too.
    let out = figures(&["table1", "--fuzz-budget"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a section ran");
}

#[test]
fn an_unknown_figure_name_exits_2_with_the_known_list() {
    let out = figures(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"fig99\""), "{err}");
    assert!(err.contains("known: all, fig10a,"), "{err}");
    assert!(err.contains("chaos, fuzz"), "{err}");
    // A flag figures does not know is refused the same way.
    let out = figures(&["--quick=1", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("\"--quick=1\"") && err.contains("--fuzz-budget N"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "a section ran");
}
