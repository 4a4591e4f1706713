//! The `figures` binary refuses what it cannot read: an unknown figure
//! name, or a quick flag other than `0` or `1`, exits 2 before any section
//! runs or any file is written.

use std::process::{Command, Output};

fn figures(quick: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.args(args).env_remove("MANTIS_BENCH_QUICK");
    if let Some(v) = quick {
        cmd.env("MANTIS_BENCH_QUICK", v);
    }
    cmd.output().expect("figures runs")
}

#[test]
fn a_quick_flag_other_than_zero_or_one_exits_2() {
    for bad in ["false", "off", "no", "true", "", " 1", "2"] {
        let out = figures(Some(bad), &["table1"]);
        assert_eq!(out.status.code(), Some(2), "MANTIS_BENCH_QUICK={bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("must be 0 or 1"), "{bad:?}: {err}");
        assert!(out.stdout.is_empty(), "{bad:?}: a section ran");
    }
}

#[test]
fn an_unknown_figure_name_exits_2_with_the_known_list() {
    let out = figures(None, &["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"fig99\""), "{err}");
    assert!(err.contains("known: all, fig10a,"), "{err}");
    assert!(err.contains("chaos, fuzz"), "{err}");
}
