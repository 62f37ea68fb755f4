//! Every binary rejects a malformed command line the same way: exit
//! status 2 and a usage line on stderr, before it does any work, and never
//! a panic. The parsing rules themselves are unit-tested in `src/lib.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;

const BINARIES: [&str; 19] = [
    "ablation_extensions",
    "collective_exchange",
    "custom_vs_agnostic",
    "deadlock_in_vivo",
    "degraded_performance",
    "fig10_simulation",
    "fig7_diameter",
    "fig8_aspl",
    "fig9_cable",
    "flow_suite",
    "layout_conscious",
    "netanalyze",
    "opt_frontier",
    "related_work",
    "routing_cost",
    "saturation_search",
    "switching_ablation",
    "theory_validation",
    "traffic_balance",
];

/// Path of a binary of this package: cargo builds them side by side.
fn exe(name: &str) -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_fig10_simulation"))
        .with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX))
}

/// Run binary `name` with `args` and assert a usage error naming `expect`.
fn assert_usage_error(name: &str, args: &[&str], expect: &str) {
    let out = Command::new(exe(name))
        .args(args)
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {args:?}: exit status {:?}, stderr:\n{stderr}",
        out.status
    );
    assert!(
        stderr.contains(expect) && stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: stderr lacks `{expect}` or the usage line:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?}: started work");
}

#[test]
fn every_binary_rejects_an_unknown_flag() {
    for name in BINARIES {
        assert_usage_error(name, &["--no-such-flag"], "unknown flag `--no-such-flag`");
    }
    assert_usage_error("flow_suite", &["--quik"], "unknown flag `--quik`");
}

#[test]
fn missing_values_are_usage_errors_not_panics() {
    for flag in ["--sizes", "--bench-row", "--engine"] {
        assert_usage_error(
            "fig10_simulation",
            &[flag],
            &format!("{flag} needs a value"),
        );
    }
    let cases: [(&str, &[&str], &str); 6] = [
        (
            "fig10_simulation",
            &["--sizes", "--quick"],
            "--sizes needs a value",
        ),
        (
            "fig10_simulation",
            &["--telemetry=0"],
            "--telemetry needs a window",
        ),
        (
            "fig10_simulation",
            &["--bench-row=9999"],
            "--bench-row 9999 is past the 48 rows",
        ),
        ("netanalyze", &["--dot"], "--dot needs a value"),
        (
            "fig7_diameter",
            &["--threads"],
            "--threads needs a worker count",
        ),
        (
            "degraded_performance",
            &["--faults=many"],
            "--faults needs a link count, got `many`",
        ),
    ];
    for (name, args, expect) in cases {
        assert_usage_error(name, args, expect);
    }
}

#[test]
fn stray_arguments_and_unsupported_flags_are_usage_errors() {
    // A mistyped pattern is caught before any mode runs, not only before
    // the figure sweeps.
    for args in [
        &["bogus"][..],
        &["--sizes", "1024", "bogus"],
        &["--json", "bogus"],
        &["--opt", "bogus"],
    ] {
        assert_usage_error("fig10_simulation", args, "unknown pattern `bogus`");
    }
    // The telemetry window only comes as `--telemetry=W`.
    assert_usage_error(
        "fig10_simulation",
        &["--telemetry", "250"],
        "unknown pattern `250`",
    );
    // A positional that does not parse is rejected, not defaulted.
    assert_usage_error(
        "layout_conscious",
        &["abc"],
        "expected a switch count n, got `abc`",
    );
    assert_usage_error(
        "deadlock_in_vivo",
        &["--routing-tables=dyn"],
        "--routing-tables is not supported here",
    );
    assert_usage_error(
        "switching_ablation",
        &["--telemetry"],
        "--telemetry is not supported here",
    );
}
