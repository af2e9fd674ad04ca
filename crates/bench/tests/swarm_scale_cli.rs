//! Command-line handling of the `swarm_scale` binary: help and usage
//! errors exit cleanly instead of panicking.

use std::process::{Command, Output};

fn swarm_scale(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swarm_scale"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Asserts a usage error: exit 2, the message and the usage text on
/// stderr, no panic, and nothing on stdout.
fn assert_usage_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = swarm_scale(&[flag]);
        assert!(out.status.success(), "{flag}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("USAGE"),
            "{flag}"
        );
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&swarm_scale(&["--frobnicate"]), "unknown flag --frobnicate");
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    assert_usage_error(&swarm_scale(&["--peers"]), "--peers requires a value");
    assert_usage_error(
        &swarm_scale(&["--smoke", "--out"]),
        "--out requires a value",
    );
}

#[test]
fn malformed_or_out_of_range_value_is_a_usage_error() {
    assert_usage_error(
        &swarm_scale(&["--rounds", "many"]),
        "--rounds requires a number",
    );
    assert_usage_error(&swarm_scale(&["--threads", "0"]), "--threads must be >= 1");
}

#[test]
fn invalid_config_is_a_usage_error() {
    assert_usage_error(
        &swarm_scale(&["--rounds", "0"]),
        "max_rounds must be at least 1",
    );
}
