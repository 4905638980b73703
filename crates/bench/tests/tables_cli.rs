//! The `tables` binary rejects bad command lines with a usage error on
//! stderr and exit status 2, before building anything.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("spawn tables")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = tables(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing runs on a bad command line");
    assert!(stderr.contains(needle), "{args:?}: stderr {stderr}");
    assert!(stderr.contains("usage: tables"), "{args:?}: stderr {stderr}");
}

#[test]
fn bad_scale_is_a_usage_error() {
    assert_usage_error(&["t1", "--scale", "x"], "--scale");
    assert_usage_error(&["t1", "--scale", "-1"], "--scale");
    assert_usage_error(&["t1", "--scale"], "--scale needs a value");
}

#[test]
fn bad_seed_is_a_usage_error() {
    assert_usage_error(&["t1", "--seed", "0.5"], "--seed");
    assert_usage_error(&["--seed"], "--seed needs a value");
}

#[test]
fn unknown_experiment_id_is_a_usage_error() {
    assert_usage_error(&["t1", "t9"], "unknown experiment id \"t9\"");
    assert_usage_error(&["--verbose"], "unknown experiment id");
}
