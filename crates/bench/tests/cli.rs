//! The `paper` command line refuses what it does not understand: a flag it
//! does not know, one the target does not take, or a value out of range
//! exits 2 with the usage instead of running as if the flag were absent or
//! panicking.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("run the paper binary")
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let out = paper(&["table1", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: paper"));
}

#[test]
fn a_flag_the_target_does_not_take_is_a_usage_error() {
    let out = paper(&["table1", "--workers", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn a_node_count_out_of_range_is_a_usage_error() {
    let out = paper(&["topo", "--nodes", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--nodes must be at least 2, not 1"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: paper"), "{stderr}");
}

/// A zero size or count starts nothing: every target that reads one
/// refuses it before it runs, connects or spawns.
#[test]
fn a_zero_size_or_count_is_a_usage_error() {
    for (args, flag) in [
        (
            &["topo", "--nodes", "4", "--nt", "4", "--block", "0"][..],
            "--block",
        ),
        (&["topo", "--nodes", "4", "--nt", "0"], "--nt"),
        (&["net", "--nt", "0"], "--nt"),
        (&["net", "--block", "0"], "--block"),
        (&["net", "--workers", "0"], "--workers"),
        (&["serve", "--workers", "0"], "--workers"),
        (&["submit", "--nt", "0"], "--nt"),
        (&["submit", "--block", "0"], "--block"),
        (&["submit", "--batch", "0"], "--batch"),
        (&["obs", "--workers", "0"], "--workers"),
    ] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("{flag} must be at least 1, not 0");
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
    }
}

#[test]
fn a_known_target_runs() {
    let out = paper(&["table1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("== Table I"));
}
