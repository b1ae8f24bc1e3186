//! `repro` rejects what it does not know instead of running nothing.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_scenarios_and_flags_print_usage_and_exit_2() {
    for args in [&["typo"][..], &["--bogus"], &["r1", "--bogus"], &["--seed"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(!out.stderr.is_empty(), "{args:?} said nothing");
    }
    let stderr = String::from_utf8(repro(&["typo"]).stderr).unwrap();
    assert!(stderr.contains("unknown argument `typo`") && stderr.contains("usage: repro"));
}
