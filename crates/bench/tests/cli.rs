//! The driver fails closed on its own arguments: a flag a command does not
//! take, an unknown command or a stray operand exits 2 before any work
//! runs, naming the offender and printing the usage.

use std::process::Command;

fn experiments(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("runs the experiments binary");
    assert!(out.stdout.is_empty(), "{args:?} did work before failing");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn misspelt_flags_and_unknown_commands_exit_2_with_usage() {
    let cases: [(&[&str], &str); 9] = [
        (&["verify-gate", "--weakmen"], "--weakmen"),
        (&["verify-gate", "--serial"], "--serial"),
        (&["verify-gate", "x.json"], "unexpected operand x.json"),
        (&["e1", "--out=x.json"], "--out=x.json"),
        (&["throughput"], "'throughput'"),
        (&["arena"], "'arena'"),
        (&["e9"], "'e9'"),
        (&["e10"], "'e10'"),
        (&["validate-arena"], "'validate-arena'"),
    ];
    for (args, offender) in cases {
        let (code, stderr) = experiments(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(offender), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage:") && stderr.contains("experiments verify-gate [--quick]"),
            "{args:?}: {stderr}"
        );
    }
}
