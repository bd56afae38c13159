//! The binaries fail closed on their own arguments: a flag a command does
//! not take, an unknown command, a stray operand or a flag combination the
//! binary cannot honour exits 2 before any work runs, naming the offender.
//! The flags `demo` does take all change its run.

use std::process::Command;

/// Runs `binary` with `args`: its exit code, stdout and stderr.
fn run(binary: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(binary)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("runs the binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn experiments(args: &[&str]) -> (Option<i32>, String) {
    let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_experiments"), args);
    assert!(stdout.is_empty(), "{args:?} did work before failing");
    (code, stderr)
}

#[test]
fn misspelt_flags_and_unknown_commands_exit_2_with_usage() {
    let cases: [(&[&str], &str); 11] = [
        (&["verify-gate", "--weakmen"], "--weakmen"),
        (&["verify-gate", "--weakmem"], "--weakmem"),
        (&["verify-gate", "--serial"], "--serial"),
        (&["verify-gate", "x.json"], "unexpected operand x.json"),
        (&["e1", "--out=x.json"], "--out=x.json"),
        (&["throughput"], "'throughput'"),
        (&["arena"], "'arena'"),
        (&["e9"], "'e9'"),
        (&["e10"], "'e10'"),
        (&["e14"], "'e14'"),
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

#[test]
fn demo_refuses_flag_combinations_it_cannot_honour() {
    let cases: [(&[&str], &str); 6] = [
        (&["--trace"], "--trace"),
        (&["--registers", "--adversary", "bsp"], "--adversary bsp"),
        (
            &["--registers", "--adversary", "split"],
            "--adversary split",
        ),
        (
            &["--protocol", "ah88", "--adversary", "starver"],
            "--adversary starver",
        ),
        (&["--adversary", "fair"], "--adversary fair"),
        (&["--protocol", "paxos"], "--protocol paxos"),
    ];
    for (args, offender) in cases {
        let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_demo"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} did work before failing");
        assert!(stderr.contains(offender), "{args:?}: {stderr}");
    }
}

/// `--registers` runs the arena entrant `--protocol` names under the policy
/// `--adversary` names: every combination is a different run (bounded and
/// AH88 take the same steps, the same goes for local coins and the oracle,
/// but their register widths differ), and each ends in agreement.
#[test]
fn demo_over_registers_honours_protocol_and_adversary() {
    let mut runs: Vec<String> = Vec::new();
    for (protocol, entrant) in [
        ("bounded", "bounded"),
        ("ah88", "ah-atomic"),
        ("local", "abrahamson"),
        ("oracle", "oracle"),
    ] {
        for adversary in ["random", "rr"] {
            let args = [
                "--registers",
                "--n",
                "3",
                "--protocol",
                protocol,
                "--adversary",
                adversary,
            ];
            let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_demo"), &args);
            assert_eq!(code, Some(0), "{args:?}: {stderr}");
            let (ran, counts) = stdout
                .lines()
                .find_map(|l| l.strip_prefix("register-level run of ")?.split_once(": "))
                .unwrap_or_else(|| panic!("{args:?}: no run line in {stdout}"));
            assert_eq!(ran, entrant, "{args:?}");
            assert!(
                !runs.iter().any(|r| r == counts),
                "{args:?} repeats a run: {counts}"
            );
            runs.push(counts.to_owned());
            let decided: Vec<&str> = stdout
                .lines()
                .filter_map(|l| l.strip_prefix("process ")?.split_once(" decided "))
                .map(|(_, value)| value)
                .collect();
            assert_eq!(decided.len(), 3, "{args:?}: {stdout}");
            assert!(
                decided.iter().all(|&v| v == decided[0] && v != "None"),
                "{args:?}: {stdout}"
            );
        }
    }
}
