//! Command-line contract of the gate binaries: `--help` prints the usage
//! and exits 0, and a malformed command line exits 1 before the gate
//! prints its banner or trains anything.

use std::process::Command;

const GATES: [(&str, &str); 5] = [
    ("sim_gate", env!("CARGO_BIN_EXE_sim_gate")),
    ("chaos_gate", env!("CARGO_BIN_EXE_chaos_gate")),
    ("service_gate", env!("CARGO_BIN_EXE_service_gate")),
    ("obs_gate", env!("CARGO_BIN_EXE_obs_gate")),
    ("fleet_demo", env!("CARGO_BIN_EXE_fleet_demo")),
];

#[test]
fn help_exits_zero_and_bad_command_lines_exit_one_before_any_work() {
    let cases: [(&[&str], i32, &str); 4] = [
        (&["--help"], 0, ""),
        (&["--bogus"], 1, "unknown argument \"--bogus\""),
        (&["--seed"], 1, "--seed requires a value"),
        (&["--seed", "x"], 1, "invalid number \"x\""),
    ];
    for (name, bin) in GATES {
        for (args, code, error) in cases {
            let out = Command::new(bin).args(args).output().expect("gate runs");
            let (stdout, stderr) = (
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr),
            );
            assert_eq!(out.status.code(), Some(code), "{name} {args:?}: {stderr}");
            if code == 0 {
                assert!(stdout.starts_with(&format!("usage: {name} [")), "{stdout}");
            } else {
                assert_eq!(stderr.trim(), format!("{name}: {error}"), "{name} {args:?}");
                assert!(stdout.is_empty(), "{name} {args:?} started work: {stdout}");
            }
        }
    }
}
