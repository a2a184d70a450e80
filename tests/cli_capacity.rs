//! OSU capacities below the smallest the OSU shape can hold, and design
//! parameters a design does not declare, are rejected at the CLI with a
//! clear error and exit status 1, not a panic or a silent default. So
//! are commands the binary does not have.

use std::process::{Command, Output};

fn regless(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regless"))
        .args(args)
        .env("REGLESS_SWEEP", "off")
        .output()
        .expect("run the regless binary")
}

#[test]
fn too_small_capacities_exit_1_naming_the_minimum() {
    let out_dir = std::env::temp_dir().join(format!("regless-cli-capacity-{}", std::process::id()));
    let out = out_dir.join("out.txt");
    let out = out.to_str().expect("utf-8 temp path");
    for capacity in ["0", "16", "64", "127"] {
        for (cmd, extra) in [
            ("run", &[][..]),
            ("profile", &[][..]),
            ("report", &["--format", "json", "--out", out][..]),
            ("trace", &["--out", out][..]),
        ] {
            for design in ["regless", "regless-nc"] {
                let mut args = vec![cmd, "kernels/saxpy.asm", "--design", design];
                args.extend(["--capacity", capacity]);
                args.extend(extra);
                let o = regless(&args);
                let stderr = String::from_utf8_lossy(&o.stderr);
                assert_eq!(o.status.code(), Some(1), "{args:?}: {stderr}");
                assert!(
                    stderr.contains("smallest valid capacity is 128"),
                    "{args:?}: {stderr}"
                );
                assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn the_smallest_valid_capacity_runs() {
    let o = regless(&[
        "run",
        "kernels/saxpy.asm",
        "--design",
        "regless",
        "--capacity",
        "128",
    ]);
    assert_eq!(
        o.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&o.stderr)
    );
}

#[test]
fn undeclared_parameters_exit_1_naming_the_design_parameters() {
    for (design, flag) in [
        ("baseline", &["--capacity", "16"][..]),
        ("rfh", &["--capacity", "512"][..]),
        ("compress-rf", &["--no-compressor"][..]),
        ("regless-nc", &["--no-compressor"][..]),
    ] {
        let mut args = vec!["run", "kernels/saxpy.asm", "--design", design];
        args.extend(flag);
        let o = regless(&args);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("design {design:?} has no parameter")),
            "{args:?}: {stderr}"
        );
        let declared = if design == "regless-nc" {
            "capacity=512"
        } else {
            "none"
        };
        assert!(stderr.contains(declared), "{args:?}: {stderr}");
    }
    for cmd in ["profile", "report", "trace"] {
        let args = [
            cmd,
            "kernels/saxpy.asm",
            "--design",
            "baseline",
            "--capacity",
            "128",
        ];
        let o = regless(&args);
        assert_eq!(o.status.code(), Some(1), "{args:?}");
    }
}

#[test]
fn help_flags_print_usage_and_exit_0() {
    for flag in ["help", "--help", "-h"] {
        let o = regless(&[flag]);
        assert_eq!(o.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&o.stdout);
        assert!(stdout.contains("commands:"), "{flag}: {stdout}");
    }
}

#[test]
fn retired_sweep_cluster_commands_exit_1_as_unknown() {
    for cmd in ["cluster", "worker"] {
        let o = regless(&[cmd, "--local"]);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown command {cmd:?}")),
            "{cmd}: {stderr}"
        );
        assert!(o.stdout.is_empty(), "{cmd} prints nothing to stdout");
        let help = regless(&["help"]);
        let usage = String::from_utf8_lossy(&help.stdout);
        assert!(
            !usage.lines().any(|l| l.trim_start().starts_with(cmd)),
            "usage still lists {cmd}: {usage}"
        );
    }
}
