//! The `regless` CLI surface: spawning it and checking what it prints.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Environment variables that change how the program runs; children never
/// inherit them, so the host's shell cannot change what is measured.
const SCRUBBED_ENV: [&str; 4] = [
    "REGLESS_SIM",
    "REGLESS_SELFPROF",
    "REGLESS_SWEEP",
    "REGLESS_SWEEP_DIR",
];

/// The `regless` binary under test.
pub struct Cli {
    bin: PathBuf,
}

impl Cli {
    /// Wrap the binary at `bin`.
    pub fn new(bin: PathBuf) -> Cli {
        Cli { bin }
    }

    /// A command for `regless <args>` with a scrubbed environment.
    pub fn command<S: AsRef<std::ffi::OsStr>>(&self, args: &[S]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).stdin(Stdio::null());
        for var in SCRUBBED_ENV {
            cmd.env_remove(var);
        }
        cmd
    }

    /// Run `regless <args>` to completion: its stdout on exit code 0,
    /// otherwise an error carrying the exit status and stderr.
    pub fn run<S: AsRef<std::ffi::OsStr>>(&self, args: &[S]) -> Result<String, String> {
        let out = self
            .command(args)
            .output()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))?;
        if !out.status.success() {
            return Err(format!(
                "exit {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        String::from_utf8(out.stdout).map_err(|e| format!("non-UTF-8 output: {e}"))
    }
}

/// What `regless run` reports for one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutput {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub insns: u64,
    /// Operand preloads by source (OSU, compressor, L1, L2/DRAM), for
    /// designs that preload.
    pub preloads: Option<[u64; 4]>,
    /// Total modelled energy in nJ.
    pub energy_nj: f64,
}

/// Parse and check the text `regless run` printed for `kernel` under
/// `design`. Anything malformed, a zero cycle or instruction count, or a
/// non-zero staging-oracle mismatch count is an error.
pub fn parse_run_output(text: &str, kernel: &str, design: &str) -> Result<RunOutput, String> {
    let mut lines = text.lines();
    let header = format!("kernel `{kernel}` under {design}:");
    if lines.next() != Some(header.as_str()) {
        return Err(format!("missing header {header:?}"));
    }
    let mut cycles = None;
    let mut insns = None;
    let mut preloads = None;
    let mut staging = None;
    let mut energy = None;
    for line in lines {
        let line = line.trim();
        let (label, rest) = match line.find("  ") {
            Some(i) => (&line[..i], line[i..].trim()),
            None => continue,
        };
        let first = rest.split_whitespace().next().unwrap_or("");
        match label {
            "cycles" => cycles = first.parse::<u64>().ok(),
            "instructions" => insns = first.parse::<u64>().ok(),
            "preloads" => preloads = Some(parse_preloads(rest)?),
            "staging oracle" => staging = first.parse::<u64>().ok(),
            "energy" => energy = first.parse::<f64>().ok(),
            _ => {}
        }
    }
    let cycles = cycles.ok_or("no cycles line")?;
    let insns = insns.ok_or("no instructions line")?;
    let energy_nj = energy.ok_or("no energy line")?;
    if cycles == 0 || insns == 0 || !energy_nj.is_finite() || energy_nj <= 0.0 {
        return Err(format!(
            "implausible run: {cycles} cycles, {insns} insns, {energy_nj} nJ"
        ));
    }
    if preloads.is_some() {
        match staging {
            Some(0) => {}
            Some(n) => return Err(format!("staging oracle reports {n} mismatches")),
            None => return Err("preloads reported without a staging-oracle line".into()),
        }
    }
    Ok(RunOutput {
        cycles,
        insns,
        preloads,
        energy_nj,
    })
}

/// `6464 (5549 OSU, 788 compressor, 127 L1, 0 L2/DRAM)`.
fn parse_preloads(rest: &str) -> Result<[u64; 4], String> {
    let bad = || format!("malformed preloads line {rest:?}");
    let (total, inner) = rest.split_once(" (").ok_or_else(bad)?;
    let total: u64 = total.trim().parse().map_err(|_| bad())?;
    let parts: Vec<u64> = inner
        .trim_end_matches(')')
        .split(", ")
        .map(|p| p.split_whitespace().next().and_then(|n| n.parse().ok()))
        .collect::<Option<Vec<u64>>>()
        .ok_or_else(bad)?;
    let parts: [u64; 4] = parts.try_into().map_err(|_| bad())?;
    if parts.iter().sum::<u64>() != total {
        return Err(format!("preload sources do not sum to {total}"));
    }
    Ok(parts)
}

/// Whether a group of runs of one kernel (across designs or capacities)
/// agrees on the retired instruction count, as architectural results must.
pub fn group_agrees(group: &[Option<&RunOutput>]) -> bool {
    let mut insns = group.iter().map(|o| o.map(|r| r.insns));
    match insns.next() {
        Some(Some(first)) => insns.all(|n| n == Some(first)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REGLESS: &str = "kernel `nn` under regless:
  cycles            8696
  instructions      23616 (IPC 2.72)
  preloads          6464 (5549 OSU, 788 compressor, 127 L1, 0 L2/DRAM)
  regions activated 2176
  metadata insns    5376
  staging oracle    0 mismatches
  energy            16757.6 nJ total (992.1 nJ register structures)
";

    const BASELINE: &str = "kernel `nn` under baseline:
  cycles            9120
  instructions      23616 (IPC 2.59)
  energy            20011.2 nJ total (4000.0 nJ register structures)
";

    #[test]
    fn parses_real_output() {
        let r = parse_run_output(REGLESS, "nn", "regless").unwrap();
        assert_eq!(r.cycles, 8696);
        assert_eq!(r.insns, 23616);
        assert_eq!(r.preloads, Some([5549, 788, 127, 0]));
        assert!((r.energy_nj - 16757.6).abs() < 1e-9);
        let b = parse_run_output(BASELINE, "nn", "baseline").unwrap();
        assert_eq!(b.preloads, None);
        assert!(group_agrees(&[Some(&r), Some(&b)]));
    }

    #[test]
    fn doctored_outputs_are_failures() {
        let doctored = [
            REGLESS.replace("staging oracle    0", "staging oracle    3"),
            REGLESS.replace("  staging oracle    0 mismatches\n", ""),
            REGLESS.replace("cycles            8696", "cycles            lots"),
            REGLESS.replace("6464 (5549", "6465 (5549"),
            REGLESS.replace("under regless", "under baseline"),
            REGLESS.replace("`nn`", "`bfs`"),
            REGLESS.lines().take(3).collect::<Vec<_>>().join("\n"),
            String::new(),
        ];
        for text in &doctored {
            assert!(
                parse_run_output(text, "nn", "regless").is_err(),
                "accepted:\n{text}"
            );
        }
        // A design that retires a different instruction count fails the group.
        let r = parse_run_output(REGLESS, "nn", "regless").unwrap();
        let other = BASELINE.replace("23616 (IPC", "23615 (IPC");
        let b = parse_run_output(&other, "nn", "baseline").unwrap();
        assert!(!group_agrees(&[Some(&r), Some(&b)]));
        assert!(!group_agrees(&[Some(&r), None]));
    }
}
