//! Host calibration.
//!
//! The benchmark runs on small shared VMs whose speed drifts by tens of
//! percent within minutes. Every timed op (or block of serve requests) is
//! therefore bracketed by slices of a fixed calibration kernel timed in this
//! process, and each host time is scaled by `NOMINAL_S / measured slice`,
//! where the measured slice is the mean of the two around it. A host that
//! is uniformly slower for a while makes both the op and the slices slower,
//! so the calibrated time stays put; the unit stays seconds.
//!
//! This only works when the slices run on the CPU the program runs on: on
//! a 2-vCPU VM the two vCPUs drift independently (slice-to-op correlation
//! r = 0.3 or less unpinned, 0.8 to 0.9 pinned), so `run.py` pins the
//! harness and every process it starts to one CPU.
//!
//! The kernel is allocation-heavy (HashMap, BTreeMap, Vec and String
//! churn) because the simulator is: a purely memory-bound loop tracked the
//! simulator's slowdowns worse.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// What one calibration slice is defined to take, in seconds.
pub const NOMINAL_S: f64 = 0.030;

/// Iterations of the calibration kernel: about `NOMINAL_S` on a 2-vCPU
/// x86-64 VM.
const CALIB_ITERS: u32 = 220_000;

/// The fixed calibration workload. Deterministic (fixed hash keys, so no
/// run draws a luckier table layout); returns a checksum so the work
/// cannot be optimised away.
pub fn calibration_kernel(iters: u32) -> u64 {
    let mut buckets: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut ordered: BTreeMap<u64, String> = BTreeMap::new();
    let mut x: u64 = 0x243f_6a88_85a3_08d3;
    let mut acc = 0u64;
    for i in 0..iters {
        x = crate::inputs::splitmix64(x);
        let bucket = buckets.entry(x & 1023).or_default();
        bucket.push(x);
        acc = acc.wrapping_add(bucket.len() as u64);
        if i % 4 == 0 {
            ordered.insert(x >> 52, format!("{x:x}"));
        }
        if i % 4096 == 4095 {
            acc = acc.wrapping_add(ordered.values().map(|s| s.len() as u64).sum::<u64>());
            buckets.clear();
        }
    }
    acc.wrapping_add(ordered.len() as u64)
}

/// Scale a raw host time by the calibration measured around it.
pub fn calibrate(raw_s: f64, calib_s: f64) -> f64 {
    raw_s * NOMINAL_S / calib_s
}

/// The result of a bracketed measurement.
pub struct Bracketed<T> {
    /// What the measured closure returned.
    pub value: T,
    /// Raw host seconds the closure took.
    pub raw_s: f64,
    /// Mean of the two calibration slices around the closure, in seconds.
    pub calib_s: f64,
}

impl<T> Bracketed<T> {
    /// Another raw time measured inside the same bracket.
    pub fn sample(&self, raw_s: f64) -> Sample {
        Sample {
            raw_s,
            calib_s: self.calib_s,
        }
    }

    /// The whole closure's time.
    pub fn total(&self) -> Sample {
        self.sample(self.raw_s)
    }
}

/// A raw host time and the calibration measured around it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Raw host seconds.
    pub raw_s: f64,
    /// Mean of the bracketing slices, in seconds.
    pub calib_s: f64,
}

impl Sample {
    /// Calibrated seconds.
    pub fn cal(self) -> f64 {
        calibrate(self.raw_s, self.calib_s)
    }
}

/// Runs calibration slices and remembers every one of them.
pub struct Calibrator {
    slices: Vec<f64>,
}

impl Calibrator {
    /// Warm the kernel up (its first run pays page faults) and take the
    /// first bracketing slice.
    pub fn new() -> Calibrator {
        black_box(calibration_kernel(black_box(CALIB_ITERS)));
        let mut c = Calibrator { slices: Vec::new() };
        c.slice();
        c
    }

    /// Run and record one slice; returns its seconds.
    fn slice(&mut self) -> f64 {
        let t = Instant::now();
        black_box(calibration_kernel(black_box(CALIB_ITERS)));
        let s = t.elapsed().as_secs_f64();
        self.slices.push(s);
        s
    }

    /// Time `f` between the previous slice and a fresh one. No program
    /// work may be in flight while a slice runs, so `f` must finish its
    /// op (or block of requests) before returning.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> Bracketed<T> {
        let before = *self
            .slices
            .last()
            .expect("a slice is taken at construction");
        let t = Instant::now();
        let value = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.slice();
        Bracketed {
            value,
            raw_s,
            calib_s: (before + after) / 2.0,
        }
    }

    /// Every slice taken so far, in seconds.
    pub fn slices(&self) -> &[f64] {
        &self.slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_slowdown_leaves_calibrated_time_unchanged() {
        let base = Sample {
            raw_s: 0.125,
            calib_s: 0.029,
        };
        for k in [0.5, 1.0, 1.37, 2.0, 3.3] {
            let slowed = Sample {
                raw_s: base.raw_s * k,
                calib_s: base.calib_s * k,
            };
            assert!((slowed.cal() - base.cal()).abs() < 1e-12, "k={k}");
        }
        // A slowdown of the op alone does show.
        let op_only = Sample {
            raw_s: base.raw_s * 1.5,
            ..base
        };
        assert!(op_only.cal() > base.cal() * 1.49);
        assert!((calibrate(0.06, NOMINAL_S * 2.0) - 0.03).abs() < 1e-15);
    }

    #[test]
    fn calibration_kernel_is_deterministic() {
        assert_eq!(calibration_kernel(5000), calibration_kernel(5000));
        assert_ne!(calibration_kernel(5000), calibration_kernel(5001));
    }

    #[test]
    fn bracket_uses_the_slices_on_both_sides() {
        let mut c = Calibrator::new();
        let b = c.bracket(|| 7);
        assert_eq!(b.value, 7);
        let s = c.slices();
        let expect = (s[s.len() - 2] + s[s.len() - 1]) / 2.0;
        assert!((b.calib_s - expect).abs() < 1e-15);
        assert!((b.total().cal() - calibrate(b.raw_s, expect)).abs() < 1e-15);
    }
}
