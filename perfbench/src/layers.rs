//! In-process timing of the leaf layers the program runs before it
//! simulates: kernel generation (`workloads`), assembly text (`isa`) and
//! the compiler passes (`compiler`). Each is timed at the call into the
//! layer's public function.

use regless_compiler::{
    annotate, compile, create_regions, DomInfo, Liveness, MetadataStats, RegionConfig,
};
use regless_isa::text::{format_kernel, parse_kernel};
use regless_workloads::{generate, Profile};
use std::hint::black_box;
use std::time::Instant;

/// Every timed step as (layer, step).
pub const STEPS: [(&str, &str); 9] = [
    ("workloads", "generate"),
    ("isa", "format"),
    ("isa", "parse"),
    ("compiler", "compile"),
    ("compiler", "dom"),
    ("compiler", "liveness"),
    ("compiler", "regions"),
    ("compiler", "annotate"),
    ("compiler", "metadata"),
];

/// Repetitions per step; the median is kept.
const REPS: usize = 5;

/// One kernel's layer timings.
pub struct LayerTimes {
    /// Median raw seconds per step, in [`STEPS`] order.
    pub raw_s: [f64; 9],
    /// The interval of each step's last repetition, for the trace.
    pub last: [(Instant, Instant); 9],
    /// Regions the compiler formed.
    pub regions: usize,
}

/// Time every step of [`STEPS`] on the kernel `profile` generates. The
/// parsed text must format back to itself.
pub fn time_layers(profile: &Profile) -> Result<LayerTimes, String> {
    let now = Instant::now();
    let mut samples: [Vec<f64>; 9] = Default::default();
    let mut last = [(now, now); 9];
    let mut regions = 0;
    let mut step = |i: usize, start: Instant, samples: &mut [Vec<f64>; 9]| {
        let end = Instant::now();
        samples[i].push((end - start).as_secs_f64());
        last[i] = (start, end);
    };
    for _ in 0..REPS {
        let t = Instant::now();
        let kernel = black_box(generate(black_box(profile)));
        step(0, t, &mut samples);
        let t = Instant::now();
        let text = black_box(format_kernel(&kernel));
        step(1, t, &mut samples);
        let t = Instant::now();
        let parsed = black_box(parse_kernel(&text)).map_err(|e| format!("parse: {e}"))?;
        step(2, t, &mut samples);
        if format_kernel(&parsed) != text {
            return Err(format!(
                "{}: assembly text does not round-trip",
                profile.name
            ));
        }
        let config = RegionConfig::default();
        let t = Instant::now();
        let compiled = black_box(compile(&kernel, &config)).map_err(|e| format!("compile: {e}"))?;
        step(3, t, &mut samples);
        regions = compiled.regions().len();
        let t = Instant::now();
        let dom = black_box(DomInfo::compute(&kernel));
        step(4, t, &mut samples);
        let t = Instant::now();
        let liveness = black_box(Liveness::compute(&kernel, &dom));
        step(5, t, &mut samples);
        let t = Instant::now();
        let formed = black_box(create_regions(&kernel, &liveness, &config));
        step(6, t, &mut samples);
        let t = Instant::now();
        let notes = black_box(annotate(&kernel, &dom, &liveness, &formed));
        step(7, t, &mut samples);
        let t = Instant::now();
        black_box(MetadataStats::compute(&formed, &notes));
        step(8, t, &mut samples);
    }
    let raw_s = samples.map(|s| crate::stats::median(&s));
    Ok(LayerTimes {
        raw_s,
        last,
        regions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_every_step_of_a_real_kernel() {
        let t = time_layers(&regless_workloads::rodinia::profile("nn")).unwrap();
        assert!(t.raw_s.iter().all(|&s| s > 0.0));
        assert!(t.regions > 0);
        for (start, end) in t.last {
            assert!(end >= start);
        }
    }
}
