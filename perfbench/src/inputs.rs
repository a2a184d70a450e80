//! Seeded inputs: the kernels each workload runs and the ordered op list.
//!
//! The seed is the benchmark's argument; the program only ever sees what is
//! generated here (`.asm` files on the CLI, request lines on the wire). The
//! same seed always yields the same op list, whose FNV-1a digest is printed
//! with every result.

use regless_isa::text::format_kernel;
use regless_workloads::{generate, rodinia, Profile};

/// Every registered design id, in the order the registry lists them.
pub const DESIGNS: [&str; 7] = [
    "baseline",
    "regless",
    "regless-nc",
    "rfh",
    "rfv",
    "regdem",
    "compress-rf",
];

/// The designs `regless serve` accepts.
pub const SERVABLE: [&str; 5] = ["baseline", "regless", "regless-nc", "regdem", "compress-rf"];

/// OSU capacities of the capacity sweep (the paper's Figure 16 range).
pub const CAPACITIES: [usize; 6] = [128, 192, 256, 384, 512, 1024];

/// The OSU capacity `regless run` uses when none is given.
pub const DEFAULT_CAPACITY: usize = 512;

/// Seconds of `--seconds` that one pass over all 21 kernels is sized for
/// on the CLI workloads (147 or 126 `regless run` processes).
const CLI_PASS_SECONDS: f64 = 30.0;

/// Requests per second of `--seconds` on `serve-warm`.
const SERVE_REQUESTS_PER_SECOND: f64 = 1600.0;

/// Built-in kernels `serve-warm` serves: one per size quarter.
const SERVED_KERNELS: usize = 4;

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `regless run` for every design on every seeded kernel.
    SimMatrix,
    /// `regless run --design regless --capacity C` over the capacity range.
    CapacitySweep,
    /// Warm cache hits against one `regless serve` connection.
    ServeWarm,
}

impl Workload {
    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "sim-matrix" => Some(Workload::SimMatrix),
            "capacity-sweep" => Some(Workload::CapacitySweep),
            "serve-warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }
}

/// SplitMix64 finaliser, the benchmark's only source of randomness.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed ^ 0x5245_474c_4553_5321))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Perturb a Rodinia profile: trips by ±5%, width and persistent values
/// by ±1. These ranges keep every kernel compilable and simulable by every
/// design down to 128 OSU entries. Cycles scale with trips, so a wider trip
/// range mostly adds seed-to-seed spread to the time metrics (±15% put the
/// p90 latency's spread at 10%); width and persistent reshape register
/// pressure and move cycles by up to 7%.
pub fn perturb(p: Profile, rng: &mut Rng) -> Profile {
    let scale = 0.95 + 0.10 * rng.unit();
    let trips = ((f64::from(p.trips) * scale).round() as u32).max(1);
    let width = (p.width + rng.below(3)).saturating_sub(1).max(2);
    let persistent = (p.persistent + rng.below(3)).saturating_sub(1);
    Profile {
        trips,
        width,
        persistent,
        ..p
    }
}

/// One generated kernel.
pub struct KernelInput {
    /// The Rodinia benchmark it derives from.
    pub base: &'static str,
    /// The (possibly perturbed) profile it was generated from.
    pub profile: Profile,
    /// Its assembly text, as the CLI reads it.
    pub asm: String,
}

impl KernelInput {
    fn new(base: &'static str, profile: Profile) -> KernelInput {
        let asm = format_kernel(&generate(&profile));
        KernelInput { base, profile, asm }
    }

    /// The kernel's name as the program prints it.
    pub fn name(&self) -> &'static str {
        self.profile.name
    }

    /// A file name for its `.asm` file.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .base
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!("{safe}.asm")
    }
}

/// One `regless run` invocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CliOp {
    /// Index into [`Plan::kernels`].
    pub kernel: usize,
    /// Design id.
    pub design: &'static str,
    /// `--capacity`, when the op passes one.
    pub capacity: Option<usize>,
}

impl CliOp {
    /// The OSU capacity the run models (the default when none is passed).
    pub fn effective_capacity(&self) -> usize {
        self.capacity.unwrap_or(DEFAULT_CAPACITY)
    }
}

/// A served request kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The run report.
    Run,
    /// The CPI-stack profile.
    Profile,
    /// The dashboard summary.
    Report,
}

impl Kind {
    /// All kinds, in metric order.
    pub const ALL: [Kind; 3] = [Kind::Run, Kind::Profile, Kind::Report];

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Profile => "profile",
            Kind::Report => "report",
        }
    }
}

/// A served design point: a built-in kernel id plus a design.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Index into [`Plan::kernels`].
    pub kernel: usize,
    /// Design id.
    pub design: &'static str,
}

/// One request of `serve-warm`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeOp {
    /// Index into [`Plan::points`].
    pub point: usize,
    /// Request kind.
    pub kind: Kind,
}

/// Everything a run of one workload feeds the program.
pub struct Plan {
    /// Kernels: seeded perturbations for the CLI workloads, the served
    /// built-ins for `serve-warm`.
    pub kernels: Vec<KernelInput>,
    /// CLI ops, grouped by kernel (empty on `serve-warm`).
    pub cli_ops: Vec<CliOp>,
    /// Served design points (prefilled during set-up).
    pub points: Vec<Point>,
    /// Served requests (empty on the CLI workloads).
    pub serve_ops: Vec<ServeOp>,
}

impl Plan {
    /// Generate the inputs for `workload` from `seed`, sized for `seconds`.
    pub fn build(workload: Workload, seed: u64, seconds: f64) -> Plan {
        let mut rng = Rng::new(seed);
        match workload {
            Workload::SimMatrix | Workload::CapacitySweep => {
                let mut names = rodinia::NAMES.to_vec();
                rng.shuffle(&mut names);
                let n = ((21.0 * seconds / CLI_PASS_SECONDS).round() as usize).clamp(1, 21);
                let kernels: Vec<KernelInput> = names[..n]
                    .iter()
                    .map(|&name| KernelInput::new(name, perturb(rodinia::profile(name), &mut rng)))
                    .collect();
                let mut cli_ops = Vec::new();
                for kernel in 0..kernels.len() {
                    if workload == Workload::SimMatrix {
                        cli_ops.extend(DESIGNS.iter().map(|&design| CliOp {
                            kernel,
                            design,
                            capacity: None,
                        }));
                    } else {
                        cli_ops.extend(CAPACITIES.iter().map(|&c| CliOp {
                            kernel,
                            design: "regless",
                            capacity: Some(c),
                        }));
                    }
                }
                Plan {
                    kernels,
                    cli_ops,
                    points: Vec::new(),
                    serve_ops: Vec::new(),
                }
            }
            Workload::ServeWarm => {
                // The served kernels are fixed: rank the built-ins by
                // dynamic size and take the middle one of each quarter, so
                // replies span small to large. The seed draws the request
                // stream; drawing the kernels too moved wall_s by 30%
                // between seeds, since a run reply's size (and time) grows
                // with the kernel's cycle count.
                let mut all: Vec<KernelInput> = rodinia::NAMES
                    .iter()
                    .map(|&name| KernelInput::new(name, rodinia::profile(name)))
                    .collect();
                all.sort_by_key(|k| (u64::from(k.profile.trips) * k.asm.len() as u64, k.base));
                let stratum = all.len() / SERVED_KERNELS;
                let picks: Vec<usize> = (0..SERVED_KERNELS)
                    .map(|s| s * stratum + stratum / 2)
                    .collect();
                let mut kernels = Vec::new();
                for (i, k) in all.into_iter().enumerate() {
                    if picks.contains(&i) {
                        kernels.push(k);
                    }
                }
                let points: Vec<Point> = (0..kernels.len())
                    .flat_map(|kernel| SERVABLE.iter().map(move |&design| Point { kernel, design }))
                    .collect();
                let n = ((seconds * SERVE_REQUESTS_PER_SECOND).round() as usize).max(1);
                let serve_ops = (0..n)
                    .map(|_| ServeOp {
                        point: rng.below(points.len()),
                        // Equal weights on purpose; see README.md, "Why
                        // the serve-warm kinds are weighted equally".
                        kind: Kind::ALL[rng.below(Kind::ALL.len())],
                    })
                    .collect();
                Plan {
                    kernels,
                    cli_ops: Vec::new(),
                    points,
                    serve_ops,
                }
            }
        }
    }

    /// The served built-in id of a point's kernel.
    pub fn point_kernel_id(&self, point: &Point) -> String {
        format!("rodinia/{}", self.kernels[point.kernel].base)
    }

    /// FNV-1a digest of everything the program will be given, in order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for op in &self.cli_ops {
            h.write(op.design.as_bytes());
            h.write(&op.effective_capacity().to_le_bytes());
            h.write(self.kernels[op.kernel].asm.as_bytes());
        }
        for op in &self.serve_ops {
            let p = &self.points[op.point];
            h.write(self.point_kernel_id(p).as_bytes());
            h.write(p.design.as_bytes());
            h.write(op.kind.as_str().as_bytes());
        }
        h.finish()
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Add one field.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [
        Workload::SimMatrix,
        Workload::CapacitySweep,
        Workload::ServeWarm,
    ];

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        for w in ALL {
            let a = Plan::build(w, 7, 30.0);
            let b = Plan::build(w, 7, 30.0);
            assert_eq!(a.cli_ops, b.cli_ops);
            assert_eq!(a.serve_ops, b.serve_ops);
            assert_eq!(a.digest(), b.digest(), "{w:?}");
            for other in [0, 1, 8, 1 << 40] {
                let c = Plan::build(w, other, 30.0);
                assert_ne!(a.digest(), c.digest(), "{w:?} seed 7 vs {other}");
            }
        }
    }

    #[test]
    fn full_pass_covers_every_kernel_and_point() {
        let m = Plan::build(Workload::SimMatrix, 3, 30.0);
        let served = |seed| -> Vec<&str> {
            Plan::build(Workload::ServeWarm, seed, 1.0)
                .kernels
                .iter()
                .map(|k| k.base)
                .collect()
        };
        assert_eq!(
            served(1),
            served(2),
            "the served set does not depend on the seed"
        );
        assert_eq!(m.kernels.len(), 21);
        assert_eq!(m.cli_ops.len(), 21 * DESIGNS.len());
        let c = Plan::build(Workload::CapacitySweep, 3, 30.0);
        assert_eq!(c.cli_ops.len(), 21 * CAPACITIES.len());
        let s = Plan::build(Workload::ServeWarm, 3, 30.0);
        assert_eq!(s.points.len(), SERVED_KERNELS * SERVABLE.len());
        assert_eq!(s.serve_ops.len(), 48_000);
        for p in 0..s.points.len() {
            assert!(
                s.serve_ops.iter().any(|op| op.point == p),
                "point {p} never requested"
            );
        }
        for k in Kind::ALL {
            let n = s.serve_ops.iter().filter(|op| op.kind == k).count();
            assert!(n.abs_diff(16_000) < 500, "{k:?}: {n} of 48000 requests");
        }
    }

    #[test]
    fn perturbation_stays_in_range() {
        let mut rng = Rng::new(11);
        for _ in 0..50 {
            for name in rodinia::NAMES {
                let base = rodinia::profile(name);
                let p = perturb(base, &mut rng);
                assert!(p.trips >= 1 && f64::from(p.trips) <= f64::from(base.trips) * 1.05 + 0.5);
                assert!(f64::from(p.trips) >= f64::from(base.trips) * 0.95 - 0.5);
                assert!(p.width >= 2 && p.width <= base.width + 1);
                assert!(p.persistent + 1 >= base.persistent && p.persistent <= base.persistent + 1);
                // The generator accepts it and the text round-trips.
                let k = KernelInput::new(name, p);
                let parsed = regless_isa::text::parse_kernel(&k.asm).expect("asm parses");
                assert_eq!(format_kernel(&parsed), k.asm);
            }
        }
    }
}
