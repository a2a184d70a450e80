//! Pluggable design registry: string ids → design constructors plus
//! metadata (display name, citation, stability tier, tunable params,
//! energy-model mapping).
//!
//! Every layer that names a storage design — the CLI (`regless run
//! --design <id>`), the serve/cluster wire protocol, the sweep space, the
//! figures — resolves ids through this one table ([`resolve`], and
//! [`identify`] back), and runs the result through
//! [`DesignKind::execute`]. Adding a design means **one entry here plus
//! one `execute` arm and its backend**; a throttled register file needs
//! only a [`Throttle`] policy and its entry. `regless designs` renders the
//! table; DESIGN.md §17 documents how to add an entry.

use crate::DesignKind;
use regless_baselines::Throttle;
use regless_core::RegLessConfig;
use regless_json::{Json, ToJson};

/// How battle-tested a registry entry is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stability {
    /// Calibrated against the paper's figures; safe for headline results.
    Stable,
    /// Modeled from the cited related work but not cross-validated
    /// against its published numbers.
    Experimental,
}

impl Stability {
    /// Lower-case wire/display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Stability::Stable => "stable",
            Stability::Experimental => "experimental",
        }
    }
}

/// One tunable parameter of a design, with its default.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParamSpec {
    /// Parameter name as the CLI/wire spell it.
    pub name: &'static str,
    /// Default value, rendered as text.
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// Tunable parameter values a caller supplies when building a design.
/// Designs ignore parameters they do not declare
/// ([`DesignEntry::check_given`] rejects them where a user named them).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DesignParams {
    /// OSU entries per SM (RegLess designs).
    pub capacity: usize,
    /// Whether the RegLess compressor is present.
    pub compressor: bool,
}

impl Default for DesignParams {
    fn default() -> Self {
        DesignParams {
            capacity: 512,
            compressor: true,
        }
    }
}

/// One registered design: identity, provenance, and a constructor.
pub struct DesignEntry {
    /// Stable string id (`--design <id>`, the wire `design` field).
    pub id: &'static str,
    /// Human display name.
    pub display: &'static str,
    /// Paper citation the model follows.
    pub citation: &'static str,
    /// Stability tier.
    pub stability: Stability,
    /// Tunable parameters this design honors, with defaults.
    pub params: &'static [ParamSpec],
    /// One-line description of the energy-model mapping.
    pub energy_model: &'static str,
    build: fn(&DesignParams) -> DesignKind,
}

impl DesignEntry {
    /// Build the [`DesignKind`] this entry names under `params`.
    pub fn build(&self, params: &DesignParams) -> DesignKind {
        (self.build)(params)
    }

    /// The design built with default parameters.
    pub fn default_design(&self) -> DesignKind {
        self.build(&DesignParams::default())
    }

    /// Check that every parameter a user named is one this design
    /// declares.
    ///
    /// # Errors
    ///
    /// Returns a message naming the design, the parameter and the
    /// design's parameters with their defaults.
    pub fn check_given(&self, given: &[&str]) -> Result<(), String> {
        let declared = |name: &&str| self.params.iter().any(|p| p.name == *name);
        if let Some(name) = given.iter().find(|name| !declared(name)) {
            return Err(format!(
                "design {:?} has no parameter {name:?} (its parameters: {})",
                self.id,
                defaults(self.params, "none")
            ));
        }
        Ok(())
    }
}

/// `name=default` for each parameter, space-separated, or `none_text`.
fn defaults(params: &[ParamSpec], none_text: &str) -> String {
    if params.is_empty() {
        return none_text.to_string();
    }
    params
        .iter()
        .map(|p| format!("{}={}", p.name, p.default))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The capacity/compressor parameters the RegLess designs honor.
const REGLESS_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        name: "capacity",
        default: "512",
        help: "OSU entries per SM",
    },
    ParamSpec {
        name: "compressor",
        default: "true",
        help: "keep the eviction compressor",
    },
];

const REGLESS_NC_PARAMS: &[ParamSpec] = &[ParamSpec {
    name: "capacity",
    default: "512",
    help: "OSU entries per SM",
}];

/// Every registered design, in display order.
static ENTRIES: &[DesignEntry] = &[
    DesignEntry {
        id: "baseline",
        display: "Conventional RF",
        citation: "GTX 980-class baseline (paper \u{a7}6.1)",
        stability: Stability::Stable,
        params: &[],
        energy_model: "full 256 KB RF, crossbar per access",
        build: |_| DesignKind::Baseline,
    },
    DesignEntry {
        id: "regless",
        display: "RegLess",
        citation: "Kloosterman et al., MICRO 2017",
        stability: Stability::Stable,
        params: REGLESS_PARAMS,
        energy_model: "OSU banks + tags + compressor, no RF",
        build: |p| {
            DesignKind::RegLess(RegLessConfig {
                compressor_enabled: p.compressor,
                ..RegLessConfig::with_capacity(p.capacity)
            })
        },
    },
    DesignEntry {
        id: "regless-nc",
        display: "RegLess (no compressor)",
        citation: "Kloosterman et al., MICRO 2017 (\u{a7}6.5 ablation)",
        stability: Stability::Stable,
        params: REGLESS_NC_PARAMS,
        energy_model: "OSU banks + tags, no compressor",
        build: |p| {
            DesignKind::RegLess(RegLessConfig {
                compressor_enabled: false,
                ..RegLessConfig::with_capacity(p.capacity)
            })
        },
    },
    DesignEntry {
        id: "rfh",
        display: "RF hierarchy",
        citation: "Gebhart et al., ISCA 2011",
        stability: Stability::Stable,
        params: &[],
        energy_model: "MRF + LRF/RFC small structures",
        build: |_| DesignKind::Rfh,
    },
    DesignEntry {
        id: "rfv",
        display: "RF virtualization",
        citation: "Jeon et al., MICRO 2015",
        stability: Stability::Stable,
        params: &[],
        energy_model: "half-size renamed RF + rename table",
        build: |_| DesignKind::Throttled(Throttle::Rename),
    },
    DesignEntry {
        id: "regdem",
        display: "RegDem spilling",
        citation: "Sakdhnagool et al., arXiv:1907.02894",
        stability: Stability::Experimental,
        params: &[],
        energy_model: "half-size RF + shared-mem spill/fill",
        build: |_| DesignKind::Throttled(Throttle::Demote),
    },
    DesignEntry {
        id: "compress-rf",
        display: "Compressed RF",
        citation: "Angerd et al., arXiv:2006.05693",
        stability: Stability::Experimental,
        params: &[],
        energy_model: "half-size RF + pattern compressor",
        build: |_| DesignKind::Throttled(Throttle::Compress),
    },
];

/// All registered designs, in display order.
pub fn all() -> &'static [DesignEntry] {
    ENTRIES
}

/// All registered ids, in display order.
pub fn ids() -> Vec<&'static str> {
    ENTRIES.iter().map(|e| e.id).collect()
}

/// Look up one entry by id.
pub fn lookup(id: &str) -> Option<&'static DesignEntry> {
    ENTRIES.iter().find(|e| e.id == id)
}

/// Resolve an id to a [`DesignKind`] under `params`.
///
/// # Errors
///
/// Returns a message naming the unknown id and listing every valid id —
/// the text the CLI prints and the serve layer wraps in its structured
/// `unknown_design` error.
pub fn resolve(id: &str, params: &DesignParams) -> Result<DesignKind, String> {
    match lookup(id) {
        Some(entry) => Ok(entry.build(params)),
        None => Err(unknown_design_message(id)),
    }
}

/// The inverse of [`resolve`]: the id and parameters that build
/// `design` (the cluster wire carries these). A design point that no
/// entry builds maps to the registered design it varies: only the OSU
/// capacity and the compressor are parameters, so a RegLess design with
/// another ablation setting maps to `regless` or `regless-nc`, and the §7
/// occupancy-limited RF to `baseline`.
pub fn identify(design: DesignKind) -> (&'static str, DesignParams) {
    let fixed = DesignParams::default();
    match design {
        DesignKind::Baseline | DesignKind::Throttled(Throttle::Occupancy) => ("baseline", fixed),
        DesignKind::RegLess(cfg) => {
            let compressor = cfg.compressor_enabled;
            let id = if compressor { "regless" } else { "regless-nc" };
            let params = DesignParams {
                capacity: cfg.osu_entries_per_sm,
                compressor,
            };
            (id, params)
        }
        DesignKind::Rfh => ("rfh", fixed),
        DesignKind::Throttled(Throttle::Rename) => ("rfv", fixed),
        DesignKind::Throttled(Throttle::Demote) => ("regdem", fixed),
        DesignKind::Throttled(Throttle::Compress) => ("compress-rf", fixed),
    }
}

/// The error text for an unrecognized design id: names the id and lists
/// the valid ones.
pub fn unknown_design_message(id: &str) -> String {
    format!("unknown design {id:?}; valid designs: {}", ids().join(", "))
}

/// Render the registry as an aligned plain-text table (the `regless
/// designs` default output; golden-tested).
pub fn render_table() -> String {
    let rows: Vec<Vec<String>> = ENTRIES
        .iter()
        .map(|e| {
            vec![
                e.id.to_string(),
                e.display.to_string(),
                e.stability.as_str().to_string(),
                defaults(e.params, "-"),
                e.citation.to_string(),
            ]
        })
        .collect();
    crate::format_table(&["id", "design", "tier", "defaults", "citation"], &rows)
}

/// Render the registry as JSON (the `regless designs --format json`
/// output; consumed by CI's designs-smoke job).
pub fn render_json() -> Json {
    let designs: Vec<Json> = ENTRIES
        .iter()
        .map(|e| {
            let params: Vec<Json> = e
                .params
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(p.name.to_string())),
                        ("default".into(), Json::Str(p.default.to_string())),
                        ("help".into(), Json::Str(p.help.to_string())),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("id".into(), Json::Str(e.id.to_string())),
                ("display".into(), Json::Str(e.display.to_string())),
                ("citation".into(), Json::Str(e.citation.to_string())),
                (
                    "stability".into(),
                    Json::Str(e.stability.as_str().to_string()),
                ),
                ("params".into(), Json::Arr(params)),
                ("energy_model".into(), Json::Str(e.energy_model.to_string())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("count".into(), ToJson::to_json(&(ENTRIES.len() as u64))),
        ("designs".into(), Json::Arr(designs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ids_are_unique_and_lookup_finds_each() {
        let ids = ids();
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b, "duplicate registry id");
            }
        }
        for id in &ids {
            let entry = lookup(id).expect("registered id resolves");
            assert_eq!(entry.id, *id);
        }
    }

    #[test]
    fn resolve_builds_known_designs_and_names_unknown_ones() {
        let p = DesignParams::default();
        assert_eq!(resolve("baseline", &p), Ok(DesignKind::Baseline));
        assert_eq!(resolve("regless", &p), Ok(DesignKind::regless_512()));
        assert_eq!(
            resolve(
                "regless",
                &DesignParams {
                    compressor: false,
                    ..p
                }
            ),
            Ok(DesignKind::RegLess(RegLessConfig {
                compressor_enabled: false,
                ..RegLessConfig::with_capacity(512)
            }))
        );
        assert_eq!(
            resolve("regless-nc", &DesignParams { capacity: 256, ..p }),
            Ok(DesignKind::RegLess(RegLessConfig {
                compressor_enabled: false,
                ..RegLessConfig::with_capacity(256)
            }))
        );
        assert_eq!(
            resolve("regdem", &p),
            Ok(DesignKind::Throttled(Throttle::Demote))
        );
        assert_eq!(
            resolve("compress-rf", &p),
            Ok(DesignKind::Throttled(Throttle::Compress))
        );
        let err = resolve("frobnicate", &p).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        for id in ids() {
            assert!(err.contains(id), "error must list {id}: {err}");
        }
        assert!(resolve("", &p).is_err(), "empty id rejected");
    }

    #[test]
    fn identify_inverts_resolve() {
        let small_nc = DesignParams {
            capacity: 256,
            compressor: false,
        };
        for entry in all() {
            for params in [DesignParams::default(), small_nc] {
                let design = entry.build(&params);
                let (id, back) = identify(design);
                assert_eq!(resolve(id, &back), Ok(design), "{}", entry.id);
            }
            assert_eq!(identify(entry.default_design()).0, entry.id);
        }
        // The unregistered §7 point maps to the design it varies.
        let occupancy = DesignKind::Throttled(Throttle::Occupancy);
        assert_eq!(identify(occupancy), ("baseline", DesignParams::default()));
    }

    #[test]
    fn check_given_rejects_undeclared_parameters() {
        let baseline = lookup("baseline").unwrap();
        assert!(baseline.check_given(&[]).is_ok());
        let err = baseline.check_given(&["capacity"]).unwrap_err();
        assert!(
            err.contains("\"baseline\"") && err.contains("\"capacity\"") && err.contains("none"),
            "{err}"
        );
        let nc = lookup("regless-nc").unwrap();
        assert!(nc.check_given(&["capacity"]).is_ok());
        let err = nc.check_given(&["capacity", "compressor"]).unwrap_err();
        assert!(
            err.contains("\"compressor\"") && err.contains("capacity=512"),
            "{err}"
        );
        let regless = lookup("regless").unwrap();
        assert!(regless.check_given(&["capacity", "compressor"]).is_ok());
    }

    #[test]
    fn default_designs_are_pairwise_distinct() {
        let designs: Vec<DesignKind> = all().iter().map(|e| e.default_design()).collect();
        for (i, a) in designs.iter().enumerate() {
            for b in &designs[i + 1..] {
                assert_ne!(a, b, "two registry ids build the same design");
            }
        }
    }

    #[test]
    fn table_and_json_cover_every_entry() {
        let table = render_table();
        let json_text = render_json().to_string_compact();
        let parsed = regless_json::Json::parse(&json_text).expect("registry JSON parses");
        let count: u64 = regless_json::FromJson::from_json(parsed.field("count").unwrap()).unwrap();
        assert_eq!(count as usize, all().len());
        for e in all() {
            assert!(table.contains(e.id), "table missing {}", e.id);
            assert!(table.contains(e.citation), "table missing citation");
            assert!(json_text.contains(e.id), "json missing {}", e.id);
        }
    }

    proptest! {
        /// `lookup` accepts exactly the registered ids: every registered
        /// id resolves, and arbitrary other strings (including the empty
        /// string) are rejected with a message listing the valid ids.
        #[test]
        fn lookup_rejects_everything_unregistered(seed in 0u64..u64::MAX, len in 0usize..16) {
            // Draw a lowercase/dash string from the seed — the vendored
            // proptest has no regex strategies.
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz-";
            let mut s = String::new();
            let mut x = seed;
            for _ in 0..len {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s.push(ALPHABET[(x >> 33) as usize % ALPHABET.len()] as char);
            }
            match lookup(&s) {
                Some(entry) => prop_assert_eq!(entry.id, s.as_str()),
                None => {
                    let err = resolve(&s, &DesignParams::default()).unwrap_err();
                    prop_assert!(err.contains("valid designs"));
                }
            }
        }

        /// Every registered id round-trips through `resolve` for any
        /// capacity, and the built design maps to an energy design.
        #[test]
        fn resolve_succeeds_for_all_registered_ids(
            idx in 0usize..7,
            capacity in 1usize..4096,
            compressor in any::<bool>(),
        ) {
            let entry = &all()[idx % all().len()];
            let params = DesignParams { capacity, compressor };
            let design = resolve(entry.id, &params).expect("registered id resolves");
            // The energy mapping is total over registry-built designs.
            let _ = design.energy_design();
        }
    }
}
