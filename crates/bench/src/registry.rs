//! Pluggable design registry: string ids → design points plus metadata
//! (display name, citation, stability tier, tunable params, energy-model
//! mapping), and the one text form of a design point.
//!
//! A design point is spelled `<id>[:<param>=<value>]…`, for example
//! `regless:capacity=128:order=fifo`: a registered id, then any of that
//! entry's parameters (`regless designs` lists them with their defaults).
//! [`parse`] reads the text and [`render`] writes it, printing only the
//! parameters that differ from the entry's defaults, so each entry's
//! default point renders as its bare id. The text holds no comma and no
//! whitespace, so a list of points splits on commas.
//!
//! Every layer that names a design point — the CLI (`--design`), serve's
//! `design` field, the sweep engine's run labels and
//! cache keys — goes through this pair and runs the result through
//! [`DesignKind::execute`]. Adding a design means **one entry here plus
//! one `execute` arm and its backend**; a throttled register file needs
//! only a [`Throttle`] policy and its entry. `regless designs` renders the
//! table; DESIGN.md §17 documents the grammar and how to add an entry.

use crate::DesignKind;
use regless_baselines::Throttle;
use regless_core::{ActivationOrder, PatternSet, RegLessConfig};
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

/// One tunable parameter of a design: its name and help text, plus how
/// to read it from a design point and write it into one. Its default is
/// its value on the entry's default point.
#[derive(Clone, Copy)]
pub struct ParamSpec {
    /// Parameter name as a design point spells it.
    pub name: &'static str,
    /// One-line description.
    pub help: &'static str,
    /// The parameter's value in `design`, or `None` when `design` has no
    /// such parameter.
    read: fn(DesignKind) -> Option<String>,
    /// Set the parameter in `design` from its text; the error names the
    /// values it takes.
    write: fn(&mut DesignKind, &str) -> Result<(), String>,
}

/// A parameter value's text form.
trait Text: Sized {
    /// The accepted spellings, for error messages.
    const TAKES: &'static [&'static str];
    fn text(&self) -> String;
    fn from_text(text: &str) -> Option<Self>;
}

impl Text for usize {
    const TAKES: &'static [&'static str] = &["a whole number"];
    fn text(&self) -> String {
        self.to_string()
    }
    fn from_text(text: &str) -> Option<Self> {
        text.parse().ok()
    }
}

/// [`Text`] for a type with a fixed set of values: one spelling each.
macro_rules! text_enum {
    ($ty:ty { $($($value:ident)::+ => $name:literal),+ $(,)? }) => {
        impl Text for $ty {
            const TAKES: &'static [&'static str] = &[$($name),+];
            fn text(&self) -> String {
                match self { $($($value)::+ => $name),+ }.to_string()
            }
            fn from_text(text: &str) -> Option<Self> {
                match text { $($name => Some($($value)::+),)+ _ => None }
            }
        }
    };
}

text_enum!(bool { true => "true", false => "false" });
text_enum!(ActivationOrder { ActivationOrder::Lifo => "lifo", ActivationOrder::Fifo => "fifo" });
text_enum!(PatternSet {
    PatternSet::Full => "full",
    PatternSet::FullWarpStrides => "full-warp-strides",
    PatternSet::ConstantOnly => "constant-only",
});

/// Set `slot` from `text`, or name the values it takes.
fn set<T: Text>(slot: &mut T, text: &str) -> Result<(), String> {
    *slot = T::from_text(text).ok_or_else(|| T::TAKES.join("|"))?;
    Ok(())
}

/// One [`ParamSpec`] constant per [`RegLessConfig`] field, declared as
/// `CONST = "name" field "help";`.
macro_rules! regless_params {
    ($($spec:ident = $name:literal $field:ident $help:literal;)+) => {$(
        const $spec: ParamSpec = ParamSpec {
            name: $name,
            help: $help,
            read: |design| match design {
                DesignKind::RegLess(cfg) => Some(cfg.$field.text()),
                _ => None,
            },
            write: |design, text| match design {
                DesignKind::RegLess(cfg) => set(&mut cfg.$field, text),
                _ => Err("a RegLess design".to_string()),
            },
        };
    )+};
}

regless_params! {
    CAPACITY = "capacity" osu_entries_per_sm "OSU entries per SM";
    COMPRESSOR = "compressor" compressor_enabled "keep the eviction compressor";
    ORDER = "order" activation_order "re-activation order of drained warps";
    PATTERNS = "patterns" compressor_patterns "pattern set the compressor matches";
    MIN_REGION = "min_region" min_region_insns "minimum region length in instructions";
    SPLIT = "split_load_use" split_load_use "split a global load from its first use";
    RENUMBER = "renumber" renumber "bank-aware register renumbering (paper \u{a7}5.2)";
}

/// The §7 occupancy throttle on the full register file.
const THROTTLE: ParamSpec = ParamSpec {
    name: "throttle",
    help: "cap occupancy by the kernel's register allocation",
    read: |design| match design {
        DesignKind::Baseline => Some("none".to_string()),
        DesignKind::Throttled(Throttle::Occupancy) => Some("occupancy".to_string()),
        _ => None,
    },
    write: |design, text| {
        *design = match text {
            "none" => DesignKind::Baseline,
            "occupancy" => DesignKind::Throttled(Throttle::Occupancy),
            _ => return Err("none|occupancy".to_string()),
        };
        Ok(())
    },
};

/// One registered design: identity, provenance, its default point and
/// its parameters.
pub struct DesignEntry {
    /// Stable string id: the head of a design point's text.
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
    build: fn() -> DesignKind,
}

impl DesignEntry {
    /// The design point this entry's bare id names.
    pub fn default_design(&self) -> DesignKind {
        (self.build)()
    }

    /// The default of one of this entry's parameters: its value on the
    /// entry's default point.
    fn default_of(&self, p: &ParamSpec) -> String {
        (p.read)(self.default_design())
            .expect("an entry's default point has each of its parameters")
    }

    /// `name=default` for each parameter, space-separated, or `none_text`.
    fn defaults(&self, none_text: &str) -> String {
        if self.params.is_empty() {
            return none_text.to_string();
        }
        self.params
            .iter()
            .map(|p| format!("{}={}", p.name, self.default_of(p)))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// An error about this entry that lists its parameters with their
    /// defaults.
    fn error(&self, what: &str) -> String {
        format!(
            "design {:?} {what} (its parameters: {})",
            self.id,
            self.defaults("none")
        )
    }

    /// This entry's spelling of `design`: its id, then each `name=value`
    /// setting that differs from its default — or `None` when no setting
    /// of its parameters reaches `design`.
    fn spell(&self, design: DesignKind) -> Option<Vec<String>> {
        let default = self.default_design();
        let mut built = default;
        let mut parts = vec![self.id.to_string()];
        for p in self.params {
            let value = (p.read)(design)?;
            if (p.read)(default).as_ref() != Some(&value) {
                (p.write)(&mut built, &value).ok()?;
                parts.push(format!("{}={value}", p.name));
            }
        }
        (built == design).then_some(parts)
    }
}

/// Every registered design, in display order.
static ENTRIES: &[DesignEntry] = &[
    DesignEntry {
        id: "baseline",
        display: "Conventional RF",
        citation: "GTX 980-class baseline (paper \u{a7}6.1)",
        stability: Stability::Stable,
        params: &[THROTTLE],
        energy_model: "full 256 KB RF, crossbar per access",
        build: || DesignKind::Baseline,
    },
    DesignEntry {
        id: "regless",
        display: "RegLess",
        citation: "Kloosterman et al., MICRO 2017",
        stability: Stability::Stable,
        params: &[
            CAPACITY, COMPRESSOR, ORDER, PATTERNS, MIN_REGION, SPLIT, RENUMBER,
        ],
        energy_model: "OSU banks + tags + compressor, no RF",
        build: DesignKind::regless_512,
    },
    DesignEntry {
        id: "regless-nc",
        display: "RegLess (no compressor)",
        citation: "Kloosterman et al., MICRO 2017 (\u{a7}6.5 ablation)",
        stability: Stability::Stable,
        params: &[CAPACITY, ORDER, PATTERNS, MIN_REGION, SPLIT, RENUMBER],
        energy_model: "OSU banks + tags, no compressor",
        build: || {
            DesignKind::RegLess(RegLessConfig {
                compressor_enabled: false,
                ..RegLessConfig::paper_default()
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
        build: || DesignKind::Rfh,
    },
    DesignEntry {
        id: "rfv",
        display: "RF virtualization",
        citation: "Jeon et al., MICRO 2015",
        stability: Stability::Stable,
        params: &[],
        energy_model: "half-size renamed RF + rename table",
        build: || DesignKind::Throttled(Throttle::Rename),
    },
    DesignEntry {
        id: "regdem",
        display: "RegDem spilling",
        citation: "Sakdhnagool et al., arXiv:1907.02894",
        stability: Stability::Experimental,
        params: &[],
        energy_model: "half-size RF + shared-mem spill/fill",
        build: || DesignKind::Throttled(Throttle::Demote),
    },
    DesignEntry {
        id: "compress-rf",
        display: "Compressed RF",
        citation: "Angerd et al., arXiv:2006.05693",
        stability: Stability::Experimental,
        params: &[],
        energy_model: "half-size RF + pattern compressor",
        build: || DesignKind::Throttled(Throttle::Compress),
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

/// The id at the head of a design point's text (`regless` in
/// `regless:capacity=128`).
pub fn id_of(text: &str) -> &str {
    text.split(':').next().unwrap_or_default()
}

/// Read a design point: `<id>` followed by any number of
/// `:<param>=<value>` settings of that entry's parameters, each at most
/// once.
///
/// # Errors
///
/// For an unknown id, a message naming it and listing every valid id
/// (the text the CLI prints and serve wraps in its structured
/// `unknown_design` error). For an
/// undeclared, repeated or malformed setting, a message naming the design
/// and its parameters with their defaults.
pub fn parse(text: &str) -> Result<DesignKind, String> {
    let mut parts = text.split(':');
    let id = parts.next().unwrap_or_default();
    let entry = lookup(id)
        .ok_or_else(|| format!("unknown design {id:?}; valid designs: {}", ids().join(", ")))?;
    let mut design = entry.default_design();
    let mut given: Vec<&str> = Vec::new();
    for part in parts {
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| entry.error(&format!("setting {part:?} is not <param>=<value>")))?;
        let spec = entry
            .params
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| entry.error(&format!("has no parameter {name:?}")))?;
        if given.contains(&name) {
            return Err(entry.error(&format!("sets parameter {name:?} twice")));
        }
        given.push(name);
        (spec.write)(&mut design, value).map_err(|takes| {
            entry.error(&format!("parameter {name:?} takes {takes}, not {value:?}"))
        })?;
    }
    Ok(design)
}

/// [`parse`] with the legacy `capacity` and `compressor` aliases folded in
/// as settings appended to `text`: the CLI's `--capacity`/`--no-compressor`
/// and the serve wire's `capacity`/`compressor` fields. An alias the
/// design does not declare is an error when `strict` (the CLI) and is
/// ignored otherwise (the serve wire).
///
/// # Errors
///
/// As [`parse`] for the combined text.
pub fn parse_with_aliases(
    text: &str,
    capacity: Option<usize>,
    compressor: Option<bool>,
    strict: bool,
) -> Result<DesignKind, String> {
    let entry = lookup(id_of(text));
    let declares = |name| strict || entry.is_some_and(|e| e.params.iter().any(|p| p.name == name));
    let capacity = capacity.filter(|_| declares("capacity"));
    let compressor = compressor.filter(|_| declares("compressor"));
    if capacity.is_none() && compressor.is_none() {
        return parse(text);
    }
    let mut full = text.to_string();
    if let Some(capacity) = capacity {
        full.push_str(&format!(":capacity={capacity}"));
    }
    if let Some(compressor) = compressor {
        full.push_str(&format!(":compressor={compressor}"));
    }
    parse(&full)
}

/// Write a design point as the text [`parse`] reads back: the spelling
/// with the fewest settings (the first entry's on a tie).
pub fn render(design: DesignKind) -> String {
    ENTRIES
        .iter()
        .filter_map(|e| e.spell(design))
        .min_by_key(Vec::len)
        .expect("every design point has a registry entry")
        .join(":")
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
                e.defaults("-"),
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
                        ("default".into(), Json::Str(e.default_of(p))),
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
    fn each_default_point_is_its_bare_id() {
        for entry in all() {
            let design = entry.default_design();
            assert_eq!(render(design), entry.id);
            assert_eq!(parse(entry.id), Ok(design));
        }
    }

    #[test]
    fn parse_builds_known_points() {
        let cfg = RegLessConfig::paper_default();
        assert_eq!(parse("baseline"), Ok(DesignKind::Baseline));
        assert_eq!(parse("regless"), Ok(DesignKind::regless_512()));
        assert_eq!(
            parse("regless:compressor=false"),
            Ok(DesignKind::RegLess(RegLessConfig {
                compressor_enabled: false,
                ..cfg
            }))
        );
        assert_eq!(
            parse("regless-nc:capacity=256"),
            Ok(DesignKind::RegLess(RegLessConfig {
                compressor_enabled: false,
                ..RegLessConfig::with_capacity(256)
            }))
        );
        assert_eq!(
            parse("regless:capacity=128:order=fifo:patterns=constant-only"),
            Ok(DesignKind::RegLess(RegLessConfig {
                activation_order: ActivationOrder::Fifo,
                compressor_patterns: PatternSet::ConstantOnly,
                ..RegLessConfig::with_capacity(128)
            }))
        );
        assert_eq!(
            parse("baseline:throttle=occupancy"),
            Ok(DesignKind::Throttled(Throttle::Occupancy))
        );
        assert_eq!(parse("regdem"), Ok(DesignKind::Throttled(Throttle::Demote)));
        assert_eq!(
            parse("compress-rf"),
            Ok(DesignKind::Throttled(Throttle::Compress))
        );
        // The text a point renders to is the shortest spelling.
        assert_eq!(
            render(parse("regless:compressor=false:capacity=256").unwrap()),
            "regless-nc:capacity=256"
        );
    }

    #[test]
    fn unknown_ids_list_every_valid_id() {
        for text in ["frobnicate", "frobnicate:capacity=128", "", "regless ", ":"] {
            let err = parse(text).unwrap_err();
            assert!(
                err.starts_with(&format!(
                    "unknown design {:?}; valid designs: ",
                    id_of(text)
                )),
                "{err}"
            );
            for id in ids() {
                assert!(err.contains(id), "error must list {id}: {err}");
            }
        }
    }

    #[test]
    fn bad_settings_name_the_design_and_its_defaults() {
        for (text, what) in [
            ("baseline:capacity=128", "has no parameter \"capacity\""),
            ("rfh:capacity=512", "has no parameter \"capacity\""),
            (
                "regless-nc:compressor=true",
                "has no parameter \"compressor\"",
            ),
            (
                "regless:order=sideways",
                "parameter \"order\" takes lifo|fifo, not \"sideways\"",
            ),
            (
                "regless:capacity=lots",
                "parameter \"capacity\" takes a whole number, not \"lots\"",
            ),
            (
                "regless:renumber=yes",
                "parameter \"renumber\" takes true|false, not \"yes\"",
            ),
            (
                "regless:capacity=128:capacity=256",
                "sets parameter \"capacity\" twice",
            ),
            (
                "regless:capacity",
                "setting \"capacity\" is not <param>=<value>",
            ),
            ("regless:", "setting \"\" is not <param>=<value>"),
            (
                "baseline:throttle=rename",
                "parameter \"throttle\" takes none|occupancy",
            ),
        ] {
            let err = parse(text).unwrap_err();
            let id = id_of(text);
            assert!(err.starts_with(&format!("design {id:?} {what}")), "{err}");
            let params = lookup(id).unwrap().defaults("none");
            assert!(
                err.ends_with(&format!("(its parameters: {params})")),
                "{err}"
            );
        }
        let err = parse("rfh:capacity=512").unwrap_err();
        assert!(err.ends_with("(its parameters: none)"), "{err}");
        let err = parse("regless-nc:compressor=true").unwrap_err();
        assert!(err.contains("capacity=512 order=lifo"), "{err}");
    }

    #[test]
    fn aliases_fold_into_the_point() {
        let nc_256 = parse("regless-nc:capacity=256").unwrap();
        assert_eq!(
            parse_with_aliases("regless", Some(256), Some(false), true),
            Ok(nc_256)
        );
        assert_eq!(
            parse_with_aliases("regless-nc", Some(256), None, true),
            Ok(nc_256)
        );
        assert_eq!(
            parse_with_aliases("regless:order=fifo", None, None, true),
            parse("regless:order=fifo")
        );
        // Strict (the CLI): an alias the design does not declare names
        // the design and its parameters.
        let err = parse_with_aliases("baseline", Some(16), None, true).unwrap_err();
        assert!(
            err.contains("\"baseline\"") && err.contains("\"capacity\"") && err.contains("none"),
            "{err}"
        );
        let err = parse_with_aliases("regless-nc", Some(512), Some(false), true).unwrap_err();
        assert!(
            err.contains("\"compressor\"") && err.contains("capacity=512"),
            "{err}"
        );
        // Lenient (the wire): such an alias is ignored.
        assert_eq!(
            parse_with_aliases("baseline", Some(64), Some(false), false),
            Ok(DesignKind::Baseline)
        );
        assert_eq!(
            parse_with_aliases("regless-nc", Some(256), Some(true), false),
            Ok(nc_256)
        );
        // An alias and a setting of the same parameter conflict.
        assert!(parse_with_aliases("regless:capacity=128", Some(256), None, false).is_err());
        let err = parse_with_aliases("frobnicate", Some(256), None, false).unwrap_err();
        assert!(err.starts_with("unknown design \"frobnicate\""), "{err}");
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
        /// Arbitrary text over the grammar's alphabet never panics. Text
        /// with a registered id either parses, rendering to text that
        /// parses to the same point, or names that design; any other text
        /// gets the unknown-design error listing every valid id.
        #[test]
        fn parse_never_panics(seed in 0u64..u64::MAX, len in 0usize..40, head in 0usize..14) {
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz-_:=0123456789 ,";
            // Half the cases start at a registered id, so the tail is
            // read as that design's settings.
            let mut s = ids().get(head).map_or_else(String::new, |id| id.to_string());
            let mut x = seed;
            for _ in 0..len {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s.push(ALPHABET[(x >> 33) as usize % ALPHABET.len()] as char);
            }
            let id = id_of(&s);
            match (lookup(id), parse(&s)) {
                (Some(entry), Ok(design)) => {
                    prop_assert_eq!(entry.id, id);
                    prop_assert_eq!(parse(&render(design)), Ok(design));
                }
                (Some(entry), Err(err)) => {
                    prop_assert!(err.starts_with(&format!("design {id:?} ")), "{}", err);
                    prop_assert!(
                        err.ends_with(&format!("(its parameters: {})", entry.defaults("none"))),
                        "{}",
                        err
                    );
                }
                (None, Ok(design)) => prop_assert!(false, "{:?} parsed to {:?}", s, design),
                (None, Err(err)) => {
                    let head = format!("unknown design {id:?}; valid designs: {}", ids().join(", "));
                    prop_assert_eq!(err, head);
                }
            }
        }

        /// Every design point renders to text without commas or
        /// whitespace that parses back to the same point, and the energy
        /// mapping is total over them.
        #[test]
        fn parse_inverts_render(
            kind in 0usize..7,
            capacity in 1usize..4097,
            compressor in any::<bool>(),
            order in 0usize..2,
            patterns in 0usize..3,
            min_region in 0usize..64,
            split_load_use in any::<bool>(),
            renumber in any::<bool>(),
        ) {
            let cfg = RegLessConfig {
                osu_entries_per_sm: capacity,
                compressor_enabled: compressor,
                activation_order: [ActivationOrder::Lifo, ActivationOrder::Fifo][order],
                compressor_patterns: [
                    PatternSet::Full,
                    PatternSet::FullWarpStrides,
                    PatternSet::ConstantOnly,
                ][patterns],
                min_region_insns: min_region,
                split_load_use,
                renumber,
            };
            let design = [
                DesignKind::Baseline,
                DesignKind::RegLess(cfg),
                DesignKind::Rfh,
                DesignKind::Throttled(Throttle::Occupancy),
                DesignKind::Throttled(Throttle::Rename),
                DesignKind::Throttled(Throttle::Demote),
                DesignKind::Throttled(Throttle::Compress),
            ][kind];
            let text = render(design);
            prop_assert!(!text.contains(',') && !text.contains(char::is_whitespace), "{}", text);
            prop_assert_eq!(parse(&text), Ok(design));
            let _ = design.energy_design();
        }
    }
}
