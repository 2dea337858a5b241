//! [`ScenarioSpec`]: the declarative description of an experiment, parsed
//! from TOML (or JSON) and lowered by [`crate::scenario::compile`] into the
//! existing [`ScenarioConfig`]/batch machinery.

use std::fmt::Write as _;

use imobif_obs::Json;

use crate::config::{ChurnModel, EnergyInit, ScenarioConfig, TopologyFamily};
use crate::runner::StrategyChoice;

use super::toml::{self, Item, ParseError, Pos, Table, TomlValue};

/// Which result/chart adapter interprets a compiled scenario's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adapter {
    /// Placement snapshots (paper Fig. 5).
    Fig5,
    /// Energy-consumption ratio panels (paper Fig. 6).
    Fig6,
    /// Notification histogram (paper Fig. 7).
    Fig7,
    /// Lifetime-ratio CDF (paper Fig. 8).
    Fig8,
    /// The extension-study battery (`figures::ext`).
    Ext,
    /// Plain per-case table — the default for new scenario families.
    Generic,
}

impl Adapter {
    fn parse(s: &str) -> Option<Adapter> {
        Some(match s {
            "fig5" => Adapter::Fig5,
            "fig6" => Adapter::Fig6,
            "fig7" => Adapter::Fig7,
            "fig8" => Adapter::Fig8,
            "ext" => Adapter::Ext,
            "generic" => Adapter::Generic,
            _ => return None,
        })
    }

    /// The spec-file spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Adapter::Fig5 => "fig5",
            Adapter::Fig6 => "fig6",
            Adapter::Fig7 => "fig7",
            Adapter::Fig8 => "fig8",
            Adapter::Ext => "ext",
            Adapter::Generic => "generic",
        }
    }
}

/// One named parameter variation of the base scenario. The config is fully
/// resolved at parse time (base + overrides), so consumers never re-apply
/// patches.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Display/CSV label, e.g. `"fig6a"`.
    pub label: String,
    /// The resolved configuration.
    pub config: ScenarioConfig,
}

/// Parameters of the extension-study battery (`figures::ext`). Shipped in
/// the `ext` scenario's `[ext]` table; [`ExtParams::paper`] is the set the
/// hard-coded studies used.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtParams {
    /// Estimate-factor sweep points (`ext_estimate`).
    pub estimate_factors: Vec<f64>,
    /// Per-packet movement bounds (`ext_step`).
    pub steps: Vec<f64>,
    /// Energy↔lifetime blend weights (`ext_hybrid`).
    pub lambdas: Vec<f64>,
    /// Concurrent flows in the multi-flow arena study.
    pub multiflow_concurrent: u32,
    /// Per-flow length of the multi-flow study, in bits.
    pub multiflow_flow_bits: u64,
    /// Fixed flow length of the relay-selection study, in bits.
    pub relay_flow_bits: u64,
    /// Relay budget of the relay-selection planner.
    pub relay_max: usize,
    /// Mean flow length of the initial-status ablation, in bits.
    pub initial_status_mean_flow_bits: f64,
}

impl ExtParams {
    /// The values the pre-scenario-layer studies hard-coded.
    #[must_use]
    pub fn paper() -> Self {
        ExtParams {
            estimate_factors: vec![0.1, 0.5, 1.0, 2.0, 10.0],
            steps: vec![0.25, 1.0, 4.0],
            lambdas: vec![0.0, 0.5, 1.0],
            multiflow_concurrent: 8,
            multiflow_flow_bits: 16_000_000,
            relay_flow_bits: 8_000_000,
            relay_max: 12,
            initial_status_mean_flow_bits: 8e5,
        }
    }
}

/// The most flows one spec or one `--flows` may ask for. Every flow is
/// simulated to completion, so the cap bounds a run's work: `all` at this
/// count is about 100 times the paper's 100-flow job. The largest shipped
/// or benchmark spec asks for 500.
pub const MAX_FLOWS: u64 = 10_000;

/// Admits a requested flow count: `1..=MAX_FLOWS`.
///
/// # Errors
///
/// Names the accepted range when `flows` lies outside it.
pub fn check_flows(flows: u64) -> Result<u64, String> {
    if (1..=MAX_FLOWS).contains(&flows) {
        Ok(flows)
    } else {
        Err(format!("`flows` must be between 1 and {MAX_FLOWS}, not {flows}"))
    }
}

/// A validated, serializable scenario description.
///
/// Parse with [`ScenarioSpec::parse`] (TOML, or JSON when the text starts
/// with `{`), serialize canonically with [`ScenarioSpec::to_toml`], lower
/// with `compile`/`compile_with` (see [`crate::scenario::compile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (artifact prefix for the generic adapter).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Result adapter.
    pub adapter: Adapter,
    /// Strategy every run uses.
    pub strategy: StrategyChoice,
    /// Default replicate count (CLI `--flows` overrides).
    pub flows: u64,
    /// The base configuration (`[base]` over [`ScenarioConfig::paper_default`]).
    pub base: ScenarioConfig,
    /// Parameter variations (`[[variant]]`); empty means "one run of base".
    pub variants: Vec<VariantSpec>,
    /// Extension-study parameters (`[ext]`).
    pub ext: Option<ExtParams>,
}

impl ScenarioSpec {
    /// Parses a spec from TOML, or from JSON when the first non-whitespace
    /// character is `{`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`]; TOML errors carry exact line/column, JSON
    /// errors carry the underlying byte-offset message.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ParseError> {
        let table = if text.trim_start().starts_with('{') {
            let json = Json::parse(text).map_err(|msg| ParseError {
                line: 0,
                col: 0,
                msg: format!("json: {msg}"),
            })?;
            json_to_table(&json)?
        } else {
            toml::parse(text)?
        };
        ScenarioSpec::from_table(&table)
    }

    fn from_table(root: &Table) -> Result<ScenarioSpec, ParseError> {
        let mut name = None;
        let mut description = String::new();
        let mut adapter = Adapter::Generic;
        let mut strategy = StrategyChoice::MinEnergy;
        let mut flows = 100u64;
        let mut base = ScenarioConfig::paper_default();
        let mut ext = None;
        // First pass: everything except variants, so `[base]` applies no
        // matter where it appears relative to `[[variant]]` blocks.
        for (key, pos, item) in &root.entries {
            match key.as_str() {
                "name" => name = Some(expect_str(item, *pos, "name")?),
                "description" => description = expect_str(item, *pos, "description")?,
                "adapter" => {
                    let s = expect_str(item, *pos, "adapter")?;
                    adapter = Adapter::parse(&s).ok_or_else(|| {
                        ParseError::at(
                            *pos,
                            format!("unknown adapter `{s}` (expected fig5..fig8, ext or generic)"),
                        )
                    })?;
                }
                "strategy" => {
                    let s = expect_str(item, *pos, "strategy")?;
                    strategy = match s.as_str() {
                        "min_energy" => StrategyChoice::MinEnergy,
                        "max_lifetime" => StrategyChoice::MaxLifetime,
                        _ => {
                            return Err(ParseError::at(
                                *pos,
                                format!(
                                    "unknown strategy `{s}` (expected min_energy or max_lifetime)"
                                ),
                            ));
                        }
                    };
                }
                "flows" => {
                    flows = check_flows(expect_u64(item, *pos, "flows")?)
                        .map_err(|msg| ParseError::at(*pos, msg))?;
                }
                "base" => {
                    let t = expect_table(item, *pos, "base")?;
                    apply_config(&mut base, t, "base")?;
                }
                "variant" => {} // second pass
                "ext" => {
                    let t = expect_table(item, *pos, "ext")?;
                    ext = Some(parse_ext(t)?);
                }
                other => {
                    return Err(ParseError::at(*pos, format!("unknown top-level key `{other}`")));
                }
            }
        }
        let name = name.ok_or_else(|| ParseError::at(Pos::NONE, "missing required key `name`"))?;
        let mut variants = Vec::new();
        if let Some((pos, item)) = root.get("variant") {
            let Item::ArrayOfTables(tables) = item else {
                return Err(ParseError::at(*pos, "`variant` must use [[variant]] blocks"));
            };
            for t in tables {
                let (lpos, label) = match t.get("label") {
                    Some((p, i)) => (*p, expect_str(i, *p, "label")?),
                    None => {
                        return Err(ParseError::at(
                            root.get("variant").map_or(Pos::NONE, |(p, _)| *p),
                            "every [[variant]] needs a `label`",
                        ));
                    }
                };
                if variants.iter().any(|v: &VariantSpec| v.label == label) {
                    return Err(ParseError::at(lpos, format!("duplicate variant label `{label}`")));
                }
                let mut config = base;
                apply_config(&mut config, t, "variant")?;
                variants.push(VariantSpec { label, config });
            }
        }
        Ok(ScenarioSpec { name, description, adapter, strategy, flows, base, variants, ext })
    }

    /// Canonical TOML serialization: full `[base]`, per-variant overrides
    /// only. `parse(to_toml(spec)) == spec` exactly (floats render with
    /// `{:?}`, which round-trips).
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "name = {}", toml_str(&self.name));
        if !self.description.is_empty() {
            let _ = writeln!(out, "description = {}", toml_str(&self.description));
        }
        let _ = writeln!(out, "adapter = \"{}\"", self.adapter.name());
        let strategy = match self.strategy {
            StrategyChoice::MinEnergy => "min_energy",
            StrategyChoice::MaxLifetime => "max_lifetime",
        };
        let _ = writeln!(out, "strategy = \"{strategy}\"");
        let _ = writeln!(out, "flows = {}", self.flows);
        out.push('\n');
        out.push_str("[base]\n");
        write_config_full(&mut out, &self.base, "base");
        for v in &self.variants {
            out.push('\n');
            out.push_str("[[variant]]\n");
            let _ = writeln!(out, "label = {}", toml_str(&v.label));
            write_config_diff(&mut out, &self.base, &v.config, "variant");
        }
        if let Some(ext) = &self.ext {
            out.push('\n');
            out.push_str("[ext]\n");
            let _ = writeln!(out, "estimate_factors = {}", float_array(&ext.estimate_factors));
            let _ = writeln!(out, "steps = {}", float_array(&ext.steps));
            let _ = writeln!(out, "lambdas = {}", float_array(&ext.lambdas));
            let _ = writeln!(out, "multiflow_concurrent = {}", ext.multiflow_concurrent);
            let _ = writeln!(out, "multiflow_flow_bits = {}", ext.multiflow_flow_bits);
            let _ = writeln!(out, "relay_flow_bits = {}", ext.relay_flow_bits);
            let _ = writeln!(out, "relay_max = {}", ext.relay_max);
            let _ = writeln!(
                out,
                "initial_status_mean_flow_bits = {:?}",
                ext.initial_status_mean_flow_bits
            );
        }
        out
    }
}

fn toml_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn float_array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// Writes every scalar field plus the energy/topology/churn sub-tables.
fn write_config_full(out: &mut String, cfg: &ScenarioConfig, ctx: &str) {
    let _ = writeln!(out, "node_count = {}", cfg.node_count);
    let _ = writeln!(out, "area_side = {:?}", cfg.area_side);
    let _ = writeln!(out, "range = {:?}", cfg.range);
    let _ = writeln!(out, "a = {:?}", cfg.a);
    let _ = writeln!(out, "b = {:?}", cfg.b);
    let _ = writeln!(out, "alpha = {:?}", cfg.alpha);
    let _ = writeln!(out, "k = {:?}", cfg.k);
    let _ = writeln!(out, "mean_flow_bits = {:?}", cfg.mean_flow_bits);
    let _ = writeln!(out, "packet_bits = {}", cfg.packet_bits);
    let _ = writeln!(out, "packet_interval_secs = {:?}", cfg.packet_interval_secs);
    let _ = writeln!(out, "max_step = {:?}", cfg.max_step);
    let _ = writeln!(out, "initial_mobility_enabled = {}", cfg.initial_mobility_enabled);
    let _ = writeln!(out, "estimate_factor = {:?}", cfg.estimate_factor);
    let _ = writeln!(out, "seed = {}", cfg.seed);
    write_energy(out, cfg.initial_energy, ctx);
    write_topology(out, cfg.topology, ctx);
    write_churn(out, cfg.churn, ctx);
}

/// Writes only the fields where `cfg` differs from `base` (variant blocks).
fn write_config_diff(out: &mut String, base: &ScenarioConfig, cfg: &ScenarioConfig, ctx: &str) {
    if cfg.node_count != base.node_count {
        let _ = writeln!(out, "node_count = {}", cfg.node_count);
    }
    if cfg.area_side != base.area_side {
        let _ = writeln!(out, "area_side = {:?}", cfg.area_side);
    }
    if cfg.range != base.range {
        let _ = writeln!(out, "range = {:?}", cfg.range);
    }
    if cfg.a != base.a {
        let _ = writeln!(out, "a = {:?}", cfg.a);
    }
    if cfg.b != base.b {
        let _ = writeln!(out, "b = {:?}", cfg.b);
    }
    if cfg.alpha != base.alpha {
        let _ = writeln!(out, "alpha = {:?}", cfg.alpha);
    }
    if cfg.k != base.k {
        let _ = writeln!(out, "k = {:?}", cfg.k);
    }
    if cfg.mean_flow_bits != base.mean_flow_bits {
        let _ = writeln!(out, "mean_flow_bits = {:?}", cfg.mean_flow_bits);
    }
    if cfg.packet_bits != base.packet_bits {
        let _ = writeln!(out, "packet_bits = {}", cfg.packet_bits);
    }
    if cfg.packet_interval_secs != base.packet_interval_secs {
        let _ = writeln!(out, "packet_interval_secs = {:?}", cfg.packet_interval_secs);
    }
    if cfg.max_step != base.max_step {
        let _ = writeln!(out, "max_step = {:?}", cfg.max_step);
    }
    if cfg.initial_mobility_enabled != base.initial_mobility_enabled {
        let _ = writeln!(out, "initial_mobility_enabled = {}", cfg.initial_mobility_enabled);
    }
    if cfg.estimate_factor != base.estimate_factor {
        let _ = writeln!(out, "estimate_factor = {:?}", cfg.estimate_factor);
    }
    if cfg.seed != base.seed {
        let _ = writeln!(out, "seed = {}", cfg.seed);
    }
    if cfg.initial_energy != base.initial_energy {
        write_energy(out, cfg.initial_energy, ctx);
    }
    if cfg.topology != base.topology {
        write_topology(out, cfg.topology, ctx);
    }
    if cfg.churn != base.churn {
        write_churn(out, cfg.churn, ctx);
    }
}

fn write_energy(out: &mut String, energy: EnergyInit, ctx: &str) {
    let _ = writeln!(out, "\n[{ctx}.energy]");
    match energy {
        EnergyInit::Fixed(j) => {
            let _ = writeln!(out, "kind = \"fixed\"\njoules = {j:?}");
        }
        EnergyInit::Uniform(lo, hi) => {
            let _ = writeln!(out, "kind = \"uniform\"\nlo = {lo:?}\nhi = {hi:?}");
        }
        EnergyInit::TwoTier { high, low, high_fraction } => {
            let _ = writeln!(
                out,
                "kind = \"two_tier\"\nhigh = {high:?}\nlow = {low:?}\nhigh_fraction = {high_fraction:?}"
            );
        }
    }
}

fn write_topology(out: &mut String, topology: TopologyFamily, ctx: &str) {
    let _ = writeln!(out, "\n[{ctx}.topology]");
    match topology {
        TopologyFamily::Uniform => {
            let _ = writeln!(out, "family = \"uniform\"");
        }
        TopologyFamily::Clustered { clusters, spread } => {
            let _ =
                writeln!(out, "family = \"clustered\"\nclusters = {clusters}\nspread = {spread:?}");
        }
        TopologyFamily::SmallWorld { rewire } => {
            let _ = writeln!(out, "family = \"small_world\"\nrewire = {rewire:?}");
        }
    }
}

fn write_churn(out: &mut String, churn: ChurnModel, ctx: &str) {
    let _ = writeln!(out, "\n[{ctx}.churn]");
    match churn {
        ChurnModel::None => {
            let _ = writeln!(out, "model = \"none\"");
        }
        ChurnModel::RelayExponential { mean_secs } => {
            let _ = writeln!(out, "model = \"relay_exponential\"\nmean_secs = {mean_secs:?}");
        }
    }
}

/// Applies a `[base]` or `[[variant]]` table's keys onto `cfg`.
fn apply_config(cfg: &mut ScenarioConfig, table: &Table, ctx: &str) -> Result<(), ParseError> {
    for (key, pos, item) in &table.entries {
        match key.as_str() {
            "label" if ctx == "variant" => {} // consumed by the caller
            "node_count" => {
                cfg.node_count = usize::try_from(expect_u64(item, *pos, key)?)
                    .map_err(|_| ParseError::at(*pos, "node_count out of range"))?;
            }
            "area_side" => cfg.area_side = expect_f64(item, *pos, key)?,
            "range" => cfg.range = expect_f64(item, *pos, key)?,
            "a" => cfg.a = expect_f64(item, *pos, key)?,
            "b" => cfg.b = expect_f64(item, *pos, key)?,
            "alpha" => cfg.alpha = expect_f64(item, *pos, key)?,
            "k" => cfg.k = expect_f64(item, *pos, key)?,
            "mean_flow_bits" => cfg.mean_flow_bits = expect_f64(item, *pos, key)?,
            "packet_bits" => cfg.packet_bits = expect_u64(item, *pos, key)?,
            "packet_interval_secs" => cfg.packet_interval_secs = expect_f64(item, *pos, key)?,
            "max_step" => cfg.max_step = expect_f64(item, *pos, key)?,
            "initial_mobility_enabled" => {
                cfg.initial_mobility_enabled = expect_bool(item, *pos, key)?;
            }
            "estimate_factor" => cfg.estimate_factor = expect_f64(item, *pos, key)?,
            "seed" => cfg.seed = expect_u64(item, *pos, key)?,
            "energy" => {
                cfg.initial_energy = parse_energy(expect_table(item, *pos, key)?, *pos)?;
            }
            "topology" => {
                cfg.topology = parse_topology(expect_table(item, *pos, key)?, *pos)?;
            }
            "churn" => cfg.churn = parse_churn(expect_table(item, *pos, key)?, *pos)?,
            other => {
                return Err(ParseError::at(*pos, format!("unknown key `{other}` in [{ctx}]")));
            }
        }
    }
    Ok(())
}

fn parse_energy(t: &Table, at: Pos) -> Result<EnergyInit, ParseError> {
    let kind = get_str(t, "kind", at)?;
    check_keys(
        t,
        at,
        match kind.as_str() {
            "fixed" => &["kind", "joules"][..],
            "uniform" => &["kind", "lo", "hi"][..],
            "two_tier" => &["kind", "high", "low", "high_fraction"][..],
            _ => {
                return Err(ParseError::at(
                    at,
                    format!("unknown energy kind `{kind}` (expected fixed, uniform or two_tier)"),
                ))
            }
        },
    )?;
    Ok(match kind.as_str() {
        "fixed" => EnergyInit::Fixed(get_f64(t, "joules", at)?),
        "uniform" => EnergyInit::Uniform(get_f64(t, "lo", at)?, get_f64(t, "hi", at)?),
        _ => EnergyInit::TwoTier {
            high: get_f64(t, "high", at)?,
            low: get_f64(t, "low", at)?,
            high_fraction: get_f64(t, "high_fraction", at)?,
        },
    })
}

fn parse_topology(t: &Table, at: Pos) -> Result<TopologyFamily, ParseError> {
    let family = get_str(t, "family", at)?;
    check_keys(t, at, match family.as_str() {
        "uniform" => &["family"][..],
        "clustered" => &["family", "clusters", "spread"][..],
        "small_world" => &["family", "rewire"][..],
        _ => return Err(ParseError::at(at, format!("unknown topology family `{family}` (expected uniform, clustered or small_world)"))),
    })?;
    Ok(match family.as_str() {
        "uniform" => TopologyFamily::Uniform,
        "clustered" => TopologyFamily::Clustered {
            clusters: u32::try_from(get_u64(t, "clusters", at)?)
                .map_err(|_| ParseError::at(at, "clusters out of range"))?,
            spread: get_f64(t, "spread", at)?,
        },
        _ => TopologyFamily::SmallWorld { rewire: get_f64(t, "rewire", at)? },
    })
}

fn parse_churn(t: &Table, at: Pos) -> Result<ChurnModel, ParseError> {
    let model = get_str(t, "model", at)?;
    check_keys(
        t,
        at,
        match model.as_str() {
            "none" => &["model"][..],
            "relay_exponential" => &["model", "mean_secs"][..],
            _ => {
                return Err(ParseError::at(
                    at,
                    format!("unknown churn model `{model}` (expected none or relay_exponential)"),
                ))
            }
        },
    )?;
    Ok(match model.as_str() {
        "none" => ChurnModel::None,
        _ => ChurnModel::RelayExponential { mean_secs: get_f64(t, "mean_secs", at)? },
    })
}

fn parse_ext(t: &Table) -> Result<ExtParams, ParseError> {
    let mut p = ExtParams::paper();
    for (key, pos, item) in &t.entries {
        match key.as_str() {
            "estimate_factors" => p.estimate_factors = expect_f64_array(item, *pos, key)?,
            "steps" => p.steps = expect_f64_array(item, *pos, key)?,
            "lambdas" => p.lambdas = expect_f64_array(item, *pos, key)?,
            "multiflow_concurrent" => {
                p.multiflow_concurrent = u32::try_from(expect_u64(item, *pos, key)?)
                    .map_err(|_| ParseError::at(*pos, "multiflow_concurrent out of range"))?;
            }
            "multiflow_flow_bits" => p.multiflow_flow_bits = expect_u64(item, *pos, key)?,
            "relay_flow_bits" => p.relay_flow_bits = expect_u64(item, *pos, key)?,
            "relay_max" => {
                p.relay_max = usize::try_from(expect_u64(item, *pos, key)?)
                    .map_err(|_| ParseError::at(*pos, "relay_max out of range"))?;
            }
            "initial_status_mean_flow_bits" => {
                p.initial_status_mean_flow_bits = expect_f64(item, *pos, key)?;
            }
            other => {
                return Err(ParseError::at(*pos, format!("unknown key `{other}` in [ext]")));
            }
        }
    }
    Ok(p)
}

// ---- typed accessors over the document model ----

fn expect_value<'a>(item: &'a Item, pos: Pos, key: &str) -> Result<&'a TomlValue, ParseError> {
    match item {
        Item::Value(v) => Ok(v),
        _ => Err(ParseError::at(pos, format!("`{key}` must be a value, not a table"))),
    }
}

fn expect_str(item: &Item, pos: Pos, key: &str) -> Result<String, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Str(s) => Ok(s.clone()),
        _ => Err(ParseError::at(pos, format!("expected a string for `{key}`"))),
    }
}

fn expect_bool(item: &Item, pos: Pos, key: &str) -> Result<bool, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Bool(b) => Ok(*b),
        _ => Err(ParseError::at(pos, format!("expected a boolean for `{key}`"))),
    }
}

fn expect_u64(item: &Item, pos: Pos, key: &str) -> Result<u64, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Int(i) if *i >= 0 => Ok(*i as u64),
        TomlValue::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f < 1.9e19 => Ok(*f as u64),
        _ => Err(ParseError::at(pos, format!("expected a non-negative integer for `{key}`"))),
    }
}

fn expect_f64(item: &Item, pos: Pos, key: &str) -> Result<f64, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Float(f) => Ok(*f),
        TomlValue::Int(i) => Ok(*i as f64),
        _ => Err(ParseError::at(pos, format!("expected a number for `{key}`"))),
    }
}

fn expect_f64_array(item: &Item, pos: Pos, key: &str) -> Result<Vec<f64>, ParseError> {
    match expect_value(item, pos, key)? {
        TomlValue::Array(items) => items
            .iter()
            .map(|v| match v {
                TomlValue::Float(f) => Ok(*f),
                TomlValue::Int(i) => Ok(*i as f64),
                _ => Err(ParseError::at(pos, format!("expected numbers in `{key}`"))),
            })
            .collect(),
        _ => Err(ParseError::at(pos, format!("expected an array for `{key}`"))),
    }
}

fn expect_table<'a>(item: &'a Item, pos: Pos, key: &str) -> Result<&'a Table, ParseError> {
    match item {
        Item::Table(t) => Ok(t),
        _ => Err(ParseError::at(pos, format!("`{key}` must be a table"))),
    }
}

fn get_str(t: &Table, key: &str, at: Pos) -> Result<String, ParseError> {
    let (pos, item) =
        t.get(key).ok_or_else(|| ParseError::at(at, format!("missing key `{key}`")))?;
    expect_str(item, *pos, key)
}

fn get_f64(t: &Table, key: &str, at: Pos) -> Result<f64, ParseError> {
    let (pos, item) =
        t.get(key).ok_or_else(|| ParseError::at(at, format!("missing key `{key}`")))?;
    expect_f64(item, *pos, key)
}

fn get_u64(t: &Table, key: &str, at: Pos) -> Result<u64, ParseError> {
    let (pos, item) =
        t.get(key).ok_or_else(|| ParseError::at(at, format!("missing key `{key}`")))?;
    expect_u64(item, *pos, key)
}

fn check_keys(t: &Table, _at: Pos, allowed: &[&str]) -> Result<(), ParseError> {
    for (key, pos, _) in &t.entries {
        if !allowed.contains(&key.as_str()) {
            return Err(ParseError::at(*pos, format!("unknown key `{key}`")));
        }
    }
    Ok(())
}

/// Converts a parsed JSON document into the positionless table model, so
/// JSON specs flow through the same builder as TOML ones. Objects become
/// tables; arrays whose members are all objects become arrays-of-tables.
fn json_to_table(json: &Json) -> Result<Table, ParseError> {
    let Json::Obj(entries) = json else {
        return Err(ParseError::at(Pos::NONE, "a JSON spec must be an object"));
    };
    let mut table = Table::default();
    for (key, value) in entries {
        table.insert(key.clone(), Pos::NONE, json_to_item(value)?);
    }
    Ok(table)
}

fn json_to_item(value: &Json) -> Result<Item, ParseError> {
    Ok(match value {
        Json::Obj(_) => Item::Table(json_to_table(value)?),
        Json::Arr(items)
            if items.iter().all(|v| matches!(v, Json::Obj(_))) && !items.is_empty() =>
        {
            Item::ArrayOfTables(items.iter().map(json_to_table).collect::<Result<Vec<_>, _>>()?)
        }
        other => Item::Value(json_to_value(other)?),
    })
}

fn json_to_value(value: &Json) -> Result<TomlValue, ParseError> {
    Ok(match value {
        Json::Bool(b) => TomlValue::Bool(*b),
        Json::Str(s) => TomlValue::Str(s.clone()),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => TomlValue::Int(*n as i64),
        Json::Num(n) => TomlValue::Float(*n),
        Json::Arr(items) => {
            TomlValue::Array(items.iter().map(json_to_value).collect::<Result<Vec<_>, _>>()?)
        }
        Json::Null | Json::Obj(_) => {
            return Err(ParseError::at(Pos::NONE, "unsupported JSON value in spec"));
        }
    })
}
