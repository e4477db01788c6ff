//! Declarative N-axis scenario specifications — the single front door
//! to the sweep engine.
//!
//! The paper's surfaces (Figs. 7b, 8a–c, 9a) are all instances of one
//! shape: an attack family crossed with a parameter grid and seeds.
//! Instead of one hardcoded planner per figure, a [`ScenarioSpec`] is an
//! ordered list of typed [`Axis`] values plus an [`AttackFamily`]; one
//! generic planner ([`ScenarioSpec::plan`]) flattens the cross product
//! into the existing [`SweepPlan`]/[`CellJob`] pipeline in row-major
//! order (first axis slowest). Cross products the paper never ran —
//! e.g. a threshold grid × a VDD axis — need no engine changes: every
//! cell resolves to one composite [`CellAttack`] whose
//! [`FaultPlan`](crate::injection::FaultPlan) stacks the components.
//!
//! ## Axes
//!
//! | axis | values | meaning |
//! |---|---|---|
//! | `rel_change` | reals in (−1, 1) | threshold change (threshold families) |
//! | `fraction` | reals in \[0, 1\] | affected layer fraction (threshold families) |
//! | `theta_change` | reals > −1 | input-drive ("theta") change |
//! | `vdd` | positive reals | global supply voltage (needs a transfer table) |
//! | `layer` | `excitatory`, `inhibitory`, `both` | threshold target layer |
//! | `polarity` | non-zero reals (± 1) | multiplier on the family's primary change |
//! | `seed` | integers | per-cell seed (replaces the averaged seed list) |
//! | `defense` | `none`, `robust_driver`, `bandgap_threshold`, `sized_neuron`, `comparator` | §V hardening applied to the cell's transfer table |
//! | `detector` | `none`, `dummy_neuron` | §V-C dummy-neuron VFI detector armed for the cell |
//!
//! ## Grammar
//!
//! Each axis has a textual form, `NAME=VALUES`, where `VALUES` is a
//! comma list (`-0.2,0.2`), a linear range (`0.8..1.2/5` — five points,
//! endpoints included), or for `seed` an inclusive integer range
//! (`1..8`). Real values accept a `%` suffix (`-20%` is −0.20). A whole
//! scenario round-trips through a line-based text form ([`std::fmt::Display`] /
//! [`std::str::FromStr`]):
//!
//! ```text
//! attack = threshold-inhibitory
//! axis rel_change = -0.2, 0.2
//! axis vdd = 0.9, 1
//! seeds = 42
//! transfer = paper
//! ```
//!
//! The same spec crosses the wire whole (`neurofi-dist` protocol v4),
//! so `repro submit` can enqueue arbitrary grids on a running
//! coordinator, and the preset catalog is nothing but named specs.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use neurofi_analog::{PowerTransferTable, TransferPoint};

use crate::defense::Defense;
use crate::error::Error;
use crate::injection::TargetLayer;
use crate::sweep::{layer_design, CellAttack, CellJob, SweepPlan};
use crate::threat::AttackKind;

/// Hard cap on axes per scenario (the attack space has ten axis
/// kinds; duplicates are rejected anyway).
pub const MAX_AXES: usize = 10;
/// Hard cap on the neuron count of one layer-netlist cell: a 4096-neuron
/// layer is already a ≈20 000-unknown circuit per cell.
pub const MAX_LAYER_NEURONS: u64 = 4_096;
/// Hard cap on values per axis — mirrors the wire layer's
/// hostile-length guards so a parsed spec can always be encoded.
pub const MAX_AXIS_VALUES: usize = 65_536;
/// Hard cap on the averaged seed list.
pub const MAX_SEEDS: usize = 4_096;
/// Hard cap on enumerated cells per scenario (the product of the axis
/// lengths).
pub const MAX_CELLS: usize = 1 << 22;
/// Hard cap on a textual spec fed to the parser.
pub const MAX_SPEC_TEXT: usize = 1 << 20;
/// Longest recognisable axis/key token; longer names are rejected
/// before any lookup (hostile-input guard).
pub const MAX_NAME_LEN: usize = 64;

/// The typed axes a scenario may sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisKind {
    /// Relative threshold change (threshold families' primary axis).
    RelChange,
    /// Affected layer fraction (threshold families only).
    Fraction,
    /// Relative input-drive change (the theta family's primary axis;
    /// composes a drive fault on other families).
    ThetaChange,
    /// Global supply voltage (the vdd family's primary axis; composes
    /// the transfer-table fault on other families).
    Vdd,
    /// Threshold target layer (threshold families only).
    Layer,
    /// Multiplier on the family's primary change (typically ±1).
    Polarity,
    /// Per-cell seed; replaces the scenario's averaged seed list.
    Seed,
    /// §V hardening applied to the cell's transfer table before the
    /// VDD fault is sampled (needs a `vdd` axis to defend against).
    Defense,
    /// §V-C detector armed for the cell; detection hit/miss is derived
    /// from the resolved attack, never from the measured accuracy.
    Detector,
    /// Number of neuron instances in the whole-layer netlist workload:
    /// cells with this axis simulate the actual analog layer (shared
    /// supply rail, per-neuron parasitics) at the cell's VDD instead of
    /// the network-level accuracy model (vdd family only, and no
    /// `theta_change` axis: the netlist has no theta input).
    Neurons,
}

impl AxisKind {
    /// Every axis kind, in canonical order.
    pub const ALL: [AxisKind; 10] = [
        AxisKind::RelChange,
        AxisKind::Fraction,
        AxisKind::ThetaChange,
        AxisKind::Vdd,
        AxisKind::Layer,
        AxisKind::Polarity,
        AxisKind::Seed,
        AxisKind::Defense,
        AxisKind::Detector,
        AxisKind::Neurons,
    ];

    /// The grammar name of the axis.
    pub fn name(self) -> &'static str {
        match self {
            AxisKind::RelChange => "rel_change",
            AxisKind::Fraction => "fraction",
            AxisKind::ThetaChange => "theta_change",
            AxisKind::Vdd => "vdd",
            AxisKind::Layer => "layer",
            AxisKind::Polarity => "polarity",
            AxisKind::Seed => "seed",
            AxisKind::Defense => "defense",
            AxisKind::Detector => "detector",
            AxisKind::Neurons => "neurons",
        }
    }

    /// Parses a grammar name. Overlong tokens are rejected before any
    /// comparison.
    pub fn parse(name: &str) -> Result<AxisKind, Error> {
        if name.len() > MAX_NAME_LEN {
            return Err(Error::Invalid(format!(
                "axis name of {} bytes exceeds the {MAX_NAME_LEN}-byte cap",
                name.len()
            )));
        }
        AxisKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                Error::Invalid(format!(
                    "unknown axis `{name}` (axes: {})",
                    AxisKind::ALL.map(AxisKind::name).join(" ")
                ))
            })
    }
}

impl fmt::Display for AxisKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which layer(s) a threshold component targets. Unlike
/// [`TargetLayer`], this includes the both-layer case (Attack 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerSel {
    /// The excitatory layer only (Attack 2).
    Excitatory,
    /// The inhibitory layer only (Attack 3).
    Inhibitory,
    /// Both layers (Attack 4).
    Both,
}

impl LayerSel {
    /// The grammar name.
    pub fn name(self) -> &'static str {
        match self {
            LayerSel::Excitatory => "excitatory",
            LayerSel::Inhibitory => "inhibitory",
            LayerSel::Both => "both",
        }
    }

    /// Parses a grammar name (`el`/`il` shorthands accepted).
    pub fn parse(name: &str) -> Result<LayerSel, Error> {
        match name {
            "excitatory" | "el" => Ok(LayerSel::Excitatory),
            "inhibitory" | "il" => Ok(LayerSel::Inhibitory),
            "both" => Ok(LayerSel::Both),
            other => Err(Error::Invalid(format!(
                "unknown layer `{}` (layers: excitatory inhibitory both)",
                truncate_token(other)
            ))),
        }
    }

    /// The single-layer target, `None` for the both-layer case.
    pub fn target(self) -> Option<TargetLayer> {
        match self {
            LayerSel::Excitatory => Some(TargetLayer::Excitatory),
            LayerSel::Inhibitory => Some(TargetLayer::Inhibitory),
            LayerSel::Both => None,
        }
    }

    /// The selection for a single-layer target (`None` means both).
    pub fn from_target(layer: Option<TargetLayer>) -> LayerSel {
        match layer {
            Some(TargetLayer::Excitatory) => LayerSel::Excitatory,
            Some(TargetLayer::Inhibitory) => LayerSel::Inhibitory,
            None => LayerSel::Both,
        }
    }
}

impl fmt::Display for LayerSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which §V hardening a cell's transfer table is run through —
/// `None` is the undefended circuit, everything else maps onto a
/// [`Defense`] variant (with `sized_neuron` fixed at the paper's
/// measured residual factor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefenseSel {
    /// No hardening — the undefended circuit (the legacy default).
    None,
    /// §V-A robust current driver (pins the drive scale).
    RobustDriver,
    /// §V-A bandgap threshold reference (pins the IF threshold).
    BandgapThreshold,
    /// §V-B first-stage transistor sizing at the paper's residual
    /// factor.
    SizedNeuron,
    /// §V-B comparator-based first stage (pins the AH threshold).
    Comparator,
}

impl DefenseSel {
    /// The grammar name.
    pub fn name(self) -> &'static str {
        match self {
            DefenseSel::None => "none",
            DefenseSel::RobustDriver => "robust_driver",
            DefenseSel::BandgapThreshold => "bandgap_threshold",
            DefenseSel::SizedNeuron => "sized_neuron",
            DefenseSel::Comparator => "comparator",
        }
    }

    /// Parses a grammar name.
    pub fn parse(name: &str) -> Result<DefenseSel, Error> {
        match name {
            "none" => Ok(DefenseSel::None),
            "robust_driver" => Ok(DefenseSel::RobustDriver),
            "bandgap_threshold" => Ok(DefenseSel::BandgapThreshold),
            "sized_neuron" => Ok(DefenseSel::SizedNeuron),
            "comparator" => Ok(DefenseSel::Comparator),
            other => Err(Error::Invalid(format!(
                "unknown defense `{}` (defenses: none robust_driver \
                 bandgap_threshold sized_neuron comparator)",
                truncate_token(other)
            ))),
        }
    }

    /// The concrete §V hardening, `None` for the undefended circuit.
    pub fn defense(self) -> Option<Defense> {
        match self {
            DefenseSel::None => None,
            DefenseSel::RobustDriver => Some(Defense::RobustDriver),
            DefenseSel::BandgapThreshold => Some(Defense::BandgapThreshold),
            DefenseSel::SizedNeuron => Some(Defense::sized_neuron_paper()),
            DefenseSel::Comparator => Some(Defense::ComparatorFirstStage),
        }
    }
}

impl fmt::Display for DefenseSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which §V-C detector a cell arms. `None` means no detection row is
/// derived for the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorSel {
    /// No detector (the legacy default).
    None,
    /// The dummy-neuron spike-count detector with the paper's ≥10%
    /// deviation rule.
    DummyNeuron,
}

impl DetectorSel {
    /// The grammar name.
    pub fn name(self) -> &'static str {
        match self {
            DetectorSel::None => "none",
            DetectorSel::DummyNeuron => "dummy_neuron",
        }
    }

    /// Parses a grammar name.
    pub fn parse(name: &str) -> Result<DetectorSel, Error> {
        match name {
            "none" => Ok(DetectorSel::None),
            "dummy_neuron" => Ok(DetectorSel::DummyNeuron),
            other => Err(Error::Invalid(format!(
                "unknown detector `{}` (detectors: none dummy_neuron)",
                truncate_token(other)
            ))),
        }
    }
}

impl fmt::Display for DetectorSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The values of one axis, typed by what the axis means.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// Real-valued points (`rel_change`, `fraction`, `theta_change`,
    /// `vdd`, `polarity`).
    Real(Vec<f64>),
    /// Layer selections (`layer`).
    Layer(Vec<LayerSel>),
    /// Seeds (`seed`).
    Seed(Vec<u64>),
    /// Defense selections (`defense`).
    Defense(Vec<DefenseSel>),
    /// Detector selections (`detector`).
    Detector(Vec<DetectorSel>),
    /// Layer-netlist neuron counts (`neurons`).
    Neurons(Vec<u64>),
}

impl AxisValues {
    /// Number of points on the axis.
    pub fn len(&self) -> usize {
        match self {
            AxisValues::Real(v) => v.len(),
            AxisValues::Layer(v) => v.len(),
            AxisValues::Seed(v) => v.len(),
            AxisValues::Defense(v) => v.len(),
            AxisValues::Detector(v) => v.len(),
            AxisValues::Neurons(v) => v.len(),
        }
    }

    /// True when the axis has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The real values, when this is a real axis.
    pub fn reals(&self) -> Option<&[f64]> {
        match self {
            AxisValues::Real(v) => Some(v),
            _ => None,
        }
    }
}

/// One typed axis of a scenario's parameter space.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// What the axis means.
    pub kind: AxisKind,
    /// Its points, in sweep order.
    pub values: AxisValues,
}

impl Axis {
    /// A real-valued axis.
    pub fn real(kind: AxisKind, values: Vec<f64>) -> Axis {
        Axis {
            kind,
            values: AxisValues::Real(values),
        }
    }

    /// A layer axis.
    pub fn layers(values: Vec<LayerSel>) -> Axis {
        Axis {
            kind: AxisKind::Layer,
            values: AxisValues::Layer(values),
        }
    }

    /// A seed axis.
    pub fn seeds(values: Vec<u64>) -> Axis {
        Axis {
            kind: AxisKind::Seed,
            values: AxisValues::Seed(values),
        }
    }

    /// A defense axis.
    pub fn defenses(values: Vec<DefenseSel>) -> Axis {
        Axis {
            kind: AxisKind::Defense,
            values: AxisValues::Defense(values),
        }
    }

    /// A detector axis.
    pub fn detectors(values: Vec<DetectorSel>) -> Axis {
        Axis {
            kind: AxisKind::Detector,
            values: AxisValues::Detector(values),
        }
    }

    /// A layer-netlist neuron-count axis.
    pub fn neurons(values: Vec<u64>) -> Axis {
        Axis {
            kind: AxisKind::Neurons,
            values: AxisValues::Neurons(values),
        }
    }

    /// The grammar token of one value (`-0.2`, `inhibitory`, `42`) —
    /// `None` past the end of the axis. Lossless: reals print in
    /// shortest round-trippable form, seeds as full integers.
    pub fn value_label(&self, index: usize) -> Option<String> {
        match &self.values {
            AxisValues::Real(v) => v.get(index).map(|x| format!("{x}")),
            AxisValues::Layer(v) => v.get(index).map(|l| l.name().to_string()),
            AxisValues::Seed(v) => v.get(index).map(|s| s.to_string()),
            AxisValues::Defense(v) => v.get(index).map(|d| d.name().to_string()),
            AxisValues::Detector(v) => v.get(index).map(|d| d.name().to_string()),
            AxisValues::Neurons(v) => v.get(index).map(|n| n.to_string()),
        }
    }

    /// Parses the `NAME=VALUES` grammar (see the module docs).
    ///
    /// # Errors
    /// Rejects unknown or overlong names, malformed values, and axes
    /// longer than [`MAX_AXIS_VALUES`].
    pub fn parse(text: &str) -> Result<Axis, Error> {
        let (name, values) = text.split_once('=').ok_or_else(|| {
            Error::Invalid(format!(
                "axis `{}` is not NAME=VALUES",
                truncate_token(text)
            ))
        })?;
        let kind = AxisKind::parse(name.trim())?;
        let values = values.trim();
        let parsed = match kind {
            AxisKind::Layer => AxisValues::Layer(
                split_values(values)?
                    .iter()
                    .map(|t| LayerSel::parse(t))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            AxisKind::Seed => AxisValues::Seed(parse_seed_values(values)?),
            AxisKind::Neurons => AxisValues::Neurons(parse_seed_values(values)?),
            AxisKind::Defense => AxisValues::Defense(
                split_values(values)?
                    .iter()
                    .map(|t| DefenseSel::parse(t))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            AxisKind::Detector => AxisValues::Detector(
                split_values(values)?
                    .iter()
                    .map(|t| DetectorSel::parse(t))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            AxisKind::Polarity => AxisValues::Real(
                split_values(values)?
                    .iter()
                    .map(|t| match *t {
                        "+" => Ok(1.0),
                        "-" => Ok(-1.0),
                        t => parse_real(t),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            _ => AxisValues::Real(parse_real_values(values)?),
        };
        if parsed.is_empty() {
            return Err(Error::Invalid(format!("axis `{}` has no values", kind)));
        }
        if parsed.len() > MAX_AXIS_VALUES {
            return Err(Error::Invalid(format!(
                "axis `{kind}` has {} values, more than the {MAX_AXIS_VALUES} cap",
                parsed.len()
            )));
        }
        Ok(Axis {
            kind,
            values: parsed,
        })
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = ", self.kind)?;
        match &self.values {
            AxisValues::Real(v) => join_display(f, v),
            AxisValues::Layer(v) => join_display(f, v),
            AxisValues::Seed(v) => join_display(f, v),
            AxisValues::Defense(v) => join_display(f, v),
            AxisValues::Detector(v) => join_display(f, v),
            AxisValues::Neurons(v) => join_display(f, v),
        }
    }
}

fn join_display<T: fmt::Display>(f: &mut fmt::Formatter<'_>, values: &[T]) -> fmt::Result {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{v}")?;
    }
    Ok(())
}

/// Clips a hostile token for error messages so a multi-megabyte input
/// never echoes whole.
fn truncate_token(token: &str) -> String {
    let mut end = token.len().min(MAX_NAME_LEN);
    while !token.is_char_boundary(end) {
        end -= 1;
    }
    if end < token.len() {
        format!("{}…", &token[..end])
    } else {
        token.to_string()
    }
}

fn split_values(text: &str) -> Result<Vec<&str>, Error> {
    let values: Vec<&str> = text.split(',').map(str::trim).collect();
    if values.len() > MAX_AXIS_VALUES {
        return Err(Error::Invalid(format!(
            "{} values exceed the {MAX_AXIS_VALUES} cap",
            values.len()
        )));
    }
    Ok(values)
}

/// One real literal: a float with an optional `%` suffix (percent of
/// one, so `-20%` parses to −0.20).
fn parse_real(token: &str) -> Result<f64, Error> {
    let (body, percent) = match token.strip_suffix('%') {
        Some(body) => (body.trim(), true),
        None => (token, false),
    };
    let value: f64 = body
        .parse()
        .map_err(|_| Error::Invalid(format!("`{}` is not a number", truncate_token(token))))?;
    Ok(if percent { value / 100.0 } else { value })
}

/// Real axis values: a comma list, or a `start..end/count` linear range
/// (endpoints included, `count >= 2`).
fn parse_real_values(text: &str) -> Result<Vec<f64>, Error> {
    if let Some(split) = text.find("..") {
        let start = parse_real(text[..split].trim())?;
        let rest = &text[split + 2..];
        let (end_text, count_text) = rest.split_once('/').ok_or_else(|| {
            Error::Invalid(format!(
                "range `{}` needs a point count: start..end/count",
                truncate_token(text)
            ))
        })?;
        let end = parse_real(end_text.trim())?;
        let count: usize = count_text.trim().parse().map_err(|_| {
            Error::Invalid(format!(
                "`{}` is not a point count",
                truncate_token(count_text)
            ))
        })?;
        if count < 2 {
            return Err(Error::Invalid(
                "a range needs at least 2 points (use a plain value otherwise)".into(),
            ));
        }
        if count > MAX_AXIS_VALUES {
            return Err(Error::Invalid(format!(
                "range of {count} points exceeds the {MAX_AXIS_VALUES} cap"
            )));
        }
        return Ok((0..count)
            .map(|i| {
                // Pin the endpoints so `0.8..1.2/5` ends on exactly 1.2
                // instead of an accumulation artefact.
                if i == 0 {
                    start
                } else if i == count - 1 {
                    end
                } else {
                    start + (end - start) * (i as f64) / ((count - 1) as f64)
                }
            })
            .collect());
    }
    split_values(text)?.iter().map(|t| parse_real(t)).collect()
}

/// Seed values: a comma list of integers, or an inclusive `start..end`
/// integer range. Public for CLI front ends (`--seeds 1..8`).
///
/// # Errors
/// Rejects non-integers, reversed ranges, and hostile lengths.
pub fn parse_seed_values(text: &str) -> Result<Vec<u64>, Error> {
    let parse_one = |token: &str| -> Result<u64, Error> {
        token
            .trim()
            .parse()
            .map_err(|_| Error::Invalid(format!("`{}` is not a seed", truncate_token(token))))
    };
    if let Some(split) = text.find("..") {
        let start = parse_one(&text[..split])?;
        let end = parse_one(&text[split + 2..])?;
        if end < start {
            return Err(Error::Invalid(format!(
                "seed range {start}..{end} is reversed"
            )));
        }
        // Span-first comparison: `end - start` cannot overflow (end >=
        // start), while a naive `+ 1` count would panic on 0..u64::MAX.
        if end - start >= MAX_AXIS_VALUES as u64 {
            return Err(Error::Invalid(format!(
                "seed range {start}..{end} exceeds the {MAX_AXIS_VALUES}-value cap"
            )));
        }
        return Ok((start..=end).collect());
    }
    split_values(text)?.iter().map(|t| parse_one(t)).collect()
}

/// The attack family of a scenario: which paper attack the cells
/// instantiate, and therefore which axis carries the primary change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackFamily {
    /// Attacks 2–4: threshold manipulation of the selected layer(s).
    /// A `layer` axis overrides the selection per cell.
    Threshold(LayerSel),
    /// Attack 1: input-drive (theta) corruption.
    Theta,
    /// Attack 5: global VDD manipulation via the transfer table.
    Vdd,
}

impl AttackFamily {
    /// Every family, with the threshold variants enumerated.
    pub const ALL: [AttackFamily; 5] = [
        AttackFamily::Threshold(LayerSel::Excitatory),
        AttackFamily::Threshold(LayerSel::Inhibitory),
        AttackFamily::Threshold(LayerSel::Both),
        AttackFamily::Theta,
        AttackFamily::Vdd,
    ];

    /// The grammar/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            AttackFamily::Threshold(LayerSel::Excitatory) => "threshold-excitatory",
            AttackFamily::Threshold(LayerSel::Inhibitory) => "threshold-inhibitory",
            AttackFamily::Threshold(LayerSel::Both) => "threshold-both",
            AttackFamily::Theta => "theta",
            AttackFamily::Vdd => "vdd",
        }
    }

    /// Parses a grammar/CLI name.
    pub fn parse(name: &str) -> Result<AttackFamily, Error> {
        if name.len() > MAX_NAME_LEN {
            return Err(Error::Invalid(format!(
                "attack name of {} bytes exceeds the {MAX_NAME_LEN}-byte cap",
                name.len()
            )));
        }
        AttackFamily::ALL
            .into_iter()
            .find(|f| f.name() == name)
            .ok_or_else(|| {
                Error::Invalid(format!(
                    "unknown attack `{name}` (attacks: {})",
                    AttackFamily::ALL.map(AttackFamily::name).join(" ")
                ))
            })
    }

    /// The paper attack kind this family reports as. A `layer` axis
    /// refines the layer per cell; the scenario-level kind reflects the
    /// family's default selection.
    pub fn kind(self) -> AttackKind {
        match self {
            AttackFamily::Threshold(LayerSel::Excitatory) => AttackKind::ExcitatoryThreshold,
            AttackFamily::Threshold(LayerSel::Inhibitory) => AttackKind::InhibitoryThreshold,
            AttackFamily::Threshold(LayerSel::Both) => AttackKind::BothLayerThreshold,
            AttackFamily::Theta => AttackKind::InputSpikeCorruption,
            AttackFamily::Vdd => AttackKind::GlobalVdd,
        }
    }

    /// The axis carrying the family's primary change.
    pub fn primary_axis(self) -> AxisKind {
        match self {
            AttackFamily::Threshold(_) => AxisKind::RelChange,
            AttackFamily::Theta => AxisKind::ThetaChange,
            AttackFamily::Vdd => AxisKind::Vdd,
        }
    }
}

impl fmt::Display for AttackFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative N-axis sweep scenario: an attack family, an ordered
/// list of typed axes, the seeds each cell averages over, and (for VDD
/// components) the circuit transfer table. One generic planner
/// ([`ScenarioSpec::plan`]) turns it into index-addressed
/// [`CellJob`]s; the paper's three grids, the preset catalog, and every
/// custom cross product all flow through it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The attack family (determines the primary axis and the reported
    /// [`AttackKind`]).
    pub family: AttackFamily,
    /// The axes, in sweep order (first axis slowest; cells are
    /// enumerated row-major).
    pub axes: Vec<Axis>,
    /// Seeds every cell averages over. Empty when (and only when) a
    /// `seed` axis supplies per-cell seeds instead.
    pub seeds: Vec<u64>,
    /// VDD → parameter transfer points, strictly increasing in VDD.
    /// Required whenever a `vdd` axis is present; serialised
    /// point-by-point so heterogeneous workers share one
    /// characterisation.
    pub transfer: Option<Vec<TransferPoint>>,
}

/// The relative threshold changes of the paper's Fig. 8 grid.
pub const FIG8_REL_CHANGES: [f64; 4] = [-0.20, -0.10, 0.10, 0.20];
/// The affected layer fractions of the paper's Fig. 8 grid.
pub const FIG8_FRACTIONS: [f64; 6] = [0.0, 0.25, 0.50, 0.75, 0.90, 1.0];

impl ScenarioSpec {
    /// A threshold scenario over `rel_changes × fractions` — the shape
    /// of the paper's Figs. 8a–c ([`FIG8_REL_CHANGES`] ×
    /// [`FIG8_FRACTIONS`]). `layer = None` is Attack 4, which the paper
    /// defines at 100%, so fractions other than 1.0 are dropped.
    pub fn threshold(
        layer: Option<TargetLayer>,
        rel_changes: &[f64],
        fractions: &[f64],
        seeds: &[u64],
    ) -> ScenarioSpec {
        let fractions: Vec<f64> = fractions
            .iter()
            .copied()
            .filter(|f| layer.is_some() || (f - 1.0).abs() <= 1e-9)
            .collect();
        ScenarioSpec {
            family: AttackFamily::Threshold(LayerSel::from_target(layer)),
            axes: vec![
                Axis::real(AxisKind::RelChange, rel_changes.to_vec()),
                Axis::real(AxisKind::Fraction, fractions),
            ],
            seeds: seeds.to_vec(),
            transfer: None,
        }
    }

    /// A theta scenario over `theta_changes` (Fig. 7b's shape).
    pub fn theta(theta_changes: &[f64], seeds: &[u64]) -> ScenarioSpec {
        ScenarioSpec {
            family: AttackFamily::Theta,
            axes: vec![Axis::real(AxisKind::ThetaChange, theta_changes.to_vec())],
            seeds: seeds.to_vec(),
            transfer: None,
        }
    }

    /// A VDD scenario over `vdds` (Fig. 9a's shape) with the given
    /// transfer characterisation.
    pub fn vdd(vdds: &[f64], transfer: &PowerTransferTable, seeds: &[u64]) -> ScenarioSpec {
        ScenarioSpec {
            family: AttackFamily::Vdd,
            axes: vec![Axis::real(AxisKind::Vdd, vdds.to_vec())],
            seeds: seeds.to_vec(),
            transfer: Some(transfer.points().to_vec()),
        }
    }

    /// The axis of the given kind, if present.
    pub fn axis(&self, kind: AxisKind) -> Option<&Axis> {
        self.axes.iter().find(|a| a.kind == kind)
    }

    /// The per-axis point counts, in axis order.
    pub fn shape(&self) -> Vec<usize> {
        self.axes.iter().map(|a| a.values.len()).collect()
    }

    /// Number of cells the scenario enumerates (the product of the axis
    /// lengths; 0 when any axis is empty or none exist).
    pub fn n_cells(&self) -> usize {
        if self.axes.is_empty() {
            return 0;
        }
        self.axes
            .iter()
            .map(|a| a.values.len())
            .try_fold(1usize, |acc, n| acc.checked_mul(n))
            .unwrap_or(usize::MAX)
    }

    /// The seeds baselines are primed (and the mean baseline derived)
    /// over: the `seed` axis when present, the averaged list otherwise.
    pub fn baseline_seeds(&self) -> &[u64] {
        match self.axis(AxisKind::Seed) {
            Some(Axis {
                values: AxisValues::Seed(seeds),
                ..
            }) => seeds,
            _ => &self.seeds,
        }
    }

    /// The scenario-level attack kind (see [`AttackFamily::kind`]).
    pub fn kind(&self) -> AttackKind {
        self.family.kind()
    }

    /// Rejects scenarios that cannot run. Checks the axis set (primary
    /// axis present, no duplicates, family-compatible kinds), the value
    /// ranges, the seed configuration, the transfer table, and every
    /// hostile-size cap.
    ///
    /// # Errors
    /// Returns [`Error::Invalid`] naming the violation.
    pub fn validate(&self) -> Result<(), Error> {
        if self.axes.is_empty() {
            return Err(Error::Invalid("scenario has no axes".into()));
        }
        if self.axes.len() > MAX_AXES {
            return Err(Error::Invalid(format!(
                "{} axes exceed the {MAX_AXES} cap",
                self.axes.len()
            )));
        }
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.values.is_empty() {
                return Err(Error::Invalid(format!(
                    "axis `{}` has no values",
                    axis.kind
                )));
            }
            if axis.values.len() > MAX_AXIS_VALUES {
                return Err(Error::Invalid(format!(
                    "axis `{}` has {} values, more than the {MAX_AXIS_VALUES} cap",
                    axis.kind,
                    axis.values.len()
                )));
            }
            if self.axes[..i].iter().any(|a| a.kind == axis.kind) {
                return Err(Error::Invalid(format!(
                    "axis `{}` appears twice",
                    axis.kind
                )));
            }
            self.validate_axis(axis)?;
        }
        if self.n_cells() > MAX_CELLS {
            return Err(Error::Invalid(format!(
                "scenario enumerates more than {MAX_CELLS} cells"
            )));
        }
        let primary = self.family.primary_axis();
        if self.axis(primary).is_none() {
            return Err(Error::Invalid(format!(
                "attack `{}` needs a `{primary}` axis",
                self.family
            )));
        }
        // Polarity multiplies the primary change at planning time, so
        // the *products* must stay in the primary axis's valid range —
        // otherwise a spec that validates here would have every scaled
        // cell rejected at execution (on a coordinator: accepted,
        // journal-bound, then poisoned cell by cell).
        if let Some(polarity) = self.axis(AxisKind::Polarity) {
            let products_ok = |scaled: f64| match self.family {
                AttackFamily::Threshold(_) => scaled.is_finite() && scaled > -1.0 && scaled < 1.0,
                AttackFamily::Theta => scaled.is_finite() && scaled > -1.0,
                AttackFamily::Vdd => true,
            };
            if let (Some(values), Some(polarities)) = (
                self.axis(primary).and_then(|a| a.values.reals()),
                polarity.values.reals(),
            ) {
                for &p in polarities {
                    for &v in values {
                        if !products_ok(v * p) {
                            return Err(Error::Invalid(format!(
                                "polarity {p} drives {primary} value {v} to {}, \
                                 outside the axis's valid range",
                                v * p
                            )));
                        }
                    }
                }
            }
        }
        match self.axis(AxisKind::Seed) {
            Some(_) if !self.seeds.is_empty() => {
                return Err(Error::Invalid(
                    "a seed axis and an averaged seed list cannot be combined".into(),
                ))
            }
            None if self.seeds.is_empty() => {
                return Err(Error::Invalid("scenario has no seeds".into()))
            }
            _ => {}
        }
        if self.seeds.len() > MAX_SEEDS {
            return Err(Error::Invalid(format!(
                "{} seeds exceed the {MAX_SEEDS} cap",
                self.seeds.len()
            )));
        }
        if self.axis(AxisKind::Vdd).is_some() {
            let Some(transfer) = &self.transfer else {
                return Err(Error::Invalid(
                    "a vdd axis needs a transfer table (`transfer = paper`)".into(),
                ));
            };
            validate_transfer(transfer)?;
        } else if let Some(transfer) = &self.transfer {
            // Tolerated but still has to be usable: the spec is
            // digested and shipped as-is.
            validate_transfer(transfer)?;
        }
        Ok(())
    }

    fn validate_axis(&self, axis: &Axis) -> Result<(), Error> {
        let threshold = matches!(self.family, AttackFamily::Threshold(_));
        let reals = axis.values.reals();
        match axis.kind {
            AxisKind::RelChange => {
                if !threshold {
                    return Err(Error::Invalid(format!(
                        "a rel_change axis needs a threshold attack, not `{}`",
                        self.family
                    )));
                }
                expect_reals(
                    axis,
                    reals,
                    |v| v.is_finite() && v > -1.0 && v < 1.0,
                    "relative threshold changes must be finite and within (-1, 1)",
                )
            }
            AxisKind::Fraction => {
                if !threshold {
                    return Err(Error::Invalid(format!(
                        "a fraction axis needs a threshold attack, not `{}`",
                        self.family
                    )));
                }
                expect_reals(
                    axis,
                    reals,
                    |v| (0.0..=1.0).contains(&v),
                    "fractions must be within [0, 1]",
                )
            }
            AxisKind::ThetaChange => expect_reals(
                axis,
                reals,
                |v| v.is_finite() && v > -1.0,
                "theta changes must be finite and greater than -1",
            ),
            AxisKind::Vdd => expect_reals(
                axis,
                reals,
                |v| v.is_finite() && v > 0.0,
                "supply voltages must be finite and positive",
            ),
            AxisKind::Polarity => {
                if !matches!(
                    self.family,
                    AttackFamily::Threshold(_) | AttackFamily::Theta
                ) {
                    return Err(Error::Invalid(format!(
                        "a polarity axis needs a signed primary change; attack `{}` has none",
                        self.family
                    )));
                }
                expect_reals(
                    axis,
                    reals,
                    |v| v.is_finite() && v != 0.0,
                    "polarities must be finite and non-zero",
                )
            }
            AxisKind::Layer => {
                if !threshold {
                    return Err(Error::Invalid(format!(
                        "a layer axis needs a threshold attack, not `{}`",
                        self.family
                    )));
                }
                match &axis.values {
                    AxisValues::Layer(_) => Ok(()),
                    _ => Err(Error::Invalid("layer axis carries non-layer values".into())),
                }
            }
            AxisKind::Seed => match &axis.values {
                AxisValues::Seed(_) => Ok(()),
                _ => Err(Error::Invalid("seed axis carries non-seed values".into())),
            },
            // The countermeasure axes act through the VDD path: a
            // defense hardens the transfer table the vdd fault is
            // sampled from, a detector senses supply droop. Without a
            // vdd axis every non-`none` value would be a silent no-op,
            // so such specs are rejected up front (an all-`none` axis
            // is fine — it is the explicit spelling of the default).
            AxisKind::Defense => {
                let AxisValues::Defense(values) = &axis.values else {
                    return Err(Error::Invalid(
                        "defense axis carries non-defense values".into(),
                    ));
                };
                if values.iter().any(|&d| d != DefenseSel::None)
                    && self.axis(AxisKind::Vdd).is_none()
                {
                    return Err(Error::Invalid(
                        "a defense axis needs a `vdd` axis to defend against \
                         (defenses harden the VDD transfer table)"
                            .into(),
                    ));
                }
                Ok(())
            }
            AxisKind::Detector => {
                let AxisValues::Detector(values) = &axis.values else {
                    return Err(Error::Invalid(
                        "detector axis carries non-detector values".into(),
                    ));
                };
                if values.iter().any(|&d| d != DetectorSel::None)
                    && self.axis(AxisKind::Vdd).is_none()
                {
                    return Err(Error::Invalid(
                        "a detector axis needs a `vdd` axis to watch \
                         (the dummy neuron senses supply droop)"
                            .into(),
                    ));
                }
                Ok(())
            }
            // The layer-netlist workload simulates the actual analog
            // layer at the cell's supply voltage, so it only composes
            // with the vdd family and no theta change (the netlist has
            // no theta input); every layer size × defense must be a
            // buildable layer design (the transfer-table-only
            // hardenings would be silent no-ops).
            AxisKind::Neurons => {
                let AxisValues::Neurons(values) = &axis.values else {
                    return Err(Error::Invalid(
                        "neurons axis carries non-integer values".into(),
                    ));
                };
                if self.family != AttackFamily::Vdd {
                    return Err(Error::Invalid(format!(
                        "a neurons axis needs the vdd attack (the layer netlist \
                         models the supply attack surface), not `{}`",
                        self.family
                    )));
                }
                if self.axis(AxisKind::ThetaChange).is_some() {
                    return Err(Error::Invalid(
                        "a neurons axis cannot be combined with a theta_change axis \
                         (the layer netlist has no theta input)"
                            .into(),
                    ));
                }
                let defenses: BTreeSet<DefenseSel> = match self.axis(AxisKind::Defense) {
                    Some(Axis {
                        values: AxisValues::Defense(defenses),
                        ..
                    }) => defenses.iter().copied().collect(),
                    _ => BTreeSet::from([DefenseSel::None]),
                };
                for &neurons in values {
                    for &defense in &defenses {
                        layer_design(neurons, defense)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// The transfer table VDD components execute against (`None` when
    /// the scenario has no `vdd` axis).
    ///
    /// # Errors
    /// Returns [`Error::Invalid`] for missing or unusable tables.
    pub fn transfer_table(&self) -> Result<Option<PowerTransferTable>, Error> {
        if self.axis(AxisKind::Vdd).is_none() {
            return Ok(None);
        }
        let Some(transfer) = &self.transfer else {
            return Err(Error::Invalid(
                "a vdd axis needs a transfer table (`transfer = paper`)".into(),
            ));
        };
        validate_transfer(transfer)?;
        Ok(Some(PowerTransferTable::new(transfer.clone())))
    }

    /// Stage 1 (enumerate): flattens the axis cross product into a
    /// [`SweepPlan`] of index-addressed [`CellJob`]s, row-major over
    /// the axes (first axis slowest). The plan carries the resolved
    /// axes, so the assembled result is addressable by axis indices.
    ///
    /// Planning never fails for validated specs — invalid parameter
    /// values are rejected by [`ScenarioSpec::validate`] up front and
    /// by [`execute_cell`](crate::sweep::execute_cell) per cell (jobs
    /// may arrive over a wire).
    ///
    /// # Panics
    /// Panics (instead of attempting a pathological allocation) when
    /// the axis product exceeds [`MAX_CELLS`] — every untrusted path
    /// validates first, so this only fires on a caller that skipped
    /// [`ScenarioSpec::validate`].
    pub fn plan(&self) -> SweepPlan {
        let shape = self.shape();
        let total = self.n_cells();
        assert!(
            total <= MAX_CELLS,
            "scenario enumerates {total} cells, over the {MAX_CELLS} cap; \
             call validate() before plan()"
        );
        let mut jobs = Vec::with_capacity(total.min(MAX_CELLS));
        let mut indices = vec![0usize; shape.len()];
        for index in 0..total {
            jobs.push(CellJob {
                index,
                attack: self.resolve(&indices),
            });
            for d in (0..indices.len()).rev() {
                indices[d] += 1;
                if indices[d] < shape[d] {
                    break;
                }
                indices[d] = 0;
            }
        }
        SweepPlan {
            kind: self.kind(),
            seeds: self.baseline_seeds().to_vec(),
            axes: self.axes.clone(),
            jobs,
        }
    }

    /// Resolves one cell: the axis values at `indices` folded into a
    /// composite [`CellAttack`].
    fn resolve(&self, indices: &[usize]) -> CellAttack {
        let mut family = self.family;
        let mut attack = CellAttack {
            family,
            rel_change: None,
            fraction: 1.0,
            theta_change: None,
            vdd: None,
            seed: None,
            defense: DefenseSel::None,
            detector: DetectorSel::None,
            neurons: None,
        };
        let mut polarity: Option<f64> = None;
        for (axis, &i) in self.axes.iter().zip(indices) {
            match (&axis.kind, &axis.values) {
                (AxisKind::RelChange, AxisValues::Real(v)) => attack.rel_change = Some(v[i]),
                (AxisKind::Fraction, AxisValues::Real(v)) => attack.fraction = v[i],
                (AxisKind::ThetaChange, AxisValues::Real(v)) => attack.theta_change = Some(v[i]),
                (AxisKind::Vdd, AxisValues::Real(v)) => attack.vdd = Some(v[i]),
                (AxisKind::Polarity, AxisValues::Real(v)) => polarity = Some(v[i]),
                (AxisKind::Layer, AxisValues::Layer(v)) => {
                    if let AttackFamily::Threshold(_) = family {
                        family = AttackFamily::Threshold(v[i]);
                    }
                }
                (AxisKind::Seed, AxisValues::Seed(v)) => attack.seed = Some(v[i]),
                (AxisKind::Defense, AxisValues::Defense(v)) => attack.defense = v[i],
                (AxisKind::Detector, AxisValues::Detector(v)) => attack.detector = v[i],
                (AxisKind::Neurons, AxisValues::Neurons(v)) => attack.neurons = Some(v[i]),
                // Kind/values mismatches are rejected by validate();
                // planning an unvalidated spec just skips them.
                _ => {}
            }
        }
        attack.family = family;
        if let Some(p) = polarity {
            match family {
                AttackFamily::Threshold(_) => attack.rel_change = attack.rel_change.map(|v| v * p),
                AttackFamily::Theta => attack.theta_change = attack.theta_change.map(|v| v * p),
                AttackFamily::Vdd => {}
            }
        }
        attack
    }
}

fn expect_reals(
    axis: &Axis,
    reals: Option<&[f64]>,
    ok: impl Fn(f64) -> bool,
    message: &str,
) -> Result<(), Error> {
    let Some(values) = reals else {
        return Err(Error::Invalid(format!(
            "axis `{}` carries non-numeric values",
            axis.kind
        )));
    };
    match values.iter().copied().find(|&v| !ok(v)) {
        Some(bad) => Err(Error::Invalid(format!(
            "axis `{}`: {message} (got {bad})",
            axis.kind
        ))),
        None => Ok(()),
    }
}

fn validate_transfer(transfer: &[TransferPoint]) -> Result<(), Error> {
    if transfer.len() < 2 {
        return Err(Error::Invalid(
            "a transfer table needs at least two points".into(),
        ));
    }
    if !transfer.windows(2).all(|w| w[0].vdd < w[1].vdd) {
        return Err(Error::Invalid(
            "transfer points must be strictly increasing in vdd".into(),
        ));
    }
    Ok(())
}

impl fmt::Display for ScenarioSpec {
    /// The canonical line-based text form (see the module docs).
    /// Ranges are expanded to explicit value lists, so
    /// parse → display → parse is the identity bit-for-bit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "attack = {}", self.family)?;
        for axis in &self.axes {
            writeln!(f, "axis {axis}")?;
        }
        if !self.seeds.is_empty() {
            write!(f, "seeds = ")?;
            join_display(f, &self.seeds)?;
            writeln!(f)?;
        }
        if let Some(transfer) = &self.transfer {
            if transfer.as_slice() == PowerTransferTable::paper_nominal().points() {
                writeln!(f, "transfer = paper")?;
            } else {
                write!(f, "transfer = ")?;
                for (i, p) in transfer.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(
                        f,
                        "{}:{}:{}:{}",
                        p.vdd, p.drive_scale, p.ah_threshold_scale, p.if_threshold_scale
                    )?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

impl FromStr for ScenarioSpec {
    type Err = Error;

    /// Parses the line-based text form (see the module docs): one
    /// `attack = NAME` line, one `axis NAME = VALUES` line per axis,
    /// and optional `seeds = ...` / `transfer = ...` lines. Blank
    /// lines and `#` comments are ignored; unknown keys are rejected.
    fn from_str(text: &str) -> Result<ScenarioSpec, Error> {
        let mut family: Option<AttackFamily> = None;
        let mut axes: Vec<Axis> = Vec::new();
        let mut seeds: Option<Vec<u64>> = None;
        let mut transfer: Option<Vec<TransferPoint>> = None;
        for line in spec_lines(text)? {
            match parse_spec_line(line)? {
                SpecLine::Attack(f) => {
                    if family.replace(f).is_some() {
                        return Err(Error::Invalid("duplicate `attack` line".into()));
                    }
                }
                SpecLine::Axis(axis) => {
                    if axes.len() >= MAX_AXES {
                        return Err(Error::Invalid(format!("more than {MAX_AXES} axes")));
                    }
                    if axes.iter().any(|a| a.kind == axis.kind) {
                        return Err(Error::Invalid(format!(
                            "axis `{}` appears twice",
                            axis.kind
                        )));
                    }
                    axes.push(axis);
                }
                SpecLine::Seeds(s) => {
                    if seeds.replace(s).is_some() {
                        return Err(Error::Invalid("duplicate `seeds` line".into()));
                    }
                }
                SpecLine::Transfer(t) => {
                    if transfer.replace(t).is_some() {
                        return Err(Error::Invalid("duplicate `transfer` line".into()));
                    }
                }
                SpecLine::Other(key, _) => {
                    return Err(Error::Invalid(format!(
                        "unknown key `{}` (keys: attack, axis NAME, seeds, transfer)",
                        truncate_token(key)
                    )))
                }
            }
        }
        let Some(family) = family else {
            return Err(Error::Invalid("spec is missing its `attack` line".into()));
        };
        Ok(ScenarioSpec {
            family,
            axes,
            seeds: seeds.unwrap_or_default(),
            transfer,
        })
    }
}

/// A classified spec line, shared with the campaign-file parser in
/// `neurofi-dist` (which handles `Other` keys like `name` and `setup`
/// before delegating the rest here).
#[derive(Debug)]
pub enum SpecLine<'a> {
    /// `attack = NAME`.
    Attack(AttackFamily),
    /// `axis NAME = VALUES`.
    Axis(Axis),
    /// `seeds = ...`.
    Seeds(Vec<u64>),
    /// `transfer = paper` or explicit points.
    Transfer(Vec<TransferPoint>),
    /// Any other `key = value` line, returned for the caller to
    /// interpret (or reject).
    Other(&'a str, &'a str),
}

/// Splits spec text into meaningful lines, enforcing the
/// [`MAX_SPEC_TEXT`] hostile-input cap and stripping blanks and `#`
/// comments.
///
/// # Errors
/// Rejects oversized input.
pub fn spec_lines(text: &str) -> Result<impl Iterator<Item = &str>, Error> {
    if text.len() > MAX_SPEC_TEXT {
        return Err(Error::Invalid(format!(
            "spec text of {} bytes exceeds the {MAX_SPEC_TEXT}-byte cap",
            text.len()
        )));
    }
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#')))
}

/// Classifies one spec line.
///
/// # Errors
/// Rejects malformed axis/attack/seeds/transfer lines; unknown keys
/// are *returned* as [`SpecLine::Other`], not rejected, so wrappers
/// can layer their own keys on the grammar.
pub fn parse_spec_line(line: &str) -> Result<SpecLine<'_>, Error> {
    if let Some(axis) = line.strip_prefix("axis ") {
        return Ok(SpecLine::Axis(Axis::parse(axis.trim())?));
    }
    let Some((key, value)) = line.split_once('=') else {
        return Err(Error::Invalid(format!(
            "line `{}` is not `key = value`",
            truncate_token(line)
        )));
    };
    let (key, value) = (key.trim(), value.trim());
    match key {
        "attack" => Ok(SpecLine::Attack(AttackFamily::parse(value)?)),
        "seeds" => Ok(SpecLine::Seeds(parse_seed_values(value)?)),
        "transfer" => Ok(SpecLine::Transfer(parse_transfer(value)?)),
        other => Ok(SpecLine::Other(other, value)),
    }
}

/// Transfer-table values: `paper` for the paper-nominal
/// characterisation, or explicit `vdd:drive:ah:if` 4-tuples separated
/// by `;`. Public for CLI front ends (`--transfer paper`).
///
/// # Errors
/// Rejects malformed points and hostile lengths.
pub fn parse_transfer(value: &str) -> Result<Vec<TransferPoint>, Error> {
    if value == "paper" {
        return Ok(PowerTransferTable::paper_nominal().points().to_vec());
    }
    let points: Vec<&str> = value.split(';').map(str::trim).collect();
    if points.len() > MAX_AXIS_VALUES {
        return Err(Error::Invalid(format!(
            "{} transfer points exceed the {MAX_AXIS_VALUES} cap",
            points.len()
        )));
    }
    points
        .iter()
        .map(|point| {
            let fields: Vec<&str> = point.split(':').map(str::trim).collect();
            if fields.len() != 4 {
                return Err(Error::Invalid(format!(
                    "transfer point `{}` is not vdd:drive:ah:if",
                    truncate_token(point)
                )));
            }
            Ok(TransferPoint {
                vdd: parse_real(fields[0])?,
                drive_scale: parse_real(fields[1])?,
                ah_threshold_scale: parse_real(fields[2])?,
                if_threshold_scale: parse_real(fields[3])?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn il_spec() -> ScenarioSpec {
        ScenarioSpec {
            family: AttackFamily::Threshold(LayerSel::Inhibitory),
            axes: vec![
                Axis::real(AxisKind::RelChange, vec![-0.2, 0.2]),
                Axis::real(AxisKind::Fraction, vec![0.0, 0.5, 1.0]),
            ],
            seeds: vec![42],
            transfer: None,
        }
    }

    #[test]
    fn axis_grammar_parses_lists_ranges_and_percent() {
        let axis = Axis::parse("rel_change=-20%,20%").unwrap();
        assert_eq!(axis.values, AxisValues::Real(vec![-0.20, 0.20]));
        let axis = Axis::parse("vdd = 0.8..1.2/5").unwrap();
        let AxisValues::Real(v) = &axis.values else {
            panic!()
        };
        assert_eq!(v.len(), 5);
        assert_eq!(v[0], 0.8);
        assert_eq!(v[4], 1.2, "range endpoints are pinned exactly");
        assert_eq!(v[2], 1.0);
        let axis = Axis::parse("seed = 3..6").unwrap();
        assert_eq!(axis.values, AxisValues::Seed(vec![3, 4, 5, 6]));
        let axis = Axis::parse("layer = il, el, both").unwrap();
        assert_eq!(
            axis.values,
            AxisValues::Layer(vec![
                LayerSel::Inhibitory,
                LayerSel::Excitatory,
                LayerSel::Both
            ])
        );
        let axis = Axis::parse("polarity = +, -").unwrap();
        assert_eq!(axis.values, AxisValues::Real(vec![1.0, -1.0]));
    }

    #[test]
    fn axis_grammar_rejects_garbage() {
        assert!(Axis::parse("no_equals").is_err());
        assert!(Axis::parse("bogus=1,2").is_err());
        assert!(Axis::parse(&format!("{}=1", "x".repeat(MAX_NAME_LEN + 1))).is_err());
        assert!(Axis::parse("rel_change=").is_err(), "empty value list");
        assert!(
            Axis::parse("rel_change=0.1..0.2").is_err(),
            "range without count"
        );
        assert!(
            Axis::parse("rel_change=0.1..0.2/1").is_err(),
            "degenerate range"
        );
        assert!(Axis::parse(&format!("rel_change=0..1/{}", MAX_AXIS_VALUES + 1)).is_err());
        assert!(Axis::parse("seed=9..3").is_err(), "reversed seed range");
        // A full-u64 span must be rejected, not overflow the count
        // arithmetic (0..MAX has MAX+1 values).
        assert!(Axis::parse("seed=0..18446744073709551615").is_err());
        assert!(Axis::parse("seed=1..18446744073709551615").is_err());
        assert!(Axis::parse("vdd=over 9000").is_err());
    }

    #[test]
    fn scenario_text_round_trips_bit_exactly() {
        let spec = ScenarioSpec {
            family: AttackFamily::Threshold(LayerSel::Inhibitory),
            axes: vec![
                Axis::real(AxisKind::RelChange, vec![-0.2, 0.1 + 0.2]),
                Axis::real(AxisKind::Fraction, vec![0.0, 0.75]),
                Axis::real(AxisKind::Vdd, vec![0.9, 1.0]),
            ],
            seeds: vec![42, 43],
            transfer: Some(PowerTransferTable::paper_nominal().points().to_vec()),
        };
        let text = spec.to_string();
        assert!(
            text.contains("transfer = paper"),
            "paper table is named: {text}"
        );
        let reparsed: ScenarioSpec = text.parse().unwrap();
        assert_eq!(reparsed, spec);
        // And the round trip is stable.
        assert_eq!(reparsed.to_string(), text);
    }

    #[test]
    fn scenario_parser_rejects_unknown_keys_and_duplicates() {
        assert!(
            "axis rel_change = 0.1".parse::<ScenarioSpec>().is_err(),
            "missing attack"
        );
        assert!("attack = threshold-inhibitory\nattack = theta"
            .parse::<ScenarioSpec>()
            .is_err());
        assert!("attack = theta\nbogus = 1".parse::<ScenarioSpec>().is_err());
        assert!(
            "attack = theta\naxis theta_change = 0.1\naxis theta_change = 0.2"
                .parse::<ScenarioSpec>()
                .is_err()
        );
        let oversized = format!("attack = theta\n# {}", "x".repeat(MAX_SPEC_TEXT));
        assert!(oversized.parse::<ScenarioSpec>().is_err());
    }

    #[test]
    fn validation_enforces_family_axis_compatibility() {
        let mut spec = il_spec();
        spec.validate().unwrap();

        spec.family = AttackFamily::Theta;
        assert!(
            spec.validate().is_err(),
            "rel_change axis on a theta family"
        );

        let mut spec = il_spec();
        spec.axes.clear();
        assert!(spec.validate().is_err(), "no axes");

        let mut spec = il_spec();
        spec.axes[0] = Axis::real(AxisKind::RelChange, vec![]);
        assert!(spec.validate().is_err(), "empty axis");

        let mut spec = il_spec();
        spec.axes.push(Axis::real(AxisKind::RelChange, vec![0.1]));
        assert!(spec.validate().is_err(), "duplicate axis kind");

        let mut spec = il_spec();
        spec.axes[0] = Axis::real(AxisKind::RelChange, vec![1.5]);
        assert!(spec.validate().is_err(), "rel_change outside (-1, 1)");

        let mut spec = il_spec();
        spec.seeds.clear();
        assert!(spec.validate().is_err(), "no seeds");

        let mut spec = il_spec();
        spec.axes.push(Axis::real(AxisKind::Vdd, vec![0.9]));
        assert!(
            spec.validate().is_err(),
            "vdd axis without a transfer table"
        );
        spec.transfer = Some(PowerTransferTable::paper_nominal().points().to_vec());
        spec.validate().unwrap();

        let mut spec = il_spec();
        spec.axes.push(Axis::seeds(vec![1, 2]));
        assert!(spec.validate().is_err(), "seed axis plus averaged seeds");
        spec.seeds.clear();
        spec.validate().unwrap();
        assert_eq!(spec.baseline_seeds(), &[1, 2]);
    }

    #[test]
    fn validation_rejects_polarity_products_outside_the_primary_range() {
        // polarity × primary is applied at planning time; a product
        // outside the primary axis's range must fail *validation*, not
        // poison a fleet cell by cell after acceptance.
        let mut spec = il_spec();
        spec.axes
            .push(Axis::real(AxisKind::Polarity, vec![1.0, -4.0]));
        // rel_change 0.2 × -4 = -0.8: still in (-1, 1) → fine.
        spec.validate().unwrap();
        spec.axes[0] = Axis::real(AxisKind::RelChange, vec![0.3]);
        // 0.3 × -4 = -1.2: outside (-1, 1) → rejected with the product.
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("polarity"), "diagnostic: {err}");

        let theta = ScenarioSpec {
            family: AttackFamily::Theta,
            axes: vec![
                Axis::real(AxisKind::ThetaChange, vec![0.5]),
                Axis::real(AxisKind::Polarity, vec![-3.0]),
            ],
            seeds: vec![42],
            transfer: None,
        };
        assert!(theta.validate().is_err(), "0.5 × -3 = -1.5 is impossible");
    }

    #[test]
    fn value_labels_are_lossless_grammar_tokens() {
        let real = Axis::real(AxisKind::RelChange, vec![0.1 + 0.2]);
        let label = real.value_label(0).unwrap();
        assert_eq!(
            label.parse::<f64>().unwrap().to_bits(),
            (0.1 + 0.2f64).to_bits()
        );
        assert!(real.value_label(1).is_none());
        let layer = Axis::layers(vec![LayerSel::Both]);
        assert_eq!(layer.value_label(0).as_deref(), Some("both"));
        // Seeds above 2^53 survive (no f64 round trip).
        let seed = Axis::seeds(vec![9_007_199_254_740_993]);
        assert_eq!(seed.value_label(0).as_deref(), Some("9007199254740993"));
    }

    #[test]
    fn planner_is_row_major_and_matches_the_legacy_threshold_planner() {
        let spec = ScenarioSpec::threshold(
            Some(TargetLayer::Inhibitory),
            &[-0.2, 0.2],
            &[0.0, 0.5, 1.0],
            &[1, 2],
        );
        let plan = spec.plan();
        assert_eq!(plan.jobs.len(), 6);
        assert!(plan.jobs.iter().enumerate().all(|(i, j)| j.index == i));
        // Row-major: rel_change slowest.
        let coords: Vec<(f64, f64)> = plan.jobs.iter().map(|j| j.attack.coordinates()).collect();
        assert_eq!(
            coords,
            vec![
                (-0.2, 0.0),
                (-0.2, 0.5),
                (-0.2, 1.0),
                (0.2, 0.0),
                (0.2, 0.5),
                (0.2, 1.0)
            ]
        );
    }

    #[test]
    fn cross_product_scenarios_compose_components() {
        let spec = ScenarioSpec {
            family: AttackFamily::Threshold(LayerSel::Inhibitory),
            axes: vec![
                Axis::real(AxisKind::RelChange, vec![-0.2]),
                Axis::real(AxisKind::Vdd, vec![0.9, 1.0]),
            ],
            seeds: vec![42],
            transfer: Some(PowerTransferTable::paper_nominal().points().to_vec()),
        };
        spec.validate().unwrap();
        let plan = spec.plan();
        assert_eq!(plan.jobs.len(), 2);
        assert_eq!(plan.jobs[0].attack.rel_change, Some(-0.2));
        assert_eq!(plan.jobs[0].attack.vdd, Some(0.9));
        assert_eq!(plan.jobs[1].attack.vdd, Some(1.0));
        // The threshold grid stays the addressable surface.
        assert_eq!(plan.jobs[1].attack.coordinates(), (-0.2, 1.0));
    }

    #[test]
    fn polarity_and_layer_axes_resolve_per_cell() {
        let spec = ScenarioSpec {
            family: AttackFamily::Threshold(LayerSel::Inhibitory),
            axes: vec![
                Axis::real(AxisKind::RelChange, vec![0.2]),
                Axis::real(AxisKind::Polarity, vec![1.0, -1.0]),
                Axis::layers(vec![LayerSel::Excitatory, LayerSel::Both]),
            ],
            seeds: vec![42],
            transfer: None,
        };
        spec.validate().unwrap();
        let plan = spec.plan();
        assert_eq!(plan.jobs.len(), 4);
        assert_eq!(plan.jobs[0].attack.rel_change, Some(0.2));
        assert_eq!(
            plan.jobs[0].attack.family,
            AttackFamily::Threshold(LayerSel::Excitatory)
        );
        assert_eq!(
            plan.jobs[1].attack.family,
            AttackFamily::Threshold(LayerSel::Both)
        );
        assert_eq!(plan.jobs[2].attack.rel_change, Some(-0.2));
        // The scenario-level kind keeps the family default.
        assert_eq!(plan.kind, AttackKind::InhibitoryThreshold);
    }

    #[test]
    fn seed_axis_overrides_per_cell_seeds() {
        let spec = ScenarioSpec {
            family: AttackFamily::Theta,
            axes: vec![
                Axis::real(AxisKind::ThetaChange, vec![-0.2]),
                Axis::seeds(vec![7, 8]),
            ],
            seeds: vec![],
            transfer: None,
        };
        spec.validate().unwrap();
        let plan = spec.plan();
        assert_eq!(plan.seeds, vec![7, 8], "baselines are primed over the axis");
        assert_eq!(plan.jobs[0].attack.seed, Some(7));
        assert_eq!(plan.jobs[1].attack.seed, Some(8));
    }

    #[test]
    fn defense_and_detector_axes_parse_validate_and_resolve() {
        let axis = Axis::parse("defense = none, bandgap_threshold, robust_driver").unwrap();
        assert_eq!(
            axis.values,
            AxisValues::Defense(vec![
                DefenseSel::None,
                DefenseSel::BandgapThreshold,
                DefenseSel::RobustDriver
            ])
        );
        let axis = Axis::parse("detector = none, dummy_neuron").unwrap();
        assert_eq!(
            axis.values,
            AxisValues::Detector(vec![DetectorSel::None, DetectorSel::DummyNeuron])
        );
        assert!(Axis::parse("defense = firewall").is_err());
        assert!(Axis::parse("detector = antivirus").is_err());

        // Non-`none` countermeasures act through the VDD path, so they
        // need a vdd axis; the explicit all-`none` spelling does not.
        let mut spec = il_spec();
        spec.axes
            .push(Axis::defenses(vec![DefenseSel::BandgapThreshold]));
        assert!(spec.validate().is_err(), "defense without a vdd axis");
        spec.axes.pop();
        spec.axes
            .push(Axis::detectors(vec![DetectorSel::DummyNeuron]));
        assert!(spec.validate().is_err(), "detector without a vdd axis");
        spec.axes.pop();
        spec.axes.push(Axis::defenses(vec![DefenseSel::None]));
        spec.axes.push(Axis::detectors(vec![DetectorSel::None]));
        spec.validate().unwrap();

        let spec = ScenarioSpec {
            family: AttackFamily::Vdd,
            axes: vec![
                Axis::real(AxisKind::Vdd, vec![0.8, 1.0]),
                Axis::defenses(vec![DefenseSel::None, DefenseSel::BandgapThreshold]),
                Axis::detectors(vec![DetectorSel::DummyNeuron]),
            ],
            seeds: vec![42],
            transfer: Some(PowerTransferTable::paper_nominal().points().to_vec()),
        };
        spec.validate().unwrap();
        let plan = spec.plan();
        assert_eq!(plan.jobs.len(), 4);
        assert_eq!(plan.jobs[0].attack.defense, DefenseSel::None);
        assert_eq!(plan.jobs[1].attack.defense, DefenseSel::BandgapThreshold);
        assert_eq!(
            plan.jobs[1].attack.vdd,
            Some(0.8),
            "defense is the fast axis"
        );
        assert!(plan
            .jobs
            .iter()
            .all(|j| j.attack.detector == DetectorSel::DummyNeuron));

        // The text form round-trips the new axes bit-exactly.
        let text = spec.to_string();
        assert!(
            text.contains("axis defense = none, bandgap_threshold"),
            "{text}"
        );
        assert!(text.contains("axis detector = dummy_neuron"), "{text}");
        let reparsed: ScenarioSpec = text.parse().unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn neurons_axis_parses_validates_and_resolves() {
        let axis = Axis::parse("neurons = 1, 32, 200").unwrap();
        assert_eq!(axis.values, AxisValues::Neurons(vec![1, 32, 200]));
        assert!(Axis::parse("neurons = 1.5").is_err());

        // The layer-netlist workload only exists for the vdd attack.
        let mut spec = il_spec();
        spec.axes.push(Axis::neurons(vec![8]));
        assert!(spec.validate().is_err(), "neurons without the vdd family");

        let mut spec = ScenarioSpec {
            family: AttackFamily::Vdd,
            axes: vec![
                Axis::real(AxisKind::Vdd, vec![0.8, 1.0]),
                Axis::neurons(vec![4, 32]),
            ],
            seeds: vec![42],
            transfer: Some(PowerTransferTable::paper_nominal().points().to_vec()),
        };
        spec.validate().unwrap();

        // Counts must stay within the compiled layer-size ceiling.
        spec.axes[1] = Axis::neurons(vec![0]);
        assert!(spec.validate().is_err(), "zero neurons");
        spec.axes[1] = Axis::neurons(vec![MAX_LAYER_NEURONS + 1]);
        assert!(spec.validate().is_err(), "oversized layer");
        spec.axes[1] = Axis::neurons(vec![4, 32]);

        // Only defenses with a circuit realisation compose with a layer.
        spec.axes
            .push(Axis::defenses(vec![DefenseSel::BandgapThreshold]));
        assert!(spec.validate().is_err(), "transfer-table-only defense");
        spec.axes.pop();
        spec.axes.push(Axis::defenses(vec![
            DefenseSel::None,
            DefenseSel::Comparator,
        ]));
        spec.validate().unwrap();
        spec.axes.pop();

        let plan = spec.plan();
        assert_eq!(plan.jobs.len(), 4);
        assert_eq!(plan.jobs[0].attack.neurons, Some(4));
        assert_eq!(
            plan.jobs[1].attack.neurons,
            Some(32),
            "neurons is fast axis"
        );
        assert_eq!(plan.jobs[2].attack.vdd, Some(1.0));

        // The text form round-trips the new axis bit-exactly.
        let text = spec.to_string();
        assert!(text.contains("axis neurons = 4, 32"), "{text}");
        let reparsed: ScenarioSpec = text.parse().unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn a_neurons_axis_rejects_a_theta_change_axis() {
        // The layer netlist has no theta input: a theta_change axis
        // beside a neurons axis would be dropped from every layer cell,
        // so the spec is rejected, while vdd × theta_change without a
        // neurons axis stays a valid composite.
        let mut spec = ScenarioSpec {
            family: AttackFamily::Vdd,
            axes: vec![
                Axis::real(AxisKind::Vdd, vec![0.8, 1.0]),
                Axis::real(AxisKind::ThetaChange, vec![0.1]),
                Axis::neurons(vec![2]),
            ],
            seeds: vec![42],
            transfer: Some(PowerTransferTable::paper_nominal().points().to_vec()),
        };
        let err = spec.validate().unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        spec.axes.pop();
        spec.validate().unwrap();
    }

    #[test]
    fn countermeasure_sel_names_round_trip() {
        for sel in [
            DefenseSel::None,
            DefenseSel::RobustDriver,
            DefenseSel::BandgapThreshold,
            DefenseSel::SizedNeuron,
            DefenseSel::Comparator,
        ] {
            assert_eq!(DefenseSel::parse(sel.name()).unwrap(), sel);
        }
        for sel in [DetectorSel::None, DetectorSel::DummyNeuron] {
            assert_eq!(DetectorSel::parse(sel.name()).unwrap(), sel);
        }
        // Hostile tokens are rejected with a clipped echo.
        let huge = "x".repeat(MAX_SPEC_TEXT / 2);
        let err = DefenseSel::parse(&huge).unwrap_err().to_string();
        assert!(
            err.len() < 2 * MAX_NAME_LEN + 128,
            "echo is clipped: {}",
            err.len()
        );
        assert!(DetectorSel::parse(&huge).is_err());
        // Only the undefended selection maps to no hardening.
        assert!(DefenseSel::None.defense().is_none());
        assert!(DefenseSel::BandgapThreshold.defense().is_some());
    }

    #[test]
    fn family_names_round_trip() {
        for family in AttackFamily::ALL {
            assert_eq!(AttackFamily::parse(family.name()).unwrap(), family);
        }
        assert!(AttackFamily::parse("nope").is_err());
        assert!(AttackFamily::parse(&"x".repeat(MAX_NAME_LEN + 1)).is_err());
        assert_eq!(
            AttackFamily::Threshold(LayerSel::Both).kind(),
            AttackKind::BothLayerThreshold
        );
    }
}
