//! Circuit description: nodes, elements, and the builder API.

use std::collections::{BTreeMap, BTreeSet};

use crate::circuit::Circuit;
use crate::device::MosModel;
use crate::error::{Error, Result};
use crate::waveform::Waveform;

/// Opaque identifier of a circuit node.
///
/// Obtained from [`Netlist::node`]; [`Netlist::GROUND`] is the reference
/// node. A `NodeId` is only meaningful for the netlist that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index of this node (0 is ground).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A circuit element.
///
/// Most users build these through the [`Netlist`] methods rather than
/// constructing variants directly; the enum is public so that analysis and
/// reporting code can introspect a netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `p` and `n`.
    Resistor {
        /// Element name (unique within the netlist).
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Resistance in ohms (> 0).
        r: f64,
    },
    /// Linear capacitor between `p` and `n`.
    Capacitor {
        /// Element name.
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Capacitance in farads (> 0).
        c: f64,
        /// Optional initial voltage (volts across `p`−`n`) applied when the
        /// transient starts with `uic` or when the DC solve is skipped.
        ic: Option<f64>,
    },
    /// Independent voltage source from `p` to `n` (adds a branch-current
    /// unknown to the MNA system).
    VSource {
        /// Element name.
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source value over time.
        wave: Waveform,
    },
    /// Independent current source; positive current flows from `p` through
    /// the source to `n` (SPICE convention: it *extracts* from `p` and
    /// *injects* into `n`).
    ISource {
        /// Element name.
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source value over time.
        wave: Waveform,
    },
    /// MOSFET with explicit bulk terminal.
    Mosfet {
        /// Element name.
        name: String,
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Bulk/body.
        b: NodeId,
        /// Compact-model card.
        model: MosModel,
        /// Channel width in meters (> 0).
        w: f64,
        /// Channel length in meters (> 0).
        l: f64,
    },
    /// Voltage-controlled voltage source: `V(p,n) = gain · V(cp,cn)`
    /// (adds a branch-current unknown). The building block for behavioural
    /// op-amp macromodels.
    Vcvs {
        /// Element name.
        name: String,
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Positive controlling terminal.
        cp: NodeId,
        /// Negative controlling terminal.
        cn: NodeId,
        /// Voltage gain (dimensionless).
        gain: f64,
    },
    /// Voltage-controlled current source: current `gm · V(cp,cn)` flows
    /// from `p` through the source to `n`.
    Vccs {
        /// Element name.
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Positive controlling terminal.
        cp: NodeId,
        /// Negative controlling terminal.
        cn: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
}

impl Element {
    /// The element's unique name.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::VSource { name, .. }
            | Element::ISource { name, .. }
            | Element::Mosfet { name, .. }
            | Element::Vcvs { name, .. }
            | Element::Vccs { name, .. } => name,
        }
    }
}

/// A circuit under construction.
///
/// `Netlist` is a non-consuming builder ([C-BUILDER]): create nodes with
/// [`Netlist::node`], add elements with the typed methods, then call
/// [`Netlist::compile`] to obtain a simulatable [`Circuit`].
///
/// ```
/// use neurofi_spice::{Netlist, Waveform};
/// # fn main() -> Result<(), neurofi_spice::Error> {
/// let mut net = Netlist::new();
/// let vdd = net.node("vdd");
/// net.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(1.0));
/// net.resistor("R1", vdd, Netlist::GROUND, 1.0e6);
/// let op = net.compile()?.op()?;
/// assert!((op.voltage(vdd) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_count: usize,
    name_to_node: BTreeMap<String, NodeId>,
    elements: Vec<Element>,
    element_names: BTreeSet<String>,
}

impl Netlist {
    /// The reference (ground) node, always node 0.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Netlist {
        let mut nl = Netlist {
            node_count: 1,
            name_to_node: BTreeMap::new(),
            elements: Vec::new(),
            element_names: BTreeSet::new(),
        };
        nl.name_to_node.insert("0".into(), NodeId(0));
        nl.name_to_node.insert("gnd".into(), NodeId(0));
        nl
    }

    /// Returns the node with the given name, creating it if needed.
    /// Names `"0"` and `"gnd"` (case-insensitive) always map to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = name.to_ascii_lowercase();
        if let Some(id) = self.name_to_node.get(&key) {
            return *id;
        }
        let id = NodeId(self.node_count);
        self.node_count += 1;
        self.name_to_node.insert(key, id);
        id
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The elements added so far, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    fn push(&mut self, element: Element) -> Result<&mut Netlist> {
        let key = element.name().to_ascii_lowercase();
        if key.is_empty() {
            return Err(Error::Netlist("element name must not be empty".into()));
        }
        if !self.element_names.insert(key) {
            return Err(Error::Netlist(format!(
                "duplicate element name '{}'",
                element.name()
            )));
        }
        self.elements.push(element);
        Ok(self)
    }

    fn check_positive(value: f64, what: &str, name: &str) -> Result<()> {
        let positive = value > 0.0 && value.is_finite();
        if !positive {
            return Err(Error::Netlist(format!(
                "{what} of '{name}' must be positive and finite, got {value}"
            )));
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] if `r` is not positive/finite or the name
    /// is already taken.
    pub fn resistor(&mut self, name: &str, p: NodeId, n: NodeId, r: f64) -> Result<&mut Netlist> {
        Self::check_positive(r, "resistance", name)?;
        self.push(Element::Resistor {
            name: name.into(),
            p,
            n,
            r,
        })
    }

    /// Adds a capacitor (no initial condition).
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] if `c` is not positive/finite or the name
    /// is already taken.
    pub fn capacitor(&mut self, name: &str, p: NodeId, n: NodeId, c: f64) -> Result<&mut Netlist> {
        Self::check_positive(c, "capacitance", name)?;
        self.push(Element::Capacitor {
            name: name.into(),
            p,
            n,
            c,
            ic: None,
        })
    }

    /// Adds a capacitor with an initial voltage used by `uic` transients.
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] if `c` is not positive/finite or the name
    /// is already taken.
    pub fn capacitor_ic(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        c: f64,
        ic: f64,
    ) -> Result<&mut Netlist> {
        Self::check_positive(c, "capacitance", name)?;
        self.push(Element::Capacitor {
            name: name.into(),
            p,
            n,
            c,
            ic: Some(ic),
        })
    }

    /// Adds an independent voltage source.
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] on duplicate names.
    pub fn vsource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    ) -> Result<&mut Netlist> {
        self.push(Element::VSource {
            name: name.into(),
            p,
            n,
            wave,
        })
    }

    /// Adds an independent current source (positive current `p` → `n`
    /// through the source).
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] on duplicate names.
    pub fn isource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    ) -> Result<&mut Netlist> {
        self.push(Element::ISource {
            name: name.into(),
            p,
            n,
            wave,
        })
    }

    /// Adds a MOSFET.
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] if `w` or `l` is not positive/finite or
    /// the name is already taken.
    #[allow(clippy::too_many_arguments)]
    pub fn mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        model: MosModel,
        w: f64,
        l: f64,
    ) -> Result<&mut Netlist> {
        Self::check_positive(w, "channel width", name)?;
        Self::check_positive(l, "channel length", name)?;
        self.push(Element::Mosfet {
            name: name.into(),
            d,
            g,
            s,
            b,
            model,
            w,
            l,
        })
    }

    /// Adds a voltage-controlled voltage source.
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] on duplicate names.
    #[allow(clippy::too_many_arguments)]
    pub fn vcvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Result<&mut Netlist> {
        self.push(Element::Vcvs {
            name: name.into(),
            p,
            n,
            cp,
            cn,
            gain,
        })
    }

    /// Adds a voltage-controlled current source.
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] on duplicate names.
    #[allow(clippy::too_many_arguments)]
    pub fn vccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Result<&mut Netlist> {
        self.push(Element::Vccs {
            name: name.into(),
            p,
            n,
            cp,
            cn,
            gm,
        })
    }

    /// Compiles into a simulatable [`Circuit`], assigning MNA unknowns.
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] for structurally broken circuits (no
    /// elements, for instance). Floating-node problems surface later as
    /// [`Error::Singular`] during a solve.
    pub fn compile(&self) -> Result<Circuit> {
        Circuit::compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut nl = Netlist::new();
        assert_eq!(nl.node("0"), Netlist::GROUND);
        assert_eq!(nl.node("gnd"), Netlist::GROUND);
        assert_eq!(nl.node("GND"), Netlist::GROUND);
    }

    #[test]
    fn nodes_are_deduplicated_case_insensitively() {
        let mut nl = Netlist::new();
        let a = nl.node("Vdd");
        let b = nl.node("VDD");
        assert_eq!(a, b);
        assert_eq!(nl.node_count(), 2);
    }

    #[test]
    fn duplicate_element_names_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1.0).unwrap();
        let err = nl.resistor("r1", a, Netlist::GROUND, 2.0).unwrap_err();
        assert!(matches!(err, Error::Netlist(_)));
    }

    #[test]
    fn non_positive_values_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        assert!(nl.resistor("R1", a, Netlist::GROUND, 0.0).is_err());
        assert!(nl.resistor("R2", a, Netlist::GROUND, -5.0).is_err());
        assert!(nl.capacitor("C1", a, Netlist::GROUND, f64::NAN).is_err());
        assert!(nl
            .mosfet(
                "M1",
                a,
                a,
                Netlist::GROUND,
                Netlist::GROUND,
                crate::device::MosModel::ptm65_nmos(),
                -1.0,
                1.0
            )
            .is_err());
    }
}
