//! Experiment registry and dispatch.

pub mod circuits;
pub mod extensions;
pub mod network;

use neurofi_core::scenario::{FIG8_FRACTIONS, FIG8_REL_CHANGES};
use neurofi_core::{Error, Table};

/// Reproduction fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Reduced grids and abbreviated training — minutes for `all`.
    Quick,
    /// The paper's full grids and protocol.
    Full,
}

impl Fidelity {
    /// The threshold sweep grid (Figs. 8a–c) at this fidelity, as
    /// `(rel_changes, fractions)`.
    pub fn threshold_grid(self) -> (&'static [f64], &'static [f64]) {
        match self {
            Fidelity::Quick => (&[-0.20, 0.20], &[0.0, 0.5, 1.0]),
            Fidelity::Full => (&FIG8_REL_CHANGES, &FIG8_FRACTIONS),
        }
    }

    /// The VDD sweep grid at this fidelity.
    pub fn vdd_grid(self) -> Vec<f64> {
        match self {
            Fidelity::Quick => vec![0.8, 1.0, 1.2],
            Fidelity::Full => vec![0.8, 0.9, 1.0, 1.1, 1.2],
        }
    }

    /// The input-amplitude grid (Fig. 5c) at this fidelity.
    pub fn amplitude_grid(self) -> Vec<f64> {
        match self {
            Fidelity::Quick => vec![136.0e-9, 200.0e-9, 264.0e-9],
            Fidelity::Full => neurofi_analog::characterize::paper_amplitude_grid(),
        }
    }
}

/// Identifier of one reproducible paper artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ExperimentId {
    Fig3,
    Fig4,
    Fig5b,
    Fig5c,
    Fig6a,
    Fig6b,
    Fig6c,
    Fig7b,
    Fig8a,
    Fig8b,
    Fig8c,
    Fig9a,
    Fig9b,
    Fig9c,
    Fig10c,
    Defenses,
    Overheads,
    ExtGlitch,
    ExtWeightFaults,
}

impl ExperimentId {
    /// Every experiment, in paper order (extensions last).
    pub fn all() -> Vec<ExperimentId> {
        use ExperimentId::*;
        vec![
            Fig3,
            Fig4,
            Fig5b,
            Fig5c,
            Fig6a,
            Fig6b,
            Fig6c,
            Fig7b,
            Fig8a,
            Fig8b,
            Fig8c,
            Fig9a,
            Fig9b,
            Fig9c,
            Fig10c,
            Defenses,
            Overheads,
            ExtGlitch,
            ExtWeightFaults,
        ]
    }

    /// CLI name (`fig8b`, `overheads`, ...).
    pub fn name(self) -> &'static str {
        use ExperimentId::*;
        match self {
            Fig3 => "fig3",
            Fig4 => "fig4",
            Fig5b => "fig5b",
            Fig5c => "fig5c",
            Fig6a => "fig6a",
            Fig6b => "fig6b",
            Fig6c => "fig6c",
            Fig7b => "fig7b",
            Fig8a => "fig8a",
            Fig8b => "fig8b",
            Fig8c => "fig8c",
            Fig9a => "fig9a",
            Fig9b => "fig9b",
            Fig9c => "fig9c",
            Fig10c => "fig10c",
            Defenses => "defenses",
            Overheads => "overheads",
            ExtGlitch => "ext-glitch",
            ExtWeightFaults => "ext-weightfaults",
        }
    }

    /// Parses a CLI name.
    pub fn parse(text: &str) -> Option<ExperimentId> {
        ExperimentId::all()
            .into_iter()
            .find(|id| id.name().eq_ignore_ascii_case(text))
    }
}

impl std::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Runs one experiment at the given fidelity.
///
/// # Errors
/// Propagates circuit-solver or experiment-configuration failures.
pub fn run_experiment(id: ExperimentId, fidelity: Fidelity) -> Result<Table, Error> {
    use ExperimentId::*;
    match id {
        Fig3 => circuits::fig3(fidelity),
        Fig4 => circuits::fig4(fidelity),
        Fig5b => circuits::fig5b(fidelity),
        Fig5c => circuits::fig5c(fidelity),
        Fig6a => circuits::fig6a(fidelity),
        Fig6b => circuits::fig6b(fidelity),
        Fig6c => circuits::fig6c(fidelity),
        Fig7b => network::fig7b(fidelity),
        Fig8a => network::fig8a(fidelity),
        Fig8b => network::fig8b(fidelity),
        Fig8c => network::fig8c(fidelity),
        Fig9a => network::fig9a(fidelity),
        Fig9b => circuits::fig9b(fidelity),
        Fig9c => circuits::fig9c(fidelity),
        Fig10c => circuits::fig10c(fidelity),
        Defenses => network::defenses(fidelity),
        Overheads => circuits::overheads(fidelity),
        ExtGlitch => extensions::glitch(fidelity),
        ExtWeightFaults => extensions::weight_faults(fidelity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for id in ExperimentId::all() {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("FIG8B"), Some(ExperimentId::Fig8b));
        assert_eq!(ExperimentId::parse("nope"), None);
    }

    #[test]
    fn registry_is_complete() {
        assert_eq!(ExperimentId::all().len(), 19);
    }

    #[test]
    fn fidelity_grids() {
        assert_eq!(Fidelity::Quick.vdd_grid().len(), 3);
        assert_eq!(Fidelity::Full.vdd_grid().len(), 5);
        assert!(Fidelity::Full
            .amplitude_grid()
            .iter()
            .any(|&a| (a - 200.0e-9).abs() < 1e-15));
    }
}
