//! The paper's five attack models (§IV), with the adversary access each
//! assumes (§I).

use std::fmt;

/// The five attack models of §IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Attack 1: corrupt the input current drivers (the per-spike membrane
    /// voltage change, "theta"). White box — requires driver locations.
    InputSpikeCorruption,
    /// Attack 2: threshold manipulation of the excitatory layer only.
    ExcitatoryThreshold,
    /// Attack 3: threshold manipulation of the inhibitory layer only.
    InhibitoryThreshold,
    /// Attack 4: threshold manipulation of both layers (100%).
    BothLayerThreshold,
    /// Attack 5: global VDD manipulation of the whole system (drivers and
    /// all neuron layers). The only black-box attack.
    GlobalVdd,
}

impl AttackKind {
    /// The paper's attack number (1–5).
    pub fn paper_id(self) -> u8 {
        match self {
            AttackKind::InputSpikeCorruption => 1,
            AttackKind::ExcitatoryThreshold => 2,
            AttackKind::InhibitoryThreshold => 3,
            AttackKind::BothLayerThreshold => 4,
            AttackKind::GlobalVdd => 5,
        }
    }

    /// The paper's reported worst-case relative accuracy change, percent.
    pub fn paper_worst_case_percent(self) -> f64 {
        match self {
            AttackKind::InputSpikeCorruption => -1.5,
            AttackKind::ExcitatoryThreshold => -7.32,
            AttackKind::InhibitoryThreshold => -84.52,
            AttackKind::BothLayerThreshold => -85.65,
            AttackKind::GlobalVdd => -84.93,
        }
    }

    /// All five attacks in paper order.
    pub fn all() -> [AttackKind; 5] {
        [
            AttackKind::InputSpikeCorruption,
            AttackKind::ExcitatoryThreshold,
            AttackKind::InhibitoryThreshold,
            AttackKind::BothLayerThreshold,
            AttackKind::GlobalVdd,
        ]
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackKind::InputSpikeCorruption => write!(f, "attack 1: input spike corruption"),
            AttackKind::ExcitatoryThreshold => {
                write!(f, "attack 2: excitatory-layer threshold manipulation")
            }
            AttackKind::InhibitoryThreshold => {
                write!(f, "attack 3: inhibitory-layer threshold manipulation")
            }
            AttackKind::BothLayerThreshold => {
                write!(f, "attack 4: both-layer threshold manipulation")
            }
            AttackKind::GlobalVdd => write!(f, "attack 5: global vdd manipulation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ids_are_one_to_five() {
        let ids: Vec<u8> = AttackKind::all().iter().map(|a| a.paper_id()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn worst_cases_match_paper_text() {
        assert_eq!(
            AttackKind::BothLayerThreshold.paper_worst_case_percent(),
            -85.65
        );
        assert_eq!(
            AttackKind::InhibitoryThreshold.paper_worst_case_percent(),
            -84.52
        );
    }

    #[test]
    fn displays_are_informative() {
        for kind in AttackKind::all() {
            let text = kind.to_string();
            assert!(text.contains(&format!("attack {}", kind.paper_id())));
        }
    }
}
