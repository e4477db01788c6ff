//! Fault plans: concrete parameter corruption applied to a network.
//!
//! A [`FaultPlan`] is the bridge between a threat description ("lower the
//! inhibitory layer's threshold by 20% on 60% of its neurons") and the
//! fault hooks exposed by `neurofi-snn` (per-neuron `threshold_scale`,
//! connection `gain`).

use neurofi_analog::PowerTransferTable;
use neurofi_snn::diehl_cook::DiehlCook2015;

/// Which population a threshold fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetLayer {
    /// The excitatory layer (EL).
    Excitatory,
    /// The inhibitory layer (IL).
    Inhibitory,
}

impl std::fmt::Display for TargetLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetLayer::Excitatory => write!(f, "excitatory"),
            TargetLayer::Inhibitory => write!(f, "inhibitory"),
        }
    }
}

/// A threshold fault on one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdFault {
    /// Target population.
    pub layer: TargetLayer,
    /// Relative threshold change (−0.20 for the paper's "−20%").
    pub rel_change: f64,
    /// Fraction of the layer affected, in `[0, 1]`: the first
    /// `round(fraction·n)` neurons, a physically contiguous region, as a
    /// focused glitch would hit (the paper's local-glitch scenario,
    /// §III-A case 3).
    pub fraction: f64,
}

/// A drive (input-spike amplitude / "theta") fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveFault {
    /// Multiplicative scale on the input drive (0.8 for "−20% theta").
    pub scale: f64,
}

/// A complete, applicable set of faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Threshold faults (at most one per layer is meaningful).
    pub thresholds: Vec<ThresholdFault>,
    /// Optional drive fault.
    pub drive: Option<DriveFault>,
}

impl FaultPlan {
    /// An empty (no-op) plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Attack-1 style plan: scale the input drive only.
    ///
    /// # Panics
    /// Panics if `scale` is not positive and finite.
    pub fn drive_only(scale: f64) -> FaultPlan {
        assert!(
            scale.is_finite() && scale > 0.0,
            "drive scale must be positive"
        );
        FaultPlan {
            thresholds: Vec::new(),
            drive: Some(DriveFault { scale }),
        }
    }

    /// Threshold fault on the first `round(fraction·n)` neurons of one
    /// layer.
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]` or `rel_change` is not in
    /// `(-1, 1)`.
    pub fn layer_threshold(layer: TargetLayer, rel_change: f64, fraction: f64) -> FaultPlan {
        Self::validate(rel_change, fraction);
        FaultPlan {
            thresholds: vec![ThresholdFault {
                layer,
                rel_change,
                fraction,
            }],
            drive: None,
        }
    }

    /// Attack-4 style plan: the same threshold change on 100% of both
    /// layers.
    ///
    /// # Panics
    /// Panics if `rel_change` is not in `(-1, 1)`.
    pub fn both_layer_threshold(rel_change: f64) -> FaultPlan {
        Self::validate(rel_change, 1.0);
        FaultPlan {
            thresholds: vec![
                ThresholdFault {
                    layer: TargetLayer::Excitatory,
                    rel_change,
                    fraction: 1.0,
                },
                ThresholdFault {
                    layer: TargetLayer::Inhibitory,
                    rel_change,
                    fraction: 1.0,
                },
            ],
            drive: None,
        }
    }

    /// Attack-5 style plan: derive drive and threshold corruption for the
    /// whole system from a supply voltage via the circuit transfer table.
    ///
    /// Both neuron layers take the threshold change of the I&F
    /// characterisation (the network-level neurons are I&F models); the
    /// drive scale comes from the current-driver characterisation.
    pub fn from_vdd(vdd: f64, transfer: &PowerTransferTable) -> FaultPlan {
        let point = transfer.sample(vdd);
        let rel = point.if_threshold_scale - 1.0;
        FaultPlan {
            thresholds: vec![
                ThresholdFault {
                    layer: TargetLayer::Excitatory,
                    rel_change: rel,
                    fraction: 1.0,
                },
                ThresholdFault {
                    layer: TargetLayer::Inhibitory,
                    rel_change: rel,
                    fraction: 1.0,
                },
            ],
            drive: Some(DriveFault {
                scale: point.drive_scale,
            }),
        }
    }

    fn validate(rel_change: f64, fraction: f64) {
        assert!(
            rel_change.is_finite() && rel_change > -1.0 && rel_change < 1.0,
            "relative threshold change must be within (-1, 1), got {rel_change}"
        );
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be within [0, 1], got {fraction}"
        );
    }

    /// Indices of the affected neurons for a layer of `n` under the given
    /// fraction: the first `round(fraction·n)`.
    pub fn affected_indices(n: usize, fraction: f64) -> Vec<usize> {
        let k = ((n as f64) * fraction).round() as usize;
        (0..k.min(n)).collect()
    }

    /// The values this plan writes into the fault hooks of a network of
    /// `n_excitatory` and `n_inhibitory` neurons: every hook starts
    /// nominal (scale 1, gain 1), each threshold fault in order
    /// overrides its layer's first `round(fraction·n)` scales, and a
    /// drive fault sets the gain. [`FaultPlan::apply`] writes exactly
    /// these values, so two plans with equal values leave a network in
    /// the same state.
    pub(crate) fn hook_values(&self, n_excitatory: usize, n_inhibitory: usize) -> HookValues {
        let mut values = HookValues {
            excitatory: vec![1.0; n_excitatory],
            inhibitory: vec![1.0; n_inhibitory],
            gain: 1.0,
        };
        for fault in &self.thresholds {
            let scales = match fault.layer {
                TargetLayer::Excitatory => &mut values.excitatory,
                TargetLayer::Inhibitory => &mut values.inhibitory,
            };
            let scale = (1.0 + fault.rel_change) as f32;
            for idx in Self::affected_indices(scales.len(), fault.fraction) {
                scales[idx] = scale;
            }
        }
        if let Some(drive) = &self.drive {
            values.gain = drive.scale as f32;
        }
        values
    }

    /// Sets all three of the network's fault hooks to the values this
    /// plan computes for its layer sizes, overwriting whatever they
    /// held: a hook the plan does not fault is reset to nominal.
    ///
    /// A threshold fault scales the *signed* biological threshold
    /// (−52 mV → −41.6 mV for −20%), exactly as the paper applies its
    /// sweep to BindsNET's parameters: a negative change moves the
    /// threshold toward 0 mV and makes neurons *harder* to fire.
    pub fn apply(&self, net: &mut DiehlCook2015) {
        let values = self.hook_values(net.excitatory.len(), net.inhibitory.len());
        net.excitatory
            .threshold_scale
            .copy_from_slice(&values.excitatory);
        net.inhibitory
            .threshold_scale
            .copy_from_slice(&values.inhibitory);
        net.input_to_exc.gain = values.gain;
    }
}

/// The values a [`FaultPlan`] writes into a network's three fault hooks:
/// each layer's per-neuron `threshold_scale` and the input drive `gain`.
/// A training run is a pure function of its setup, its seed and these
/// values.
#[derive(Debug)]
pub(crate) struct HookValues {
    excitatory: Vec<f32>,
    inhibitory: Vec<f32>,
    gain: f32,
}

impl HookValues {
    /// Every value's bit pattern, in hook order: equal keys are equal
    /// network states (bits, so `-0.0` and `0.0`, or two NaNs, are never
    /// confused).
    pub(crate) fn key(&self) -> Vec<u32> {
        self.excitatory
            .iter()
            .chain(&self.inhibitory)
            .chain(std::iter::once(&self.gain))
            .map(|v| v.to_bits())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofi_snn::diehl_cook::{DiehlCook2015, DiehlCookConfig};

    fn net() -> DiehlCook2015 {
        DiehlCook2015::new(DiehlCookConfig::quick(), 0)
    }

    #[test]
    fn drive_plan_sets_gain() {
        let mut n = net();
        FaultPlan::drive_only(0.8).apply(&mut n);
        assert!((n.input_to_exc.gain - 0.8).abs() < 1e-6);
        assert!(n.excitatory.threshold_scale.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn layer_threshold_respects_fraction() {
        let mut n = net();
        FaultPlan::layer_threshold(TargetLayer::Inhibitory, -0.2, 0.4).apply(&mut n);
        let affected = n
            .inhibitory
            .threshold_scale
            .iter()
            .filter(|&&s| (s - 0.8).abs() < 1e-6)
            .count();
        assert_eq!(affected, 40);
        assert!(n.excitatory.threshold_scale.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn both_layers_plan_hits_both() {
        let mut n = net();
        FaultPlan::both_layer_threshold(0.1).apply(&mut n);
        assert!(n
            .excitatory
            .threshold_scale
            .iter()
            .all(|&s| (s - 1.1).abs() < 1e-6));
        assert!(n
            .inhibitory
            .threshold_scale
            .iter()
            .all(|&s| (s - 1.1).abs() < 1e-6));
    }

    #[test]
    fn apply_writes_the_plan_hook_values_over_any_earlier_faults() {
        let plan = FaultPlan::layer_threshold(TargetLayer::Inhibitory, -0.2, 0.4);
        let mut fresh = net();
        plan.apply(&mut fresh);
        let mut faulted = net();
        FaultPlan::both_layer_threshold(0.1).apply(&mut faulted);
        FaultPlan::drive_only(0.8).apply(&mut faulted);
        plan.apply(&mut faulted);
        let (n_exc, n_inh) = (fresh.excitatory.len(), fresh.inhibitory.len());
        let values = plan.hook_values(n_exc, n_inh);
        for n in [&fresh, &faulted] {
            assert_eq!(n.excitatory.threshold_scale, values.excitatory);
            assert_eq!(n.inhibitory.threshold_scale, values.inhibitory);
            assert_eq!(n.input_to_exc.gain, 1.0);
        }
        // Plans that write the same values share a key; a 0% fraction
        // and a unit drive scale are the fault-free state.
        let none = FaultPlan::none().hook_values(n_exc, n_inh).key();
        for same in [
            FaultPlan::layer_threshold(TargetLayer::Excitatory, -0.2, 0.0),
            FaultPlan::drive_only(1.0),
        ] {
            assert_eq!(same.hook_values(n_exc, n_inh).key(), none);
        }
        assert_ne!(values.key(), none);
    }

    #[test]
    fn fraction_edge_cases() {
        assert!(FaultPlan::affected_indices(100, 0.0).is_empty());
        assert_eq!(FaultPlan::affected_indices(100, 1.0).len(), 100);
        // Rounding: 0.25 of 10 = 2.5 -> 3 (round-half-up).
        assert_eq!(FaultPlan::affected_indices(10, 0.25).len(), 3);
    }

    #[test]
    fn from_vdd_uses_transfer_table() {
        let table = PowerTransferTable::paper_nominal();
        let plan = FaultPlan::from_vdd(0.8, &table);
        assert_eq!(plan.thresholds.len(), 2);
        assert!((plan.thresholds[0].rel_change + 0.1801).abs() < 1e-9);
        assert!((plan.drive.unwrap().scale - 0.68).abs() < 1e-12);
        // Nominal VDD changes no threshold and leaves the drive at 1.
        let nominal = FaultPlan::from_vdd(1.0, &table);
        assert!(nominal.thresholds.iter().all(|t| t.rel_change == 0.0));
        assert_eq!(nominal.drive.map(|d| d.scale), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_bad_fraction() {
        FaultPlan::layer_threshold(TargetLayer::Excitatory, -0.2, 1.5);
    }

    #[test]
    #[should_panic(expected = "drive scale must be positive")]
    fn rejects_non_positive_drive_scale() {
        // A theta change of −100%: no drive at all.
        FaultPlan::drive_only(0.0);
    }
}
