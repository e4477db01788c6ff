//! End-to-end reproduction of the paper's attack ordering at reduced
//! scale: baseline accuracy is healthy, the inhibitory-layer and global
//! VDD attacks are catastrophic, the excitatory/theta attacks are mild,
//! and the defenses restore accuracy.
//!
//! The full-scale numbers (paper grids, 1000 training images) are
//! produced by the `repro` binary; this test keeps the whole pipeline
//! honest in minutes.

use neurofi::analog::NeuronKind;
use neurofi::core::attacks::{
    Attack, ExperimentSetup, GlobalVddAttack, InputCorruptionAttack, ThresholdAttack,
};
use neurofi::core::defense::{defended_vdd_attack, Defense};
use neurofi::core::PowerTransferTable;

fn setup() -> ExperimentSetup {
    ExperimentSetup::quick(42)
}

#[test]
fn attack_severity_ordering_matches_paper() {
    let setup = setup();
    let baseline = setup.baseline();
    assert!(
        baseline.accuracy > 0.35,
        "baseline accuracy {:.2} too low for a meaningful attack comparison",
        baseline.accuracy
    );

    // Attack 3 (IL, −20%): catastrophic — the paper's −84.52%.
    let il = ThresholdAttack::inhibitory(-0.20, 1.0)
        .run_with_baseline(&setup, baseline)
        .unwrap();
    assert!(
        il.attacked_accuracy < 0.5 * baseline.accuracy,
        "IL attack should collapse accuracy: {:.2} vs baseline {:.2}",
        il.attacked_accuracy,
        baseline.accuracy
    );

    // Attack 2 (EL, −20%): mild — the paper's −7.32% worst case.
    let el = ThresholdAttack::excitatory(-0.20, 1.0)
        .run_with_baseline(&setup, baseline)
        .unwrap();
    assert!(
        el.attacked_accuracy > 0.6 * baseline.accuracy,
        "EL attack should stay mild: {:.2} vs baseline {:.2}",
        el.attacked_accuracy,
        baseline.accuracy
    );

    // Attack 1 (theta ±20%): mild — the paper's ±2% band.
    let theta = InputCorruptionAttack::new(-0.20)
        .run_with_baseline(&setup, baseline)
        .unwrap();
    assert!(
        theta.attacked_accuracy > 0.6 * baseline.accuracy,
        "theta attack should stay mild: {:.2} vs baseline {:.2}",
        theta.attacked_accuracy,
        baseline.accuracy
    );

    // Attack 5 (VDD = 0.8 V): catastrophic — the paper's −84.93%.
    let vdd = GlobalVddAttack::new(0.8)
        .run_with_baseline(&setup, baseline)
        .unwrap();
    assert!(
        vdd.attacked_accuracy < 0.5 * baseline.accuracy,
        "global VDD attack should collapse accuracy: {:.2} vs baseline {:.2}",
        vdd.attacked_accuracy,
        baseline.accuracy
    );

    // Severity ordering: IL and VDD are the catastrophic pair.
    assert!(il.attacked_accuracy < el.attacked_accuracy);
    assert!(vdd.attacked_accuracy < el.attacked_accuracy);
}

#[test]
fn bandgap_defense_recovers_global_vdd_attack() {
    let setup = setup();
    let transfer = PowerTransferTable::paper_nominal();
    let defended = defended_vdd_attack(
        &setup,
        0.8,
        &transfer,
        &[Defense::RobustDriver, Defense::BandgapThreshold],
        NeuronKind::VoltageAmplifierIf,
    )
    .unwrap();
    assert!(
        defended.attacked_accuracy > 0.85 * defended.baseline_accuracy,
        "defended accuracy {:.2} should be near baseline {:.2}",
        defended.attacked_accuracy,
        defended.baseline_accuracy
    );
}

#[test]
fn fraction_zero_attack_is_harmless() {
    let setup = setup();
    let baseline = setup.baseline();
    let outcome = ThresholdAttack::inhibitory(-0.20, 0.0)
        .run_with_baseline(&setup, baseline)
        .unwrap();
    assert_eq!(outcome.attacked_accuracy, baseline.accuracy);
}
