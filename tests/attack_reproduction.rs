//! End-to-end reproduction of the paper's attack ordering at reduced
//! scale: baseline accuracy is healthy, the inhibitory-layer and global
//! VDD attacks are catastrophic, the excitatory/theta attacks are mild,
//! and the defenses restore accuracy.
//!
//! The full-scale numbers (paper grids, 1000 training images) are
//! produced by the `repro` binary; this test keeps the whole pipeline
//! honest in minutes.

use neurofi::analog::NeuronKind;
use neurofi::core::attacks::ExperimentSetup;
use neurofi::core::defense::defended_vdd_attack;
use neurofi::core::{DefenseSel, FaultPlan, PowerTransferTable, TargetLayer};

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
    let il = setup.run_with_plan(&FaultPlan::layer_threshold(
        TargetLayer::Inhibitory,
        -0.20,
        1.0,
    ));
    assert!(
        il.accuracy < 0.5 * baseline.accuracy,
        "IL attack should collapse accuracy: {:.2} vs baseline {:.2}",
        il.accuracy,
        baseline.accuracy
    );

    // Attack 2 (EL, −20%): mild — the paper's −7.32% worst case.
    let el = setup.run_with_plan(&FaultPlan::layer_threshold(
        TargetLayer::Excitatory,
        -0.20,
        1.0,
    ));
    assert!(
        el.accuracy > 0.6 * baseline.accuracy,
        "EL attack should stay mild: {:.2} vs baseline {:.2}",
        el.accuracy,
        baseline.accuracy
    );

    // Attack 1 (theta ±20%): mild — the paper's ±2% band.
    let theta = setup.run_with_plan(&FaultPlan::drive_only(1.0 - 0.20));
    assert!(
        theta.accuracy > 0.6 * baseline.accuracy,
        "theta attack should stay mild: {:.2} vs baseline {:.2}",
        theta.accuracy,
        baseline.accuracy
    );

    // Attack 5 (VDD = 0.8 V): catastrophic — the paper's −84.93%.
    let table = PowerTransferTable::paper_nominal();
    let vdd = setup.run_with_plan(&FaultPlan::from_vdd(0.8, &table));
    assert!(
        vdd.accuracy < 0.5 * baseline.accuracy,
        "global VDD attack should collapse accuracy: {:.2} vs baseline {:.2}",
        vdd.accuracy,
        baseline.accuracy
    );

    // Severity ordering: IL and VDD are the catastrophic pair.
    assert!(il.accuracy < el.accuracy);
    assert!(vdd.accuracy < el.accuracy);
}

#[test]
fn bandgap_defense_recovers_global_vdd_attack() {
    let setup = setup();
    let transfer = PowerTransferTable::paper_nominal();
    let defended = defended_vdd_attack(
        &setup,
        0.8,
        &transfer,
        &[DefenseSel::RobustDriver, DefenseSel::BandgapThreshold],
        NeuronKind::VoltageAmplifierIf,
        setup.baseline(),
    );
    assert!(
        defended.attacked.accuracy > 0.85 * defended.baseline.accuracy,
        "defended accuracy {:.2} should be near baseline {:.2}",
        defended.attacked.accuracy,
        defended.baseline.accuracy
    );
}

#[test]
fn fraction_zero_attack_is_harmless() {
    let setup = setup();
    let baseline = setup.baseline();
    let attacked = setup.run_with_plan(&FaultPlan::layer_threshold(
        TargetLayer::Inhibitory,
        -0.20,
        0.0,
    ));
    assert_eq!(attacked.accuracy, baseline.accuracy);
}
