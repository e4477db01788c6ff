//! Beyond-paper extension experiments (§IV-E's "attacks not covered"),
//! run with the same protocol as the paper figures. These tables have no
//! paper reference column — they extend the study.

use neurofi_core::attacks::ExperimentSetup;
use neurofi_core::extensions::{
    glitch_duty_sweep, weight_fault_sweep, WeightFaultAttack, WeightFaultKind,
};
use neurofi_core::{Error, Table};

use super::Fidelity;

fn setup(fidelity: Fidelity) -> ExperimentSetup {
    match fidelity {
        Fidelity::Quick => ExperimentSetup::quick(42),
        Fidelity::Full => ExperimentSetup::paper(42),
    }
}

/// Extension: transient-glitch duty sweep — how long must a VDD = 0.8 V
/// glitch last (as a fraction of training) to do Attack-5 damage?
pub fn glitch(fidelity: Fidelity) -> Result<Table, Error> {
    let duties: Vec<f64> = match fidelity {
        Fidelity::Quick => vec![0.0, 0.5, 1.0],
        Fidelity::Full => vec![0.0, 0.1, 0.25, 0.5, 0.75, 1.0],
    };
    // The figures' cache: the same seed-42 setup, so the duties read its
    // memoised inputs and the 0% duty its baseline.
    let rows = glitch_duty_sweep(super::network::shared_cache(fidelity), 0.8, &duties)?;
    let baseline = rows[0].1;
    let mut table = Table::new(
        "Extension — transient VDD glitch (0.8 V) duty vs accuracy",
        &["glitch duty", "accuracy", "vs baseline"],
    );
    for (duty, accuracy) in rows {
        table.push_row(&[
            format!("{:.0}%", duty * 100.0),
            format!("{:.1}%", accuracy * 100.0),
            format!(
                "{:+.1}%",
                if baseline > 0.0 {
                    (accuracy - baseline) / baseline * 100.0
                } else {
                    0.0
                }
            ),
        ]);
    }
    table.push_note(
        "beyond the paper (§IV-E lists transient faults as future work): the glitch \
         is active from the start of training for the given fraction of samples, \
         then the supply recovers",
    );
    Ok(table)
}

/// Extension: post-training synaptic-weight faults (§IV-E(b)).
pub fn weight_faults(fidelity: Fidelity) -> Result<Table, Error> {
    let setup = setup(fidelity);
    let fractions: Vec<f64> = match fidelity {
        Fidelity::Quick => vec![0.05, 0.5],
        Fidelity::Full => vec![0.01, 0.05, 0.10, 0.25, 0.50],
    };
    let mut rows = Vec::new();
    let mut attacks = Vec::new();
    for &fraction in &fractions {
        for (label, kind) in [
            (
                "stuck-at-zero",
                WeightFaultKind::StuckAtZero { fraction, seed: 7 },
            ),
            (
                "stuck-at-max",
                WeightFaultKind::StuckAtMax { fraction, seed: 7 },
            ),
        ] {
            rows.push((label, fraction));
            attacks.push(WeightFaultAttack::new(kind));
        }
    }
    let outcomes = weight_fault_sweep(&setup, &attacks)?;
    let mut table = Table::new(
        "Extension — synaptic-weight fault injection (post-training)",
        &["fault", "fraction", "accuracy", "vs clean"],
    );
    for ((label, fraction), outcome) in rows.into_iter().zip(&outcomes) {
        table.push_row(&[
            label.into(),
            format!("{:.0}%", fraction * 100.0),
            format!("{:.1}%", outcome.attacked.accuracy * 100.0),
            format!("{:+.1}%", outcome.relative_change_percent()),
        ]);
    }
    table.push_note(
        "beyond the paper (§IV-E(b)): the network is trained cleanly, then the \
         stored input→excitatory weights are corrupted before evaluation",
    );
    Ok(table)
}
