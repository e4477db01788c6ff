//! Quickstart: train the paper's Diehl&Cook SNN on synthetic digits and
//! measure the impact of Attack 3 (inhibitory-layer threshold fault).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use neurofi::core::attacks::ExperimentSetup;
use neurofi::core::{AttackOutcome, FaultPlan, TargetLayer};

fn main() {
    // The quick setup trains on 400 synthetic digits at 150 ms per sample
    // (~seconds); swap in `ExperimentSetup::paper(42)` for the paper's
    // full 1000-image protocol.
    let setup = ExperimentSetup::quick(42);

    println!("training baseline and attacked networks (Attack 3, −20% IL threshold)...");
    // An attack is a fault plan; the network trains and is evaluated
    // under it, beside a fault-free baseline trained identically.
    let plan = FaultPlan::layer_threshold(TargetLayer::Inhibitory, -0.20, 1.0);
    let outcome = AttackOutcome {
        baseline: setup.baseline(),
        attacked: setup.run_with_plan(&plan),
    };

    println!();
    println!("attack:            attack 3: inhibitory-layer threshold manipulation");
    println!(
        "baseline accuracy: {:.1}%",
        outcome.baseline.accuracy * 100.0
    );
    println!(
        "attacked accuracy: {:.1}%",
        outcome.attacked.accuracy * 100.0
    );
    println!(
        "relative change:   {:+.2}%  (paper worst case: -84.52%)",
        outcome.relative_change_percent()
    );
    println!(
        "activity:          {:.1} → {:.1} spikes/sample",
        outcome.baseline.mean_activity, outcome.attacked.mean_activity
    );
}
