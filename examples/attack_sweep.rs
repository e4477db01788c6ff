//! Reproduce a slice of the paper's Fig. 8 accuracy surfaces: threshold
//! change × layer fraction for the excitatory and inhibitory layers.
//!
//! ```text
//! cargo run --release --example attack_sweep -- [--full]
//! ```

use neurofi::core::attacks::ExperimentSetup;
use neurofi::core::scenario::{FIG8_FRACTIONS, FIG8_REL_CHANGES};
use neurofi::core::sweep::{scenario_sweep_cached, BaselineCache};
use neurofi::core::{ScenarioSpec, Table, TargetLayer};

fn main() -> Result<(), neurofi::core::Error> {
    let full = std::env::args().any(|a| a == "--full");
    let setup = if full {
        ExperimentSetup::paper(42)
    } else {
        ExperimentSetup::quick(42)
    };
    let (rel_changes, fractions): (&[f64], &[f64]) = if full {
        (&FIG8_REL_CHANGES, &FIG8_FRACTIONS)
    } else {
        (&[-0.20, 0.20], &[0.0, 0.5, 1.0])
    };

    // Cells run on the work-stealing pool (one worker per core by
    // default); the fault-free baselines are measured once and shared
    // across both layer sweeps.
    let cache = BaselineCache::new(&setup);
    for (layer, figure, paper_worst) in [
        (TargetLayer::Excitatory, "Fig. 8a", "−7.32%"),
        (TargetLayer::Inhibitory, "Fig. 8b", "−84.52%"),
    ] {
        println!("sweeping the {layer} layer ({figure})...");
        let spec = ScenarioSpec::threshold(Some(layer), rel_changes, fractions, &[42]);
        let result = scenario_sweep_cached(&cache, &spec)?;
        let mut table = Table::new(
            format!("{figure} — {layer}-layer threshold sweep"),
            &["threshold change", "fraction", "accuracy", "vs baseline"],
        );
        for cell in &result.cells {
            table.push_row(&[
                format!("{:+.0}%", cell.rel_change * 100.0),
                format!("{:.0}%", cell.fraction * 100.0),
                format!("{:.1}%", cell.accuracy * 100.0),
                format!("{:+.1}%", cell.relative_change_percent),
            ]);
        }
        table.push_note(format!(
            "baseline {:.1}%; paper worst case {paper_worst}",
            result.baseline_accuracy * 100.0
        ));
        println!("{table}");
        if let Some(worst) = result.worst_case() {
            println!(
                "worst case: {:+.0}% threshold on {:.0}% of the layer → {:+.1}% accuracy change\n",
                worst.rel_change * 100.0,
                worst.fraction * 100.0,
                worst.relative_change_percent
            );
        }
    }
    Ok(())
}
