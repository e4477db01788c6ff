//! Acceptance for cross-campaign dedup through the content-addressed
//! result store:
//!
//! 1. a cold campaign is computed entirely by workers and recorded;
//! 2. resubmitting the *same resolved spec under a different campaign
//!    name* completes with **zero cells executed** — every cell a store
//!    hit, proven by the workers' claim counts;
//! 3. a partially-overlapping superset grid executes only its missing
//!    cells;
//! 4. every merge, hits included, is bit-identical to a cold serial
//!    run of its spec.

use std::path::PathBuf;

use neurofi_core::sweep::SweepResult;
use neurofi_core::{Parallelism, ScenarioSpec, TargetLayer};
use neurofi_dist::{
    named_campaign, run_local_cluster, CampaignSpec, CoordinatorConfig, NamedCampaign, SetupSpec,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neurofi-dedup-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_bit_identical(distributed: &SweepResult, serial: &SweepResult) {
    assert_eq!(
        distributed.baseline_accuracy.to_bits(),
        serial.baseline_accuracy.to_bits(),
        "baseline accuracy diverged"
    );
    assert_eq!(distributed.cells.len(), serial.cells.len());
    for (i, (d, s)) in distributed.cells.iter().zip(&serial.cells).enumerate() {
        assert_eq!(d.rel_change.to_bits(), s.rel_change.to_bits(), "cell {i}");
        assert_eq!(d.fraction.to_bits(), s.fraction.to_bits(), "cell {i}");
        assert_eq!(d.accuracy.to_bits(), s.accuracy.to_bits(), "cell {i}");
        assert_eq!(
            d.relative_change_percent.to_bits(),
            s.relative_change_percent.to_bits(),
            "cell {i}"
        );
    }
}

/// Cells the fleet actually executed, summed over workers that
/// completed their session. A worker whose connection was reset because
/// the campaign settled before its handshake finished reports nothing —
/// and executed nothing.
fn cells_executed(report: &neurofi_dist::LocalClusterReport) -> usize {
    report
        .workers
        .iter()
        .map(|w| w.as_ref().map(|s| s.cells_executed).unwrap_or(0))
        .sum()
}

/// The `tiny` grid widened by one fraction column: 8 cells of which 6
/// are digest-identical to `tiny`'s (cell keys ignore grid shape).
fn superset_spec() -> CampaignSpec {
    CampaignSpec {
        setup: SetupSpec::bench(42),
        scenario: ScenarioSpec::threshold(
            Some(TargetLayer::Inhibitory),
            &[-0.20, 0.20],
            &[0.0, 0.5, 0.75, 0.90],
            &[42],
        ),
    }
}

#[test]
fn overlapping_campaigns_dedupe_to_store_hits() {
    let dir = temp_dir("acceptance");
    let store = dir.join("results.store");
    let tiny = named_campaign("tiny").unwrap();
    let serial = tiny.run_serial().unwrap();

    // Cold pass: nothing in the store, every cell computed by workers.
    let cold_campaign = NamedCampaign::new("cold".to_string(), tiny.clone());
    let mut config = CoordinatorConfig::with_campaigns("127.0.0.1:0", vec![cold_campaign]);
    config.store = Some(store.clone());
    let cold = run_local_cluster(config, 2, Parallelism::Serial, None).unwrap();
    let sweep = &cold.run.campaigns[0];
    assert_eq!(sweep.total_cells, 6);
    assert_eq!(sweep.store_hit_cells, 0);
    assert_eq!(sweep.computed_cells, 6);
    assert_eq!(cells_executed(&cold), 6, "cold cells come from workers");
    assert_bit_identical(&sweep.result, &serial);

    // Warm pass: the same resolved spec under a different campaign name
    // fills entirely from the store — zero cells reach a worker.
    let warm_campaign = NamedCampaign::new("warm".to_string(), tiny.clone());
    let mut config = CoordinatorConfig::with_campaigns("127.0.0.1:0", vec![warm_campaign]);
    config.store = Some(store.clone());
    let warm = run_local_cluster(config, 2, Parallelism::Serial, None).unwrap();
    let sweep = &warm.run.campaigns[0];
    assert_eq!(sweep.total_cells, 6);
    assert_eq!(sweep.store_hit_cells, 6, "all-in-store scenario");
    assert_eq!(sweep.computed_cells, 0);
    assert_eq!(
        cells_executed(&warm),
        0,
        "an all-in-store campaign must execute zero cells"
    );
    assert_bit_identical(&sweep.result, &serial);

    // Partial overlap: a superset grid executes only its 2 missing
    // cells and still merges bit-identically to its own serial run.
    let superset = superset_spec();
    let superset_serial = superset.run_serial().unwrap();
    let super_campaign = NamedCampaign::new("superset".to_string(), superset);
    let mut config = CoordinatorConfig::with_campaigns("127.0.0.1:0", vec![super_campaign]);
    config.store = Some(store);
    let partial = run_local_cluster(config, 2, Parallelism::Serial, None).unwrap();
    let sweep = &partial.run.campaigns[0];
    assert_eq!(sweep.total_cells, 8);
    assert_eq!(sweep.store_hit_cells, 6, "shared cells dedupe across grids");
    assert_eq!(sweep.computed_cells, 2);
    assert_eq!(
        cells_executed(&partial),
        2,
        "only the missing cells reach workers"
    );
    assert_bit_identical(&sweep.result, &superset_serial);
}
