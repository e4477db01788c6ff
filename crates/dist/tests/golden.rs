//! Golden regression: sharded sweeps (coordinator + in-process workers
//! over localhost TCP) must be *bit*-identical to the serial engine —
//! including when several campaigns share one worker fleet — and
//! interrupted runs must resume every campaign from its checkpoint
//! journal without recomputing finished cells.

use std::path::PathBuf;
use std::time::Duration;

use neurofi_core::sweep::SweepResult;
use neurofi_core::Parallelism;
use neurofi_dist::{
    campaign_journal_path, named_campaign, run_local_cluster, CoordinatorConfig, DistError,
    NamedCampaign,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neurofi-dist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_bit_identical(distributed: &SweepResult, serial: &SweepResult) {
    assert_eq!(distributed.kind, serial.kind);
    assert_eq!(
        distributed.baseline_accuracy.to_bits(),
        serial.baseline_accuracy.to_bits(),
        "baseline accuracy diverged"
    );
    assert_eq!(distributed.cells.len(), serial.cells.len());
    for (d, s) in distributed.cells.iter().zip(&serial.cells) {
        assert_eq!(d.rel_change.to_bits(), s.rel_change.to_bits());
        assert_eq!(d.fraction.to_bits(), s.fraction.to_bits());
        assert_eq!(
            d.accuracy.to_bits(),
            s.accuracy.to_bits(),
            "cell ({}, {}) accuracy diverged",
            s.rel_change,
            s.fraction
        );
        assert_eq!(
            d.relative_change_percent.to_bits(),
            s.relative_change_percent.to_bits()
        );
    }
}

#[test]
fn sharded_sweep_is_bit_identical_to_serial() {
    let campaign = named_campaign("tiny").unwrap();
    let serial = campaign.run_serial().unwrap();

    // The golden grid must have structure: on a flat surface a slot
    // mix-up would be invisible to the bit comparison.
    let distinct: std::collections::HashSet<u64> =
        serial.cells.iter().map(|c| c.accuracy.to_bits()).collect();
    assert!(distinct.len() >= 2, "golden surface is flat");

    let config = CoordinatorConfig::new("127.0.0.1:0", campaign);
    let report = run_local_cluster(config, 2, Parallelism::Serial, None).unwrap();
    let sweep = &report.run.campaigns[0];
    assert_bit_identical(&sweep.result, &serial);
    assert_eq!(sweep.total_cells, serial.cells.len());
    assert_eq!(sweep.resumed_cells, 0);
    assert_eq!(sweep.computed_cells, serial.cells.len());
    assert_eq!(report.run.workers_seen, 2);

    // Both workers ended with a graceful Finished and between them
    // covered the whole grid.
    let mut executed = 0;
    for worker in &report.workers {
        let summary = worker.as_ref().expect("worker failed");
        assert!(summary.finished);
        executed += summary.cells_executed;
    }
    assert_eq!(executed, serial.cells.len());
}

#[test]
fn two_campaigns_share_one_fleet_and_stay_bit_identical() {
    // Two *different attack kinds* over the same experiment setup: the
    // worker-side baseline cache is keyed by setup, so the second
    // campaign's baselines are pure cache hits.
    let campaigns = vec![
        NamedCampaign::new("tiny", named_campaign("tiny").unwrap()),
        NamedCampaign::new("tiny-theta", named_campaign("tiny-theta").unwrap()),
    ];
    let serial_tiny = campaigns[0].spec.run_serial().unwrap();
    let serial_theta = campaigns[1].spec.run_serial().unwrap();
    assert_ne!(
        serial_tiny.kind, serial_theta.kind,
        "the two campaigns must sweep different attack kinds"
    );
    let distinct: std::collections::HashSet<u64> = serial_theta
        .cells
        .iter()
        .map(|c| c.accuracy.to_bits())
        .collect();
    assert!(distinct.len() >= 2, "theta golden surface is flat");

    let total = campaigns[0].spec.plan().jobs.len() + campaigns[1].spec.plan().jobs.len();
    let config = CoordinatorConfig::with_campaigns("127.0.0.1:0", campaigns);
    let report = run_local_cluster(config, 2, Parallelism::Serial, None).unwrap();
    assert_eq!(report.run.campaigns.len(), 2);
    assert_eq!(report.run.campaigns[0].name, "tiny");
    assert_eq!(report.run.campaigns[1].name, "tiny-theta");
    assert_bit_identical(&report.run.campaigns[0].result, &serial_tiny);
    assert_bit_identical(&report.run.campaigns[1].result, &serial_theta);
    assert_eq!(
        report.run.workers_seen, 2,
        "one fleet serves both campaigns"
    );

    // One connection per worker served both campaigns: the cells both
    // workers executed across all campaigns cover both grids exactly.
    let executed: usize = report
        .workers
        .iter()
        .map(|w| w.as_ref().expect("worker failed").cells_executed)
        .sum();
    assert_eq!(executed, total);
}

#[test]
fn layer_campaigns_share_one_fleet_and_stay_bit_identical() {
    // Two layer-netlist campaigns over one setup and one layer design
    // (2 undefended neurons) with disjoint off-nominal supplies, so both
    // read the design's nominal reference from each worker's per-setup
    // cache. Each merge must still be bit-identical to its campaign's
    // serial run.
    let layer = |name: &str, vdd: f64| {
        neurofi_dist::parse_campaign_text(&format!(
            "name = {name}\n\
             setup = bench\n\
             attack = vdd\n\
             axis vdd = {vdd}, 1\n\
             axis neurons = 2\n\
             seeds = 42\n\
             transfer = paper\n"
        ))
        .unwrap()
        .into_named(name)
    };
    let campaigns = vec![layer("layer-deep", 0.7), layer("layer-low", 0.8)];
    let serial: Vec<SweepResult> = campaigns
        .iter()
        .map(|c| c.spec.run_serial().unwrap())
        .collect();
    for result in &serial {
        // The off-nominal cell must differ from its nominal reference,
        // or a slot or reference mix-up would be invisible.
        assert_ne!(
            result.cells[0].accuracy.to_bits(),
            result.cells[1].accuracy.to_bits(),
            "layer surface is flat"
        );
    }

    let total: usize = serial.iter().map(|s| s.cells.len()).sum();
    let config = CoordinatorConfig::with_campaigns("127.0.0.1:0", campaigns);
    let report = run_local_cluster(config, 2, Parallelism::Serial, None).unwrap();
    assert_eq!(report.run.campaigns.len(), 2);
    for (sweep, serial) in report.run.campaigns.iter().zip(&serial) {
        assert_bit_identical(&sweep.result, serial);
        assert_eq!(sweep.computed_cells, serial.cells.len());
    }
    assert_eq!(report.run.workers_seen, 2, "one fleet serves both");
    let executed: usize = report
        .workers
        .iter()
        .map(|w| w.as_ref().expect("worker failed").cells_executed)
        .sum();
    assert_eq!(executed, total);
}

#[test]
fn killed_workers_then_resume_completes_without_recompute() {
    let dir = temp_dir("resume");
    let journal = dir.join("campaign.journal");
    let campaign = named_campaign("tiny").unwrap();
    let total = campaign.plan().jobs.len();
    assert_eq!(total, 6);

    // Phase 1: two workers that each execute exactly one cell and then
    // vanish mid-campaign (the preemption path). With nobody left to
    // serve, the coordinator gives up quickly and checkpoints progress.
    let mut interrupted = CoordinatorConfig::new("127.0.0.1:0", campaign.clone());
    interrupted.journal = Some(journal.clone());
    interrupted.idle_timeout = Duration::from_millis(400);
    let err = run_local_cluster(interrupted, 2, Parallelism::Serial, Some(1)).unwrap_err();
    match err {
        DistError::Incomplete {
            done,
            total: t,
            journal: j,
        } => {
            assert_eq!(done, 2, "each preempted worker completed one cell");
            assert_eq!(t, total);
            assert_eq!(j.as_deref(), Some(journal.as_path()));
        }
        other => panic!("expected Incomplete, got {other}"),
    }
    // Journals are always suffixed by campaign name (the single
    // bind-time campaign is queued as `main`).
    let journal_text = std::fs::read_to_string(campaign_journal_path(&journal, "main")).unwrap();
    assert_eq!(
        journal_text
            .lines()
            .filter(|l| l.starts_with("cell "))
            .count(),
        2,
        "both finished cells were checkpointed:\n{journal_text}"
    );

    // Phase 2: resume with healthy workers. Only the four unfinished
    // cells may be computed; the journal supplies the rest.
    let mut resumed = CoordinatorConfig::new("127.0.0.1:0", campaign.clone());
    resumed.journal = Some(journal.clone());
    let report = run_local_cluster(resumed, 2, Parallelism::Serial, None).unwrap();
    let sweep = &report.run.campaigns[0];
    assert_eq!(sweep.resumed_cells, 2);
    assert_eq!(sweep.computed_cells, total - 2);
    let recomputed: usize = report
        .workers
        .iter()
        .map(|w| w.as_ref().expect("worker failed").cells_executed)
        .sum();
    assert_eq!(
        recomputed,
        total - 2,
        "finished cells must not be recomputed"
    );

    // The resumed merge is still bit-identical to the serial engine.
    let serial = campaign.run_serial().unwrap();
    assert_bit_identical(&sweep.result, &serial);

    // Resuming a *complete* journal computes nothing at all.
    let mut replay = CoordinatorConfig::new("127.0.0.1:0", campaign);
    replay.journal = Some(journal);
    replay.idle_timeout = Duration::from_millis(400);
    let report = run_local_cluster(replay, 0, Parallelism::Serial, None).unwrap();
    let sweep = &report.run.campaigns[0];
    assert_eq!(sweep.resumed_cells, total);
    assert_eq!(sweep.computed_cells, 0);
    assert_bit_identical(&sweep.result, &serial);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_campaign_kill_and_resume_skips_finished_cells_in_every_campaign() {
    let dir = temp_dir("multi-resume");
    let journal = dir.join("run.journal");
    let campaigns = vec![
        NamedCampaign::new("tiny", named_campaign("tiny").unwrap()),
        NamedCampaign::new("tiny-theta", named_campaign("tiny-theta").unwrap()),
    ];
    let totals: Vec<usize> = campaigns.iter().map(|c| c.spec.plan().jobs.len()).collect();
    let total: usize = totals.iter().sum();

    // Phase 1: preempted workers leave the run incomplete; each
    // campaign journals to its own digest-bound file.
    let mut interrupted = CoordinatorConfig::with_campaigns("127.0.0.1:0", campaigns.clone());
    interrupted.journal = Some(journal.clone());
    interrupted.idle_timeout = Duration::from_millis(400);
    let err = run_local_cluster(interrupted, 2, Parallelism::Serial, Some(2)).unwrap_err();
    let done = match err {
        DistError::Incomplete { done, total: t, .. } => {
            assert_eq!(t, total);
            assert!(done >= 1 && done < total, "run must be genuinely partial");
            done
        }
        other => panic!("expected Incomplete, got {other}"),
    };
    assert!(
        journal.with_file_name("run.journal.tiny").exists(),
        "per-campaign journal `run.journal.tiny` missing"
    );
    assert!(
        journal.with_file_name("run.journal.tiny-theta").exists(),
        "per-campaign journal `run.journal.tiny-theta` missing"
    );

    // Phase 2: resume with healthy workers; finished cells from *both*
    // campaigns are recovered, only the remainder is computed.
    let mut resumed = CoordinatorConfig::with_campaigns("127.0.0.1:0", campaigns.clone());
    resumed.journal = Some(journal.clone());
    let report = run_local_cluster(resumed, 2, Parallelism::Serial, None).unwrap();
    let resumed_total: usize = report.run.campaigns.iter().map(|c| c.resumed_cells).sum();
    let computed_total: usize = report.run.campaigns.iter().map(|c| c.computed_cells).sum();
    assert_eq!(resumed_total, done, "every journaled cell must be resumed");
    assert_eq!(computed_total, total - done);
    let recomputed: usize = report
        .workers
        .iter()
        .map(|w| w.as_ref().expect("worker failed").cells_executed)
        .sum();
    assert_eq!(recomputed, total - done, "zero recompute across campaigns");

    for (campaign, sweep) in campaigns.iter().zip(&report.run.campaigns) {
        assert_bit_identical(&sweep.result, &campaign.spec.run_serial().unwrap());
    }

    // Phase 3: replaying the fully complete journals computes nothing.
    let mut replay = CoordinatorConfig::with_campaigns("127.0.0.1:0", campaigns);
    replay.journal = Some(journal);
    replay.idle_timeout = Duration::from_millis(400);
    let report = run_local_cluster(replay, 0, Parallelism::Serial, None).unwrap();
    for (sweep, &t) in report.run.campaigns.iter().zip(&totals) {
        assert_eq!(sweep.resumed_cells, t);
        assert_eq!(sweep.computed_cells, 0);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn custom_cross_product_scenario_is_bit_identical_to_serial() {
    // A scenario only expressible as a custom spec — a threshold grid
    // crossed with a VDD axis, an attack surface the paper never ran —
    // must shard and merge bit-identically to its serial run, exactly
    // like the catalog presets. The spec arrives through the textual
    // grammar, the same path `repro submit --spec` uses.
    let parsed = neurofi_dist::parse_campaign_text(
        "name = cross\n\
         setup = bench\n\
         attack = threshold-inhibitory\n\
         axis rel_change = -0.2, 0.2\n\
         axis vdd = 0.9, 1\n\
         seeds = 42\n\
         transfer = paper\n",
    )
    .unwrap();
    let campaign = parsed.into_named("cross");
    assert!(
        neurofi_dist::named_campaign(&campaign.name).is_none(),
        "the scenario must not be a catalog preset"
    );
    let serial = campaign.spec.run_serial().unwrap();
    assert_eq!(serial.cells.len(), 4);
    // The surface must have structure (the depressed-VDD column behaves
    // differently), or slot mix-ups would be invisible.
    let distinct: std::collections::HashSet<u64> =
        serial.cells.iter().map(|c| c.accuracy.to_bits()).collect();
    assert!(distinct.len() >= 2, "cross-product surface is flat");

    let config = CoordinatorConfig::with_campaigns("127.0.0.1:0", vec![campaign]);
    let report = run_local_cluster(config, 2, Parallelism::Serial, None).unwrap();
    let sweep = &report.run.campaigns[0];
    assert_eq!(sweep.name, "cross");
    assert_bit_identical(&sweep.result, &serial);
    // Results are addressable by axis indices: cell (rel=-0.2, vdd=1.0)
    // sits at slot [0, 1] of the 2 × 2 surface.
    assert_eq!(sweep.result.shape(), vec![2, 2]);
    assert_eq!(
        sweep.result.cell_at(&[0, 1]).unwrap().accuracy.to_bits(),
        serial.cells[1].accuracy.to_bits()
    );
}
