//! Golden network vectors: the bits of the Diehl&Cook train-and-evaluate
//! protocol under the fault plans, sweep cells and extension attacks the
//! figures run, on a small fixed setup. `mean_activity` is the sensitive
//! pin: with 20 test images accuracy moves in steps of 0.05, and many
//! cells equal the baseline. A drift here means a network-level result
//! moved; an intentional change must regenerate with `UPDATE_GOLDEN=1`
//! and say so in review.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use neurofi_core::attacks::ExperimentSetup;
use neurofi_core::extensions::{TransientGlitchAttack, WeightFaultAttack, WeightFaultKind};
use neurofi_core::sweep::scenario_sweep_cached;
use neurofi_core::{
    BaselineCache, FaultPlan, Parallelism, PowerTransferTable, ScenarioSpec, TargetLayer,
};

/// Seed 42 at a fraction of the quick protocol, run serially.
fn setup() -> ExperimentSetup {
    let mut setup = ExperimentSetup::quick(42).with_parallelism(Parallelism::Serial);
    setup.n_train = 40;
    setup.n_test = 20;
    setup.network.sample_time_ms = 40.0;
    setup.train_options.assignment_window = None;
    setup
}

/// One small sweep per attack family, in the `ScenarioSpec` text form.
/// The VDD sweep crosses three defenses; the theta cell averages two
/// seeds.
const SWEEPS: [&str; 5] = [
    "attack = threshold-excitatory\naxis rel_change = 0.2\naxis fraction = 0.25\nseeds = 42",
    "attack = threshold-inhibitory\naxis rel_change = -0.1\naxis fraction = 1\nseeds = 42",
    "attack = threshold-both\naxis rel_change = -0.1\naxis fraction = 1\nseeds = 42",
    "attack = theta\naxis theta_change = -0.1\nseeds = 42, 43",
    "attack = vdd\naxis vdd = 0.8\naxis defense = none, robust_driver, bandgap_threshold\n\
     seeds = 42\ntransfer = paper",
];

fn render() -> String {
    let setup = setup();
    let table = PowerTransferTable::paper_nominal();
    let mut out = String::from(
        "# Golden network vectors: ExperimentSetup::quick(42), 40 train / 20 test images,\n\
         # 40 ms per sample, no assignment window, serial. IEEE-754 bits.\n\
         # run <plan> <accuracy> <mean_activity> <silent_fraction> — run_with_plan\n\
         # sweep <family> <baseline_accuracy> then cell <rel_change> <fraction> <accuracy> <relative_change%>\n\
         # extension <attack> <attacked_accuracy> <attacked_mean_activity>\n\
         # Regenerate with: UPDATE_GOLDEN=1 cargo test -p neurofi-core --test golden_network\n",
    );
    let plans = [
        ("none", FaultPlan::none()),
        (
            "el-0.2@0.5",
            FaultPlan::layer_threshold(TargetLayer::Excitatory, -0.2, 0.5),
        ),
        (
            "il-0.2@0.9",
            FaultPlan::layer_threshold(TargetLayer::Inhibitory, -0.2, 0.9),
        ),
        ("both+0.1", FaultPlan::both_layer_threshold(0.1)),
        ("drive0.8", FaultPlan::drive_only(0.8)),
        ("vdd0.85", FaultPlan::from_vdd(0.85, &table)),
    ];
    for (name, plan) in &plans {
        let m = setup.run_with_plan(plan);
        writeln!(
            out,
            "run {name} {:016x} {:016x} {:016x}",
            m.accuracy.to_bits(),
            m.mean_activity.to_bits(),
            m.silent_fraction.to_bits(),
        )
        .unwrap();
    }

    let cache = BaselineCache::new(&setup);
    for text in SWEEPS {
        let spec: ScenarioSpec = text.parse().unwrap();
        let result = scenario_sweep_cached(&cache, &spec).unwrap();
        writeln!(
            out,
            "sweep {} {:016x}",
            spec.family,
            result.baseline_accuracy.to_bits()
        )
        .unwrap();
        for cell in &result.cells {
            writeln!(
                out,
                "cell {:016x} {:016x} {:016x} {:016x}",
                cell.rel_change.to_bits(),
                cell.fraction.to_bits(),
                cell.accuracy.to_bits(),
                cell.relative_change_percent.to_bits(),
            )
            .unwrap();
        }
    }

    let glitch = TransientGlitchAttack::new(0.8, 5, 25).run(&setup).unwrap();
    let stuck = WeightFaultAttack::new(WeightFaultKind::StuckAtZero {
        fraction: 0.3,
        seed: 7,
    })
    .run(&setup)
    .unwrap();
    for (name, outcome) in [("glitch", glitch), ("stuck_at_zero", stuck)] {
        writeln!(
            out,
            "extension {name} {:016x} {:016x}",
            outcome.attacked.accuracy.to_bits(),
            outcome.attacked.mean_activity.to_bits(),
        )
        .unwrap();
    }
    out
}

fn vector_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/network.txt")
}

#[test]
fn network_outputs_match_committed_vectors() {
    let rendered = render();
    let path = vector_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); bless initial vectors with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        committed, rendered,
        "network outputs drifted from the committed golden vectors. If \
         intentional, regenerate with UPDATE_GOLDEN=1 and call it out."
    );
}
