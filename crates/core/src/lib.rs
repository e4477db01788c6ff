//! # neurofi-core
//!
//! The primary contribution of *"Analysis of Power-Oriented Fault
//! Injection Attacks on Spiking Neural Networks"* (DATE 2022), in Rust:
//!
//! * [`injection`] — [`FaultPlan`]: translates a threat (which layer,
//!   what fraction of neurons, how much threshold/drive corruption) into
//!   concrete state changes on a [`neurofi_snn::DiehlCook2015`] network.
//!   Each of the paper's five attacks (§IV) is one plan:
//!   [`FaultPlan::drive_only`] (Attack 1),
//!   [`FaultPlan::layer_threshold`] (Attacks 2 and 3),
//!   [`FaultPlan::both_layer_threshold`] (Attack 4) and
//!   [`FaultPlan::from_vdd`] (Attack 5, the only one that needs no more
//!   than black-box access, §I).
//! * [`attacks`] — the experiment protocol: [`attacks::ExperimentSetup`]
//!   trains and evaluates the network under a fault plan
//!   ([`run_with_plan`](attacks::ExperimentSetup::run_with_plan)) or
//!   fault-free ([`baseline`](attacks::ExperimentSetup::baseline)), the
//!   data behind Figs. 7b, 8a–c and 9a.
//! * [`scenario`] — declarative N-axis scenario specifications
//!   ([`ScenarioSpec`]): an attack family ([`AttackFamily`], numbered
//!   as in the paper by [`AttackFamily::paper_id`]) plus an ordered
//!   list of typed axes (`rel_change`, `fraction`, `theta_change`,
//!   `vdd`, `layer`, `polarity`, `seed`, `defense`, `detector`,
//!   `neurons`), with a textual grammar, that one generic planner
//!   flattens into the sweep pipeline — the paper's grids and arbitrary
//!   cross products (e.g. threshold × VDD) alike.
//! * [`sweep`] — the parallel grid-sweep engine that regenerates the
//!   paper's accuracy surfaces on a work-stealing pool with memoised
//!   per-seed baselines and layer references ([`BaselineCache`]);
//!   serial and parallel runs are bit-identical. The engine is staged
//!   (enumerate → execute → assemble) so external schedulers like the
//!   `neurofi-dist` coordinator can run the same [`CellJob`]s on other
//!   machines, and results are addressed by axis indices
//!   ([`sweep::SweepResult::cell_at`]).
//! * [`defense`] — the §V defenses ([`DefenseSel`]: robust driver,
//!   bandgap threshold, neuron sizing, comparator first stage) as
//!   transfer-function hardenings, with overhead accounting.
//! * [`detection`] — the dummy-neuron voltage-glitch detector (§V-C,
//!   Figs. 10b/10c) with its ≥10% spike-count deviation rule.
//! * [`report`] — result tables with paper-reference columns.
//!
//! The circuit-to-behaviour bridge is
//! [`neurofi_analog::PowerTransferTable`]: VDD → (drive scale, threshold
//! scales), either measured from the transistor-level simulator or taken
//! from the paper's reported endpoints.
//!
//! ## Example: Attack 3 (inhibitory-layer threshold fault)
//!
//! ```no_run
//! use neurofi_core::attacks::ExperimentSetup;
//! use neurofi_core::{FaultPlan, TargetLayer};
//!
//! let setup = ExperimentSetup::quick(42);
//! let baseline = setup.baseline();
//! let plan = FaultPlan::layer_threshold(TargetLayer::Inhibitory, -0.20, 1.0);
//! let attacked = setup.run_with_plan(&plan);
//! assert!(attacked.accuracy < 0.5 * baseline.accuracy);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod attacks;
pub mod defense;
pub mod detection;
pub mod error;
pub mod extensions;
pub mod injection;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use attacks::AttackOutcome;
pub use defense::OverheadEstimate;
pub use detection::{DetectionOutcome, DummyNeuronDetector};
pub use error::Error;
pub use injection::{FaultPlan, TargetLayer};
pub use neurofi_analog::PowerTransferTable;
pub use report::Table;
pub use scenario::{
    AttackFamily, Axis, AxisKind, AxisValues, DefenseSel, DetectorSel, LayerSel, ScenarioSpec,
};
pub use sweep::{
    cell_countermeasures, BaselineCache, CellAttack, CellCountermeasures, CellJob, CellResult,
    Parallelism, SweepCell, SweepPlan, SweepResult,
};
