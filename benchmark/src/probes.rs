//! Stage calls of the traced run: one representative cell or
//! simulation per workload, split into the public calls of each layer,
//! plus short kernel loops. Every call is timed from outside.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use neurofi_analog::LayerNetlist;
use neurofi_core::attacks::ExperimentSetup;
use neurofi_core::sweep::{execute_cell, mean_baseline_accuracy};
use neurofi_core::{
    AttackFamily, BaselineCache, CellJob, CellResult, DefenseSel, FaultPlan, Parallelism, SweepCell,
};
use neurofi_dist::{CampaignSpec, Journal, Message};
use neurofi_snn::{evaluate, train, DiehlCook2015, PoissonEncoder};
use neurofi_spice::{Engine, Netlist, TranSpec};
use neurofi_store::Store;

use crate::report::Values;
use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions of each representative SNN stage call (medians
/// reported).
const STAGE_REPEATS: usize = 7;
/// Repetitions of the representative layer cell and simulation.
const LAYER_REPEATS: usize = 3;

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Times `work` once, in seconds.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed().as_secs_f64())
}

/// One single-layer threshold cell of `spec`, run serially through
/// `execute_cell` and then split into the data and SNN stages — exactly
/// the calls `ExperimentSetup::run_with_plan` makes — giving the cell's
/// self time. The two alternate, so drift hits both alike.
pub fn snn_stages(tracer: &Tracer, spec: &CampaignSpec, job: &CellJob, values: &mut Values) {
    let AttackFamily::Threshold(sel) = job.attack.family else {
        panic!("the representative cell is a threshold cell");
    };
    let layer = sel
        .target()
        .expect("the representative cell targets one layer");
    let rel_change = job
        .attack
        .rel_change
        .expect("threshold cells carry a change");
    let plan = FaultPlan::layer_threshold(layer, rel_change, job.attack.fraction);
    let seeds = spec.scenario.baseline_seeds();
    let serial = spec.materialize().with_parallelism(Parallelism::Serial);
    let cache = BaselineCache::new(&serial);
    let baseline = mean_baseline_accuracy(&cache, seeds);
    let transfer = spec.transfer_table().expect("generated tables are usable");
    let setup = serial.with_seed(seeds[0]);
    let mut cell = vec![];
    let (mut generate, mut net_new, mut training, mut eval) = (vec![], vec![], vec![], vec![]);
    for _ in 0..STAGE_REPEATS {
        let (result, t) = timed(|| {
            tracer.span("core.cell", None, None, |_| {
                execute_cell(&cache, seeds, baseline, job, transfer.as_ref())
            })
        });
        result.expect("the representative cell executes");
        cell.push(t);
        tracer.span("probe.snn_cell", None, None, |parent| {
            let ((train_set, test_set), t) =
                timed(|| tracer.span("data.generate", parent, None, |_| setup.datasets()));
            generate.push(t);
            let (mut net, t) = timed(|| {
                tracer.span("snn.net_new", parent, None, |_| {
                    DiehlCook2015::new(setup.network.clone(), setup.network_seed)
                })
            });
            net_new.push(t);
            plan.apply(&mut net);
            let (report, t) = timed(|| {
                tracer.span("snn.train", parent, None, |_| {
                    train(&mut net, &train_set, &setup.train_options)
                })
            });
            training.push(t);
            let (accuracy, t) = timed(|| {
                tracer.span("snn.eval", parent, None, |_| {
                    evaluate(
                        &mut net,
                        &report.assignments,
                        &test_set,
                        setup.train_options.n_classes,
                    )
                })
            });
            black_box(accuracy);
            eval.push(t);
        });
    }
    let stages = [&generate, &net_new, &training, &eval].map(|s| ms(median(s)));
    let cell_ms = ms(median(&cell));
    values.insert("data.generate_ms", stages[0]);
    values.insert("snn.net_new_ms", stages[1]);
    values.insert("snn.train_ms", stages[2]);
    values.insert("snn.eval_ms", stages[3]);
    values.insert("core.cell_self_ms", cell_ms - stages.iter().sum::<f64>());
    values.insert("data.cell_share", stages[0] / cell_ms);
    let net = DiehlCook2015::new(setup.network.clone(), setup.network_seed);
    let steps = (setup.n_train + setup.n_test) * net.steps_per_sample();
    values.insert("snn.steps_per_run", steps as f64);
}

/// Kernel loops over `DiehlCook2015::step`, `PoissonEncoder::
/// encode_step_into` and `PostPreStdp::update` on one image of the
/// workload's data.
pub fn snn_kernels(setup: &ExperimentSetup, values: &mut Values) {
    let (train_set, _) = setup.datasets();
    let image = train_set.image(0);
    let config = setup.network.clone();
    let mut net = DiehlCook2015::new(config.clone(), setup.network_seed);
    let mut encoder = PoissonEncoder::new(config.max_rate_hz, config.dt_ms, setup.network_seed);
    let mut frames = vec![vec![0.0f32; config.n_input]; 64];
    let encode_iters = 20_000usize;
    let start = Instant::now();
    for i in 0..encode_iters {
        encoder.encode_step_into(image, &mut frames[i % 64]);
    }
    values.insert(
        "snn.encode_ns",
        start.elapsed().as_nanos() as f64 / encode_iters as f64,
    );
    // Warm the network so its spike sparsity is realistic.
    for frame in frames.iter().cycle().take(300) {
        net.step(frame);
    }
    let step_iters = 4_000usize;
    let start = Instant::now();
    for frame in frames.iter().cycle().take(step_iters) {
        net.step(frame);
    }
    values.insert(
        "snn.step_ns",
        start.elapsed().as_nanos() as f64 / step_iters as f64,
    );
    // STDP alone: advance without learning, then apply one update.
    net.learning = false;
    let mut stdp_seconds = 0.0;
    let stdp_iters = 2_000usize;
    for frame in frames.iter().cycle().take(stdp_iters) {
        net.step(frame);
        let start = Instant::now();
        config.stdp.update(
            &mut net.input_to_exc,
            &net.input.spikes,
            &net.input.traces,
            &net.excitatory.spikes,
            &net.excitatory.traces,
        );
        stdp_seconds += start.elapsed().as_secs_f64();
    }
    values.insert("snn.stdp_us", stdp_seconds * 1e6 / stdp_iters as f64);
}

/// The representative layer cell of `spec`: its largest undefended
/// layer at an off-nominal supply, which pays the nominal reference
/// simulation too.
fn representative_layer_cell(spec: &CampaignSpec) -> CellJob {
    spec.plan()
        .jobs
        .into_iter()
        .filter(|j| j.attack.defense == DefenseSel::None)
        .filter(|j| j.attack.vdd != Some(1.0))
        .max_by_key(|j| j.attack.neurons)
        .expect("the layer campaign has an off-nominal undefended cell")
}

/// The circuit layers on the representative cell of layer campaign
/// `spec`: its `execute_cell` time, then the same circuit split into
/// netlist build and compile and the sparse transient with its work
/// counters. `cell_ms` are the serial times of the workload's own layer
/// cells (empty when it has none: the representative's time is used).
pub fn layer_probe(tracer: &Tracer, spec: &CampaignSpec, cell_ms: &[f64], values: &mut Values) {
    let job = representative_layer_cell(spec);
    let neurons = job.attack.neurons.expect("layer cell") as usize;
    let layer = LayerNetlist::paper_layer(neurons)
        .with_vdd(job.attack.vdd.expect("layer cells have a supply"));
    let (tstop, dt) = LayerNetlist::cell_window();
    let tran_spec = TranSpec::new(tstop, dt).with_uic();
    let cache = BaselineCache::new(&spec.materialize().with_parallelism(Parallelism::Serial));
    let seeds = spec.scenario.baseline_seeds();
    let transfer = spec.transfer_table().expect("generated tables are usable");
    let (mut cell, mut build, mut tran, mut stats, mut points) = (vec![], vec![], vec![], None, 0);
    for _ in 0..LAYER_REPEATS {
        let (result, t) = timed(|| {
            tracer.span("core.layer_cell", None, None, |_| {
                execute_cell(&cache, seeds, 0.0, &job, transfer.as_ref())
            })
        });
        result.expect("the representative layer cell executes");
        cell.push(t);
        tracer.span("probe.layer_simulation", None, None, |parent| {
            let (circuit, t) = timed(|| {
                tracer.span("analog.build", parent, None, |_| {
                    let mut net = Netlist::new();
                    layer.build(&mut net).expect("generated layers build");
                    net.compile().expect("generated layers compile")
                })
            });
            build.push(t);
            let (result, t) = timed(|| {
                tracer.span("spice.tran", parent, None, |_| {
                    circuit
                        .tran_with_engine(Engine::Sparse, &tran_spec)
                        .expect("generated layers simulate")
                })
            });
            tran.push(t);
            stats = Some(*result.stats());
            points = result.len();
        });
    }
    let stats = stats.expect("at least one repetition");
    let (cell, build, tran) = (median(&cell), median(&build), median(&tran));
    let newton = stats.newton_iterations as f64;
    let attempts = (stats.accepted_steps + stats.rejected_steps).max(1) as f64;
    let all_cells = if cell_ms.is_empty() {
        ms(cell)
    } else {
        median(cell_ms)
    };
    values.insert("core.layer_cell_ms", all_cells);
    values.insert("core.layer_cell_sim_ratio", cell / (build + tran));
    values.insert("analog.build_ms", ms(build));
    values.insert("spice.tran_s", tran);
    values.insert("spice.newton_us", tran * 1e6 / newton.max(1.0));
    values.insert("spice.newton_iterations", newton);
    values.insert("spice.accepted_steps", stats.accepted_steps as f64);
    values.insert("spice.rejected_steps", stats.rejected_steps as f64);
    values.insert("spice.reject_ratio", stats.rejected_steps as f64 / attempts);
    values.insert(
        "spice.waveform_mb",
        (points * layer.unknowns() * 8) as f64 / (1024.0 * 1024.0),
    );
    let solver = stats.solver;
    values.insert(
        "solver.full_factorizations",
        solver.full_factorizations as f64,
    );
    values.insert("solver.refactorizations", solver.refactorizations as f64);
    values.insert("solver.solves", solver.solves as f64);
    values.insert("solver.pattern_rebuilds", solver.pattern_rebuilds as f64);
    values.insert("solver.nnz", solver.nnz as f64);
    values.insert("solver.lu_nnz", solver.lu_nnz as f64);
}

/// `BaselineCache::prime` of one seed on a fresh cache, in seconds.
pub fn prime_once(tracer: &Tracer, setup: &ExperimentSetup, seed: u64) -> f64 {
    let cache = BaselineCache::new(setup);
    timed(|| tracer.span("core.baseline", None, None, |_| cache.prime(&[seed]))).1
}

/// Wire encode/decode of one `Assign` and one `Results` frame of the
/// run, per cell carried.
pub fn wire(assign: &Message, results: &Message, values: &mut Values) {
    let cells = |m: &Message| match m {
        Message::Assign { jobs, .. } => jobs.len(),
        Message::Results { results, .. } => results.len(),
        _ => 0,
    };
    let n = (cells(assign) + cells(results)).max(1) as f64;
    let iters = 2_000usize;
    let (frames, encode) = timed(|| {
        let mut frames = (Vec::new(), Vec::new());
        for _ in 0..iters {
            frames = (black_box(assign.encode()), black_box(results.encode()));
        }
        frames
    });
    let (_, decode) = timed(|| {
        for _ in 0..iters {
            black_box(Message::decode(&frames.0).expect("own frame decodes"));
            black_box(Message::decode(&frames.1).expect("own frame decodes"));
        }
    });
    values.insert("dist.encode_us", encode * 1e6 / (iters as f64 * n));
    values.insert("dist.decode_us", decode * 1e6 / (iters as f64 * n));
}

/// `CampaignSpec::cell_digest` per cell over `campaigns`.
pub fn digests(campaigns: &[&CampaignSpec], values: &mut Values) {
    let jobs: Vec<_> = campaigns
        .iter()
        .flat_map(|c| c.plan().jobs.into_iter().map(move |job| (*c, job)))
        .collect();
    let iters = 20usize;
    let (_, t) = timed(|| {
        for _ in 0..iters {
            for (spec, job) in &jobs {
                black_box(spec.cell_digest(&job.attack));
            }
        }
    });
    values.insert(
        "dist.digest_us",
        t * 1e6 / (iters * jobs.len().max(1)) as f64,
    );
}

/// `Journal::open` of new files (each create ends in `sync_all`) and
/// `Journal::record_cell` appends, in `dir`.
pub fn journal(dir: &Path, values: &mut Values) {
    let cell = SweepCell {
        rel_change: -0.2,
        fraction: 0.75,
        accuracy: 0.5,
        relative_change_percent: -12.5,
    };
    let opens: Vec<f64> = (0..10)
        .map(|i| {
            let path = dir.join(format!("probe-{i}.journal"));
            let ((journal, _), t) = timed(|| Journal::open(&path, 7, 64).expect("journal opens"));
            drop(journal);
            t
        })
        .collect();
    values.insert("dist.journal_open_ms", ms(median(&opens)));
    let path = dir.join("probe-append.journal");
    let (mut journal, _) = Journal::open(&path, 7, 64).expect("journal opens");
    let appends: Vec<f64> = (0..200)
        .map(|i| {
            let result = CellResult {
                index: i % 64,
                cell,
            };
            timed(|| journal.record_cell(&result).expect("journal appends")).1
        })
        .collect();
    values.insert("dist.journal_append_us", median(&appends) * 1e6);
}

/// `Store::open` replay, size, `get_cell` and `put_cell` against a copy
/// of the run's store at `copy`. `digests` are the run's cell keys; each
/// distinct key is read once per iteration and appended once to a fresh
/// store, so no put is a duplicate the store can skip.
pub fn store(copy: &Path, scratch: &Path, digests: &[u64], values: &mut Values) {
    let mut digests = digests.to_vec();
    digests.sort_unstable();
    digests.dedup();
    let opens: Vec<f64> = (0..3)
        .map(|_| timed(|| Store::open(copy).expect("store copy opens")).1)
        .collect();
    values.insert("store.open_ms", ms(median(&opens)));
    let store = Store::open(copy).expect("store copy opens");
    let stat = store.stat().expect("store stat");
    values.insert("store.records", store.len() as f64);
    values.insert("store.bytes", stat.file_bytes as f64);
    let iters = 50usize;
    let (cells, t) = timed(|| {
        let mut cells = Vec::with_capacity(digests.len());
        for _ in 0..iters {
            cells.clear();
            cells.extend(digests.iter().map(|&d| black_box(store.get_cell(d))));
        }
        cells
    });
    values.insert(
        "store.get_us",
        t * 1e6 / (iters * digests.len().max(1)) as f64,
    );
    let mut fresh = Store::open(&scratch.join("probe.store")).expect("fresh store opens");
    let puts: Vec<f64> = digests
        .iter()
        .zip(cells)
        .filter_map(|(&d, cell)| Some((d, cell?)))
        .map(|(d, cell)| timed(|| fresh.put_cell(d, cell).expect("fresh store appends")).1)
        .collect();
    values.insert("store.put_us", median(&puts) * 1e6);
}
