//! Performance benchmarks of the attack machinery: fault-plan
//! application must be cheap enough to never perturb the experiment
//! protocol, and a full quick-scale attack experiment is timed as the
//! end-to-end workload.

use criterion::{criterion_group, criterion_main, Criterion};
use neurofi_core::attacks::ExperimentSetup;
use neurofi_core::{FaultPlan, PowerTransferTable, TargetLayer};
use neurofi_snn::diehl_cook::{DiehlCook2015, DiehlCookConfig};
use std::hint::black_box;

fn bench_fault_plan_apply(c: &mut Criterion) {
    let mut net = DiehlCook2015::new(DiehlCookConfig::default(), 3);
    let plan = FaultPlan::layer_threshold(TargetLayer::Inhibitory, -0.2, 0.6);
    c.bench_function("fault_plan_apply", |b| {
        b.iter(|| {
            net.clear_faults();
            plan.apply(black_box(&mut net));
        })
    });
}

fn bench_transfer_sampling(c: &mut Criterion) {
    let table = PowerTransferTable::paper_nominal();
    c.bench_function("transfer_table_sample", |b| {
        b.iter(|| black_box(table.sample(black_box(0.87))))
    });
}

fn bench_vdd_plan(c: &mut Criterion) {
    let table = PowerTransferTable::paper_nominal();
    c.bench_function("fault_plan_from_vdd", |b| {
        b.iter(|| black_box(FaultPlan::from_vdd(black_box(0.8), &table)))
    });
}

fn bench_tiny_attack_experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("attack3_tiny_experiment", |b| {
        let mut setup = ExperimentSetup::quick(42);
        setup.n_train = 40;
        setup.n_test = 20;
        setup.network.sample_time_ms = 50.0;
        let plan = FaultPlan::layer_threshold(TargetLayer::Inhibitory, -0.2, 1.0);
        b.iter(|| {
            let baseline = setup.baseline();
            let attacked = setup.run_with_plan(&plan);
            black_box((baseline.accuracy, attacked.accuracy))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_plan_apply,
    bench_transfer_sampling,
    bench_vdd_plan,
    bench_tiny_attack_experiment
);
criterion_main!(benches);
