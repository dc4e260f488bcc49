//! Criterion benchmarks: one target per reproduced table/figure.
//!
//! Each benchmark runs the corresponding experiment end-to-end (simulation,
//! measurement, extraction, analysis), so the numbers here characterize the
//! cost of regenerating each paper artifact. The artifacts themselves come
//! from `cargo run -p latlab-bench --bin repro`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use latlab_bench::{scenarios, RunConfig};

fn bench_experiments(c: &mut Criterion) {
    let cfg = &RunConfig::default();
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    // The quick single-machine experiments.
    group.bench_function("fig1_validation", |b| {
        b.iter(|| black_box(scenarios::fig1::run(cfg)))
    });
    group.bench_function("fig3_idle_profiles", |b| {
        b.iter(|| black_box(scenarios::fig3::run(cfg)))
    });
    group.bench_function("fig4_window_maximize", |b| {
        b.iter(|| black_box(scenarios::fig4::run(cfg)))
    });
    group.bench_function("fig6_simple_events", |b| {
        b.iter(|| black_box(scenarios::fig6::run(cfg)))
    });
    group.finish();

    // The task-scale experiments: fewer samples, longer runs.
    let mut tasks = c.benchmark_group("task-experiments");
    tasks.sample_size(10);
    tasks.warm_up_time(Duration::from_millis(500));
    tasks.measurement_time(Duration::from_secs(5));
    tasks.bench_function("fig5_word_raw_profile", |b| {
        b.iter(|| black_box(scenarios::fig5::run(cfg)))
    });
    tasks.bench_function("fig7_notepad_task", |b| {
        b.iter(|| black_box(scenarios::fig7::run(cfg)))
    });
    tasks.bench_function("fig8_powerpoint_task_table1", |b| {
        b.iter(|| black_box(scenarios::fig8::run(cfg)))
    });
    tasks.bench_function("fig9_pagedown_counters", |b| {
        b.iter(|| black_box(scenarios::fig9::run(cfg)))
    });
    tasks.bench_function("fig10_ole_counters", |b| {
        b.iter(|| black_box(scenarios::fig10::run(cfg)))
    });
    tasks.bench_function("fig11_word_task", |b| {
        b.iter(|| black_box(scenarios::fig11::run(cfg)))
    });
    tasks.bench_function("tab2_interarrival", |b| {
        b.iter(|| black_box(scenarios::tab2::run(cfg)))
    });
    tasks.bench_function("fig12_long_events", |b| {
        b.iter(|| black_box(scenarios::fig12::run(cfg)))
    });
    tasks.bench_function("sec54_test_vs_hand", |b| {
        b.iter(|| black_box(scenarios::sec54::run(cfg)))
    });
    tasks.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
