//! Criterion microbenchmarks of the simulator substrate itself: how fast
//! the machine simulates, and the cost of the measurement primitives.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use latlab_core::{calibrate_n, extract_events, BoundaryPolicy};
use latlab_des::{CpuFreq, SimTime};
use latlab_os::{InputKind, KeySym, Machine, OsProfile};

const FREQ: CpuFreq = CpuFreq::PENTIUM_100;

fn bench_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    // Simulated-seconds-per-wall-second for an idle machine with the
    // measurement stack installed.
    group.throughput(Throughput::Elements(1));
    group.bench_function("idle_second_with_monitor", |b| {
        b.iter(|| {
            let params = OsProfile::Nt40.params();
            let mut m = Machine::new(params.clone());
            latlab_core::install(&mut m, latlab_core::IdleLoopConfig::with_n(99_000));
            m.run_until(SimTime::ZERO + FREQ.secs(1));
            black_box(m.now())
        })
    });
    group.bench_function("busy_second_notepad_typing", |b| {
        b.iter(|| {
            let params = OsProfile::Nt40.params();
            let mut m = Machine::new(params.clone());
            latlab_core::install(&mut m, latlab_core::IdleLoopConfig::with_n(99_000));
            let tid = m.spawn(
                latlab_os::ProcessSpec::app("notepad"),
                Box::new(latlab_apps::Notepad::new(
                    latlab_apps::NotepadConfig::default(),
                )),
            );
            m.set_focus(tid);
            for i in 0..8u64 {
                m.schedule_input_at(
                    SimTime::ZERO + FREQ.ms(50 + i * 120),
                    InputKind::Key(KeySym::Char('a')),
                );
            }
            m.run_until(SimTime::ZERO + FREQ.secs(1));
            black_box(m.now())
        })
    });
    group.finish();

    let mut meas = c.benchmark_group("measurement");
    meas.warm_up_time(Duration::from_millis(500));
    meas.measurement_time(Duration::from_secs(3));
    meas.bench_function("calibrate_n", |b| {
        b.iter(|| {
            let params = OsProfile::Nt40.params();
            black_box(calibrate_n(&params, params.freq.ms(1), true))
        })
    });
    // Extraction over a sizable synthetic trace/log.
    meas.bench_function("extract_1k_events", |b| {
        use latlab_os::apilog::{ApiEntry, ApiLog, ApiLogEntry, ApiOutcome};
        const MS: u64 = 100_000;
        let mut stamps = Vec::new();
        let mut log = ApiLog::new();
        let mut t = 0u64;
        for i in 0..1_000u64 {
            // 100 ms idle, then a 5 ms event.
            for _ in 0..100 {
                stamps.push(t);
                t += MS;
            }
            log.record(ApiLogEntry {
                at: latlab_des::SimTime::from_cycles(t + MS),
                thread: latlab_os::ThreadId(0),
                entry: ApiEntry::GetMessage,
                outcome: ApiOutcome::Retrieved(latlab_os::Message::Input {
                    id: i,
                    kind: InputKind::Key(KeySym::Char('x')),
                }),
                queue_len_after: 0,
            });
            t += 6 * MS;
            log.record(ApiLogEntry {
                at: latlab_des::SimTime::from_cycles(t),
                thread: latlab_os::ThreadId(0),
                entry: ApiEntry::GetMessage,
                outcome: ApiOutcome::Blocked,
                queue_len_after: 0,
            });
        }
        stamps.push(t + MS);
        let trace =
            latlab_core::IdleTrace::new(stamps, latlab_des::SimDuration::from_cycles(MS), FREQ);
        b.iter(|| {
            black_box(extract_events(
                &trace,
                &log,
                latlab_os::ThreadId(0),
                BoundaryPolicy::SplitAtRetrieval,
            ))
        })
    });
    meas.finish();
}

criterion_group!(benches, bench_machine);
criterion_main!(benches);
