//! Head-to-head macrobenchmark: `Machine::run_until` over a 60-second
//! idle-dominated workload with the kernel's idle fast-forward on
//! (batched idle-loop simulation) vs. off (the pre-PR step-by-step path).
//!
//! The workload mirrors a real measurement session: a calibrated ~1 ms
//! idle-loop monitor at measurement priority, an interactive app handling
//! a sparse keystroke stream, and the usual 10 ms clock ticks. Virtually
//! all simulated time is idle iterations — the span the fast-forward
//! engine batches. Both modes produce bit-identical stamps and counters
//! (enforced by the equivalence tests); this bench quantifies the
//! wall-clock gap the contract buys.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use latlab_des::SimTime;
use latlab_os::{
    Action, ApiCall, ApiReply, ComputeSpec, InputKind, KeySym, Machine, OsProfile, ProcessSpec,
    Program, StepCtx,
};

const FREQ: latlab_des::CpuFreq = latlab_des::CpuFreq::PENTIUM_100;
const RUN_SECS: u64 = 60;

/// A minimal message-pump app: waits for a keystroke, computes ~4 ms.
#[derive(Clone)]
struct EchoLoop {
    awaiting_reply: bool,
}

impl Program for EchoLoop {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        if self.awaiting_reply {
            self.awaiting_reply = false;
            if let ApiReply::Message(Some(_)) = ctx.reply {
                return Action::Compute(ComputeSpec::app(400_000));
            }
        }
        self.awaiting_reply = true;
        Action::Call(ApiCall::GetMessage)
    }
}

/// Builds the 60-s idle-dominated session and runs it to completion.
fn run_session(fast_forward: bool, n_instr: u64) -> u64 {
    let params = OsProfile::Nt40.params();
    let mut m = Machine::new(params);
    m.set_fast_forward(fast_forward);
    let handle = latlab_core::install(&mut m, latlab_core::IdleLoopConfig::with_n(n_instr));
    let app = m.spawn(
        ProcessSpec::app("echo"),
        Box::new(EchoLoop {
            awaiting_reply: false,
        }),
    );
    m.set_focus(app);
    // One keystroke every two seconds: > 99% of simulated time is idle.
    for i in 0..(RUN_SECS / 2) {
        m.schedule_input_at(
            SimTime::ZERO + FREQ.ms(500 + i * 2_000),
            InputKind::Key(KeySym::Char('x')),
        );
    }
    m.run_until(SimTime::ZERO + FREQ.secs(RUN_SECS));
    let stamps = m.take_emitted(handle.thread());
    stamps.len() as u64 + m.read_cycle_counter()
}

fn bench_fastforward(c: &mut Criterion) {
    let params = OsProfile::Nt40.params();
    let n_instr = latlab_core::calibrate_n(&params, params.freq.ms(1), true);

    let mut group = c.benchmark_group("idle_fastforward");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(10));
    group.sample_size(10);
    // One element = one simulated second, so criterion reports simulated
    // seconds per wall second.
    group.throughput(Throughput::Elements(RUN_SECS));

    group.bench_function("step_path/60s_idle", |b| {
        b.iter(|| black_box(run_session(false, n_instr)))
    });
    group.bench_function("fast_forward/60s_idle", |b| {
        b.iter(|| black_box(run_session(true, n_instr)))
    });
    group.finish();
}

criterion_group!(benches, bench_fastforward);
criterion_main!(benches);
