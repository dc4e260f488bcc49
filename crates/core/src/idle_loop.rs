//! Idle-loop instrumentation: the paper's core measurement technique.
//!
//! §2.3: *"we replace the system's idle loop with our own low-priority
//! process … These low-priority processes measure the time to complete a
//! fixed computation: N iterations of a busy-wait loop. … We select the
//! value of N such that the inner loop takes one ms to complete when the
//! processor is idle."*
//!
//! [`IdleLoopProgram`] is that process, expressed against the simulator's
//! program ABI; [`calibrate_n`] performs the empirical selection of N on a
//! scratch machine; [`install`]/[`collect`] manage a monitor on a live
//! machine.

use latlab_des::SimDuration;
use latlab_hw::HwMix;
use latlab_os::{
    Action, ApiCall, ApiReply, ComputeSpec, IdleCycle, Machine, MixClass, OsParams,
    ParamWatermarks, Priority, ProcessSpec, Program, StepCtx, ThreadId,
};

use crate::trace::IdleTrace;

/// Default trace-buffer capacity (records). At one record per idle
/// millisecond this covers well over ten minutes of benchmark run.
pub const DEFAULT_BUFFER_CAPACITY: usize = 1_000_000;

/// Configuration of an idle-loop monitor.
#[derive(Clone, Copy, Debug)]
pub struct IdleLoopConfig {
    /// Busy-wait iterations per trace record, expressed as instructions of
    /// the one-instruction-per-iteration loop body.
    pub n_instr: u64,
    /// Trace-buffer capacity; the loop stops recording (but keeps spinning)
    /// once full, exactly like the paper's preallocated buffer.
    pub buffer_capacity: usize,
}

impl IdleLoopConfig {
    /// A configuration with the given N and the default buffer.
    pub fn with_n(n_instr: u64) -> Self {
        IdleLoopConfig {
            n_instr,
            buffer_capacity: DEFAULT_BUFFER_CAPACITY,
        }
    }
}

/// The instrumented idle loop as a schedulable program.
///
/// Each iteration: busy-wait `n_instr` instructions, read the cycle counter,
/// append the stamp to the trace buffer (the `Emit` call models the store to
/// a preallocated buffer).
#[derive(Clone, Debug)]
pub struct IdleLoopProgram {
    config: IdleLoopConfig,
    produced: usize,
    phase: Phase,
}

#[derive(Clone, Copy, Debug)]
enum Phase {
    Spin,
    ReadStamp,
    Store,
}

impl IdleLoopProgram {
    /// Creates the program.
    pub fn new(config: IdleLoopConfig) -> Self {
        assert!(config.n_instr > 0, "idle loop N must be non-zero");
        assert!(config.buffer_capacity > 0, "trace buffer must be non-empty");
        IdleLoopProgram {
            config,
            produced: 0,
            phase: Phase::Spin,
        }
    }

    fn spin_action(&self) -> Action {
        Action::Compute(ComputeSpec {
            instructions: self.config.n_instr,
            class: MixClass::Raw(HwMix::IDLE_LOOP),
            code_pages: 1,
            data_pages: 1,
        })
    }
}

impl Program for IdleLoopProgram {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        match self.phase {
            Phase::Spin => {
                if self.produced >= self.config.buffer_capacity {
                    // Buffer full: keep the CPU occupied (we are still the
                    // idle loop) but record nothing.
                    return self.spin_action();
                }
                self.phase = Phase::ReadStamp;
                self.spin_action()
            }
            Phase::ReadStamp => {
                if let ApiReply::Cycles(c) = ctx.reply {
                    // Reply from a previous read — should not happen here.
                    debug_assert!(false, "unexpected cycles reply {c}");
                }
                self.phase = Phase::Store;
                Action::Call(ApiCall::ReadCycleCounter)
            }
            Phase::Store => {
                let stamp = match ctx.reply {
                    ApiReply::Cycles(c) => c,
                    ref other => panic!("idle loop expected cycle counter, got {other:?}"),
                };
                self.produced += 1;
                self.phase = Phase::Spin;
                Action::Call(ApiCall::Emit(stamp))
            }
        }
    }

    fn name(&self) -> &'static str {
        "idle-loop-monitor"
    }

    fn idle_cycle(&self) -> Option<IdleCycle> {
        // Only at an iteration boundary: mid-iteration the kernel must walk
        // the remaining steps itself.
        match self.phase {
            Phase::Spin => {}
            Phase::ReadStamp | Phase::Store => return None,
        }
        let spin = match self.spin_action() {
            Action::Compute(spec) => spec,
            other => unreachable!("spin action is a compute, got {other:?}"),
        };
        let remaining = self.config.buffer_capacity.saturating_sub(self.produced);
        Some(if remaining == 0 {
            // Buffer full: the loop keeps spinning but records nothing, and
            // the shape never changes again.
            IdleCycle {
                spin,
                emits: false,
                max_iterations: u64::MAX,
            }
        } else {
            IdleCycle {
                spin,
                emits: true,
                max_iterations: remaining as u64,
            }
        })
    }

    fn idle_cycle_advance(&mut self, iterations: u64) {
        if self.produced < self.config.buffer_capacity {
            // Each emitting iteration stores one record; the kernel never
            // advances an emitting cycle past the buffer capacity.
            self.produced += iterations as usize;
            debug_assert!(self.produced <= self.config.buffer_capacity);
        }
        // Phase stays Spin: whole iterations end where they began.
    }
}

/// Handle to an installed monitor.
#[derive(Clone, Copy, Debug)]
pub struct IdleLoopHandle {
    thread: ThreadId,
    config: IdleLoopConfig,
}

impl IdleLoopHandle {
    /// The monitor's thread.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }
}

/// Installs the idle-loop monitor on a machine at measurement priority
/// (above the true idle thread, below all real work).
pub fn install(machine: &mut Machine, config: IdleLoopConfig) -> IdleLoopHandle {
    let thread = machine.spawn(
        ProcessSpec::app("idle-loop-monitor").with_priority(Priority::MEASUREMENT),
        Box::new(IdleLoopProgram::new(config)),
    );
    IdleLoopHandle { thread, config }
}

/// Drains the monitor's trace buffer into an [`IdleTrace`].
///
/// The baseline is the *nominal* 1 ms target the calibration aimed N at;
/// passing the calibrated baseline explicitly keeps collection honest — the
/// measurement layer knows only what the calibration told it.
pub fn collect(machine: &mut Machine, handle: IdleLoopHandle, baseline: SimDuration) -> IdleTrace {
    let stamps = machine.take_emitted(handle.thread);
    let _ = handle.config;
    IdleTrace::new(stamps, baseline, machine.params().freq)
}

/// Empirically calibrates N so one loop iteration takes `target` on an
/// otherwise idle machine (§2.3), using the median sample to reject
/// clock-interrupt perturbation.
///
/// Returns the calibrated N (instructions per iteration). `fastforward`
/// is handed to every scratch machine ([`Machine::set_fast_forward`]); N
/// is identical either way.
pub fn calibrate_n(params: &OsParams, target: SimDuration, fastforward: bool) -> u64 {
    calibrate_n_tracked(params, target, fastforward).0
}

/// [`calibrate_n`], additionally reporting which sweepable parameters the
/// scratch calibration machines consulted.
///
/// The calibrated N is baked into the idle-loop program a session
/// installs, so any swept parameter the calibration depended on is
/// effectively read *before* the session machine's timeline begins. A
/// session folds this table into its machine at time zero
/// ([`Machine::note_external_param_reads`]) so the prefix-sharing sweep
/// planner can never fork across a parameter that would have changed the
/// calibration. The dependency set is collected mechanically from the
/// scratch machines' own watermark tables — no hand-maintained list.
pub fn calibrate_n_tracked(
    params: &OsParams,
    target: SimDuration,
    fastforward: bool,
) -> (u64, ParamWatermarks) {
    assert!(!target.is_zero(), "calibration target must be non-zero");
    let mut reads = ParamWatermarks::new();
    let mut n = target.cycles(); // Initial guess: CPI 1, zero overhead.
    for _ in 0..3 {
        let (median, sample_reads) = median_sample(params, n, fastforward);
        reads.absorb(&sample_reads, latlab_des::SimTime::ZERO);
        if median == 0 {
            break;
        }
        // Scale toward the target; the loop body is linear in N, so one
        // proportional step converges quickly.
        let next = (n as u128 * target.cycles() as u128 / median as u128) as u64;
        if next == 0 || next == n {
            break;
        }
        n = next;
    }
    (n.max(1), reads)
}

/// Runs a scratch machine with the idle loop only and returns the median
/// inter-record interval in cycles plus the machine's watermark table.
fn median_sample(params: &OsParams, n_instr: u64, fastforward: bool) -> (u64, ParamWatermarks) {
    let mut machine = Machine::new(params.clone());
    machine.set_fast_forward(fastforward);
    let handle = install(
        &mut machine,
        IdleLoopConfig {
            n_instr,
            buffer_capacity: 4_096,
        },
    );
    let warmup = params.freq.ms(20);
    let run = params.freq.ms(500);
    machine.run_for(warmup + run);
    let stamps = machine.take_emitted(handle.thread);
    let reads = *machine.param_watermarks();
    let mut intervals: Vec<u64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
    if intervals.is_empty() {
        return (0, reads);
    }
    intervals.sort_unstable();
    (intervals[intervals.len() / 2], reads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use latlab_os::OsProfile;

    #[test]
    fn calibration_lands_near_one_ms() {
        for profile in OsProfile::ALL {
            let params = profile.params();
            let target = params.freq.ms(1);
            let n = calibrate_n(&params, target, true);
            // Verify: median sample on an idle machine is within 2% of 1 ms.
            let (median, _) = super::median_sample(&params, n, true);
            let err = (median as f64 - target.cycles() as f64).abs() / target.cycles() as f64;
            assert!(
                err < 0.02,
                "{profile}: calibrated N={n} gives median {median} cycles ({err:.3} rel err)"
            );
        }
    }

    #[test]
    fn idle_machine_produces_one_record_per_ms() {
        let params = OsProfile::Nt40.params();
        let n = calibrate_n(&params, params.freq.ms(1), true);
        let mut machine = Machine::new(params.clone());
        let handle = install(&mut machine, IdleLoopConfig::with_n(n));
        machine.run_for(params.freq.ms(200));
        let trace = collect(&mut machine, handle, params.freq.ms(1));
        // ~200 records for 200 ms of idle.
        assert!(
            (190..=205).contains(&trace.len()),
            "expected ~200 records, got {}",
            trace.len()
        );
    }

    #[test]
    fn buffer_capacity_caps_records() {
        let params = OsProfile::Nt40.params();
        let mut machine = Machine::new(params.clone());
        let handle = install(
            &mut machine,
            IdleLoopConfig {
                n_instr: 100_000,
                buffer_capacity: 10,
            },
        );
        machine.run_for(params.freq.ms(100));
        let trace = collect(&mut machine, handle, params.freq.ms(1));
        assert_eq!(trace.len(), 10, "buffer must cap at capacity");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_n_rejected() {
        let _ = IdleLoopProgram::new(IdleLoopConfig::with_n(0));
    }

    #[test]
    fn fast_forward_stamps_are_bit_identical() {
        for profile in OsProfile::ALL {
            let params = profile.params();
            let n = calibrate_n(&params, params.freq.ms(1), true);
            let run = |ff: bool| {
                let mut machine = Machine::new(params.clone());
                machine.set_fast_forward(ff);
                let handle = install(&mut machine, IdleLoopConfig::with_n(n));
                machine.run_for(params.freq.ms(300));
                machine.take_emitted(handle.thread())
            };
            let fast = run(true);
            assert!(!fast.is_empty());
            assert_eq!(fast, run(false), "{profile}: stamp streams diverge");
        }
    }

    #[test]
    fn fast_forward_respects_buffer_capacity() {
        let params = OsProfile::Nt40.params();
        let run = |ff: bool| {
            let mut machine = Machine::new(params.clone());
            machine.set_fast_forward(ff);
            let handle = install(
                &mut machine,
                IdleLoopConfig {
                    n_instr: 100_000,
                    buffer_capacity: 10,
                },
            );
            machine.run_for(params.freq.ms(100));
            machine.take_emitted(handle.thread())
        };
        let fast = run(true);
        assert_eq!(fast.len(), 10, "buffer must cap at capacity");
        assert_eq!(fast, run(false));
    }

    #[test]
    fn calibration_identical_with_and_without_fast_forward() {
        let params = OsProfile::Win95.params();
        let target = params.freq.ms(1);
        let n_fast = calibrate_n(&params, target, true);
        let n_step = calibrate_n(&params, target, false);
        assert_eq!(
            n_fast, n_step,
            "calibration must not depend on fast-forward"
        );
    }
}
