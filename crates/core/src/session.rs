//! One-stop measurement sessions.
//!
//! A [`MeasurementSession`] wires the full methodology together: boot a
//! machine with an OS personality, calibrate and install the idle-loop
//! monitor, run a workload, and extract per-event latencies from the
//! observables (idle trace + message-API log). This is the API the examples
//! and the experiment harness use.

use latlab_des::{SimDuration, SimTime};
use latlab_os::{
    Machine, MachineSnapshot, OsParams, OsProfile, ProcessSpec, Program, SweptParam, ThreadId,
};
use serde::{Deserialize, Serialize};

use crate::extract::{extract_events, BoundaryPolicy, MeasuredEvent};
use crate::idle_loop::{self, IdleLoopConfig, IdleLoopHandle};
use crate::trace::IdleTrace;

/// A machine with the measurement stack installed.
pub struct MeasurementSession {
    machine: Machine,
    idle: IdleLoopHandle,
    baseline: SimDuration,
    focus: Option<ThreadId>,
}

/// The collected observables and extracted results of a session.
///
/// Serializable, so runs can be archived and re-analyzed without
/// re-simulating (`serde_json` round-trips losslessly).
#[derive(Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// The idle-loop trace.
    pub trace: IdleTrace,
    /// Events extracted for the focused application.
    pub events: Vec<MeasuredEvent>,
    /// Total elapsed time of the measured run.
    pub elapsed: SimDuration,
}

impl MeasurementSession {
    /// Boots a session on the given OS: calibrates the idle loop on a
    /// scratch machine (§2.3), then installs it on a fresh one.
    pub fn new(profile: OsProfile) -> Self {
        Self::with_params(profile.params(), true)
    }

    /// Boots a session on a custom parameter set (ablations and sweeps).
    /// `fastforward` reaches the session machine and every calibration
    /// scratch machine ([`Machine::set_fast_forward`]).
    pub fn with_params(params: OsParams, fastforward: bool) -> Self {
        let target = params.freq.ms(1);
        let (n, calibration_reads) = idle_loop::calibrate_n_tracked(&params, target, fastforward);
        let mut machine = Machine::new(params);
        machine.set_fast_forward(fastforward);
        // The calibrated N bakes the calibration machines' parameter
        // dependencies into this session; fold them in at time zero so a
        // snapshot of this session can never claim a fork across them is
        // sound (see `idle_loop::calibrate_n_tracked`).
        machine.note_external_param_reads(&calibration_reads);
        let idle = idle_loop::install(&mut machine, IdleLoopConfig::with_n(n));
        MeasurementSession {
            machine,
            idle,
            baseline: target,
            focus: None,
        }
    }

    /// Freezes the complete session — the machine plus the measurement
    /// stack's own state (idle-loop handle, calibration baseline, focus) —
    /// into a restorable [`SessionSnapshot`].
    pub fn snapshot(&mut self) -> SessionSnapshot {
        SessionSnapshot {
            machine: self.machine.snapshot(),
            idle: self.idle,
            baseline: self.baseline,
            focus: self.focus,
        }
    }

    /// Reconstructs a session from a snapshot; the continuation measures
    /// bit-identically to the session the snapshot was taken from.
    pub fn restore(snap: &SessionSnapshot) -> MeasurementSession {
        MeasurementSession {
            machine: Machine::restore(&snap.machine),
            idle: snap.idle,
            baseline: snap.baseline,
            focus: snap.focus,
        }
    }

    /// Re-points a sweepable parameter on a restored session (the
    /// prefix-sharing sweep's fork edit). Soundness is the caller's
    /// obligation — check [`SessionSnapshot::param_unread`] first.
    pub fn apply_param(&mut self, param: SweptParam, value: u64) {
        self.machine.apply_param(param, value);
    }

    /// Access to the underlying machine (to register files, schedule input,
    /// read counters).
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Read-only machine access.
    pub fn machine_ref(&self) -> &Machine {
        &self.machine
    }

    /// The calibrated idle-loop baseline (one unloaded iteration).
    pub fn baseline(&self) -> SimDuration {
        self.baseline
    }

    /// Spawns the application under test and focuses input on it.
    pub fn launch_app(&mut self, spec: ProcessSpec, program: Box<dyn Program>) -> ThreadId {
        let tid = self.machine.spawn(spec, program);
        self.machine.set_focus(tid);
        self.focus = Some(tid);
        tid
    }

    /// Runs the machine for a duration.
    pub fn run_for(&mut self, d: SimDuration) {
        self.reserve_stamps(d);
        self.machine.run_for(d);
    }

    /// Runs until quiescent or `limit`, whichever first; returns whether
    /// quiescence was reached.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> bool {
        self.reserve_stamps(limit.saturating_since(self.machine.now()));
        self.machine.run_until_quiescent(limit)
    }

    /// Pre-sizes the idle loop's stamp buffer for a run of the given
    /// expected duration: the monitor emits one stamp per idle millisecond,
    /// so the expected volume is known before the run starts. Reserving
    /// once keeps the emit path free of `Vec` growth reallocations.
    fn reserve_stamps(&mut self, expected: SimDuration) {
        let freq = self.machine.params().freq;
        let expected_ms = freq.to_ms(expected).ceil() as usize;
        self.machine.reserve_emitted(
            self.idle.thread(),
            expected_ms.min(crate::idle_loop::DEFAULT_BUFFER_CAPACITY),
        );
    }

    /// Finishes the session: drains the trace and extracts events for the
    /// focused application.
    ///
    /// The machine first runs a few extra milliseconds of idle so that the
    /// idle loop closes its in-flight sample — otherwise work immediately
    /// before the stop would sit in a never-completed interval and be
    /// invisible (the §2 turnaround-time problem).
    ///
    /// # Panics
    ///
    /// Panics if no application was launched.
    pub fn finish(mut self, policy: BoundaryPolicy) -> Measurement {
        let focus = self.focus.expect("finish() before launch_app()");
        let cooldown = self.machine.params().freq.ms(10);
        self.machine.run_for(cooldown);
        let elapsed = SimDuration::from_cycles(self.machine.now().cycles());
        let trace = idle_loop::collect(&mut self.machine, self.idle, self.baseline);
        let events = extract_events(&trace, self.machine.apilog(), focus, policy);
        Measurement {
            trace,
            events,
            elapsed,
        }
    }

    /// Finishes and also returns the machine for ground-truth inspection
    /// (validation flows).
    pub fn finish_with_machine(mut self, policy: BoundaryPolicy) -> (Measurement, Machine) {
        let focus = self
            .focus
            .expect("finish_with_machine() before launch_app()");
        let cooldown = self.machine.params().freq.ms(10);
        self.machine.run_for(cooldown);
        let elapsed = SimDuration::from_cycles(self.machine.now().cycles());
        let trace = idle_loop::collect(&mut self.machine, self.idle, self.baseline);
        let events = extract_events(&trace, self.machine.apilog(), focus, policy);
        (
            Measurement {
                trace,
                events,
                elapsed,
            },
            self.machine,
        )
    }
}

/// A frozen measurement session (see [`MeasurementSession::snapshot`]).
pub struct SessionSnapshot {
    machine: MachineSnapshot,
    idle: IdleLoopHandle,
    baseline: SimDuration,
    focus: Option<ThreadId>,
}

impl SessionSnapshot {
    /// The simulated instant the snapshot was taken.
    pub fn now(&self) -> SimTime {
        self.machine.now()
    }

    /// True when forking this snapshot with `param` changed is provably
    /// equivalent to a scratch session (the parameter was never consulted
    /// — by the machine *or* by the idle-loop calibration feeding it).
    pub fn param_unread(&self, param: SweptParam) -> bool {
        self.machine.param_unread(param)
    }

    /// The underlying machine snapshot.
    pub fn machine(&self) -> &MachineSnapshot {
        &self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latlab_des::CpuFreq;
    use latlab_os::{Action, ApiCall, ApiReply, ComputeSpec, InputKind, KeySym, StepCtx};

    /// Minimal message-loop app for session tests.
    #[derive(Clone)]
    struct MiniApp {
        waiting: bool,
    }

    impl Program for MiniApp {
        fn step(&mut self, ctx: &mut StepCtx) -> Action {
            if self.waiting {
                self.waiting = false;
                if let ApiReply::Message(Some(_)) = ctx.reply {
                    return Action::Compute(ComputeSpec::app(400_000));
                }
            }
            self.waiting = true;
            Action::Call(ApiCall::GetMessage)
        }
    }

    #[test]
    fn restored_session_measures_identically() {
        let freq = CpuFreq::PENTIUM_100;
        let drive = |session: &mut MeasurementSession| {
            for i in 0..3u64 {
                let at = SimTime::ZERO + freq.ms(200 + i * 150);
                session
                    .machine()
                    .schedule_input_at(at, InputKind::Key(KeySym::Char('k')));
            }
        };
        let fingerprint = |m: &Measurement| {
            let lats: Vec<u64> = m.events.iter().map(|e| e.busy.cycles()).collect();
            (m.trace.len(), lats, m.elapsed.cycles())
        };

        let mut straight = MeasurementSession::new(OsProfile::Nt351);
        straight.launch_app(
            ProcessSpec::app("mini"),
            Box::new(MiniApp { waiting: false }),
        );
        drive(&mut straight);
        straight.run_for(freq.ms(900));
        let want = fingerprint(&straight.finish(BoundaryPolicy::SplitAtRetrieval));

        let mut session = MeasurementSession::new(OsProfile::Nt351);
        session.launch_app(
            ProcessSpec::app("mini"),
            Box::new(MiniApp { waiting: false }),
        );
        drive(&mut session);
        session.run_for(freq.ms(120));
        let snap = session.snapshot();
        // The calibration's own reads are folded in at time zero.
        assert!(!snap.param_unread(latlab_os::SweptParam::CacheBlocks));
        let mut restored = MeasurementSession::restore(&snap);
        restored.run_for(freq.ms(900) - (snap.now().since(SimTime::ZERO)));
        let got = fingerprint(&restored.finish(BoundaryPolicy::SplitAtRetrieval));
        assert_eq!(got, want);
    }

    #[test]
    fn end_to_end_keystroke_measurement() {
        let mut session = MeasurementSession::new(OsProfile::Nt40);
        session.launch_app(
            ProcessSpec::app("mini"),
            Box::new(MiniApp { waiting: false }),
        );
        let freq = CpuFreq::PENTIUM_100;
        for i in 0..5u64 {
            let at = SimTime::ZERO + freq.ms(100 + i * 200);
            session
                .machine()
                .schedule_input_at(at, InputKind::Key(KeySym::Char('a')));
        }
        session.run_for(freq.ms(1_500));
        let (m, machine) = session.finish_with_machine(BoundaryPolicy::SplitAtRetrieval);
        assert_eq!(m.events.len(), 5, "five keystrokes, five events");
        // Measured busy latency should be close to ground truth for each.
        for e in &m.events {
            let gt = machine
                .ground_truth()
                .event(e.input_id.expect("input event"))
                .unwrap();
            let truth = freq.to_ms(gt.true_latency().unwrap());
            let measured = e.latency_ms(freq);
            let err = (measured - truth).abs();
            assert!(
                err < 1.5,
                "measured {measured:.2} ms vs truth {truth:.2} ms (err {err:.2})"
            );
        }
    }
}
