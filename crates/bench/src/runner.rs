//! Shared experiment plumbing: the run configuration and standard session
//! runs of each workload.

use latlab_apps::{
    Desktop, DesktopConfig, Notepad, NotepadConfig, PowerPoint, PowerPointConfig, Word, WordConfig,
};
use latlab_core::{BoundaryPolicy, Measurement, MeasurementSession};
use latlab_des::{CpuFreq, SimDuration, SimTime};
use latlab_faults::FaultPlan;
use latlab_input::{InputScript, TestDriver};
use latlab_os::{Machine, OsParams, OsProfile, ProcessSpec};

use crate::record::{script_fingerprint, Recorder};

/// The common 100 MHz time base.
pub const FREQ: CpuFreq = CpuFreq::PENTIUM_100;

/// How a scenario's machines run: passed by argument from the engine
/// through every scenario to each machine it boots, so a run is fully set
/// by its inputs and nothing leaks between scenarios sharing a worker.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Whether machines batch idle-loop spans (the kernel's idle
    /// fast-forward). Every observable is byte-identical either way;
    /// `false` keeps the step path alive as the oracle
    /// (`repro --no-fastforward`). Reaches every machine, calibration
    /// scratch machines included.
    pub fastforward: bool,
    /// Fault plan installed into every [`run_session`] machine; `None`
    /// runs fault-free. Plans carry their own seed, so injected faults are
    /// independent of worker scheduling.
    pub faults: Option<FaultPlan>,
    /// Streams every [`run_session`]'s stamps and API log to disk
    /// (`repro --record`); `None` records nothing.
    pub recorder: Option<Recorder>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            fastforward: true,
            faults: None,
            recorder: None,
        }
    }
}

impl RunConfig {
    /// Boots a machine on `params` with this config's fast-forward setting.
    pub fn machine(&self, params: OsParams) -> Machine {
        let mut machine = Machine::new(params);
        machine.set_fast_forward(self.fastforward);
        machine
    }

    /// Boots a measurement session on `profile` with this config's
    /// fast-forward setting.
    pub fn session(&self, profile: OsProfile) -> MeasurementSession {
        MeasurementSession::with_params(profile.params(), self.fastforward)
    }

    /// Calibrates the idle loop's N (§2.3) with this config's fast-forward
    /// setting.
    pub fn calibrate_n(&self, params: &OsParams, target: SimDuration) -> u64 {
        latlab_core::calibrate_n(params, target, self.fastforward)
    }
}

/// Which application a standard run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// The desktop shell.
    Desktop,
    /// Notepad.
    Notepad,
    /// Word.
    Word,
    /// PowerPoint (files registered automatically).
    PowerPoint,
}

impl App {
    fn spawn(self, session: &mut MeasurementSession) {
        match self {
            App::Desktop => {
                session.launch_app(
                    ProcessSpec::app("desktop"),
                    Box::new(Desktop::new(DesktopConfig::default())),
                );
            }
            App::Notepad => {
                session.launch_app(
                    ProcessSpec::app("notepad"),
                    Box::new(Notepad::new(NotepadConfig::default())),
                );
            }
            App::Word => {
                session.launch_app(
                    ProcessSpec::app("word").with_heavy_async(),
                    Box::new(Word::new(WordConfig::default())),
                );
            }
            App::PowerPoint => {
                latlab_apps::powerpoint::register_files(session.machine());
                session.launch_app(
                    ProcessSpec::app("powerpoint"),
                    Box::new(PowerPoint::new(PowerPointConfig::default())),
                );
            }
        }
    }
}

/// Result of a standard run: the measurement plus the machine for
/// ground-truth validation and counter reads.
pub struct RunOutput {
    /// The extracted measurement.
    pub measurement: Measurement,
    /// The machine after the run.
    pub machine: Machine,
    /// Input ids in delivery order.
    pub input_ids: Vec<u64>,
}

/// Runs `script` against `app` on `profile` with the given driver and
/// extraction policy, allowing `settle_secs` of quiet time at the end.
pub fn run_session(
    cfg: &RunConfig,
    profile: OsProfile,
    app: App,
    driver: TestDriver,
    script: &InputScript,
    policy: BoundaryPolicy,
    settle_secs: u64,
) -> RunOutput {
    let mut session = cfg.session(profile);
    app.spawn(&mut session);
    // Arm the fault plan before any input is scheduled.
    if let Some(plan) = &cfg.faults {
        session.machine().install_faults(plan);
    }
    // The trace header's seed. Computed even without a recorder: skipping
    // this one transient allocation (the script's JSON) raised the peak
    // RSS of repeated 17-scenario passes from 23 to 29.6 MB under glibc
    // malloc.
    let seed = script_fingerprint(&script.to_json());
    // Stream this run's stamps and API log to disk while it executes
    // (bounded memory; see crate::record).
    if let Some(recorder) = &cfg.recorder {
        let label = format!("{profile:?}-{app:?}").to_lowercase();
        let (stamps, api) = recorder.open_run_sinks(&label, session.baseline(), FREQ, seed);
        session.machine().set_stamp_sink(stamps);
        session.machine().set_api_sink(api);
    }
    let start = SimTime::ZERO + FREQ.ms(100);
    let input_ids = driver.schedule(session.machine(), start, script);
    let horizon = start + script.duration() + FREQ.secs(settle_secs);
    session.run_until_quiescent(horizon + FREQ.secs(settle_secs));
    let (measurement, mut machine) = session.finish_with_machine(policy);
    if let Some(mut sink) = machine.take_stamp_sink() {
        sink.finish().expect("failed to finalize stamp trace");
    }
    if let Some(mut sink) = machine.take_api_sink() {
        sink.finish().expect("failed to finalize apilog trace");
    }
    RunOutput {
        measurement,
        machine,
        input_ids,
    }
}

/// Latencies (ms) of the measured events, optionally with test overhead
/// removed.
pub fn latencies_ms(m: &Measurement, drop_queuesync: bool) -> Vec<f64> {
    m.events
        .iter()
        .filter(|e| !(drop_queuesync && e.is_test_overhead()))
        .map(|e| e.latency_ms(FREQ))
        .collect()
}

/// `(start_secs, latency_ms)` pairs for interarrival/time-series analysis.
pub fn event_points(m: &Measurement, drop_queuesync: bool) -> Vec<(f64, f64)> {
    m.events
        .iter()
        .filter(|e| !(drop_queuesync && e.is_test_overhead()))
        .map(|e| (FREQ.time_to_secs(e.window_start), e.latency_ms(FREQ)))
        .collect()
}

/// Warms PowerPoint on a freshly booted `machine` through startup +
/// document open, positioned at `page` (for the Figure 9/10 counter
/// microbenchmarks and the sweep engine). Returns the machine ready for
/// the operation of interest.
pub fn warm_powerpoint(mut machine: Machine, page: u32) -> Machine {
    latlab_apps::powerpoint::register_files(&mut machine);
    let tid = machine.spawn(
        ProcessSpec::app("powerpoint"),
        Box::new(PowerPoint::new(PowerPointConfig::default())),
    );
    machine.set_focus(tid);
    let mut t = SimTime::ZERO + FREQ.ms(100);
    machine.schedule_input_at(t, latlab_os::InputKind::Key(latlab_os::KeySym::Char('\n')));
    t += FREQ.secs(15);
    machine.schedule_input_at(
        t,
        latlab_os::InputKind::Key(latlab_apps::powerpoint::OPEN_KEY),
    );
    t += FREQ.secs(12);
    for _ in 1..page {
        machine.schedule_input_at(t, latlab_os::InputKind::Key(latlab_os::KeySym::PageDown));
        t += FREQ.ms(700);
    }
    let done = machine.run_until_quiescent(t + FREQ.secs(60));
    assert!(done, "PowerPoint warm-up did not quiesce");
    machine
}

/// Delivers one key to a warm machine and runs to quiescence; the standard
/// "operate" step for counter sweeps.
pub fn deliver_key_and_settle(machine: &mut Machine, key: latlab_os::KeySym) {
    let at = machine.now() + FREQ.ms(50);
    machine.schedule_input_at(at, latlab_os::InputKind::Key(key));
    let done = machine.run_until_quiescent(at + FREQ.secs(60));
    assert!(done, "operation did not quiesce");
}

#[cfg(test)]
mod tests {
    use super::*;
    use latlab_input::workloads;

    #[test]
    fn desktop_micro_run() {
        let out = run_session(
            &RunConfig::default(),
            OsProfile::Nt40,
            App::Desktop,
            TestDriver::clean(),
            &workloads::unbound_keystrokes(5),
            BoundaryPolicy::SplitAtRetrieval,
            1,
        );
        assert_eq!(out.input_ids.len(), 5);
        assert_eq!(out.measurement.events.len(), 5);
        let lats = latencies_ms(&out.measurement, true);
        assert!(lats.iter().all(|&l| l > 0.0 && l < 10.0), "{lats:?}");
    }

    #[test]
    fn warm_powerpoint_reaches_page() {
        let m = warm_powerpoint(Machine::new(OsProfile::Nt40.params()), 4);
        assert!(m.is_quiescent());
        // Cache should be well populated from startup + open.
        let (hits, misses) = m.cache_stats();
        assert!(misses > 100, "cold loads happened ({misses} misses)");
        let _ = hits;
    }
}
