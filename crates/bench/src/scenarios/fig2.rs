//! Figure 2 — the think-time / wait-time state machine.
//!
//! Runs the *fully measured* classification pipeline the paper proposed as
//! future work: CPU state from the idle-loop trace, message-queue and
//! I/O-queue state from the kernel transition log (§6's "additional system
//! support", provided by the simulated OS). The PowerPoint launch + open is
//! classified in the paper-implementable *partial* mode and the *full* mode;
//! the disk-bound open is where they disagree, because CPU-idle-during-
//! synchronous-I/O is wait time only the full FSM can see (§2.3).

use latlab_apps::{PowerPoint, PowerPointConfig};
use latlab_core::{classify_measured, total_wait, BoundaryPolicy, FsmMode};
use latlab_des::SimTime;
use latlab_os::{InputKind, KeySym, OsProfile, ProcessSpec};

use crate::report::ExperimentReport;
use crate::runner::{RunConfig, FREQ};

/// Runs the FSM comparison on measured observables only.
pub fn run(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig2",
        "Think/wait state machine on measured observables (§2.3, Figure 2)",
    );
    let mut session = cfg.session(OsProfile::Nt40);
    latlab_apps::powerpoint::register_files(session.machine());
    let tid = session.launch_app(
        ProcessSpec::app("powerpoint"),
        Box::new(PowerPoint::new(PowerPointConfig::default())),
    );
    session.machine().schedule_input_at(
        SimTime::ZERO + FREQ.ms(100),
        InputKind::Key(KeySym::Char('\n')),
    );
    session.machine().schedule_input_at(
        SimTime::ZERO + FREQ.secs(15),
        InputKind::Key(latlab_apps::powerpoint::OPEN_KEY),
    );
    let horizon = SimTime::ZERO + FREQ.secs(30);
    session.run_until_quiescent(horizon);
    let (m, machine) = session.finish_with_machine(BoundaryPolicy::MergeUntilEmpty);

    let partial = classify_measured(
        &m.trace,
        machine.state_log(),
        tid,
        SimTime::ZERO,
        horizon,
        FsmMode::Partial,
    );
    let full = classify_measured(
        &m.trace,
        machine.state_log(),
        tid,
        SimTime::ZERO,
        horizon,
        FsmMode::Full,
    );
    let wait_partial = FREQ.to_secs(total_wait(&partial));
    let wait_full = FREQ.to_secs(total_wait(&full));
    let io_invisible = wait_full - wait_partial;

    report.line(format!(
        "  observables: {} idle-loop records, {} kernel state transitions",
        m.trace.len(),
        machine.state_log().len()
    ));
    report.line(format!(
        "  wait time, partial FSM (CPU + queue):        {wait_partial:6.2} s"
    ));
    report.line(format!(
        "  wait time, full FSM (+ sync-I/O status):     {wait_full:6.2} s"
    ));
    report.line(format!(
        "  wait time invisible without I/O support:     {io_invisible:6.2} s"
    ));
    report.line(format!(
        "  intervals: partial {} / full {}",
        partial.len(),
        full.len()
    ));

    report.check(
        "sync I/O hides wait time from the partial FSM",
        "synchronous I/O contributes to wait time even though the CPU is idle (§2.3)",
        format!("full-only wait {io_invisible:.2} s"),
        io_invisible > 1.0,
    );
    report.check(
        "full wait dominates partial wait",
        "full observability can only add wait time",
        format!("{wait_full:.2} s ≥ {wait_partial:.2} s"),
        wait_full >= wait_partial,
    );
    report.check(
        "think time exists",
        "idle gaps between user actions classify as thinking",
        format!("wait {wait_full:.2} s of 30 s total"),
        wait_full < 29.0,
    );
    // Cross-validate the measured classification against ground truth: the
    // full-mode wait should approximate true busy + true sync-I/O stall.
    let truth_busy = FREQ.to_secs(machine.ground_truth().busy_within(SimTime::ZERO, horizon));
    report.check(
        "measured wait is grounded",
        "full-mode wait ≈ true busy time + sync-I/O stalls",
        format!("measured {wait_full:.2} s vs true busy {truth_busy:.2} s (+ disk stalls)"),
        wait_full >= truth_busy * 0.9 && wait_full < truth_busy + 15.0,
    );

    let rows: Vec<Vec<f64>> = full
        .iter()
        .map(|i| {
            vec![
                FREQ.time_to_secs(i.start),
                FREQ.time_to_secs(i.end),
                matches!(i.state, latlab_core::UserState::Waiting) as u8 as f64,
            ]
        })
        .collect();
    report.csv(
        "fig2_full_intervals.csv",
        latlab_analysis::export::to_csv(&["start_s", "end_s", "waiting"], &rows),
    );
    report
}
