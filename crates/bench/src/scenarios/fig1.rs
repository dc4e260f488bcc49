//! Figure 1 — validation of the idle-loop methodology.
//!
//! The §2.3 experiment: an echo program processes one keystroke; the
//! idle-loop reading (the elongated sample) is compared against the
//! conventional in-application timestamp pair. Paper numbers: the elongated
//! sample showed **9.76 ms** of work where the traditional measurement
//! reported only **7.42 ms** — a **2.34 ms** gap of interrupt handling and
//! rescheduling the application never sees.

use latlab_apps::{EchoApp, EchoConfig};
use latlab_core::{BoundaryPolicy, TimestampPairs};
use latlab_des::SimTime;
use latlab_input::{workloads, TestDriver};
use latlab_os::{OsProfile, ProcessSpec};

use crate::report::ExperimentReport;
use crate::runner::{RunConfig, FREQ};

/// Result data for Figure 1.
#[derive(Clone, Copy, Debug)]
pub struct Fig1Data {
    /// Idle-loop-measured latency, ms (the elongated sample's excess).
    pub idle_loop_ms: f64,
    /// Traditional timestamp-pair latency, ms.
    pub traditional_ms: f64,
    /// Ground-truth latency, ms.
    pub truth_ms: f64,
}

/// Runs the validation experiment on NT 4.0.
pub fn run(cfg: &RunConfig) -> (ExperimentReport, Fig1Data) {
    let mut report = ExperimentReport::new("fig1", "Validation of idle-loop methodology (§2.3)");
    let mut session = cfg.session(OsProfile::Nt40);
    let app = session.launch_app(
        ProcessSpec::app("echo").with_console(),
        Box::new(EchoApp::new(EchoConfig::default())),
    );
    // A single keystroke, cleanly delivered.
    let script = workloads::unbound_keystrokes(1);
    TestDriver::clean().schedule(session.machine(), SimTime::ZERO + FREQ.ms(200), &script);
    session.run_until_quiescent(SimTime::ZERO + FREQ.secs(2));
    let emitted = session.machine().take_emitted(app);
    let (m, machine) = session.finish_with_machine(BoundaryPolicy::SplitAtRetrieval);

    let traditional = TimestampPairs::from_emitted(&emitted);
    let traditional_ms = traditional.mean_ms(FREQ);
    let idle_loop_ms = m
        .events
        .first()
        .map(|e| e.latency_ms(FREQ))
        .unwrap_or_default();
    let truth_ms = machine
        .ground_truth()
        .events()
        .first()
        .and_then(|e| e.true_latency())
        .map(|d| FREQ.to_ms(d))
        .unwrap_or_default();
    let gap = idle_loop_ms - traditional_ms;

    report.line(format!(
        "  idle-loop measured latency:   {idle_loop_ms:6.2} ms   (paper: 9.76 ms)"
    ));
    report.line(format!(
        "  traditional (getchar) pair:   {traditional_ms:6.2} ms   (paper: 7.42 ms)"
    ));
    report.line(format!(
        "  discrepancy:                  {gap:6.2} ms   (paper: 2.34 ms)"
    ));
    report.line(format!("  simulator ground truth:       {truth_ms:6.2} ms"));

    report.check(
        "idle loop exceeds traditional",
        "idle-loop reading is larger: it captures interrupt + reschedule work",
        format!("{idle_loop_ms:.2} ms vs {traditional_ms:.2} ms"),
        idle_loop_ms > traditional_ms + 1.0,
    );
    report.check(
        "gap magnitude",
        "≈2.34 ms of pre-application work",
        format!("{gap:.2} ms"),
        (1.5..=3.5).contains(&gap),
    );
    report.check(
        "idle loop tracks ground truth",
        "the elongated sample measures the complete event",
        format!("idle loop {idle_loop_ms:.2} ms vs truth {truth_ms:.2} ms"),
        (idle_loop_ms - truth_ms).abs() < 1.0,
    );
    report.check(
        "absolute scale",
        "≈9.76 ms total handling on the test system",
        format!("{idle_loop_ms:.2} ms"),
        (7.0..=13.0).contains(&idle_loop_ms),
    );

    report.csv(
        "fig1.csv",
        latlab_analysis::export::to_csv(
            &["idle_loop_ms", "traditional_ms", "truth_ms"],
            &[vec![idle_loop_ms, traditional_ms, truth_ms]],
        ),
    );
    (
        report,
        Fig1Data {
            idle_loop_ms,
            traditional_ms,
            truth_ms,
        },
    )
}
