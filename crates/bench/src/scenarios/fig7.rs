//! Figure 7 — the Notepad task benchmark.
//!
//! §5.1: a 56 KB editing session (1300 characters at ~100 wpm plus cursor
//! and page movement), same binary on all three systems, Test-driven.
//! Key findings reproduced:
//!
//! * over 80% of total latency comes from sub-10 ms keystroke events;
//! * the remaining latency comes from ≥28 ms screen-refresh keystrokes;
//! * the latency curves are smooth (little within-class variance);
//! * the elapsed-time anomaly: `WM_QUEUESYNC` handling is excluded from
//!   event latencies but contributes to elapsed time, and costs most on
//!   Windows 95 — which has the smallest cumulative event latency yet the
//!   largest elapsed time.

use latlab_core::BoundaryPolicy;
use latlab_input::{workloads, TestDriver};
use latlab_os::OsProfile;

use crate::report::ExperimentReport;
use crate::runner::{latencies_ms, run_session, App, RunConfig, FREQ};

/// Per-OS Notepad results.
#[derive(Clone, Debug)]
pub struct NotepadRow {
    /// The OS.
    pub profile: OsProfile,
    /// Cumulative event latency (Test overhead removed), seconds.
    pub cumulative_latency_s: f64,
    /// Total elapsed benchmark time, seconds.
    pub elapsed_s: f64,
    /// Fraction of latency from <10 ms events.
    pub fraction_below_10ms: f64,
    /// Cumulative QueueSync (Test overhead) latency, seconds.
    pub queuesync_s: f64,
}

/// Runs the Notepad benchmark on all three systems.
pub fn run(cfg: &RunConfig) -> (ExperimentReport, Vec<NotepadRow>) {
    let mut report = ExperimentReport::new("fig7", "Notepad event latency summary (§5.1)");
    let script = workloads::notepad_session();
    let mut rows = Vec::new();
    for profile in OsProfile::ALL {
        let out = run_session(
            cfg,
            profile,
            App::Notepad,
            TestDriver::ms_test(),
            &script,
            BoundaryPolicy::SplitAtRetrieval,
            2,
        );
        let clean = latencies_ms(&out.measurement, true);
        let overhead_ms: f64 = out
            .measurement
            .events
            .iter()
            .filter(|e| e.is_test_overhead())
            .map(|e| e.latency_ms(FREQ))
            .sum();
        let cum = latlab_analysis::CumulativeLatency::new(&clean);
        let hist = latlab_analysis::LatencyHistogram::from_latencies(&clean);
        let row = NotepadRow {
            profile,
            cumulative_latency_s: cum.total_ms() / 1_000.0,
            elapsed_s: FREQ.to_secs(out.measurement.elapsed),
            fraction_below_10ms: cum.fraction_below(10.0),
            queuesync_s: overhead_ms / 1_000.0,
        };
        report.line(format!(
            "  {:<16} events {:4}  cum latency {:6.2} s  elapsed [{:6.1} s]  <10ms: {:4.1}%  Test overhead {:5.2} s",
            profile.name(),
            clean.len(),
            row.cumulative_latency_s,
            row.elapsed_s,
            row.fraction_below_10ms * 100.0,
            row.queuesync_s
        ));
        report.line("    latency histogram (log count):");
        for line in latlab_analysis::ascii::histogram_log(&hist, 40).lines() {
            report.line(format!("      {line}"));
        }
        rows.push(row);
    }

    let nt351 = &rows[0];
    let nt40 = &rows[1];
    let win95 = &rows[2];
    report.check(
        "short events dominate cumulative latency",
        "over 80% of the latency of Notepad is due to <10 ms events (all systems)",
        format!(
            "nt351 {:.0}% / nt40 {:.0}% / win95 {:.0}%",
            nt351.fraction_below_10ms * 100.0,
            nt40.fraction_below_10ms * 100.0,
            win95.fraction_below_10ms * 100.0
        ),
        rows.iter().all(|r| r.fraction_below_10ms > 0.8),
    );
    report.check(
        "Win95 cumulative latency smallest",
        "Windows 95 has the smallest cumulative latency",
        format!(
            "win95 {:.2} s vs nt40 {:.2} s vs nt351 {:.2} s",
            win95.cumulative_latency_s, nt40.cumulative_latency_s, nt351.cumulative_latency_s
        ),
        win95.cumulative_latency_s < nt40.cumulative_latency_s
            && win95.cumulative_latency_s < nt351.cumulative_latency_s,
    );
    report.check(
        "Win95 Test overhead largest (elapsed-time anomaly)",
        "the time to process WM_QUEUESYNC is longer under Windows 95 than under the NT systems",
        format!(
            "win95 {:.2} s vs nt40 {:.2} s / nt351 {:.2} s",
            win95.queuesync_s, nt40.queuesync_s, nt351.queuesync_s
        ),
        win95.queuesync_s > nt40.queuesync_s && win95.queuesync_s > nt351.queuesync_s,
    );
    report.check(
        "NT 4.0 faster than NT 3.51",
        "NT 4.0's cumulative latency is below NT 3.51's",
        format!(
            "{:.2} s vs {:.2} s",
            nt40.cumulative_latency_s, nt351.cumulative_latency_s
        ),
        nt40.cumulative_latency_s < nt351.cumulative_latency_s,
    );

    let csv: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cumulative_latency_s,
                r.elapsed_s,
                r.fraction_below_10ms,
                r.queuesync_s,
            ]
        })
        .collect();
    report.csv(
        "fig7.csv",
        latlab_analysis::export::to_csv(
            &[
                "cumulative_s",
                "elapsed_s",
                "fraction_below_10ms",
                "queuesync_s",
            ],
            &csv,
        ),
    );
    (report, rows)
}
