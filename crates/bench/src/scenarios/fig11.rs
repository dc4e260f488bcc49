//! Figure 11 — the Microsoft Word task benchmark.
//!
//! §5.4: ~1000 characters with arrow keys and corrections, realistic varied
//! pacing, justification and interactive spell checking enabled,
//! Test-driven on the two NT systems. Windows 95 is excluded — *"the system
//! does not become idle immediately after Word finishes handling an event,
//! making all event latencies appear to be several seconds long"* — and we
//! verify that exclusion reason holds. NT 4.0 shows uniformly shorter
//! response time and lower variance than NT 3.51, with most latencies below
//! the 0.1 s perception threshold.

use latlab_core::BoundaryPolicy;
use latlab_input::{workloads, TestDriver};
use latlab_os::OsProfile;

use crate::report::ExperimentReport;
use crate::runner::{latencies_ms, run_session, App, RunConfig};

/// Per-OS Word results.
#[derive(Clone, Debug)]
pub struct WordRow {
    /// The OS.
    pub profile: OsProfile,
    /// Summary of event latencies (ms).
    pub summary: latlab_analysis::LatencySummary,
    /// All latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Sliding-window median drift over the run, ms (stability).
    pub median_drift_ms: f64,
}

/// Runs the Word task on one OS.
pub fn run_one(cfg: &RunConfig, profile: OsProfile) -> WordRow {
    let out = run_session(
        cfg,
        profile,
        App::Word,
        TestDriver::ms_test(),
        &workloads::word_session(),
        BoundaryPolicy::MergeUntilEmpty,
        5,
    );
    let lats = latencies_ms(&out.measurement, false);
    let series =
        latlab_analysis::EventSeries::from_events(&out.measurement.events, crate::runner::FREQ);
    let jitter = latlab_analysis::JitterSeries::from_series(&series, 20.0, 10.0);
    WordRow {
        profile,
        summary: latlab_analysis::LatencySummary::from_latencies(&lats),
        latencies_ms: lats,
        median_drift_ms: jitter.median_drift_ms(),
    }
}

/// Runs Figure 11.
pub fn run(cfg: &RunConfig) -> (ExperimentReport, Vec<WordRow>) {
    let mut report = ExperimentReport::new("fig11", "Microsoft Word event latency summary (§5.4)");
    let rows: Vec<WordRow> = [OsProfile::Nt351, OsProfile::Nt40]
        .into_iter()
        .map(|p| run_one(cfg, p))
        .collect();
    for r in &rows {
        report.line(format!(
            "  {:<16} events {:4}  mean {:6.1} ms  σ {:5.1}  median {:6.1}  p90 {:6.1}  max {:6.1}",
            r.profile.name(),
            r.summary.count,
            r.summary.mean_ms,
            r.summary.stddev_ms,
            r.summary.median_ms,
            r.summary.p90_ms,
            r.summary.max_ms
        ));
        let hist = latlab_analysis::LatencyHistogram::from_latencies(&r.latencies_ms);
        for line in latlab_analysis::ascii::histogram_log(&hist, 40).lines() {
            report.line(format!("      {line}"));
        }
    }
    let nt351 = &rows[0];
    let nt40 = &rows[1];

    report.check(
        "Word keystrokes far heavier than Notepad",
        "Word requires substantially more processing per keystroke (formatting, fonts, spell check)",
        format!("median {:.0} ms vs Notepad's <10 ms class", nt351.summary.median_ms),
        nt351.summary.median_ms > 25.0,
    );
    report.check(
        "NT 4.0 shows shorter response time",
        "for the majority of events NT 4.0 exhibits shorter response time",
        format!(
            "median {:.1} ms vs {:.1} ms; mean {:.1} vs {:.1}",
            nt40.summary.median_ms,
            nt351.summary.median_ms,
            nt40.summary.mean_ms,
            nt351.summary.mean_ms
        ),
        nt40.summary.median_ms < nt351.summary.median_ms
            && nt40.summary.mean_ms < nt351.summary.mean_ms,
    );
    report.check(
        "NT 4.0 shows lower variance",
        "NT 4.0 exhibits lower variance than NT 3.51",
        format!(
            "σ {:.1} ms vs {:.1} ms; sliding-median drift {:.1} vs {:.1} ms",
            nt40.summary.stddev_ms,
            nt351.summary.stddev_ms,
            nt40.median_drift_ms,
            nt351.median_drift_ms
        ),
        nt40.summary.stddev_ms < nt351.summary.stddev_ms
            && nt40.median_drift_ms <= nt351.median_drift_ms + 2.0,
    );
    let below_nt351 = nt351.latencies_ms.iter().filter(|&&l| l < 100.0).count() as f64
        / nt351.summary.count.max(1) as f64;
    let below_nt40 = nt40.latencies_ms.iter().filter(|&&l| l < 100.0).count() as f64
        / nt40.summary.count.max(1) as f64;
    report.check(
        "most latencies below perception threshold",
        "both systems have most latencies below the threshold of user perception (0.1 s)",
        format!(
            "nt351 {:.0}% / nt40 {:.0}% below 100 ms",
            below_nt351 * 100.0,
            below_nt40 * 100.0
        ),
        below_nt351 > 0.5 && below_nt40 > 0.75,
    );
    report.check(
        "Test-driven events land in the 80–100 ms class",
        "the Test results showed that most events had latency between 80 and 100 ms (NT 3.51)",
        format!("nt351 median {:.1} ms", nt351.summary.median_ms),
        (70.0..=110.0).contains(&nt351.summary.median_ms),
    );

    // Win95 exclusion justification.
    let win95 = run_one(cfg, OsProfile::Win95);
    report.line(format!(
        "  Windows 95 (excluded): median event latency {:.0} ms — all events appear seconds long",
        win95.summary.median_ms
    ));
    report.check(
        "Windows 95 exclusion reason holds",
        "Win95 does not go idle after Word handles an event; latencies appear to be several seconds",
        format!("median {:.1} s", win95.summary.median_ms / 1_000.0),
        win95.summary.median_ms > 1_000.0,
    );

    let csv: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            vec![
                r.summary.mean_ms,
                r.summary.stddev_ms,
                r.summary.median_ms,
                r.summary.p90_ms,
                r.summary.max_ms,
            ]
        })
        .collect();
    report.csv(
        "fig11.csv",
        latlab_analysis::export::to_csv(
            &["mean_ms", "stddev_ms", "median_ms", "p90_ms", "max_ms"],
            &csv,
        ),
    );
    (report, rows)
}
