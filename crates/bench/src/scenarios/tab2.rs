//! Table 2 — interarrival-time distribution of long-latency Word events.
//!
//! §6: thresholds around 100 ms on the NT 3.51 Word profile. Paper values:
//!
//! | threshold | count | mean interarrival | stddev |
//! |-----------|-------|-------------------|--------|
//! | 100 ms    | 101   | 3.1 s             | 3.1 s  |
//! | 110 ms    | 26    | 12.4 s            | 10.6 s |
//! | 120 ms    | 8     | 41.1 s            | 48.8 s |
//!
//! The headline properties: *"an increase of 10% in the threshold (from
//! 100 ms to 110 ms) reduces the number of above threshold events by a
//! factor of 4"*, and the standard deviations are of the same order as the
//! means (no strong periodicity).

use latlab_core::BoundaryPolicy;
use latlab_input::{workloads, TestDriver};
use latlab_os::OsProfile;

use crate::report::ExperimentReport;
use crate::runner::{event_points, run_session, App, RunConfig};

/// The paper's thresholds (ms).
pub const THRESHOLDS_MS: [f64; 3] = [100.0, 110.0, 120.0];

/// Runs Table 2.
pub fn run(cfg: &RunConfig) -> (ExperimentReport, Vec<latlab_analysis::InterarrivalRow>) {
    let mut report = ExperimentReport::new(
        "tab2",
        "Interarrival distributions of long Word events, NT 3.51 (§6, Table 2)",
    );
    let out = run_session(
        cfg,
        OsProfile::Nt351,
        App::Word,
        TestDriver::ms_test(),
        &workloads::word_session(),
        BoundaryPolicy::MergeUntilEmpty,
        5,
    );
    let points = event_points(&out.measurement, false);
    let table = latlab_analysis::interarrival_table(&points, &THRESHOLDS_MS);

    report.line(format!(
        "  {:>10} {:>8} {:>14} {:>12}   (paper: count / mean / stddev)",
        "threshold", "count", "mean gap (s)", "stddev (s)"
    ));
    let paper = [(101, 3.1, 3.1), (26, 12.4, 10.6), (8, 41.1, 48.8)];
    for (row, p) in table.iter().zip(paper.iter()) {
        report.line(format!(
            "  {:>7} ms {:>8} {:>14.1} {:>12.1}   ({} / {} / {})",
            row.threshold_ms, row.count, row.mean_secs, row.stddev_secs, p.0, p.1, p.2
        ));
    }

    let drop_ratio_1 = table[0].count as f64 / table[1].count.max(1) as f64;
    let drop_ratio_2 = table[1].count as f64 / table[2].count.max(1) as f64;
    report.check(
        "10% threshold increase cuts counts sharply",
        "100→110 ms reduces the above-threshold count by a factor of ~4",
        format!("factor {drop_ratio_1:.1} (then {drop_ratio_2:.1} for 110→120)"),
        drop_ratio_1 >= 2.0 && table[0].count > table[2].count * 4,
    );
    report.check(
        "no strong periodicity",
        "standard deviations are of the same order of magnitude as the means",
        format!(
            "σ/mean: {:.2}, {:.2}",
            table[0].stddev_secs / table[0].mean_secs.max(1e-9),
            table[1].stddev_secs / table[1].mean_secs.max(1e-9)
        ),
        table[..2].iter().all(|r| r.no_strong_periodicity()),
    );
    report.check(
        "counts in the paper's regime",
        "roughly 101 / 26 / 8 events at the three thresholds (~1100-event run)",
        format!(
            "{} / {} / {}",
            table[0].count, table[1].count, table[2].count
        ),
        (30..=300).contains(&table[0].count)
            && table[1].count < table[0].count
            && table[2].count < table[1].count
            && table[2].count >= 1,
    );

    let csv: Vec<Vec<f64>> = table
        .iter()
        .map(|r| vec![r.threshold_ms, r.count as f64, r.mean_secs, r.stddev_secs])
        .collect();
    report.csv(
        "table2.csv",
        latlab_analysis::export::to_csv(&["threshold_ms", "count", "mean_s", "stddev_s"], &csv),
    );
    (report, table)
}
