//! Figure 5 — raw event-latency representation (Word on NT 3.51).
//!
//! §3.2: the full profile of a 1000-event Microsoft Word trace, plus a
//! two-second magnification showing the periodicity of long and short
//! events. *"the majority of the events fall below the 0.1 second threshold
//! of user perception but … a significant number fall well above."*

use latlab_core::BoundaryPolicy;
use latlab_input::{workloads, TestDriver};
use latlab_os::OsProfile;

use crate::report::ExperimentReport;
use crate::runner::{event_points, run_session, App, RunConfig, FREQ};

/// Runs the raw-profile experiment.
pub fn run(cfg: &RunConfig) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("fig5", "Raw event-latency profile: Word on NT 3.51 (§3.2)");
    let out = run_session(
        cfg,
        OsProfile::Nt351,
        App::Word,
        TestDriver::ms_test(),
        &workloads::word_session(),
        BoundaryPolicy::MergeUntilEmpty,
        3,
    );
    let points = event_points(&out.measurement, false);
    let series = latlab_analysis::EventSeries::from_events(&out.measurement.events, FREQ);

    report.line(format!(
        "  full profile: {} events over {:.0} s",
        series.len(),
        FREQ.to_secs(out.measurement.elapsed)
    ));
    report.line(latlab_analysis::ascii::event_profile(&series, 100, 8));
    // Magnification: a two-second interval mid-run (Figure 5b).
    let mid = FREQ.to_secs(out.measurement.elapsed) / 2.0;
    let zoom = series.window(mid, mid + 2.0);
    report.line(format!("  magnified [{mid:.0} s, {:.0} s):", mid + 2.0));
    report.line(latlab_analysis::ascii::event_profile(&zoom, 80, 6));

    let imperceptible = series.fraction_imperceptible();
    let above = points.iter().filter(|(_, l)| *l >= 100.0).count();
    report.line(format!(
        "  events below the 0.1 s perception threshold: {:.1}%  (above: {above})",
        imperceptible * 100.0
    ));

    report.check(
        "~1000-event trace",
        "a 1000 event trace of Microsoft Word",
        format!("{} events", series.len()),
        (800..=1400).contains(&series.len()),
    );
    report.check(
        "majority below 0.1 s",
        "the majority of the events fall below the 0.1 second threshold",
        format!("{:.1}% below 100 ms", imperceptible * 100.0),
        imperceptible > 0.5,
    );
    report.check(
        "a significant number above the threshold",
        "a significant number fall well above the threshold",
        format!("{above} events ≥100 ms"),
        above >= 20,
    );
    report.check(
        "magnified window shows events",
        "the magnification resolves the periodic short/long pattern",
        format!("{} events in 2 s", zoom.len()),
        zoom.len() >= 4,
    );

    let rows: Vec<Vec<f64>> = points.iter().map(|&(t, l)| vec![t, l]).collect();
    report.csv(
        "fig5_events.csv",
        latlab_analysis::export::to_csv(&["t_s", "latency_ms"], &rows),
    );
    report
}
