//! §5.4 — Test-driven versus hand-generated Word input.
//!
//! The paper's most subtle finding: Microsoft Test *changes* Word's
//! measured behaviour. Under Test, most keystroke events measure 80–100 ms
//! with nothing beyond 140 ms; by hand, typical keystrokes measure ~32 ms
//! (with compensating background activity) while carriage returns exceed
//! 200 ms. The hypothesized mechanism — the `WM_QUEUESYNC` journal message
//! posted after every input forces Word's asynchronous work to complete
//! synchronously — is implemented in the Word model, and this experiment
//! reproduces all four observations by toggling it.

use latlab_core::BoundaryPolicy;
use latlab_input::{workloads, TestDriver};
use latlab_os::{InputKind, KeySym, OsProfile};

use crate::report::ExperimentReport;
use crate::runner::{run_session, App, RunConfig, FREQ};

/// One input mode's results.
#[derive(Clone, Debug)]
pub struct ModeResult {
    /// Median printable-keystroke latency, ms.
    pub keystroke_median_ms: f64,
    /// Maximum event latency, ms.
    pub max_ms: f64,
    /// Mean carriage-return latency, ms.
    pub cr_mean_ms: f64,
    /// Busy time not attributed to events (background activity), s.
    pub background_s: f64,
}

fn run_mode(cfg: &RunConfig, driver: TestDriver, script: &latlab_input::InputScript) -> ModeResult {
    let out = run_session(
        cfg,
        OsProfile::Nt351,
        App::Word,
        driver,
        script,
        BoundaryPolicy::MergeUntilEmpty,
        5,
    );
    let mut keystrokes = Vec::new();
    let mut crs = Vec::new();
    let mut max_ms: f64 = 0.0;
    let mut attributed_ms = 0.0;
    for e in &out.measurement.events {
        let lat = e.latency_ms(FREQ);
        max_ms = max_ms.max(lat);
        attributed_ms += lat;
        let Some(id) = e.input_id else { continue };
        match out.machine.ground_truth().event(id).map(|g| g.kind) {
            Some(InputKind::Key(KeySym::Char(_))) => keystrokes.push(lat),
            Some(InputKind::Key(KeySym::Enter)) => crs.push(lat),
            _ => {}
        }
    }
    let total_busy = FREQ.to_ms(
        out.machine
            .ground_truth()
            .busy_within(latlab_des::SimTime::ZERO, out.machine.now()),
    );
    ModeResult {
        keystroke_median_ms: latlab_des::stats::median(&keystrokes).unwrap_or(0.0),
        max_ms,
        cr_mean_ms: if crs.is_empty() {
            0.0
        } else {
            crs.iter().sum::<f64>() / crs.len() as f64
        },
        background_s: ((total_busy - attributed_ms) / 1_000.0).max(0.0),
    }
}

/// Runs the comparison.
pub fn run(cfg: &RunConfig) -> (ExperimentReport, ModeResult, ModeResult) {
    let mut report = ExperimentReport::new(
        "sec54",
        "Test-driven vs. hand-generated Word input on NT 3.51 (§5.4)",
    );
    // A session with enough carriage returns to measure them: narrower
    // "paragraphs" than the headline Word task.
    let text = latlab_input::workloads::sample_document(1_000, 120);
    // Test scripts specify fixed pauses; 250 ms keeps playback strictly
    // slower than event handling (no queueing chains).
    let test_script = latlab_input::InputScript::new().text(FREQ.ms(250), &text);
    let hand_script = workloads::word_hand_session(0x5d0c_0003);
    let hand_with_crs = latlab_input::HumanModel {
        think_pause_prob: 0.10,
        ..latlab_input::HumanModel::with_wpm(70.0, 0x5d0c_0004)
    }
    .type_text(&text);

    let test = run_mode(cfg, TestDriver::ms_test(), &test_script);
    let hand = run_mode(cfg, TestDriver::clean(), &hand_with_crs);
    let _ = hand_script;

    report.line(format!(
        "  {:<22} {:>16} {:>12} {:>14} {:>14}",
        "mode", "keystroke median", "max event", "CR mean", "background"
    ));
    report.line(format!(
        "  {:<22} {:>13.1} ms {:>9.1} ms {:>11.1} ms {:>12.2} s   (paper: 80–100 / ≤140 / ~? )",
        "Microsoft Test", test.keystroke_median_ms, test.max_ms, test.cr_mean_ms, test.background_s
    ));
    report.line(format!(
        "  {:<22} {:>13.1} ms {:>9.1} ms {:>11.1} ms {:>12.2} s   (paper: ~32 / >200 CRs / higher)",
        "hand-generated", hand.keystroke_median_ms, hand.max_ms, hand.cr_mean_ms, hand.background_s
    ));

    report.check(
        "Test keystrokes measure 80–100 ms",
        "most events had latency between 80 and 100 ms under Test",
        format!("median {:.1} ms", test.keystroke_median_ms),
        (70.0..=110.0).contains(&test.keystroke_median_ms),
    );
    report.check(
        "hand keystrokes measure ~32 ms",
        "a 32 ms typical latency for the hand-generated input",
        format!("median {:.1} ms", hand.keystroke_median_ms),
        (22.0..=45.0).contains(&hand.keystroke_median_ms),
    );
    report.check(
        "hand input shows more background activity",
        "the hand-generated input showed a higher level of background activity",
        format!("{:.2} s vs {:.2} s", hand.background_s, test.background_s),
        hand.background_s > test.background_s * 1.5,
    );
    report.check(
        "carriage returns slower by hand",
        "CRs took >200 ms by hand; the longest Test events were 140 ms",
        format!(
            "hand CR {:.0} ms vs Test CR {:.0} ms (Test max {:.0} ms)",
            hand.cr_mean_ms, test.cr_mean_ms, test.max_ms
        ),
        hand.cr_mean_ms > 195.0 && test.max_ms < 180.0,
    );

    report.csv(
        "sec54.csv",
        latlab_analysis::export::to_csv(
            &[
                "test_key_median",
                "test_max",
                "test_cr",
                "hand_key_median",
                "hand_max",
                "hand_cr",
            ],
            &[vec![
                test.keystroke_median_ms,
                test.max_ms,
                test.cr_mean_ms,
                hand.keystroke_median_ms,
                hand.max_ms,
                hand.cr_mean_ms,
            ]],
        ),
    );
    (report, test, hand)
}
