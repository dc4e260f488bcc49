//! §1.1 — "The Irrelevance of Throughput", as an experiment.
//!
//! The paper's opening argument, demonstrated quantitatively:
//!
//! 1. *Information lost*: throughput suites reduce a run to elapsed time, in
//!    which frequent short events drown the rare long ones. We double the
//!    cost of Notepad's screen-refresh keystrokes (a directly user-visible
//!    regression) and show that a Winstone-style elapsed-time metric barely
//!    moves while the latency distribution flags the regression at full
//!    magnitude.
//! 2. *Inaccurate user assumptions*: driving the system "as fast as it can
//!    accept input" models an infinitely fast user; request batching then
//!    exceeds anything a real user could cause, and per-event waiting times
//!    explode as events queue. Neither effect exists under realistic pacing.

use latlab_apps::{Notepad, NotepadConfig};
use latlab_core::BoundaryPolicy;
use latlab_des::SimTime;
use latlab_input::{workloads, InputScript, TestDriver};
use latlab_os::{KeySym, OsProfile, ProcessSpec};

use crate::report::ExperimentReport;
use crate::runner::{RunConfig, FREQ};

/// One configuration's readings.
#[derive(Clone, Copy, Debug)]
struct Readings {
    /// Winstone-style metric: elapsed time for the burst run, seconds.
    throughput_elapsed_s: f64,
    /// Latency metric: events at or above the 50 ms irritation line.
    events_over_50ms: usize,
    /// Latency metric: mean refresh-keystroke latency, ms.
    refresh_mean_ms: f64,
}

fn measure(cfg: &RunConfig, config: NotepadConfig) -> Readings {
    let chars = 600;
    let text = workloads::sample_document(chars, 280);

    // Throughput mode: input as fast as the system accepts it (1 ms).
    let burst = {
        let mut session = cfg.session(OsProfile::Nt40);
        session.launch_app(ProcessSpec::app("notepad"), Box::new(Notepad::new(config)));
        let script = InputScript::new().text(FREQ.ms(1), &text);
        TestDriver::clean().schedule(session.machine(), SimTime::ZERO + FREQ.ms(100), &script);
        session.run_until_quiescent(SimTime::ZERO + FREQ.secs(60));
        let (_, machine) = session.finish_with_machine(BoundaryPolicy::SplitAtRetrieval);
        FREQ.time_to_secs(machine.now())
    };

    // Paced mode: a real user at ~100 wpm, with latency extraction.
    let (over_50, refresh_mean) = {
        let mut session = cfg.session(OsProfile::Nt40);
        session.launch_app(ProcessSpec::app("notepad"), Box::new(Notepad::new(config)));
        let script = InputScript::new().text(FREQ.ms(121), &text);
        TestDriver::clean().schedule(session.machine(), SimTime::ZERO + FREQ.ms(100), &script);
        session.run_until_quiescent(SimTime::ZERO + script.duration() + FREQ.secs(5));
        let (m, machine) = session.finish_with_machine(BoundaryPolicy::SplitAtRetrieval);
        let mut all = Vec::new();
        let mut refresh = Vec::new();
        for e in &m.events {
            let lat = e.latency_ms(FREQ);
            all.push(lat);
            let Some(id) = e.input_id else { continue };
            if let Some(latlab_os::InputKind::Key(KeySym::Enter)) =
                machine.ground_truth().event(id).map(|g| g.kind)
            {
                refresh.push(lat);
            }
        }
        (
            all.iter().filter(|&&l| l >= 50.0).count(),
            refresh.iter().sum::<f64>() / refresh.len().max(1) as f64,
        )
    };
    Readings {
        throughput_elapsed_s: burst,
        events_over_50ms: over_50,
        refresh_mean_ms: refresh_mean,
    }
}

/// Runs the §1.1 demonstration.
pub fn run(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "sec11",
        "The irrelevance of throughput (§1.1), demonstrated",
    );
    let stock = measure(cfg, NotepadConfig::default());
    // The regression: screen refreshes (newline/page keystrokes) cost 2.5×.
    let regressed = measure(
        cfg,
        NotepadConfig {
            refresh_us: NotepadConfig::default().refresh_us * 5 / 2,
            ..NotepadConfig::default()
        },
    );

    let elapsed_delta = (regressed.throughput_elapsed_s / stock.throughput_elapsed_s - 1.0) * 100.0;
    let refresh_delta = (regressed.refresh_mean_ms / stock.refresh_mean_ms - 1.0) * 100.0;

    report.line("                          stock        2.5× refresh cost");
    report.line(format!(
        "  throughput elapsed    {:8.2} s   {:8.2} s   ({elapsed_delta:+.1}%)",
        stock.throughput_elapsed_s, regressed.throughput_elapsed_s
    ));
    report.line(format!(
        "  events ≥ 50 ms        {:8}     {:8}",
        stock.events_over_50ms, regressed.events_over_50ms
    ));
    report.line(format!(
        "  refresh-event latency {:8.2} ms  {:8.2} ms  ({refresh_delta:+.1}%)",
        stock.refresh_mean_ms, regressed.refresh_mean_ms
    ));

    report.check(
        "throughput hides a user-visible regression",
        "short events dominate elapsed time; long-latency events barely register (§1.1)",
        format!("elapsed {elapsed_delta:+.1}% vs refresh latency {refresh_delta:+.1}%"),
        elapsed_delta.abs() < 10.0 && refresh_delta > 100.0,
    );
    report.check(
        "latency metrics flag it",
        "a new class of ≥50 ms irritation events appears only in the distribution",
        format!(
            "{} → {} events over 50 ms",
            stock.events_over_50ms, regressed.events_over_50ms
        ),
        stock.events_over_50ms == 0 && regressed.events_over_50ms >= 1,
    );
    report.check(
        "throughput-mode pacing is unrealistic",
        "an uninterrupted stream completes far faster than any user could drive it",
        format!(
            "{:.1} s burst vs ≥{:.1} s at human pace",
            stock.throughput_elapsed_s,
            600.0 * 0.121
        ),
        stock.throughput_elapsed_s < 600.0 * 0.121 / 2.0,
    );

    report.csv(
        "sec11.csv",
        latlab_analysis::export::to_csv(
            &[
                "stock_elapsed_s",
                "regressed_elapsed_s",
                "stock_over50",
                "regressed_over50",
                "stock_refresh_ms",
                "regressed_refresh_ms",
            ],
            &[vec![
                stock.throughput_elapsed_s,
                regressed.throughput_elapsed_s,
                stock.events_over_50ms as f64,
                regressed.events_over_50ms as f64,
                stock.refresh_mean_ms,
                regressed.refresh_mean_ms,
            ]],
        ),
    );
    report
}
