//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! * **Idle-loop granularity** (§2.3): *"The larger we make N, the coarser
//!   the accuracy of our measurements; the smaller we make N, the finer the
//!   resolution … but the larger the trace buffer required."* Sweeps N and
//!   quantifies both sides.
//! * **Batching under an infinitely fast user** (§1.1): uninterrupted input
//!   lets request batches survive across events, improving throughput while
//!   degrading per-event latency attribution.
//! * **TLB flush on crossing** (§5.3): NT 3.51 with hypothetical
//!   address-space identifiers — how much of its deficit the flushes cause.
//! * **Responsiveness-scalar sensitivity** (§3.1): why the paper abandoned
//!   a single figure of merit.

use latlab_apps::{Notepad, NotepadConfig};
use latlab_core::BoundaryPolicy;
use latlab_des::SimTime;
use latlab_input::{workloads, InputScript, TestDriver};
use latlab_os::{KeySym, OsParams, OsProfile, ProcessSpec, Win32Arch};

use crate::report::ExperimentReport;
use crate::runner::{deliver_key_and_settle, latencies_ms, run_session, App, RunConfig, FREQ};

/// Idle-loop granularity sweep: measures one known event with different N.
pub fn idle_loop_granularity(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "abl-n",
        "Ablation: idle-loop granularity N (resolution vs. buffer size, §2.3)",
    );
    let params = OsProfile::Nt40.params();
    let truth_ref = std::cell::Cell::new(0.0f64);
    let mut rows = Vec::new();
    for target_ms in [0.25, 1.0, 4.0, 16.0] {
        let target = params.freq.ms_f64(target_ms);
        let n = cfg.calibrate_n(&params, target);
        let mut machine = cfg.machine(params.clone());
        let handle = latlab_core::install(&mut machine, latlab_core::IdleLoopConfig::with_n(n));
        let tid = machine.spawn(
            ProcessSpec::app("notepad"),
            Box::new(Notepad::new(NotepadConfig::default())),
        );
        machine.set_focus(tid);
        // One page-down event (~30 ms).
        let id = machine.schedule_input_at(
            SimTime::ZERO + FREQ.ms(500),
            latlab_os::InputKind::Key(KeySym::PageDown),
        );
        machine.run_until(SimTime::ZERO + FREQ.secs(2));
        let truth = FREQ.to_ms(
            machine
                .ground_truth()
                .event(id)
                .unwrap()
                .true_latency()
                .unwrap(),
        );
        truth_ref.set(truth);
        let trace = latlab_core::collect(&mut machine, handle, target);
        let measured = FREQ
            .to_ms(trace.busy_within(SimTime::ZERO + FREQ.ms(480), SimTime::ZERO + FREQ.ms(700)));
        let records_per_sec = trace.len() as f64 / 2.0;
        let err = (measured - truth).abs();
        report.line(format!(
            "  N ≈ {target_ms:5.2} ms: measured {measured:6.2} ms (truth {truth:.2}), err {err:5.2} ms, {records_per_sec:6.0} records/s"
        ));
        rows.push(vec![target_ms, measured, truth, err, records_per_sec]);
    }
    report.check(
        "finer N gives finer resolution",
        "smaller N → finer resolution; larger N → coarser accuracy",
        "error grows with N (see table)",
        rows.first().map(|r| r[3]).unwrap_or(1.0) <= rows.last().map(|r| r[3]).unwrap_or(0.0) + 0.5,
    );
    report.check(
        "coarser N shrinks the trace",
        "larger N needs a smaller trace buffer for a given run",
        "records/s falls with N",
        rows.first().map(|r| r[4]).unwrap_or(0.0) > rows.last().map(|r| r[4]).unwrap_or(1.0) * 8.0,
    );
    report.csv(
        "ablation_n.csv",
        latlab_analysis::export::to_csv(
            &[
                "n_ms",
                "measured_ms",
                "truth_ms",
                "error_ms",
                "records_per_s",
            ],
            &rows,
        ),
    );
    report
}

/// The infinitely-fast-user batching ablation.
pub fn batching(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "abl-batch",
        "Ablation: throughput-mode input and request batching (§1.1)",
    );
    let chars = 300;
    let text: String = workloads::sample_document(chars, 10_000);
    // Paced: realistic 120 ms keystrokes. Burst: an infinitely fast user
    // (1 ms apart — the queue never drains between events).
    let mut rows = Vec::new();
    for (label, pace_ms) in [("paced 120 ms", 120u64), ("burst 1 ms", 1u64)] {
        let script = InputScript::new().text(FREQ.ms(pace_ms), &text);
        let out = run_session(
            cfg,
            OsProfile::Nt40,
            App::Notepad,
            TestDriver::clean(),
            &script,
            BoundaryPolicy::SplitAtRetrieval,
            3,
        );
        let busy_ms = FREQ.to_ms(
            out.machine
                .ground_truth()
                .busy_within(SimTime::ZERO, out.machine.now()),
        );
        let busy_per_key = busy_ms / chars as f64;
        // True per-event latency from ground truth (enqueue → completion):
        // in burst mode events queue behind each other.
        let mean_latency = {
            let lats: Vec<f64> = out
                .machine
                .ground_truth()
                .events()
                .iter()
                .filter_map(|e| e.true_latency())
                .map(|d| FREQ.to_ms(d))
                .collect();
            lats.iter().sum::<f64>() / lats.len().max(1) as f64
        };
        report.line(format!(
            "  {label:<14} CPU per keystroke {busy_per_key:5.2} ms   mean true latency {mean_latency:7.2} ms"
        ));
        rows.push((busy_per_key, mean_latency));
    }
    let (paced_cpu, paced_lat) = rows[0];
    let (burst_cpu, burst_lat) = rows[1];
    report.check(
        "batching improves throughput",
        "an uninterrupted stream batches more aggressively, cutting per-request CPU",
        format!("{burst_cpu:.2} ms vs {paced_cpu:.2} ms per keystroke"),
        burst_cpu < paced_cpu * 0.97,
    );
    report.check(
        "but degrades user-relevant latency",
        "measurements in throughput mode are meaningless for responsiveness",
        format!("{burst_lat:.1} ms vs {paced_lat:.1} ms mean true latency"),
        burst_lat > paced_lat * 3.0,
    );
    report.csv(
        "ablation_batching.csv",
        latlab_analysis::export::to_csv(
            &[
                "paced_cpu_ms",
                "paced_lat_ms",
                "burst_cpu_ms",
                "burst_lat_ms",
            ],
            &[vec![paced_cpu, paced_lat, burst_cpu, burst_lat]],
        ),
    );
    report
}

/// NT 3.51 with hypothetical ASIDs: disable the crossing TLB flush.
pub fn asid(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "abl-asid",
        "Ablation: NT 3.51 without crossing TLB flushes (hypothetical ASIDs, §5.3)",
    );
    let pagedown_cycles = |params: OsParams| -> f64 {
        let mut machine = cfg.machine(params);
        latlab_apps::powerpoint::register_files(&mut machine);
        let tid = machine.spawn(
            ProcessSpec::app("powerpoint"),
            Box::new(latlab_apps::PowerPoint::new(
                latlab_apps::PowerPointConfig::default(),
            )),
        );
        machine.set_focus(tid);
        let mut t = SimTime::ZERO + FREQ.ms(100);
        machine.schedule_input_at(t, latlab_os::InputKind::Key(KeySym::Char('\n')));
        t += FREQ.secs(15);
        machine.schedule_input_at(t, latlab_os::InputKind::Key(latlab_apps::OPEN_KEY));
        t += FREQ.secs(12);
        for _ in 0..3 {
            machine.schedule_input_at(t, latlab_os::InputKind::Key(KeySym::PageDown));
            t += FREQ.ms(700);
        }
        assert!(machine.run_until_quiescent(t + FREQ.secs(60)));
        deliver_key_and_settle(&mut machine, KeySym::PageUp);
        let before = machine.read_cycle_counter();
        deliver_key_and_settle(&mut machine, KeySym::PageDown);
        (machine.read_cycle_counter() - before) as f64
    };
    let stock = pagedown_cycles(OsProfile::Nt351.params());
    let mut asid_params = OsProfile::Nt351.params();
    // The same user-level server, but crossings no longer flush: model as a
    // kernel-mode transition with the LPC's instruction cost retained.
    asid_params.win32 = Win32Arch::KernelMode {
        extra_itlb: 4,
        extra_dtlb: 6,
    };
    let asid = pagedown_cycles(asid_params);
    let nt40 = pagedown_cycles(OsProfile::Nt40.params());
    let recovered = (stock - asid) / (stock - nt40).max(1.0);
    report.line(format!(
        "  page-down cycles: NT 3.51 {stock:.0} → with ASIDs {asid:.0} (NT 4.0: {nt40:.0})"
    ));
    report.line(format!(
        "  ASIDs recover {:.0}% of the NT 3.51 → NT 4.0 gap",
        recovered * 100.0
    ));
    report.check(
        "flushes are a real part of the 3.51 deficit",
        "TLB flushes on crossings account for ≥25% of the difference (Figure 9's claim)",
        format!("{:.0}% recovered", recovered * 100.0),
        recovered >= 0.2,
    );
    report.check(
        "path length still matters",
        "ASIDs alone do not make NT 3.51 match NT 4.0 (code path lengths differ)",
        format!("asid {asid:.0} vs nt40 {nt40:.0}"),
        asid > nt40,
    );
    report.csv(
        "ablation_asid.csv",
        latlab_analysis::export::to_csv(
            &["nt351_cycles", "asid_cycles", "nt40_cycles"],
            &[vec![stock, asid, nt40]],
        ),
    );
    report
}

/// Responsiveness-scalar sensitivity: the §3.1 abandoned metric.
pub fn responsiveness_sensitivity(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "abl-score",
        "Ablation: sensitivity of a single responsiveness scalar (§3.1)",
    );
    // Measure Notepad on the two NTs once.
    let mut sessions = Vec::new();
    for profile in [OsProfile::Nt351, OsProfile::Nt40] {
        let out = run_session(
            cfg,
            profile,
            App::Notepad,
            TestDriver::ms_test(),
            &workloads::notepad_session(),
            BoundaryPolicy::SplitAtRetrieval,
            2,
        );
        sessions.push((profile, latencies_ms(&out.measurement, true)));
    }
    // Sweep the "free" threshold; watch the ranking and the score ratio.
    let mut rows = Vec::new();
    for free_ms in [5.0, 20.0, 100.0] {
        let score = |lats: &[f64]| -> f64 {
            lats.iter()
                .map(|&l| {
                    if l <= free_ms {
                        0.0
                    } else {
                        (l / free_ms).ln()
                    }
                })
                .sum()
        };
        let s351 = score(&sessions[0].1);
        let s40 = score(&sessions[1].1);
        report.line(format!(
            "  threshold {free_ms:5.1} ms: score NT 3.51 {s351:8.2} vs NT 4.0 {s40:8.2} (ratio {:5.2})",
            s351 / s40.max(1e-9)
        ));
        rows.push(vec![free_ms, s351, s40]);
    }
    let ratio_low = rows[0][1] / rows[0][2].max(1e-9);
    let ratio_high = rows[2][1] / rows[2][2].max(1e-9);
    report.check(
        "the scalar is threshold-sensitive",
        "the metric's verdict magnitude depends strongly on the unknown threshold T — \
         why the paper declined to pick one",
        format!("ratio {ratio_low:.2} at 5 ms vs {ratio_high:.2} at 100 ms"),
        (ratio_low - ratio_high).abs() > 0.25 || ratio_high.is_nan(),
    );
    report.csv(
        "ablation_score.csv",
        latlab_analysis::export::to_csv(&["threshold_ms", "nt351_score", "nt40_score"], &rows),
    );
    report
}

/// The §2.3 display-refresh effect the paper set aside.
pub fn display_refresh(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "abl-refresh",
        "Extension: display-refresh visibility delay the paper did not consider (§2.3)",
    );
    let display = latlab_hw::Display::stealth64();
    // For each Notepad keystroke, user-visible latency adds the wait until
    // the next refresh after handling completes.
    let out = run_session(
        cfg,
        OsProfile::Nt40,
        App::Notepad,
        TestDriver::clean(),
        &workloads::unbound_keystrokes(40),
        BoundaryPolicy::SplitAtRetrieval,
        2,
    );
    let mut handled = Vec::new();
    let mut visible = Vec::new();
    for e in out.machine.ground_truth().events() {
        let Some(done) = e.completed else { continue };
        let lat = FREQ.to_ms(e.true_latency().unwrap());
        let extra = FREQ.to_ms(display.visibility_delay(done));
        handled.push(lat);
        visible.push(lat + extra);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.line(format!(
        "  mean handling latency {:.2} ms; mean user-visible latency {:.2} ms \
         (refresh period {:.1} ms)",
        mean(&handled),
        mean(&visible),
        FREQ.to_ms(display.refresh_period())
    ));
    report.check(
        "refresh adds roughly half a period on average",
        "graphics devices refresh every 12–17 ms; completion is invisible until the next refresh",
        format!("+{:.2} ms mean", mean(&visible) - mean(&handled)),
        {
            let extra = mean(&visible) - mean(&handled);
            let period = FREQ.to_ms(display.refresh_period());
            extra > period * 0.25 && extra < period * 0.95
        },
    );
    report
}

/// Asynchronous I/O stays background: Word's autosave must not perturb
/// measured keystroke latency or classified wait time (§2.3's assumption,
/// exercised with the §6 async-I/O support).
pub fn async_background(cfg: &RunConfig) -> ExperimentReport {
    use latlab_apps::{Word, WordConfig};
    use latlab_core::{measured_wait, FsmMode};
    let mut report = ExperimentReport::new(
        "abl-async",
        "Extension: asynchronous autosave is background activity (§2.3/§6)",
    );
    let text = workloads::sample_document(250, 10_000);
    let run = |autosave: Option<u32>| {
        let mut session = cfg.session(OsProfile::Nt40);
        latlab_apps::word::register_files(session.machine());
        let tid = session.launch_app(
            ProcessSpec::app("word").with_heavy_async(),
            Box::new(Word::new(WordConfig {
                autosave_every_keys: autosave,
                ..WordConfig::default()
            })),
        );
        let script = latlab_input::HumanModel::with_wpm(70.0, 19).type_text(&text);
        TestDriver::clean().schedule(session.machine(), SimTime::ZERO + FREQ.ms(100), &script);
        let horizon = SimTime::ZERO + script.duration() + FREQ.secs(10);
        session.run_until_quiescent(horizon + FREQ.secs(10));
        let (m, machine) = session.finish_with_machine(BoundaryPolicy::MergeUntilEmpty);
        let lats: Vec<f64> = m
            .events
            .iter()
            .filter(|e| e.input_id.is_some())
            .map(|e| e.latency_ms(FREQ))
            .collect();
        let median = latlab_des::stats::median(&lats).unwrap_or(0.0);
        let end = machine.now();
        let wait = FREQ.to_secs(measured_wait(
            &m.trace,
            machine.state_log(),
            tid,
            SimTime::ZERO,
            end,
            FsmMode::Full,
        ));
        let async_issued = machine
            .state_log()
            .records()
            .iter()
            .filter(|r| {
                matches!(
                    r.transition,
                    latlab_os::Transition::IoIssued {
                        kind: latlab_os::IoKind::AsyncWrite,
                        ..
                    }
                )
            })
            .count();
        (median, wait, async_issued)
    };
    let (median_off, wait_off, issued_off) = run(None);
    let (median_on, wait_on, issued_on) = run(Some(20));
    report.line(format!(
        "  autosave off: keystroke median {median_off:5.1} ms, full-FSM wait {wait_off:5.2} s, async writes {issued_off}"
    ));
    report.line(format!(
        "  autosave on:  keystroke median {median_on:5.1} ms, full-FSM wait {wait_on:5.2} s, async writes {issued_on}"
    ));
    report.check(
        "autosave actually runs",
        "asynchronous writes are issued and logged by the kernel",
        format!("{issued_on} async writes"),
        issued_on >= 5 && issued_off == 0,
    );
    report.check(
        "keystroke latency unperturbed",
        "asynchronous I/O is background activity the user does not wait for",
        format!("median {median_on:.1} ms vs {median_off:.1} ms"),
        (median_on - median_off).abs() < 3.0,
    );
    report.check(
        "classified wait time unperturbed",
        "the full FSM does not count async I/O as wait",
        format!("{wait_on:.2} s vs {wait_off:.2} s"),
        (wait_on - wait_off).abs() < 0.5,
    );
    report
}

/// Per-event-class perception thresholds: the §3.1 metric completed, and
/// why a single-threshold scalar misjudges task workloads.
pub fn perception_model(cfg: &RunConfig) -> ExperimentReport {
    use latlab_analysis::{EventClass, PerceptionModel};
    let mut report = ExperimentReport::new(
        "abl-perception",
        "Extension: event-type-aware responsiveness metric (§3.1)",
    );
    // The PowerPoint task: dominated by major operations users expect to
    // take seconds.
    let out = run_session(
        cfg,
        OsProfile::Nt40,
        App::PowerPoint,
        TestDriver::ms_test(),
        &workloads::powerpoint_task(),
        BoundaryPolicy::MergeUntilEmpty,
        20,
    );
    let model = PerceptionModel::default();
    let score = model.score(&out.measurement.events, FREQ);
    // The naive single-threshold version: everything judged as a keystroke.
    let naive: f64 = out
        .measurement
        .events
        .iter()
        .map(|e| model.keystroke.penalty(e.span_ms(FREQ)))
        .sum();
    let mut per_class: std::collections::BTreeMap<&'static str, (usize, f64)> =
        std::collections::BTreeMap::new();
    for e in &out.measurement.events {
        let class = EventClass::of(e);
        let entry = per_class.entry(class_name(class)).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += model.penalty(e, FREQ);
    }
    report.line(format!(
        "  PowerPoint task on NT 4.0: {} events, per-class penalties:",
        out.measurement.events.len()
    ));
    for (name, (count, penalty)) in &per_class {
        report.line(format!(
            "    {name:<16} {count:4} events, penalty {penalty:6.2}"
        ));
    }
    report.line(format!(
        "  event-aware score {:.2} ({} perceptible events) vs naive single-threshold {naive:.2}",
        score.total_penalty, score.perceptible_events
    ));
    report.check(
        "class-aware scoring forgives expected delays",
        "users expect a print/save/open command to impose some delay (§3.1)",
        format!("{:.2} vs naive {:.2}", score.total_penalty, naive),
        score.total_penalty < naive * 0.7,
    );
    report.check(
        "keystroke-class events stay clean",
        "in-task keystrokes remain imperceptible even on the heavy task",
        format!(
            "keystroke penalty {:.3}",
            per_class.get("keystroke").map(|v| v.1).unwrap_or(0.0)
        ),
        per_class.get("keystroke").map(|v| v.1).unwrap_or(0.0) < 1.5,
    );
    report
}

fn class_name(class: latlab_analysis::EventClass) -> &'static str {
    use latlab_analysis::EventClass::*;
    match class {
        Keystroke => "keystroke",
        Navigation => "navigation",
        ScreenChange => "screen-change",
        Command => "command",
        MajorOperation => "major-operation",
        Background => "background",
    }
}

/// Monitor intrusiveness: the idle loop must sit *below* every real
/// priority. Run it at normal priority instead and it competes with the
/// application — the probe perturbs the measurement.
pub fn monitor_intrusiveness(cfg: &RunConfig) -> ExperimentReport {
    use latlab_core::idle_loop::IdleLoopProgram;
    use latlab_core::IdleLoopConfig;
    use latlab_os::Priority;
    let mut report = ExperimentReport::new(
        "abl-monitor",
        "Hazard: an idle-loop monitor above idle priority perturbs the system (§2.3)",
    );
    let params = OsProfile::Nt40.params();
    let n = cfg.calibrate_n(&params, params.freq.ms(1));
    let run = |priority: Priority| -> f64 {
        let mut machine = cfg.machine(params.clone());
        machine.spawn(
            ProcessSpec::app("idle-loop-monitor").with_priority(priority),
            Box::new(IdleLoopProgram::new(IdleLoopConfig::with_n(n))),
        );
        let tid = machine.spawn(
            ProcessSpec::app("notepad").with_priority(Priority::NORMAL),
            Box::new(Notepad::new(NotepadConfig::default())),
        );
        machine.set_focus(tid);
        let mut ids = Vec::new();
        for i in 0..10u64 {
            ids.push(machine.schedule_input_at(
                SimTime::ZERO + FREQ.ms(50 + i * 397),
                latlab_os::InputKind::Key(KeySym::Char('a')),
            ));
        }
        machine.run_until(SimTime::ZERO + FREQ.secs(5));
        ids.iter()
            .map(|&id| {
                FREQ.to_ms(
                    machine
                        .ground_truth()
                        .event(id)
                        .unwrap()
                        .true_latency()
                        .unwrap(),
                )
            })
            .sum::<f64>()
            / ids.len() as f64
    };
    let proper = run(Priority::MEASUREMENT);
    let intrusive = run(Priority::NORMAL);
    report.line(format!(
        "  keystroke latency with monitor below apps: {proper:6.2} ms; at app priority: {intrusive:6.2} ms"
    ));
    report.check(
        "a mis-prioritized monitor inflates latency",
        "the monitor must replace the idle loop, not compete with applications",
        format!("{intrusive:.2} ms vs {proper:.2} ms"),
        intrusive > proper * 1.5,
    );
    report
}

/// Runs every ablation.
pub fn run_all(cfg: &RunConfig) -> Vec<ExperimentReport> {
    vec![
        idle_loop_granularity(cfg),
        batching(cfg),
        asid(cfg),
        responsiveness_sensitivity(cfg),
        display_refresh(cfg),
        async_background(cfg),
        perception_model(cfg),
        monitor_intrusiveness(cfg),
    ]
}
