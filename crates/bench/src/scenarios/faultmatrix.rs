//! The fault matrix — attribution validation under injected faults.
//!
//! The paper's methodology (§2.2–§2.3) claims the instrumented idle loop
//! plus the cycle counter correctly *attributes* handling time to events
//! even when the system is doing something else: servicing interrupts,
//! switching threads, faulting pages, waiting on the disk. This scenario
//! stress-tests that claim with `latlab-faults`: one workload per fault
//! class, each run compared against the kernel's ground-truth oracle via
//! [`latlab_analysis::validation`], reporting the attribution error the
//! external measurement incurs under each disturbance.
//!
//! Fault classes and their paper analogues:
//!
//! * **storm** — interrupt storms (§2.3's elongated-sample rationale: time
//!   spent in interrupt handlers belongs to the event being handled);
//! * **jitter** — scheduler delay at context switches (§2.5 background
//!   activity / dispatch latency);
//! * **pagefault** — periodic page-fault bursts: TLB flush + buffer-cache
//!   eviction + kernel fault handling (§5.2's cache-residency effects);
//! * **input** — dropped and duplicated input events (lost hardware
//!   events; the oracle must simply never match them);
//! * **disk** — per-operation disk delay and transparently retried errors
//!   (§5.2 I/O-bound handling; measured via the event *span*, because CPU
//!   busy time excludes I/O wait by construction).
//!
//! All plans share a fixed seed, so this scenario is as deterministic as
//! every other: byte-identical output across runs and `--jobs` settings.

use latlab_analysis::validation::{attribution_report, AttributionReport};
use latlab_core::BoundaryPolicy;
use latlab_faults::{FaultKind, FaultPlan, FaultStats};
use latlab_input::{workloads, InputScript, TestDriver};
use latlab_os::{KeySym, OsProfile};

use crate::report::ExperimentReport;
use crate::runner::{run_session, App, RunConfig, FREQ};

/// Fixed seed shared by every row of the matrix.
const MATRIX_SEED: u64 = 0xfa11_7001;

struct Row {
    class: &'static str,
    plan: Option<FaultPlan>,
    /// Disk rows judge the wall-clock *span* instead of CPU busy time:
    /// injected disk delay is CPU-idle wait, invisible to busy by design.
    disk: bool,
}

fn rows() -> Vec<Row> {
    let plan = |kind| Some(FaultPlan::single(MATRIX_SEED, kind));
    vec![
        Row {
            class: "baseline",
            plan: None,
            disk: false,
        },
        // ~3% CPU of interrupt load. Denser storms (e.g. 15k instr every
        // 500 µs) leave no contiguous idle gap for the boundary detector,
        // so event spans stretch to the next input and busy-attribution
        // error grows past 100 ms — the methodology's real breaking point,
        // demonstrated in EXPERIMENTS.md, not a useful regression gate.
        Row {
            class: "storm",
            plan: plan(FaultKind::InterruptStorm {
                period_us: 5_000,
                instr: 15_000,
            }),
            disk: false,
        },
        Row {
            class: "jitter",
            plan: plan(FaultKind::SchedJitter {
                rate_permille: 300,
                max_instr: 40_000,
            }),
            disk: false,
        },
        Row {
            class: "pagefault",
            plan: plan(FaultKind::PageFaultBurst {
                period_ms: 50,
                evict_blocks: 64,
                instr: 60_000,
            }),
            disk: false,
        },
        Row {
            class: "input",
            plan: plan(FaultKind::InputChaos {
                drop_permille: 100,
                dup_permille: 100,
            }),
            disk: false,
        },
        Row {
            class: "disk",
            plan: plan(FaultKind::DiskFault {
                delay_ms: 5,
                error_permille: 100,
            }),
            disk: true,
        },
    ]
}

/// A short PowerPoint open-and-page script: the `Ctrl+O` forces synchronous
/// `ReadFile` traffic, so disk faults land inside measured event spans.
fn disk_workload() -> InputScript {
    InputScript::new()
        .key(FREQ.ms(200), KeySym::Char('\n'))
        .key(FREQ.secs(12), KeySym::Ctrl('o'))
        .key(FREQ.secs(10), KeySym::PageDown)
        .key(FREQ.secs(2), KeySym::PageDown)
}

fn run_row(cfg: &RunConfig, row: &Row) -> (AttributionReport, Option<FaultStats>) {
    // Each row runs under its own plan; the recorder (and its per-scope
    // run counter) is shared with the scenario's config.
    let cfg = &RunConfig {
        faults: row.plan.clone(),
        ..cfg.clone()
    };
    let out = if row.disk {
        run_session(
            cfg,
            OsProfile::Nt40,
            App::PowerPoint,
            TestDriver::clean(),
            &disk_workload(),
            BoundaryPolicy::SplitAtRetrieval,
            2,
        )
    } else {
        run_session(
            cfg,
            OsProfile::Nt40,
            App::Notepad,
            TestDriver::clean(),
            &workloads::unbound_keystrokes(30),
            BoundaryPolicy::SplitAtRetrieval,
            2,
        )
    };
    let report = attribution_report(&out.measurement.events, out.machine.ground_truth(), FREQ);
    (report, out.machine.fault_stats().copied())
}

/// Runs the full matrix.
pub fn run(cfg: &RunConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "faults",
        "Fault matrix: attribution error under injected faults",
    );
    report.line("  class      compared  skipped   mean|err|   max|err|  metric   injections");
    let mut csv_rows: Vec<Vec<f64>> = Vec::new();
    for row in rows() {
        let (attr, stats) = run_row(cfg, &row);
        let (mean_err, max_err, metric) = if row.disk {
            (attr.mean_abs_span_err_ms, attr.max_abs_span_err_ms, "span")
        } else {
            (attr.mean_abs_busy_err_ms, attr.max_abs_busy_err_ms, "busy")
        };
        let injections = stats.map(|s| s.total_injections()).unwrap_or(0);
        report.line(format!(
            "  {:<9}  {:>8}  {:>7}  {:>8.3} ms {:>8.3} ms  {:<6}  {:>10}",
            row.class, attr.compared, attr.skipped, mean_err, max_err, metric, injections
        ));
        if let Some(s) = stats {
            report.line(format!(
                "             storms={} pages={} jitters={} disk_delays={} disk_errors={} \
                 dropped={} duplicated={}",
                s.storm_interrupts,
                s.page_bursts,
                s.sched_delays,
                s.disk_delays,
                s.disk_errors,
                s.inputs_dropped,
                s.inputs_duplicated
            ));
        }

        report.check(
            format!("{} events compared", row.class),
            "enough surviving events for a meaningful comparison",
            format!("{} compared, {} skipped", attr.compared, attr.skipped),
            attr.compared >= 3,
        );
        if row.plan.is_some() {
            report.check(
                format!("{} faults fired", row.class),
                "the fault plan actually injected something",
                format!("{injections} injections"),
                injections > 0,
            );
        }
        let (mean_cap, max_cap) = if row.disk { (3.0, 8.0) } else { (2.0, 6.0) };
        report.check(
            format!("{} attribution bounded", row.class),
            "external measurement stays close to the oracle under this fault",
            format!("mean {mean_err:.3} ms, max {max_err:.3} ms ({metric})"),
            mean_err <= mean_cap && max_err <= max_cap,
        );
        if row.class == "input" {
            let chaos = stats.unwrap_or_default();
            report.check(
                "input chaos visible",
                "drops and duplicates both occurred and were excluded cleanly",
                format!(
                    "{} dropped, {} duplicated, {} skipped",
                    chaos.inputs_dropped, chaos.inputs_duplicated, attr.skipped
                ),
                chaos.inputs_dropped > 0 && chaos.inputs_duplicated > 0,
            );
        }
        csv_rows.push(vec![
            attr.compared as f64,
            attr.skipped as f64,
            mean_err,
            max_err,
            injections as f64,
        ]);
    }
    report.csv(
        "faults.csv",
        latlab_analysis::export::to_csv(
            &[
                "compared",
                "skipped",
                "mean_abs_err_ms",
                "max_abs_err_ms",
                "injections",
            ],
            &csv_rows,
        ),
    );
    report
}
