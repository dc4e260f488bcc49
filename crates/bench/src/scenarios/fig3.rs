//! Figure 3 — idle-system profiles for the three operating systems.
//!
//! §2.5: both NT systems show CPU-activity bursts every 10 ms from clock
//! interrupts (confirmed by correlating with the interrupt counter);
//! Windows 95 shows a higher level of background activity of unknown
//! origin; and the smallest NT 4.0 clock-interrupt overhead is ~400 cycles.

use latlab_core::{collect, install, IdleLoopConfig};
use latlab_des::SimTime;
use latlab_hw::{CounterId, HwEvent};
use latlab_os::OsProfile;

use crate::report::ExperimentReport;
use crate::runner::{RunConfig, FREQ};

/// Per-OS idle profile numbers.
#[derive(Clone, Copy, Debug)]
pub struct IdleProfileRow {
    /// The OS.
    pub profile: OsProfile,
    /// Mean utilization over the window.
    pub mean_utilization: f64,
    /// Interrupts observed (from the event counter).
    pub interrupts: u64,
    /// Estimated cycles per clock interrupt (busy cycles ÷ interrupts).
    pub cycles_per_interrupt: f64,
    /// Smallest positive per-sample excess — the common-case clock
    /// interrupt cost (§2.5's "about 400 cycles" on NT 4.0).
    pub min_interrupt_cycles: u64,
}

/// Runs the idle profiles.
pub fn run(cfg: &RunConfig) -> (ExperimentReport, Vec<IdleProfileRow>) {
    let mut report =
        ExperimentReport::new("fig3", "Idle system profiles for the three OSes (§2.5)");
    let window_secs = 2u64;
    let mut rows = Vec::new();
    for profile in OsProfile::ALL {
        let params = profile.params();
        let n = cfg.calibrate_n(&params, params.freq.ms(1));
        let mut machine = cfg.machine(params.clone());
        machine
            .configure_counter(CounterId::Ctr0, HwEvent::HardwareInterrupts)
            .expect("counter configuration");
        let handle = install(&mut machine, IdleLoopConfig::with_n(n));
        machine.run_until(SimTime::ZERO + FREQ.secs(window_secs));
        let interrupts = machine.read_counter(CounterId::Ctr0).expect("counter read");
        let trace = collect(&mut machine, handle, params.freq.ms(1));
        let util = trace.utilization_within(SimTime::ZERO, SimTime::ZERO + FREQ.secs(window_secs));
        let busy_cycles = trace
            .busy_within(SimTime::ZERO, SimTime::ZERO + FREQ.secs(window_secs))
            .cycles() as f64;
        let cycles_per_interrupt = if interrupts > 0 {
            busy_cycles / interrupts as f64
        } else {
            0.0
        };
        // Ignore sub-200-cycle jitter (single TLB-miss noise): the paper
        // identified interrupt-bearing samples by correlating with the
        // interrupt counter; the smallest real burst is the bare handler.
        let min_interrupt_cycles = trace
            .samples()
            .iter()
            .map(|s| s.excess.cycles())
            .filter(|&e| e > 200)
            .min()
            .unwrap_or(0);
        rows.push(IdleProfileRow {
            profile,
            mean_utilization: util,
            interrupts,
            cycles_per_interrupt,
            min_interrupt_cycles,
        });
        // Render a 200 ms strip at 1 ms resolution.
        let profile_view = latlab_analysis::UtilizationProfile::from_trace(
            &trace,
            SimTime::ZERO + FREQ.ms(500),
            SimTime::ZERO + FREQ.ms(700),
            1,
        );
        report.line(format!(
            "  {:<16} util {:5.2}%  interrupts {:4}  mean {:.0} / min {} cycles per interrupt",
            profile.name(),
            util * 100.0,
            interrupts,
            cycles_per_interrupt,
            min_interrupt_cycles
        ));
        report.line(format!(
            "    [500–700 ms] {}",
            latlab_analysis::ascii::utilization_strip(&profile_view)
        ));
    }

    let nt40 = &rows[1];
    let nt351 = &rows[0];
    let win95 = &rows[2];
    report.check(
        "clock interrupts every 10 ms",
        "both NT systems show bursts at 10 ms intervals (≈100/s)",
        format!(
            "NT 3.51: {} / NT 4.0: {} interrupts in {window_secs} s",
            nt351.interrupts, nt40.interrupts
        ),
        (195..=215).contains(&nt351.interrupts) && (195..=215).contains(&nt40.interrupts),
    );
    report.check(
        "NT 4.0 clock interrupt ≈400 cycles",
        "the smallest clock-interrupt handling overhead under NT 4.0 was about 400 cycles (4 µs)",
        format!("{} cycles minimum", nt40.min_interrupt_cycles),
        (300..=550).contains(&nt40.min_interrupt_cycles),
    );
    report.check(
        "Windows 95 shows more idle activity",
        "Windows 95 shows a higher level of activity than both NT systems",
        format!(
            "util win95 {:.3}% vs nt40 {:.3}% / nt351 {:.3}%",
            win95.mean_utilization * 100.0,
            nt40.mean_utilization * 100.0,
            nt351.mean_utilization * 100.0
        ),
        win95.mean_utilization > nt40.mean_utilization * 2.0
            && win95.mean_utilization > nt351.mean_utilization * 2.0,
    );

    let csv_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mean_utilization,
                r.interrupts as f64,
                r.cycles_per_interrupt,
                r.min_interrupt_cycles as f64,
            ]
        })
        .collect();
    report.csv(
        "fig3.csv",
        latlab_analysis::export::to_csv(
            &[
                "mean_utilization",
                "interrupts",
                "cycles_per_interrupt",
                "min_interrupt_cycles",
            ],
            &csv_rows,
        ),
    );
    (report, rows)
}
