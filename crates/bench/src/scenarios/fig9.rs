//! Figure 9 — hardware-counter measurements of the page-down operation.
//!
//! §5.3: a warm-cache page-down to a slide with an embedded OLE graph,
//! repeated per counter configuration (only two event counters exist).
//! Findings reproduced:
//!
//! * latency order: NT 4.0 < Windows 95 < NT 3.51;
//! * NT 3.51's extra TLB misses × ≥20 cycles account for ≥25% of the
//!   NT 3.51 − NT 4.0 latency difference (the user-level Win32 server
//!   flushes the TLB on every crossing);
//! * Windows 95 incurs ~93% more TLB misses than NT 4.0 and far more
//!   segment loads and unaligned accesses (16-bit code).

use latlab_core::HwProfile;
use latlab_hw::HwEvent;
use latlab_os::{KeySym, OsProfile};

use crate::report::ExperimentReport;
use crate::runner::{deliver_key_and_settle, warm_powerpoint, RunConfig};

/// The event kinds Figure 9 reports.
pub const FIG9_EVENTS: [HwEvent; 6] = [
    HwEvent::Instructions,
    HwEvent::DataRefs,
    HwEvent::ItlbMisses,
    HwEvent::DtlbMisses,
    HwEvent::SegmentLoads,
    HwEvent::UnalignedAccesses,
];

/// Measures the warm page-down on one OS.
pub fn measure(cfg: &RunConfig, profile: OsProfile) -> HwProfile {
    latlab_core::sweep(
        &FIG9_EVENTS,
        1,
        move || {
            let mut m = warm_powerpoint(cfg.machine(profile.params()), 4);
            // Warm the operation itself once (page 4→5→4), leaving caches
            // and TLB in steady state, as the paper's repeated trials did.
            deliver_key_and_settle(&mut m, KeySym::PageDown);
            deliver_key_and_settle(&mut m, KeySym::PageUp);
            m
        },
        |m, _| deliver_key_and_settle(m, KeySym::PageDown),
    )
}

/// Runs Figure 9 on all three systems.
pub fn run(cfg: &RunConfig) -> (ExperimentReport, Vec<(OsProfile, HwProfile)>) {
    let mut report = ExperimentReport::new(
        "fig9",
        "Counter measurements for the PowerPoint page-down (§5.3, Figure 9)",
    );
    let profiles: Vec<(OsProfile, HwProfile)> = OsProfile::ALL
        .into_iter()
        .map(|p| (p, measure(cfg, p)))
        .collect();

    report.line(format!(
        "  {:<16} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "system", "cycles", "instr", "data refs", "ITLB", "DTLB", "segloads", "unaligned"
    ));
    for (p, prof) in &profiles {
        report.line(format!(
            "  {:<16} {:>12.0} {:>12.0} {:>12.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            p.name(),
            prof.cycles,
            prof.get(HwEvent::Instructions),
            prof.get(HwEvent::DataRefs),
            prof.get(HwEvent::ItlbMisses),
            prof.get(HwEvent::DtlbMisses),
            prof.get(HwEvent::SegmentLoads),
            prof.get(HwEvent::UnalignedAccesses),
        ));
    }

    let nt351 = &profiles[0].1;
    let nt40 = &profiles[1].1;
    let win95 = &profiles[2].1;

    report.check(
        "latency order NT 4.0 < Win95 < NT 3.51",
        "NT 4.0 handled the request in the shortest time, followed by Windows 95 and NT 3.51",
        format!(
            "{:.0} < {:.0} < {:.0} cycles",
            nt40.cycles, win95.cycles, nt351.cycles
        ),
        nt40.cycles < win95.cycles && win95.cycles < nt351.cycles,
    );
    let extra_tlb = nt351.tlb_misses() - nt40.tlb_misses();
    let tlb_cycles = extra_tlb * 20.0; // the paper's lower bound
    let diff = nt351.cycles - nt40.cycles;
    let tlb_fraction = tlb_cycles / diff;
    report.check(
        "TLB misses explain ≥25% of the NT difference",
        "extra TLB misses (≥20 cycles each) account for at least 25% of the NT 3.51−NT 4.0 gap",
        format!(
            "extra {extra_tlb:.0} misses × 20 = {tlb_cycles:.0} cycles of {diff:.0} ({:.0}%)",
            tlb_fraction * 100.0
        ),
        tlb_fraction >= 0.25,
    );
    let tlb_ratio = win95.tlb_misses() / nt40.tlb_misses();
    report.check(
        "Win95 has ~93% more TLB misses than NT 4.0",
        "Windows 95 incurs 93% more TLB misses than NT 4.0",
        format!("+{:.0}%", (tlb_ratio - 1.0) * 100.0),
        (1.6..=2.4).contains(&tlb_ratio),
    );
    report.check(
        "Win95 segment loads and unaligned accesses dominate",
        "large counts from 16-bit code; the majority of the Win95−NT difference",
        format!(
            "segloads {:.0} vs NT 4.0 {:.0}; unaligned {:.0} vs {:.0}",
            win95.get(HwEvent::SegmentLoads),
            nt40.get(HwEvent::SegmentLoads),
            win95.get(HwEvent::UnalignedAccesses),
            nt40.get(HwEvent::UnalignedAccesses)
        ),
        win95.get(HwEvent::SegmentLoads) > nt40.get(HwEvent::SegmentLoads) * 10.0
            && win95.get(HwEvent::UnalignedAccesses) > nt40.get(HwEvent::UnalignedAccesses) * 10.0,
    );

    let csv: Vec<Vec<f64>> = profiles
        .iter()
        .map(|(_, prof)| {
            let mut row = vec![prof.cycles];
            row.extend(FIG9_EVENTS.iter().map(|&e| prof.get(e)));
            row
        })
        .collect();
    report.csv(
        "fig9.csv",
        latlab_analysis::export::to_csv(
            &[
                "cycles",
                "instructions",
                "data_refs",
                "itlb",
                "dtlb",
                "segloads",
                "unaligned",
            ],
            &csv,
        ),
    );
    (report, profiles)
}
