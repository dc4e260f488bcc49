//! Figure 10 — hardware-counter measurements of the OLE edit start-up.
//!
//! §5.3: the OLE edit start with a *hot* buffer cache (disk effects
//! excluded). The paper noticed that *"all of the events and the cycle
//! counter increased steadily on subsequent runs"* (an apparent leak) and
//! therefore reported first-run numbers; our model reproduces the creep and
//! this harness likewise reports the first run. Findings: same latency
//! ordering as Figure 9, TLB misses ≥23% of the NT difference, 16-bit
//! signature on Windows 95.

use latlab_core::HwProfile;
use latlab_hw::HwEvent;
use latlab_os::{KeySym, OsProfile};

use crate::report::ExperimentReport;
use crate::runner::{deliver_key_and_settle, warm_powerpoint, RunConfig, FREQ};
use crate::scenarios::fig9::FIG9_EVENTS;

/// Measures the hot-cache OLE edit start on one OS (first run after the
/// cache is warmed by a prior session).
pub fn measure(cfg: &RunConfig, profile: OsProfile) -> HwProfile {
    latlab_core::sweep(
        &FIG9_EVENTS,
        1,
        move || {
            // Warm: open the first OLE session once and close it, then
            // pin the editor image and document in the buffer cache — the
            // paper engineered "a hot buffer cache" for this experiment.
            let mut m = warm_powerpoint(cfg.machine(profile.params()), 5);
            deliver_key_and_settle(&mut m, latlab_apps::OLE_EDIT_KEY);
            deliver_key_and_settle(&mut m, KeySym::Escape);
            for name in [
                latlab_apps::powerpoint::GRAPH_EXE_NAME,
                latlab_apps::powerpoint::DECK_NAME,
            ] {
                let f = m.find_file(name).expect("registered file");
                m.prime_cache(f);
            }
            m
        },
        |m, _| deliver_key_and_settle(m, latlab_apps::OLE_EDIT_KEY),
    )
}

/// Demonstrates the §5.3 creep: successive OLE sessions on one machine
/// cost steadily more CPU. Returns per-session cycle counts.
pub fn measure_creep(cfg: &RunConfig, profile: OsProfile, sessions: u32) -> Vec<f64> {
    let mut m = warm_powerpoint(cfg.machine(profile.params()), 5);
    // Burn through the three scripted warm-up sessions; the creep shows on
    // the repeated measurements beyond them.
    for _ in 0..3 {
        deliver_key_and_settle(&mut m, latlab_apps::OLE_EDIT_KEY);
        deliver_key_and_settle(&mut m, KeySym::Escape);
    }
    let mut cycles = Vec::new();
    for name in [
        latlab_apps::powerpoint::GRAPH_EXE_NAME,
        latlab_apps::powerpoint::DECK_NAME,
    ] {
        let f = m.find_file(name).expect("registered file");
        m.prime_cache(f);
    }
    for _ in 0..sessions {
        let before = m.read_cycle_counter();
        deliver_key_and_settle(&mut m, latlab_apps::OLE_EDIT_KEY);
        let after_open = m.read_cycle_counter();
        deliver_key_and_settle(&mut m, KeySym::Escape);
        // Exclude idle between: the settle leaves only the op busy time,
        // approximately; report open-phase cycles.
        cycles.push((after_open - before) as f64);
        // Idle a little between sessions.
        let t = m.now() + FREQ.ms(500);
        m.run_until(t);
    }
    cycles
}

/// Runs Figure 10 on all three systems.
pub fn run(cfg: &RunConfig) -> (ExperimentReport, Vec<(OsProfile, HwProfile)>) {
    let mut report = ExperimentReport::new(
        "fig10",
        "Counter measurements for the OLE edit start-up, hot cache (§5.3, Figure 10)",
    );
    let profiles: Vec<(OsProfile, HwProfile)> = OsProfile::ALL
        .into_iter()
        .map(|p| (p, measure(cfg, p)))
        .collect();

    report.line(format!(
        "  {:<16} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "system", "cycles", "instr", "ITLB", "DTLB", "segloads", "unaligned"
    ));
    for (p, prof) in &profiles {
        report.line(format!(
            "  {:<16} {:>12.0} {:>12.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            p.name(),
            prof.cycles,
            prof.get(HwEvent::Instructions),
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
        "NT 4.0 completes the operation with the shortest latency, then Windows 95, then NT 3.51",
        format!(
            "{:.0} < {:.0} < {:.0} cycles",
            nt40.cycles, win95.cycles, nt351.cycles
        ),
        nt40.cycles < win95.cycles && win95.cycles < nt351.cycles,
    );
    let extra_tlb = nt351.tlb_misses() - nt40.tlb_misses();
    let tlb_fraction = extra_tlb * 20.0 / (nt351.cycles - nt40.cycles);
    report.check(
        "TLB misses explain ≥23% of the NT difference",
        "elevated TLB miss rates account for at least 23% of the NT 3.51−NT 4.0 gap",
        format!("{:.0}%", tlb_fraction * 100.0),
        tlb_fraction >= 0.23,
    );
    report.check(
        "Win95 16-bit signature",
        "a large number of segment register loads and unaligned data accesses",
        format!(
            "segloads {:.0}, unaligned {:.0}",
            win95.get(HwEvent::SegmentLoads),
            win95.get(HwEvent::UnalignedAccesses)
        ),
        win95.get(HwEvent::SegmentLoads) > nt40.get(HwEvent::SegmentLoads) * 10.0,
    );

    // The creep phenomenon.
    let creep = measure_creep(cfg, OsProfile::Nt40, 4);
    report.line(format!(
        "  §5.3 creep (NT 4.0, successive OLE opens, cycles): {:?}",
        creep.iter().map(|c| *c as u64).collect::<Vec<_>>()
    ));
    report.check(
        "counts increase steadily on subsequent runs",
        "all of the events and the cycle counter increased steadily on subsequent runs",
        format!("{} sessions, each costlier than the last", creep.len()),
        creep.windows(2).all(|w| w[1] > w[0]),
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
        "fig10.csv",
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
