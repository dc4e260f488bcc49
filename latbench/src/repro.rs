//! `paper-repro`: the full 17-scenario `repro` pass, repeated in one
//! process on one worker, with no artifacts and no trace recording.
//!
//! The operation is one scenario run, as the engine times it; it comes in
//! 17 kinds, one per scenario, each deterministic. `op_ms` is a pass at
//! every scenario's [`fastest`](crate::stats::fastest) time, and
//! `op_tail_ms` the slow end of those times. The inputs are the paper's
//! fixed scripts, so the seed is not used.

use std::time::{Duration, Instant};

use latlab_bench::scenarios::ALL_IDS;
use latlab_bench::{run_scenarios, EngineConfig, ExperimentReport, ScenarioRun};

use crate::result::Outcome;
use crate::stats::{across_kinds, composite, ms};
use crate::SetupProbes;

/// Shape checks one pass must produce, all passing.
pub const SHAPE_CHECKS: usize = 93;

/// The workload's state after set-up: the engine configuration and the
/// reference reports of the warm-up pass.
pub struct Setup {
    ids: Vec<String>,
    cfg: EngineConfig,
    reference: Vec<String>,
}

/// One worker, no artifacts, no recording, fast-forward and fork at
/// their defaults: what a reader of the paper runs.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    }
}

/// Every scenario id in presentation order.
pub fn all_ids() -> Vec<String> {
    ALL_IDS.iter().map(|s| (*s).to_owned()).collect()
}

/// Everything a report must repeat exactly: its rendered text and CSV
/// artifacts.
pub fn fingerprint(report: &ExperimentReport) -> String {
    let mut text = report.render();
    for (name, csv) in &report.csv {
        text.push_str(name);
        text.push_str(csv);
    }
    text
}

/// The fingerprints of a pass's reports, in order.
pub fn pass_fingerprint(runs: &[ScenarioRun]) -> Vec<String> {
    runs.iter()
        .flat_map(|r| r.reports())
        .map(fingerprint)
        .collect()
}

/// Runs the warm-up pass, which fills caches and finishes lazy set-up and
/// whose reports every timed pass must reproduce.
pub fn setup() -> Setup {
    let ids = all_ids();
    let cfg = engine_config();
    let runs = run_scenarios(&ids, &cfg, |_| {});
    Setup {
        reference: pass_fingerprint(&runs),
        ids,
        cfg,
    }
}

/// Checks one pass: every scenario completed, all shape checks passed,
/// and the reports equal the warm-up pass's. Returns the failed scenarios.
pub fn check_pass(runs: &[ScenarioRun], reference: &[String], out: &mut Outcome) -> u64 {
    let mut failed = 0u64;
    for run in runs {
        let bad = run.failure().is_some() || run.failed_checks() > 0;
        out.check(!bad, || {
            format!(
                "scenario {} failed: {:?}, {} failed checks",
                run.id,
                run.failure(),
                run.failed_checks()
            )
        });
        failed += u64::from(bad);
    }
    let checks: usize = runs.iter().map(ScenarioRun::total_checks).sum();
    out.check(checks == SHAPE_CHECKS, || {
        format!("pass ran {checks} shape checks, expected {SHAPE_CHECKS}")
    });
    let same = pass_fingerprint(runs) == reference;
    out.check(same, || {
        "pass reports differ from the first pass".to_owned()
    });
    if !same && failed == 0 {
        failed = 1;
    }
    failed
}

/// The untraced run: passes until `budget` has gone to them, with the
/// set-up probes in between.
pub fn run(budget: Duration, probes: &mut SetupProbes) -> Result<Outcome, String> {
    let setup = setup();
    let mut out = Outcome::new();
    let mut passes = 0;
    let mut scenarios = vec![Vec::new(); setup.ids.len()];
    let mut timed = Duration::ZERO;
    while timed < budget || passes < 3 {
        let t0 = Instant::now();
        let runs = run_scenarios(&setup.ids, &setup.cfg, |_| {});
        timed += t0.elapsed();
        passes += 1;
        for (kind, run) in scenarios.iter_mut().zip(&runs) {
            kind.push(ms(run.wall));
        }
        out.attempted += runs.len() as u64;
        out.failed += check_pass(&runs, &setup.reference, &mut out);
        probes.tick(timed)?;
    }
    eprintln!("latbench: paper-repro: {passes} passes");
    out.metric("op_ms", composite(&scenarios), "ms");
    out.metric("op_tail_ms", across_kinds(&scenarios, 0.9), "ms");
    Ok(out)
}
