//! The parallel experiment engine: runs sets of scenarios across a job
//! pool with sequential-identical observable behaviour.
//!
//! This is the orchestration layer shared by the `repro` binary, the
//! `perf` harness, and the determinism tests. It owns the per-scenario
//! concerns that must compose with parallelism:
//!
//! * **run configuration** — each scenario gets its own [`RunConfig`]
//!   (fast-forward, fault plan, and a [`Recorder`] scoped to the scenario
//!   id), passed by argument to every machine it boots; trace file names
//!   and bytes, and the self-seeded injected faults, are therefore
//!   independent of scheduling;
//! * **artifacts** — each scenario writes its own `results/<id>/` subtree
//!   from its worker (disjoint paths, no coordination needed); write errors
//!   are carried back on the result instead of printed out of order;
//! * **ordering and isolation** — results are delivered to the caller in
//!   presentation order regardless of completion order, and a scenario
//!   that panics or exceeds the configured timeout becomes a structured
//!   [`ScenarioOutcome::Failed`] instead of tearing down the whole pass
//!   (see [`pool::run_supervised`]).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use latlab_faults::FaultPlan;

use crate::pool::JobOutcome;
use crate::record::Recorder;
use crate::report::ExperimentReport;
use crate::runner::RunConfig;
use crate::{pool, scenarios};

/// Configuration of an engine run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core, `1` means the
    /// plain sequential path.
    pub jobs: usize,
    /// Where to write CSV/JSON artifacts (`results/<id>/…`); `None` skips
    /// artifact writing.
    pub out_dir: Option<PathBuf>,
    /// Where to write binary `.ltrc` traces; `None` disables recording.
    pub record_dir: Option<PathBuf>,
    /// Fault plan to install into every session of every scenario; `None`
    /// runs fault-free.
    pub faults: Option<FaultPlan>,
    /// Per-scenario wall-clock budget; a scenario still running past it is
    /// abandoned and reported as [`ScenarioOutcome::Failed`]. `None` waits
    /// forever.
    pub timeout: Option<Duration>,
    /// Whether machines may batch idle-loop spans (the kernel's idle
    /// fast-forward). Defaults to `true`; the contract makes every
    /// observable byte-identical either way, so `false` exists only for
    /// benchmarking the step path and for equivalence audits
    /// (`--no-fastforward`).
    pub fastforward: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 0,
            out_dir: None,
            record_dir: None,
            faults: None,
            timeout: None,
            fastforward: true,
        }
    }
}

/// How one scenario ended.
#[derive(Debug)]
pub enum ScenarioOutcome {
    /// The scenario ran to completion (its shape checks may still fail).
    Completed {
        /// The reports the scenario produced (ablations yield several).
        reports: Vec<ExperimentReport>,
        /// Errors from artifact writing, if any (empty on success).
        artifact_errors: Vec<String>,
    },
    /// The scenario panicked or timed out; the rest of the pass continued.
    Failed {
        /// Human-readable cause ("panicked: …" or "timed out after …").
        reason: String,
    },
}

/// The outcome of one scenario plus run metadata.
#[derive(Debug)]
pub struct ScenarioRun {
    /// Scenario id.
    pub id: String,
    /// What happened.
    pub outcome: ScenarioOutcome,
    /// Wall-clock time of this scenario on its worker
    /// (`Duration::ZERO` for failed scenarios, keeping stdout summaries
    /// deterministic).
    pub wall: Duration,
}

impl ScenarioRun {
    /// The reports the scenario produced (empty if it failed).
    pub fn reports(&self) -> &[ExperimentReport] {
        match &self.outcome {
            ScenarioOutcome::Completed { reports, .. } => reports,
            ScenarioOutcome::Failed { .. } => &[],
        }
    }

    /// Artifact-write errors (empty if none, or if the scenario failed).
    pub fn artifact_errors(&self) -> &[String] {
        match &self.outcome {
            ScenarioOutcome::Completed {
                artifact_errors, ..
            } => artifact_errors,
            ScenarioOutcome::Failed { .. } => &[],
        }
    }

    /// The failure reason, if the scenario panicked or timed out.
    pub fn failure(&self) -> Option<&str> {
        match &self.outcome {
            ScenarioOutcome::Completed { .. } => None,
            ScenarioOutcome::Failed { reason } => Some(reason),
        }
    }

    /// Number of shape checks across all reports.
    pub fn total_checks(&self) -> usize {
        self.reports().iter().map(|r| r.checks.len()).sum()
    }

    /// Number of failed shape checks across all reports.
    pub fn failed_checks(&self) -> usize {
        self.reports()
            .iter()
            .flat_map(|r| &r.checks)
            .filter(|c| !c.passed)
            .count()
    }
}

/// Runs `ids` under `cfg`, invoking `on_done` for each scenario **in the
/// order given** (not completion order), and returns all outcomes in that
/// same order.
///
/// Every observable output — rendered report text, artifact files, trace
/// files — is byte-identical whatever `cfg.jobs` is; only wall-clock
/// metadata varies.
///
/// A scenario that panics or outlives `cfg.timeout` yields
/// [`ScenarioOutcome::Failed`] while every other scenario still runs to
/// completion; this function itself only panics on harness bugs (e.g. a
/// worker channel vanishing), never because scenario code panicked.
pub fn run_scenarios(
    ids: &[String],
    cfg: &EngineConfig,
    mut on_done: impl FnMut(&ScenarioRun),
) -> Vec<ScenarioRun> {
    let jobs = pool::resolve_jobs(cfg.jobs);
    let ids: Arc<Vec<String>> = Arc::new(ids.to_vec());
    let worker_ids = Arc::clone(&ids);
    let worker_cfg = Arc::new(cfg.clone());
    let mut out = Vec::with_capacity(ids.len());
    pool::run_supervised(
        jobs,
        ids.len(),
        cfg.timeout,
        move |i| run_one(&worker_ids[i], &worker_cfg),
        |i, outcome: JobOutcome<ScenarioRun>| {
            let run = match outcome {
                JobOutcome::Completed(run) => run,
                failed => ScenarioRun {
                    id: ids[i].clone(),
                    outcome: ScenarioOutcome::Failed {
                        reason: failed
                            .failure()
                            .unwrap_or_else(|| "unknown failure".to_owned()),
                    },
                    wall: Duration::ZERO,
                },
            };
            on_done(&run);
            out.push(run);
        },
    );
    out
}

/// Runs a single scenario under its own [`RunConfig`] (recording scoped
/// to the scenario id) and writes its artifacts; the unit of work the pool
/// schedules.
fn run_one(id: &str, cfg: &EngineConfig) -> ScenarioRun {
    let recorder = cfg.record_dir.as_ref().map(|dir| {
        Recorder::new(dir, id)
            .unwrap_or_else(|e| panic!("cannot create record directory {}: {e}", dir.display()))
    });
    let run_cfg = RunConfig {
        fastforward: cfg.fastforward,
        faults: cfg.faults.clone(),
        recorder,
    };
    let t0 = std::time::Instant::now();
    let reports = scenarios::run(id, &run_cfg);
    let wall = t0.elapsed();
    let mut artifact_errors = Vec::new();
    if let Some(out_dir) = &cfg.out_dir {
        for report in &reports {
            if let Err(e) = report.write_artifacts(out_dir) {
                artifact_errors.push(format!("{id}: failed to write artifacts: {e}"));
            }
        }
    }
    ScenarioRun {
        id: id.to_owned(),
        outcome: ScenarioOutcome::Completed {
            reports,
            artifact_errors,
        },
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_presentation_order() {
        let ids: Vec<String> = ["fig1", "fig4"].iter().map(|s| s.to_string()).collect();
        let cfg = EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        };
        let mut seen = Vec::new();
        let runs = run_scenarios(&ids, &cfg, |r| seen.push(r.id.clone()));
        assert_eq!(seen, ids);
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.failure().is_none()));
        assert!(runs.iter().all(|r| r.total_checks() > 0));
        assert!(runs.iter().all(|r| r.artifact_errors().is_empty()));
    }

    #[test]
    fn panicking_scenario_is_contained() {
        let ids: Vec<String> = ["fig1", "__panic__", "fig4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        };
        let runs = run_scenarios(&ids, &cfg, |_| {});
        assert_eq!(runs.len(), 3);
        assert!(runs[0].failure().is_none());
        let reason = runs[1].failure().expect("__panic__ must fail");
        assert!(reason.contains("panicked"), "reason: {reason}");
        assert!(reason.contains("deliberate panic"), "reason: {reason}");
        assert!(
            runs[2].failure().is_none(),
            "scenario after the panic must still complete"
        );
        assert!(runs[2].total_checks() > 0);
    }
}
