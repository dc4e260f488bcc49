//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--out DIR] [--record DIR] [--jobs N] [--faults SPEC]
//!       [--timeout SECS] [--no-fastforward] [--list] [id ...]
//! ```
//!
//! With no ids, every experiment runs in presentation order. Artifacts
//! (CSV + check results) are written under `--out` (default `results/`).
//! With `--record`, every standard run also streams its idle-loop stamps
//! and message-API log to binary trace files under the given directory
//! (inspect them with the `trace` binary).
//!
//! With `--faults`, every standard run installs the given fault plan
//! (e.g. `--faults "seed=7;storm:period=500;input:drop=100"`, or
//! `--faults @plan.toml` to load a TOML file). Plans carry their own seed,
//! so faulted runs are exactly as deterministic as clean ones.
//!
//! Scenarios are independent deterministic simulations, so they fan out
//! across `--jobs N` worker threads (default: one per core; `--jobs 1`
//! forces the plain sequential path). Reports are printed in presentation
//! order whatever the parallelism: stdout, artifacts, and the exit code
//! are byte-identical between `--jobs 1` and `--jobs N`. Per-scenario
//! wall-clock (which *does* vary run to run) goes to stderr.
//!
//! A scenario that panics — or exceeds `--timeout SECS` — is reported as
//! `FAILED` while every other scenario still runs to completion; the exit
//! code is non-zero only after the whole pass finishes.
//!
//! Each scenario runs under its own run configuration (fast-forward, fault
//! plan, and a recorder scoped to the scenario id), handed to every
//! machine it boots — nothing is carried between scenarios on a worker.
//!
//! `--no-fastforward` disables the kernel's batched idle-loop simulation
//! on every machine, calibration scratch machines included. The
//! fast-forward contract makes every output byte-identical either way
//! (stdout, artifacts, traces); the flag exists for equivalence audits and
//! for benchmarking the step-by-step path (compare `--jobs 1` wall clock
//! on stderr with and without it).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use latlab_bench::{engine, scenarios};
use latlab_core::cli;
use latlab_faults::FaultPlan;

const BIN: &str = "repro";

const USAGE: &str = "\
usage: repro [--out DIR] [--record DIR] [--jobs N] [--faults SPEC|@FILE]
             [--timeout SECS] [--no-fastforward] [--list] [id ...]";

/// Parses `--faults` input: an inline spec string, or `@FILE` naming a
/// TOML plan file.
fn parse_faults(arg: &str) -> Result<FaultPlan, String> {
    if let Some(path) = arg.strip_prefix('@') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        FaultPlan::parse_toml(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        FaultPlan::parse(arg).map_err(|e| e.to_string())
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut cfg = engine::EngineConfig {
        out_dir: Some(PathBuf::from("results")),
        ..engine::EngineConfig::default()
    };
    let mut ids: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Result<String, ExitCode> {
            args.next()
                .ok_or_else(|| cli::usage_error(BIN, &format!("{what} requires a value"), USAGE))
        };
        match arg.as_str() {
            "--version" => return cli::print_version(BIN),
            "--out" => match take("--out") {
                Ok(v) => cfg.out_dir = Some(PathBuf::from(v)),
                Err(code) => return code,
            },
            "--record" => match take("--record") {
                Ok(v) => cfg.record_dir = Some(PathBuf::from(v)),
                Err(code) => return code,
            },
            "--jobs" => {
                let n = match take("--jobs") {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => cfg.jobs = n,
                    _ => {
                        return cli::usage_error(
                            BIN,
                            &format!("--jobs requires a positive integer, got {n:?}"),
                            USAGE,
                        )
                    }
                }
            }
            "--faults" => {
                let spec = match take("--faults") {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                match parse_faults(&spec) {
                    Ok(plan) => cfg.faults = Some(plan),
                    Err(e) => {
                        return cli::usage_error(BIN, &format!("--faults: {e}"), USAGE);
                    }
                }
            }
            "--timeout" => {
                let n = match take("--timeout") {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                match n.parse::<u64>() {
                    Ok(n) if n > 0 => cfg.timeout = Some(Duration::from_secs(n)),
                    _ => {
                        return cli::usage_error(
                            BIN,
                            &format!("--timeout requires a positive integer, got {n:?}"),
                            USAGE,
                        )
                    }
                }
            }
            "--no-fastforward" => {
                cfg.fastforward = false;
            }
            "--list" => {
                for id in scenarios::ALL_IDS {
                    println!("{id:<10} {}", scenarios::description(id));
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                println!(
                    "ids (see --list for descriptions): {:?}",
                    scenarios::ALL_IDS
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                return cli::usage_error(BIN, &format!("unknown argument {flag:?}"), USAGE)
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids = scenarios::ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    // `__`-prefixed ids are hidden harness-test hooks (e.g. `__panic__`);
    // they bypass validation so robustness tests can drive the real binary.
    if let Some(bad) = ids
        .iter()
        .find(|id| !scenarios::ALL_IDS.contains(&(id.as_str())) && !id.starts_with("__"))
    {
        return cli::usage_error(
            BIN,
            &format!(
                "unknown experiment id {bad:?} (known ids: {:?})",
                scenarios::ALL_IDS
            ),
            USAGE,
        );
    }
    if let Some(dir) = &cfg.record_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return cli::runtime_error(
                BIN,
                &format!("cannot create record directory {}: {e}", dir.display()),
            );
        }
    }

    println!("latlab repro — Endo, Wang, Chen, Seltzer: Using Latency to Evaluate");
    println!("Interactive System Performance (OSDI '96), simulated reproduction\n");
    if let Some(plan) = &cfg.faults {
        println!("fault injection active: {plan:?}\n");
    }

    let mut failed_checks = 0usize;
    let mut total_checks = 0usize;
    let mut failed_scenarios = 0usize;
    let out_dir = cfg
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
    engine::run_scenarios(&ids, &cfg, |run| {
        if let Some(reason) = run.failure() {
            // Deterministic record of the failure on stdout; the pass
            // continues with the remaining scenarios.
            println!("==== {} FAILED: {reason} ====\n", run.id);
            failed_scenarios += 1;
            return;
        }
        for report in run.reports() {
            println!("{}", report.render());
        }
        println!();
        for e in run.artifact_errors() {
            eprintln!("  ({e})");
        }
        // Wall-clock is inherently non-deterministic, so it goes to stderr;
        // stdout stays byte-identical across runs and job counts.
        eprintln!("  [{} completed in {:.2?}]", run.id, run.wall);
        total_checks += run.total_checks();
        failed_checks += run.failed_checks();
    });
    println!(
        "==== summary: {}/{} shape checks passed; {} scenario(s) failed; artifacts in {} ====",
        total_checks - failed_checks,
        total_checks,
        failed_scenarios,
        out_dir.display()
    );
    if failed_checks > 0 || failed_scenarios > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
