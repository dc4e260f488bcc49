//! latlab's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path latbench/Cargo.toml -- \
//!     --workload <paper-repro|param-sweep|telemetry-mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs (`--trace 0`) time whole operations from outside through
//! the crates' public functions and print the end-to-end metrics. Traced
//! runs (`--trace 1`) re-compose the same operations from public calls with
//! a span around each layer boundary and print the per-layer metrics.
//! Either way the last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `latbench/README.md` for the workloads and the metric definitions.

mod layers;
mod repro;
mod result;
mod span;
mod stats;
mod sweep;
mod telemetry;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use result::Outcome;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The full 17-scenario `repro` pass on one worker.
    PaperRepro,
    /// The full sweep grid for fig5-word and fig7-notepad on one worker.
    ParamSweep,
    /// Open-loop uploads beside open-loop queries against an in-process
    /// server with its WAL on.
    TelemetryMix,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperRepro,
        Workload::ParamSweep,
        Workload::TelemetryMix,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperRepro => "paper-repro",
            Workload::ParamSweep => "param-sweep",
            Workload::TelemetryMix => "telemetry-mix",
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run only the workload's set-up, print `ready`, exit.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_PROBES: u32 = 5;

/// Times fresh processes of this benchmark from spawn until each reports
/// that its set-up is done, the moment a real run would start its first
/// timed operation. Fresh processes, so one-off per-process costs (page
/// faults, lazy statics, allocator growth) land in set-up where they
/// belong. The simulator workloads spread the probes over their timed
/// phase, between operations, so that one busy moment of a shared host
/// cannot slow them all.
pub struct SetupProbes {
    exe: PathBuf,
    workload: Workload,
    seed: u64,
    budget: Duration,
    secs: Vec<f64>,
}

impl SetupProbes {
    fn new(args: &Args) -> Result<SetupProbes, String> {
        Ok(SetupProbes {
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            workload: args.workload,
            seed: args.seed,
            budget: Duration::from_secs(args.seconds),
            secs: Vec::new(),
        })
    }

    /// Runs the probes that are due once `timed` of the run's budget has
    /// gone to timed operations.
    pub fn tick(&mut self, timed: Duration) -> Result<(), String> {
        while self.secs.len() < SETUP_PROBES as usize
            && timed >= self.budget * self.secs.len() as u32 / SETUP_PROBES
        {
            self.probe()?;
        }
        Ok(())
    }

    fn probe(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        let mut child = Command::new(&self.exe)
            .args(["--workload", self.workload.name()])
            .args(["--seed", &self.seed.to_string()])
            .arg("--setup-probe")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = t0.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait set-up probe: {e}"))?;
        match read {
            Ok(_) if line.trim() == "ready" && status.success() => {
                self.secs.push(elapsed);
                Ok(())
            }
            _ => Err(format!("set-up probe failed ({status}): {line:?}")),
        }
    }

    /// Runs the probes still due and returns every probe's time, s.
    fn finish(mut self) -> Result<Vec<f64>, String> {
        while self.secs.len() < SETUP_PROBES as usize {
            self.probe()?;
        }
        Ok(self.secs)
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        return layers::run(args.workload, args.seed, budget);
    }
    let mut probes = SetupProbes::new(args)?;
    let mut outcome = match args.workload {
        Workload::PaperRepro => repro::run(budget, &mut probes)?,
        Workload::ParamSweep => sweep::run(budget, &mut probes)?,
        Workload::TelemetryMix => telemetry::run(args.seed, budget)?,
    };
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let setups = probes.finish()?;
    eprintln!("latbench: set-up probes (s): {setups:?}");
    outcome.metric("setup_s", stats::median(&setups), "s");
    Ok(outcome)
}

fn setup_only(args: &Args) -> Result<(), String> {
    let ready = || {
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "ready");
        let _ = out.flush();
    };
    match args.workload {
        Workload::PaperRepro => {
            let _state = repro::setup();
            ready();
        }
        Workload::ParamSweep => {
            let _state = sweep::setup();
            ready();
        }
        Workload::TelemetryMix => {
            let state = telemetry::setup(args.seed, true)?;
            ready();
            state.teardown()?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("latbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match setup_only(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("latbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("latbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
