//! Parameter-sweep CLI: quantify a cost parameter's effect on a latency
//! metric.
//!
//! ```text
//! sweep --os nt351 --param crossing-instr --metric pagedown \
//!       --values 1000,2500,5000,10000 --reps 3
//! ```
//!
//! Sweeps run the prefix-sharing fork engine by default (`--no-fork`
//! re-simulates every point and repetition from scratch; the printed
//! results are bit-identical either way — fork accounting goes to
//! stderr so stdout and `--csv` output can be diffed across modes).
//! Sweep machines always run with idle fast-forward on.
//!
//! Usage errors exit 2; a sweep whose points fail exits 1.

use std::io::Write as _;
use std::process::ExitCode;

use latlab_bench::pool::JobOutcome;
use latlab_bench::sweep::{run_sweep_supervised, SweepMetric, SweepParam};
use latlab_bench::{forkcfg, sweep::SweepPoint};
use latlab_core::cli;
use latlab_os::OsProfile;

const BIN: &str = "sweep";

fn usage_text() -> String {
    format!(
        "usage: sweep --os <nt351|nt40|win95> --param <name> --metric <name> \
         --values a,b,c [--reps N] [--jobs N] [--csv FILE] [--no-fork] \
         [--list]\n\
         params:  {}\nmetrics: {}",
        SweepParam::ALL.map(|p| p.name()).join(", "),
        SweepMetric::ALL.map(|m| m.name()).join(", ")
    )
}

/// `--list`: the sweepable parameters with their stock value under every
/// profile, plus the available metrics.
fn print_list() {
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "param", "nt351", "nt40", "win95"
    );
    for p in SweepParam::ALL {
        println!(
            "{:<22} {:>12} {:>12} {:>12}",
            p.name(),
            p.stock(OsProfile::Nt351),
            p.stock(OsProfile::Nt40),
            p.stock(OsProfile::Win95)
        );
    }
    println!();
    println!("metrics: {}", SweepMetric::ALL.map(|m| m.name()).join(", "));
}

fn write_csv(
    path: &str,
    param: SweepParam,
    metric: SweepMetric,
    points: &[(u64, Option<SweepPoint>)],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{},{}_{}", param.name(), metric.name(), metric.unit())?;
    for (value, point) in points {
        match point {
            Some(p) => writeln!(f, "{},{}", value, p.metric)?,
            None => writeln!(f, "{value},failed")?,
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut os = OsProfile::Nt40;
    let mut param = None;
    let mut metric = None;
    let mut values: Vec<u64> = Vec::new();
    let mut reps = 1usize;
    let mut jobs = 0usize;
    let mut fork = true;
    let mut csv: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let usage = |msg: &str| cli::usage_error(BIN, msg, &usage_text());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--version" => return cli::print_version(BIN),
            "--no-fork" => fork = false,
            "--list" => {
                print_list();
                return ExitCode::SUCCESS;
            }
            "--jobs" => {
                jobs = match args.next().and_then(|n| n.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => return usage("--jobs requires a positive integer"),
                }
            }
            "--reps" => {
                reps = match args.next().and_then(|n| n.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => return usage("--reps requires a positive integer"),
                }
            }
            "--csv" => {
                csv = match args.next() {
                    Some(p) => Some(p),
                    None => return usage("--csv requires a file path"),
                }
            }
            "--os" => {
                os = match args.next().as_deref() {
                    Some("nt351") => OsProfile::Nt351,
                    Some("nt40") => OsProfile::Nt40,
                    Some("win95") => OsProfile::Win95,
                    other => return usage(&format!("unknown OS {other:?}")),
                }
            }
            "--param" => {
                param = match args.next() {
                    Some(n) => match SweepParam::parse(&n) {
                        Some(p) => Some(p),
                        None => return usage(&format!("unknown parameter {n:?}")),
                    },
                    None => return usage("--param requires a value"),
                }
            }
            "--metric" => {
                metric = match args.next() {
                    Some(n) => match SweepMetric::parse(&n) {
                        Some(m) => Some(m),
                        None => return usage(&format!("unknown metric {n:?}")),
                    },
                    None => return usage("--metric requires a value"),
                }
            }
            "--values" => {
                let Some(list) = args.next() else {
                    return usage("--values requires a comma-separated list");
                };
                values.clear();
                for v in list.split(',') {
                    match v.trim().parse() {
                        Ok(v) => values.push(v),
                        Err(_) => return usage(&format!("bad value {v:?} in --values")),
                    }
                }
            }
            "--help" | "-h" => {
                println!("{}", usage_text());
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(param), Some(metric)) = (param, metric) else {
        return usage("--param and --metric are required");
    };
    if values.is_empty() {
        // Default: stock value halved, stock, doubled, quadrupled.
        let stock = param.stock(os);
        values = vec![stock / 2, stock, stock * 2, stock * 4];
        values.retain(|&v| v > 0);
    }
    println!(
        "sweeping {} on {} against {} (stock {}):\n",
        param.name(),
        os.name(),
        metric.name(),
        param.stock(os)
    );
    // Supervised: a point that panics is reported below, after every other
    // point has still been measured; only then does the exit code go red.
    // The fork setting is read on this thread, before points fan out.
    let _fork = forkcfg::override_default(fork);
    let (outcomes, stats) = run_sweep_supervised(os, param, metric, &values, reps, jobs, None);
    let max = outcomes
        .iter()
        .filter_map(|(_, o)| match o {
            JobOutcome::Completed(p) => Some(p.metric),
            _ => None,
        })
        .fold(0.0f64, f64::max);
    let mut failed = 0usize;
    let mut rows: Vec<(u64, Option<SweepPoint>)> = Vec::with_capacity(outcomes.len());
    for (value, outcome) in &outcomes {
        match outcome {
            JobOutcome::Completed(p) => {
                let bar = "#".repeat(((p.metric / max.max(1e-9)) * 40.0).round() as usize);
                println!(
                    "  {:>10} → {:>10.3} {} {}",
                    p.value,
                    p.metric,
                    metric.unit(),
                    bar
                );
                rows.push((*value, Some(*p)));
            }
            other => {
                failed += 1;
                println!(
                    "  {:>10} → FAILED ({})",
                    value,
                    other.failure().unwrap_or_default()
                );
                rows.push((*value, None));
            }
        }
    }
    // Fork accounting goes to stderr: stdout stays byte-identical between
    // forked and --no-fork runs, so CI can diff the two modes.
    eprintln!(
        "fork stats: {} point(s) forked, {} from scratch; {} rep(s) restored, {} re-simulated",
        stats.forked_points, stats.scratch_points, stats.forked_reps, stats.scratch_reps
    );
    if let Some(path) = csv {
        if let Err(e) = write_csv(&path, param, metric, &rows) {
            return cli::runtime_error(BIN, &format!("cannot write {path}: {e}"));
        }
    }
    if failed > 0 {
        return cli::runtime_error(BIN, &format!("{failed} point(s) failed"));
    }
    ExitCode::SUCCESS
}
