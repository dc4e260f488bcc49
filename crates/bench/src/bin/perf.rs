//! Self-measurement: times the experiment suite itself and emits a
//! machine-readable perf trajectory file.
//!
//! The paper's thesis is that latency is what the user feels — and the
//! experimenter is a user too. This harness measures the tool's own
//! latency so every future change has a baseline to answer to:
//!
//! ```text
//! perf [--out FILE] [--iters N] [--jobs N] [--no-fastforward]
//!      [--sweep-reps N] [--baseline FILE] [--tolerance PCT] [id ...]
//! ```
//!
//! For each scenario it reports per-run wall clock (min and mean over
//! `--iters` runs) and runs/second; for the whole set it reports the
//! sequential total, the pooled total under `--jobs` workers (default:
//! one per detected core — the pooled pass is pointless without real
//! parallelism), the speedup, and peak RSS. An **ingest section** then
//! benchmarks the `latlab-serve` telemetry path on loopback: a local
//! server, `--ingest-connections` concurrent uploaders replaying a
//! synthetic corpus for `--ingest-secs`, and a prober measuring query
//! latency under that load (`--ingest-secs 0` skips it). A durability
//! pass then repeats the load with the write-ahead log on, crashes the
//! server, and times the restart's log replay — the cost of crash-safety
//! and the speed of recovery, side by side with the WAL-off figures.
//! A **sweep section** then times the prefix-sharing sweep engine: a
//! full parameter grid (every sweepable parameter × 5 values ×
//! `--sweep-reps` repetitions, default 5) on the warm Word and Notepad
//! editing metrics, with snapshot forking and from scratch (min wall
//! clock over 3 timed passes each), asserting the two produce
//! bit-identical points and recording the wall-clock speedup
//! (`--sweep-reps 0` skips it).
//! Results land in `BENCH_repro.json` (override with `--out`) — the
//! repo-root perf-trajectory file CI regenerates on every run as a
//! regression gate.
//!
//! With `--baseline FILE`, the fresh per-scenario `wall_ms_min` values are
//! compared against the committed baseline and the run fails if any
//! scenario regressed by more than `--tolerance` percent (default 25).
//! When both the baseline and the fresh run carry an ingest section, the
//! gate also fails on ingest throughput drops or query-p99 growth beyond
//! the same tolerance; when both carry a durability subsection, the
//! WAL-on throughput is gated the same way (the WAL-overhead gate). A
//! fresh sweep section is gated against an absolute fork-speedup floor
//! (and against the baseline's speedup, when it has one). A baseline
//! section written as `null` (e.g. by `--ingest-secs 0`) yields no gate
//! for it; a present but malformed section is a parse error.
//!
//! `--no-fastforward` times the step-by-step idle path instead of the
//! batched one — the two produce byte-identical results, so the delta is
//! pure simulator overhead (this is how the fast-forward speedup itself
//! is measured).

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use latlab_analysis::{EventClass, LatencySketch};
use latlab_bench::{engine, pool, scenarios, RunConfig};
use latlab_core::cli;
use latlab_serve::{merge_full, slam, QueryPlane, ServeConfig, Server, ShardSnapshot};
use serde::{Deserialize, Serialize};

const BIN: &str = "perf";

const USAGE: &str = "\
usage: perf [--out FILE] [--iters N] [--jobs N] [--no-fastforward]
            [--ingest-secs N] [--ingest-connections N]
            [--sweep-reps N] [--baseline FILE] [--tolerance PCT] [id ...]";

/// Per-scenario timing entry.
#[derive(Serialize)]
struct ScenarioBench {
    id: String,
    description: String,
    wall_ms_min: f64,
    wall_ms_mean: f64,
    runs_per_sec: f64,
    checks: usize,
    failed_checks: usize,
}

/// Loopback benchmark of the `latlab-serve` telemetry path: concurrent
/// uploaders slamming a local server while a prober times queries. The
/// headline figures (`mb_per_sec`, query percentiles) come from the
/// default columnar batch decode path; `scalar_mb_per_sec` is a second
/// run of the same load against the per-record reference path. The
/// `pipeline_*` figures isolate the server-side pipeline — decode,
/// sample extraction, sketch fold over the same recorded corpus,
/// no sockets — where the two paths differ; `batch_speedup` is their
/// ratio (the loopback numbers fold in client and kernel time that is
/// identical for both paths).
#[derive(Serialize)]
struct IngestBench {
    connections: usize,
    duration_s: f64,
    uploads_done: u64,
    uploads_busy: u64,
    upload_retries: u64,
    upload_errors: u64,
    records_acked: u64,
    mb_per_sec: f64,
    scalar_mb_per_sec: f64,
    pipeline_batch_mb_per_sec: f64,
    pipeline_scalar_mb_per_sec: f64,
    batch_speedup: f64,
    query_p50_ms: f64,
    query_p99_ms: f64,
    /// Durability cost and recovery speed; absent when the WAL pass is
    /// skipped.
    durability: Option<DurabilityBench>,
}

/// The price of crash-safety, measured: the same slam load with the
/// write-ahead log on (and uploads on the resumable/acked path), the
/// throughput ratio against the WAL-off headline figure, and how fast a
/// post-crash restart replays the log it left behind.
#[derive(Serialize)]
struct DurabilityBench {
    wal_mb_per_sec: f64,
    /// `wal_mb_per_sec / mb_per_sec` — 1.0 means the log is free.
    wal_overhead_ratio: f64,
    reconnects: u64,
    recovered_frames: u64,
    recovered_records: u64,
    recovery_ms: f64,
    recovery_records_per_sec: f64,
}

/// The query-plane benchmark: how much the incremental cached view
/// saves over the per-query full merge it replaced, plus query latency
/// under concurrent ingest at several scenario cardinalities.
#[derive(Serialize)]
struct QueryBench {
    /// Scenario count of the synthetic snapshot set the micro-benchmark
    /// merges.
    cold_scenarios: usize,
    /// Shards in the synthetic snapshot set.
    cold_shards: usize,
    /// Per-query cost of the reference full merge (what every query
    /// used to pay).
    cold_merge_ms: f64,
    /// Per-refresh cost of the incremental plane with exactly one dirty
    /// scenario (what a query pays now, right after a publish).
    incremental_refresh_ms: f64,
    /// `cold_merge_ms / incremental_refresh_ms` — the tentpole figure.
    incremental_speedup: f64,
    /// Query latency under concurrent slam ingest, one entry per
    /// scenario cardinality.
    loads: Vec<QueryLoadBench>,
}

/// One scenario-cardinality point of the under-load query benchmark.
#[derive(Serialize)]
struct QueryLoadBench {
    /// Distinct scenario names the ingest load fanned out over.
    scenarios: usize,
    /// Probes completed across all verbs.
    queries: u64,
    /// All-verb round-trip p50 (ms).
    query_p50_ms: f64,
    /// All-verb round-trip p99 (ms).
    query_p99_ms: f64,
    /// `PCTL` round-trip p99 (ms) — memoized quantile lookup.
    pctl_p99_ms: f64,
    /// `SNAPSHOT` round-trip p99 (ms) — whole-view serialization.
    snapshot_p99_ms: f64,
    /// `HEALTH` round-trip p99 (ms) — precomputed totals.
    health_p99_ms: f64,
}

/// The sweep-engine benchmark: wall clock of a full parameter grid
/// (every sweepable parameter × 5 values × `reps` repetitions) on the
/// warm editing metrics, forked vs scratch. The forked pass shares one
/// stock-prefix snapshot across the whole grid; the scratch pass
/// (`--no-fork` semantics) re-simulates every point and repetition. The
/// two passes' points are asserted bit-identical before the speedup is
/// recorded.
#[derive(Serialize)]
struct SweepBench {
    /// Repetitions per point in both passes.
    reps: usize,
    /// One entry per (profile, metric) pair.
    entries: Vec<SweepEntryBench>,
    /// Smallest per-entry fork speedup — the gated figure.
    fork_speedup_min: f64,
}

/// One (profile, metric) grid of the sweep benchmark.
#[derive(Serialize)]
struct SweepEntryBench {
    /// Stable id (`fig5-word`, `fig7-notepad`).
    id: String,
    /// OS profile name.
    os: String,
    /// Sweep metric name.
    metric: String,
    /// Grid points (params × values).
    points: usize,
    /// Points whose prefix forked from the shared stock snapshot.
    forked_points: usize,
    /// Points that re-simulated their prefix (parameter read during it).
    scratch_points: usize,
    /// Wall clock of the scratch pass (every point and rep from scratch).
    scratch_ms: f64,
    /// Wall clock of the forked pass.
    forked_ms: f64,
    /// `scratch_ms / forked_ms`.
    fork_speedup: f64,
}

/// The whole trajectory datapoint.
#[derive(Serialize)]
struct BenchReport {
    schema: String,
    /// Scenario timings, sequential, `iters` runs each.
    scenarios: Vec<ScenarioBench>,
    iters: usize,
    /// Sum of per-scenario mean wall clocks (the sequential cost of the set).
    seq_total_ms: f64,
    /// One full run of the set through the job pool with `jobs_pooled`
    /// workers.
    parallel_total_ms: f64,
    /// Workers in the sequential pass (always 1; recorded so the file is
    /// self-describing).
    jobs_seq: usize,
    /// Workers in the pooled pass.
    jobs_pooled: usize,
    speedup: f64,
    /// Whether the kernel's idle fast-forward was active during timing.
    fastforward: bool,
    /// Peak resident set size of this process, if the platform exposes it.
    peak_rss_kb: Option<u64>,
    /// Loopback ingest/query benchmark; absent when `--ingest-secs 0`.
    ingest: Option<IngestBench>,
    /// Query-plane benchmark; absent when `--ingest-secs 0`.
    query: Option<QueryBench>,
    /// Sweep-engine benchmark; absent when `--sweep-reps 0`.
    sweep: Option<SweepBench>,
}

/// The gated figures of a `--baseline` perf report. Unknown JSON fields
/// are ignored; a section the baseline wrote as `null` is `None` and
/// yields no gate, while a present but malformed section fails the parse.
#[derive(Deserialize)]
struct Baseline {
    scenarios: Vec<BaselineScenario>,
    ingest: Option<BaselineIngest>,
    query: Option<BaselineQuery>,
    sweep: Option<BaselineSweep>,
}

/// Per-scenario slice of a baseline file.
#[derive(Deserialize)]
struct BaselineScenario {
    id: String,
    wall_ms_min: f64,
}

/// The ingest figures the gate compares.
#[derive(Deserialize)]
struct BaselineIngest {
    mb_per_sec: f64,
    query_p99_ms: f64,
    durability: Option<BaselineDurability>,
}

/// The durability figure the gate compares.
#[derive(Deserialize)]
struct BaselineDurability {
    wal_mb_per_sec: f64,
}

/// The query figures the gate compares.
#[derive(Deserialize)]
struct BaselineQuery {
    loads: Vec<BaselineQueryLoad>,
}

/// One baseline load point, matched to the fresh run by scenario count.
#[derive(Deserialize)]
struct BaselineQueryLoad {
    scenarios: usize,
    query_p99_ms: f64,
}

/// The sweep figures the gate compares.
#[derive(Deserialize)]
struct BaselineSweep {
    entries: Vec<BaselineSweepEntry>,
}

/// The sweep figure the gate compares, matched to the fresh run by id.
#[derive(Deserialize)]
struct BaselineSweepEntry {
    id: String,
    fork_speedup: f64,
}

/// Peak RSS of the current process in kB (`VmHWM`), Linux only.
fn peak_rss_kb() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Absolute slowdown below which a percentage regression is treated as
/// timer/scheduler noise rather than a real hot-path change. Sub-millisecond
/// scenarios can double from one run to the next on a shared runner; a real
/// regression on them still surfaces through the scenarios that run long
/// enough to measure.
const GATE_NOISE_FLOOR_MS: f64 = 2.0;

/// Compares fresh timings against a committed baseline; returns the list
/// of scenarios that regressed beyond `tolerance_pct`.
fn gate_against_baseline(
    baseline: &Baseline,
    fresh: &[ScenarioBench],
    tolerance_pct: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for base in &baseline.scenarios {
        let Some(now) = fresh.iter().find(|e| e.id == base.id) else {
            // Scenario absent from this run (subset invocation or removed);
            // nothing to gate.
            continue;
        };
        if base.wall_ms_min <= 0.0 {
            continue;
        }
        let ratio = now.wall_ms_min / base.wall_ms_min;
        let delta_pct = (ratio - 1.0) * 100.0;
        let delta_ms = now.wall_ms_min - base.wall_ms_min;
        let regressed = delta_pct > tolerance_pct && delta_ms > GATE_NOISE_FLOOR_MS;
        let verdict = if regressed {
            "REGRESSED"
        } else if delta_pct > tolerance_pct {
            "ok (below noise floor)"
        } else {
            "ok"
        };
        eprintln!(
            "  gate {:<10} {:>9.2} ms vs baseline {:>9.2} ms ({delta_pct:+.1}%) {verdict}",
            base.id, now.wall_ms_min, base.wall_ms_min
        );
        if regressed {
            regressions.push(format!(
                "{}: {:.2} ms vs baseline {:.2} ms ({delta_pct:+.1}% > {tolerance_pct}%)",
                base.id, now.wall_ms_min, base.wall_ms_min
            ));
        }
    }
    regressions
}

/// Noise floors for the ingest gate. Loopback throughput on a shared
/// runner jitters far more than scenario wall clocks, so a percentage
/// regression only counts when the absolute movement is also large.
/// Query p99 under full ingest load is the noisiest figure of all (it is
/// one scheduler hiccup at the tail); its floor is set so only a genuine
/// stall on the query path — e.g. a query blocking behind ingest — trips
/// the gate, not runner jitter.
const INGEST_NOISE_FLOOR_MB_S: f64 = 10.0;
const INGEST_NOISE_FLOOR_MS: f64 = 50.0;

/// Compares the fresh ingest figures against the baseline's; returns
/// regression descriptions (empty = pass).
fn gate_ingest(base: &BaselineIngest, now: &IngestBench, tolerance_pct: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    if base.mb_per_sec > 0.0 {
        let delta_pct = (now.mb_per_sec / base.mb_per_sec - 1.0) * 100.0;
        let drop_abs = base.mb_per_sec - now.mb_per_sec;
        let regressed = -delta_pct > tolerance_pct && drop_abs > INGEST_NOISE_FLOOR_MB_S;
        eprintln!(
            "  gate ingest     {:>9.1} MB/s vs baseline {:>9.1} MB/s ({delta_pct:+.1}%) {}",
            now.mb_per_sec,
            base.mb_per_sec,
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            regressions.push(format!(
                "ingest throughput: {:.1} MB/s vs baseline {:.1} MB/s \
                 ({delta_pct:+.1}% beyond {tolerance_pct}%)",
                now.mb_per_sec, base.mb_per_sec
            ));
        }
    }
    if base.query_p99_ms > 0.0 && now.query_p99_ms > 0.0 {
        let delta_pct = (now.query_p99_ms / base.query_p99_ms - 1.0) * 100.0;
        let delta_ms = now.query_p99_ms - base.query_p99_ms;
        let regressed = delta_pct > tolerance_pct && delta_ms > INGEST_NOISE_FLOOR_MS;
        eprintln!(
            "  gate query p99  {:>9.2} ms vs baseline {:>9.2} ms ({delta_pct:+.1}%) {}",
            now.query_p99_ms,
            base.query_p99_ms,
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            regressions.push(format!(
                "query p99: {:.2} ms vs baseline {:.2} ms ({delta_pct:+.1}% > {tolerance_pct}%)",
                now.query_p99_ms, base.query_p99_ms
            ));
        }
    }
    regressions
}

/// Compares WAL-on throughput against the baseline's; returns regression
/// descriptions (empty = pass). Same noise floor as the plain ingest
/// gate — this is the WAL-overhead gate: it trips when logging got
/// expensive, not when the runner got slow (the plain figure gates that).
fn gate_durability(
    base: &BaselineDurability,
    now: &DurabilityBench,
    tolerance_pct: f64,
) -> Vec<String> {
    if base.wal_mb_per_sec <= 0.0 {
        return Vec::new();
    }
    let delta_pct = (now.wal_mb_per_sec / base.wal_mb_per_sec - 1.0) * 100.0;
    let drop_abs = base.wal_mb_per_sec - now.wal_mb_per_sec;
    let regressed = -delta_pct > tolerance_pct && drop_abs > INGEST_NOISE_FLOOR_MB_S;
    eprintln!(
        "  gate wal ingest {:>9.1} MB/s vs baseline {:>9.1} MB/s ({delta_pct:+.1}%) {}",
        now.wal_mb_per_sec,
        base.wal_mb_per_sec,
        if regressed { "REGRESSED" } else { "ok" }
    );
    if regressed {
        vec![format!(
            "WAL ingest throughput: {:.1} MB/s vs baseline {:.1} MB/s \
             ({delta_pct:+.1}% beyond {tolerance_pct}%)",
            now.wal_mb_per_sec, base.wal_mb_per_sec
        )]
    } else {
        Vec::new()
    }
}

/// Compares query p99 under load against the baseline's, per matching
/// scenario cardinality; returns regression descriptions (empty =
/// pass). Same noise floor as the ingest query-p99 gate — a tail probe
/// under full load is one scheduler hiccup away from doubling.
fn gate_query(base: &BaselineQuery, now: &QueryBench, tolerance_pct: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    for b in &base.loads {
        let Some(n) = now.loads.iter().find(|l| l.scenarios == b.scenarios) else {
            continue;
        };
        if b.query_p99_ms <= 0.0 || n.query_p99_ms <= 0.0 {
            continue;
        }
        let delta_pct = (n.query_p99_ms / b.query_p99_ms - 1.0) * 100.0;
        let delta_ms = n.query_p99_ms - b.query_p99_ms;
        let regressed = delta_pct > tolerance_pct && delta_ms > INGEST_NOISE_FLOOR_MS;
        eprintln!(
            "  gate query@{:<5} {:>8.2} ms vs baseline {:>8.2} ms ({delta_pct:+.1}%) {}",
            b.scenarios,
            n.query_p99_ms,
            b.query_p99_ms,
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            regressions.push(format!(
                "query p99 at {} scenario(s): {:.2} ms vs baseline {:.2} ms \
                 ({delta_pct:+.1}% > {tolerance_pct}%)",
                b.scenarios, n.query_p99_ms, b.query_p99_ms
            ));
        }
    }
    regressions
}

/// The fork-speedup floor: a forked grid sweep that is not at least this
/// much faster than the scratch pass means the snapshot engine stopped
/// paying for itself (e.g. snapshots got expensive, or prefixes stopped
/// forking). Gated absolutely — no baseline required.
const SWEEP_SPEEDUP_FLOOR: f64 = 3.0;

/// Gates the sweep benchmark: every entry must clear the absolute
/// speedup floor, and — when the baseline carries a matching entry —
/// must not have slowed down beyond `tolerance_pct` relative to it.
fn gate_sweep(base: Option<&BaselineSweep>, now: &SweepBench, tolerance_pct: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    for entry in &now.entries {
        let floor_ok = entry.fork_speedup >= SWEEP_SPEEDUP_FLOOR;
        let base_speedup = base
            .and_then(|b| b.entries.iter().find(|e| e.id == entry.id))
            .map(|e| e.fork_speedup);
        let base_ok = match base_speedup {
            Some(b) if b > 0.0 => (entry.fork_speedup / b - 1.0) * 100.0 >= -tolerance_pct,
            _ => true,
        };
        let regressed = !floor_ok || !base_ok;
        eprintln!(
            "  gate sweep {:<12} {:>6.2}x speedup (floor {SWEEP_SPEEDUP_FLOOR}x{}) {}",
            entry.id,
            entry.fork_speedup,
            base_speedup.map_or(String::new(), |b| format!(", baseline {b:.2}x")),
            if regressed { "REGRESSED" } else { "ok" }
        );
        if !floor_ok {
            regressions.push(format!(
                "sweep {}: fork speedup {:.2}x below the {SWEEP_SPEEDUP_FLOOR}x floor",
                entry.id, entry.fork_speedup
            ));
        } else if !base_ok {
            regressions.push(format!(
                "sweep {}: fork speedup {:.2}x vs baseline {:.2}x (more than {tolerance_pct}% down)",
                entry.id,
                entry.fork_speedup,
                base_speedup.unwrap_or(0.0)
            ));
        }
    }
    regressions
}

/// Timed passes per mode in `sweep_entry_bench`; the reported wall clock
/// is the min, like the per-scenario timings, so a scheduler hiccup in
/// one pass can't fail the absolute speedup floor.
const SWEEP_TIMING_PASSES: usize = 3;

/// Phase 5: the sweep-engine benchmark. Runs the full parameter grid —
/// every sweepable parameter at 5 values around stock, `reps` reps each —
/// on one warm editing metric, from scratch and forked
/// (`SWEEP_TIMING_PASSES` timed passes each, min wall clock per mode),
/// checks the points are bit-identical, and returns the timings.
/// Sequential (`jobs = 1`) so the speedup measures the engine, not the
/// thread pool.
fn sweep_entry_bench(
    id: &str,
    os: latlab_os::OsProfile,
    metric: latlab_bench::sweep::SweepMetric,
    reps: usize,
) -> Result<SweepEntryBench, String> {
    use latlab_bench::sweep::{run_sweep_grid, SweepParam};
    let columns: Vec<(SweepParam, Vec<u64>)> = SweepParam::ALL
        .into_iter()
        .map(|p| {
            let stock = p.stock(os);
            let mut values = vec![stock / 2, stock * 3 / 4, stock, stock * 2, stock * 4];
            values.retain(|&v| v > 0);
            values.dedup();
            (p, values)
        })
        .collect();
    let points: usize = columns.iter().map(|(_, v)| v.len()).sum();

    let mut scratch_ms = f64::INFINITY;
    let mut scratch = Vec::new();
    for _ in 0..SWEEP_TIMING_PASSES {
        let t0 = Instant::now();
        let _scratch_mode = latlab_bench::forkcfg::override_default(false);
        scratch = run_sweep_grid(os, metric, &columns, reps, 1).0;
        scratch_ms = scratch_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let mut forked_ms = f64::INFINITY;
    let mut forked = Vec::new();
    let mut stats = latlab_bench::sweep::SweepStats::default();
    for _ in 0..SWEEP_TIMING_PASSES {
        let t0 = Instant::now();
        (forked, stats) = run_sweep_grid(os, metric, &columns, reps, 1);
        forked_ms = forked_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    // The byte-identity contract, asserted on the real measurement grid:
    // forking must be invisible in the results.
    for (((param, _), s_col), f_col) in columns.iter().zip(&scratch).zip(&forked) {
        for (s, f) in s_col.iter().zip(f_col) {
            if s.metric.to_bits() != f.metric.to_bits() {
                return Err(format!(
                    "{id}: forked sweep diverged from scratch at {} = {} \
                     ({} vs {})",
                    param.name(),
                    s.value,
                    f.metric,
                    s.metric
                ));
            }
        }
    }
    Ok(SweepEntryBench {
        id: id.to_string(),
        os: os.name().to_string(),
        metric: metric.name().to_string(),
        points,
        forked_points: stats.forked_points,
        scratch_points: stats.scratch_points,
        scratch_ms,
        forked_ms,
        fork_speedup: scratch_ms / forked_ms.max(1e-9),
    })
}

/// The durability pass: the same slam load with the WAL on and uploads
/// on the resumable path, then a crash (no drain, no checkpoint) and a
/// timed restart that replays the log the crash left behind.
fn durability_bench(
    secs: u64,
    connections: usize,
    plain_mb_per_sec: f64,
) -> std::io::Result<DurabilityBench> {
    let wal_dir = std::env::temp_dir().join(format!("latlab-perf-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let start = |dir: &std::path::Path| {
        Server::start(ServeConfig {
            bind: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(10),
            wal: Some(latlab_serve::WalConfig::new(dir)),
            ..ServeConfig::default()
        })
    };
    let server = start(&wal_dir)?;
    let corpus = vec![latlab_serve::idle_corpus(200_000, 0xbe9c, 64)];
    let cfg = slam::SlamConfig {
        addr: server.local_addr(),
        connections,
        scenario: "perf-wal".to_string(),
        duration: Duration::from_secs(secs),
        resume: true,
        ..slam::SlamConfig::default()
    };
    let report = slam::run(&cfg, &corpus)?;
    server.crash();

    let t0 = Instant::now();
    let recovered = start(&wal_dir)?;
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rec = *recovered.recovery();
    recovered.request_shutdown();
    let _ = recovered.join();
    let _ = std::fs::remove_dir_all(&wal_dir);

    let wal_mb_per_sec = report.mb_per_sec();
    Ok(DurabilityBench {
        wal_mb_per_sec,
        wal_overhead_ratio: if plain_mb_per_sec > 0.0 {
            wal_mb_per_sec / plain_mb_per_sec
        } else {
            0.0
        },
        reconnects: report.reconnects,
        recovered_frames: rec.frames,
        recovered_records: rec.records,
        recovery_ms,
        recovery_records_per_sec: rec.records as f64 / (recovery_ms / 1e3).max(1e-9),
    })
}

/// Phase 3: the loopback ingest benchmark. Starts an in-process server
/// on an ephemeral port, slams it with `connections` uploaders replaying
/// a synthetic idle-stamp corpus for `secs` seconds, and drains it.
/// `scalar` selects the per-record reference decode path instead of the
/// default columnar batch path.
fn ingest_bench(secs: u64, connections: usize, scalar: bool) -> std::io::Result<IngestBench> {
    let server = Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_secs(10),
        scalar_ingest: scalar,
        ..ServeConfig::default()
    })?;
    let corpus = vec![latlab_serve::idle_corpus(200_000, 0xbe9c, 64)];
    let cfg = slam::SlamConfig {
        addr: server.local_addr(),
        connections,
        scenario: "perf-ingest".to_string(),
        duration: Duration::from_secs(secs),
        ..slam::SlamConfig::default()
    };
    let report = slam::run(&cfg, &corpus)?;
    server.request_shutdown();
    let _ = server.join();
    Ok(IngestBench {
        connections,
        duration_s: report.elapsed.as_secs_f64(),
        uploads_done: report.uploads_done,
        uploads_busy: report.uploads_busy,
        upload_retries: report.upload_retries,
        upload_errors: report.upload_errors,
        records_acked: report.records_acked,
        mb_per_sec: report.mb_per_sec(),
        scalar_mb_per_sec: 0.0,
        pipeline_batch_mb_per_sec: 0.0,
        pipeline_scalar_mb_per_sec: 0.0,
        batch_speedup: 0.0,
        query_p50_ms: report.query_p50_ms,
        query_p99_ms: report.query_p99_ms,
        durability: None,
    })
}

/// In-process throughput of the server-side ingest pipeline — decode,
/// sample extraction, sketch fold — over one recorded idle-stamp corpus,
/// batch vs scalar. No sockets, single thread: this isolates exactly the
/// code the two paths disagree on, which loopback MB/s (client + kernel
/// + server on shared cores) cannot.
fn pipeline_bench() -> (f64, f64) {
    let corpus = latlab_serve::idle_corpus(1 << 21, 0xbe9c, 64);
    let frame = 64 * 1024;
    let rate = |scalar: bool| -> f64 {
        // One warmup fold (page in the corpus, size the buffers), then
        // measure whole passes until enough wall clock has accumulated.
        let _ = latlab_serve::fold_corpus(&corpus, frame, EventClass::Keystroke, scalar);
        let (mut bytes, mut passes) = (0u64, 0u32);
        let t0 = Instant::now();
        while passes < 3 || t0.elapsed() < Duration::from_millis(300) {
            let run = latlab_serve::fold_corpus(&corpus, frame, EventClass::Keystroke, scalar);
            bytes += run.bytes;
            passes += 1;
        }
        bytes as f64 / 1e6 / t0.elapsed().as_secs_f64()
    };
    (rate(false), rate(true))
}

/// Builds one synthetic shard snapshot for the query micro-benchmark:
/// `scenarios` sketches of a few dozen deterministic samples each.
fn synthetic_snapshot(shard: u64, scenarios: usize) -> Arc<ShardSnapshot> {
    let sketches: HashMap<String, Arc<LatencySketch>> = (0..scenarios)
        .map(|k| {
            let mut s = LatencySketch::new();
            for i in 0..48u64 {
                let class = EventClass::ALL[((i + shard) % EventClass::ALL.len() as u64) as usize];
                let ms = 0.3 + ((i * 17 + shard * 131 + k as u64 * 29) % 389) as f64 * 3.7;
                s.push(class, ms);
            }
            (format!("scen-{k}"), Arc::new(s))
        })
        .collect();
    Arc::new(ShardSnapshot {
        epoch: shard + 1,
        sketches,
    })
}

/// Mean per-pass wall clock (ms) of repeated calls to `f`: at least 5
/// passes, and enough of them to accumulate a measurable wall clock.
fn timed_passes(mut f: impl FnMut()) -> f64 {
    let mut passes = 0u32;
    let t0 = Instant::now();
    while passes < 5 || t0.elapsed() < Duration::from_millis(300) {
        f();
        passes += 1;
    }
    t0.elapsed().as_secs_f64() * 1e3 / f64::from(passes)
}

/// The query-plane micro-benchmark: per-query cost of the reference
/// full merge versus an incremental refresh with exactly one dirty
/// scenario (the steady-state shape — a publish dirties whatever
/// folded, everything else is carried by pointer). Returns
/// `(full_merge_ms, incremental_ms)` per pass.
fn query_plane_bench(shards: usize, scenarios: usize) -> (f64, f64) {
    let mut snaps: Vec<Arc<ShardSnapshot>> = (0..shards as u64)
        .map(|s| synthetic_snapshot(s, scenarios))
        .collect();
    let cold_ms = timed_passes(|| {
        std::hint::black_box(merge_full(&snaps));
    });
    let plane = QueryPlane::new();
    plane.refresh(&snaps); // cold rebuild happens outside the timed region
                           // Two prebuilt variants of shard 0 that share every scenario Arc
                           // except a re-published "scen-0" — flip-flopping between them makes
                           // every refresh see exactly one dirty scenario without timing the
                           // snapshot construction itself.
    let variant = |bump: u64| -> Arc<ShardSnapshot> {
        let mut sketches = snaps[0].sketches.clone();
        let mut dirty = (**sketches.get("scen-0").expect("scen-0 exists")).clone();
        dirty.push(EventClass::Keystroke, 1.0 + bump as f64);
        sketches.insert("scen-0".to_owned(), Arc::new(dirty));
        Arc::new(ShardSnapshot {
            epoch: snaps[0].epoch + bump,
            sketches,
        })
    };
    let (alt_a, alt_b) = (variant(1), variant(2));
    let mut flip = false;
    let incremental_ms = timed_passes(|| {
        snaps[0] = if flip { alt_a.clone() } else { alt_b.clone() };
        flip = !flip;
        std::hint::black_box(plane.refresh(&snaps));
    });
    (cold_ms, incremental_ms)
}

/// One under-load point of the query benchmark: slam ingest fanned out
/// over `scenarios` scenario names while the prober cycles
/// `PCTL`/`SNAPSHOT`/`HEALTH` at a tight interval.
fn query_load_bench(
    secs: u64,
    connections: usize,
    scenarios: usize,
) -> std::io::Result<QueryLoadBench> {
    let server = Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    })?;
    // Smaller blobs than the throughput pass: more uploads per second
    // means more publishes, which is the dirty-scenario pressure the
    // plane has to absorb while answering.
    let corpus = vec![latlab_serve::idle_corpus(50_000, 0xbe9c, 64)];
    let cfg = slam::SlamConfig {
        addr: server.local_addr(),
        connections,
        scenario: "perf-query".to_string(),
        scenarios,
        duration: Duration::from_secs(secs),
        query_interval: Duration::from_millis(2),
        ..slam::SlamConfig::default()
    };
    let report = slam::run(&cfg, &corpus)?;
    server.request_shutdown();
    let _ = server.join();
    let verb_p99 = |verb: &str| {
        report
            .verbs
            .iter()
            .find(|v| v.verb == verb)
            .map_or(0.0, |v| v.p99_ms)
    };
    Ok(QueryLoadBench {
        scenarios,
        queries: report.queries,
        query_p50_ms: report.query_p50_ms,
        query_p99_ms: report.query_p99_ms,
        pctl_p99_ms: verb_p99("PCTL"),
        snapshot_p99_ms: verb_p99("SNAPSHOT"),
        health_p99_ms: verb_p99("HEALTH"),
    })
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_repro.json");
    let mut iters = 3usize;
    let mut jobs = 0usize;
    let mut fastforward = true;
    let mut sweep_reps = 5usize;
    let mut baseline_path: Option<String> = None;
    let mut tolerance_pct = 25.0f64;
    let mut ingest_secs = 2u64;
    // Default uploader count scales with the machine: 64 connections on
    // real hardware (the reference load), fewer on starved CI runners
    // where extra threads only measure scheduler thrash.
    let mut ingest_connections = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_mul(8)
        .clamp(8, 64);
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Result<String, ExitCode> {
            args.next()
                .ok_or_else(|| cli::usage_error(BIN, &format!("{what} requires a value"), USAGE))
        };
        match arg.as_str() {
            "--version" => return cli::print_version(BIN),
            "--out" => match take("--out") {
                Ok(v) => out = v,
                Err(code) => return code,
            },
            "--iters" => {
                match take("--iters").map(|v| v.parse::<usize>()) {
                    Ok(Ok(n)) if n > 0 => iters = n,
                    Err(code) => return code,
                    _ => {
                        return cli::usage_error(BIN, "--iters requires a positive integer", USAGE)
                    }
                };
            }
            "--jobs" => {
                match take("--jobs").map(|v| v.parse::<usize>()) {
                    Ok(Ok(n)) if n > 0 => jobs = n,
                    Err(code) => return code,
                    _ => return cli::usage_error(BIN, "--jobs requires a positive integer", USAGE),
                };
            }
            "--no-fastforward" => fastforward = false,
            "--sweep-reps" => {
                match take("--sweep-reps").map(|v| v.parse::<usize>()) {
                    Ok(Ok(n)) => sweep_reps = n,
                    Err(code) => return code,
                    _ => {
                        return cli::usage_error(
                            BIN,
                            "--sweep-reps requires an integer (0 disables the sweep benchmark)",
                            USAGE,
                        )
                    }
                };
            }
            "--ingest-secs" => {
                match take("--ingest-secs").map(|v| v.parse::<u64>()) {
                    Ok(Ok(n)) => ingest_secs = n,
                    Err(code) => return code,
                    _ => {
                        return cli::usage_error(
                            BIN,
                            "--ingest-secs requires an integer (0 disables the ingest benchmark)",
                            USAGE,
                        )
                    }
                };
            }
            "--ingest-connections" => {
                match take("--ingest-connections").map(|v| v.parse::<usize>()) {
                    Ok(Ok(n)) if n > 0 => ingest_connections = n,
                    Err(code) => return code,
                    _ => {
                        return cli::usage_error(
                            BIN,
                            "--ingest-connections requires a positive integer",
                            USAGE,
                        )
                    }
                };
            }
            "--baseline" => match take("--baseline") {
                Ok(v) => baseline_path = Some(v),
                Err(code) => return code,
            },
            "--tolerance" => {
                match take("--tolerance").map(|v| v.parse::<f64>()) {
                    Ok(Ok(n)) if n > 0.0 => tolerance_pct = n,
                    Err(code) => return code,
                    _ => {
                        return cli::usage_error(
                            BIN,
                            "--tolerance requires a positive percentage",
                            USAGE,
                        )
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("ids: {:?}", scenarios::ALL_IDS);
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
    if let Some(bad) = ids
        .iter()
        .find(|id| !scenarios::ALL_IDS.contains(&(id.as_str())))
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
    // The pooled pass defaults to one worker per detected core; `--jobs`
    // overrides. (The sequential pass is, by definition, one worker.)
    let jobs_pooled = pool::resolve_jobs(jobs);
    let run_cfg = RunConfig {
        fastforward,
        ..RunConfig::default()
    };

    eprintln!(
        "perf: timing {} scenario(s), {iters} iter(s) each, pool of {jobs_pooled} worker(s), \
         fast-forward {}",
        ids.len(),
        if fastforward { "on" } else { "off" },
    );

    // Phase 1: per-scenario sequential timing.
    let mut entries = Vec::with_capacity(ids.len());
    let mut any_failed = false;
    for id in &ids {
        let mut total_ms = 0.0f64;
        let mut min_ms = f64::INFINITY;
        let mut checks = 0usize;
        let mut failed = 0usize;
        let mut panicked = false;
        for _ in 0..iters {
            let t0 = Instant::now();
            // A panicking scenario must not abort the whole timing pass:
            // record it as failed and keep timing the rest of the set.
            let reports = match std::panic::catch_unwind(|| scenarios::run(id, &run_cfg)) {
                Ok(reports) => reports,
                Err(_) => {
                    panicked = true;
                    break;
                }
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            total_ms += ms;
            min_ms = min_ms.min(ms);
            checks = reports.iter().map(|r| r.checks.len()).sum();
            failed = reports
                .iter()
                .flat_map(|r| &r.checks)
                .filter(|c| !c.passed)
                .count();
        }
        if panicked {
            any_failed = true;
            eprintln!("  {id:<10} PANICKED — excluded from timings");
            continue;
        }
        let mean_ms = total_ms / iters as f64;
        any_failed |= failed > 0;
        eprintln!(
            "  {id:<10} {mean_ms:>9.2} ms/run  ({:.1} runs/s)",
            1e3 / mean_ms
        );
        entries.push(ScenarioBench {
            id: id.clone(),
            description: scenarios::description(id).to_string(),
            wall_ms_min: min_ms,
            wall_ms_mean: mean_ms,
            runs_per_sec: 1e3 / mean_ms,
            checks,
            failed_checks: failed,
        });
    }
    let seq_total_ms: f64 = entries.iter().map(|e| e.wall_ms_mean).sum();

    // Phase 2: one full pass of the set through the job pool.
    let cfg = engine::EngineConfig {
        jobs: jobs_pooled,
        fastforward,
        ..engine::EngineConfig::default()
    };
    let t0 = Instant::now();
    let runs = engine::run_scenarios(&ids, &cfg, |_| {});
    let parallel_total_ms = t0.elapsed().as_secs_f64() * 1e3;
    for run in &runs {
        if let Some(reason) = run.failure() {
            eprintln!("perf: scenario {} failed in pool pass: {reason}", run.id);
            any_failed = true;
        }
    }

    // Phase 3: loopback ingest/query benchmark of the telemetry service,
    // once through the columnar batch path (the headline numbers) and
    // once through the scalar reference path for the speedup figure.
    let ingest = if ingest_secs > 0 {
        eprintln!(
            "perf: ingest benchmark — {ingest_connections} connection(s) for {ingest_secs} s \
             (batch, then scalar)"
        );
        match ingest_bench(ingest_secs, ingest_connections, false) {
            Ok(mut bench) => {
                eprintln!(
                    "  ingest batch  {:>9.1} MB/s  ({} uploads, {} busy, {} retries)  \
                     query p50 {:.2} ms  p99 {:.2} ms",
                    bench.mb_per_sec,
                    bench.uploads_done,
                    bench.uploads_busy,
                    bench.upload_retries,
                    bench.query_p50_ms,
                    bench.query_p99_ms
                );
                match ingest_bench(ingest_secs, ingest_connections, true) {
                    Ok(scalar) => {
                        bench.scalar_mb_per_sec = scalar.mb_per_sec;
                        eprintln!("  ingest scalar {:>9.1} MB/s", bench.scalar_mb_per_sec);
                    }
                    Err(e) => {
                        return cli::runtime_error(
                            BIN,
                            &format!("scalar ingest benchmark failed: {e}"),
                        )
                    }
                }
                let (batch_mb_s, scalar_mb_s) = pipeline_bench();
                bench.pipeline_batch_mb_per_sec = batch_mb_s;
                bench.pipeline_scalar_mb_per_sec = scalar_mb_s;
                bench.batch_speedup = if scalar_mb_s > 0.0 {
                    batch_mb_s / scalar_mb_s
                } else {
                    0.0
                };
                eprintln!(
                    "  pipeline      {batch_mb_s:>9.1} MB/s batch vs {scalar_mb_s:.1} MB/s \
                     scalar  (speedup {:.2}x)",
                    bench.batch_speedup
                );
                match durability_bench(ingest_secs, ingest_connections, bench.mb_per_sec) {
                    Ok(dur) => {
                        eprintln!(
                            "  ingest wal    {:>9.1} MB/s  ({:.0}% of wal-off)  recovery \
                             {:.0} ms for {} frames ({:.0} records/s)",
                            dur.wal_mb_per_sec,
                            dur.wal_overhead_ratio * 100.0,
                            dur.recovery_ms,
                            dur.recovered_frames,
                            dur.recovery_records_per_sec,
                        );
                        bench.durability = Some(dur);
                    }
                    Err(e) => {
                        return cli::runtime_error(
                            BIN,
                            &format!("durability benchmark failed: {e}"),
                        )
                    }
                }
                Some(bench)
            }
            Err(e) => return cli::runtime_error(BIN, &format!("ingest benchmark failed: {e}")),
        }
    } else {
        None
    };

    // Phase 4: the query-plane benchmark — the micro figure (reference
    // full merge vs incremental refresh with one dirty scenario), then
    // query latency under live ingest at several scenario counts.
    let query = if ingest_secs > 0 {
        const QUERY_SHARDS: usize = 4;
        const QUERY_SCENARIOS: usize = 512;
        let (cold_ms, incremental_ms) = query_plane_bench(QUERY_SHARDS, QUERY_SCENARIOS);
        let speedup = cold_ms / incremental_ms.max(1e-9);
        eprintln!(
            "  query plane   full merge {cold_ms:.3} ms vs incremental {incremental_ms:.4} ms \
             at {QUERY_SCENARIOS} scenarios x {QUERY_SHARDS} shards  (speedup {speedup:.0}x)"
        );
        let mut loads = Vec::new();
        for &n in &[1usize, 32, 512] {
            match query_load_bench(ingest_secs, ingest_connections, n) {
                Ok(load) => {
                    eprintln!(
                        "  query@{n:<5}   p99 {:.2} ms  (pctl {:.2} / snapshot {:.2} / \
                         health {:.2}; {} probes)",
                        load.query_p99_ms,
                        load.pctl_p99_ms,
                        load.snapshot_p99_ms,
                        load.health_p99_ms,
                        load.queries
                    );
                    loads.push(load);
                }
                Err(e) => return cli::runtime_error(BIN, &format!("query benchmark failed: {e}")),
            }
        }
        Some(QueryBench {
            cold_scenarios: QUERY_SCENARIOS,
            cold_shards: QUERY_SHARDS,
            cold_merge_ms: cold_ms,
            incremental_refresh_ms: incremental_ms,
            incremental_speedup: speedup,
            loads,
        })
    } else {
        None
    };

    // Phase 5: the sweep-engine benchmark — forked vs scratch wall clock
    // of the full parameter grid on the warm fig5/fig7 editing metrics.
    let sweep = if sweep_reps > 0 {
        use latlab_bench::sweep::SweepMetric;
        use latlab_os::OsProfile;
        eprintln!("perf: sweep benchmark — full grid, {sweep_reps} rep(s), forked vs scratch");
        let mut entries = Vec::new();
        for (id, os, metric) in [
            ("fig5-word", OsProfile::Nt351, SweepMetric::WordKeystrokeMs),
            (
                "fig7-notepad",
                OsProfile::Nt40,
                SweepMetric::NotepadKeystrokeMs,
            ),
        ] {
            match sweep_entry_bench(id, os, metric, sweep_reps) {
                Ok(entry) => {
                    eprintln!(
                        "  sweep {id:<12} {:>8.0} ms scratch vs {:>7.0} ms forked \
                         ({:.2}x; {}/{} points forked)",
                        entry.scratch_ms,
                        entry.forked_ms,
                        entry.fork_speedup,
                        entry.forked_points,
                        entry.points
                    );
                    entries.push(entry);
                }
                Err(e) => return cli::runtime_error(BIN, &format!("sweep benchmark failed: {e}")),
            }
        }
        let fork_speedup_min = entries
            .iter()
            .map(|e| e.fork_speedup)
            .fold(f64::INFINITY, f64::min);
        Some(SweepBench {
            reps: sweep_reps,
            entries,
            fork_speedup_min,
        })
    } else {
        None
    };

    let report = BenchReport {
        schema: "latlab-perf-v2".to_string(),
        scenarios: entries,
        iters,
        seq_total_ms,
        parallel_total_ms,
        jobs_seq: 1,
        jobs_pooled,
        speedup: seq_total_ms / parallel_total_ms.max(1e-9),
        fastforward,
        peak_rss_kb: peak_rss_kb(),
        ingest,
        query,
        sweep,
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => return cli::runtime_error(BIN, &format!("cannot serialize perf report: {e:?}")),
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        return cli::runtime_error(BIN, &format!("cannot write {out}: {e}"));
    }
    eprintln!(
        "perf: sequential {seq_total_ms:.0} ms, pool({jobs_pooled}) {parallel_total_ms:.0} ms \
         ({:.2}x), report in {out}",
        report.speedup
    );
    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return cli::runtime_error(BIN, &format!("cannot read baseline {path}: {e}")),
        };
        let baseline: Baseline = match serde_json::from_str(&text) {
            Ok(b) => b,
            Err(e) => {
                return cli::runtime_error(BIN, &format!("cannot parse baseline {path}: {e:?}"))
            }
        };
        eprintln!("perf: gating against {path} (tolerance {tolerance_pct}%)");
        let mut regressions = gate_against_baseline(&baseline, &report.scenarios, tolerance_pct);
        // The ingest, WAL-overhead and query gates engage when both the
        // baseline and this run carry the section.
        if let (Some(base), Some(now)) = (&baseline.ingest, &report.ingest) {
            regressions.extend(gate_ingest(base, now, tolerance_pct));
            if let (Some(base), Some(now)) = (&base.durability, &now.durability) {
                regressions.extend(gate_durability(base, now, tolerance_pct));
            }
        }
        if let (Some(base), Some(now)) = (&baseline.query, &report.query) {
            regressions.extend(gate_query(base, now, tolerance_pct));
        }
        // The sweep gate has an absolute floor, so it engages whenever
        // this run measured the sweep — with or without a sweep section
        // in the baseline.
        if let Some(now) = &report.sweep {
            regressions.extend(gate_sweep(baseline.sweep.as_ref(), now, tolerance_pct));
        }
        if !regressions.is_empty() {
            eprintln!("perf: {} measurement(s) regressed:", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            return ExitCode::FAILURE;
        }
    }
    if any_failed {
        eprintln!("perf: WARNING — some shape checks failed during timing runs");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_carries_every_gated_section() {
        let text = include_str!("../../../../BENCH_repro.json");
        let baseline: Baseline = serde_json::from_str(text).expect("baseline parses");
        assert!(!baseline.scenarios.is_empty());
        let ingest = baseline.ingest.expect("ingest section");
        assert!(ingest.durability.is_some(), "durability section");
        assert!(baseline.query.is_some(), "query section");
        assert!(baseline.sweep.is_some(), "sweep section");
    }

    #[test]
    fn null_sections_parse_and_malformed_sections_fail() {
        let skipped = r#"{"scenarios": [], "ingest": null, "query": null, "sweep": null}"#;
        let baseline: Baseline = serde_json::from_str(skipped).expect("null sections parse");
        assert!(baseline.ingest.is_none() && baseline.query.is_none());
        let malformed = r#"{"scenarios": [], "ingest": {"mb_per_sec": 1.0},
            "query": null, "sweep": null}"#;
        assert!(serde_json::from_str::<Baseline>(malformed).is_err());
    }
}
