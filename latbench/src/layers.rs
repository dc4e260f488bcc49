//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! Every traced run measures every layer, so each prints the same metric
//! set; the run's own workload gets the larger share of the time budget
//! and decides which operation the tracing overhead is measured on. Each
//! section re-composes a workload's operation from public calls with a
//! span around every call into a layer:
//!
//! * simulator sessions: one standard session per app (Notepad on NT 4.0,
//!   Word on NT 3.51, the PowerPoint task on NT 4.0), split into boot,
//!   launch, input scheduling, the kernel run loop, finish (idle-loop
//!   collection plus event extraction) and the analysis summary;
//! * the paper pass: every scenario of `repro` in its own span;
//! * the sweep grid pair: the fork planner of `run_sweep_grid`, split into
//!   prefix prepares, snapshots, restores and measurements;
//! * serve: stream decode, sketch fold and `fold_corpus` on one blob; the
//!   query plane's incremental refresh against its full merge; and the
//!   open-loop mix with the WAL on and off.
//!
//! Counts are taken per iteration and must repeat exactly from one
//! iteration to the next (and from one run to the next). Timings of
//! repeated deterministic work are the fastest iteration's.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use latlab_analysis::{EventClass, LatencySketch, LatencySummary};
use latlab_apps::{Notepad, NotepadConfig, PowerPoint, PowerPointConfig, Word, WordConfig};
use latlab_bench::runner::{latencies_ms, FREQ};
use latlab_bench::scenarios::{run_by_id, ALL_IDS};
use latlab_bench::sweep::{Prepared, PreparedSnapshot, SweepPoint};
use latlab_bench::ExperimentReport;
use latlab_core::{BoundaryPolicy, MeasurementSession};
use latlab_des::SimTime;
use latlab_input::{workloads, InputScript, TestDriver};
use latlab_os::{OsProfile, ProcessSpec};
use latlab_serve::{fold_corpus, merge_full, QueryPlane, ShardSnapshot};
use latlab_trace::StreamDecoder;

use crate::result::Outcome;
use crate::span::Tracer;
use crate::stats::{fastest, ms, quantile};
use crate::sweep::{self, Grid, REPS};
use crate::telemetry::{self, Inputs, FRAME_LEN, VERBS};
use crate::{repro, Workload};

/// Length of each open-loop mix pass in the traced run. Fixed, so the
/// WAL counts repeat exactly.
const MIX_PASS: Duration = Duration::from_secs(3);
/// Incremental refreshes timed on the query plane (fixed, so the plane's
/// counters repeat exactly).
const REFRESHES: usize = 2_000;
/// Full merges timed as the refresh's reference.
const FULL_MERGES: usize = 200;
/// Scenarios per shard and shards in the query-plane micro-benchmark.
const PLANE_SCENARIOS: usize = 64;
const PLANE_SHARDS: usize = 2;

/// Per-layer metrics under construction: timings as samples, counts as
/// values that must not change between iterations.
struct Layers {
    out: Outcome,
    samples: HashMap<String, Vec<f64>>,
    counts: Vec<(String, u64)>,
}

impl Layers {
    fn sample(&mut self, name: &str, ms: f64) {
        self.samples.entry(name.to_owned()).or_default().push(ms);
    }

    /// Records a count; a different value for the same name in a later
    /// iteration marks the run incorrect.
    fn count(&mut self, name: &str, value: u64) {
        match self.counts.iter().find(|(n, _)| n == name) {
            Some(&(_, first)) => self.out.check(first == value, || {
                format!("count {name} changed between iterations: {first} then {value}")
            }),
            None => self.counts.push((name.to_owned(), value)),
        }
    }
}

/// One standard session per app, as the scenarios run them.
struct Session {
    label: &'static str,
    profile: OsProfile,
    script: InputScript,
    policy: BoundaryPolicy,
    settle_secs: u64,
}

fn sessions() -> [Session; 3] {
    [
        Session {
            label: "notepad",
            profile: OsProfile::Nt40,
            script: workloads::notepad_session(),
            policy: BoundaryPolicy::SplitAtRetrieval,
            settle_secs: 2,
        },
        Session {
            label: "word",
            profile: OsProfile::Nt351,
            script: workloads::word_session(),
            policy: BoundaryPolicy::MergeUntilEmpty,
            settle_secs: 5,
        },
        Session {
            label: "powerpoint",
            profile: OsProfile::Nt40,
            script: workloads::powerpoint_task(),
            policy: BoundaryPolicy::MergeUntilEmpty,
            settle_secs: 20,
        },
    ]
}

/// Per-iteration totals of the three sessions' counters.
#[derive(Default)]
struct SimCounts {
    stamps: u64,
    events: u64,
    turns: u64,
    switches: u64,
    ticks: u64,
    messages: u64,
    inputs: u64,
    ff: (u64, u64, u64),
    cache: (u64, u64),
    sim_secs: f64,
}

/// One standard session, re-composed from public calls with a span
/// around each layer.
fn traced_session(tr: &mut Tracer, s: &Session, acc: &mut SimCounts, times: &mut [f64; 5]) {
    let root = tr.open("session");
    let (mut session, boot) = tr.time("core.session.boot", || MeasurementSession::new(s.profile));
    let launch = tr.open("apps.launch");
    match s.label {
        "notepad" => {
            session.launch_app(
                ProcessSpec::app("notepad"),
                Box::new(Notepad::new(NotepadConfig::default())),
            );
        }
        "word" => {
            session.launch_app(
                ProcessSpec::app("word").with_heavy_async(),
                Box::new(Word::new(WordConfig::default())),
            );
        }
        _ => {
            latlab_apps::powerpoint::register_files(session.machine());
            session.launch_app(
                ProcessSpec::app("powerpoint"),
                Box::new(PowerPoint::new(PowerPointConfig::default())),
            );
        }
    }
    tr.close(launch);
    let start = SimTime::ZERO + FREQ.ms(100);
    let (_, schedule) = tr.time("input.driver.schedule", || {
        TestDriver::ms_test().schedule(session.machine(), start, &s.script)
    });
    let horizon = start + s.script.duration() + FREQ.secs(s.settle_secs);
    let limit = horizon + FREQ.secs(s.settle_secs);
    let (quiet, run) = tr.time("os.kernel.run", || session.run_until_quiescent(limit));
    assert!(quiet, "{} session did not quiesce", s.label);
    let ((measurement, machine), finish) = tr.time("core.session.finish", || {
        session.finish_with_machine(s.policy)
    });
    let (summary, analysis) = tr.time("analysis.summary", || {
        LatencySummary::from_latencies(&latencies_ms(&measurement, true))
    });
    tr.close(root);
    std::hint::black_box(summary);
    for (t, v) in times
        .iter_mut()
        .zip([boot, schedule, run, finish, analysis])
    {
        *t += v;
    }
    let st = machine.stats();
    let ff = machine.fast_forward_stats();
    let cache = machine.cache_stats();
    acc.stamps += measurement.trace.len() as u64;
    acc.events += measurement.events.len() as u64;
    acc.turns += machine.debug_loop_turns();
    acc.switches += st.context_switches;
    acc.ticks += st.clock_ticks;
    acc.messages += st.messages_posted;
    acc.inputs += st.inputs_delivered;
    acc.ff = (acc.ff.0 + ff.0, acc.ff.1 + ff.1, acc.ff.2 + ff.2);
    acc.cache = (acc.cache.0 + cache.0, acc.cache.1 + cache.1);
    acc.sim_secs += FREQ.time_to_secs(machine.now());
}

/// The three standard sessions, repeated for `budget`.
fn sim_section(tr: &mut Tracer, l: &mut Layers, budget: Duration) {
    let sessions = sessions();
    let start = Instant::now();
    let mut iters = 0;
    while iters < 2 || start.elapsed() < budget {
        let mut acc = SimCounts::default();
        let mut times = [0.0; 5];
        for s in &sessions {
            traced_session(tr, s, &mut acc, &mut times);
        }
        let names = [
            "core.session.boot_ms",
            "input.driver.schedule_ms",
            "os.kernel.run_ms",
            "core.session.finish_ms",
            "analysis.summary_ms",
        ];
        for (name, t) in names.into_iter().zip(times) {
            l.sample(name, t);
        }
        l.sample("os.kernel.ns_per_turn", times[2] * 1e6 / acc.turns as f64);
        l.sample("sim.rate", acc.sim_secs / (times[2] / 1e3));
        l.count("core.idle_loop.stamps", acc.stamps);
        l.count("core.extract.events", acc.events);
        l.count("os.kernel.loop_turns", acc.turns);
        l.count("os.kernel.context_switches", acc.switches);
        l.count("os.kernel.clock_ticks", acc.ticks);
        l.count("os.kernel.messages_posted", acc.messages);
        l.count("os.kernel.inputs_delivered", acc.inputs);
        l.count("os.fastforward.batches", acc.ff.0);
        l.count("os.fastforward.warm_iters", acc.ff.1);
        l.count("os.fastforward.cold_iters", acc.ff.2);
        l.count("os.bufcache.hits", acc.cache.0);
        l.count("os.bufcache.misses", acc.cache.1);
        iters += 1;
    }
}

/// Paper passes for `budget`, alternating the engine's untraced pass with
/// a traced re-composition (one span per scenario). Returns the untraced
/// and traced pass times (the fastest of each).
fn repro_section(tr: &mut Tracer, l: &mut Layers, budget: Duration) -> (f64, f64) {
    let ids = repro::all_ids();
    let cfg = repro::engine_config();
    let reference = repro::pass_fingerprint(&latlab_bench::run_scenarios(&ids, &cfg, |_| {}));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 2 || start.elapsed() < budget {
        let t0 = Instant::now();
        let runs = latlab_bench::run_scenarios(&ids, &cfg, |_| {});
        plain.push(ms(t0.elapsed()));
        l.out.attempted += runs.len() as u64;
        l.out.failed += repro::check_pass(&runs, &reference, &mut l.out);

        let pass = tr.open("repro.pass");
        let mut reports = Vec::new();
        for id in ALL_IDS {
            let span = tr.open("bench.scenarios.run");
            reports.extend(run_by_id(id));
            l.sample(&format!("bench.scenarios.{id}_ms"), tr.close(span));
        }
        traced.push(tr.close(pass));
        let checks: usize = reports.iter().map(|r| r.checks.len()).sum();
        let passed = reports.iter().all(ExperimentReport::all_passed);
        let same = reports
            .iter()
            .map(repro::fingerprint)
            .eq(reference.iter().cloned());
        l.out.check(checks == repro::SHAPE_CHECKS && passed && same, || {
            format!("traced pass: {checks} shape checks, all passed: {passed}, reports repeat: {same}")
        });
    }
    (fastest(&plain), fastest(&traced))
}

/// Sweep-layer times and counts of one re-composed grid pair.
#[derive(Default)]
struct SweepTally {
    prepare: f64,
    measure: f64,
    snapshot: f64,
    restore: f64,
    footprint_bytes: u64,
    pending_events: u64,
    forked: u64,
    scratch: u64,
}

/// One grid re-composed from public calls, following `run_sweep_grid`'s
/// fork planner: the stock prefix is prepared and snapshotted once; a
/// point forks it when its value is stock or the prefix never read the
/// parameter, and is otherwise prepared from scratch once and snapshotted
/// for its remaining repetitions.
fn traced_grid(
    tr: &mut Tracer,
    grid: &Grid,
    t: &mut SweepTally,
    l: &mut Layers,
) -> Vec<Vec<SweepPoint>> {
    let root = tr.open("bench.sweep.grid");
    let (mut stock, dt) = tr.time("bench.sweep.prepare", || {
        grid.metric.prepare(grid.os.params())
    });
    t.prepare += dt;
    let (snap0, dt) = tr.time("os.snapshot.snapshot", || stock.snapshot());
    t.snapshot += dt;
    drop(stock);
    let machine = match &snap0 {
        PreparedSnapshot::Machine(m) => m,
        PreparedSnapshot::Session(s) => s.machine(),
    };
    t.footprint_bytes += machine.state_footprint() as u64;
    t.pending_events += machine.pending_events() as u64;
    let (mut forked, mut scratch) = (0u64, 0u64);
    let mut out = Vec::new();
    for (param, values) in &grid.columns {
        let stock_value = param.stock(grid.os);
        let mut column = Vec::new();
        for &value in values {
            let fork = value == stock_value || snap0.param_unread(*param);
            let measure = |tr: &mut Tracer, t: &mut SweepTally, p: Prepared| {
                let (v, dt) = tr.time("bench.sweep.measure", || grid.metric.measure(p));
                t.measure += dt;
                v
            };
            let mut reps = Vec::with_capacity(REPS);
            if fork {
                forked += 1;
                for _ in 0..REPS {
                    let (mut p, dt) = tr.time("os.snapshot.restore", || snap0.restore());
                    t.restore += dt;
                    if value != stock_value {
                        p.apply_param(*param, value);
                    }
                    reps.push(measure(tr, t, p));
                }
            } else {
                scratch += 1;
                let mut params = grid.os.params();
                param.apply(&mut params, value);
                let (mut p, dt) = tr.time("bench.sweep.prepare", || grid.metric.prepare(params));
                t.prepare += dt;
                let (snap, dt) = tr.time("os.snapshot.snapshot", || p.snapshot());
                t.snapshot += dt;
                reps.push(measure(tr, t, p));
                for _ in 1..REPS {
                    let (p, dt) = tr.time("os.snapshot.restore", || snap.restore());
                    t.restore += dt;
                    reps.push(measure(tr, t, p));
                }
            }
            l.out.check(
                reps.iter().all(|r| r.to_bits() == reps[0].to_bits()),
                || format!("{} {}={value}: repetitions disagree", grid.id, param.name()),
            );
            column.push(SweepPoint {
                value,
                metric: reps[0],
            });
        }
        out.push(column);
    }
    tr.close(root);
    t.forked += forked;
    t.scratch += scratch;
    out
}

/// Grid pairs for `budget`, alternating `run_sweep_grid` with the traced
/// re-composition, whose points must equal the engine's bit for bit.
/// Returns the untraced and traced pair times (the fastest of each).
fn sweep_section(tr: &mut Tracer, l: &mut Layers, budget: Duration) -> (f64, f64) {
    let grids = sweep::grids();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 2 || start.elapsed() < budget {
        let t0 = Instant::now();
        let engine: Vec<_> = grids.iter().map(|g| g.run(REPS)).collect();
        plain.push(ms(t0.elapsed()));
        let mut times = SweepTally::default();
        let pair = tr.open("bench.sweep.pair");
        let recomposed: Vec<_> = grids
            .iter()
            .map(|g| traced_grid(tr, g, &mut times, l))
            .collect();
        traced.push(tr.close(pair));
        let (mut forked, mut scratch) = (0, 0);
        for ((grid, (points, stats)), mine) in grids.iter().zip(&engine).zip(&recomposed) {
            let bad = grid.diverging(mine, points);
            l.out.attempted += grid.points() as u64;
            l.out.failed += bad.len() as u64;
            l.out.check(bad.is_empty(), || bad.join("; "));
            forked += stats.forked_points as u64;
            scratch += stats.scratch_points as u64;
        }
        l.out
            .check(forked == times.forked && scratch == times.scratch, || {
                format!(
                    "fork plan differs: engine {forked}/{scratch}, re-composed {}/{}",
                    times.forked, times.scratch
                )
            });
        l.count("bench.sweep.forked_points", forked);
        l.count("bench.sweep.scratch_points", scratch);
        l.count("os.snapshot.footprint_bytes", times.footprint_bytes);
        l.count("os.snapshot.pending_events", times.pending_events);
        l.sample("bench.sweep.prepare_ms", times.prepare);
        l.sample("bench.sweep.measure_ms", times.measure);
        l.sample("os.snapshot.snapshot_ms", times.snapshot);
        l.sample("os.snapshot.restore_ms", times.restore);
    }
    (fastest(&plain), fastest(&traced))
}

/// Decode, sketch fold and the whole in-process pipeline on the mix's
/// blob, for `budget`.
fn pipeline_section(tr: &mut Tracer, l: &mut Layers, inputs: &Inputs, budget: Duration) {
    let start = Instant::now();
    let mut iters = 0;
    while iters < 3 || start.elapsed() < budget {
        let (samples, decode) = tr.time("trace.stream.decode", || decode_samples(&inputs.blob));
        let (sketch, fold) = tr.time("analysis.sketch.fold", || {
            let mut sketch = LatencySketch::new();
            sketch.update_batch(EventClass::Keystroke, &samples);
            sketch
        });
        let (run, pipeline) = tr.time("serve.pipeline.fold", || {
            fold_corpus(&inputs.blob, FRAME_LEN, EventClass::Keystroke, false)
        });
        l.out.check(
            sketch.total() == run.samples && run.sketch.total() == run.samples,
            || {
                format!(
                    "decode+fold gave {} samples, fold_corpus {}",
                    sketch.total(),
                    run.samples
                )
            },
        );
        l.sample("trace.stream.decode_ms", decode);
        l.sample("analysis.sketch.fold_ms", fold);
        l.sample("serve.pipeline.fold_ms", pipeline);
        l.count("serve.pipeline.records", run.records);
        l.count("serve.pipeline.samples", run.samples);
        l.count("serve.pipeline.bytes", run.bytes);
        iters += 1;
    }
}

/// Feeds `blob` to a stream decoder frame by frame, drains its stamp
/// column with `poll_batch`, and turns idle-loop gaps into latency
/// samples the way serve's extractor does.
fn decode_samples(blob: &[u8]) -> Vec<f64> {
    let mut decoder = StreamDecoder::new();
    let mut column = Vec::new();
    for frame in blob.chunks(FRAME_LEN) {
        decoder
            .feed(frame)
            .expect("the generated blob is a valid trace");
        decoder.poll_batch(&mut column);
    }
    let meta = decoder.meta().expect("trace header decoded").clone();
    let baseline = meta.baseline.cycles();
    column
        .windows(2)
        .filter_map(|w| {
            let gap = w[1].saturating_sub(w[0]);
            (gap > baseline).then(|| {
                meta.freq
                    .to_ms(latlab_des::SimDuration::from_cycles(gap - baseline))
            })
        })
        .collect()
}

/// One synthetic shard snapshot: `PLANE_SCENARIOS` sketches of a few
/// dozen deterministic samples each.
fn synthetic_snapshot(shard: u64) -> Arc<ShardSnapshot> {
    let sketches = (0..PLANE_SCENARIOS)
        .map(|k| {
            let mut s = LatencySketch::new();
            for i in 0..48u64 {
                let class = EventClass::ALL[((i + shard) % EventClass::ALL.len() as u64) as usize];
                s.push(
                    class,
                    0.3 + ((i * 17 + shard * 131 + k as u64 * 29) % 389) as f64 * 3.7,
                );
            }
            (format!("scen-{k}"), Arc::new(s))
        })
        .collect();
    Arc::new(ShardSnapshot {
        epoch: shard + 1,
        sketches,
    })
}

/// The query plane: `REFRESHES` incremental refreshes, each with exactly
/// one re-published scenario, against `FULL_MERGES` full merges.
fn plane_section(tr: &mut Tracer, l: &mut Layers) {
    let mut snaps: Vec<_> = (0..PLANE_SHARDS as u64).map(synthetic_snapshot).collect();
    let variant = |bump: u64| {
        let mut sketches = snaps[0].sketches.clone();
        let mut dirty = (*sketches["scen-0"]).clone();
        dirty.push(EventClass::Keystroke, 1.0 + bump as f64);
        sketches.insert("scen-0".to_owned(), Arc::new(dirty));
        Arc::new(ShardSnapshot {
            epoch: snaps[0].epoch + bump,
            sketches,
        })
    };
    let alt = [variant(1), variant(2)];
    let plane = QueryPlane::new();
    plane.refresh(&snaps);
    // Alternate a refresh after a re-publish (one dirty scenario) with
    // one after no change (served from the cached view).
    let mut refresh = Vec::with_capacity(REFRESHES);
    for i in 0..REFRESHES {
        snaps[0] = alt[i % 2].clone();
        let (view, dt) = tr.time("serve.query.refresh", || plane.refresh(&snaps));
        std::hint::black_box(view);
        refresh.push(dt);
        std::hint::black_box(plane.refresh(&snaps));
    }
    let mut full = Vec::with_capacity(FULL_MERGES);
    for _ in 0..FULL_MERGES {
        let (merged, dt) = tr.time("serve.query.merge_full", || merge_full(&snaps));
        std::hint::black_box(merged);
        full.push(dt);
    }
    let stats = plane.stats();
    l.sample("serve.query.refresh_ms", fastest(&refresh));
    l.sample("serve.query.merge_full_ms", fastest(&full));
    l.count("serve.query.view_refreshes", stats.refreshes);
    l.count("serve.query.view_hits", stats.hits);
    l.count("serve.query.view_remerged", stats.remerged);
    l.out.metric(
        "serve.query.view_hit_ratio",
        stats.hits as f64 / stats.refreshes.max(1) as f64,
        "ratio",
    );
}

/// Open-loop mix passes: WAL on (the per-verb and generator diagnostics
/// and the WAL counts) and WAL off on the same schedule (the WAL's share
/// of upload latency). For the telemetry-mix workload a third, WAL-on pass
/// records a span per request (the tracing overhead); then the upload
/// p50 of the untraced and the traced WAL-on pass are returned.
fn mix_section(
    tr: &mut Tracer,
    l: &mut Layers,
    seed: u64,
    with_overhead: bool,
) -> Result<Option<(f64, f64)>, String> {
    let (on, health, busy, failed) = mix_pass(l, seed, true)?;
    let (off, ..) = mix_pass(l, seed, false)?;
    let p50 = |v: &[f64]| quantile(v, 0.5);
    let p99 = |v: &[f64]| quantile(v, 0.99);
    l.sample(
        "serve.wal.upload_cost_ms",
        p50(&on.upload_ms) - p50(&off.upload_ms),
    );
    for key in ["records", "bytes"] {
        let v = telemetry::health_field(&health, &format!("wal_{key}"))
            .ok_or(format!("HEALTH lacks wal_{key}"))?;
        l.count(&format!("serve.wal.{key}"), v);
    }
    for (verb, name) in VERBS.iter().enumerate() {
        let v = on.verb_ms(verb);
        let name = name.to_ascii_lowercase();
        l.sample(&format!("serve.query.{name}_p50_ms"), p50(&v));
        l.sample(&format!("serve.query.{name}_p99_ms"), p99(&v));
    }
    l.sample("serve.query.p50_ms", p50(&on.all_query_ms()));
    l.sample("serve.query.p90_ms", quantile(&on.all_query_ms(), 0.9));
    l.sample("serve.query.p99_ms", p99(&on.all_query_ms()));
    l.sample("serve.client.upload_p99_ms", p99(&on.upload_ms));
    l.sample("gen.late_p90_ms", quantile(&on.late_ms, 0.9));
    l.sample("gen.late_max_ms", quantile(&on.late_ms, 1.0));
    l.out
        .metric("serve.server.busy_rejections", busy as f64, "count");
    l.out
        .metric("serve.server.failed_connections", failed as f64, "count");
    if !with_overhead {
        return Ok(None);
    }
    let root = tr.open("telemetry.mix");
    let (traced, ..) = mix_pass(l, seed, true)?;
    for &(start, end) in &traced.upload_spans {
        tr.record("serve.client.upload", start, end);
    }
    for &(start, end) in &traced.query_spans {
        tr.record("serve.client.query", start, end);
    }
    tr.close(root);
    Ok(Some((p50(&on.upload_ms), p50(&traced.upload_ms))))
}

/// One mix pass on a fresh server, checked. Returns the report, the
/// server's `HEALTH` line after the mix, and its busy rejections and
/// failed connections.
fn mix_pass(
    l: &mut Layers,
    seed: u64,
    wal: bool,
) -> Result<(telemetry::MixReport, String, u64, u64), String> {
    use std::sync::atomic::Ordering::Relaxed;
    let mut setup = telemetry::setup(seed, wal)?;
    let mix = telemetry::drive(&mut setup, MIX_PASS);
    let health = telemetry::health(&setup)?;
    let stats = setup.server.stats();
    let busy = stats.busy_rejections.load(Relaxed);
    let failed = stats.failed_connections.load(Relaxed);
    telemetry::account(&mix, &mut l.out);
    telemetry::check_and_finish(setup, &mut l.out)?;
    Ok((mix, health, busy, failed))
}

/// The traced run.
pub fn run(workload: Workload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut l = Layers {
        out: Outcome::new(),
        samples: HashMap::new(),
        counts: Vec::new(),
    };
    // The run's own workload gets 60% of the budget, the others 15% each.
    let share = |w: Workload| budget.mul_f64(if w == workload { 0.6 } else { 0.15 });
    sim_section(&mut tr, &mut l, share(Workload::PaperRepro).mul_f64(0.4));
    let repro = repro_section(&mut tr, &mut l, share(Workload::PaperRepro).mul_f64(0.6));
    let sweep = sweep_section(&mut tr, &mut l, share(Workload::ParamSweep));
    let inputs = Inputs::new(seed);
    pipeline_section(
        &mut tr,
        &mut l,
        &inputs,
        share(Workload::TelemetryMix).mul_f64(0.5),
    );
    plane_section(&mut tr, &mut l);
    let mix = mix_section(&mut tr, &mut l, seed, workload == Workload::TelemetryMix)?;

    let (plain, traced) = match workload {
        Workload::PaperRepro => repro,
        Workload::ParamSweep => sweep,
        Workload::TelemetryMix => mix.expect("telemetry-mix measures its tracing overhead"),
    };
    l.out
        .metric("trace.overhead_pct", (traced - plain) / plain * 100.0, "%");
    eprintln!("latbench: {} spans recorded", tr.len());

    let path = Path::new(".latbench-work").join(format!("spans-{}.tsv", workload.name()));
    tr.write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    for (name, (total, own, count)) in tr.summary() {
        eprintln!(
            "latbench: span {name:<28} n={count:<6} total {total:>10.3} ms  self {own:>10.3} ms"
        );
    }

    let mut out = l.out;
    let mut timed: Vec<_> = l.samples.into_iter().collect();
    timed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (name, values) in timed {
        let unit = match name.as_str() {
            "os.kernel.ns_per_turn" => "ns",
            "sim.rate" => "s/s",
            _ => "ms",
        };
        eprintln!("latbench: {name} n={}", values.len());
        out.metric(name, fastest(&values), unit);
    }
    let count = |n: &str| l.counts.iter().find(|(k, _)| k == n).map_or(0, |(_, v)| *v);
    let forked = count("bench.sweep.forked_points");
    let points = forked + count("bench.sweep.scratch_points");
    out.metric(
        "bench.sweep.fork_share",
        forked as f64 / points.max(1) as f64,
        "ratio",
    );
    for (name, value) in l.counts {
        let unit = if name.contains("bytes") { "B" } else { "count" };
        out.metric(name, value as f64, unit);
    }
    Ok(out)
}
