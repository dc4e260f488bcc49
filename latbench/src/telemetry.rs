//! `telemetry-mix`: uploads beside queries against an in-process
//! `latlab-serve` server with its WAL on and two shards.
//!
//! Two open-loop generator threads drive it. The uploader sends a fixed
//! [`UPLOADS_PER_SEC`], each a resumable `PUT` of one seeded `idle_corpus`
//! blob, rotating over [`SCENARIOS`] scenario names. The prober sends a
//! fixed [`QUERIES_PER_SEC`] on one connection, cycling `PCTL`, `SNAPSHOT`
//! and `HEALTH`. Both rates are constants, never derived from measured
//! capacity, and every latency runs from the request's due time, so a
//! stall also charges the requests queued behind it.
//!
//! The gated operation is the upload, timed from its due time: `op_ms` is
//! its median and `op_tail_ms` its 90th percentile. Query latency is
//! printed on stderr and measured per verb in the traced run; at ~0.2 ms a
//! query is mostly the host's thread wake-up latency, which drifted by up
//! to a third between runs. The seed chooses the blob's contents and where
//! the scenario rotation starts.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use latlab_analysis::EventClass;
use latlab_serve::{
    fold_corpus, idle_corpus, upload_resumable, PutHeader, QueryClient, ResumeOpts, ServeConfig,
    Server, ShardConfig, UploadOutcome, WalConfig,
};

use crate::result::Outcome;
use crate::stats::{ms, quantile};

/// Uploads per second: about a fifth of one uploader's capacity.
pub const UPLOADS_PER_SEC: u32 = 40;
/// Queries per second.
pub const QUERIES_PER_SEC: u32 = 200;
/// Scenario names the uploads rotate over.
pub const SCENARIOS: usize = 64;
/// Idle-loop records per uploaded blob (about 394 KB on the wire).
pub const BLOB_RECORDS: u64 = 200_000;
/// Spike spacing of the blob, in stamps.
const SPIKE_EVERY: u64 = 64;
/// Upload frame size.
pub const FRAME_LEN: usize = 64 * 1024;
/// Shard workers, pinned so the mix does not depend on the host's cores.
pub const SHARDS: usize = 2;
/// The query verbs the prober cycles, in order.
pub const VERBS: [&str; 3] = ["PCTL", "SNAPSHOT", "HEALTH"];

/// The uploads' event class.
const CLASS: EventClass = EventClass::Keystroke;

/// A directory of this run's own under the working directory, removed on
/// teardown.
fn work_dir(tag: &str) -> PathBuf {
    Path::new(".latbench-work").join(format!("{tag}-{}", std::process::id()))
}

/// Starts a server on an ephemeral loopback port, with a WAL under `wal`
/// when given.
fn start_server(wal: Option<&Path>) -> Result<Server, String> {
    Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_owned(),
        shard: ShardConfig {
            shards: SHARDS,
            ..ShardConfig::default()
        },
        wal: wal.map(WalConfig::new),
        read_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start server: {e}"))
}

/// The seeded inputs: one blob and the scenario names in rotation order.
pub struct Inputs {
    /// The trace every upload sends.
    pub blob: Vec<u8>,
    /// Scenario names, rotated by the seed.
    pub names: Vec<String>,
    /// Samples one upload of `blob` folds into its scenario's sketch.
    pub samples_per_upload: u64,
}

impl Inputs {
    /// Builds the inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let blob = idle_corpus(BLOB_RECORDS, seed, SPIKE_EVERY);
        let samples_per_upload = fold_corpus(&blob, FRAME_LEN, CLASS, false).samples;
        let offset = (seed % SCENARIOS as u64) as usize;
        let names = (0..SCENARIOS)
            .map(|k| format!("mix-{:02}", (k + offset) % SCENARIOS))
            .collect();
        Inputs {
            blob,
            names,
            samples_per_upload,
        }
    }
}

/// A running server plus what it has acknowledged so far.
pub struct Setup {
    /// The server under test.
    pub server: Server,
    /// The run's inputs.
    pub inputs: Inputs,
    /// Acknowledged uploads per scenario, in `inputs.names` order.
    pub acked: Vec<u64>,
    dir: PathBuf,
}

impl Setup {
    /// Drains the server and removes its directory. Returns the final
    /// per-scenario sketches' sample totals, in `inputs.names` order.
    pub fn finish(self) -> Result<Vec<u64>, String> {
        let (_, sketches) = self.server.join();
        let totals = self
            .inputs
            .names
            .iter()
            .map(|n| sketches.get(n).map_or(0, |s| s.total()))
            .collect();
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("remove {}: {e}", self.dir.display()))?;
        Ok(totals)
    }

    /// Drains the server and removes its directory.
    pub fn teardown(self) -> Result<(), String> {
        self.finish().map(drop)
    }
}

/// Starts a server (WAL on unless `wal` is false) in a fresh directory and
/// uploads the blob once to every scenario, so that every `PCTL` has data
/// and the server's buffers and caches are warm.
pub fn setup(seed: u64, wal: bool) -> Result<Setup, String> {
    let dir = work_dir(if wal { "mix-wal" } else { "mix-mem" });
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let server = start_server(wal.then(|| dir.join("wal")).as_deref())?;
    let inputs = Inputs::new(seed);
    let mut acked = vec![0u64; SCENARIOS];
    for (k, name) in inputs.names.iter().enumerate() {
        match upload_one(server.local_addr(), name, &inputs.blob) {
            Ok(()) => acked[k] += 1,
            Err(e) => return Err(format!("warm-up upload to {name}: {e}")),
        }
    }
    Ok(Setup {
        server,
        inputs,
        acked,
        dir,
    })
}

/// One resumable upload of `blob` to `scenario`; `Ok` only on `DONE`.
fn upload_one(addr: std::net::SocketAddr, scenario: &str, blob: &[u8]) -> Result<(), String> {
    let header = PutHeader {
        client: "latbench".to_owned(),
        scenario: scenario.to_owned(),
        class: Some(CLASS),
        resume: true,
        resume_base: None,
    };
    match upload_resumable(addr, &header, blob, FRAME_LEN, &ResumeOpts::default()) {
        Ok(r) => match r.outcome {
            UploadOutcome::Done { .. } => Ok(()),
            other => Err(format!("{other:?}")),
        },
        Err(e) => Err(e.to_string()),
    }
}

/// What one open-loop mix measured.
#[derive(Default)]
pub struct MixReport {
    /// Upload latencies from due time, ms.
    pub upload_ms: Vec<f64>,
    /// Query latencies from due time, ms, with the verb's index in [`VERBS`].
    pub query_ms: Vec<(usize, f64)>,
    /// How late each request was sent after its due time, ms.
    pub late_ms: Vec<f64>,
    /// When each upload was sent and when it ended.
    pub upload_spans: Vec<(Instant, Instant)>,
    /// When each query was sent and when it ended.
    pub query_spans: Vec<(Instant, Instant)>,
    /// Uploads that ended other than `DONE` (refused, failed, timed out).
    pub upload_failures: u64,
    /// Queries that failed or answered `ERR`.
    pub query_failures: u64,
}

impl MixReport {
    /// Query latencies of one verb.
    pub fn verb_ms(&self, verb: usize) -> Vec<f64> {
        self.query_ms
            .iter()
            .filter(|(v, _)| *v == verb)
            .map(|&(_, ms)| ms)
            .collect()
    }

    /// All query latencies.
    pub fn all_query_ms(&self) -> Vec<f64> {
        self.query_ms.iter().map(|&(_, ms)| ms).collect()
    }
}

/// How early a generator wakes from sleep before a request is due: more
/// than a sleep's usual overshoot, so the request goes out on time.
const WAKE_EARLY: Duration = Duration::from_micros(200);

/// Waits until `due`, sleeping until just before it and yielding the CPU
/// for the rest; returns how late the caller is, ms. A plain sleep would
/// overshoot by the timer slack and wake-up latency, adding the host's
/// scheduling noise to every latency measured from the due time.
fn wait_until(due: Instant) -> f64 {
    let now = Instant::now();
    if due > now + WAKE_EARLY {
        std::thread::sleep(due - now - WAKE_EARLY);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
    ms(Instant::now().saturating_duration_since(due))
}

/// Runs the open-loop mix against `setup`'s server for `duration`, adding
/// acknowledged uploads to `setup.acked`.
pub fn drive(setup: &mut Setup, duration: Duration) -> MixReport {
    let addr = setup.server.local_addr();
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + duration;
    let (uploads, queries) = std::thread::scope(|scope| {
        let blob = &setup.inputs.blob;
        let names = &setup.inputs.names;
        let uploader = scope.spawn(move || {
            let period = Duration::from_secs(1) / UPLOADS_PER_SEC;
            let mut lat = Vec::new();
            let mut late = Vec::new();
            let mut spans = Vec::new();
            let mut ok = vec![0u64; SCENARIOS];
            let mut failed = 0u64;
            for i in 0u32.. {
                let due = start + period * i;
                if due >= end {
                    break;
                }
                late.push(wait_until(due));
                let sent = Instant::now();
                let k = i as usize % SCENARIOS;
                match upload_one(addr, &names[k], blob) {
                    Ok(()) => ok[k] += 1,
                    Err(e) => {
                        eprintln!("latbench: upload {i} to {} failed: {e}", names[k]);
                        failed += 1;
                    }
                }
                let done = Instant::now();
                lat.push(ms(done - due));
                spans.push((sent, done));
            }
            (lat, late, spans, ok, failed)
        });
        let prober = scope.spawn(move || {
            let period = Duration::from_secs(1) / QUERIES_PER_SEC;
            let mut lat = Vec::new();
            let mut late = Vec::new();
            let mut spans = Vec::new();
            let mut failed = 0u64;
            let mut client: Option<QueryClient> = None;
            for i in 0u32.. {
                let due = start + period * i;
                if due >= end {
                    break;
                }
                late.push(wait_until(due));
                let sent = Instant::now();
                let verb = i as usize % VERBS.len();
                let command = match verb {
                    0 => format!("PCTL {} 0.9", names[(i as usize / VERBS.len()) % SCENARIOS]),
                    _ => VERBS[verb].to_owned(),
                };
                if client.is_none() {
                    client = QueryClient::connect(addr).ok();
                }
                let reply = match client.as_mut() {
                    Some(c) => c.roundtrip(&command).map_err(|e| e.to_string()),
                    None => Err("connect failed".to_owned()),
                };
                let expect = ["pctl ", "{", "ok "][verb];
                match reply {
                    Ok(line) if line.starts_with(expect) => {}
                    Ok(line) => {
                        eprintln!("latbench: query {command:?} answered {line:?}");
                        failed += 1;
                    }
                    Err(e) => {
                        eprintln!("latbench: query {command:?} failed: {e}");
                        client = None;
                        failed += 1;
                    }
                }
                let done = Instant::now();
                lat.push((verb, ms(done - due)));
                spans.push((sent, done));
            }
            (lat, late, spans, failed)
        });
        (
            uploader.join().expect("uploader thread panicked"),
            prober.join().expect("prober thread panicked"),
        )
    });
    let (upload_ms, mut late_ms, upload_spans, ok, upload_failures) = uploads;
    let (query_ms, query_late, query_spans, query_failures) = queries;
    late_ms.extend(query_late);
    for (a, n) in setup.acked.iter_mut().zip(ok) {
        *a += n;
    }
    MixReport {
        upload_ms,
        query_ms,
        late_ms,
        upload_spans,
        query_spans,
        upload_failures,
        query_failures,
    }
}

/// Counts the mix's requests as attempted operations and its failed
/// uploads and queries as failed ones.
pub fn account(mix: &MixReport, out: &mut Outcome) {
    out.attempted += (mix.upload_ms.len() + mix.query_ms.len()) as u64;
    out.failed += mix.upload_failures + mix.query_failures;
    out.check(mix.upload_failures + mix.query_failures == 0, || {
        format!(
            "{} uploads and {} queries failed",
            mix.upload_failures, mix.query_failures
        )
    });
}

/// Reads one `key=value` field of a `HEALTH` reply.
pub fn health_field(health: &str, key: &str) -> Option<u64> {
    health
        .split_ascii_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// The server's `HEALTH` line.
pub fn health(setup: &Setup) -> Result<String, String> {
    QueryClient::connect(setup.server.local_addr())
        .and_then(|mut c| c.roundtrip("HEALTH"))
        .map_err(|e| format!("HEALTH: {e}"))
}

/// Checks, after the mix: `HEALTH total_samples` equals the samples of
/// every acknowledged upload, and after the drain each scenario's sketch
/// holds exactly its acknowledged uploads' samples.
pub fn check_and_finish(setup: Setup, out: &mut Outcome) -> Result<(), String> {
    let per_upload = setup.inputs.samples_per_upload;
    let expected: u64 = setup.acked.iter().sum::<u64>() * per_upload;
    // Shards publish what they folded once idle for 50 ms; give the last
    // uploads' samples that long to become visible.
    let deadline = Instant::now() + Duration::from_secs(2);
    let total = loop {
        let total = health_field(&health(&setup)?, "total_samples");
        if total == Some(expected) || Instant::now() > deadline {
            break total;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    out.check(total == Some(expected), || {
        format!("HEALTH total_samples {total:?}, acknowledged uploads hold {expected}")
    });
    let acked = setup.acked.clone();
    let names = setup.inputs.names.clone();
    let totals = setup.finish()?;
    for ((name, got), n) in names.iter().zip(totals).zip(acked) {
        out.check(got == n * per_upload, || {
            format!(
                "scenario {name}: sketch total {got}, {n} acknowledged uploads hold {}",
                n * per_upload
            )
        });
    }
    Ok(())
}

/// The untraced run.
pub fn run(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut setup = setup(seed, true)?;
    let mix = drive(&mut setup, budget);
    let mut out = Outcome::new();
    account(&mix, &mut out);
    let busy = setup
        .server
        .stats()
        .busy_rejections
        .load(std::sync::atomic::Ordering::Relaxed);
    check_and_finish(setup, &mut out)?;
    let queries = mix.all_query_ms();
    eprintln!(
        "latbench: telemetry-mix: {} uploads, {} queries (p50 {:.3} ms, p90 {:.3} ms), \
         {busy} busy, generator late p90 {:.3} ms max {:.3} ms",
        mix.upload_ms.len(),
        queries.len(),
        quantile(&queries, 0.5),
        quantile(&queries, 0.9),
        quantile(&mix.late_ms, 0.9),
        quantile(&mix.late_ms, 1.0),
    );
    out.metric("op_ms", quantile(&mix.upload_ms, 0.5), "ms");
    out.metric("op_tail_ms", quantile(&mix.upload_ms, 0.9), "ms");
    Ok(out)
}
