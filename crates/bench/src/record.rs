//! Optional trace recording for standard runs (`repro --record DIR`).
//!
//! When enabled, every [`run_session`](crate::runner::run_session) streams
//! its idle-loop stamps and message-API log to disk as binary trace files
//! while the simulation runs — bounded memory, no post-hoc dump.
//!
//! A [`Recorder`] is **scenario-scoped** and travels inside the
//! [`RunConfig`](crate::runner::RunConfig): the parallel experiment engine
//! builds one per scenario, with that scenario's id as the scope. File
//! names are derived from the scope plus a per-scope run counter —
//! `<scope>-NN-<label>.stamps.ltrc` / `<scope>-NN-<label>.apilog.ltrc` —
//! never from a global counter, so the set of files and their bytes are
//! identical no matter how runs interleave across workers (`--jobs N` and
//! `--jobs 1` produce byte-identical trace directories). Clones share the
//! counter, so a config derived from the scenario's (say, with a
//! different fault plan) keeps numbering where the scenario left off.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use latlab_des::{CpuFreq, SimDuration};
use latlab_trace::{FileSink, StreamKind, TraceError, TraceMeta, TraceSink};

/// Where and under which scope standard runs write their traces.
#[derive(Clone, Debug)]
pub struct Recorder {
    dir: PathBuf,
    scope: String,
    seq: Arc<AtomicU32>,
}

impl Recorder {
    /// A recorder writing under `dir` (created if missing), naming files
    /// `<scope>-NN-<label>`.
    ///
    /// The scope is part of every file name and the per-scope counter
    /// starts at 1, so recordings made under different scopes never
    /// collide — the property the parallel engine relies on when
    /// scenarios record concurrently from several worker threads.
    ///
    /// # Errors
    ///
    /// Any error creating `dir`.
    pub fn new(dir: &Path, scope: &str) -> std::io::Result<Recorder> {
        std::fs::create_dir_all(dir)?;
        Ok(Recorder {
            dir: dir.to_path_buf(),
            scope: scope.to_owned(),
            seq: Arc::new(AtomicU32::new(0)),
        })
    }

    /// Opens the sink pair for the next run. `label` names the run
    /// (personality + workload); `baseline` and `freq` go into the stamp
    /// header's calibration fields.
    ///
    /// # Panics
    ///
    /// Panics if the trace files cannot be created — recording was
    /// explicitly requested, so failing quietly would silently drop data.
    pub(crate) fn open_run_sinks(
        &self,
        label: &str,
        baseline: SimDuration,
        freq: CpuFreq,
        seed: u64,
    ) -> (Box<dyn TraceSink>, Box<dyn TraceSink>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let make = |kind: StreamKind| -> Result<Box<dyn TraceSink>, TraceError> {
            let name = format!("{}-{seq:02}-{label}.{}.ltrc", self.scope, kind.name());
            let meta = TraceMeta {
                kind,
                freq,
                baseline,
                seed,
                personality: label.to_owned(),
            };
            // FileSink writes to `<path>.tmp` and renames on finish: a
            // crash mid-run leaves only the salvageable temp file, never a
            // truncated file under the final name.
            Ok(Box::new(FileSink::create(self.dir.join(name), meta)?))
        };
        let stamps = make(StreamKind::IdleStamps).expect("failed to create stamp trace file");
        let api = make(StreamKind::ApiLog).expect("failed to create apilog trace file");
        (stamps, api)
    }
}

/// A deterministic 64-bit fingerprint (FNV-1a) of a workload's serialized
/// form, recorded in the trace header's seed field so that traces of the
/// same workload are identifiable without out-of-band context.
pub fn script_fingerprint(serialized: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in serialized.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
