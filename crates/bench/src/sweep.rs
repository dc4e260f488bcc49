//! Parameter sweeps: quantify how each OS cost parameter moves a latency
//! metric — the tooling behind the calibration recorded in DESIGN.md, kept
//! as a first-class research instrument.
//!
//! # The prefix-sharing engine
//!
//! Every metric splits into an expensive **prepare** phase (boot the
//! machine, warm the application) that depends only on the parameter set,
//! and a cheap **measure** phase that reads the metric off the warm state.
//! A sweep evaluates one metric at N values of one parameter, `reps` times
//! each; re-simulating the prepare phase N×reps times is almost entirely
//! redundant. The engine instead:
//!
//! 1. prepares the **stock** prefix once and snapshots it
//!    ([`Machine::snapshot`](latlab_os::Machine::snapshot) /
//!    [`MeasurementSession::snapshot`]);
//! 2. per value: *forks* that snapshot and re-points the parameter when
//!    the kernel's first-read watermarks prove the parameter was never
//!    consulted during the prefix (`snapshot.param_unread`, see
//!    `latlab_os::sweep` for the soundness invariant) — otherwise it
//!    re-simulates the prefix from scratch with the value applied. The
//!    stock value itself always forks: nothing changed;
//! 3. per repetition: snapshots the point state once and restores it per
//!    rep instead of re-running the prefix.
//!
//! The contract is **byte identity**: a forked sweep's output is
//! bit-for-bit the output of `--no-fork` (every point simulated from
//! scratch, every repetition a full re-simulation; the calling thread's
//! [`crate::forkcfg`] setting). CI diffs the two modes' stdout and CSV;
//! the engine itself asserts that repetitions agree. Fork accounting
//! ([`SweepStats`]) is reported out of band. Sweep machines always boot
//! with idle fast-forward on, so worker threads need no setup.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

use latlab_core::{BoundaryPolicy, MeasurementSession, SessionSnapshot};
use latlab_input::{workloads, TestDriver};
use latlab_os::{KeySym, Machine, MachineSnapshot, OsParams, OsProfile, ProcessSpec};

use crate::runner::{deliver_key_and_settle, warm_powerpoint, FREQ};

/// Parameters the sweep tool can vary — the kernel's canonical list
/// (`latlab_os::sweep::SweptParam`), re-exported under the harness's
/// historical name.
pub use latlab_os::SweptParam as SweepParam;

/// Metrics a sweep can read out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SweepMetric {
    /// Mean unbound-keystroke latency on the desktop shell, ms.
    KeystrokeMs,
    /// Warm PowerPoint page-down wall time, ms.
    PagedownMs,
    /// Notepad-session cumulative event latency, s.
    NotepadCumulativeS,
    /// Mean keystroke latency in a warmed-up Word document (the Figure 5
    /// editing session, mid-document), ms.
    WordKeystrokeMs,
    /// Mean keystroke latency in a warmed-up Notepad document (the
    /// Figure 7 editing session, mid-document), ms.
    NotepadKeystrokeMs,
}

impl SweepMetric {
    /// All metrics.
    pub const ALL: [SweepMetric; 5] = [
        SweepMetric::KeystrokeMs,
        SweepMetric::PagedownMs,
        SweepMetric::NotepadCumulativeS,
        SweepMetric::WordKeystrokeMs,
        SweepMetric::NotepadKeystrokeMs,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SweepMetric::KeystrokeMs => "keystroke",
            SweepMetric::PagedownMs => "pagedown",
            SweepMetric::NotepadCumulativeS => "notepad-cumulative",
            SweepMetric::WordKeystrokeMs => "word-keystroke",
            SweepMetric::NotepadKeystrokeMs => "notepad-keystroke",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<SweepMetric> {
        SweepMetric::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Unit label.
    pub fn unit(self) -> &'static str {
        match self {
            SweepMetric::NotepadCumulativeS => "s",
            _ => "ms",
        }
    }

    /// The expensive, parameter-dependent prefix: boot the machine (or
    /// measurement session) and warm the application to the state the
    /// measurement starts from. This is the phase the sweep engine shares
    /// across points and repetitions.
    pub fn prepare(self, params: OsParams) -> Prepared {
        match self {
            SweepMetric::KeystrokeMs => {
                let mut machine = Machine::new(params);
                let tid = machine.spawn(
                    ProcessSpec::app("desktop"),
                    Box::new(latlab_apps::Desktop::new(
                        latlab_apps::DesktopConfig::default(),
                    )),
                );
                machine.set_focus(tid);
                Prepared::Machine(machine)
            }
            SweepMetric::PagedownMs => Prepared::Machine(warm_powerpoint(Machine::new(params), 5)),
            SweepMetric::NotepadCumulativeS => {
                let mut session = MeasurementSession::with_params(params, true);
                session.launch_app(
                    ProcessSpec::app("notepad"),
                    Box::new(latlab_apps::Notepad::new(
                        latlab_apps::NotepadConfig::default(),
                    )),
                );
                Prepared::Session(session)
            }
            SweepMetric::WordKeystrokeMs => {
                let mut machine = Machine::new(params);
                let tid = machine.spawn(
                    ProcessSpec::app("word").with_heavy_async(),
                    Box::new(latlab_apps::Word::new(latlab_apps::WordConfig::default())),
                );
                machine.set_focus(tid);
                // Type 400 characters of prose at a brisk hand pace: the
                // document, Word's background spell/justify queue, and the
                // simulator's caches all end up mid-session warm. The
                // prefix is deliberately long relative to the measured
                // burst — that ratio is what prefix sharing amortizes.
                for i in 0..400u64 {
                    let key = if i % 40 == 39 {
                        KeySym::Enter
                    } else if i % 6 == 5 {
                        KeySym::Char(' ')
                    } else {
                        KeySym::Char(b"typing"[(i % 6) as usize] as char)
                    };
                    machine.schedule_input_at(
                        latlab_des::SimTime::ZERO + FREQ.ms(100 + i * 150),
                        latlab_os::InputKind::Key(key),
                    );
                }
                machine.run_until(latlab_des::SimTime::ZERO + FREQ.ms(100 + 400 * 150 + 2_000));
                Prepared::Machine(machine)
            }
            SweepMetric::NotepadKeystrokeMs => {
                let mut machine = Machine::new(params);
                let tid = machine.spawn(
                    ProcessSpec::app("notepad"),
                    Box::new(latlab_apps::Notepad::new(
                        latlab_apps::NotepadConfig::default(),
                    )),
                );
                machine.set_focus(tid);
                // The §5.1 editing session's first stretch: 500 characters
                // at ~100 wpm with a screen refresh every line or so. As
                // with Word, the long prefix is the point — it is what the
                // sweep engine shares across points and repetitions.
                for i in 0..500u64 {
                    let key = if i % 31 == 30 {
                        KeySym::Enter
                    } else {
                        KeySym::Char(b"editing "[(i % 8) as usize] as char)
                    };
                    machine.schedule_input_at(
                        latlab_des::SimTime::ZERO + FREQ.ms(100 + i * 80),
                        latlab_os::InputKind::Key(key),
                    );
                }
                machine.run_until(latlab_des::SimTime::ZERO + FREQ.ms(100 + 500 * 80 + 1_000));
                Prepared::Machine(machine)
            }
        }
    }

    /// The cheap phase: drive the measured operation on the prepared state
    /// and read the metric.
    pub fn measure(self, prepared: Prepared) -> f64 {
        match (self, prepared) {
            (SweepMetric::KeystrokeMs, Prepared::Machine(mut machine)) => {
                let mut ids = Vec::new();
                for i in 0..10u64 {
                    ids.push(machine.schedule_input_at(
                        latlab_des::SimTime::ZERO + FREQ.ms(50 + i * 397),
                        latlab_os::InputKind::Key(KeySym::Char('q')),
                    ));
                }
                machine.run_until(latlab_des::SimTime::ZERO + FREQ.secs(6));
                mean_latency_ms(&machine, &ids)
            }
            (SweepMetric::PagedownMs, Prepared::Machine(mut machine)) => {
                deliver_key_and_settle(&mut machine, KeySym::PageUp);
                let before = machine.read_cycle_counter();
                deliver_key_and_settle(&mut machine, KeySym::PageDown);
                (machine.read_cycle_counter() - before) as f64 / 100_000.0
            }
            (SweepMetric::NotepadCumulativeS, Prepared::Session(mut session)) => {
                let script = workloads::notepad_session();
                TestDriver::ms_test().schedule(
                    session.machine(),
                    latlab_des::SimTime::ZERO + FREQ.ms(100),
                    &script,
                );
                session.run_until_quiescent(
                    latlab_des::SimTime::ZERO + script.duration() + FREQ.secs(10),
                );
                let m = session.finish(BoundaryPolicy::SplitAtRetrieval);
                m.events
                    .iter()
                    .filter(|e| !e.is_test_overhead())
                    .map(|e| e.latency_ms(FREQ))
                    .sum::<f64>()
                    / 1_000.0
            }
            (
                SweepMetric::WordKeystrokeMs | SweepMetric::NotepadKeystrokeMs,
                Prepared::Machine(mut machine),
            ) => {
                let t0 = machine.now();
                let mut ids = Vec::new();
                for i in 0..5u64 {
                    ids.push(machine.schedule_input_at(
                        t0 + FREQ.ms(300 + i * 400),
                        latlab_os::InputKind::Key(KeySym::Char('m')),
                    ));
                }
                machine.run_until(t0 + FREQ.ms(300 + 5 * 400 + 1_500));
                mean_latency_ms(&machine, &ids)
            }
            (metric, _) => unreachable!("prepared state does not match metric {metric:?}"),
        }
    }

    /// Evaluates the metric under a parameter set from scratch — by
    /// definition, `measure(prepare(params))`. This is the `--no-fork`
    /// oracle the forked engine must match bit for bit.
    pub fn evaluate(self, params: OsParams) -> f64 {
        self.measure(self.prepare(params))
    }
}

/// Mean ground-truth latency (ms) of the given input events.
fn mean_latency_ms(machine: &Machine, ids: &[u64]) -> f64 {
    let total: f64 = ids
        .iter()
        .map(|&id| {
            FREQ.to_ms(
                machine
                    .ground_truth()
                    .event(id)
                    .unwrap()
                    .true_latency()
                    .unwrap(),
            )
        })
        .sum();
    total / ids.len() as f64
}

/// A metric's warm prefix state: the machine (or full measurement
/// session) positioned where the measurement starts.
pub enum Prepared {
    /// Plain-machine metrics (ground-truth readout).
    Machine(Machine),
    /// Session metrics (idle-loop + API-log measurement stack installed).
    Session(MeasurementSession),
}

impl Prepared {
    /// Freezes the prefix into a restorable snapshot.
    pub fn snapshot(&mut self) -> PreparedSnapshot {
        match self {
            Prepared::Machine(m) => PreparedSnapshot::Machine(m.snapshot()),
            Prepared::Session(s) => PreparedSnapshot::Session(s.snapshot()),
        }
    }

    /// Re-points a swept parameter (the fork edit). Soundness is the
    /// caller's obligation — check [`PreparedSnapshot::param_unread`].
    pub fn apply_param(&mut self, param: SweepParam, value: u64) {
        match self {
            Prepared::Machine(m) => m.apply_param(param, value),
            Prepared::Session(s) => s.apply_param(param, value),
        }
    }
}

/// A frozen warm prefix (see [`Prepared::snapshot`]).
pub enum PreparedSnapshot {
    /// Snapshot of a plain machine.
    Machine(MachineSnapshot),
    /// Snapshot of a measurement session.
    Session(SessionSnapshot),
}

impl PreparedSnapshot {
    /// Reconstructs the prefix state; the continuation behaves
    /// bit-identically to the state the snapshot was taken from.
    pub fn restore(&self) -> Prepared {
        match self {
            PreparedSnapshot::Machine(m) => Prepared::Machine(Machine::restore(m)),
            PreparedSnapshot::Session(s) => Prepared::Session(MeasurementSession::restore(s)),
        }
    }

    /// True when forking this prefix with `param` changed is provably
    /// bit-identical to a scratch prefix with the parameter applied from
    /// boot.
    pub fn param_unread(&self, param: SweepParam) -> bool {
        match self {
            PreparedSnapshot::Machine(m) => m.param_unread(param),
            PreparedSnapshot::Session(s) => s.param_unread(param),
        }
    }
}

/// One sweep row.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// The parameter value.
    pub value: u64,
    /// The measured metric.
    pub metric: f64,
}

/// How the sweep engine arrived at its points — fork accounting, reported
/// out of band (stderr) so stdout stays byte-identical across modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Points whose prefix was forked from the shared stock snapshot
    /// (the stock point itself, plus every provably-unread parameter
    /// value).
    pub forked_points: usize,
    /// Points that re-simulated their prefix from scratch (parameter read
    /// during the prefix, or forking disabled).
    pub scratch_points: usize,
    /// Repetitions served by restoring a per-point snapshot.
    pub forked_reps: usize,
    /// Repetitions that re-simulated the prefix (`--no-fork`).
    pub scratch_reps: usize,
}

/// Builds the shared stock-prefix snapshot for a forked sweep. A panic
/// during the stock prepare falls back to `None` — every point then
/// prepares from scratch and reports its own failure through the normal
/// per-point path.
fn build_snap0(metric: SweepMetric, profile: OsProfile) -> Option<PreparedSnapshot> {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut prefix = metric.prepare(profile.params());
        prefix.snapshot()
    }))
    .ok()
}

/// Runs one sweep point: prefix via fork-or-scratch, then `reps`
/// measurements (which must agree bit for bit — the simulation is
/// deterministic, and the engine asserts it).
fn run_point(
    profile: OsProfile,
    param: SweepParam,
    metric: SweepMetric,
    value: u64,
    reps: usize,
    snap0: Option<&Mutex<PreparedSnapshot>>,
    stats: &Mutex<SweepStats>,
) -> SweepPoint {
    let reps = reps.max(1);
    let stock = param.stock(profile);
    let check_rep = |first: Option<f64>, v: f64| {
        if let Some(prev) = first {
            assert_eq!(
                f64::to_bits(v),
                f64::to_bits(prev),
                "repetitions of a deterministic point must agree ({} = {value})",
                param.name()
            );
        }
    };
    // Fork when provably sound: the stock point shares the prefix
    // trivially (nothing changed); any other value may share it only if
    // the prefix never consulted the parameter. A forked point needs no
    // per-point snapshot — every repetition forks the shared stock
    // snapshot directly (and re-points the parameter, which commutes with
    // nothing the prefix did).
    let forked = snap0.is_some_and(|snap| {
        let snap = snap.lock().unwrap();
        value == stock || snap.param_unread(param)
    });
    let measured = if forked {
        let snap = snap0.expect("forked implies snap0");
        let mut out = None;
        for _ in 0..reps {
            let mut prepared = snap.lock().unwrap().restore();
            if value != stock {
                prepared.apply_param(param, value);
            }
            let v = metric.measure(prepared);
            check_rep(out, v);
            out = Some(v);
        }
        out.expect("reps >= 1")
    } else {
        let mut params = profile.params();
        param.apply(&mut params, value);
        let mut prepared = metric.prepare(params.clone());
        if reps == 1 {
            metric.measure(prepared)
        } else if snap0.is_some() {
            // Forking enabled but the prefix read the parameter: prepare
            // once from scratch, then share it across repetitions via a
            // per-point snapshot (the first rep measures the original).
            let point_snap = prepared.snapshot();
            let first = metric.measure(prepared);
            let mut out = Some(first);
            for _ in 1..reps {
                let v = metric.measure(point_snap.restore());
                check_rep(out, v);
                out = Some(v);
            }
            first
        } else {
            // --no-fork oracle: every repetition is a full re-simulation.
            let first = metric.measure(prepared);
            let mut out = Some(first);
            for _ in 1..reps {
                let v = metric.evaluate(params.clone());
                check_rep(out, v);
                out = Some(v);
            }
            first
        }
    };

    {
        let mut s = stats.lock().unwrap();
        if forked {
            s.forked_points += 1;
        } else {
            s.scratch_points += 1;
        }
        if snap0.is_some() {
            s.forked_reps += reps.saturating_sub(1);
        } else {
            s.scratch_reps += reps.saturating_sub(1);
        }
    }
    SweepPoint {
        value,
        metric: measured,
    }
}

/// The shared stock prefix for a sweep, honoring the calling thread's
/// fork setting.
fn sweep_snap0(profile: OsProfile, metric: SweepMetric) -> Option<Mutex<PreparedSnapshot>> {
    if crate::forkcfg::default_enabled() {
        build_snap0(metric, profile).map(Mutex::new)
    } else {
        None
    }
}

/// Runs a whole sweep *grid* — several parameter columns of the same
/// metric on the same profile — sharing a single stock-prefix snapshot
/// across every column (each column's stock point, and every provably
/// unread parameter value, forks the same prepare). This is what the perf
/// harness times: amortizing the stock prepare over all columns is where
/// the fork engine's headline speedup comes from.
///
/// Returns one `Vec<SweepPoint>` per input column, in order, plus the
/// aggregate fork accounting. Every point is a deterministic simulation,
/// so the results are identical — in values, order and bits — whatever
/// `jobs` (`0` = one per core) and `reps` are, whether forking is enabled
/// (the calling thread's [`crate::forkcfg`] setting), and whether a column
/// runs alone or in a grid.
pub fn run_sweep_grid(
    profile: OsProfile,
    metric: SweepMetric,
    columns: &[(SweepParam, Vec<u64>)],
    reps: usize,
    jobs: usize,
) -> (Vec<Vec<SweepPoint>>, SweepStats) {
    let snap0 = sweep_snap0(profile, metric);
    let stats = Mutex::new(SweepStats::default());
    let flat: Vec<(SweepParam, u64)> = columns
        .iter()
        .flat_map(|(p, vs)| vs.iter().map(move |&v| (*p, v)))
        .collect();
    let points =
        crate::pool::run_collect(crate::pool::resolve_jobs(jobs), flat.len(), |i: usize| {
            let (param, value) = flat[i];
            run_point(profile, param, metric, value, reps, snap0.as_ref(), &stats)
        });
    let mut out = Vec::with_capacity(columns.len());
    let mut rest = points.into_iter();
    for (_, vs) in columns {
        out.push(rest.by_ref().take(vs.len()).collect());
    }
    (out, stats.into_inner().unwrap())
}

/// A one-column [`run_sweep_grid`], but supervised: a point whose
/// simulation panics (or exceeds `timeout`) is reported as a failed
/// [`JobOutcome`](crate::pool::JobOutcome) while every other point still
/// completes. Results come back as `(value, outcome)` pairs in input
/// order.
pub fn run_sweep_supervised(
    profile: OsProfile,
    param: SweepParam,
    metric: SweepMetric,
    values: &[u64],
    reps: usize,
    jobs: usize,
    timeout: Option<std::time::Duration>,
) -> (Vec<(u64, crate::pool::JobOutcome<SweepPoint>)>, SweepStats) {
    let values: Arc<Vec<u64>> = Arc::new(values.to_vec());
    let worker_values = Arc::clone(&values);
    let snap0: Arc<Option<Mutex<PreparedSnapshot>>> = Arc::new(sweep_snap0(profile, metric));
    let worker_snap0 = Arc::clone(&snap0);
    let stats = Arc::new(Mutex::new(SweepStats::default()));
    let worker_stats = Arc::clone(&stats);
    let mut out = Vec::with_capacity(values.len());
    crate::pool::run_supervised(
        crate::pool::resolve_jobs(jobs),
        values.len(),
        timeout,
        move |i| {
            run_point(
                profile,
                param,
                metric,
                worker_values[i],
                reps,
                worker_snap0.as_ref().as_ref(),
                &worker_stats,
            )
        },
        |i, outcome| out.push((values[i], outcome)),
    );
    let collected = *stats.lock().unwrap();
    (out, collected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-column [`run_sweep_grid`].
    fn run_column(
        profile: OsProfile,
        param: SweepParam,
        metric: SweepMetric,
        values: &[u64],
        reps: usize,
        jobs: usize,
    ) -> (Vec<SweepPoint>, SweepStats) {
        let (mut columns, stats) =
            run_sweep_grid(profile, metric, &[(param, values.to_vec())], reps, jobs);
        (columns.remove(0), stats)
    }

    #[test]
    fn parse_names() {
        assert_eq!(
            SweepParam::parse("gdi-batch-size"),
            Some(SweepParam::GdiBatchSize)
        );
        assert_eq!(SweepParam::parse("nope"), None);
        assert_eq!(
            SweepMetric::parse("keystroke"),
            Some(SweepMetric::KeystrokeMs)
        );
        assert_eq!(
            SweepMetric::parse("word-keystroke"),
            Some(SweepMetric::WordKeystrokeMs)
        );
        assert_eq!(
            SweepMetric::parse("notepad-keystroke"),
            Some(SweepMetric::NotepadKeystrokeMs)
        );
        assert_eq!(SweepMetric::parse("nope"), None);
    }

    #[test]
    fn crossing_sweep_moves_keystroke_latency() {
        let (points, _) = run_column(
            OsProfile::Nt351,
            SweepParam::CrossingInstr,
            SweepMetric::KeystrokeMs,
            &[1_000, 20_000],
            1,
            1,
        );
        assert!(
            points[1].metric > points[0].metric + 0.1,
            "heavier crossings must slow keystrokes: {points:?}"
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let values = [1_000, 5_000, 10_000, 20_000];
        let (seq, _) = run_column(
            OsProfile::Nt40,
            SweepParam::CrossingInstr,
            SweepMetric::KeystrokeMs,
            &values,
            1,
            1,
        );
        let (par, _) = run_column(
            OsProfile::Nt40,
            SweepParam::CrossingInstr,
            SweepMetric::KeystrokeMs,
            &values,
            1,
            4,
        );
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.value, b.value);
            assert_eq!(a.metric.to_bits(), b.metric.to_bits(), "point {}", a.value);
        }
    }

    #[test]
    fn stock_values_resolve() {
        for p in SweepParam::ALL {
            assert!(p.stock(OsProfile::Nt40) > 0);
        }
    }

    #[test]
    fn forked_sweep_is_byte_identical_to_scratch() {
        let stock = SweepParam::InputDispatchInstr.stock(OsProfile::Nt40);
        let values = [stock / 2, stock, stock * 3];
        let (forked, fstats) = run_column(
            OsProfile::Nt40,
            SweepParam::InputDispatchInstr,
            SweepMetric::NotepadKeystrokeMs,
            &values,
            2,
            1,
        );
        let _scratch_mode = crate::forkcfg::override_default(false);
        let (scratch, sstats) = run_column(
            OsProfile::Nt40,
            SweepParam::InputDispatchInstr,
            SweepMetric::NotepadKeystrokeMs,
            &values,
            2,
            1,
        );
        for (a, b) in forked.iter().zip(&scratch) {
            assert_eq!(a.value, b.value);
            assert_eq!(
                a.metric.to_bits(),
                b.metric.to_bits(),
                "fork must be invisible at value {}",
                a.value
            );
        }
        // Input dispatch happens during the warm typing, so only the stock
        // point forks; repetitions always share once forking is on.
        assert_eq!(fstats.forked_points, 1, "{fstats:?}");
        assert_eq!(fstats.scratch_points, 2, "{fstats:?}");
        assert_eq!(fstats.forked_reps, 3, "{fstats:?}");
        assert_eq!(
            sstats,
            SweepStats {
                forked_points: 0,
                scratch_points: 3,
                forked_reps: 0,
                scratch_reps: 3,
            },
            "--no-fork must not fork anything"
        );
    }

    #[test]
    fn unread_param_forks_across_points() {
        // Notepad never writes a file, so the write-path overhead is
        // provably unread through the warm prefix: every point forks, and
        // the metric is flat across values.
        let stock = SweepParam::WriteOverheadMilli.stock(OsProfile::Nt40);
        let (points, stats) = run_column(
            OsProfile::Nt40,
            SweepParam::WriteOverheadMilli,
            SweepMetric::NotepadKeystrokeMs,
            &[stock, stock * 4],
            1,
            1,
        );
        assert_eq!(stats.forked_points, 2, "{stats:?}");
        assert_eq!(stats.scratch_points, 0, "{stats:?}");
        assert_eq!(points[0].metric.to_bits(), points[1].metric.to_bits());
    }

    #[test]
    fn boot_read_param_falls_back_to_scratch() {
        // The buffer cache is sized at boot, so cache-blocks can never
        // fork — the engine must prove it and re-simulate.
        let stock = SweepParam::CacheBlocks.stock(OsProfile::Nt40);
        let (_, stats) = run_column(
            OsProfile::Nt40,
            SweepParam::CacheBlocks,
            SweepMetric::KeystrokeMs,
            &[stock, stock * 2],
            1,
            1,
        );
        assert_eq!(stats.forked_points, 1, "stock point still forks: {stats:?}");
        assert_eq!(stats.scratch_points, 1, "{stats:?}");
    }

    #[test]
    fn grid_matches_per_column_sweeps() {
        let columns: Vec<(SweepParam, Vec<u64>)> =
            [SweepParam::CrossingInstr, SweepParam::WriteOverheadMilli]
                .into_iter()
                .map(|p| {
                    let stock = p.stock(OsProfile::Nt40);
                    (p, vec![stock, stock * 2])
                })
                .collect();
        let (grid, gstats) =
            run_sweep_grid(OsProfile::Nt40, SweepMetric::KeystrokeMs, &columns, 1, 2);
        assert_eq!(grid.len(), columns.len());
        for ((param, values), points) in columns.iter().zip(&grid) {
            let (solo, _) = run_column(
                OsProfile::Nt40,
                *param,
                SweepMetric::KeystrokeMs,
                values,
                1,
                1,
            );
            for (a, b) in points.iter().zip(&solo) {
                assert_eq!(a.value, b.value);
                assert_eq!(
                    a.metric.to_bits(),
                    b.metric.to_bits(),
                    "grid point {} of {} must match the solo sweep",
                    a.value,
                    param.name()
                );
            }
        }
        assert_eq!(gstats.forked_points + gstats.scratch_points, 4);
    }

    #[test]
    fn supervised_forked_sweep_completes() {
        let stock = SweepParam::GuiPathMilli.stock(OsProfile::Nt40);
        let (outcomes, stats) = run_sweep_supervised(
            OsProfile::Nt40,
            SweepParam::GuiPathMilli,
            SweepMetric::KeystrokeMs,
            &[stock, stock * 2],
            2,
            2,
            None,
        );
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes
            .iter()
            .all(|(_, o)| matches!(o, crate::pool::JobOutcome::Completed(_))));
        assert_eq!(stats.forked_points + stats.scratch_points, 2);
        assert_eq!(stats.forked_reps, 2);
    }
}
