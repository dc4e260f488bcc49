//! `param-sweep`: the full sweep grid, repeated in one process on one
//! worker. A grid is every `SweepParam` at 5 values around stock, 5 reps
//! each, through `run_sweep_grid` with forking at its default; the
//! operation is the pair fig5-word (Word on NT 3.51, `word-keystroke`)
//! plus fig7-notepad (Notepad on NT 4.0, `notepad-keystroke`).
//!
//! The operation is one grid; it comes in two kinds, each deterministic.
//! `op_ms` is a pair at each grid's [`fastest`](crate::stats::fastest)
//! time, and `op_tail_ms` the slow end of those times. The grid is fixed by
//! the stock parameters, so the seed is not used.

use std::time::{Duration, Instant};

use latlab_bench::sweep::{run_sweep_grid, SweepMetric, SweepParam, SweepPoint, SweepStats};
use latlab_os::OsProfile;

use crate::result::Outcome;
use crate::stats::{across_kinds, composite, ms};
use crate::SetupProbes;

/// Repetitions per grid point.
pub const REPS: usize = 5;

/// One grid: an app's metric on its OS, over every parameter column.
pub struct Grid {
    /// Short name, as the perf harness reports it.
    pub id: &'static str,
    /// The OS profile.
    pub os: OsProfile,
    /// The warm editing metric.
    pub metric: SweepMetric,
    /// `(param, values)` columns.
    pub columns: Vec<(SweepParam, Vec<u64>)>,
}

impl Grid {
    fn new(id: &'static str, os: OsProfile, metric: SweepMetric) -> Grid {
        let columns = SweepParam::ALL
            .into_iter()
            .map(|p| {
                let stock = p.stock(os);
                let mut values = vec![stock / 2, stock * 3 / 4, stock, stock * 2, stock * 4];
                values.retain(|&v| v > 0);
                values.dedup();
                (p, values)
            })
            .collect();
        Grid {
            id,
            os,
            metric,
            columns,
        }
    }

    /// Points in the grid.
    pub fn points(&self) -> usize {
        self.columns.iter().map(|(_, v)| v.len()).sum()
    }

    /// Runs the grid on one worker; forking follows the calling thread's
    /// setting (on by default).
    pub fn run(&self, reps: usize) -> (Vec<Vec<SweepPoint>>, SweepStats) {
        run_sweep_grid(self.os, self.metric, &self.columns, reps, 1)
    }

    /// The reference: every point simulated from scratch (`forkcfg` off).
    /// Repetitions cannot change a point's value (the engine asserts they
    /// agree bit for bit), so one suffices.
    pub fn run_scratch(&self) -> Vec<Vec<SweepPoint>> {
        let _scratch = latlab_bench::forkcfg::override_default(false);
        self.run(1).0
    }

    /// Grid points whose value differs from `reference` in any bit.
    pub fn diverging(&self, got: &[Vec<SweepPoint>], reference: &[Vec<SweepPoint>]) -> Vec<String> {
        let mut bad = Vec::new();
        for (((param, _), g), r) in self.columns.iter().zip(got).zip(reference) {
            for (a, b) in g.iter().zip(r) {
                if a.value != b.value || a.metric.to_bits() != b.metric.to_bits() {
                    bad.push(format!(
                        "{} {}={}: {} vs scratch {}",
                        self.id,
                        param.name(),
                        a.value,
                        a.metric,
                        b.metric
                    ));
                }
            }
            if g.len() != r.len() {
                bad.push(format!(
                    "{} {}: column length differs",
                    self.id,
                    param.name()
                ));
            }
        }
        bad
    }
}

/// The grid pair, fig5-word first.
pub fn grids() -> [Grid; 2] {
    [
        Grid::new("fig5-word", OsProfile::Nt351, SweepMetric::WordKeystrokeMs),
        Grid::new(
            "fig7-notepad",
            OsProfile::Nt40,
            SweepMetric::NotepadKeystrokeMs,
        ),
    ]
}

/// The set-up: the grid definitions plus one warm-up grid pair.
pub fn setup() -> [Grid; 2] {
    let grids = grids();
    for grid in &grids {
        std::hint::black_box(grid.run(REPS));
    }
    grids
}

/// The untraced run: grid pairs until `budget` has gone to them, with the
/// set-up probes in between; then the scratch reference, once.
pub fn run(budget: Duration, probes: &mut SetupProbes) -> Result<Outcome, String> {
    let grids = setup();
    let mut out = Outcome::new();
    let mut by_grid = [Vec::new(), Vec::new()];
    let mut results: Vec<[Vec<Vec<SweepPoint>>; 2]> = Vec::new();
    let mut timed = Duration::ZERO;
    while timed < budget || results.len() < 3 {
        let t0 = Instant::now();
        let (a, _) = grids[0].run(REPS);
        let t1 = Instant::now();
        let (b, _) = grids[1].run(REPS);
        let t2 = Instant::now();
        timed += t2 - t0;
        by_grid[0].push(ms(t1 - t0));
        by_grid[1].push(ms(t2 - t1));
        results.push([a, b]);
        probes.tick(timed)?;
    }
    let scratch = [grids[0].run_scratch(), grids[1].run_scratch()];
    for pair in &results {
        for ((grid, got), reference) in grids.iter().zip(pair).zip(&scratch) {
            let bad = grid.diverging(got, reference);
            out.attempted += grid.points() as u64;
            out.failed += bad.len() as u64;
            out.check(bad.is_empty(), || bad.join("; "));
        }
    }
    eprintln!("latbench: param-sweep: {} grid pairs", results.len());
    out.metric("op_ms", composite(&by_grid), "ms");
    out.metric("op_tail_ms", across_kinds(&by_grid, 0.9), "ms");
    Ok(out)
}
