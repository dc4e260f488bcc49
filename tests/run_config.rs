//! The explicit run configuration: every machine a scenario boots takes
//! its fast-forward setting, fault plan and trace recorder from the
//! `RunConfig` passed down to it, never from state left on the thread.
//!
//! * fast-forward on and off give byte-identical reports, artifacts and
//!   traces, with a fault plan installed and recording on — including a
//!   scope (`faults`) whose rows derive their own configs and must keep
//!   sharing the scenario's run counter;
//! * a faulted and a clean config run concurrently on two threads give
//!   exactly what they give one after the other.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

use latlab_bench::engine::{run_scenarios, EngineConfig};
use latlab_bench::{scenarios, RunConfig};
use latlab_os::FaultPlan;

const SPEC: &str = "seed=7;storm:period=5000,instr=15000;jitter:rate=300;input:drop=100,dup=100";

fn plan() -> FaultPlan {
    FaultPlan::parse(SPEC).expect("fault spec parses")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("latlab-runcfg-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, relative name → bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir");
                let bytes = std::fs::read(&path).expect("read file");
                out.insert(rel.to_string_lossy().into_owned(), bytes);
            }
        }
    }
    out
}

/// Rendered reports, artifacts and traces of one engine pass.
type Pass = (
    Vec<String>,
    BTreeMap<String, Vec<u8>>,
    BTreeMap<String, Vec<u8>>,
);

fn engine_pass(ids: &[String], fastforward: bool) -> Pass {
    let base = scratch_dir(&format!("ff-{fastforward}"));
    let cfg = EngineConfig {
        jobs: 1,
        out_dir: Some(base.join("out")),
        record_dir: Some(base.join("rec")),
        faults: Some(plan()),
        fastforward,
        ..EngineConfig::default()
    };
    let mut reports = Vec::new();
    run_scenarios(ids, &cfg, |run| {
        assert!(run.failure().is_none(), "{}: {:?}", run.id, run.failure());
        assert!(
            run.artifact_errors().is_empty(),
            "{:?}",
            run.artifact_errors()
        );
        reports.extend(run.reports().iter().map(|r| r.render()));
    });
    let pass = (
        reports,
        dir_bytes(&base.join("out")),
        dir_bytes(&base.join("rec")),
    );
    let _ = std::fs::remove_dir_all(&base);
    pass
}

#[test]
fn fastforward_on_and_off_are_byte_identical_under_faults_and_recording() {
    let ids: Vec<String> = ["fig6", "faults"].map(String::from).to_vec();
    let (on_reports, on_out, on_rec) = engine_pass(&ids, true);
    let (off_reports, off_out, off_rec) = engine_pass(&ids, false);

    assert_eq!(on_reports, off_reports);
    assert_eq!(
        on_out.keys().collect::<Vec<_>>(),
        off_out.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &on_out {
        assert_eq!(bytes, &off_out[name], "artifact {name} differs");
    }
    assert_eq!(
        on_rec.keys().collect::<Vec<_>>(),
        off_rec.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &on_rec {
        assert_eq!(bytes, &off_rec[name], "trace {name} differs");
    }

    // Both scopes record several runs. The fault matrix runs each row
    // under a config derived from the scenario's, so its traces number
    // 01..06 only if the derived configs share the recorder's counter.
    for (scope, runs) in [("fig6", 6), ("faults", 6)] {
        let stamps: Vec<&String> = on_rec
            .keys()
            .filter(|k| k.starts_with(&format!("{scope}-")) && k.ends_with(".stamps.ltrc"))
            .collect();
        let seqs: Vec<String> = stamps
            .iter()
            .map(|k| k[scope.len() + 1..][..2].to_owned())
            .collect();
        let expected: Vec<String> = (1..=runs).map(|n| format!("{n:02}")).collect();
        assert_eq!(seqs, expected, "{scope} traces: {stamps:?}");
    }
}

fn rendered(id: &str, cfg: &RunConfig) -> Vec<String> {
    scenarios::run(id, cfg).iter().map(|r| r.render()).collect()
}

#[test]
fn concurrent_configs_do_not_leak_into_each_other() {
    let faulted = RunConfig {
        fastforward: false,
        faults: Some(plan()),
        recorder: None,
    };
    let clean = RunConfig::default();
    let faulted_alone = rendered("fig5", &faulted);
    let clean_alone = rendered("fig5", &clean);
    assert_ne!(
        faulted_alone, clean_alone,
        "the fault plan must change what fig5 reports"
    );

    let start = Barrier::new(2);
    let (faulted_together, clean_together) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            start.wait();
            rendered("fig5", &faulted)
        });
        let b = s.spawn(|| {
            start.wait();
            rendered("fig5", &clean)
        });
        (a.join().expect("faulted run"), b.join().expect("clean run"))
    });
    assert_eq!(faulted_together, faulted_alone);
    assert_eq!(clean_together, clean_alone);
}
