//! The paper's findings as integration tests: every experiment's shape
//! checks must pass. These run the same scenarios as the `repro` binary.

use latlab_bench::scenarios;
use latlab_bench::{ExperimentReport, RunConfig};

fn assert_all(report: &ExperimentReport) {
    for check in &report.checks {
        assert!(
            check.passed,
            "[{}] {}\n  paper:    {}\n  measured: {}",
            report.id, check.name, check.paper, check.measured
        );
    }
}

#[test]
fn fig1_idle_loop_validation() {
    assert_all(&scenarios::fig1::run(&RunConfig::default()).0);
}

#[test]
fn fig2_think_wait_fsm() {
    assert_all(&scenarios::fig2::run(&RunConfig::default()));
}

#[test]
fn fig3_idle_profiles() {
    assert_all(&scenarios::fig3::run(&RunConfig::default()).0);
}

#[test]
fn fig4_window_maximize() {
    assert_all(&scenarios::fig4::run(&RunConfig::default()));
}

#[test]
fn fig5_raw_event_profile() {
    assert_all(&scenarios::fig5::run(&RunConfig::default()));
}

#[test]
fn fig6_simple_events() {
    assert_all(&scenarios::fig6::run(&RunConfig::default()).0);
}

#[test]
fn fig7_notepad_task() {
    assert_all(&scenarios::fig7::run(&RunConfig::default()).0);
}

#[test]
fn fig8_powerpoint_task_and_table1() {
    assert_all(&scenarios::fig8::run(&RunConfig::default()).0);
}

#[test]
fn fig9_pagedown_counters() {
    assert_all(&scenarios::fig9::run(&RunConfig::default()).0);
}

#[test]
fn fig10_ole_edit_counters() {
    assert_all(&scenarios::fig10::run(&RunConfig::default()).0);
}

#[test]
fn fig11_word_task() {
    assert_all(&scenarios::fig11::run(&RunConfig::default()).0);
}

#[test]
fn tab2_interarrival_distribution() {
    assert_all(&scenarios::tab2::run(&RunConfig::default()).0);
}

#[test]
fn fig12_long_event_time_series() {
    assert_all(&scenarios::fig12::run(&RunConfig::default()));
}

#[test]
fn sec11_irrelevance_of_throughput() {
    assert_all(&scenarios::sec11::run(&RunConfig::default()));
}

#[test]
fn sec54_test_vs_hand_input() {
    assert_all(&scenarios::sec54::run(&RunConfig::default()).0);
}

#[test]
fn ablations() {
    for report in scenarios::ablations::run_all(&RunConfig::default()) {
        assert_all(&report);
    }
}
