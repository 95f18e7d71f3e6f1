//! Integration tests for the wrapper telemetry: concurrent recording
//! into one table loses nothing and invents nothing, the XML document is
//! deterministic, and the flight recorder captures the last calls before
//! a detected attack.

use std::sync::Arc;

use healers::injector::{run_campaign, targets_from_simlibc, CampaignConfig};
use healers::interpose::{Executable, Session};
use healers::profiler::{render_fault_report, to_xml, Stats};
use healers::simproc::{CVal, Fault};
use healers::{process_factory, Toolkit, WrapperConfig, WrapperKind};

const THREADS: usize = 8;
const FUNCS: [&str; 4] = ["strlen", "strcpy", "malloc", "fopen"];

/// The deterministic workload thread `t` records: the per-thread slice
/// of the ground truth, independent of scheduling.
fn record_thread_workload(stats: &Stats, t: usize) {
    for i in 0..500u64 {
        let func = FUNCS[(t + i as usize) % FUNCS.len()];
        let errno = if i % 10 == 0 { Some(2) } else { None };
        stats.record_call(func, 100 + (i % 7), errno);
        stats.record_latency(func, "call", 100 + (i % 7));
    }
    stats.record_global_errno(22);
}

/// The same workload recorded serially — the ground truth a racing run
/// must reproduce exactly.
fn ground_truth() -> Stats {
    let stats = Stats::default();
    for t in 0..THREADS {
        record_thread_workload(&stats, t);
    }
    stats
}

fn concurrent_run() -> Arc<Stats> {
    let stats = Arc::new(Stats::default());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let stats = Arc::clone(&stats);
            scope.spawn(move || record_thread_workload(&stats, t));
        }
    });
    stats
}

#[test]
fn concurrent_merge_equals_serial_ground_truth() {
    let stats = concurrent_run();
    assert_eq!(
        stats.snapshot(),
        ground_truth().snapshot(),
        "racing recorders must lose nothing and invent nothing"
    );
}

#[test]
fn merged_xml_is_byte_identical_across_runs() {
    // Two racy 8-thread runs of the same workload: the order in which
    // threads take the lock differs between runs, but the document must
    // not.
    let a = to_xml("app", "profiling", &concurrent_run().snapshot());
    let b = to_xml("app", "profiling", &concurrent_run().snapshot());
    assert_eq!(a, b, "recording order leaked into the XML document");
}

/// The server-scale merge-discipline check: the telemetry document an
/// 8-worker threaded server ships must be byte-identical to the serial
/// (1-worker) ground truth for the same seed. Worker-private state
/// (stacks, errno, memo tables) must never leak into the wrapper's
/// stats; only the global request order may.
#[test]
fn threaded_server_xml_is_byte_identical_to_the_serial_ground_truth() {
    let base =
        healers::ServerConfig { requests: 2_500, ..healers::ServerConfig::default() };
    let serial =
        healers::run_server_sim(&healers::ServerConfig { workers: 1, ..base.clone() });
    let threaded = healers::run_server_sim(&healers::ServerConfig { workers: 8, ..base });
    let ground_truth = serial.telemetry_xml.expect("protected run carries telemetry");
    let merged = threaded.telemetry_xml.expect("protected run carries telemetry");
    assert_eq!(
        ground_truth, merged,
        "worker-count must not leak into the telemetry document"
    );
    assert_eq!(serial.canonical, threaded.canonical);
}

/// A daemon with a textbook overflow: 8-byte allocation, long `strcpy`.
fn smash_entry(s: &mut Session<'_>) -> Result<i32, Fault> {
    let name = s.literal("hi");
    s.call("strlen", &[CVal::Ptr(name)])?;
    let buf = s.malloc(8)?;
    let long = s.literal("this string is far longer than eight bytes");
    s.call("strcpy", &[CVal::Ptr(buf), CVal::Ptr(long)])?;
    s.call("free", &[CVal::Ptr(buf)])?;
    s.call("exit", &[CVal::Int(0)])?;
    unreachable!()
}

#[test]
fn fault_report_carries_the_flight_recorder_tail() {
    let toolkit = Toolkit::new();
    let campaign = run_campaign(
        "libsimc.so.1",
        &targets_from_simlibc()
            .into_iter()
            .filter(|t| {
                ["strlen", "strcpy", "malloc", "free", "exit"].contains(&t.name.as_str())
            })
            .collect::<Vec<_>>(),
        process_factory,
        &CampaignConfig { pair_values: 2, fuel: 200_000, ..CampaignConfig::default() },
    );
    let wrapper = toolkit.generate_wrapper(
        WrapperKind::Security,
        &campaign.api,
        &WrapperConfig { flight_recorder: Some(6), ..WrapperConfig::default() },
    );
    let exe = Executable::new(
        "smashd",
        &["libsimc.so.1"],
        &["strlen", "strcpy", "malloc", "free", "exit"],
        smash_entry,
    );
    let out = toolkit.run_protected(&exe, &[&wrapper]).unwrap();
    assert!(matches!(out.status, Err(Fault::SecurityViolation { .. })), "{:?}", out.status);

    let tail = wrapper.journal.tail();
    assert!(!tail.is_empty(), "the recorder must have seen the calls");
    // The canary check in `free` detects the smash; the `strcpy` that
    // did the damage sits right before it in the tail — the smoking gun
    // a plain fault message cannot show.
    let last = tail.last().unwrap();
    assert_eq!(last.func, "free", "the detecting call is the newest entry");
    assert_ne!(last.verdict, "ok", "the detecting call's verdict is the fault");
    let culprit = &tail[tail.len() - 2];
    assert_eq!(culprit.func, "strcpy");
    assert_eq!(culprit.verdict, "ok", "the overflow itself went unnoticed");

    let fault = out.status.unwrap_err().to_string();
    let report = render_fault_report("smashd", &fault, &tail);
    assert!(report.contains("smashd"), "{report}");
    assert!(report.contains("Flight recorder"), "{report}");
    assert!(report.contains("strcpy"), "{report}");
    assert!(report.contains(&fault), "{report}");
}
