//! End-to-end tests of the context-aware failure-oblivious availability
//! mode (`DESIGN.md` §14): a victim that strcpy-overflows, scans NULL
//! and consumes a contract-derived default keeps running under a
//! `Policy::Oblivious` healing wrapper — and every manufactured read,
//! suppressed write and tainted downstream use lands in the wrapper's
//! journal and in the shipped XML document.

use healers::injector::{run_campaign, targets_from_simlibc, CampaignConfig};
use healers::interpose::{Executable, Session};
use healers::profiler::{FleetCollector, FleetConfig, FleetService};
use healers::simproc::{CVal, Fault};
use healers::{
    process_factory, HealAction, Policy, PolicyEngine, Toolkit, WrapperConfig,
    WrapperLibrary,
};

const FUNCS: [&str; 7] = ["strcpy", "strlen", "strstr", "malloc", "free", "puts", "exit"];

/// 60 'A's: strcpy'ing it (61 bytes with the NUL) into an 8-byte chunk
/// is the canonical out-of-bounds write.
const LONG: &str = "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA";

fn victim_entry(s: &mut Session<'_>) -> Result<i32, Fault> {
    // (1) Out-of-bounds write: suppressed, measured, attributed.
    let dest = s.malloc(8)?;
    let long = s.literal(LONG);
    s.call("strcpy", &[CVal::Ptr(dest), CVal::Ptr(long)])?;
    // (2) NULL CStr scan: reads as a manufactured empty string.
    let n = s.call("strlen", &[CVal::NULL])?;
    if n != CVal::Int(0) {
        return Ok(1);
    }
    // (3) Contract-derived default: strstr is NULL-tolerant by contract,
    // so its pointer return is a manufactured (tainted) empty string...
    let needle = s.literal("x");
    let hit = s.call("strstr", &[CVal::NULL, CVal::Ptr(needle)])?;
    let CVal::Ptr(p) = hit else { return Ok(2) };
    if p.is_null() {
        return Ok(3);
    }
    // ...(4) whose downstream consumption is a recorded tainted use.
    let n = s.call("strlen", &[hit])?;
    if n != CVal::Int(0) {
        return Ok(4);
    }
    s.call("exit", &[CVal::Int(0)])?;
    unreachable!()
}

fn victim() -> Executable {
    Executable::new(
        "obl-victim",
        &["libsimc.so.1"],
        &["strcpy", "strlen", "strstr", "malloc", "free", "puts", "exit"],
        victim_entry,
    )
}

/// Builds the oblivious healing wrapper shipping its exit document to
/// `sink`.
fn oblivious_wrapper(toolkit: &Toolkit, sink: FleetCollector) -> WrapperLibrary {
    let targets: Vec<_> = targets_from_simlibc()
        .into_iter()
        .filter(|t| FUNCS.contains(&t.name.as_str()))
        .collect();
    let campaign = run_campaign(
        "libsimc.so.1",
        &targets,
        process_factory,
        &CampaignConfig { pair_values: 4, fuel: 300_000, ..CampaignConfig::default() },
    );
    toolkit.generate_healing_wrapper(
        &campaign.api,
        &WrapperConfig {
            app_name: "obl-victim".into(),
            fleet: Some(sink),
            policy: Some(PolicyEngine::new(Policy::Oblivious)),
            oblivious_null_defaults: vec!["strstr".into()],
            ..WrapperConfig::default()
        },
    )
}

#[test]
fn oblivious_mode_survives_the_victim_with_a_full_audit_trail() {
    let toolkit = Toolkit::new();
    let service = FleetService::start(FleetConfig::central());
    let wrapper = oblivious_wrapper(&toolkit, service.collector());

    let out = toolkit.run_protected(&victim(), &[&wrapper]).unwrap();
    assert_eq!(out.status, Ok(0), "{:?}", out.status);

    // The journal attributes each kind of absorption.
    let snap = wrapper.journal.oblivious();
    assert_eq!(snap.dropped, 0, "{snap:?}");
    let (_, w) = snap
        .writes()
        .find(|(e, _)| e.func == "strcpy")
        .expect("suppressed strcpy write on the record");
    assert_eq!(w.attempted, LONG.len() as u64 + 1, "60 chars + NUL: {w:?}");
    assert!(w.object_extent >= 8, "attributed to the real 8-byte chunk: {w:?}");
    assert_eq!(w.addr, w.object_base, "write starts at the chunk base: {w:?}");
    assert!(w.clipped > 0 && w.clipped < w.attempted, "{w:?}");
    assert!(
        snap.reads().any(|(e, _)| e.func == "strlen"),
        "NULL scan is a manufactured read: {snap:?}"
    );
    assert!(
        snap.reads().any(|(e, r)| e.func == "strstr" && r.role == "contract-default"),
        "contract-derived default recorded: {snap:?}"
    );
    assert!(
        snap.uses.iter().any(|u| u.func == "strlen"),
        "downstream consumption of the tainted value recorded: {snap:?}"
    );

    // Every absorption is one decision, journaled as Obliviated.
    let events = wrapper.journal.snapshot();
    let obliviated = events.iter().filter(|e| e.action == HealAction::Obliviated).count();
    assert_eq!(
        obliviated,
        snap.reads().count() + snap.writes().count(),
        "no silent absorption, no double record: {events:?}"
    );

    // The exit document carries the <oblivious> section, and it arrived.
    let doc = wrapper.shipped_document().expect("exit shipped a document");
    assert!(doc.contains("<oblivious "), "{doc}");
    assert!(doc.contains("<write function=\"strcpy\""), "{doc}");
    assert!(doc.contains("<read function=\"strlen\""), "{doc}");
    assert!(doc.contains("<use function=\"strlen\""), "{doc}");
    let collected = service.shutdown();
    assert_eq!(collected.accounting.accepted(), 1, "one document per exit");
    assert!(collected.accounting.balanced());
    assert_eq!(collected.rollup.per_app["obl-victim"].heals, events.len() as u64);
}

#[test]
fn same_seed_oblivious_runs_ship_byte_identical_documents() {
    let run = || {
        let toolkit = Toolkit::new();
        let service = FleetService::start(FleetConfig::central());
        let wrapper = oblivious_wrapper(&toolkit, service.collector());
        let out = toolkit.run_protected(&victim(), &[&wrapper]).unwrap();
        assert_eq!(out.status, Ok(0), "{:?}", out.status);
        assert_eq!(service.shutdown().rollup.docs, 1);
        wrapper.shipped_document().expect("exit shipped a document")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "the audited availability mode must be deterministic");
}
