//! The second classic heap attack of the era: double free. Freeing a
//! chunk twice re-inserts it into the free list it is already on,
//! corrupting the list so a later `malloc`/`free` follows attacker-
//! influenced links. The wrappers derived from the campaign stop it:
//! the robust `free` contract (`NULL or live heap chunk`) rejects the
//! second free, and the security wrapper's registry does the same.

use healers::injector::{
    run_campaign, run_cross_thread_quorum, targets_from_simlibc, CampaignConfig,
    CrossThreadFault, Outcome,
};
use healers::interpose::{Executable, Session};
use healers::simproc::{CVal, Fault};
use healers::{
    process_factory, HealAction, Policy, PolicyEngine, Toolkit, WrapperConfig, WrapperKind,
};

fn wrappers() -> (healers::WrapperLibrary, healers::WrapperLibrary) {
    let toolkit = Toolkit::new();
    let targets: Vec<_> = targets_from_simlibc()
        .into_iter()
        .filter(|t| ["malloc", "free", "exit", "puts"].contains(&t.name.as_str()))
        .collect();
    let campaign = run_campaign(
        "libsimc.so.1",
        &targets,
        process_factory,
        &CampaignConfig { pair_values: 4, fuel: 300_000, ..CampaignConfig::default() },
    );
    (
        toolkit.generate_wrapper(
            WrapperKind::Robustness,
            &campaign.api,
            &WrapperConfig::default(),
        ),
        toolkit.generate_wrapper(
            WrapperKind::Security,
            &campaign.api,
            &WrapperConfig::default(),
        ),
    )
}

fn double_free_entry(s: &mut Session<'_>) -> Result<i32, Fault> {
    let a = s.malloc(48)?;
    let _pin = s.malloc(16)?;
    s.call("free", &[CVal::Ptr(a)])?;
    s.call("free", &[CVal::Ptr(a)])?; // the bug
                                      // Follow-up traffic that walks the corrupted free list.
    let b = s.call("malloc", &[CVal::Int(48)])?;
    let c = s.call("malloc", &[CVal::Int(48)])?;
    // Classic symptom: the same chunk handed out twice.
    if b == c {
        let msg = s.literal("allocator handed out one chunk twice");
        s.call("puts", &[CVal::Ptr(msg)])?;
    }
    Ok(if b == c { 99 } else { 0 })
}

fn victim() -> Executable {
    Executable::new(
        "dfree",
        &["libsimc.so.1"],
        &["malloc", "free", "puts", "exit"],
        double_free_entry,
    )
}

#[test]
fn double_free_corrupts_the_bare_allocator() {
    let toolkit = Toolkit::new();
    let out = toolkit.run(&victim()).unwrap();
    // The bare allocator either hands out the same chunk twice (silent
    // corruption an attacker exploits) or dies in the list walk.
    match out.status {
        Ok(99) => {} // duplicate allocation observed
        Ok(other) => panic!("expected corruption, got clean exit {other}"),
        Err(_) => {} // or it crashed/hung — also a failure
    }
}

#[test]
fn robustness_wrapper_rejects_the_second_free() {
    let (robust, _) = wrappers();
    let toolkit = Toolkit::new();
    let out = toolkit.run_protected(&victim(), &[&robust]).unwrap();
    // The second free violates `NULL or live heap chunk` and is turned
    // into a no-op error; the allocator stays intact.
    assert_eq!(out.status, Ok(0), "{:?}", out.status);
}

/// The oblivious soundness contract: under `Policy::Oblivious` the
/// double free is absorbed — the process keeps running and the
/// allocator stays intact — but **never silently**. The skipped free is
/// journaled as one `Obliviated` decision carrying the suppressed write,
/// attributed to the function.
#[test]
fn oblivious_wrapper_absorbs_the_double_free_on_the_audit_record() {
    let targets: Vec<_> = targets_from_simlibc()
        .into_iter()
        .filter(|t| ["malloc", "free", "exit", "puts"].contains(&t.name.as_str()))
        .collect();
    let campaign = run_campaign(
        "libsimc.so.1",
        &targets,
        process_factory,
        &CampaignConfig { pair_values: 4, fuel: 300_000, ..CampaignConfig::default() },
    );
    let toolkit = Toolkit::new();
    let oblivious = toolkit.generate_healing_wrapper(
        &campaign.api,
        &WrapperConfig {
            policy: Some(PolicyEngine::new(Policy::Oblivious)),
            ..WrapperConfig::default()
        },
    );

    let out = toolkit.run_protected(&victim(), &[&oblivious]).unwrap();
    // The second free is suppressed, so the free list never corrupts and
    // malloc never hands out one chunk twice (exit code 99).
    assert_eq!(out.status, Ok(0), "{:?}", out.status);

    let snap = oblivious.journal.oblivious();
    assert_eq!(snap.dropped, 0, "{snap:?}");
    assert!(
        snap.writes().any(|(e, _)| e.func == "free"),
        "the skipped free must be a suppressed write on the record: {snap:?}"
    );
    let events = oblivious.journal.snapshot();
    let obliviated: Vec<_> =
        events.iter().filter(|e| e.action == HealAction::Obliviated).collect();
    assert!(
        obliviated.iter().any(|e| e.func == "free"),
        "the absorption must be journaled, never silent: {events:?}"
    );
    assert_eq!(
        obliviated.len(),
        snap.reads().count() + snap.writes().count(),
        "every absorption is one journal record: {events:?}"
    );
}

/// The threaded variant of the same bug: two simulated threads sharing
/// one heap race `free` on one chunk. Under the outcome-quorum
/// discipline every seed (= pinned interleaving) must replay to the
/// identical verdict — never `Flaky` — and at least one interleaving
/// must corrupt the bare allocator, which is what the server's wrapper
/// has to contain.
#[test]
fn racing_cross_thread_double_free_has_a_deterministic_quorum_verdict() {
    let config = CampaignConfig { fuel: 300_000, quorum: 2, ..CampaignConfig::default() };
    let mut corrupting_seeds = 0;
    for seed in 0..10 {
        let first = run_cross_thread_quorum(
            CrossThreadFault::RacingDoubleFree,
            process_factory,
            seed,
            &config,
        );
        let replay = run_cross_thread_quorum(
            CrossThreadFault::RacingDoubleFree,
            process_factory,
            seed,
            &config,
        );
        assert_eq!(
            first.outcome, replay.outcome,
            "seed {seed}: a pinned thread schedule must replay identically"
        );
        assert_ne!(
            first.outcome,
            Outcome::Flaky,
            "seed {seed}: quorum disagreement means nondeterminism in the substrate"
        );
        if first.outcome.is_failure() {
            corrupting_seeds += 1;
        }
    }
    assert!(corrupting_seeds > 0, "some interleaving must corrupt the bare allocator");
}

/// The wrapped counterpart, at server scale: the security wrapper turns
/// every racing double-free in the adversarial request mix into a
/// contained request — the server loses nothing and the verdict
/// (the full canonical report) is deterministic across replays.
#[test]
fn server_contains_racing_double_frees_deterministically() {
    let config = healers::ServerConfig {
        workers: 4,
        requests: 3_000,
        ..healers::ServerConfig::default()
    };
    let first = healers::run_server_sim(&config);
    let replay = healers::run_server_sim(&config);
    assert_eq!(first.lost, 0, "{first:?}");
    assert_eq!(first.faulted, 0, "every attack must be contained: {first:?}");
    assert!(first.contained > 0, "the racing frees must be exercised: {first:?}");
    assert_eq!(first.canonical, replay.canonical, "verdict must replay identically");
}

#[test]
fn security_wrapper_registry_also_stops_it() {
    let (_, secure) = wrappers();
    let toolkit = Toolkit::new();
    let out = toolkit.run_protected(&victim(), &[&secure]).unwrap();
    // The first free releases the registration; the second is caught by
    // the Terminate-mode contract check.
    assert!(
        matches!(out.status, Err(Fault::SecurityViolation { .. })) || out.status == Ok(0),
        "{:?}",
        out.status
    );
    assert_ne!(out.status, Ok(99), "no duplicate chunk under the wrapper");
}
