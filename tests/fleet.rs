//! Fleet-scale collection and closed-loop remediation, end to end:
//! zero acked-submission loss under a 256-instance fleet, exact
//! accounting under saturation with submitters waiting on full shards, the
//! Observe → Contain → Heal escalation driven by an injected crash
//! burst, rollback + circuit breaker on a non-improving escalation,
//! and byte-identical same-seed reports.

use healers_core::{run_fleet_sim, FleetSimConfig};
use profiler::{
    Director, DirectorConfig, EscalationLevel, FleetConfig, FleetMeta, FleetService,
    RemedyAction, Stats, WindowFunc, WindowStats,
};

fn sample_doc(app: &str, instance: u64, window: u64) -> String {
    let stats = Stats::new();
    stats.record_call("strcpy", 40, None);
    let meta = FleetMeta { instance, window, crashed_in: None, fault: None };
    profiler::to_xml_for_fleet(app, "healing", &meta, &stats.snapshot(), None)
}

// -------------------------------------------------------------------------
// tentpole: the 256-instance fleet simulation

#[test]
fn fleet_of_256_instances_loses_nothing_and_walks_the_ladder() {
    let out = run_fleet_sim(&FleetSimConfig {
        instances: 256,
        rounds: 8,
        ..FleetSimConfig::default()
    });

    // Zero acked-submission loss: one document per instance per round,
    // every one merged, accounting balanced, nothing shed.
    assert!(out.lossless(), "accounting: {:?}", out.accounting);
    assert_eq!(out.rollup.docs, 256 * 8);
    assert_eq!(out.rollup.rejected, 0);
    assert_eq!(out.accounting.accepted(), 256 * 8);

    // The burst crashes a visible slice of the editor population.
    assert!(out.rollup.crash_docs > 20, "crash docs: {}", out.rollup.crash_docs);
    let strcpy = &out.rollup.per_func["strcpy"];
    assert!(strcpy.crashes > 20, "strcpy crashes: {}", strcpy.crashes);
    assert_eq!(out.rollup.top_crashing(1)[0].0, "strcpy", "report: {}", out.fleet_report);
    // Crashes concentrate in the bursting application.
    assert!(
        out.rollup.per_app["editor"].crashes > 20,
        "editor health: {:?}",
        out.rollup.per_app["editor"]
    );
    assert_eq!(out.rollup.per_app["webd"].crashes, 0);
    assert_eq!(out.rollup.per_app["gamed"].crashes, 0);

    // The injected burst provably drives the two-step escalation:
    // Observe -> Contain (shape A contained, shape B keeps crashing),
    // then Contain -> Heal, each confirmed by its observation window.
    let ladder: Vec<_> = out
        .journal
        .iter()
        .filter(|e| e.func == "strcpy")
        .map(|e| (e.action, e.from, e.to))
        .collect();
    assert!(
        ladder.contains(&(
            RemedyAction::Escalate,
            EscalationLevel::Observe,
            EscalationLevel::Contain
        )),
        "journal: {}",
        out.escalation_report
    );
    assert!(
        ladder.contains(&(
            RemedyAction::Escalate,
            EscalationLevel::Contain,
            EscalationLevel::Heal
        )),
        "journal: {}",
        out.escalation_report
    );
    let confirms = ladder.iter().filter(|(a, _, _)| *a == RemedyAction::Confirm).count();
    assert!(confirms >= 2, "both escalations confirmed: {}", out.escalation_report);
    assert!(
        !ladder.iter().any(|(a, _, _)| *a == RemedyAction::Rollback),
        "improving escalations must not roll back: {}",
        out.escalation_report
    );
    assert_eq!(out.final_levels["strcpy"], EscalationLevel::Heal);

    // Healing is visible in the rollup: once strcpy runs at Heal, the
    // editor population journals repairs instead of crashing.
    assert!(out.rollup.per_app["editor"].heals > 0, "report: {}", out.fleet_report);

    // Windowed crash rates: the burst window is hot, the post-Heal
    // windows are quiet.
    let hot = &out.rollup.windows[&healers_core::BURST_WINDOW];
    assert!(hot.per_func["strcpy"].crashes > 0, "burst window must show crashes");
    let last = &out.rollup.windows[&7];
    assert_eq!(
        last.per_func["strcpy"].crashes, 0,
        "Heal stops both crash shapes: {}",
        out.fleet_report
    );
}

#[test]
fn same_seed_runs_render_byte_identical_reports() {
    let config = FleetSimConfig {
        instances: 96,
        rounds: 6,
        threads: 7,
        ..FleetSimConfig::default()
    };
    let a = run_fleet_sim(&config);
    let b = run_fleet_sim(&FleetSimConfig { threads: 3, ..config.clone() });
    assert_eq!(a.rollup, b.rollup, "rollup independent of thread interleaving");
    assert_eq!(a.fleet_report, b.fleet_report, "fleet report byte-identical");
    assert_eq!(a.journal, b.journal, "escalation journal byte-identical");
    assert_eq!(a.escalation_report, b.escalation_report);
    // Shard count changes the per-shard accounting table but must not
    // change the merged rollup (or anything derived from it).
    let c = run_fleet_sim(&FleetSimConfig { shards: 2, ..config });
    assert_eq!(a.rollup, c.rollup, "rollup independent of sharding");
    assert_eq!(a.journal, c.journal);
}

#[test]
fn different_seeds_still_lossless() {
    for seed in [1u64, 0xDEAD_BEEF] {
        let out = run_fleet_sim(&FleetSimConfig {
            instances: 32,
            rounds: 4,
            seed,
            ..FleetSimConfig::default()
        });
        assert!(out.lossless(), "seed {seed}: {:?}", out.accounting);
    }
}

// -------------------------------------------------------------------------
// acked == collected and nothing shed under saturating concurrent
// submitters: a full shard makes its submitters wait, never drop

/// Submits `per_thread` documents from each of `submitters` threads and
/// returns how many were acked.
fn submit_from_threads(
    service: &FleetService,
    app: &str,
    submitters: u64,
    per_thread: u64,
) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|t| {
                let c = service.collector();
                scope.spawn(move || {
                    (0..per_thread)
                        .filter(|&i| c.submit_until_accepted(&sample_doc(app, t, i % 4)))
                        .count() as u64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

#[test]
fn saturation_accounting_is_exact() {
    let service = FleetService::start(FleetConfig { shards: 2, queue_capacity: 8 });
    let acked = submit_from_threads(&service, "stress", 8, 300);
    assert_eq!(acked, 2_400, "every submission is acked");
    let out = service.shutdown();
    // acked == collected: every ack is a merged (or traced-reject)
    // document, nothing lost after an ack.
    assert_eq!(out.accounting.accepted(), acked);
    assert_eq!(out.rollup.docs + out.rollup.rejected, acked);
    assert!(out.accounting.balanced(), "{:?}", out.accounting);
    assert_eq!(out.accounting.shed_total(), 0, "a full shard sheds nothing");
}

// -------------------------------------------------------------------------
// a storm of waiting submitters against one saturated shard must still
// resolve every submission and keep accepted == merged + rejected exact

#[test]
fn waiting_submitter_storm_on_saturated_shard_keeps_exact_accounting() {
    let service = FleetService::start(FleetConfig { shards: 1, queue_capacity: 2 });
    let acked = submit_from_threads(&service, "storm", 8, 300);
    assert_eq!(acked, 2_400, "a waiting submitter is always acked before shutdown");
    let out = service.shutdown();
    assert_eq!(out.accounting.accepted(), acked);
    assert!(out.accounting.balanced(), "{:?}", out.accounting);
    assert_eq!(out.rollup.docs + out.rollup.rejected, acked);
    assert_eq!(out.accounting.shed_total(), 0, "waiting never sheds");
}

// -------------------------------------------------------------------------
// director-level: rollback and circuit breaker over the journal

fn burst_window(func: &str, calls: u64, crashes: u64) -> WindowStats {
    let mut w = WindowStats::default();
    w.per_func.insert(func.into(), WindowFunc { calls, errors: 0, crashes });
    w.docs = calls + crashes;
    w
}

#[test]
fn non_improving_escalation_is_rolled_back() {
    let mut d = Director::new(DirectorConfig::default());
    // An unabating burst: escalation cannot help (the crash shape is
    // not what the level fixes), so the verdict must be a rollback.
    let burst = burst_window("gets", 40, 60);
    let changes = d.observe_window(0, &burst);
    assert_eq!(changes.len(), 1);
    assert_eq!(changes[0].level, EscalationLevel::Contain);
    assert!(d.observe_window(1, &burst).is_empty());
    let verdict = d.observe_window(2, &burst);
    assert_eq!(verdict.len(), 1, "rollback must be applied to the fleet");
    assert_eq!(verdict[0].level, EscalationLevel::Observe);
    let rollback = d
        .journal()
        .iter()
        .find(|e| e.action == RemedyAction::Rollback)
        .expect("rollback journaled");
    assert_eq!(rollback.from, EscalationLevel::Contain);
    assert_eq!(rollback.to, EscalationLevel::Observe);
    assert_eq!(d.level_of("gets"), EscalationLevel::Observe);
}

#[test]
fn circuit_breaker_prevents_flapping() {
    let cfg = DirectorConfig::default();
    let cooldown = cfg.cooldown_windows;
    let mut d = Director::new(cfg);
    let burst = burst_window("gets", 40, 60);
    d.observe_window(0, &burst);
    d.observe_window(1, &burst);
    let rollback_at = 2;
    d.observe_window(rollback_at, &burst);
    // While the breaker is open the ongoing anomaly produces Suppress
    // journal entries and zero policy changes — no flapping.
    for w in (rollback_at + 1)..(rollback_at + cooldown) {
        let changes = d.observe_window(w, &burst);
        assert!(changes.is_empty(), "window {w} must be suppressed: {changes:?}");
    }
    let suppressed =
        d.journal().iter().filter(|e| e.action == RemedyAction::Suppress).count();
    assert!(suppressed >= (cooldown - 1) as usize, "journal: {:?}", d.journal());
    // After cooldown the breaker closes and escalation is allowed again.
    let after = d.observe_window(rollback_at + cooldown, &burst);
    assert_eq!(after.len(), 1, "breaker must close after cooldown");
    assert_eq!(after[0].level, EscalationLevel::Contain);
}
