//! Fleet orchestration: hundreds of simulated `interpose` instances
//! submitting exit documents to the sharded collection service, a
//! [`FleetSupervisor`] sealing logical windows and feeding the rollup to
//! the remediation [`Director`], and the director's policy changes
//! applied back to the running wrappers through shared
//! [`PolicyOverrides`] — the closed loop from crash telemetry to
//! policy, with no rebuild and no restart.

use std::collections::BTreeMap;

use cdecl::{parse_prototype, TypedefTable};
use interpose::{Executable, Loader, Session, System};
use profiler::{
    Director, DirectorConfig, EscalationLevel, FleetAccounting, FleetCollector,
    FleetConfig, FleetMeta, FleetRollup, FleetService, PolicyChange, RemedyEvent,
};
use simproc::{splitmix64, CVal, Fault};
use typelattice::{RobustApi, RobustFunction, SafePred};
use wrappergen::{
    build_wrapper, Policy, PolicyEngine, PolicyOverrides, WrapperConfig, WrapperKind,
};

use crate::bridge::as_preload_library;

/// The wrapper policy enforcing one remediation level.
pub fn policy_for(level: EscalationLevel) -> Policy {
    match level {
        EscalationLevel::Observe => Policy::Observe,
        EscalationLevel::Contain => Policy::Contain,
        EscalationLevel::Heal => Policy::Heal,
        EscalationLevel::Oblivious => Policy::Oblivious,
        EscalationLevel::Terminate => Policy::Terminate,
    }
}

/// The fleet's control plane: owns the collection service, the shared
/// policy-override table every fleet wrapper consults, and the
/// remediation director. [`FleetSupervisor::seal_window`] is the loop
/// tick: quiesce ingest, hand the sealed window's stats to the
/// director, apply its policy changes to the overrides.
#[derive(Debug)]
pub struct FleetSupervisor {
    service: FleetService,
    overrides: PolicyOverrides,
    director: Director,
}

impl FleetSupervisor {
    /// Starts the collection service and the director.
    pub fn new(fleet: FleetConfig, director: DirectorConfig) -> Self {
        FleetSupervisor {
            service: FleetService::start(fleet),
            overrides: PolicyOverrides::new(),
            director: Director::new(director),
        }
    }

    /// A submission handle for instances.
    pub fn collector(&self) -> FleetCollector {
        self.service.collector()
    }

    /// The shared override table (clone it into each wrapper's policy
    /// engine).
    pub fn overrides(&self) -> PolicyOverrides {
        self.overrides.clone()
    }

    /// The remediation director (journal access).
    pub fn director(&self) -> &Director {
        &self.director
    }

    /// The live collection service (rollup snapshots, accounting).
    pub fn service(&self) -> &FleetService {
        &self.service
    }

    /// Seals logical window `window`: waits for every accepted document
    /// to be merged, feeds the window's stats to the director, and
    /// applies the resulting policy changes to the shared overrides —
    /// the *next* call through any fleet wrapper sees them. Call only
    /// between submission phases, with no instance mid-run.
    pub fn seal_window(&mut self, window: u64) -> Vec<PolicyChange> {
        self.service.quiesce();
        let rollup = self.service.rollup_snapshot();
        let stats = rollup.windows.get(&window).cloned().unwrap_or_default();
        let changes = self.director.observe_window(window, &stats);
        for ch in &changes {
            self.overrides.set(&ch.func, policy_for(ch.level));
        }
        changes
    }

    /// Shuts the service down and returns the final rollup, accounting
    /// and escalation journal.
    pub fn shutdown(self) -> (FleetRollup, FleetAccounting, Vec<RemedyEvent>) {
        let collected = self.service.shutdown();
        (collected.rollup, collected.accounting, self.director.journal().to_vec())
    }
}

// ---------------------------------------------------------------------------
// the fleet simulator

/// Fleet simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    /// Simulated application instances per round.
    pub instances: u64,
    /// Rounds (= logical windows) to run.
    pub rounds: u64,
    /// Ingest shards.
    pub shards: usize,
    /// Per-shard queue capacity.
    pub queue_capacity: usize,
    /// Deterministic seed stamped into every instance.
    pub seed: u64,
    /// Worker threads driving instances concurrently.
    pub threads: usize,
}

impl Default for FleetSimConfig {
    fn default() -> Self {
        FleetSimConfig {
            instances: 256,
            rounds: 8,
            shards: 4,
            queue_capacity: 128,
            seed: 0xF1EE7,
            threads: 8,
        }
    }
}

/// Everything a fleet simulation produced.
#[derive(Debug)]
pub struct FleetSimOutcome {
    /// The merged fleet rollup.
    pub rollup: FleetRollup,
    /// Exact ingest accounting.
    pub accounting: FleetAccounting,
    /// The director's escalation journal.
    pub journal: Vec<RemedyEvent>,
    /// Documents the fleet was expected to produce (one per instance
    /// per round — clean exit document or post-mortem).
    pub expected_docs: u64,
    /// The deterministic fleet rollup report.
    pub fleet_report: String,
    /// The deterministic escalation report.
    pub escalation_report: String,
    /// Final remediation level per function the director ever touched.
    pub final_levels: BTreeMap<String, EscalationLevel>,
}

impl FleetSimOutcome {
    /// The zero-acked-loss gate: every expected document was merged,
    /// the accounting balances, and nothing was shed.
    pub fn lossless(&self) -> bool {
        self.rollup.docs == self.expected_docs
            && self.rollup.rejected == 0
            && self.accounting.balanced()
            && self.accounting.shed_total() == 0
    }
}

const FLEET_APPS: [&str; 3] = ["editor", "webd", "gamed"];

/// The window from which crash-burst behaviour switches on in the
/// `editor` population.
pub const BURST_WINDOW: u64 = 2;

fn fleet_api() -> RobustApi {
    let t = TypedefTable::with_builtins();
    let strcpy = RobustFunction::new(
        parse_prototype("char *strcpy(char *dest, const char *src);", &t)
            .expect("strcpy prototype"),
        vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr],
        true,
    );
    let strlen = RobustFunction::new(
        parse_prototype("size_t strlen(const char *s);", &t).expect("strlen prototype"),
        vec![SafePred::CStr],
        true,
    );
    let exit_fn = RobustFunction::trivial(
        parse_prototype("void exit(int status);", &t).expect("exit prototype"),
    );
    RobustApi { library: "libsimc.so.1".into(), functions: vec![strcpy, strlen, exit_fn] }
}

/// The simulated application every fleet instance runs. Behaviour is a
/// pure function of the process's fleet identity `(instance, window,
/// seed)`: steady-state string work for everyone; from [`BURST_WINDOW`]
/// on, the `editor` population (instance ≡ 0 mod 3) additionally rolls
/// two crash shapes against `strcpy` —
///
/// * **shape A** (check-caught): `strcpy` into a NULL destination. At
///   `Observe` the violation is journaled and passed through, so the
///   original segfaults; `Contain` rejects it; `Heal` substitutes a
///   destination.
/// * **shape B** (check-evading): a perfectly valid long copy under an
///   exhausted fuel budget. The wrapper's checks pass (argument peeks
///   are unmetered), the original's metered copy hangs. `Observe` and
///   `Contain` propagate the hang; `Heal`'s fault path substitutes a
///   containment value, so only `Heal` stops this shape.
///
/// Together they force the director through the two-step
/// `Observe → Contain → Heal` escalation: containment fixes shape A but
/// the residual shape-B crash rate keeps the function anomalous.
fn fleet_entry(s: &mut Session<'_>) -> Result<i32, Fault> {
    let (instance, window, seed) = s.proc().fleet_identity().unwrap_or((0, 0, 0));
    let roll =
        splitmix64(seed ^ instance.wrapping_mul(0xA24B_AED4_963E_E407) ^ window) % 1000;

    let src = s.literal("fleet steady-state");
    let dst = s.static_buf(64);
    s.call("strcpy", &[CVal::Ptr(dst), CVal::Ptr(src)])?;
    s.call("strlen", &[CVal::Ptr(src)])?;
    s.call("strlen", &[CVal::Ptr(dst)])?;

    let bursting = instance % 3 == 0 && window >= BURST_WINDOW;
    if bursting && roll < 500 {
        // Shape A: NULL destination.
        s.call("strcpy", &[CVal::NULL, CVal::Ptr(src)])?;
    } else if bursting && roll < 800 {
        // Shape B: valid arguments, exhausted fuel.
        let long = "x".repeat(200);
        let long_src = s.literal(&long);
        let big = s.static_buf(256);
        let used = s.proc().cycles();
        s.proc().set_fuel_limit(Some(used + 25));
        let r = s.call("strcpy", &[CVal::Ptr(big), CVal::Ptr(long_src)]);
        s.proc().set_fuel_limit(None);
        r?;
    }
    s.call("exit", &[CVal::Int(0)])?;
    Ok(0)
}

fn run_one_instance(
    api: &RobustApi,
    overrides: &PolicyOverrides,
    collector: &FleetCollector,
    instance: u64,
    window: u64,
    seed: u64,
) {
    let app = FLEET_APPS[(instance % 3) as usize];
    let config = WrapperConfig {
        app_name: app.to_string(),
        fleet: Some(collector.clone()),
        policy: Some(PolicyEngine::new(Policy::Observe).with_overrides(overrides.clone())),
        ..WrapperConfig::default()
    };
    let wrapper = build_wrapper(WrapperKind::Healing, api, &config);
    let mut loader = Loader::new();
    loader.preload(as_preload_library(&wrapper));
    let system = System::standard();
    let exe =
        Executable::new(app, &["libsimc.so.1"], &["strcpy", "strlen", "exit"], fleet_entry);
    let out = interpose::run_instance(&loader, &system, &exe, instance, window, seed)
        .expect("fleet exe links");
    if let Err(fault) = &out.status {
        // The process died before its exit hook could ship: the fleet
        // driver (standing in for the crash handler) ships the
        // post-mortem itself, attributed to the function that faulted.
        let meta = FleetMeta {
            instance,
            window,
            crashed_in: Some("strcpy".to_string()),
            fault: Some(fault.tag().to_string()),
        };
        let doc = profiler::to_xml_for_fleet(
            app,
            "healing",
            &meta,
            &wrapper.stats.snapshot(),
            Some(&wrapper.journal.snapshot()),
        );
        collector.submit_until_accepted(&doc);
    }
}

/// Runs the closed-loop fleet simulation: `rounds` logical windows of
/// `instances` concurrent application runs, each round sealed through
/// the supervisor so the director's policy changes apply to the next
/// round's wrappers.
pub fn run_fleet_sim(config: &FleetSimConfig) -> FleetSimOutcome {
    let api = fleet_api();
    let mut supervisor = FleetSupervisor::new(
        FleetConfig {
            shards: config.shards,
            queue_capacity: config.queue_capacity,
            ..FleetConfig::default()
        },
        DirectorConfig::default(),
    );
    let collector = supervisor.collector();
    let overrides = supervisor.overrides();
    let threads = config.threads.clamp(1, 64) as u64;

    for window in 0..config.rounds {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let api = &api;
                let overrides = &overrides;
                let collector = &collector;
                scope.spawn(move || {
                    let mut instance = t;
                    while instance < config.instances {
                        run_one_instance(
                            api,
                            overrides,
                            collector,
                            instance,
                            window,
                            config.seed,
                        );
                        instance += threads;
                    }
                });
            }
        });
        supervisor.seal_window(window);
    }

    let expected_docs = config.instances * config.rounds;
    let final_levels =
        supervisor.director().journal().iter().map(|ev| (ev.func.clone(), ev.to)).collect();
    let (rollup, accounting, journal) = supervisor.shutdown();
    let fleet_report = profiler::render_fleet_report(&rollup, &accounting);
    let escalation_report = profiler::render_escalation_report(&journal);
    FleetSimOutcome {
        rollup,
        accounting,
        journal,
        expected_docs,
        fleet_report,
        escalation_report,
        final_levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::RemedyAction;

    #[test]
    fn small_fleet_is_lossless_and_escalates() {
        let out = run_fleet_sim(&FleetSimConfig {
            instances: 48,
            rounds: 6,
            shards: 2,
            queue_capacity: 32,
            threads: 4,
            ..FleetSimConfig::default()
        });
        assert!(out.lossless(), "accounting: {:?}", out.accounting);
        assert_eq!(out.rollup.docs, 48 * 6);
        assert!(out.rollup.crash_docs > 0, "burst must crash instances");
        let escalations: Vec<_> = out
            .journal
            .iter()
            .filter(|e| e.action == RemedyAction::Escalate)
            .map(|e| (e.from, e.to))
            .collect();
        assert!(
            escalations.contains(&(EscalationLevel::Observe, EscalationLevel::Contain)),
            "journal: {}",
            out.escalation_report
        );
    }
}
