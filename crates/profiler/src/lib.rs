//! # profiler — the profiling wrapper's runtime (paper §3.3, Figure 5)
//!
//! The profiling wrapper "gives a detailed report on what kind of errors
//! occurred, how frequently they occurred, and what were the causes of
//! errors (based on errno)". This crate holds everything behind that:
//!
//! * [`Stats`] — the shared table the `call counter`, `function
//!   exectime`, `func errors` and `collect errors` micro-generators write
//!   into (cycles come from the simulated process's deterministic
//!   counter, standing in for `rdtsc`);
//! * [`render_document`] — the self-describing XML document shipped at
//!   process termination (§2.3), with optional fleet identity, healing,
//!   flight-recorder and oblivious-audit sections;
//! * [`FleetService`] — the central collection service receiving those
//!   documents from many processes: one shard with blocking
//!   back-pressure ([`FleetConfig::central`]) for a plain central
//!   server, N bounded shards for a fleet, with streaming rollups and
//!   exact shed accounting either way;
//! * [`Director`] — closed-loop remediation: per-function crash-rate
//!   anomaly detection over windowed rollups, escalation with rollback
//!   and a circuit breaker, every decision journaled;
//! * [`render_report`] — the Figure-5 tables (call frequency, time share,
//!   errno distribution).
//!
//! ```
//! use profiler::{Stats, render_report};
//!
//! let stats = Stats::new();
//! stats.record_call("strcpy", 120, None);
//! stats.record_call("fopen", 80, Some(simproc::errno::ENOENT));
//! let report = render_report("myapp", &stats.snapshot());
//! assert!(report.contains("strcpy"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod doc;
mod fleet;
mod flight;
mod journal;
mod oblivious;
mod remedy;
mod report;
mod stats;

pub use doc::{
    parse_fleet_document, render_document, to_xml, to_xml_for_fleet, DocSections, FleetDoc,
    FleetFunc, FleetMeta,
};
pub use fleet::{
    AppHealth, FleetAccounting, FleetCollector, FleetConfig, FleetGathered, FleetRollup,
    FleetService, FuncRollup, RejectedSample, ShedPolicy, SubmitOutcome, WindowFunc,
    WindowStats, REJECTED_SAMPLE_CAP, REJECTED_SNIPPET_LEN,
};
pub use flight::{FlightRecord, FlightRecorder, MAX_ARGS_LEN};
pub use journal::{HealAction, HealEvent, HealingJournal};
pub use oblivious::{
    ManufacturedRead, ObliviousAudit, ObliviousSnapshot, ShadowWrite, TaintedUse,
    OBLIVIOUS_LEDGER_CAP,
};
pub use remedy::{
    Director, DirectorConfig, EscalationLevel, PolicyChange, RemedyAction, RemedyEvent,
};
pub use report::{
    render_ablation_report, render_escalation_report, render_fault_report,
    render_fleet_report, render_lint_report, render_report, render_report_with_healing,
    render_robust_api_health, render_substitution_report, render_worker_report,
    AblationLine, LintLine, SubstitutionLine, WorkerLine,
};
pub use stats::{FuncStats, LatencyHistogram, Snapshot, Stats};
