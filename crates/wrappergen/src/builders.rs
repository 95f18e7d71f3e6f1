//! Assembling whole wrapper libraries — "a flexible framework for a wide
//! variety of wrapper types ... the micro-generators can be combined in a
//! variety of ways to generate new wrapper types" (§2.3). The three
//! wrapper types of Figure 1 (security / robustness / profiling) are
//! built here from the same micro-generator parts.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use guardian::{CanaryRegistry, GuardOracle};
use parking_lot::Mutex;
use profiler::{FleetCollector, Stats, WrapperJournal};
use simproc::HostFn;
use typelattice::{RobustApi, SafePred, SubstitutionPlan};

use crate::codegen::{generate_function, CodegenCx};
use crate::hooks::{
    ArgCheckHook, CallCounterHook, CanaryHook, CollectErrorsHook, ExectimeHook,
    ExitReportHook, FuncErrorsHook,
};
use crate::policy::PolicyEngine;
use crate::runtime::{CallLog, Hook, WrappedFn};
use crate::substitute::SubstituteHook;

/// The wrapper types of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrapperKind {
    /// Prevents a large class of failures (crashes, hangs, aborts) by
    /// rejecting out-of-contract arguments with a graceful error.
    Robustness,
    /// Prevents buffer-overflow attacks; violations terminate the
    /// process.
    Security,
    /// Gathers call counts, execution time and errno statistics, shipped
    /// as XML at termination.
    Profiling,
    /// Logs every intercepted call with its arguments — the simplest
    /// wrapper the micro-generator architecture composes ("it is easy to
    /// introduce new functionalities into the existing system").
    Tracing,
    /// Repairs out-of-contract arguments in place before the call and
    /// retries faulting calls with sanitized arguments, journaling every
    /// action — graceful degradation instead of rejection.
    Healing,
    /// Reroutes fragile calls (`strcpy`/`strcat`/`sprintf`) to bounded
    /// safer variants clipped to the oracle's exact extent — only where
    /// the analyzer's flow-sensitive substitution analysis proved the
    /// rewrite sound ([`WrapperConfig::substitutions`]). Overflows are
    /// *prevented* outright instead of canary-detected after the fact.
    Substitute,
    /// A hand-composed wrapper built with [`WrapperBuilder`].
    Custom,
}

impl WrapperKind {
    /// soname of the generated wrapper library.
    pub fn soname(self) -> &'static str {
        match self {
            WrapperKind::Robustness => "libhealers_robust.so.1",
            WrapperKind::Security => "libhealers_secure.so.1",
            WrapperKind::Profiling => "libhealers_profile.so.1",
            WrapperKind::Tracing => "libhealers_trace.so.1",
            WrapperKind::Healing => "libhealers_heal.so.1",
            WrapperKind::Substitute => "libhealers_subst.so.1",
            WrapperKind::Custom => "libhealers_custom.so.1",
        }
    }

    /// Wrapper-type tag used in shipped documents.
    pub fn tag(self) -> &'static str {
        match self {
            WrapperKind::Robustness => "robustness",
            WrapperKind::Security => "security",
            WrapperKind::Profiling => "profiling",
            WrapperKind::Tracing => "tracing",
            WrapperKind::Healing => "healing",
            WrapperKind::Substitute => "substitute",
            WrapperKind::Custom => "custom",
        }
    }
}

/// A generated wrapper library: runnable wrapped functions plus the
/// generated C source a real deployment would compile.
#[derive(Debug)]
pub struct WrapperLibrary {
    /// soname (what `LD_PRELOAD` would name).
    pub soname: String,
    /// Wrapper type.
    pub kind: WrapperKind,
    /// Generated C source for every wrapped function.
    pub source: String,
    fns: BTreeMap<String, WrappedFn>,
    /// Shared statistics (populated by profiling wrappers).
    pub stats: Arc<Stats>,
    /// Shared canary registry (populated by security wrappers).
    pub registry: Arc<CanaryRegistry>,
    /// Shared call log.
    pub log: CallLog,
    /// The journal every wrapped function shares: the decisions healing
    /// and substitute wrappers take (oblivious absorptions with what
    /// they manufactured or suppressed), the downstream uses of
    /// manufactured values, and — when
    /// [`WrapperConfig::flight_recorder`] asks for one — the ring of the
    /// last calls.
    pub journal: Arc<WrapperJournal>,
    /// The `exit` hook shipping this wrapper's document, when one is
    /// installed (profiling and healing wrappers with a sink).
    exit_report: Option<Arc<ExitReportHook>>,
    /// Human-readable warnings raised during generation — e.g. contracts
    /// derived by a budget-cut campaign that this wrapper enforces (or
    /// refused to enforce) despite their low confidence.
    pub warnings: Vec<String>,
}

impl WrapperLibrary {
    /// The wrapped function for `name`, if this wrapper interposes it.
    pub fn get(&self, name: &str) -> Option<&WrappedFn> {
        self.fns.get(name)
    }

    /// Names of all interposed functions.
    pub fn wrapped_names(&self) -> Vec<&str> {
        self.fns.keys().map(|s| s.as_str()).collect()
    }

    /// Iterates the wrapped functions.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &WrappedFn)> {
        self.fns.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The document this wrapper's `exit` hook last shipped to
    /// [`WrapperConfig::fleet`], byte for byte — `None` before any
    /// `exit`, or when the wrapper ships nothing.
    pub fn shipped_document(&self) -> Option<String> {
        self.exit_report.as_ref()?.shipped()
    }

    /// Number of interposed functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// `true` if nothing is interposed.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }
}

/// What contract-enforcing wrappers do with a function whose robust
/// contract is not a measurement (the campaign's circuit breaker tripped
/// or its budget expired before the function was fully probed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LowConfidence {
    /// Enforce the conservative contract anyway, recording a warning in
    /// [`WrapperLibrary::warnings`].
    #[default]
    Warn,
    /// Leave the function unwrapped (and record a warning): better no
    /// interposition than graceful errors driven by a guessed contract.
    Skip,
}

/// Options for wrapper generation.
#[derive(Debug, Clone, Default)]
pub struct WrapperConfig {
    /// Application name stamped into shipped documents.
    pub app_name: String,
    /// The collection service profiling and healing wrappers ship their
    /// document to at `exit` — stamped with the process's fleet identity
    /// when it has one. `None` ships nothing.
    pub fleet: Option<FleetCollector>,
    /// Policy engine for healing wrappers; defaults to
    /// [`PolicyEngine::healing`].
    pub policy: Option<PolicyEngine>,
    /// How contract-enforcing wrapper kinds treat functions whose
    /// contract is a conservative guess rather than a measurement.
    pub low_confidence: LowConfidence,
    /// Record per-function log2 latency histograms (`call` stage for
    /// every wrapper kind; `check`/`heal` stages for healing wrappers).
    /// Off by default: extra per-call recording. The `call`-stage sample
    /// is compiled into the wrapper's epilogue and so needs no hook;
    /// healing's per-stage histograms keep its check hook unfused.
    pub latency_histograms: bool,
    /// Keep a flight recorder of the last N calls through the wrapper
    /// (`Some(n)`). Off by default — it records on every call. Recording
    /// is compiled into the wrapper's epilogue, so no hook loses its
    /// fusion. The ring is part of the library's journal and surfaces
    /// via [`WrapperJournal::tail`] and the exit document.
    pub flight_recorder: Option<usize>,
    /// Functions whose static contract (analyzer `NullOk` facts) marks
    /// string inputs as NULL-tolerant: under [`crate::Policy::Oblivious`]
    /// their pointer returns are manufactured empty strings instead of
    /// NULL — contract-derived defaults.
    pub oblivious_null_defaults: Vec<String>,
    /// Proven-sound rewrite plans for [`WrapperKind::Substitute`]: only
    /// functions with a plan here are interposed, each by the safer
    /// variant its plan names. Produced by the analyzer's substitution
    /// analysis — never hand-written, so every entry carries a
    /// discharged proof.
    pub substitutions: Vec<SubstitutionPlan>,
}

/// Whether a predicate guards *writes* (what the security wrapper
/// enforces; read-side contracts stay with the robustness wrapper).
fn security_relevant(pred: &SafePred) -> bool {
    match pred {
        SafePred::Writable(_)
        | SafePred::HoldsCStrOf { .. }
        | SafePred::WritableAtLeastArg { .. }
        | SafePred::WritableAtLeastProduct { .. }
        | SafePred::SizeFitsWritable { .. }
        | SafePred::HeapChunkOrNull => true,
        SafePred::NullOr(inner) => security_relevant(inner),
        _ => false,
    }
}

/// The functions the canary micro-generator interposes.
const CANARY_FUNCS: &[&str] = &["malloc", "calloc", "free", "realloc", "exit"];

/// Builds one of the standard wrapper libraries from a robust API,
/// binding the simulated system libraries' implementations.
pub fn build_wrapper(
    kind: WrapperKind,
    api: &RobustApi,
    config: &WrapperConfig,
) -> WrapperLibrary {
    build_wrapper_with_impls(kind, api, config, &simlibc::find_impl)
}

/// [`build_wrapper`] with an explicit implementation lookup — for
/// wrapping a *new release* of a library whose symbols resolve to
/// different code than the stock simulated one.
pub fn build_wrapper_with_impls(
    kind: WrapperKind,
    api: &RobustApi,
    config: &WrapperConfig,
    lookup: &dyn Fn(&str) -> Option<HostFn>,
) -> WrapperLibrary {
    let stats = Arc::new(Stats::new());
    let registry = Arc::new(CanaryRegistry::new());
    let log: CallLog = Arc::new(Mutex::new(Vec::new()));
    let journal =
        Arc::new(WrapperJournal::new().with_ring(config.flight_recorder.unwrap_or(0)));
    let oracle = GuardOracle::new(Arc::clone(&registry));
    let engine = config.policy.clone().unwrap_or_else(PolicyEngine::healing);
    // Taint tracking (and the unfused check hook it forces) is paid for
    // only when some route through the engine can actually go oblivious.
    let taint = kind == WrapperKind::Healing && engine.may_go_oblivious();
    let contract_defaults: Arc<BTreeSet<String>> =
        Arc::new(config.oblivious_null_defaults.iter().cloned().collect());
    // One exit document per process, shipped by one hook over the stats
    // and the journal.
    let exit_report = match (kind, &config.fleet) {
        (WrapperKind::Profiling | WrapperKind::Healing, Some(sink)) => {
            Some(Arc::new(ExitReportHook::new(
                Arc::clone(&stats),
                Arc::clone(&journal),
                config.app_name.clone(),
                kind,
                sink.clone(),
            )))
        }
        _ => None,
    };

    let mut fns = BTreeMap::new();
    let mut warnings = Vec::new();
    let mut source = String::new();
    source.push_str(&format!(
        "/* {} — generated by HEALERS from the robust API of {} */\n\n",
        kind.soname(),
        api.library
    ));

    for (index, f) in api.functions.iter().enumerate() {
        let name = f.proto.name.clone();
        let Some(imp) = lookup(&name) else { continue };

        // A contract that is a conservative guess (breaker tripped,
        // budget expired) is dangerous to *enforce*: it may reject
        // arguments the library handles fine. Observational kinds
        // (profiling, tracing) are unaffected.
        let enforces_contract = matches!(
            kind,
            WrapperKind::Robustness | WrapperKind::Security | WrapperKind::Healing
        );
        if enforces_contract && !f.skipped && !f.is_measured() {
            let action = match config.low_confidence {
                LowConfidence::Warn => "enforcing conservative contract",
                LowConfidence::Skip => "left unwrapped",
            };
            warnings.push(format!(
                "{name}: contract confidence is {} (coverage {:.0}%) — {action}",
                f.confidence,
                f.coverage * 100.0
            ));
            if config.low_confidence == LowConfidence::Skip {
                continue;
            }
        }

        let mut hooks: Vec<Arc<dyn Hook>> = Vec::new();

        match kind {
            WrapperKind::Custom => {
                // Hand-composed wrappers come from `WrapperBuilder`.
                continue;
            }
            WrapperKind::Robustness => {
                if f.skipped || !f.has_checks() {
                    continue; // pay only for the protection you need
                }
                hooks.push(Arc::new(ArgCheckHook::new(
                    f.preds.clone(),
                    f.proto.ret.clone(),
                    oracle.clone(),
                    PolicyEngine::containment(),
                )));
            }
            WrapperKind::Security => {
                let sec_preds: Vec<SafePred> = f
                    .preds
                    .iter()
                    .map(
                        |p| if security_relevant(p) { p.clone() } else { SafePred::Always },
                    )
                    .collect();
                let has_sec = sec_preds.iter().any(|p| *p != SafePred::Always);
                let is_canary = CANARY_FUNCS.contains(&name.as_str());
                if !has_sec && !is_canary {
                    continue;
                }
                // Where the canary hook rewrites size arguments
                // (guard-word inflation: malloc/calloc/realloc), checks
                // must precede it — a check running after would validate
                // the inflated size instead of the caller's, the exact
                // ordering defect the wrapper-soundness lint flags as
                // check-after-mutation. For `free` the canary op only
                // *verifies*, so it runs first: a smashed guard word is
                // reported as the canary detection it is, not as a
                // robust-type violation.
                let canary_mutates =
                    is_canary && matches!(name.as_str(), "malloc" | "calloc" | "realloc");
                if is_canary && !canary_mutates {
                    hooks.push(Arc::new(CanaryHook::new(Arc::clone(&registry))));
                }
                if has_sec {
                    hooks.push(Arc::new(ArgCheckHook::new(
                        sec_preds,
                        f.proto.ret.clone(),
                        oracle.clone(),
                        PolicyEngine::terminating(),
                    )));
                }
                if canary_mutates {
                    hooks.push(Arc::new(CanaryHook::new(Arc::clone(&registry))));
                }
            }
            WrapperKind::Tracing => {
                hooks.push(Arc::new(crate::hooks::LogCallHook::new(Arc::clone(&log))));
            }
            WrapperKind::Substitute => {
                // Only functions the analyzer proved a rewrite for are
                // interposed: no plan, no interception, no overhead.
                let Some(plan) = config.substitutions.iter().find(|pl| pl.func == name)
                else {
                    continue;
                };
                hooks.push(Arc::new(SubstituteHook::new(
                    plan.clone(),
                    oracle.clone(),
                    Arc::clone(&journal),
                    f.proto.ret.clone(),
                )));
            }
            WrapperKind::Healing => {
                // Statistics ride along so the exit document carries the
                // call profile next to the healing journal.
                hooks.push(Arc::new(ExectimeHook::new(Arc::clone(&stats))));
                hooks.push(Arc::new(CollectErrorsHook::new(Arc::clone(&stats))));
                hooks.push(Arc::new(FuncErrorsHook::new(Arc::clone(&stats))));
                hooks.push(Arc::new(CallCounterHook::new(Arc::clone(&stats))));
                if name == "exit" {
                    if let Some(report) = &exit_report {
                        hooks.push(Arc::clone(report) as Arc<dyn Hook>);
                    }
                } else {
                    if f.skipped || !f.has_checks() {
                        continue; // nothing to heal, nothing to pay for
                    }
                    let mut check = ArgCheckHook::with_journal(
                        f.preds.clone(),
                        f.proto.ret.clone(),
                        oracle.clone(),
                        engine.clone(),
                        Arc::clone(&journal),
                    );
                    if taint {
                        check = check
                            .with_oblivious()
                            .with_contract_defaults(Arc::clone(&contract_defaults));
                    }
                    if config.latency_histograms {
                        // Stage latency keeps the check hook unfused:
                        // its `before` then runs on every call.
                        check = check.with_stats(Arc::clone(&stats));
                    }
                    hooks.push(Arc::new(check));
                }
            }
            WrapperKind::Profiling => {
                hooks.push(Arc::new(ExectimeHook::new(Arc::clone(&stats))));
                hooks.push(Arc::new(CollectErrorsHook::new(Arc::clone(&stats))));
                hooks.push(Arc::new(FuncErrorsHook::new(Arc::clone(&stats))));
                hooks.push(Arc::new(CallCounterHook::new(Arc::clone(&stats))));
                if name == "exit" {
                    if let Some(report) = &exit_report {
                        hooks.push(Arc::clone(report) as Arc<dyn Hook>);
                    }
                }
            }
        }

        source.push_str(&generate_function(
            &CodegenCx { proto: &f.proto, func_index: index },
            &hooks,
        ));
        source.push('\n');

        // Telemetry is compiled into the wrapper's epilogue rather than
        // riding as hooks: it records after every other hook settled the
        // verdict (the position a first-inserted recorder hook's `after`
        // occupied) without unfusing any hook.
        let latency = config.latency_histograms.then(|| Arc::clone(&stats));
        let flight = config.flight_recorder.map(|_| Arc::clone(&journal));
        fns.insert(
            name,
            WrappedFn::new_with_telemetry(f.proto.clone(), imp, hooks, latency, flight),
        );
    }

    WrapperLibrary {
        soname: kind.soname().to_string(),
        kind,
        source,
        fns,
        stats,
        registry,
        log,
        journal,
        exit_report,
        warnings,
    }
}

/// Hand-rolled composition for custom wrapper types: "such an
/// architecture facilitates code reuse and makes it easy to introduce new
/// functionalities".
#[derive(Debug, Default)]
pub struct WrapperBuilder {
    soname: String,
    entries: BTreeMap<String, Vec<Arc<dyn Hook>>>,
}

impl std::fmt::Debug for dyn Hook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hook({})", self.name())
    }
}

impl WrapperBuilder {
    /// Starts a custom wrapper library.
    pub fn new(soname: impl Into<String>) -> Self {
        WrapperBuilder { soname: soname.into(), entries: BTreeMap::new() }
    }

    /// Adds a hook to the pipeline for `func` (wrapping it if new).
    pub fn hook(&mut self, func: &str, hook: Arc<dyn Hook>) -> &mut Self {
        self.entries.entry(func.to_string()).or_default().push(hook);
        self
    }

    /// Builds the library; functions unknown to the simulated libraries
    /// are skipped.
    pub fn build(&self) -> WrapperLibrary {
        let protos = simlibc::prototypes();
        let mut fns = BTreeMap::new();
        for (name, hooks) in &self.entries {
            let Some(imp) = simlibc::find_impl(name) else { continue };
            let Some(proto) = protos.iter().find(|p| &p.name == name).cloned() else {
                continue;
            };
            fns.insert(name.clone(), WrappedFn::new(proto, imp, hooks.clone()));
        }
        WrapperLibrary {
            soname: self.soname.clone(),
            kind: WrapperKind::Custom,
            source: format!(
                "/* {} — hand-composed wrapper ({} functions) */\n",
                self.soname,
                fns.len()
            ),
            fns,
            stats: Arc::new(Stats::new()),
            registry: Arc::new(CanaryRegistry::new()),
            log: Arc::new(Mutex::new(Vec::new())),
            journal: Arc::new(WrapperJournal::new()),
            exit_report: None,
            warnings: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdecl::{parse_prototype, TypedefTable};
    use simlibc::testutil::libc_proc;
    use simproc::{CVal, Fault};
    use typelattice::RobustFunction;

    fn tiny_api() -> RobustApi {
        let t = TypedefTable::with_builtins();
        let mk = |proto: &str, preds: Vec<SafePred>| {
            RobustFunction::new(parse_prototype(proto, &t).unwrap(), preds, true)
        };
        RobustApi {
            library: "libsimc.so.1".into(),
            functions: vec![
                mk(
                    "char *strcpy(char *dest, const char *src);",
                    vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr],
                ),
                mk("size_t strlen(const char *s);", vec![SafePred::CStr]),
                mk("int abs(int j);", vec![SafePred::Always]),
                mk("void *malloc(size_t size);", vec![SafePred::Always]),
                mk("void free(void *ptr);", vec![SafePred::HeapChunkOrNull]),
                mk("void exit(int status);", vec![SafePred::Always]),
            ],
        }
    }

    #[test]
    fn robustness_wrapper_wraps_only_checked_functions() {
        let lib =
            build_wrapper(WrapperKind::Robustness, &tiny_api(), &WrapperConfig::default());
        assert_eq!(lib.wrapped_names(), vec!["free", "strcpy", "strlen"]);
        assert!(lib.get("abs").is_none(), "no checks, no overhead");
        assert!(lib.source.contains("healers_check"));
        assert!(lib.source.contains("micro-gen arg check"));
    }

    #[test]
    fn robustness_wrapper_contains_crashes() {
        let lib =
            build_wrapper(WrapperKind::Robustness, &tiny_api(), &WrapperConfig::default());
        let strlen = lib.get("strlen").unwrap();
        let mut p = libc_proc();
        let r = strlen.call(&mut p, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(-1));
        assert_eq!(p.errno(), simproc::errno::EINVAL);
    }

    #[test]
    fn security_wrapper_wraps_allocators_and_writers() {
        let lib =
            build_wrapper(WrapperKind::Security, &tiny_api(), &WrapperConfig::default());
        let names = lib.wrapped_names();
        assert!(names.contains(&"malloc"));
        assert!(names.contains(&"free"));
        assert!(names.contains(&"exit"));
        assert!(names.contains(&"strcpy"), "write function");
        assert!(!names.contains(&"strlen"), "read-only contract is not security relevant");
        assert!(lib.source.contains("CANARY_LEN"));
    }

    #[test]
    fn security_wrapper_terminates_overflowing_strcpy() {
        let lib =
            build_wrapper(WrapperKind::Security, &tiny_api(), &WrapperConfig::default());
        let mut p = libc_proc();
        let malloc = lib.get("malloc").unwrap();
        let strcpy = lib.get("strcpy").unwrap();
        let buf = malloc.call(&mut p, &[CVal::Int(8)]).unwrap().as_ptr();
        let attack = p.alloc_cstr(&"X".repeat(64));
        let err = strcpy.call(&mut p, &[CVal::Ptr(buf), CVal::Ptr(attack)]).unwrap_err();
        assert!(matches!(err, Fault::SecurityViolation { .. }));
        // An in-bounds copy is untouched.
        let ok = p.alloc_cstr("ok");
        strcpy.call(&mut p, &[CVal::Ptr(buf), CVal::Ptr(ok)]).unwrap();
        assert_eq!(p.read_cstr_lossy(buf), "ok");
    }

    #[test]
    fn profiling_wrapper_wraps_everything_and_reports() {
        let service = profiler::FleetService::start(profiler::FleetConfig::central());
        let config = WrapperConfig {
            app_name: "demo".into(),
            fleet: Some(service.collector()),
            policy: None,
            ..WrapperConfig::default()
        };
        let lib = build_wrapper(WrapperKind::Profiling, &tiny_api(), &config);
        assert_eq!(lib.len(), 6, "profiling wraps every function");
        let mut p = libc_proc();
        let s = p.alloc_cstr("abcd");
        lib.get("strlen").unwrap().call(&mut p, &[CVal::Ptr(s)]).unwrap();
        lib.get("abs").unwrap().call(&mut p, &[CVal::Int(-2)]).unwrap();
        let err = lib.get("exit").unwrap().call(&mut p, &[CVal::Int(0)]).unwrap_err();
        assert_eq!(err, Fault::Exit(0));
        let snap = lib.stats.snapshot();
        assert_eq!(snap.per_func["strlen"].calls, 1);
        assert_eq!(snap.per_func["abs"].calls, 1);
        let doc = lib.shipped_document().expect("exit shipped a document");
        assert!(doc.contains("wrapper=\"profiling\""), "{doc}");
        let out = service.shutdown();
        assert_eq!(out.accounting.accepted(), 1);
        assert_eq!(out.rollup.per_app["demo"].docs, 1);
        assert!(lib.source.contains("micro-gen call counter"));
    }

    #[test]
    fn healing_wrapper_repairs_and_journals() {
        let service = profiler::FleetService::start(profiler::FleetConfig::central());
        let config = WrapperConfig {
            app_name: "healdemo".into(),
            fleet: Some(service.collector()),
            policy: None, // defaults to PolicyEngine::healing()
            ..WrapperConfig::default()
        };
        let lib = build_wrapper(WrapperKind::Healing, &tiny_api(), &config);
        assert_eq!(lib.kind, WrapperKind::Healing);
        let names = lib.wrapped_names();
        assert!(names.contains(&"strcpy") && names.contains(&"exit"), "{names:?}");
        assert!(!names.contains(&"abs"), "nothing to heal, nothing to pay for");
        assert!(lib.source.contains("micro-gen heal args"), "{}", lib.source);
        assert!(lib.source.contains("micro-gen retry"));

        let mut p = libc_proc();
        // strlen(NULL) heals to 0 instead of EINVAL/-1.
        let r = lib.get("strlen").unwrap().call(&mut p, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(0));
        // A wild free() becomes free(NULL).
        lib.get("free")
            .unwrap()
            .call(&mut p, &[CVal::Ptr(simproc::VirtAddr::new(0x40))])
            .unwrap();
        assert_eq!(lib.journal.len(), 2, "{:?}", lib.journal.snapshot());

        // The exit document ships the journal.
        let err = lib.get("exit").unwrap().call(&mut p, &[CVal::Int(0)]).unwrap_err();
        assert_eq!(err, Fault::Exit(0));
        let doc = lib.shipped_document().expect("exit shipped a document");
        assert!(doc.contains("wrapper=\"healing\""), "{doc}");
        assert!(doc.contains("<healing events=\"2\">"), "{doc}");
        let out = service.shutdown();
        assert_eq!(out.accounting.accepted(), 1);
        assert_eq!(out.rollup.per_app["healdemo"].heals, 2);
    }

    #[test]
    fn custom_builder_composes_hooks() {
        let log: CallLog = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(Stats::new());
        let mut b = WrapperBuilder::new("libcustom.so");
        b.hook("strlen", Arc::new(crate::hooks::LogCallHook::new(Arc::clone(&log))));
        b.hook("strlen", Arc::new(CallCounterHook::new(Arc::clone(&stats))));
        let lib = b.build();
        assert_eq!(lib.kind, WrapperKind::Custom);
        assert!(lib.source.contains("hand-composed"));
        let mut p = libc_proc();
        let s = p.alloc_cstr("hi");
        lib.get("strlen").unwrap().call(&mut p, &[CVal::Ptr(s)]).unwrap();
        assert_eq!(log.lock().len(), 1);
        assert_eq!(stats.snapshot().per_func["strlen"].calls, 1);
    }

    #[test]
    fn low_confidence_contracts_warn_or_skip() {
        use typelattice::Confidence;
        let mut api = tiny_api();
        let i = api.functions.iter().position(|f| f.proto.name == "strlen").unwrap();
        api.functions[i].confidence = Confidence::Partial;
        api.functions[i].coverage = 0.4;
        api.functions[i].fully_robust = false;

        let warn = build_wrapper(WrapperKind::Robustness, &api, &WrapperConfig::default());
        assert!(warn.get("strlen").is_some(), "Warn still enforces");
        assert_eq!(warn.warnings.len(), 1, "{:?}", warn.warnings);
        assert!(warn.warnings[0].contains("strlen"), "{:?}", warn.warnings);
        assert!(warn.warnings[0].contains("partial"), "{:?}", warn.warnings);

        let config = WrapperConfig {
            low_confidence: LowConfidence::Skip,
            ..WrapperConfig::default()
        };
        let skip = build_wrapper(WrapperKind::Robustness, &api, &config);
        assert!(skip.get("strlen").is_none(), "Skip refuses guessed contracts");
        assert!(skip.get("strcpy").is_some(), "measured contracts unaffected");
        assert_eq!(skip.warnings.len(), 1, "{:?}", skip.warnings);

        let profiling =
            build_wrapper(WrapperKind::Profiling, &api, &WrapperConfig::default());
        assert!(profiling.warnings.is_empty(), "observational kinds never warn");
        assert!(profiling.get("strlen").is_some());
    }

    #[test]
    fn flight_recorder_rides_every_wrapped_function() {
        let config = WrapperConfig { flight_recorder: Some(4), ..WrapperConfig::default() };
        let lib = build_wrapper(WrapperKind::Security, &tiny_api(), &config);
        let mut p = libc_proc();
        let malloc = lib.get("malloc").unwrap();
        let strcpy = lib.get("strcpy").unwrap();
        let buf = malloc.call(&mut p, &[CVal::Int(8)]).unwrap().as_ptr();
        let attack = p.alloc_cstr(&"X".repeat(64));
        let err = strcpy.call(&mut p, &[CVal::Ptr(buf), CVal::Ptr(attack)]).unwrap_err();
        assert!(matches!(err, Fault::SecurityViolation { .. }));
        let tail = lib.journal.tail();
        assert_eq!(tail.len(), 2, "{tail:?}");
        assert_eq!(tail[0].func, "malloc");
        assert_eq!(tail[0].verdict, "ok");
        assert_eq!(tail[1].func, "strcpy");
        assert_eq!(tail[1].verdict, err.to_string());

        // Off by default: nothing recorded, and the check hook fuses.
        let plain =
            build_wrapper(WrapperKind::Robustness, &tiny_api(), &WrapperConfig::default());
        assert!(plain.get("strlen").unwrap().has_plan(), "check hook fused");
        let s = p.alloc_cstr("xyz");
        plain.get("strlen").unwrap().call(&mut p, &[CVal::Ptr(s)]).unwrap();
        assert!(plain.journal.tail().is_empty());
        // Recording is compiled into the epilogue: the plan survives and
        // the ring still fills.
        let recorded = build_wrapper(WrapperKind::Robustness, &tiny_api(), &config);
        assert!(
            recorded.get("strlen").unwrap().has_plan(),
            "recording keeps the check hook fused"
        );
        let mut p = libc_proc();
        let s = p.alloc_cstr("xyz");
        recorded.get("strlen").unwrap().call(&mut p, &[CVal::Ptr(s)]).unwrap();
        let tail = recorded.journal.tail();
        assert_eq!(tail.len(), 1, "{tail:?}");
        assert_eq!(tail[0].func, "strlen");
        assert_eq!(tail[0].verdict, "ok");
    }

    #[test]
    fn exit_document_carries_latency_and_flight_sections() {
        let service = profiler::FleetService::start(profiler::FleetConfig::central());
        let config = WrapperConfig {
            app_name: "telemetry-demo".into(),
            fleet: Some(service.collector()),
            latency_histograms: true,
            flight_recorder: Some(8),
            ..WrapperConfig::default()
        };
        let lib = build_wrapper(WrapperKind::Profiling, &tiny_api(), &config);
        let mut p = libc_proc();
        let s = p.alloc_cstr("abcd");
        lib.get("strlen").unwrap().call(&mut p, &[CVal::Ptr(s)]).unwrap();
        let err = lib.get("exit").unwrap().call(&mut p, &[CVal::Int(0)]).unwrap_err();
        assert_eq!(err, Fault::Exit(0));
        let doc = lib.shipped_document().expect("exit shipped a document");
        assert_eq!(service.shutdown().rollup.docs, 1);
        assert!(doc.contains("name=\"latency-histogram\""), "{doc}");
        assert!(doc.contains("<latency stage=\"call\""), "{doc}");
        assert!(doc.contains("<flight-recorder entries="), "{doc}");
        assert!(doc.contains("function=\"strlen\""), "{doc}");
    }

    #[test]
    fn latency_histograms_sample_every_wrapped_call_once() {
        let config = WrapperConfig { latency_histograms: true, ..WrapperConfig::default() };
        let samples = |lib: &WrapperLibrary, stage: &str| {
            let snap = lib.stats.snapshot();
            snap.per_func["strlen"].latency.get(stage).map_or(0, |h| h.count())
        };
        let mut p = libc_proc();
        let s = p.alloc_cstr("hello");

        let profiling = build_wrapper(WrapperKind::Profiling, &tiny_api(), &config);
        let strlen = profiling.get("strlen").unwrap();
        strlen.call(&mut p, &[CVal::Ptr(s)]).unwrap();
        strlen.call(&mut p, &[CVal::Ptr(s)]).unwrap();
        assert_eq!(samples(&profiling, "call"), 2);
        assert_eq!(samples(&profiling, "check"), 0, "profiling checks nothing");

        let healing = build_wrapper(WrapperKind::Healing, &tiny_api(), &config);
        let strlen = healing.get("strlen").unwrap();
        strlen.call(&mut p, &[CVal::Ptr(s)]).unwrap();
        strlen.call(&mut p, &[CVal::NULL]).unwrap(); // heals NULL -> ""
        assert_eq!(samples(&healing, "call"), 2);
        assert_eq!(samples(&healing, "check"), 2);
        assert_eq!(samples(&healing, "heal"), 1);

        // Off by default.
        let plain =
            build_wrapper(WrapperKind::Profiling, &tiny_api(), &WrapperConfig::default());
        plain.get("strlen").unwrap().call(&mut p, &[CVal::Ptr(s)]).unwrap();
        assert!(!plain.stats.snapshot().has_latency());
    }

    #[test]
    fn different_wrappers_from_same_api_differ() {
        let api = tiny_api();
        let r = build_wrapper(WrapperKind::Robustness, &api, &WrapperConfig::default());
        let s = build_wrapper(WrapperKind::Security, &api, &WrapperConfig::default());
        let p = build_wrapper(WrapperKind::Profiling, &api, &WrapperConfig::default());
        assert_ne!(r.wrapped_names(), s.wrapped_names());
        assert_eq!(p.len(), api.functions.len());
        assert_ne!(r.source, p.source);
    }
}
