//! The HEALERS toolkit facade: the end-to-end pipeline of Figure 2
//! driven from one place.

use std::path::Path;

use analyzer::ContractBase;
use cdecl::xml::write_declaration_file;
use injector::{
    run_campaign, CampaignConfig, CampaignResult, CampaignRun, CheckpointJournal, TargetFn,
};
use interpose::{AppInfo, Executable, Loader, RunOutcome, SharedLibrary, System};
use simproc::Proc;
use typelattice::{RobustApi, SubstitutionPlan};
use wrappergen::{build_wrapper, PolicyEngine, WrapperConfig, WrapperKind, WrapperLibrary};

use crate::bridge::as_preload_library;

/// The toolkit: a simulated system plus campaign configuration.
#[derive(Debug)]
pub struct Toolkit {
    system: System,
    config: CampaignConfig,
    healing_policy: Option<PolicyEngine>,
}

impl Default for Toolkit {
    fn default() -> Self {
        Toolkit::new()
    }
}

impl Toolkit {
    /// A toolkit over the standard simulated system (libc + libm) with
    /// default campaign settings.
    pub fn new() -> Self {
        Toolkit {
            system: System::standard(),
            config: CampaignConfig::default(),
            healing_policy: None,
        }
    }

    /// Overrides the campaign configuration.
    pub fn with_config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the healing policy applied by [`Toolkit::generate_healing_wrapper`]
    /// when the wrapper config does not carry its own engine.
    pub fn with_healing_policy(mut self, policy: PolicyEngine) -> Self {
        self.healing_policy = Some(policy);
        self
    }

    /// The configured healing policy, if any.
    pub fn healing_policy(&self) -> Option<&PolicyEngine> {
        self.healing_policy.as_ref()
    }

    /// The simulated system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Enables a wrapper for *every* application on the system — the
    /// administrator path of §2.1 ("a system administrator can enable a
    /// wrapper on a system wide basis through a dynamic link loader").
    pub fn enable_system_wide(&mut self, wrapper: &WrapperLibrary) {
        self.system.enable_system_wide(as_preload_library(wrapper));
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    // ----- §3.1: wrapping libraries ------------------------------------

    /// Lists all libraries in the system: `(soname, exported symbols)`.
    pub fn list_libraries(&self) -> Vec<(String, usize)> {
        self.system.libraries().iter().map(|l| (l.soname().to_string(), l.len())).collect()
    }

    /// All functions defined in one library.
    pub fn list_functions(&self, soname: &str) -> Option<Vec<String>> {
        self.system
            .library(soname)
            .map(|l| l.symbol_names().iter().map(|s| s.to_string()).collect())
    }

    /// The XML-style declaration file describing each function's
    /// prototype.
    pub fn declaration_file(&self, soname: &str) -> Option<String> {
        self.system.library(soname).map(|l| write_declaration_file(soname, &l.prototypes()))
    }

    /// Fault-injection targets for a library (host implementations are
    /// only known for the simulated libraries).
    pub fn targets(&self, soname: &str) -> Option<Vec<TargetFn>> {
        match soname {
            simlibc::LIB_NAME => Some(injector::targets_from_simlibc()),
            simlibc::math::MATH_LIB_NAME => Some(injector::targets_from_simmath()),
            _ => None,
        }
    }

    /// Runs the automated fault-injection campaign over a library,
    /// deriving its robust API (Figure 2).
    pub fn derive_robust_api(&self, soname: &str) -> Option<CampaignResult> {
        let targets = self.targets(soname)?;
        Some(run_campaign(soname, &targets, process_factory, &self.config))
    }

    /// Runs static contract inference over a library's prototypes and
    /// man pages, without touching a process: the fact base the
    /// pre-seeded campaign and the soundness lint both consume.
    pub fn infer_contracts(&self, soname: &str) -> Option<ContractBase> {
        let targets = self.targets(soname)?;
        let protos: Vec<_> = targets.iter().map(|t| t.proto.clone()).collect();
        Some(analyzer::infer_contracts(soname, &protos, &simlibc::man_page))
    }

    /// Functions whose inferred static contract tolerates a NULL input
    /// (a `NullOk` fact at or above [`analyzer::NULL_OK_THRESHOLD`]):
    /// the contract-derived default set for
    /// [`WrapperConfig::oblivious_null_defaults`]. Under the oblivious
    /// policy these functions' pointer returns are manufactured empty
    /// strings instead of bare NULL.
    pub fn oblivious_null_defaults(&self, soname: &str) -> Option<Vec<String>> {
        let base = self.infer_contracts(soname)?;
        Some(
            base.functions
                .values()
                .filter(|c| {
                    c.mentioned_params().into_iter().any(|i| {
                        c.confidence(&analyzer::Fact::NullOk(i))
                            >= analyzer::NULL_OK_THRESHOLD
                    })
                })
                .map(|c| c.func.clone())
                .collect(),
        )
    }

    /// [`Toolkit::derive_robust_api`] pre-seeded by static contract
    /// inference: facts above [`analyzer::PRESEED_THRESHOLD`] floor each
    /// parameter's candidate-type ladder, so the injector skips the rungs
    /// a settled contract already decides (reported as pruned cases).
    /// The verdicts are the same as an uncontracted campaign's — only
    /// the number of injected cases shrinks. Returns the campaign result
    /// together with the contract base that seeded it.
    pub fn derive_robust_api_with_contracts(
        &self,
        soname: &str,
    ) -> Option<(CampaignResult, ContractBase)> {
        let targets = self.targets(soname)?;
        let protos: Vec<_> = targets.iter().map(|t| t.proto.clone()).collect();
        let base = analyzer::infer_contracts(soname, &protos, &simlibc::man_page);
        let hints = analyzer::ladder_hints(&base, &protos);
        let run = CampaignRun { hints: Some(&hints), ..CampaignRun::default() };
        let result = injector::run_campaign_with(
            soname,
            &targets,
            process_factory,
            &self.config,
            &run,
        );
        Some((result, base))
    }

    /// Runs the wrapper-soundness lint over a generated wrapper library:
    /// every wrapper's call model is walked for check-after-mutation
    /// orderings, narrow truncation masks and unguarded string scans.
    pub fn lint_wrapper(&self, wrapper: &WrapperLibrary) -> Vec<analyzer::LintFinding> {
        analyzer::lint_library(wrapper)
    }

    /// [`Toolkit::derive_robust_api`] backed by a durable checkpoint
    /// journal at `journal_path`: completed cases are loaded from the
    /// file before the campaign and the (possibly grown) journal is
    /// written back after it. Interrupted or budget-limited campaigns
    /// re-run with the same path resume exactly where they stopped.
    /// Returns `None` for libraries with no known implementations.
    ///
    /// # Errors
    ///
    /// IO errors reading or writing the journal file; a corrupt journal
    /// is reported as [`std::io::ErrorKind::InvalidData`] rather than
    /// silently discarded.
    pub fn derive_robust_api_checkpointed(
        &self,
        soname: &str,
        journal_path: &Path,
    ) -> std::io::Result<Option<CampaignResult>> {
        let Some(targets) = self.targets(soname) else { return Ok(None) };
        let journal = if journal_path.exists() {
            CheckpointJournal::load(journal_path)?
        } else {
            CheckpointJournal::new()
        };
        let run = CampaignRun { journal: Some(&journal), ..CampaignRun::default() };
        let result = injector::run_campaign_with(
            soname,
            &targets,
            process_factory,
            &self.config,
            &run,
        );
        journal.save(journal_path)?;
        Ok(Some(result))
    }

    /// The operator-facing health summary of a campaign's derived robust
    /// API: per-function confidence and coverage, degraded contracts
    /// first — what to read before deploying a wrapper built from a
    /// partial campaign.
    pub fn campaign_health(&self, result: &CampaignResult) -> String {
        profiler::render_robust_api_health(&result.api)
    }

    /// Builds campaign targets from a §3.1 declaration file: the XML
    /// document produced by [`Toolkit::declaration_file`] (possibly
    /// hand-edited, as the paper allows) paired with the system's symbol
    /// bindings. Functions whose symbols are not installed are skipped.
    ///
    /// # Errors
    ///
    /// [`cdecl::xml::XmlError`] when the document is malformed.
    pub fn targets_from_declaration_file(
        &self,
        doc: &str,
    ) -> Result<(String, Vec<TargetFn>), cdecl::xml::XmlError> {
        let table = cdecl::TypedefTable::with_builtins();
        let (library, protos) = cdecl::xml::parse_declaration_file(doc, &table)?;
        let targets = protos
            .into_iter()
            .filter_map(|proto| {
                simlibc::find_impl(&proto.name).map(|imp| TargetFn {
                    name: proto.name.clone(),
                    proto,
                    imp,
                })
            })
            .collect();
        Ok((library, targets))
    }

    // ----- §2.3: wrapper generation -------------------------------------

    /// Generates one of the standard wrapper libraries from a robust API.
    pub fn generate_wrapper(
        &self,
        kind: WrapperKind,
        api: &RobustApi,
        config: &WrapperConfig,
    ) -> WrapperLibrary {
        build_wrapper(kind, api, config)
    }

    /// Generates a self-healing wrapper: violations are repaired, retried,
    /// or degraded gracefully per the policy engine instead of merely
    /// contained, and every action lands in the wrapper's audit journal.
    ///
    /// Policy precedence: an engine in `config` wins, then the toolkit's
    /// [`Toolkit::with_healing_policy`] engine, then
    /// [`PolicyEngine::healing`].
    pub fn generate_healing_wrapper(
        &self,
        api: &RobustApi,
        config: &WrapperConfig,
    ) -> WrapperLibrary {
        let mut config = config.clone();
        if config.policy.is_none() {
            config.policy = self.healing_policy.clone();
        }
        // When the engine can go oblivious and the caller supplied no
        // contract-derived defaults, derive them from the library's
        // static contracts so manufactured values are context-selected
        // out of the box.
        let may_go_oblivious =
            config.policy.as_ref().is_some_and(PolicyEngine::may_go_oblivious);
        if may_go_oblivious && config.oblivious_null_defaults.is_empty() {
            if let Some(defaults) = self.oblivious_null_defaults(&api.library) {
                config.oblivious_null_defaults = defaults;
            }
        }
        build_wrapper(WrapperKind::Healing, api, &config)
    }

    /// Runs the flow-sensitive substitution analysis over a generated
    /// wrapper library (normally the security wrapper — its call models
    /// carry the campaign-derived relational checks the proofs lean on),
    /// consulting the inferred contract base for contradictory facts
    /// when one is supplied. Returns proven [`SubstitutionPlan`]s plus
    /// the audit of rejected functions.
    pub fn analyze_substitutions(
        &self,
        wrapper: &WrapperLibrary,
        contracts: Option<&analyzer::ContractBase>,
    ) -> analyzer::SubstitutionAnalysis {
        analyzer::analyze_substitutions(wrapper, contracts)
    }

    /// Generates the safer-variant substitution wrapper: only functions
    /// with a proven plan are interposed, each rerouted to a bounded
    /// variant clipped to the oracle's exact extent — overflows are
    /// prevented outright instead of canary-detected.
    pub fn generate_substitute_wrapper(
        &self,
        api: &RobustApi,
        config: &WrapperConfig,
        plans: &[SubstitutionPlan],
    ) -> WrapperLibrary {
        let mut config = config.clone();
        config.substitutions = plans.to_vec();
        build_wrapper(WrapperKind::Substitute, api, &config)
    }

    /// Converts a generated wrapper into a preloadable shared library.
    pub fn preload_library(&self, wrapper: &WrapperLibrary) -> SharedLibrary {
        as_preload_library(wrapper)
    }

    // ----- §3.2: wrapping applications -----------------------------------

    /// Extracts the linked-library and undefined-function lists of an
    /// executable (Figure 4).
    pub fn analyze_executable(&self, exe: &Executable) -> AppInfo {
        interpose::inspect(&self.system, exe)
    }

    // ----- running applications -------------------------------------------

    /// Runs an executable unprotected.
    ///
    /// # Errors
    ///
    /// Link errors; runtime faults are inside the outcome.
    pub fn run(&self, exe: &Executable) -> Result<RunOutcome, interpose::LinkError> {
        interpose::run(&Loader::new(), &self.system, exe)
    }

    /// Runs an executable with wrappers preloaded, in order.
    ///
    /// # Errors
    ///
    /// Link errors; runtime faults are inside the outcome.
    pub fn run_protected(
        &self,
        exe: &Executable,
        wrappers: &[&WrapperLibrary],
    ) -> Result<RunOutcome, interpose::LinkError> {
        let mut loader = Loader::new();
        for w in wrappers {
            loader.preload(as_preload_library(w));
        }
        interpose::run(&loader, &self.system, exe)
    }
}

/// The process factory used for injection sandboxes.
pub fn process_factory() -> Proc {
    simlibc::setup::init_process()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simproc::{CVal, Fault};

    fn quick() -> Toolkit {
        Toolkit::new().with_config(CampaignConfig {
            pair_values: 4,
            fuel: 200_000,
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn lists_libraries_and_functions() {
        let tk = Toolkit::new();
        let libs = tk.list_libraries();
        assert_eq!(libs[0].0, "libsimc.so.1");
        assert!(libs[0].1 >= 90);
        assert_eq!(libs[1].0, "libsimm.so.1");
        let fns = tk.list_functions("libsimc.so.1").unwrap();
        assert!(fns.iter().any(|f| f == "strcpy"));
        assert!(tk.list_functions("libnope.so").is_none());
    }

    #[test]
    fn declaration_file_roundtrips() {
        let tk = Toolkit::new();
        let doc = tk.declaration_file("libsimm.so.1").unwrap();
        let t = cdecl::TypedefTable::with_builtins();
        let (lib, protos) = cdecl::xml::parse_declaration_file(&doc, &t).unwrap();
        assert_eq!(lib, "libsimm.so.1");
        assert_eq!(protos.len(), 5);
    }

    #[test]
    fn end_to_end_campaign_wrapper_containment() {
        // The core promise: campaign -> robust API -> wrapper -> the
        // previously crashing call is now contained.
        let tk = quick();
        let targets: Vec<_> = injector::targets_from_simlibc()
            .into_iter()
            .filter(|t| t.name == "strlen")
            .collect();
        let result =
            injector::run_campaign("libsimc.so.1", &targets, process_factory, tk.config());
        assert!(result.total_failures() > 0);
        let wrapper = tk.generate_wrapper(
            wrappergen::WrapperKind::Robustness,
            &result.api,
            &WrapperConfig::default(),
        );
        let mut p = process_factory();
        let r = wrapper.get("strlen").unwrap().call(&mut p, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(-1), "contained, not crashed");
    }

    #[test]
    fn system_wide_wrapper_protects_without_per_process_preload() {
        let mut tk = quick();
        let targets: Vec<_> = injector::targets_from_simlibc()
            .into_iter()
            .filter(|t| t.name == "strlen")
            .collect();
        let result =
            injector::run_campaign("libsimc.so.1", &targets, process_factory, tk.config());
        let wrapper = tk.generate_wrapper(
            wrappergen::WrapperKind::Robustness,
            &result.api,
            &WrapperConfig::default(),
        );
        fn entry(s: &mut interpose::Session<'_>) -> Result<i32, Fault> {
            let r = s.call("strlen", &[simproc::CVal::NULL])?;
            Ok(r.as_int() as i32)
        }
        let exe = Executable::new("anyapp", &["libsimc.so.1"], &["strlen"], entry);
        // Before: crash.
        assert!(tk.run(&exe).unwrap().status.is_err());
        // Admin enables the wrapper once, system-wide.
        tk.enable_system_wide(&wrapper);
        // After: every plain `run` is protected.
        assert_eq!(tk.run(&exe).unwrap().status, Ok(-1));
    }

    #[test]
    fn declaration_file_drives_a_campaign() {
        // The §3.1 artifact is not just for show: the campaign can start
        // from it (the user may have hand-edited prototypes, as the
        // paper allows).
        let tk = quick();
        let doc = tk.declaration_file("libsimm.so.1").unwrap();
        let (library, targets) = tk.targets_from_declaration_file(&doc).unwrap();
        assert_eq!(library, "libsimm.so.1");
        assert_eq!(targets.len(), 5);
        let result =
            injector::run_campaign(&library, &targets, process_factory, tk.config());
        assert!(result.api.function("mnorm").unwrap().has_checks());
        // Malformed documents error instead of guessing.
        assert!(tk.targets_from_declaration_file("<library").is_err());
    }

    #[test]
    fn healing_wrapper_repairs_where_containment_rejects() {
        let tk = quick();
        let targets: Vec<_> = injector::targets_from_simlibc()
            .into_iter()
            .filter(|t| t.name == "strlen")
            .collect();
        let result =
            injector::run_campaign("libsimc.so.1", &targets, process_factory, tk.config());
        let healing = tk.generate_healing_wrapper(&result.api, &WrapperConfig::default());
        // strlen(NULL): containment would return -1; healing substitutes an
        // empty string and the call semantically succeeds.
        let mut p = process_factory();
        let r = healing.get("strlen").unwrap().call(&mut p, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(0), "healed, not merely contained");
        assert!(!healing.journal.is_empty());

        // A toolkit-level policy flows into generation when the config
        // carries none.
        let tk = tk.with_healing_policy(wrappergen::PolicyEngine::containment());
        assert!(tk.healing_policy().is_some());
        let contained = tk.generate_healing_wrapper(&result.api, &WrapperConfig::default());
        let mut p = process_factory();
        let r = contained.get("strlen").unwrap().call(&mut p, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(-1), "config-less generation obeys toolkit policy");
    }

    #[test]
    fn checkpointed_derivation_resumes_from_disk() {
        let dir = std::env::temp_dir()
            .join(format!("healers-toolkit-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("libsimm.journal");
        let tk = quick();

        let first =
            tk.derive_robust_api_checkpointed("libsimm.so.1", &path).unwrap().unwrap();
        assert!(first.complete);
        assert_eq!(first.checkpoint_hits(), 0);
        assert!(path.exists(), "journal persisted");

        let second =
            tk.derive_robust_api_checkpointed("libsimm.so.1", &path).unwrap().unwrap();
        assert_eq!(second.executed_cases(), 0, "fully replayed from disk");
        assert_eq!(first.api.to_xml(), second.api.to_xml());

        let health = tk.campaign_health(&second);
        assert!(health.contains("libsimm.so.1"), "{health}");
        assert!(health.contains("contracts are measurements"), "{health}");

        assert!(tk.derive_robust_api_checkpointed("libnope.so", &path).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn contract_inference_and_lint_are_wired_into_the_toolkit() {
        let tk = quick();
        let base = tk.infer_contracts("libsimc.so.1").unwrap();
        let strlen = base.function("strlen").unwrap();
        assert!(
            strlen.confidence(&analyzer::Fact::CStr(0)) >= analyzer::PRESEED_THRESHOLD,
            "{}",
            base.to_text()
        );

        // The math library has no man pages, so contract seeding is a
        // no-op there — and the seeded campaign must match the plain one
        // bit for bit.
        let (seeded, _) = tk.derive_robust_api_with_contracts("libsimm.so.1").unwrap();
        let plain = tk.derive_robust_api("libsimm.so.1").unwrap();
        assert_eq!(seeded.api.to_xml(), plain.api.to_xml());

        let wrapper = tk.generate_wrapper(
            wrappergen::WrapperKind::Robustness,
            &plain.api,
            &WrapperConfig::default(),
        );
        assert!(tk.lint_wrapper(&wrapper).is_empty());
        assert!(tk.derive_robust_api_with_contracts("libnope.so").is_none());
    }

    fn fragile_entry(s: &mut interpose::Session<'_>) -> Result<i32, Fault> {
        // Reads a config value that does not exist and measures it —
        // the NULL-deref pattern behind countless real crashes.
        let name = s.literal("MISSING_CONFIG");
        let value = s.call("getenv", &[CVal::Ptr(name)])?;
        let len = s.call("strlen", &[value])?; // strlen(NULL) without wrapper
        Ok(len.as_int() as i32)
    }

    #[test]
    fn run_protected_saves_the_fragile_app() {
        let tk = quick();
        let exe = Executable::new(
            "fragile",
            &["libsimc.so.1"],
            &["getenv", "strlen"],
            fragile_entry,
        );
        // Unprotected: crashes.
        let out = tk.run(&exe).unwrap();
        assert!(matches!(out.status, Err(Fault::Segv { .. })));
        // With the robustness wrapper: survives (strlen returns -1).
        let targets: Vec<_> = injector::targets_from_simlibc()
            .into_iter()
            .filter(|t| ["strlen", "getenv"].contains(&t.name.as_str()))
            .collect();
        let result =
            injector::run_campaign("libsimc.so.1", &targets, process_factory, tk.config());
        let wrapper = tk.generate_wrapper(
            wrappergen::WrapperKind::Robustness,
            &result.api,
            &WrapperConfig::default(),
        );
        let out = tk.run_protected(&exe, &[&wrapper]).unwrap();
        assert_eq!(out.status, Ok(-1), "{:?}", out.status);
    }
}
