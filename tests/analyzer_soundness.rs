//! Integration tests for the static analyzer: seeded-unsoundness
//! fixtures the linter must flag, lint-cleanliness of the toolkit's own
//! generated wrappers, contract-seeded campaign equivalence (same
//! verdicts, fewer cases), and determinism of both reports.

use std::sync::Arc;

use healers::analyzer::{self, Fact, LintRule, PRESEED_THRESHOLD};
use healers::guardian::{CanaryRegistry, GuardOracle};
use healers::injector::{
    run_campaign, run_campaign_with, targets_from_simlibc, CampaignConfig, CampaignResult,
    CampaignRun, TargetFn,
};
use healers::simproc::CVal;
use healers::typelattice::{LadderHints, SafePred};
use healers::wrappergen::{Hook, HookOp, WrapperBuilder};
use healers::{
    process_factory, simlibc, PolicyEngine, Toolkit, WrapperConfig, WrapperKind,
};

fn quick_config() -> CampaignConfig {
    CampaignConfig { pair_values: 4, fuel: 200_000, ..CampaignConfig::default() }
}

fn subset_targets() -> Vec<TargetFn> {
    const SUBSET: &[&str] =
        &["strlen", "strcpy", "strcmp", "printf", "free", "time", "isalpha", "memcpy"];
    targets_from_simlibc()
        .into_iter()
        .filter(|t| SUBSET.contains(&t.name.as_str()))
        .collect()
}

fn infer_subset() -> (Vec<TargetFn>, analyzer::ContractBase) {
    let targets = subset_targets();
    let protos: Vec<_> = targets.iter().map(|t| t.proto.clone()).collect();
    let base = analyzer::infer_contracts("libsimc.so.1", &protos, &simlibc::man_page);
    (targets, base)
}

fn seeded_campaign(
    targets: &[TargetFn],
    hints: &LadderHints,
    config: &CampaignConfig,
) -> CampaignResult {
    let run = CampaignRun { hints: Some(hints), ..CampaignRun::default() };
    run_campaign_with("libsimc.so.1", targets, process_factory, config, &run)
}

// ---- seeded-unsoundness fixtures ------------------------------------

/// Deliberately defective: clamps `n` and only then checks it, so the
/// check validates the clamped value instead of the caller's.
struct MutateThenCheckHook;

impl Hook for MutateThenCheckHook {
    fn name(&self) -> &'static str {
        "fixture clamp"
    }
    fn ops(&self, _proto: &healers::cdecl::Prototype) -> Vec<HookOp> {
        vec![
            HookOp::Mutate { arg: 2, label: "clamp n to the buffer".into() },
            HookOp::Check {
                arg: 2,
                pred: Some(SafePred::SizeBelow(1 << 16)),
                label: "n below 2^16".into(),
                null_guarded: true,
                memoized: false,
            },
        ]
    }
}

/// Deliberately defective: range-checks far beyond what the 4-byte
/// register truncation at the call boundary can represent.
struct NarrowMaskHook;

impl Hook for NarrowMaskHook {
    fn name(&self) -> &'static str {
        "fixture range"
    }
    fn ops(&self, _proto: &healers::cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Check {
            arg: 0,
            pred: Some(SafePred::IntInRange { min: 0, max: 1 << 40 }),
            label: "wide range".into(),
            null_guarded: false,
            memoized: false,
        }]
    }
}

/// Deliberately defective: scans the string without establishing the
/// pointer is non-NULL first.
struct RawScanHook;

impl Hook for RawScanHook {
    fn name(&self) -> &'static str {
        "fixture scan"
    }
    fn ops(&self, _proto: &healers::cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Check {
            arg: 0,
            pred: Some(SafePred::CStr),
            label: "raw cstr scan".into(),
            null_guarded: false,
            memoized: false,
        }]
    }
}

fn fixture_library() -> healers::WrapperLibrary {
    let mut b = WrapperBuilder::new("libfixture.so.1");
    b.hook("strncpy", Arc::new(MutateThenCheckHook));
    b.hook("isalpha", Arc::new(NarrowMaskHook));
    b.hook("strlen", Arc::new(RawScanHook));
    b.build()
}

#[test]
fn linter_flags_every_seeded_defect() {
    let findings = analyzer::lint_library(&fixture_library());
    let mut rules: Vec<(&str, LintRule)> =
        findings.iter().map(|f| (f.func.as_str(), f.rule)).collect();
    rules.sort_unstable();
    // isalpha's wide range check is also an unguarded check on an int —
    // the scan rule keys on null_guarded, which the fixture leaves
    // false — so the defect inventory is exactly:
    assert!(rules.contains(&("strncpy", LintRule::CheckAfterMutation)), "{findings:?}");
    assert!(rules.contains(&("isalpha", LintRule::NarrowMask)), "{findings:?}");
    assert!(rules.contains(&("strlen", LintRule::UnguardedScan)), "{findings:?}");
    let report = analyzer::render_findings("libfixture.so.1", &findings);
    assert!(report.contains("check-after-mutation"), "{report}");
    assert!(report.contains("narrow-mask"), "{report}");
    assert!(report.contains("unguarded-cstr-scan"), "{report}");
}

#[test]
fn lint_report_is_deterministic_across_runs() {
    let a = analyzer::render_findings(
        "libfixture.so.1",
        &analyzer::lint_library(&fixture_library()),
    );
    let b = analyzer::render_findings(
        "libfixture.so.1",
        &analyzer::lint_library(&fixture_library()),
    );
    assert_eq!(a, b, "two same-input lint runs must render byte-identically");
}

#[test]
fn contract_base_is_deterministic_across_runs() {
    let (_, a) = infer_subset();
    let (_, b) = infer_subset();
    assert_eq!(a.to_text(), b.to_text());
}

// ---- contract-seeded campaign equivalence ---------------------------

#[test]
fn seeded_campaign_keeps_verdicts_and_prunes_cases() {
    let (targets, base) = infer_subset();
    let protos: Vec<_> = targets.iter().map(|t| t.proto.clone()).collect();
    let hints = analyzer::ladder_hints(&base, &protos);
    assert!(!hints.is_empty(), "{}", base.to_text());

    let config = quick_config();
    let plain = run_campaign("libsimc.so.1", &targets, process_factory, &config);
    let seeded = seeded_campaign(&targets, &hints, &config);

    assert_eq!(
        seeded.api.to_xml(),
        plain.api.to_xml(),
        "pre-seeding must not change any robust-API verdict"
    );
    assert_eq!(plain.total_pruned(), 0);
    assert!(seeded.total_pruned() > 0, "contracts must prune injection cases");
    assert!(seeded.executed_cases() < plain.executed_cases());
    // The pruned counts surface in the campaign XML for EXPERIMENTS.md.
    let xml = healers::injector::to_xml(&seeded);
    assert!(xml.contains(&format!("pruned=\"{}\"", seeded.total_pruned())), "{xml}");
    // NULL-tolerant functions must keep their permissive verdicts: free
    // and time accept NULL, and their contracts say so (NullOk), so no
    // floor may have been applied to them.
    assert_eq!(hints.floor("free", 0), 0);
    assert_eq!(hints.floor("time", 0), 0);
    assert!(hints.floor("strlen", 0) > 0);
}

// ---- the toolkit's own wrappers are lint-clean ----------------------

#[test]
fn generated_wrappers_have_no_findings() {
    let (targets, base) = infer_subset();
    let protos: Vec<_> = targets.iter().map(|t| t.proto.clone()).collect();
    let hints = analyzer::ladder_hints(&base, &protos);
    let seeded = seeded_campaign(&targets, &hints, &quick_config());
    let toolkit = Toolkit::new();
    for kind in [
        WrapperKind::Robustness,
        WrapperKind::Security,
        WrapperKind::Healing,
        WrapperKind::Profiling,
        WrapperKind::Tracing,
    ] {
        let wrapper =
            toolkit.generate_wrapper(kind, &seeded.api, &WrapperConfig::default());
        let findings = analyzer::lint_library(&wrapper);
        assert!(findings.is_empty(), "{kind:?}: {findings:?}");
    }
    assert!(analyzer::lint_contracts(&base).is_empty());
}

#[test]
fn substitute_wrapper_is_proven_and_lint_clean() {
    let (targets, base) = infer_subset();
    let protos: Vec<_> = targets.iter().map(|t| t.proto.clone()).collect();
    let seeded =
        seeded_campaign(&targets, &analyzer::ladder_hints(&base, &protos), &quick_config());
    let toolkit = Toolkit::new();
    let security = toolkit.generate_wrapper(
        WrapperKind::Security,
        &seeded.api,
        &WrapperConfig::default(),
    );
    let analysis = toolkit.analyze_substitutions(&security, Some(&base));
    assert!(
        analysis.plans.iter().any(|p| p.func == "strcpy"),
        "strcpy proof must discharge over the security wrapper:\n{}",
        analysis.to_text()
    );
    let substitute = toolkit.generate_substitute_wrapper(
        &seeded.api,
        &WrapperConfig::default(),
        &analysis.plans,
    );
    assert!(!substitute.is_empty(), "proven plans must produce wrapped functions");
    // The rerouted wrappers stay fully lintable — real check/mutate ops,
    // never an opaque fallback — and produce no findings.
    for (name, f) in substitute.iter() {
        let model = f.call_model();
        assert!(
            !model.ops.is_empty()
                && !model.ops.iter().any(|op| matches!(op.op, HookOp::Opaque)),
            "{name} went unlintable: {model:?}"
        );
    }
    assert!(analyzer::lint_library(&substitute).is_empty());
}

// ---- contract-derived hooks -----------------------------------------

#[test]
fn contract_hook_protects_with_contract_provenance() {
    let (targets, base) = infer_subset();
    let strlen = targets.iter().find(|t| t.name == "strlen").unwrap();
    let contract = base.function("strlen").unwrap();
    assert!(contract.confidence(&Fact::CStr(0)) >= PRESEED_THRESHOLD);

    let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
    let hook = analyzer::contract_hook(
        contract,
        &strlen.proto,
        oracle,
        PolicyEngine::containment(),
    );
    let mut b = WrapperBuilder::new("libcontract.so.1");
    b.hook("strlen", Arc::new(hook));
    let lib = b.build();

    // The statically-derived check is visible in the call model, tagged.
    let model = lib.get("strlen").unwrap().call_model();
    assert!(model.ops.iter().any(|op| op.provenance == "contract"), "{model:?}");
    assert!(analyzer::lint_library(&lib).is_empty());

    // And it protects: strlen(NULL) is contained without any campaign.
    let mut p = process_factory();
    let r = lib.get("strlen").unwrap().call(&mut p, &[CVal::NULL]).unwrap();
    assert_eq!(r, CVal::Int(-1), "contained by a contract-derived check");
}
