//! Integration tests for the campaign resilience layer: checkpointed
//! resume, flaky-outcome quorum, the per-function circuit breaker, and
//! graceful degradation under a campaign budget — the acceptance
//! scenarios of the crash-resilient-campaign work.

use std::sync::atomic::{AtomicUsize, Ordering};

use healers::injector::{
    run_campaign, run_campaign_with, targets_from_simlibc, to_xml, CampaignConfig,
    CampaignResult, CampaignRun, CaseKey, CheckpointJournal, Outcome, TargetFn,
};
use healers::simproc::{CVal, Fault, Proc};
use healers::{process_factory, Confidence, LowConfidence, WrapperConfig, WrapperKind};

fn slice(names: &[&str]) -> Vec<TargetFn> {
    targets_from_simlibc()
        .into_iter()
        .filter(|t| names.contains(&t.name.as_str()))
        .collect()
}

fn config() -> CampaignConfig {
    CampaignConfig { pair_values: 4, fuel: 300_000, ..CampaignConfig::default() }
}

fn checkpointed(
    library: &str,
    targets: &[TargetFn],
    config: &CampaignConfig,
    journal: &CheckpointJournal,
) -> CampaignResult {
    let run = CampaignRun { journal: Some(journal), ..CampaignRun::default() };
    run_campaign_with(library, targets, process_factory, config, &run)
}

/// The replayable identity of every recorded failure, in order.
fn crash_list(result: &CampaignResult) -> Vec<(String, CaseKey, Outcome)> {
    result.crashes.iter().map(|c| (c.func.clone(), c.key.clone(), c.outcome)).collect()
}

/// Acceptance scenario 1: a campaign killed partway through (simulated
/// by a hard case budget plus journal serialisation between attempts)
/// resumes from the checkpoint and converges on a robust API — and a
/// campaign report — byte-identical to an uninterrupted run's.
#[test]
fn interrupted_campaign_resumes_to_identical_result() {
    let targets = slice(&["strlen", "div"]);
    let full = run_campaign("libsimc.so.1", &targets, process_factory, &config());
    assert!(full.complete);

    let limited = CampaignConfig { case_budget: Some(25), ..config() };
    let mut journal = CheckpointJournal::new();
    let mut rounds = 0usize;
    let resumed = loop {
        rounds += 1;
        assert!(rounds < 500, "campaign must converge");
        let r = checkpointed("libsimc.so.1", &targets, &limited, &journal);
        if r.complete {
            break r;
        }
        // Simulate the process dying: only the durable text form of the
        // journal survives into the next attempt.
        journal = CheckpointJournal::from_text(&journal.to_text()).unwrap();
    };
    assert!(rounds > 1, "the budget must actually have interrupted the campaign");
    assert_eq!(resumed.api.to_xml(), full.api.to_xml());
    assert_eq!(to_xml(&resumed), to_xml(&full), "campaign XML is resume-invariant");
    assert!(resumed.checkpoint_hits() > 0);
    for f in &resumed.api.functions {
        assert_eq!(f.confidence, Confidence::High, "{}", f.proto.name);
        assert_eq!(f.coverage, 1.0);
    }
}

/// Checkpointing, contract hints and worker threads compose: a serial
/// unhinted campaign cut short by its case budget, resumed on the same
/// journal with hints and four threads, derives the uninterrupted serial
/// unhinted run's robust API byte for byte. The hints change the reports
/// and the crash list only by the cases they prune, exactly as in an
/// uninterrupted serial run with the same hints.
#[test]
fn budget_cut_campaign_resumes_hinted_on_four_threads_to_the_serial_result() {
    let targets = slice(&["strlen", "div", "isalpha"]);
    let full = run_campaign("libsimc.so.1", &targets, process_factory, &config());
    assert!(full.complete);
    let mut hints = healers::typelattice::LadderHints::new();
    hints.set("strlen", vec![3]);
    let hinted = CampaignRun { hints: Some(&hints), ..CampaignRun::default() };
    let full_hinted =
        run_campaign_with("libsimc.so.1", &targets, process_factory, &config(), &hinted);

    let journal = CheckpointJournal::new();
    let limited = CampaignConfig { case_budget: Some(25), ..config() };
    let cut = checkpointed("libsimc.so.1", &targets, &limited, &journal);
    assert!(!cut.complete, "the budget must cut the first run short");
    let resumed = run_campaign_with(
        "libsimc.so.1",
        &targets,
        process_factory,
        &config(),
        &CampaignRun { journal: Some(&journal), threads: 4, ..hinted },
    );
    assert!(resumed.complete);
    assert!(resumed.checkpoint_hits() > 0, "the resume must reuse the cut run's cases");
    assert_eq!(resumed.worker_metrics.len(), 4);

    assert_eq!(resumed.api.to_xml(), full.api.to_xml(), "same robust API");
    assert_eq!(to_xml(&resumed), to_xml(&full_hinted), "same campaign XML");
    assert_eq!(crash_list(&resumed), crash_list(&full_hinted), "same crash list");

    // Against the unhinted run, the floor removes exactly strlen's cases
    // below rung 3: every other report and crash is unchanged.
    let pruned_rung = |func: &str, key: &CaseKey| {
        func == "strlen" && matches!(key, CaseKey::Ladder { param: 0, rung_idx: 0..3, .. })
    };
    let mut unpruned = crash_list(&full);
    unpruned.retain(|(func, key, _)| !pruned_rung(func, key));
    assert_eq!(crash_list(&resumed), unpruned);
    for (r, f) in resumed.reports.iter().zip(&full.reports) {
        assert_eq!(r.name, f.name);
        assert_eq!(
            r.tests + r.pruned,
            f.tests,
            "{}: pruned cases account for the gap",
            r.name
        );
        assert_eq!(
            (r.residual_failures, r.fully_robust, r.confidence, r.coverage),
            (f.residual_failures, f.fully_robust, f.confidence, f.coverage),
            "{}",
            r.name
        );
        let chosen = |rep: &healers::injector::FunctionReport| -> Vec<String> {
            rep.params.iter().map(|p| p.chosen_name.clone()).collect()
        };
        assert_eq!(chosen(r), chosen(f), "{}", r.name);
        if r.name != "strlen" {
            assert_eq!(r.histogram, f.histogram, "{}", r.name);
        }
    }
}

static FLIP: AtomicUsize = AtomicUsize::new(0);

fn unstable_imp(_p: &mut Proc, _a: &[CVal]) -> Result<CVal, Fault> {
    if FLIP.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
        Err(Fault::Abort { reason: "nondeterministic failure".into() })
    } else {
        Ok(CVal::Int(0))
    }
}

/// Acceptance scenario 2: a target whose classification flips between
/// executions is caught by the outcome quorum and surfaces as the
/// first-class `Flaky` outcome with a `Flaky` confidence annotation —
/// instead of whichever observation happened to come last.
#[test]
fn nondeterministic_target_is_classified_flaky() {
    let table = healers::cdecl::TypedefTable::with_builtins();
    let proto = healers::cdecl::parse_prototype("int unstable(int x);", &table).unwrap();
    let targets = vec![TargetFn { name: "unstable".into(), proto, imp: unstable_imp }];
    let result = run_campaign("libflaky.so.1", &targets, process_factory, &config());

    let report = &result.reports[0];
    let flaky_cases = report.histogram.get(&Outcome::Flaky).copied().unwrap_or(0);
    assert!(flaky_cases > 0, "quorum must expose the disagreement: {report:?}");
    assert_eq!(report.confidence, Confidence::Flaky);
    assert!(result.crashes.iter().any(|c| c.outcome == Outcome::Flaky));

    let f = result.api.function("unstable").unwrap();
    assert_eq!(f.confidence, Confidence::Flaky);
    assert!(f.is_measured(), "flaky is an annotated measurement, not a failure");
    assert!(result.api.to_xml().contains("confidence=\"flaky\""));
}

/// Acceptance scenario 3: when the campaign budget expires the toolkit
/// still emits a partial robust API with confidence/coverage
/// annotations, and wrapper generation warns on — or refuses — the
/// functions whose contracts are guesses.
#[test]
fn budget_exhaustion_yields_partial_api_and_wrapper_reacts() {
    let targets = slice(&["strlen", "strcpy"]);
    let limited = CampaignConfig { case_budget: Some(10), ..config() };
    let result = run_campaign("libsimc.so.1", &targets, process_factory, &limited);

    assert!(!result.complete);
    assert_eq!(result.api.functions.len(), 2, "partial API covers every target");
    let partial: Vec<&str> = result
        .api
        .functions
        .iter()
        .filter(|f| f.confidence == Confidence::Partial)
        .map(|f| f.proto.name.as_str())
        .collect();
    assert!(!partial.is_empty());

    let health = healers::profiler::render_robust_api_health(&result.api);
    assert!(health.contains("budget expired"), "{health}");

    // Default policy: enforce the conservative contracts but say so.
    let warn = healers::wrappergen::build_wrapper(
        WrapperKind::Robustness,
        &result.api,
        &WrapperConfig::default(),
    );
    assert!(!warn.warnings.is_empty(), "low confidence must be surfaced");
    for name in &partial {
        assert!(
            warn.warnings.iter().any(|w| w.contains(name)),
            "{name} missing from {:?}",
            warn.warnings
        );
    }

    // Strict policy: refuse to wrap guessed contracts at all.
    let strict =
        WrapperConfig { low_confidence: LowConfidence::Skip, ..WrapperConfig::default() };
    let skip =
        healers::wrappergen::build_wrapper(WrapperKind::Robustness, &result.api, &strict);
    for name in &partial {
        assert!(skip.get(name).is_none(), "{name} must be left unwrapped");
    }
}

fn crashing_harness_imp(_p: &mut Proc, _a: &[CVal]) -> Result<CVal, Fault> {
    panic!("deliberate sandbox death");
}

/// Acceptance scenario 4: repeated abnormal sandbox deaths trip the
/// per-function circuit breaker; the function is marked inconclusive
/// instead of burning the whole campaign, and harness bugs are never
/// persisted to the checkpoint journal (a fixed harness must re-run).
#[test]
fn circuit_breaker_contains_abnormal_sandbox_deaths() {
    let table = healers::cdecl::TypedefTable::with_builtins();
    let proto = healers::cdecl::parse_prototype("int boom(int x);", &table).unwrap();
    let targets = vec![TargetFn { name: "boom".into(), proto, imp: crashing_harness_imp }];
    let journal = CheckpointJournal::new();
    let result = checkpointed("libboom.so.1", &targets, &config(), &journal);

    let report = &result.reports[0];
    let host_bugs = report.histogram.get(&Outcome::HostBug).copied().unwrap_or(0);
    assert_eq!(
        host_bugs,
        config().breaker_threshold,
        "probing stops at the threshold: {report:?}"
    );
    assert_eq!(report.confidence, Confidence::Inconclusive);
    assert!(report.coverage < 1.0);

    let f = result.api.function("boom").unwrap();
    assert_eq!(f.confidence, Confidence::Inconclusive);
    assert!(!f.is_measured());
    assert!(journal.is_empty(), "host bugs are never checkpointed");
}
