//! Property tests for the checkpoint journal: a campaign killed after an
//! arbitrary number of executed cases and resumed from its journal must
//! converge on exactly the uninterrupted result, and fingerprint changes
//! must invalidate precisely the function they belong to.

use injector::{
    run_campaign, run_campaign_with, targets_from_simlibc, to_xml, CampaignConfig,
    CampaignResult, CampaignRun, CheckpointJournal, TargetFn,
};
use proptest::prelude::*;
use simlibc::setup::init_process;

fn slice(names: &[&str]) -> Vec<TargetFn> {
    targets_from_simlibc()
        .into_iter()
        .filter(|t| names.contains(&t.name.as_str()))
        .collect()
}

fn quick_config() -> CampaignConfig {
    CampaignConfig { pair_values: 4, fuel: 300_000, ..CampaignConfig::default() }
}

fn checkpointed(
    targets: &[TargetFn],
    config: &CampaignConfig,
    journal: &CheckpointJournal,
) -> CampaignResult {
    let run = CampaignRun { journal: Some(journal), ..CampaignRun::default() };
    run_campaign_with("l", targets, init_process, config, &run)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    /// Kill the campaign after an arbitrary number of executed cases
    /// (the budget), resume from the serialised journal, repeat until it
    /// completes: the result must be indistinguishable from a run that
    /// was never interrupted.
    #[test]
    fn kill_at_arbitrary_case_then_resume_is_lossless(budget in 5u64..80) {
        let targets = slice(&["strlen", "isalpha"]);
        let full = run_campaign("l", &targets, init_process, &quick_config());
        prop_assert!(full.complete);

        let limited =
            CampaignConfig { case_budget: Some(budget), ..quick_config() };
        let mut journal = CheckpointJournal::new();
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            prop_assert!(rounds < 1000, "must converge");
            let r = checkpointed(&targets, &limited, &journal);
            if r.complete {
                prop_assert_eq!(r.api.to_xml(), full.api.to_xml());
                prop_assert_eq!(to_xml(&r), to_xml(&full));
                break;
            }
            // The kill: only the durable text survives to the next run.
            journal = CheckpointJournal::from_text(&journal.to_text())
                .expect("journal text roundtrip");
        }
    }
}

/// Changing one function's prototype changes its fingerprint and
/// invalidates exactly that function's cached cases — the other
/// functions replay entirely from the journal.
#[test]
fn changed_prototype_invalidates_only_that_function() {
    let mut targets = slice(&["strlen", "isalpha"]);
    let config = quick_config();
    let journal = CheckpointJournal::new();
    let first = checkpointed(&targets, &config, &journal);
    assert_eq!(first.checkpoint_hits(), 0);

    // A "new release" ships strlen with a changed prototype.
    let table = cdecl::TypedefTable::with_builtins();
    let idx = targets.iter().position(|t| t.name == "strlen").unwrap();
    targets[idx].proto = cdecl::parse_prototype("size_t strlen(char *s);", &table).unwrap();

    let second = checkpointed(&targets, &config, &journal);
    for report in &second.reports {
        if report.name == "strlen" {
            assert_eq!(
                report.checkpoint_hits, 0,
                "changed prototype must invalidate the cache"
            );
            assert!(report.tests > 0);
        } else {
            assert_eq!(
                report.tests - report.checkpoint_hits,
                0,
                "{}: untouched functions replay from the journal",
                report.name
            );
        }
    }
}

/// A different campaign seed is a different fingerprint: nothing cached
/// under the old seed is reused.
#[test]
fn changed_seed_misses_the_cache() {
    let targets = slice(&["isalpha"]);
    let journal = CheckpointJournal::new();
    let config = quick_config();
    checkpointed(&targets, &config, &journal);
    let reseeded = CampaignConfig { seed: 7, ..quick_config() };
    let second = checkpointed(&targets, &reseeded, &journal);
    assert_eq!(second.checkpoint_hits(), 0);
}
