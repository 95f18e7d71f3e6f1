//! Substitution-trial replay: the same recorded crash cases, the same
//! seeded argument ladders, replayed through the *detecting* wrapper
//! (canary + terminate) and the *substituting* wrapper (safer variants
//! clipped to the oracle's exact extent), so the prevented-vs-detected
//! claim is measured on identical inputs.
//!
//! The trial also carries the soundness gate: every case is replayed
//! through an unsubstituted reference arm, and any case the reference
//! *passes* must produce the identical `(outcome, return, errno)` triple
//! through the substitute — a substitution that changes in-contract
//! behaviour is unsound no matter how many overflows it prevents, and
//! CI fails on a single divergence.
//!
//! Deterministic like the policy ablation: cases replay through
//! [`replay_case`], per-case seeds come from
//! [`case_seed`](crate::case_seed), rows land in a `BTreeMap`, and two
//! same-seed runs return byte-identical rows (and byte-identical
//! rendered reports).

use std::collections::BTreeMap;
use std::fmt;

use profiler::SubstitutionLine;

use crate::outcome::{Outcome, TestOutcome};
use crate::sandbox::ProcFactory;
use crate::search::{replay_case, CampaignConfig, CrashCase, NamedDispatch, TargetFn};

/// The three dispatch arms of a substitution trial.
pub struct SubstitutionArms<'a> {
    /// The detecting wrapper — typically the security wrapper, which
    /// terminates on canary smash / refused writes.
    pub detect: NamedDispatch<'a>,
    /// The substituting wrapper backed by proven plans.
    pub substitute: NamedDispatch<'a>,
    /// The unsubstituted reference the divergence gate compares against
    /// — usually the same dispatch as `detect`.
    pub reference: NamedDispatch<'a>,
    /// Counter of journaled `prevented` events in the substitute arm,
    /// sampled before and after each case: a survival that moved the
    /// counter is a prevented overflow, not a mere pass.
    pub prevented_probe: &'a mut dyn FnMut() -> u64,
}

impl fmt::Debug for SubstitutionArms<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubstitutionArms").finish_non_exhaustive()
    }
}

/// One same-seed behaviour divergence — reference passed, substitute
/// answered differently. Any entry fails the soundness gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Function the case targeted.
    pub func: String,
    /// What the unsubstituted reference did.
    pub reference: TestOutcome,
    /// What the substitute did instead.
    pub substitute: TestOutcome,
}

/// The trial result: per-function rows plus the divergence list.
#[derive(Debug, Clone, PartialEq)]
pub struct SubstitutionSummary {
    /// One row per function, sorted by name.
    pub lines: Vec<SubstitutionLine>,
    /// Every same-seed divergence found (must be empty for a sound
    /// substitution).
    pub divergences: Vec<Divergence>,
}

/// Replays `cases` through all three arms and returns the
/// prevented-vs-detected rows plus the divergence list.
pub fn run_substitution_trial(
    cases: &[CrashCase],
    targets: &[TargetFn],
    factory: ProcFactory,
    config: &CampaignConfig,
    arms: &mut SubstitutionArms<'_>,
) -> SubstitutionSummary {
    let mut rows: BTreeMap<String, SubstitutionLine> = BTreeMap::new();
    let mut divergences = Vec::new();
    for case in cases {
        let Some(det) = replay_case(case, targets, factory, config, &mut *arms.detect)
        else {
            continue;
        };
        let before = (arms.prevented_probe)();
        let sub = replay_case(case, targets, factory, config, &mut *arms.substitute);
        let after = (arms.prevented_probe)();
        let reference = replay_case(case, targets, factory, config, &mut *arms.reference);
        let (Some(sub), Some(reference)) = (sub, reference) else { continue };

        let row = rows.entry(case.func.clone()).or_insert_with(|| SubstitutionLine {
            func: case.func.clone(),
            replayed: 0,
            detected: 0,
            prevented: 0,
            survived: 0,
            diverged: 0,
        });
        row.replayed += 1;
        // Detection = the unsubstituted security wrapper refused or
        // terminated the call (canary smash / rejected write).
        if det.outcome == Outcome::Contained {
            row.detected += 1;
        }
        match sub.outcome {
            Outcome::Pass | Outcome::GracefulError => {
                row.survived += 1;
                if after > before {
                    row.prevented += 1;
                }
            }
            _ => {}
        }
        // Soundness gate: on cases the reference passes, the substitute
        // must be observationally identical.
        if reference.outcome == Outcome::Pass
            && (sub.outcome, &sub.ret, sub.errno)
                != (reference.outcome, &reference.ret, reference.errno)
        {
            row.diverged += 1;
            divergences.push(Divergence {
                func: case.func.clone(),
                reference: reference.clone(),
                substitute: sub.clone(),
            });
        }
    }
    SubstitutionSummary { lines: rows.into_values().collect(), divergences }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlibc::setup::init_process;
    use simproc::{CVal, Fault, Proc};
    use typelattice::{ExtentClass, ProofStep, SubstFamily, SubstitutionPlan};
    use wrappergen::{build_wrapper, WrapperConfig, WrapperKind};

    use crate::search::{run_campaign, targets_from_simlibc};

    fn proven_plan(family: SubstFamily) -> SubstitutionPlan {
        SubstitutionPlan {
            func: family.func().into(),
            family,
            dst_arg: 0,
            src_arg: 1,
            dst_extent: ExtentClass::ExactExtent,
            proof: vec![ProofStep {
                obligation: "test fixture".into(),
                discharged_by: "fixture".into(),
            }],
        }
    }

    #[test]
    fn strcpy_overflows_move_from_detected_to_prevented() {
        let targets: Vec<_> =
            targets_from_simlibc().into_iter().filter(|t| t.name == "strcpy").collect();
        let config = CampaignConfig { fuel: 300_000, ..CampaignConfig::default() };
        let result = run_campaign("libsimc.so.1", &targets, init_process, &config);
        assert!(!result.crashes.is_empty(), "strcpy must fail bare");

        let security =
            build_wrapper(WrapperKind::Security, &result.api, &WrapperConfig::default());
        let subst_config = WrapperConfig {
            substitutions: vec![proven_plan(SubstFamily::Strcpy)],
            ..WrapperConfig::default()
        };
        let substitute = build_wrapper(WrapperKind::Substitute, &result.api, &subst_config);
        assert_eq!(substitute.wrapped_names(), vec!["strcpy"]);
        let journal = std::sync::Arc::clone(&substitute.journal);

        let run = || {
            let mut det = |n: &str, p: &mut Proc, a: &[CVal]| -> Result<CVal, Fault> {
                security.get(n).unwrap().call(p, a)
            };
            let mut refr = |n: &str, p: &mut Proc, a: &[CVal]| -> Result<CVal, Fault> {
                security.get(n).unwrap().call(p, a)
            };
            let mut sub = |n: &str, p: &mut Proc, a: &[CVal]| -> Result<CVal, Fault> {
                substitute.get(n).unwrap().call(p, a)
            };
            let mut probe = || {
                journal
                    .snapshot()
                    .iter()
                    .filter(|e| e.action == profiler::HealAction::Prevented)
                    .count() as u64
            };
            let mut arms = SubstitutionArms {
                detect: &mut det,
                substitute: &mut sub,
                reference: &mut refr,
                prevented_probe: &mut probe,
            };
            run_substitution_trial(
                &result.crashes,
                &targets,
                init_process,
                &config,
                &mut arms,
            )
        };

        let s1 = run();
        let s2 = run();
        assert_eq!(s1.lines, s2.lines, "same seed must give identical rows");
        assert!(s1.divergences.is_empty(), "{:?}", s1.divergences);
        let row = &s1.lines[0];
        assert_eq!(row.func, "strcpy");
        assert!(row.detected > 0, "security wrapper must detect overflows: {row:?}");
        assert!(row.prevented > 0, "substitute must prevent overflows: {row:?}");
        assert!(row.survived >= row.prevented, "{row:?}");
        assert_eq!(row.diverged, 0, "{row:?}");
    }
}
