//! Policy-ablation replay: the same recorded crash cases, the same
//! seeded argument ladders, replayed through competing wrapper policies
//! (Terminate vs Heal vs Oblivious) so their availability/corruption
//! trade-off is measured on identical inputs.
//!
//! The injector stays policy-agnostic: each arm is just a labelled
//! [`NamedDispatch`] (typically the front of a generated wrapper
//! library) plus an optional audit probe. The probe is the
//! no-silent-absorption contract's hook — it counts the audit events
//! (oblivious ledger entries, healing-journal records) visible to the
//! caller, sampled before and after every replayed case. A case that
//! survives without moving the counter is charged as an **unaudited
//! escape**, which a deployable failure-oblivious wrapper must never
//! produce.
//!
//! Everything is deterministic in the campaign seed: cases replay
//! serially through [`replay_case`], per-case seeds come from
//! [`case_seed`](crate::case_seed), and rows land in a `BTreeMap`, so
//! two same-seed runs return byte-identical rows.

use std::collections::BTreeMap;
use std::fmt;

use profiler::AblationLine;

use crate::outcome::Outcome;
use crate::sandbox::ProcFactory;
use crate::search::{replay_case, CampaignConfig, CrashCase, NamedDispatch, TargetFn};

/// One policy arm of an ablation study.
pub struct AblationArm<'a> {
    /// Policy label stamped into every row this arm produces (e.g.
    /// `terminate`, `heal`, `oblivious`).
    pub policy: &'a str,
    /// Dispatch for this arm — typically `wrapper.get(name).call(...)`
    /// with a bare-symbol fallback for unwrapped functions.
    pub dispatch: NamedDispatch<'a>,
    /// Optional audit-event counter, sampled before and after each case.
    /// When present, a surviving case that leaves the counter unchanged
    /// is an unaudited escape; when absent, audit accounting is skipped
    /// (the arm's `absorbed_audited`/`unaudited_escapes` stay zero).
    pub probe: Option<&'a mut dyn FnMut() -> u64>,
}

impl fmt::Debug for AblationArm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AblationArm")
            .field("policy", &self.policy)
            .field("probe", &self.probe.is_some())
            .finish_non_exhaustive()
    }
}

/// Replays `cases` through every arm and returns one [`AblationLine`]
/// per (function, policy) — requests survived vs corruption escaped,
/// with audited-absorption accounting where the arm provides a probe.
///
/// Survival means the call returned normally or as a graceful errno
/// error; corruption escape is the Silent class (a "successful" return
/// that broke heap invariants), so `config.detect_silent` should stay
/// on for the comparison to mean anything.
pub fn run_policy_ablation(
    cases: &[CrashCase],
    targets: &[TargetFn],
    factory: ProcFactory,
    config: &CampaignConfig,
    arms: &mut [AblationArm<'_>],
) -> Vec<AblationLine> {
    let mut rows: BTreeMap<(String, String), AblationLine> = BTreeMap::new();
    for arm in arms.iter_mut() {
        for case in cases {
            let before = arm.probe.as_mut().map(|p| p());
            let Some(out) = replay_case(case, targets, factory, config, &mut *arm.dispatch)
            else {
                continue;
            };
            let after = arm.probe.as_mut().map(|p| p());
            let row = rows
                .entry((case.func.clone(), arm.policy.to_string()))
                .or_insert_with(|| AblationLine {
                    func: case.func.clone(),
                    policy: arm.policy.to_string(),
                    replayed: 0,
                    survived: 0,
                    corruption_escaped: 0,
                    absorbed_audited: 0,
                    unaudited_escapes: 0,
                });
            row.replayed += 1;
            match out.outcome {
                Outcome::Pass | Outcome::GracefulError => {
                    row.survived += 1;
                    if let (Some(b), Some(a)) = (before, after) {
                        if a > b {
                            row.absorbed_audited += 1;
                        } else {
                            row.unaudited_escapes += 1;
                        }
                    }
                }
                Outcome::Silent => row.corruption_escaped += 1,
                _ => {}
            }
        }
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlibc::setup::init_process;
    use simproc::{CVal, Fault, Proc};

    use crate::search::{run_campaign, targets_from_simlibc};

    fn strlen_cases() -> (Vec<CrashCase>, Vec<TargetFn>, CampaignConfig) {
        let targets: Vec<_> =
            targets_from_simlibc().into_iter().filter(|t| t.name == "strlen").collect();
        let config = CampaignConfig { fuel: 300_000, ..CampaignConfig::default() };
        let result = run_campaign("libsimc.so.1", &targets, init_process, &config);
        assert!(!result.crashes.is_empty(), "strlen must crash bare");
        (result.crashes, targets, config)
    }

    #[test]
    fn bare_vs_absorbing_arms_diverge_and_rows_are_deterministic() {
        let (cases, targets, config) = strlen_cases();
        let bare = targets[0].imp;
        let mut audited = 0u64;

        let run = |audited: &mut u64| {
            let mut bare_dispatch = move |_n: &str,
                                          p: &mut Proc,
                                          a: &[CVal]|
                  -> Result<CVal, Fault> { bare(p, a) };
            // An "oblivious" stand-in: absorb everything into 0 and
            // bump the audit counter for every absorption.
            let mut absorb = |_n: &str, p: &mut Proc, a: &[CVal]| -> Result<CVal, Fault> {
                match bare(p, a) {
                    Ok(v) => Ok(v),
                    Err(Fault::Exit(n)) => Err(Fault::Exit(n)),
                    Err(_) => {
                        *audited += 1;
                        Ok(CVal::Int(0))
                    }
                }
            };
            let mut arms = [
                AblationArm { policy: "bare", dispatch: &mut bare_dispatch, probe: None },
                AblationArm { policy: "oblivious", dispatch: &mut absorb, probe: None },
            ];
            run_policy_ablation(&cases, &targets, init_process, &config, &mut arms)
        };

        let rows1 = run(&mut audited);
        let rows2 = run(&mut audited);
        assert_eq!(rows1, rows2, "same seed must give identical rows");
        assert!(audited > 0, "the absorbing arm must have absorbed something");

        let find = |rows: &[AblationLine], policy: &str| -> AblationLine {
            rows.iter().find(|r| r.policy == policy).unwrap().clone()
        };
        let bare_row = find(&rows1, "bare");
        let obl_row = find(&rows1, "oblivious");
        assert_eq!(bare_row.replayed, obl_row.replayed);
        assert!(
            obl_row.survived > bare_row.survived,
            "absorption must survive more: {obl_row:?} vs {bare_row:?}"
        );
    }

    #[test]
    fn probe_separates_audited_absorption_from_unaudited_escape() {
        let (cases, targets, config) = strlen_cases();
        let bare = targets[0].imp;

        // Arm A absorbs and audits; arm B absorbs silently. The probe
        // charges B's survivals as unaudited escapes.
        let counter = std::cell::Cell::new(0u64);
        let mut audited_absorb =
            |_n: &str, p: &mut Proc, a: &[CVal]| -> Result<CVal, Fault> {
                bare(p, a).or_else(|_| {
                    counter.set(counter.get() + 1);
                    Ok(CVal::Int(0))
                })
            };
        let mut silent_absorb =
            |_n: &str, p: &mut Proc, a: &[CVal]| -> Result<CVal, Fault> {
                bare(p, a).or(Ok(CVal::Int(0)))
            };
        let mut probe_a = || counter.get();
        let mut probe_b = || 0u64;
        let mut arms = [
            AblationArm {
                policy: "audited",
                dispatch: &mut audited_absorb,
                probe: Some(&mut probe_a),
            },
            AblationArm {
                policy: "silent",
                dispatch: &mut silent_absorb,
                probe: Some(&mut probe_b),
            },
        ];
        let rows = run_policy_ablation(&cases, &targets, init_process, &config, &mut arms);
        let audited = rows.iter().find(|r| r.policy == "audited").unwrap();
        let silent = rows.iter().find(|r| r.policy == "silent").unwrap();
        assert!(audited.survived > 0);
        assert_eq!(audited.unaudited_escapes, 0, "{audited:?}");
        assert_eq!(audited.absorbed_audited, audited.survived, "{audited:?}");
        assert_eq!(silent.absorbed_audited, 0, "{silent:?}");
        assert_eq!(silent.unaudited_escapes, silent.survived, "{silent:?}");
        assert!(silent.unaudited_escapes > 0, "{silent:?}");
    }
}
