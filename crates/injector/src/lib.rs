//! # injector — automated fault injection for HEALERS
//!
//! Implements the paper's §2.2 pipeline (Figure 2): given the prototypes
//! of a shared library's functions, probe each function with a hierarchy
//! of argument types — wild pointers first, progressively better-behaved
//! values — classify every outcome on the CRASH scale, and derive the
//! library's **robust API**: the weakest argument type per parameter for
//! which no robustness failure occurs. A validation pass over argument
//! *combinations* then catches relational failures (`strcpy` with a
//! too-small destination) and escalates to relational types.
//!
//! Every case is replayable ([`replay_cases`]), which is how the test
//! suite and examples demonstrate that generated wrappers contain the
//! very crashes the campaign found.
//!
//! Campaigns are crash-resilient: a durable [`CheckpointJournal`]
//! records every completed case so interrupted runs resume losslessly
//! ([`run_campaign_with`] given a [`CampaignRun`] journal), an outcome
//! quorum re-confirms failures and classifies disagreements as
//! [`Outcome::Flaky`], an adaptive watchdog escalates fuel before
//! calling anything a hang, a per-function circuit breaker contains
//! harness bugs, and wall-clock / case budgets degrade gracefully into a
//! partial robust API with per-function confidence and coverage
//! annotations.
//!
//! ```no_run
//! use injector::{run_campaign, targets_from_simlibc, CampaignConfig};
//! use simlibc::setup::init_process;
//!
//! let targets = targets_from_simlibc();
//! let result = run_campaign("libsimc.so.1", &targets, init_process, &CampaignConfig::default());
//! println!("{}", injector::render_table(&result));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablation;
mod checkpoint;
mod crossthread;
mod outcome;
mod report;
mod sandbox;
mod search;
mod substitution;

pub use ablation::{run_policy_ablation, AblationArm};
pub use checkpoint::{
    encode_case_key, function_fingerprint, hash_case_key, CheckpointError,
    CheckpointJournal, Fnv1a,
};
pub use crossthread::{run_cross_thread_case, run_cross_thread_quorum, CrossThreadFault};
pub use outcome::{classify, Outcome, TestOutcome};
pub use report::{render_table, to_xml};
pub use sandbox::{
    case_seed, materialize, run_case, value_count, CaseKey, Dispatch, ProcFactory,
};
pub use search::{
    replay_case, replay_cases, run_campaign, run_campaign_with, targets_from_simlibc,
    targets_from_simmath, CampaignConfig, CampaignResult, CampaignRun, CrashCase,
    FunctionReport, NamedDispatch, ParamResult, ReplaySummary, TargetFn,
};
pub use substitution::{
    run_substitution_trial, Divergence, SubstitutionArms, SubstitutionSummary,
};
