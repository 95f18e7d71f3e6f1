//! The campaign engine: the weakest-robust-type search of Figure 2,
//! hardened by the campaign resilience layer — checkpointed resume,
//! outcome quorum, adaptive hang watchdog, a per-function circuit
//! breaker, and graceful degradation under a wall-clock/case budget.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cdecl::Prototype;
use simproc::{CVal, Fault, HostFn, Proc};
use typelattice::{
    plan, Confidence, LadderHints, ParamPlan, RobustApi, RobustFunction, SafePred,
};

use crate::checkpoint::{function_fingerprint, CheckpointJournal};
use crate::outcome::{Outcome, TestOutcome};
use crate::sandbox::{
    case_seed, materialize, quorum, run_case, value_count, CaseKey, Dispatch, ProcFactory,
};

/// A function under test.
#[derive(Debug, Clone)]
pub struct TargetFn {
    /// Symbol name.
    pub name: String,
    /// Parsed prototype.
    pub proto: Prototype,
    /// Host implementation.
    pub imp: HostFn,
}

/// All of `libsimc.so.1` as campaign targets.
pub fn targets_from_simlibc() -> Vec<TargetFn> {
    simlibc::symbols()
        .iter()
        .zip(simlibc::prototypes())
        .map(|(s, proto)| TargetFn { name: s.name.to_string(), proto, imp: s.imp })
        .collect()
}

/// The math library as campaign targets.
pub fn targets_from_simmath() -> Vec<TargetFn> {
    let table = cdecl::TypedefTable::with_builtins();
    simlibc::math::math_symbols()
        .iter()
        .map(|s| TargetFn {
            name: s.name.to_string(),
            proto: cdecl::parse_prototype(s.proto, &table).expect("math proto"),
            imp: s.imp,
        })
        .collect()
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base RNG seed — everything downstream is deterministic in it.
    pub seed: u64,
    /// Fuel budget per call (the hang watchdog's starting point).
    pub fuel: u64,
    /// Cap on value indices per parameter in the pairwise validation
    /// phase (bounds the cross product).
    pub pair_values: usize,
    /// Symbols excluded from injection (process-terminating by contract).
    pub skip: Vec<String>,
    /// Detect Silent failures (heap-metadata corruption after a
    /// "successful" call). Disable to ablate: without it, in-arena
    /// overflows look like passes and relational types are never derived.
    pub detect_silent: bool,
    /// Run the pairwise validation phase. Disable to ablate: without it,
    /// per-parameter search misses relational failures entirely.
    pub validate_pairs: bool,
    /// Outcome-quorum retries: a case classified as a (non-hang)
    /// robustness failure is re-executed this many times, with
    /// geometrically growing fuel; if any retry classifies differently
    /// the case becomes [`Outcome::Flaky`] instead of letting the last
    /// observation win. `0` disables the quorum pass.
    pub quorum: usize,
    /// Adaptive hang watchdog: on [`Outcome::Hang`], the fuel budget is
    /// doubled repeatedly up to `fuel * watchdog_max_fuel_factor` before
    /// the hang classification sticks — separating genuinely divergent
    /// calls from merely slow ones. `1` disables escalation.
    pub watchdog_max_fuel_factor: u64,
    /// Per-function circuit breaker: after this many abnormal sandbox
    /// deaths ([`Outcome::HostBug`]) the function's remaining rungs are
    /// marked inconclusive instead of poisoning the robust API. `0`
    /// disables the breaker.
    pub breaker_threshold: usize,
    /// Graceful-degradation budget: maximum number of *executed* cases
    /// (checkpoint hits are free) across the whole campaign. When
    /// exhausted, the campaign emits a partial robust API with
    /// per-function confidence/coverage annotations.
    pub case_budget: Option<u64>,
    /// Graceful-degradation budget: wall-clock limit for the whole
    /// campaign. Same partial-result semantics as `case_budget`.
    pub time_budget: Option<Duration>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2003,
            fuel: simproc::DEFAULT_CALL_FUEL,
            pair_values: 8,
            skip: vec!["exit".into(), "abort".into()],
            detect_silent: true,
            validate_pairs: true,
            quorum: 1,
            watchdog_max_fuel_factor: 8,
            breaker_threshold: 3,
            case_budget: None,
            time_budget: None,
        }
    }
}

/// One recorded robustness failure.
#[derive(Debug, Clone)]
pub struct CrashCase {
    /// Function name.
    pub func: String,
    /// Replay key.
    pub key: CaseKey,
    /// What happened.
    pub outcome: Outcome,
    /// Fault detail, when present. Cases replayed from a checkpoint
    /// journal carry only the classification (`None` here).
    pub fault: Option<Fault>,
}

/// Per-parameter search result.
#[derive(Debug, Clone)]
pub struct ParamResult {
    /// Rung finally chosen (index into the ladder).
    pub chosen: usize,
    /// Name of the chosen rung.
    pub chosen_name: String,
    /// `(rung name, failures observed)` for every rung tried.
    pub tried: Vec<(String, usize)>,
    /// Injection cases skipped because a high-confidence static contract
    /// already settled the rungs below the hinted floor (see
    /// [`LadderHints`]). Zero in unhinted runs.
    pub pruned: usize,
}

/// Per-function campaign report.
#[derive(Debug, Clone)]
pub struct FunctionReport {
    /// Function name.
    pub name: String,
    /// Pretty prototype.
    pub proto: String,
    /// Number of judged cases (checkpoint replays included).
    pub tests: usize,
    /// Outcome histogram over all judged cases.
    pub histogram: BTreeMap<Outcome, usize>,
    /// Per-parameter results.
    pub params: Vec<ParamResult>,
    /// Failures remaining after the final validation pass.
    pub residual_failures: usize,
    /// `true` when no rung combination contained every failure.
    pub fully_robust: bool,
    /// `true` when the function was excluded from injection.
    pub skipped: bool,
    /// How trustworthy the derived contract is.
    pub confidence: Confidence,
    /// Fraction of the planned probe work that executed (ladder climbs
    /// plus the validation phase).
    pub coverage: f64,
    /// Extra executions spent by the quorum pass and the hang watchdog.
    pub retries: usize,
    /// Cases satisfied from the checkpoint journal instead of executing.
    pub checkpoint_hits: usize,
    /// Injection cases skipped across all parameters because static
    /// contracts pre-seeded the ladder floors. Zero in unhinted runs.
    pub pruned: usize,
}

/// The whole campaign's output.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Library name.
    pub library: String,
    /// Per-function reports.
    pub reports: Vec<FunctionReport>,
    /// The derived robust API (input to wrapper generation).
    pub api: RobustApi,
    /// Every robustness failure observed, replayable.
    pub crashes: Vec<CrashCase>,
    /// `false` when the campaign budget expired before every function
    /// was fully probed — the robust API is partial and per-function
    /// confidence/coverage annotations say where.
    pub complete: bool,
    /// Per-worker throughput/outcome rows, one per worker (one for a
    /// single-thread run). Which worker claimed which function is
    /// scheduling-dependent, so these rows are deliberately kept out of
    /// the deterministic campaign XML; render them with
    /// [`profiler::render_worker_report`].
    pub worker_metrics: Vec<profiler::WorkerLine>,
}

impl CampaignResult {
    /// Total judged cases (checkpoint replays included).
    pub fn total_tests(&self) -> usize {
        self.reports.iter().map(|r| r.tests).sum()
    }

    /// Total robustness failures observed (pre-wrapper).
    pub fn total_failures(&self) -> usize {
        self.crashes.len()
    }

    /// Cases answered from the checkpoint journal instead of executing.
    pub fn checkpoint_hits(&self) -> usize {
        self.reports.iter().map(|r| r.checkpoint_hits).sum()
    }

    /// Cases actually executed in sandboxes this run (excluding quorum
    /// and watchdog retries).
    pub fn executed_cases(&self) -> usize {
        self.total_tests() - self.checkpoint_hits()
    }

    /// Extra executions spent by quorum confirmation and the hang
    /// watchdog across all functions.
    pub fn total_retries(&self) -> usize {
        self.reports.iter().map(|r| r.retries).sum()
    }

    /// Injection cases skipped campaign-wide thanks to contract
    /// pre-seeded ladder floors ([`LadderHints`]).
    pub fn total_pruned(&self) -> usize {
        self.reports.iter().map(|r| r.pruned).sum()
    }
}

/// Shared budget accounting for one campaign run. Checkpoint hits are
/// never charged, so a resumed campaign spends its budget exclusively on
/// new work.
#[derive(Debug)]
struct BudgetClock {
    case_budget: Option<u64>,
    deadline: Option<Instant>,
    spent: AtomicU64,
    exhausted: AtomicBool,
}

impl BudgetClock {
    fn new(config: &CampaignConfig) -> Self {
        BudgetClock {
            case_budget: config.case_budget,
            deadline: config.time_budget.map(|d| Instant::now() + d),
            spent: AtomicU64::new(0),
            exhausted: AtomicBool::new(false),
        }
    }

    /// Charges one executed case; `false` once the budget is gone.
    fn charge(&self) -> bool {
        if self.exhausted.load(Ordering::Acquire) {
            return false;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.exhausted.store(true, Ordering::Release);
                return false;
            }
        }
        let spent = self.spent.fetch_add(1, Ordering::AcqRel);
        if let Some(max) = self.case_budget {
            if spent >= max {
                self.exhausted.store(true, Ordering::Release);
                return false;
            }
        }
        true
    }

    fn is_exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Acquire)
    }
}

/// Per-function execution telemetry.
#[derive(Debug, Default)]
struct CaseTally {
    hits: usize,
    retries: usize,
}

/// Why a function's search stopped before its natural end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The campaign budget expired mid-search.
    Budget,
    /// The circuit breaker opened after repeated abnormal sandbox deaths.
    Breaker,
}

/// Everything a single function search needs from the campaign run.
struct SearchCx<'a> {
    config: &'a CampaignConfig,
    factory: ProcFactory,
    journal: &'a CheckpointJournal,
    budget: &'a BudgetClock,
    /// Contract-derived ladder floors; `None` (or empty) means the climb
    /// starts from the weakest rung everywhere, exactly the classic
    /// search. Floors never enter the function fingerprint or the case
    /// seeds, so hinted and unhinted runs share checkpoint journals.
    hints: Option<&'a LadderHints>,
}

impl SearchCx<'_> {
    /// Runs one case through the full resilience funnel: checkpoint
    /// lookup → sandbox execution → adaptive hang watchdog → outcome
    /// quorum → journal record. Returns `None` when the campaign budget
    /// is exhausted (the case did not run).
    fn judge(
        &self,
        fingerprint: u64,
        func: &str,
        plans: &[ParamPlan],
        key: &CaseKey,
        call: Dispatch<'_>,
        tally: &mut CaseTally,
    ) -> Option<TestOutcome> {
        if let Some(outcome) = self.journal.lookup(fingerprint, key) {
            tally.hits += 1;
            return Some(TestOutcome { outcome, fault: None, errno: 0, ret: None });
        }
        if !self.budget.charge() {
            return None;
        }
        let config = self.config;
        let seed = case_seed(config.seed, func, key);
        let mut run = |fuel| {
            run_case(self.factory, plans, key, seed, fuel, config.detect_silent, &mut *call)
        };
        let mut out = run(config.fuel);

        // Adaptive watchdog: escalate the fuel budget geometrically up
        // to the deadline before letting a Hang classification stick.
        let max_fuel = config.fuel.saturating_mul(config.watchdog_max_fuel_factor.max(1));
        let mut settled_fuel = config.fuel;
        while out.outcome == Outcome::Hang && settled_fuel < max_fuel {
            settled_fuel = settled_fuel.saturating_mul(2).min(max_fuel);
            tally.retries += 1;
            out = run(settled_fuel);
        }

        // Outcome quorum, with fuel backoff from where the watchdog
        // settled.
        let out = quorum(out, config.quorum, settled_fuel, |fuel| {
            tally.retries += 1;
            run(fuel)
        });

        // Host bugs are defects of the harness, not observations about
        // the library — never checkpoint them (a fixed host should
        // re-execute).
        if out.outcome != Outcome::HostBug {
            self.journal.record(fingerprint, key, out.outcome);
        }
        Some(out)
    }
}

/// The report + contract for a function on the skip list.
fn skipped_entry(target: &TargetFn) -> (FunctionReport, RobustFunction, Vec<CrashCase>) {
    (
        FunctionReport {
            name: target.name.clone(),
            proto: target.proto.to_string(),
            tests: 0,
            histogram: BTreeMap::new(),
            params: Vec::new(),
            residual_failures: 0,
            fully_robust: true,
            skipped: true,
            confidence: Confidence::High,
            coverage: 1.0,
            retries: 0,
            checkpoint_hits: 0,
            pruned: 0,
        },
        RobustFunction::trivial(target.proto.clone()),
        Vec::new(),
    )
}

/// The report + contract for a function the budget never reached: the
/// strongest candidate type per parameter (a conservative guess the
/// wrapper layer can refuse or warn on), zero coverage, `Partial`
/// confidence.
fn unprobed_entry(target: &TargetFn) -> (FunctionReport, RobustFunction, Vec<CrashCase>) {
    let plans = plan(&target.proto);
    let params: Vec<ParamResult> = plans
        .iter()
        .map(|p| ParamResult {
            chosen: p.ladder.len() - 1,
            chosen_name: p.ladder.last().expect("non-empty ladder").name.clone(),
            tried: Vec::new(),
            pruned: 0,
        })
        .collect();
    let preds: Vec<SafePred> = plans
        .iter()
        .map(|p| p.ladder.last().expect("non-empty ladder").pred.clone())
        .collect();
    let mut robust = RobustFunction::new(target.proto.clone(), preds, false);
    robust.confidence = Confidence::Partial;
    robust.coverage = 0.0;
    (
        FunctionReport {
            name: target.name.clone(),
            proto: target.proto.to_string(),
            tests: 0,
            histogram: BTreeMap::new(),
            params,
            residual_failures: 0,
            fully_robust: false,
            skipped: false,
            confidence: Confidence::Partial,
            coverage: 0.0,
            retries: 0,
            checkpoint_hits: 0,
            pruned: 0,
        },
        robust,
        Vec::new(),
    )
}

fn function_entry(
    cx: &SearchCx<'_>,
    target: &TargetFn,
) -> (FunctionReport, RobustFunction, Vec<CrashCase>) {
    if cx.config.skip.iter().any(|s| s == &target.name) {
        skipped_entry(target)
    } else if cx.budget.is_exhausted() {
        unprobed_entry(target)
    } else {
        search_function(cx, target)
    }
}

/// How a campaign runs, beyond what it probes: where completed cases
/// are checkpointed, which ladder floors seed the climb, and how many
/// threads share the work. The default is what [`run_campaign`] does: a
/// journal kept for this run only, no hints, one thread.
#[derive(Debug, Clone, Copy)]
pub struct CampaignRun<'a> {
    /// Durable checkpoint journal. Every completed case's classification
    /// is recorded in it, and cases already recorded (same function,
    /// prototype, ladder and seed) are answered from it instead of
    /// executing, so an interrupted or budget-limited campaign resumed
    /// with the same journal picks up where it stopped and converges on
    /// the uninterrupted result. The journal is internally synchronised;
    /// `None` keeps one for this run only.
    pub journal: Option<&'a CheckpointJournal>,
    /// Contract-derived ladder floors: each hinted parameter's climb
    /// starts at its floor rung, and the cases the floor made unnecessary
    /// are counted as `pruned` instead of executing. Floors are advisory
    /// (one beyond the ladder is clamped), and because they change only
    /// where the climb starts, never the plans, case keys or seeds, sound
    /// floors yield the unhinted robust API with fewer injected calls and
    /// hinted and unhinted runs share journals.
    pub hints: Option<&'a LadderHints>,
    /// Workers claiming one function at a time (`0` counts as `1`).
    /// Worker 0 is the calling thread, so a one-thread run spawns
    /// nothing. Results do not depend on the count: every case is
    /// deterministic in the seed and each function's search is
    /// independent. Only wall-clock time changes, the "group of high-end
    /// PCs" economics of §2.2 on one machine. With a budget set, which
    /// cases execute before it runs out depends on scheduling, but the
    /// journal only accumulates deterministic classifications, so resumed
    /// runs still converge.
    pub threads: usize,
}

impl Default for CampaignRun<'_> {
    fn default() -> Self {
        CampaignRun { journal: None, hints: None, threads: 1 }
    }
}

/// Runs the fault-injection campaign over `targets`, deriving the robust
/// API of the library: [`run_campaign_with`] on the calling thread, with
/// no hints and no journal kept across calls.
pub fn run_campaign(
    library: &str,
    targets: &[TargetFn],
    factory: ProcFactory,
    config: &CampaignConfig,
) -> CampaignResult {
    run_campaign_with(library, targets, factory, config, &CampaignRun::default())
}

/// Runs the fault-injection campaign over `targets` as `run` says:
/// checkpointed, hinted and fanned out across threads in any
/// combination. Every run reports one [`profiler::WorkerLine`] per
/// worker.
pub fn run_campaign_with(
    library: &str,
    targets: &[TargetFn],
    factory: ProcFactory,
    config: &CampaignConfig,
    run: &CampaignRun<'_>,
) -> CampaignResult {
    let private;
    let journal = match run.journal {
        Some(journal) => journal,
        None => {
            private = CheckpointJournal::new();
            &private
        }
    };
    let budget = BudgetClock::new(config);
    let cx = SearchCx { config, factory, journal, budget: &budget, hints: run.hints };
    let next = AtomicUsize::new(0);
    let work = |w: usize| {
        let started = Instant::now();
        let mut line = profiler::WorkerLine {
            worker: format!("worker-{w}"),
            functions: 0,
            executed: 0,
            checkpoint_hits: 0,
            retries: 0,
            failures: 0,
            elapsed_micros: 0,
        };
        let mut claimed = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(target) = targets.get(i) else { break };
            let entry = function_entry(&cx, target);
            line.functions += 1;
            line.executed += entry.0.tests - entry.0.checkpoint_hits;
            line.checkpoint_hits += entry.0.checkpoint_hits;
            line.retries += entry.0.retries;
            line.failures += entry.2.len();
            claimed.push((i, entry));
        }
        line.elapsed_micros = started.elapsed().as_micros() as u64;
        (line, claimed)
    };
    let workers = std::thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> =
            (1..run.threads.max(1)).map(|w| scope.spawn(move || work(w))).collect();
        let mut workers = vec![work(0)];
        for handle in spawned {
            workers.push(handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        workers
    });

    let mut worker_metrics = Vec::with_capacity(workers.len());
    let mut entries = Vec::with_capacity(targets.len());
    for (line, mut claimed) in workers {
        worker_metrics.push(line);
        entries.append(&mut claimed);
    }
    entries.sort_unstable_by_key(|&(i, _)| i);
    let mut reports = Vec::with_capacity(targets.len());
    let mut functions = Vec::with_capacity(targets.len());
    let mut crashes = Vec::new();
    for (_, (report, robust, mut cases)) in entries {
        reports.push(report);
        functions.push(robust);
        crashes.append(&mut cases);
    }
    CampaignResult {
        library: library.to_string(),
        reports,
        api: RobustApi { library: library.to_string(), functions },
        crashes,
        complete: !budget.is_exhausted(),
        worker_metrics,
    }
}

fn record(histogram: &mut BTreeMap<Outcome, usize>, outcome: Outcome) {
    *histogram.entry(outcome).or_insert(0) += 1;
}

/// Whether a combo's materialised arguments jointly satisfy the chosen
/// predicates (evaluated with the allocation-aware oracle, like the
/// wrapper will).
fn combo_in_contract(
    factory: ProcFactory,
    plans: &[ParamPlan],
    chosen: &[usize],
    key: &CaseKey,
    seed: u64,
) -> bool {
    let mut proc = factory();
    let args = materialize(&mut proc, plans, key, seed);
    let oracle = simlibc::heap::HeapOracle::new();
    plans
        .iter()
        .enumerate()
        .all(|(i, p)| p.ladder[chosen[i]].pred.check(&proc, &oracle, &args, i))
}

fn search_function(
    cx: &SearchCx<'_>,
    target: &TargetFn,
) -> (FunctionReport, RobustFunction, Vec<CrashCase>) {
    let config = cx.config;
    let plans = plan(&target.proto);
    let fingerprint = function_fingerprint(config, &target.name, &target.proto, &plans);
    let imp = target.imp;
    let mut call = move |p: &mut Proc, a: &[CVal]| imp(p, a);
    let mut histogram = BTreeMap::new();
    let mut tests = 0usize;
    let mut crashes = Vec::new();
    let mut chosen = vec![0usize; plans.len()];
    let mut params = Vec::new();
    let mut tally = CaseTally::default();
    let mut host_bugs = 0usize;
    let mut stop: Option<Stop> = None;
    // Coverage units: one per parameter ladder climb, plus one for the
    // whole pairwise validation phase.
    let units_total = plans.len() + usize::from(config.validate_pairs);
    let mut units_done = 0usize;

    // Phase 1: per-parameter ladder climb (others pinned benign).
    for (i, p) in plans.iter().enumerate() {
        if stop.is_some() {
            // Untouched parameter: keep the strongest (most restrictive)
            // candidate type as a conservative placeholder.
            chosen[i] = p.ladder.len() - 1;
            params.push(ParamResult {
                chosen: chosen[i],
                chosen_name: p.ladder[chosen[i]].name.clone(),
                tried: Vec::new(),
                pruned: 0,
            });
            continue;
        }
        // Contract pre-seeding: a high-confidence static contract settles
        // the rungs below its floor — skip them and account for the cases
        // that would have run (the counts are deterministic in the seed,
        // so hinted campaign reports stay byte-reproducible).
        let floor =
            cx.hints.map(|h| h.floor(&target.name, i)).unwrap_or(0).min(p.ladder.len() - 1);
        let mut pruned = 0usize;
        for r in 0..floor {
            let probe_key = CaseKey::Ladder { param: i, rung_idx: r, value_idx: 0 };
            pruned += value_count(
                cx.factory,
                &plans,
                i,
                r,
                case_seed(config.seed, &target.name, &probe_key),
            );
        }
        let mut tried = Vec::new();
        let mut picked = p.ladder.len() - 1;
        'ladder: for (r, rung) in p.ladder.iter().enumerate().skip(floor) {
            let mut failures = 0usize;
            let probe_key = CaseKey::Ladder { param: i, rung_idx: r, value_idx: 0 };
            let n = value_count(
                cx.factory,
                &plans,
                i,
                r,
                case_seed(config.seed, &target.name, &probe_key),
            );
            for k in 0..n {
                let key = CaseKey::Ladder { param: i, rung_idx: r, value_idx: k };
                let Some(out) = cx.judge(
                    fingerprint,
                    &target.name,
                    &plans,
                    &key,
                    &mut call,
                    &mut tally,
                ) else {
                    stop = Some(Stop::Budget);
                    tried.push((rung.name.clone(), failures));
                    break 'ladder;
                };
                tests += 1;
                record(&mut histogram, out.outcome);
                if out.outcome == Outcome::HostBug {
                    host_bugs += 1;
                    if config.breaker_threshold > 0 && host_bugs >= config.breaker_threshold
                    {
                        stop = Some(Stop::Breaker);
                        tried.push((rung.name.clone(), failures));
                        break 'ladder;
                    }
                }
                if out.outcome.is_failure() {
                    failures += 1;
                    crashes.push(CrashCase {
                        func: target.name.clone(),
                        key,
                        outcome: out.outcome,
                        fault: out.fault,
                    });
                }
            }
            if stop.is_some() {
                break;
            }
            tried.push((rung.name.clone(), failures));
            if failures == 0 {
                picked = r;
                break;
            }
        }
        chosen[i] = picked;
        params.push(ParamResult {
            chosen: picked,
            chosen_name: plans[i].ladder[picked].name.clone(),
            tried,
            pruned,
        });
        if stop.is_none() {
            units_done += 1;
        }
    }

    // Phase 2: pairwise validation at the chosen rungs, escalating on
    // residual failures (catches relational failures the per-parameter
    // pass cannot see, e.g. strcpy(small_dst, long_src)). Combinations
    // that jointly violate the chosen predicates are skipped: the
    // wrapper will reject those, so they are out of contract.
    let max_escalations: usize = if config.validate_pairs && stop.is_none() {
        plans.iter().map(|p| p.ladder.len()).sum()
    } else {
        0
    };
    // Generator output lengths are context-independent; cache them so the
    // pairwise phase does not rebuild a scratch process per (param, rung)
    // per escalation round.
    let mut count_cache: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    let mut residual = 0usize;
    let mut ran_pairs = false;
    'rounds: for _round in 0..=max_escalations {
        if !config.validate_pairs || stop.is_some() {
            break;
        }
        ran_pairs = true;
        residual = 0;
        let mut failing_params: Vec<usize> = Vec::new();
        for i in 0..plans.len() {
            for j in (i + 1)..plans.len() {
                let mut cached_count = |param: usize, rung: usize| {
                    *count_cache.entry((param, rung)).or_insert_with(|| {
                        let key = CaseKey::Ladder { param, rung_idx: rung, value_idx: 0 };
                        value_count(
                            cx.factory,
                            &plans,
                            param,
                            rung,
                            case_seed(config.seed, &target.name, &key),
                        )
                    })
                };
                let ni = cached_count(i, chosen[i]).min(config.pair_values);
                let nj = cached_count(j, chosen[j]).min(config.pair_values);
                for vi in 0..ni {
                    for vj in 0..nj {
                        for j_first in [false, true] {
                            let key = CaseKey::Pair {
                                i,
                                j,
                                vi,
                                vj,
                                j_first,
                                rungs: chosen.clone(),
                            };
                            let seed = case_seed(config.seed, &target.name, &key);
                            if !combo_in_contract(cx.factory, &plans, &chosen, &key, seed) {
                                continue;
                            }
                            let Some(out) = cx.judge(
                                fingerprint,
                                &target.name,
                                &plans,
                                &key,
                                &mut call,
                                &mut tally,
                            ) else {
                                stop = Some(Stop::Budget);
                                break 'rounds;
                            };
                            tests += 1;
                            record(&mut histogram, out.outcome);
                            if out.outcome == Outcome::HostBug {
                                host_bugs += 1;
                                if config.breaker_threshold > 0
                                    && host_bugs >= config.breaker_threshold
                                {
                                    stop = Some(Stop::Breaker);
                                    break 'rounds;
                                }
                            }
                            if out.outcome.is_failure() {
                                residual += 1;
                                failing_params.push(i);
                                failing_params.push(j);
                                crashes.push(CrashCase {
                                    func: target.name.clone(),
                                    key,
                                    outcome: out.outcome,
                                    fault: out.fault,
                                });
                            }
                        }
                    }
                }
            }
        }
        if residual == 0 {
            break;
        }
        // Escalate an implicated parameter that still has headroom.
        let candidate = failing_params
            .iter()
            .copied()
            .find(|&p| chosen[p] + 1 < plans[p].ladder.len())
            .or_else(|| (0..plans.len()).find(|&p| chosen[p] + 1 < plans[p].ladder.len()));
        match candidate {
            Some(p) => chosen[p] += 1,
            None => break,
        }
    }
    if config.validate_pairs && ran_pairs && stop.is_none() {
        units_done += 1;
    }

    // Sync the recorded choices.
    for (i, pr) in params.iter_mut().enumerate() {
        pr.chosen = chosen[i];
        pr.chosen_name = plans[i].ladder[chosen[i]].name.clone();
    }

    let coverage =
        if units_total == 0 { 1.0 } else { units_done as f64 / units_total as f64 };
    let confidence = match stop {
        Some(Stop::Breaker) => Confidence::Inconclusive,
        Some(Stop::Budget) => Confidence::Partial,
        None if histogram.contains_key(&Outcome::Flaky) => Confidence::Flaky,
        None => Confidence::High,
    };
    let fully_robust = residual == 0 && stop.is_none();
    let preds: Vec<SafePred> =
        plans.iter().zip(&chosen).map(|(p, &r)| p.ladder[r].pred.clone()).collect();
    let pruned_total = params.iter().map(|p| p.pruned).sum();
    let report = FunctionReport {
        name: target.name.clone(),
        proto: target.proto.to_string(),
        tests,
        histogram,
        params,
        residual_failures: residual,
        fully_robust,
        skipped: false,
        confidence,
        coverage,
        retries: tally.retries,
        checkpoint_hits: tally.hits,
        pruned: pruned_total,
    };
    let mut robust = RobustFunction::new(target.proto.clone(), preds, fully_robust);
    robust.confidence = confidence;
    robust.coverage = coverage;
    (report, robust, crashes)
}

/// Dispatch shape for replaying by function name — typically the front of
/// a generated wrapper library.
pub type NamedDispatch<'a> =
    &'a mut dyn FnMut(&str, &mut Proc, &[CVal]) -> Result<CVal, Fault>;

/// Replays one recorded crash case through `dispatch`, in a fresh
/// sandbox built exactly as the campaign built it: same plans, same
/// per-case seed, same fuel and Silent detection. `None` when the case's
/// function is not among `targets`.
pub fn replay_case(
    case: &CrashCase,
    targets: &[TargetFn],
    factory: ProcFactory,
    config: &CampaignConfig,
    dispatch: NamedDispatch<'_>,
) -> Option<TestOutcome> {
    let target = targets.iter().find(|t| t.name == case.func)?;
    let plans = plan(&target.proto);
    let seed = case_seed(config.seed, &case.func, &case.key);
    let mut call = |p: &mut Proc, a: &[CVal]| dispatch(&case.func, p, a);
    Some(run_case(
        factory,
        &plans,
        &case.key,
        seed,
        config.fuel,
        config.detect_silent,
        &mut call,
    ))
}

/// Replays recorded crash cases through an arbitrary dispatch (typically
/// a generated wrapper) and reports how many still fail — the
/// before/after comparison of the paper's §3.1 demo.
pub fn replay_cases(
    cases: &[CrashCase],
    targets: &[TargetFn],
    factory: ProcFactory,
    config: &CampaignConfig,
    dispatch: NamedDispatch<'_>,
) -> ReplaySummary {
    let mut still_failing = 0usize;
    let mut contained = 0usize;
    let mut graceful = 0usize;
    let mut by_function: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut histogram: BTreeMap<Outcome, usize> = BTreeMap::new();
    for case in cases {
        let Some(out) = replay_case(case, targets, factory, config, &mut *dispatch) else {
            continue;
        };
        let entry = by_function.entry(case.func.clone()).or_insert((0, 0));
        entry.0 += 1;
        *histogram.entry(out.outcome).or_insert(0) += 1;
        match out.outcome {
            o if o.is_failure() => {
                still_failing += 1;
                entry.1 += 1;
            }
            Outcome::Contained => contained += 1,
            Outcome::GracefulError => graceful += 1,
            _ => {}
        }
    }
    ReplaySummary {
        total: cases.len(),
        still_failing,
        contained,
        graceful,
        by_function,
        histogram,
    }
}

/// Outcome of replaying crash cases through a wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Cases replayed.
    pub total: usize,
    /// Cases that still ended in a robustness failure.
    pub still_failing: usize,
    /// Cases the wrapper deliberately contained/terminated.
    pub contained: usize,
    /// Cases turned into graceful errno errors.
    pub graceful: usize,
    /// Per-function `(replayed, still failing)` breakdown.
    pub by_function: BTreeMap<String, (usize, usize)>,
    /// Full outcome distribution over the replayed cases — the raw
    /// material for comparing wrapper strategies (containment vs healing).
    pub histogram: BTreeMap<Outcome, usize>,
}

impl ReplaySummary {
    /// Functions with uncontained failures, worst first.
    pub fn uncontained(&self) -> Vec<(&str, usize, usize)> {
        let mut v: Vec<_> = self
            .by_function
            .iter()
            .filter(|(_, (_, fail))| *fail > 0)
            .map(|(f, (total, fail))| (f.as_str(), *fail, *total))
            .collect();
        v.sort_by_key(|x| std::cmp::Reverse(x.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlibc::setup::init_process;

    fn single_target(name: &str) -> Vec<TargetFn> {
        targets_from_simlibc().into_iter().filter(|t| t.name == name).collect()
    }

    fn quick_config() -> CampaignConfig {
        CampaignConfig { pair_values: 6, fuel: 300_000, ..CampaignConfig::default() }
    }

    #[test]
    fn strlen_needs_a_cstr() {
        let targets = single_target("strlen");
        let result = run_campaign("libsimc.so.1", &targets, init_process, &quick_config());
        let f = result.api.function("strlen").unwrap();
        assert_eq!(f.preds, vec![SafePred::CStr]);
        assert!(f.fully_robust);
        assert_eq!(f.confidence, Confidence::High);
        assert_eq!(f.coverage, 1.0);
        assert!(result.complete);
        assert!(result.total_failures() > 0, "the bare function must have crashed");
    }

    #[test]
    fn strcpy_derives_relational_contract() {
        let targets = single_target("strcpy");
        let result = run_campaign("libsimc.so.1", &targets, init_process, &quick_config());
        let f = result.api.function("strcpy").unwrap();
        assert!(f.fully_robust, "{:?}", result.reports[0]);
        // dest must be at least strong enough to hold src.
        match &f.preds[0] {
            SafePred::HoldsCStrOf { src: 1 } => {}
            SafePred::NullOr(inner) => {
                assert_eq!(**inner, SafePred::HoldsCStrOf { src: 1 })
            }
            other => panic!("unexpected dest contract: {other:?}"),
        }
        assert_eq!(f.preds[1], SafePred::CStr);
    }

    #[test]
    fn abs_is_robust_for_any_int() {
        let targets = single_target("abs");
        let result = run_campaign("libsimc.so.1", &targets, init_process, &quick_config());
        let f = result.api.function("abs").unwrap();
        assert_eq!(f.preds, vec![SafePred::Always]);
        assert_eq!(result.total_failures(), 0);
    }

    #[test]
    fn isalpha_contract_is_char_range() {
        let targets = single_target("isalpha");
        let result = run_campaign("libsimc.so.1", &targets, init_process, &quick_config());
        let f = result.api.function("isalpha").unwrap();
        assert_eq!(f.preds, vec![SafePred::IntInRange { min: -1, max: 255 }]);
    }

    #[test]
    fn div_requires_nonzero_divisor() {
        let targets = single_target("div");
        let result = run_campaign("libsimc.so.1", &targets, init_process, &quick_config());
        let f = result.api.function("div").unwrap();
        assert_eq!(f.preds[1], SafePred::IntNonZero, "{:?}", result.reports[0].params);
    }

    #[test]
    fn time_keeps_null_permissiveness() {
        let targets = single_target("time");
        let result = run_campaign("libsimc.so.1", &targets, init_process, &quick_config());
        let f = result.api.function("time").unwrap();
        match &f.preds[0] {
            SafePred::NullOr(_) => {}
            other => panic!("time(NULL) must stay legal, got {other:?}"),
        }
    }

    #[test]
    fn skip_list_produces_trivial_contract() {
        let targets = single_target("exit");
        let result = run_campaign("libsimc.so.1", &targets, init_process, &quick_config());
        assert!(result.reports[0].skipped);
        assert!(result.api.function("exit").unwrap().skipped);
        assert_eq!(result.total_tests(), 0);
    }

    #[test]
    fn replay_through_identity_still_fails() {
        let targets = single_target("strlen");
        let config = quick_config();
        let result = run_campaign("libsimc.so.1", &targets, init_process, &config);
        let mut dispatch = |name: &str, p: &mut Proc, a: &[CVal]| {
            let t = simlibc::find_symbol(name).unwrap();
            (t.imp)(p, a)
        };
        let summary =
            replay_cases(&result.crashes, &targets, init_process, &config, &mut dispatch);
        assert_eq!(summary.total, result.crashes.len());
        assert_eq!(
            summary.still_failing, summary.total,
            "identity dispatch contains nothing"
        );
    }

    fn six_targets() -> Vec<TargetFn> {
        targets_from_simlibc()
            .into_iter()
            .filter(|t| {
                ["strlen", "strcpy", "isalpha", "abs", "exit", "memset"]
                    .contains(&t.name.as_str())
            })
            .collect()
    }

    fn threaded(threads: usize) -> CampaignRun<'static> {
        CampaignRun { threads, ..CampaignRun::default() }
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let targets = six_targets();
        let config = quick_config();
        let serial = run_campaign("l", &targets, init_process, &config);
        for threads in [1, 2, 4] {
            let parallel =
                run_campaign_with("l", &targets, init_process, &config, &threaded(threads));
            assert_eq!(serial.total_tests(), parallel.total_tests(), "{threads} threads");
            assert_eq!(
                serial.total_failures(),
                parallel.total_failures(),
                "{threads} threads"
            );
            for (a, b) in serial.reports.iter().zip(&parallel.reports) {
                assert_eq!(a.name, b.name, "order preserved ({threads} threads)");
                assert_eq!(a.histogram, b.histogram, "{} ({threads} threads)", a.name);
                assert_eq!(a.skipped, b.skipped);
                assert_eq!(a.confidence, b.confidence);
                assert_eq!(a.coverage, b.coverage);
            }
            for (a, b) in serial.api.functions.iter().zip(&parallel.api.functions) {
                assert_eq!(a.preds, b.preds, "{} ({threads} threads)", a.proto.name);
            }
        }
    }

    #[test]
    fn worker_metrics_account_for_the_whole_campaign() {
        let targets = six_targets();
        let config = quick_config();
        let serial = run_campaign("l", &targets, init_process, &config);
        assert_eq!(serial.worker_metrics.len(), 1, "a one-thread run has one worker");
        assert_eq!(serial.worker_metrics[0].worker, "worker-0");
        assert_eq!(serial.worker_metrics[0].functions, targets.len());

        let parallel =
            run_campaign_with("l", &targets, init_process, &config, &threaded(4));
        assert_eq!(parallel.worker_metrics.len(), 4, "one row per worker");
        let names: Vec<_> =
            parallel.worker_metrics.iter().map(|w| w.worker.as_str()).collect();
        assert_eq!(names, vec!["worker-0", "worker-1", "worker-2", "worker-3"]);
        // Scheduling decides who did what, but the totals must account
        // for every function, execution, hit, retry and failure.
        for run in [&serial, &parallel] {
            let functions: usize = run.worker_metrics.iter().map(|w| w.functions).sum();
            let executed: usize = run.worker_metrics.iter().map(|w| w.executed).sum();
            let hits: usize = run.worker_metrics.iter().map(|w| w.checkpoint_hits).sum();
            let retries: usize = run.worker_metrics.iter().map(|w| w.retries).sum();
            let failures: usize = run.worker_metrics.iter().map(|w| w.failures).sum();
            assert_eq!(functions, targets.len());
            assert_eq!(executed, run.executed_cases());
            assert_eq!(hits, run.checkpoint_hits());
            assert_eq!(retries, run.total_retries());
            assert_eq!(failures, run.total_failures());
        }
        // The rows render through the profiler's report vocabulary.
        let rendered = profiler::render_worker_report("l", &parallel.worker_metrics);
        assert!(rendered.contains("worker-0"), "{rendered}");
        assert!(rendered.contains("total"), "{rendered}");
    }

    static FACTORY_CALLS: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static FACTORY_CALLS_HERE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn counting_factory() -> Proc {
        FACTORY_CALLS.fetch_add(1, Ordering::Relaxed);
        FACTORY_CALLS_HERE.with(|n| n.set(n.get() + 1));
        init_process()
    }

    #[test]
    fn single_thread_campaign_builds_processes_on_the_callers_thread() {
        let result =
            run_campaign("l", &single_target("strlen"), counting_factory, &quick_config());
        assert!(result.executed_cases() > 0);
        let here = FACTORY_CALLS_HERE.with(|n| n.get());
        assert!(here > 0, "the factory must have run");
        assert_eq!(
            here,
            FACTORY_CALLS.load(Ordering::Relaxed),
            "every call on this thread"
        );
    }

    #[test]
    fn contract_hints_prune_cases_without_changing_the_verdict() {
        let targets = single_target("strlen");
        let config = quick_config();
        let unhinted = run_campaign("l", &targets, init_process, &config);
        // Floor the climb at the rung the campaign derives anyway (cstr).
        let mut hints = LadderHints::new();
        hints.set("strlen", vec![3]);
        let hinted = run_campaign_with(
            "l",
            &targets,
            init_process,
            &config,
            &CampaignRun { hints: Some(&hints), ..CampaignRun::default() },
        );
        assert_eq!(hinted.api.to_xml(), unhinted.api.to_xml(), "same robust API");
        assert_eq!(unhinted.total_pruned(), 0);
        assert!(hinted.total_pruned() > 0, "floored rungs must be accounted");
        assert!(
            hinted.executed_cases() < unhinted.executed_cases(),
            "hinted: {} unhinted: {}",
            hinted.executed_cases(),
            unhinted.executed_cases()
        );
    }

    #[test]
    fn oversized_hint_floor_is_clamped() {
        let targets = single_target("strlen");
        let mut hints = LadderHints::new();
        hints.set("strlen", vec![99]);
        let result = run_campaign_with(
            "l",
            &targets,
            init_process,
            &quick_config(),
            &CampaignRun { hints: Some(&hints), ..CampaignRun::default() },
        );
        let f = result.api.function("strlen").unwrap();
        assert_eq!(f.preds, vec![SafePred::CStr], "clamped to the strongest rung");
    }

    #[test]
    fn hinted_and_unhinted_campaigns_share_a_checkpoint_journal() {
        let targets = single_target("strlen");
        let config = quick_config();
        let journal = CheckpointJournal::new();
        let checkpointed =
            CampaignRun { journal: Some(&journal), ..CampaignRun::default() };
        let first = run_campaign_with("l", &targets, init_process, &config, &checkpointed);
        let mut hints = LadderHints::new();
        hints.set("strlen", vec![3]);
        let hinted = run_campaign_with(
            "l",
            &targets,
            init_process,
            &config,
            &CampaignRun { hints: Some(&hints), ..checkpointed },
        );
        assert_eq!(hinted.executed_cases(), 0, "floors never change the fingerprint");
        assert_eq!(
            first.api.function("strlen").unwrap().preds,
            hinted.api.function("strlen").unwrap().preds
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let targets = single_target("strncpy");
        let config = quick_config();
        let r1 = run_campaign("l", &targets, init_process, &config);
        let r2 = run_campaign("l", &targets, init_process, &config);
        assert_eq!(r1.total_tests(), r2.total_tests());
        assert_eq!(r1.total_failures(), r2.total_failures());
        assert_eq!(
            r1.api.function("strncpy").unwrap().preds,
            r2.api.function("strncpy").unwrap().preds
        );
    }

    #[test]
    fn checkpointed_rerun_executes_nothing() {
        let targets = single_target("strlen");
        let config = quick_config();
        let journal = CheckpointJournal::new();
        let checkpointed =
            CampaignRun { journal: Some(&journal), ..CampaignRun::default() };
        let first = run_campaign_with("l", &targets, init_process, &config, &checkpointed);
        assert_eq!(first.checkpoint_hits(), 0);
        assert!(first.executed_cases() > 0);
        let again = run_campaign_with("l", &targets, init_process, &config, &checkpointed);
        assert_eq!(
            again.executed_cases(),
            0,
            "an unchanged (function, ladder, seed) triple is never re-executed"
        );
        assert_eq!(again.checkpoint_hits(), again.total_tests());
        assert_eq!(
            first.api.function("strlen").unwrap().preds,
            again.api.function("strlen").unwrap().preds
        );
        assert_eq!(first.total_tests(), again.total_tests());
        for (a, b) in first.reports.iter().zip(&again.reports) {
            assert_eq!(a.histogram, b.histogram);
        }
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        let targets: Vec<_> = targets_from_simlibc()
            .into_iter()
            .filter(|t| ["strlen", "strcpy"].contains(&t.name.as_str()))
            .collect();
        let config = CampaignConfig { case_budget: Some(5), ..quick_config() };
        let result = run_campaign("l", &targets, init_process, &config);
        assert!(!result.complete);
        assert_eq!(result.reports.len(), 2, "every target still gets a report");
        assert_eq!(result.api.functions.len(), 2, "partial RobustApi, not an error");
        let partial: Vec<_> = result
            .api
            .functions
            .iter()
            .filter(|f| f.confidence == Confidence::Partial)
            .collect();
        assert!(!partial.is_empty(), "budget cut must be annotated");
        for f in partial {
            assert!(f.coverage < 1.0, "{}: {}", f.proto.name, f.coverage);
            assert!(!f.fully_robust);
        }
    }

    #[test]
    fn zero_time_budget_probes_nothing_but_reports_everything() {
        let targets = single_target("strlen");
        let config = CampaignConfig { time_budget: Some(Duration::ZERO), ..quick_config() };
        let result = run_campaign("l", &targets, init_process, &config);
        assert!(!result.complete);
        assert_eq!(result.total_tests(), 0);
        let f = result.api.function("strlen").unwrap();
        assert_eq!(f.confidence, Confidence::Partial);
        assert_eq!(f.coverage, 0.0);
        assert!(f.has_checks(), "unprobed contract is conservative, not permissive");
    }

    #[test]
    fn watchdog_rescues_slow_but_terminating_calls() {
        // A call that burns a fixed 1000 fuel terminates, but at a base
        // budget of 50 the first observation is Hang; the watchdog's
        // geometric fuel escalation must rescue it instead of
        // misclassifying.
        let table = cdecl::TypedefTable::with_builtins();
        let proto = cdecl::parse_prototype("int slow(int x);", &table).unwrap();
        let plans = plan(&proto);
        let mut call = |p: &mut Proc, _a: &[CVal]| -> Result<CVal, Fault> {
            for _ in 0..1000 {
                p.consume_fuel(1)?;
            }
            Ok(CVal::Int(0))
        };
        let key = CaseKey::Ladder { param: 0, rung_idx: 0, value_idx: 0 };
        let seed = case_seed(1, "slow", &key);
        let starved = run_case(init_process, &plans, &key, seed, 50, true, &mut call);
        assert_eq!(starved.outcome, Outcome::Hang, "starved fuel must look like a hang");

        let config = CampaignConfig {
            seed: 1,
            fuel: 50,
            watchdog_max_fuel_factor: 64,
            ..CampaignConfig::default()
        };
        let journal = CheckpointJournal::new();
        let budget = BudgetClock::new(&config);
        let cx = SearchCx {
            config: &config,
            factory: init_process,
            journal: &journal,
            budget: &budget,
            hints: None,
        };
        let mut tally = CaseTally::default();
        let out = cx.judge(1, "slow", &plans, &key, &mut call, &mut tally).unwrap();
        assert_ne!(out.outcome, Outcome::Hang, "watchdog must rescue slow calls");
        assert!(tally.retries > 0, "escalation must have happened");

        // A genuine hang stays a hang even after full escalation.
        let mut diverge = |p: &mut Proc, _a: &[CVal]| -> Result<CVal, Fault> {
            loop {
                p.consume_fuel(1)?;
            }
        };
        let mut tally = CaseTally::default();
        let out = cx.judge(2, "diverge", &plans, &key, &mut diverge, &mut tally).unwrap();
        assert_eq!(out.outcome, Outcome::Hang, "true divergence is still classified");
    }
}
