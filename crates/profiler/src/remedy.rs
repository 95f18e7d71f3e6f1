//! Closed-loop policy remediation: the director that watches the fleet
//! rollup's per-window crash rates and walks misbehaving functions up
//! (and back down) an escalation ladder.
//!
//! The ladder mirrors the paper's §2.4 failure-handling choices, from
//! least to most intrusive:
//!
//! | level | wrapper behaviour |
//! |-------|-------------------|
//! | Observe | checks run, violations journaled, call passes through |
//! | Contain | violating calls rejected with an error return |
//! | Heal | violating arguments repaired, call proceeds |
//! | Oblivious | reads answered with manufactured values, out-of-bounds writes suppressed and audited — the process keeps serving |
//! | Terminate | violating process stopped |
//!
//! Every decision is driven by integer fixed-point arithmetic over the
//! deterministic window rollups (no floats, no wall clock), so the same
//! fleet history always produces byte-identical journals. Three
//! mechanisms keep the loop stable:
//!
//! * **anomaly detection** — a function escalates only when its
//!   windowed crash rate clears an absolute threshold *and* stands out
//!   against its own EWMA baseline;
//! * **rollback** — each escalation carries an observation window; if
//!   the crash rate has not improved by the deadline the director
//!   reverts the level and opens a circuit breaker;
//! * **circuit breaker + hysteresis** — a broken (rolled-back) function
//!   cannot re-escalate until a cooldown of quiet windows has passed,
//!   and de-escalation requires sustained quiet, so the ladder cannot
//!   flap.

use std::collections::BTreeMap;

use crate::fleet::WindowStats;
use crate::journal::JOURNAL_CAP;

/// One rung of the remediation ladder, least intrusive first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscalationLevel {
    /// Checks journal violations but the call passes through unchanged.
    Observe,
    /// Violating calls are rejected with an error return (paper §2.4
    /// "return an error code").
    Contain,
    /// Violating arguments are repaired and the call proceeds.
    Heal,
    /// Availability mode: violating reads are answered with manufactured
    /// context-selected values, out-of-bounds writes are suppressed and
    /// ledgered — the process keeps serving, every absorption audited.
    Oblivious,
    /// The violating process is stopped.
    Terminate,
}

impl EscalationLevel {
    /// Stable lower-case tag for reports and journals.
    pub fn tag(&self) -> &'static str {
        match self {
            EscalationLevel::Observe => "observe",
            EscalationLevel::Contain => "contain",
            EscalationLevel::Heal => "heal",
            EscalationLevel::Oblivious => "oblivious",
            EscalationLevel::Terminate => "terminate",
        }
    }

    /// The next rung up, if any.
    pub fn next(&self) -> Option<EscalationLevel> {
        match self {
            EscalationLevel::Observe => Some(EscalationLevel::Contain),
            EscalationLevel::Contain => Some(EscalationLevel::Heal),
            EscalationLevel::Heal => Some(EscalationLevel::Oblivious),
            EscalationLevel::Oblivious => Some(EscalationLevel::Terminate),
            EscalationLevel::Terminate => None,
        }
    }

    /// The next rung down, if any.
    pub fn prev(&self) -> Option<EscalationLevel> {
        match self {
            EscalationLevel::Observe => None,
            EscalationLevel::Contain => Some(EscalationLevel::Observe),
            EscalationLevel::Heal => Some(EscalationLevel::Contain),
            EscalationLevel::Oblivious => Some(EscalationLevel::Heal),
            EscalationLevel::Terminate => Some(EscalationLevel::Oblivious),
        }
    }
}

/// Director tuning. All rates are fixed-point thousandths (a rate of
/// `250` means 250 crashes per 1000 calls).
#[derive(Debug, Clone)]
pub struct DirectorConfig {
    /// EWMA smoothing factor α, x1000 (e.g. `300` = 0.3: 30% of each
    /// new window, 70% history).
    pub ewma_alpha_x1000: u64,
    /// Absolute crash-rate threshold, x1000, below which a function is
    /// never escalated.
    pub rate_threshold_x1000: u64,
    /// Relative anomaly factor, x1000: the window rate must also be at
    /// least `ewma * ewma_factor / 1000` to count as an anomaly (a
    /// chronically bad baseline does not re-trigger every window).
    pub ewma_factor_x1000: u64,
    /// Hard crash-rate ceiling, x1000: at or above this rate the
    /// EWMA-relative test is waived — a fleet losing this many calls is
    /// an anomaly no matter how bad its recent history was.
    pub hard_rate_x1000: u64,
    /// Minimum calls in a window before its rate is judged at all.
    pub min_calls: u64,
    /// Windows an escalation gets to prove itself before the verdict.
    pub observe_windows: u64,
    /// Improvement bar, x1000: at the deadline the rate must be at most
    /// `base_rate * improve_factor / 1000`, else the escalation rolls
    /// back.
    pub improve_factor_x1000: u64,
    /// Circuit-breaker cooldown after a rollback, in windows.
    pub cooldown_windows: u64,
    /// Consecutive quiet windows (rate under half the threshold) before
    /// a level de-escalates — the hysteresis that prevents flapping.
    pub deescalate_quiet_windows: u64,
}

impl Default for DirectorConfig {
    fn default() -> Self {
        DirectorConfig {
            ewma_alpha_x1000: 300,
            rate_threshold_x1000: 50,
            ewma_factor_x1000: 1500,
            hard_rate_x1000: 400,
            min_calls: 8,
            observe_windows: 2,
            improve_factor_x1000: 500,
            cooldown_windows: 4,
            deescalate_quiet_windows: 6,
        }
    }
}

/// Why the director touched (or pointedly did not touch) a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemedyAction {
    /// Crash-rate anomaly: level raised, observation clock started.
    Escalate,
    /// The escalation improved the crash rate by its deadline; it
    /// stays.
    Confirm,
    /// The escalation did not improve the crash rate; level reverted
    /// and the circuit breaker opened.
    Rollback,
    /// An anomaly fired while the circuit breaker was open; no change
    /// (the journal entry is the evidence flapping was prevented).
    Suppress,
    /// Sustained quiet: level lowered one rung.
    Deescalate,
}

impl RemedyAction {
    /// Stable lower-case tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            RemedyAction::Escalate => "escalate",
            RemedyAction::Confirm => "confirm",
            RemedyAction::Rollback => "rollback",
            RemedyAction::Suppress => "suppress",
            RemedyAction::Deescalate => "deescalate",
        }
    }
}

/// One entry in the auditable escalation journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemedyEvent {
    /// Window the decision was made in.
    pub window: u64,
    /// Function concerned.
    pub func: String,
    /// What happened.
    pub action: RemedyAction,
    /// Level before the decision.
    pub from: EscalationLevel,
    /// Level after the decision (same as `from` for Confirm/Suppress).
    pub to: EscalationLevel,
    /// The window crash rate that drove the decision, x1000.
    pub rate_x1000: u64,
    /// The function's EWMA baseline at decision time, x1000.
    pub ewma_x1000: u64,
    /// Human-readable detail for the report.
    pub detail: String,
}

/// A policy change the supervisor must apply to the fleet's wrappers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyChange {
    /// Function whose policy changes.
    pub func: String,
    /// Its new level.
    pub level: EscalationLevel,
}

#[derive(Debug, Clone)]
struct Pending {
    from: EscalationLevel,
    at_window: u64,
    base_rate_x1000: u64,
}

#[derive(Debug, Clone)]
struct FuncState {
    level: EscalationLevel,
    ewma_x1000: u64,
    seeded: bool,
    pending: Option<Pending>,
    breaker_until: Option<u64>,
    quiet: u64,
}

impl Default for FuncState {
    fn default() -> Self {
        FuncState {
            level: EscalationLevel::Observe,
            ewma_x1000: 0,
            seeded: false,
            pending: None,
            breaker_until: None,
            quiet: 0,
        }
    }
}

/// The escalation journal: the first [`JOURNAL_CAP`] decisions, a count
/// of the ones after, and every journaled function's level after its
/// latest decision (kept whole, so the cap never hides a final level).
#[derive(Debug, Default)]
struct Journal {
    events: Vec<RemedyEvent>,
    dropped: u64,
    last_level: BTreeMap<String, EscalationLevel>,
}

impl Journal {
    fn push(&mut self, ev: RemedyEvent) {
        match self.last_level.get_mut(&ev.func) {
            Some(level) => *level = ev.to,
            None => {
                self.last_level.insert(ev.func.clone(), ev.to);
            }
        }
        if self.events.len() < JOURNAL_CAP {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// The remediation director. Feed it sealed windows in order via
/// [`Director::observe_window`]; it returns the policy changes to apply
/// and appends every decision to its journal.
#[derive(Debug)]
pub struct Director {
    config: DirectorConfig,
    funcs: BTreeMap<String, FuncState>,
    journal: Journal,
}

impl Director {
    /// A director with `config`.
    pub fn new(config: DirectorConfig) -> Self {
        Director { config, funcs: BTreeMap::new(), journal: Journal::default() }
    }

    /// The current level for `func` (Observe if never touched).
    pub fn level_of(&self, func: &str) -> EscalationLevel {
        self.funcs.get(func).map(|s| s.level).unwrap_or(EscalationLevel::Observe)
    }

    /// The auditable escalation journal, in decision order: the first
    /// [`JOURNAL_CAP`] decisions.
    pub fn journal(&self) -> &[RemedyEvent] {
        &self.journal.events
    }

    /// Decisions made after the journal reached [`JOURNAL_CAP`]: counted,
    /// not kept.
    pub fn journal_dropped(&self) -> u64 {
        self.journal.dropped
    }

    /// The level every function the director ever journaled stands at
    /// after its latest decision, kept or not.
    pub fn final_levels(&self) -> &BTreeMap<String, EscalationLevel> {
        &self.journal.last_level
    }

    /// Consumes one sealed window of fleet stats and returns the policy
    /// changes to apply. Functions are visited in sorted order and all
    /// arithmetic is integer, so the same window history always yields
    /// the same journal, byte for byte.
    pub fn observe_window(
        &mut self,
        window: u64,
        stats: &WindowStats,
    ) -> Vec<PolicyChange> {
        let mut changes = Vec::new();
        for (func, wf) in &stats.per_func {
            let rate = wf.crash_rate_x1000();
            let calls = wf.calls + wf.crashes;
            let state = self.funcs.entry(func.clone()).or_default();
            let ewma = state.ewma_x1000;
            let cfg = &self.config;

            // 1. Pending escalations reach their verdict first.
            let mut just_confirmed = false;
            if let Some(p) = state.pending.clone() {
                if window >= p.at_window + cfg.observe_windows {
                    let bar = p.base_rate_x1000 * cfg.improve_factor_x1000 / 1000;
                    if rate <= bar {
                        state.pending = None;
                        just_confirmed = true;
                        self.journal.push(RemedyEvent {
                            window,
                            func: func.clone(),
                            action: RemedyAction::Confirm,
                            from: state.level,
                            to: state.level,
                            rate_x1000: rate,
                            ewma_x1000: ewma,
                            detail: format!(
                                "rate {rate}\u{2030} <= bar {bar}\u{2030} (was {}\u{2030} before {})",
                                p.base_rate_x1000,
                                state.level.tag()
                            ),
                        });
                    } else {
                        let reverted = p.from;
                        let failed = state.level;
                        state.pending = None;
                        state.level = reverted;
                        state.breaker_until = Some(window + cfg.cooldown_windows);
                        self.journal.push(RemedyEvent {
                            window,
                            func: func.clone(),
                            action: RemedyAction::Rollback,
                            from: failed,
                            to: reverted,
                            rate_x1000: rate,
                            ewma_x1000: ewma,
                            detail: format!(
                                "rate {rate}\u{2030} > bar {bar}\u{2030}; {} did not help, breaker open until window {}",
                                failed.tag(),
                                window + cfg.cooldown_windows
                            ),
                        });
                        changes.push(PolicyChange { func: func.clone(), level: reverted });
                    }
                }
            }

            // 2. Anomaly detection on this window's rate. The
            // EWMA-relative test is waived when there is no baseline
            // yet, when the rate clears the hard ceiling, and right
            // after a Confirm whose residual rate is still above
            // threshold (the level helped but did not finish the job —
            // keep climbing).
            let state = self.funcs.get_mut(func).expect("state inserted above");
            let baseline_ok = !state.seeded
                || just_confirmed
                || rate >= cfg.hard_rate_x1000
                || rate.saturating_mul(1000) >= ewma.saturating_mul(cfg.ewma_factor_x1000);
            let anomaly =
                calls >= cfg.min_calls && rate >= cfg.rate_threshold_x1000 && baseline_ok;
            let breaker_open = state.breaker_until.is_some_and(|until| window < until);

            if anomaly {
                state.quiet = 0;
                if breaker_open {
                    self.journal.push(RemedyEvent {
                        window,
                        func: func.clone(),
                        action: RemedyAction::Suppress,
                        from: state.level,
                        to: state.level,
                        rate_x1000: rate,
                        ewma_x1000: ewma,
                        detail: format!(
                            "anomaly at {rate}\u{2030} suppressed, breaker open until window {}",
                            state.breaker_until.unwrap_or(0)
                        ),
                    });
                } else if state.pending.is_none() {
                    if let Some(next) = state.level.next() {
                        let from = state.level;
                        state.level = next;
                        state.pending = Some(Pending {
                            from,
                            at_window: window,
                            base_rate_x1000: rate,
                        });
                        self.journal.push(RemedyEvent {
                            window,
                            func: func.clone(),
                            action: RemedyAction::Escalate,
                            from,
                            to: next,
                            rate_x1000: rate,
                            ewma_x1000: ewma,
                            detail: format!(
                                "rate {rate}\u{2030} >= threshold {}\u{2030}; verdict at window {}",
                                cfg.rate_threshold_x1000,
                                window + cfg.observe_windows
                            ),
                        });
                        changes.push(PolicyChange { func: func.clone(), level: next });
                    }
                }
            } else if calls >= cfg.min_calls {
                // 3. Hysteresis: only *consecutive* quiet windows (rate
                // under half the threshold) walk the ladder down.
                if rate < cfg.rate_threshold_x1000 / 2 {
                    state.quiet += 1;
                    if state.quiet >= cfg.deescalate_quiet_windows
                        && state.pending.is_none()
                    {
                        if let Some(prev) = state.level.prev() {
                            let from = state.level;
                            state.level = prev;
                            state.quiet = 0;
                            self.journal.push(RemedyEvent {
                                window,
                                func: func.clone(),
                                action: RemedyAction::Deescalate,
                                from,
                                to: prev,
                                rate_x1000: rate,
                                ewma_x1000: ewma,
                                detail: format!(
                                    "{} quiet windows at <{}\u{2030}",
                                    cfg.deescalate_quiet_windows,
                                    cfg.rate_threshold_x1000 / 2
                                ),
                            });
                            changes.push(PolicyChange { func: func.clone(), level: prev });
                        }
                    }
                } else {
                    state.quiet = 0;
                }
            }

            // 4. EWMA baseline update, after decisions.
            let state = self.funcs.get_mut(func).expect("state inserted above");
            if calls >= cfg.min_calls {
                if state.seeded {
                    state.ewma_x1000 = (cfg.ewma_alpha_x1000 * rate
                        + (1000 - cfg.ewma_alpha_x1000) * state.ewma_x1000)
                        / 1000;
                } else {
                    state.ewma_x1000 = rate;
                    state.seeded = true;
                }
            }
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::WindowFunc;

    fn window(entries: &[(&str, u64, u64)]) -> WindowStats {
        let mut w = WindowStats::default();
        for (name, calls, crashes) in entries {
            w.per_func.insert(
                (*name).to_string(),
                WindowFunc { calls: *calls, errors: 0, crashes: *crashes },
            );
            w.docs += 1;
        }
        w
    }

    fn director() -> Director {
        Director::new(DirectorConfig::default())
    }

    #[test]
    fn ladder_places_oblivious_between_heal_and_terminate() {
        assert_eq!(EscalationLevel::Heal.next(), Some(EscalationLevel::Oblivious));
        assert_eq!(EscalationLevel::Oblivious.next(), Some(EscalationLevel::Terminate));
        assert_eq!(EscalationLevel::Oblivious.prev(), Some(EscalationLevel::Heal));
        assert_eq!(EscalationLevel::Terminate.prev(), Some(EscalationLevel::Oblivious));
        assert!(EscalationLevel::Heal < EscalationLevel::Oblivious);
        assert!(EscalationLevel::Oblivious < EscalationLevel::Terminate);
        assert_eq!(EscalationLevel::Oblivious.tag(), "oblivious");
    }

    #[test]
    fn quiet_fleet_never_escalates() {
        let mut d = director();
        for w in 0..10 {
            let changes = d.observe_window(w, &window(&[("strcpy", 100, 1)]));
            assert!(changes.is_empty(), "window {w}: {changes:?}");
        }
        assert!(d.journal().is_empty());
        assert_eq!(d.level_of("strcpy"), EscalationLevel::Observe);
    }

    #[test]
    fn crash_burst_escalates_and_confirms_up_the_ladder() {
        let mut d = director();
        // w0: quiet. w1: burst -> Escalate to Contain.
        assert!(d.observe_window(0, &window(&[("strcpy", 100, 0)])).is_empty());
        let c = d.observe_window(1, &window(&[("strcpy", 60, 40)]));
        assert_eq!(
            c,
            vec![PolicyChange { func: "strcpy".into(), level: EscalationLevel::Contain }]
        );
        // w2: still bad (containment stops the crash but the rate needs
        // its verdict window). w3: verdict — improved to zero, Confirm;
        // then the *still-high* EWMA does not block later anomalies.
        assert!(d.observe_window(2, &window(&[("strcpy", 100, 10)])).is_empty());
        let c = d.observe_window(3, &window(&[("strcpy", 100, 0)]));
        assert!(c.is_empty(), "{c:?}");
        let tags: Vec<_> = d.journal().iter().map(|e| e.action.tag()).collect();
        assert_eq!(tags, vec!["escalate", "confirm"]);
        assert_eq!(d.level_of("strcpy"), EscalationLevel::Contain);
        // w4: a fresh burst escalates Contain -> Heal.
        let c = d.observe_window(4, &window(&[("strcpy", 50, 50)]));
        assert_eq!(
            c,
            vec![PolicyChange { func: "strcpy".into(), level: EscalationLevel::Heal }]
        );
    }

    #[test]
    fn failed_escalation_rolls_back_and_breaker_suppresses() {
        let mut d = director();
        let burst = window(&[("memcpy", 50, 50)]);
        let c = d.observe_window(0, &burst);
        assert_eq!(c.len(), 1, "escalate on first burst");
        // Burst continues unabated through the verdict window.
        assert!(d.observe_window(1, &burst).is_empty());
        let c = d.observe_window(2, &burst);
        // Verdict: no improvement -> rollback to Observe...
        assert_eq!(
            c,
            vec![PolicyChange { func: "memcpy".into(), level: EscalationLevel::Observe }]
        );
        assert_eq!(d.level_of("memcpy"), EscalationLevel::Observe);
        // ...and the breaker swallows the ongoing anomaly: no changes,
        // Suppress entries in the journal instead.
        for w in 3..6 {
            let c = d.observe_window(w, &burst);
            assert!(c.is_empty(), "window {w}: breaker must suppress, got {c:?}");
        }
        let tags: Vec<_> = d.journal().iter().map(|e| e.action.tag()).collect();
        assert_eq!(
            tags,
            vec!["escalate", "rollback", "suppress", "suppress", "suppress", "suppress"]
        );
        // Breaker expires at window 2+4=6: the anomaly escalates again.
        let c = d.observe_window(6, &burst);
        assert_eq!(c.len(), 1, "breaker expired, escalation allowed: {c:?}");
    }

    #[test]
    fn sustained_quiet_deescalates_with_hysteresis() {
        let mut d = director();
        let c = d.observe_window(0, &window(&[("strcpy", 40, 60)]));
        assert_eq!(c.len(), 1);
        // Quiet from w1 on; verdict (Confirm) lands at w2; hysteresis
        // needs 6 *consecutive* quiet windows.
        let quiet = window(&[("strcpy", 100, 0)]);
        let mut deescalated_at = None;
        for w in 1..12 {
            let c = d.observe_window(w, &quiet);
            if let Some(change) = c.first() {
                assert_eq!(change.level, EscalationLevel::Observe);
                deescalated_at = Some(w);
                break;
            }
        }
        assert_eq!(deescalated_at, Some(6), "6 quiet windows starting at w1");
        assert_eq!(d.level_of("strcpy"), EscalationLevel::Observe);
    }

    #[test]
    fn chronic_baseline_does_not_retrigger() {
        let mut d = director();
        let chronic = window(&[("gets", 90, 10)]);
        // ~100‰ every window: the first window escalates (no baseline
        // yet), then the EWMA absorbs the rate; with the verdict
        // rolled back and the breaker expired, the *unchanged* chronic
        // rate no longer clears the EWMA-relative bar.
        let mut escalations = 0;
        for w in 0..20 {
            for ch in d.observe_window(w, &chronic) {
                if ch.level > EscalationLevel::Observe {
                    escalations += 1;
                }
            }
        }
        assert_eq!(escalations, 1, "journal: {:?}", d.journal());
    }

    #[test]
    fn journal_is_deterministic() {
        let run = || {
            let mut d = director();
            d.observe_window(0, &window(&[("a", 100, 0), ("b", 50, 50)]));
            d.observe_window(1, &window(&[("a", 30, 70), ("b", 50, 50)]));
            d.observe_window(2, &window(&[("a", 100, 0), ("b", 50, 50)]));
            d.observe_window(3, &window(&[("a", 100, 0), ("b", 100, 0)]));
            d.journal().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn journal_keeps_the_first_cap_decisions_and_counts_the_rest() {
        // One anomalous window escalates every function in it at once.
        let names: Vec<String> =
            (0..JOURNAL_CAP + 40).map(|i| format!("f{i:05}")).collect();
        let entries: Vec<(&str, u64, u64)> =
            names.iter().map(|n| (n.as_str(), 50, 50)).collect();
        let mut d = director();
        let changes = d.observe_window(0, &window(&entries));
        assert_eq!(changes.len(), JOURNAL_CAP + 40);
        assert_eq!(d.journal().len(), JOURNAL_CAP);
        assert_eq!(d.journal_dropped(), 40);
        assert_eq!(d.journal().last().unwrap().func, names[JOURNAL_CAP - 1]);
        // Final levels cover the dropped decisions too.
        assert_eq!(d.final_levels().len(), JOURNAL_CAP + 40);
        let last = names.last().unwrap();
        assert_eq!(d.final_levels()[last], EscalationLevel::Contain);
        assert_eq!(d.final_levels()[last], d.level_of(last));
    }

    #[test]
    fn final_levels_follow_the_latest_decision() {
        let mut d = director();
        for w in 0..20 {
            let rate = if w < 3 { 40 } else { 0 };
            d.observe_window(w, &window(&[("strcpy", 100, rate)]));
        }
        assert_eq!(d.journal_dropped(), 0);
        assert!(d.journal().len() >= 2, "journal: {:?}", d.journal());
        let by_journal: BTreeMap<_, _> =
            d.journal().iter().map(|e| (e.func.clone(), e.to)).collect();
        assert_eq!(&by_journal, d.final_levels());
        assert_eq!(d.final_levels()["strcpy"], d.level_of("strcpy"));
    }
}
