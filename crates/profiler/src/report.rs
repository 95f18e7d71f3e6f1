//! Text rendering of profiling data — the tables behind the graphics of
//! the paper's Figure 5 (call frequency, execution-time share, errno
//! distribution and causes).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simproc::errno::{errno_name, strerror_text};

use crate::journal::{FlightRecord, HealEvent};
use crate::stats::{LatencyHistogram, Snapshot};

/// Renders the full profiling report for one run.
pub fn render_report(app: &str, snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "HEALERS profiling report for `{app}`");
    let _ = writeln!(
        out,
        "{} wrapped calls, {} cycles inside wrapped functions\n",
        snap.total_calls(),
        snap.total_cycles
    );

    let _ = writeln!(out, "Call frequency and execution time:");
    let _ =
        writeln!(out, "{:<14} {:>8} {:>12} {:>8}", "function", "calls", "cycles", "time%");
    let mut by_cycles: Vec<_> = snap.per_func.iter().collect();
    by_cycles.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(b.0)));
    for (name, f) in by_cycles {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>12} {:>7.2}%",
            name,
            f.calls,
            f.cycles,
            snap.time_share(name)
        );
    }

    let _ = writeln!(out, "\nError distribution (causes by errno):");
    if snap.global_errnos.is_empty() {
        let _ = writeln!(out, "  (no errors recorded)");
    }
    for (e, n) in &snap.global_errnos {
        let _ = writeln!(
            out,
            "  {:>4} {:<10} {:>6}   {}",
            e,
            errno_name(*e),
            n,
            strerror_text(*e)
        );
    }

    let _ = writeln!(out, "\nPer-function error causes:");
    let mut any = false;
    for (name, f) in &snap.per_func {
        for (e, n) in &f.errnos {
            any = true;
            let _ = writeln!(out, "  {:<14} {:<10} x{}", name, errno_name(*e), n);
        }
    }
    if !any {
        let _ = writeln!(out, "  (none)");
    }

    if snap.has_latency() {
        let _ = writeln!(out, "\nLatency histograms (log2 buckets, cycles):");
        for (name, f) in &snap.per_func {
            for (stage, hist) in &f.latency {
                let _ = writeln!(out, "  {name} [{stage}] — {} samples", hist.count());
                for (b, n) in hist.buckets() {
                    let _ = writeln!(
                        out,
                        "    {:>22} {:>8}",
                        LatencyHistogram::bucket_label(b),
                        n
                    );
                }
            }
        }
    }
    out
}

/// [`render_report`] followed by the healing audit journal — what the
/// healing wrapper prints at `exit`. Events are summarised per function
/// and action, then listed in order.
pub fn render_report_with_healing(
    app: &str,
    snap: &Snapshot,
    events: &[HealEvent],
) -> String {
    let mut out = render_report(app, snap);
    let _ = writeln!(out, "\nHealing audit journal ({} events):", events.len());
    if events.is_empty() {
        let _ = writeln!(out, "  (no healing actions taken)");
        return out;
    }
    let mut by_func: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for ev in events {
        *by_func.entry((ev.func.as_str(), ev.action.tag())).or_insert(0) += 1;
    }
    for ((func, action), n) in &by_func {
        let _ = writeln!(out, "  {func:<14} {action:<12} x{n}");
    }
    let _ = writeln!(out, "\n  Event log:");
    for ev in events {
        let arg = match ev.arg {
            Some(i) => format!("arg {}", i + 1),
            None => "call".into(),
        };
        let _ = writeln!(
            out,
            "    {} {} [{}] {}: {} — {}",
            ev.func, arg, ev.class, ev.action, ev.violation, ev.detail
        );
    }
    out
}

/// Renders the campaign-health summary of a derived robust API: one
/// line per function with its confidence and coverage, functions with
/// degraded confidence first, then a totals line. This is what an
/// operator reads before deciding whether to deploy a wrapper built
/// from a budget-cut or interrupted campaign.
pub fn render_robust_api_health(api: &typelattice::RobustApi) -> String {
    use typelattice::Confidence;
    let mut out = String::new();
    let _ = writeln!(out, "Robust-API health for `{}`:", api.library);
    let mut rows: Vec<_> = api.functions.iter().collect();
    rows.sort_by(|a, b| {
        a.confidence.cmp(&b.confidence).then(a.proto.name.cmp(&b.proto.name))
    });
    let _ = writeln!(out, "{:<14} {:>12} {:>8}   notes", "function", "confidence", "cover");
    for f in &rows {
        let note = match f.confidence {
            Confidence::Inconclusive => "circuit breaker tripped; contract is a guess",
            Confidence::Partial => "campaign budget expired before full probe",
            Confidence::Flaky => "non-deterministic outcomes observed",
            Confidence::High => "",
        };
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>7.1}%   {}",
            f.proto.name,
            f.confidence.tag(),
            f.coverage * 100.0,
            note
        );
    }
    let measured = api.functions.iter().filter(|f| f.is_measured()).count();
    let _ = writeln!(
        out,
        "\n{} of {} contracts are measurements; mean coverage {:.1}%",
        measured,
        api.functions.len(),
        if api.functions.is_empty() {
            100.0
        } else {
            api.functions.iter().map(|f| f.coverage).sum::<f64>()
                / api.functions.len() as f64
                * 100.0
        }
    );
    out
}

/// One wrapper-soundness lint finding, pre-rendered by the analyzer into
/// the profiler's report vocabulary. The profiler deliberately knows
/// nothing about hook pipelines or contracts — it renders whatever lines
/// the upstream lint produced, deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintLine {
    /// Wrapped function the finding is about.
    pub func: String,
    /// Stable rule identifier (e.g. `check-after-mutation`).
    pub rule: String,
    /// `error` or `warning`.
    pub severity: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Renders the wrapper-soundness lint section: one line per finding,
/// sorted by (function, rule, message) so two same-input runs render
/// byte-identically. An empty finding list renders a clean bill.
pub fn render_lint_report(library: &str, lines: &[LintLine]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Wrapper-soundness lint for `{library}`:");
    if lines.is_empty() {
        let _ = writeln!(out, "  (no findings — every modelled wrapper is sound)");
        return out;
    }
    let mut sorted: Vec<&LintLine> = lines.iter().collect();
    sorted.sort_by(|a, b| {
        a.func
            .cmp(&b.func)
            .then_with(|| a.rule.cmp(&b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    for l in sorted {
        let _ =
            writeln!(out, "  {:<9} {:<14} [{}] {}", l.severity, l.func, l.rule, l.message);
    }
    let _ = writeln!(out, "  {} finding(s)", lines.len());
    out
}

/// One (function, policy) row of a policy-ablation study, pre-rendered
/// by the injector into the profiler's report vocabulary — like
/// [`LintLine`], the profiler knows nothing about wrapper policies; it
/// renders whatever rows the replay produced, deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationLine {
    /// Wrapped function the cases were replayed against.
    pub func: String,
    /// Policy label (e.g. `terminate`, `heal`, `oblivious`).
    pub policy: String,
    /// Crash cases replayed under this policy.
    pub replayed: u64,
    /// Cases that survived: the call returned normally or as a graceful
    /// errno error (the paper's availability measure).
    pub survived: u64,
    /// Cases that "survived" while corrupting process state — Ballista's
    /// Silent class, the cost side of failure-oblivious execution.
    pub corruption_escaped: u64,
    /// Survivals attributable to an audited absorption (manufactured
    /// read, suppressed write or healing action on the record).
    pub absorbed_audited: u64,
    /// Survivals with **no** audit trace — each one is a violation of
    /// the no-silent-absorption contract and must be zero for a
    /// deployable oblivious wrapper.
    pub unaudited_escapes: u64,
}

/// Renders the policy-ablation section: one line per (function, policy)
/// sorted by function then policy, followed by a per-policy totals
/// block. Input order never matters, so two same-seed replays render
/// byte-identically.
pub fn render_ablation_report(library: &str, lines: &[AblationLine]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Policy ablation for `{library}`:");
    if lines.is_empty() {
        let _ = writeln!(out, "  (no crash cases replayed)");
        return out;
    }
    let mut sorted: Vec<&AblationLine> = lines.iter().collect();
    sorted.sort_by(|a, b| a.func.cmp(&b.func).then_with(|| a.policy.cmp(&b.policy)));
    let _ = writeln!(
        out,
        "  {:<14} {:<10} {:>8} {:>9} {:>8} {:>8} {:>10}",
        "function", "policy", "replayed", "survived", "escaped", "audited", "unaudited"
    );
    for l in &sorted {
        let _ = writeln!(
            out,
            "  {:<14} {:<10} {:>8} {:>9} {:>8} {:>8} {:>10}",
            l.func,
            l.policy,
            l.replayed,
            l.survived,
            l.corruption_escaped,
            l.absorbed_audited,
            l.unaudited_escapes
        );
    }
    let mut by_policy: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for l in &sorted {
        let t = by_policy.entry(l.policy.as_str()).or_insert((0, 0, 0, 0));
        t.0 += l.replayed;
        t.1 += l.survived;
        t.2 += l.corruption_escaped;
        t.3 += l.unaudited_escapes;
    }
    let _ = writeln!(out, "\n  Per-policy totals:");
    for (policy, (replayed, survived, escaped, unaudited)) in &by_policy {
        let _ = writeln!(
            out,
            "    {:<10} {}/{} survived, {} corruption escaped, {} unaudited",
            policy, survived, replayed, escaped, unaudited
        );
    }
    out
}

/// One function row of a substitution trial: the same recorded crash
/// cases replayed through the detecting (canary/terminate) wrapper and
/// through the safer-variant substitute, pre-rendered by the injector
/// into the profiler's report vocabulary. The row is the paper-level
/// claim: an overflow class moves from *detected* (process terminated
/// after the canary is smashed) to *prevented* (write clipped to the
/// exact extent, process keeps running).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstitutionLine {
    /// Wrapped function the cases were replayed against.
    pub func: String,
    /// Crash cases replayed through each arm.
    pub replayed: u64,
    /// Detection arm: cases the unsubstituted security wrapper answered
    /// by refusing or terminating (canary-detected after the fact).
    pub detected: u64,
    /// Substitution arm: cases that survived *with* a journaled
    /// `prevented` clip — the overflow never happened.
    pub prevented: u64,
    /// Substitution arm: cases that survived in total (prevented clips
    /// plus graceful rejections of unmeasurable preconditions).
    pub survived: u64,
    /// Same-seed behaviour divergences between the substitute and the
    /// unsubstituted reference on cases the reference passes — must be
    /// zero for a sound substitution (the CI gate).
    pub diverged: u64,
}

/// Renders the substitution trial: the prevented-vs-detected table, a
/// totals line, and the audit of every rewrite's discharged proof.
/// Deterministic: rows sort by function, proofs render in plan order.
pub fn render_substitution_report(
    library: &str,
    lines: &[SubstitutionLine],
    plans: &[typelattice::SubstitutionPlan],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Safer-variant substitution trial for `{library}`:");
    if lines.is_empty() {
        let _ = writeln!(out, "  (no crash cases replayed)");
    } else {
        let mut sorted: Vec<&SubstitutionLine> = lines.iter().collect();
        sorted.sort_by(|a, b| a.func.cmp(&b.func));
        let _ = writeln!(
            out,
            "  {:<14} {:>8} {:>9} {:>10} {:>9} {:>9}",
            "function", "replayed", "detected", "prevented", "survived", "diverged"
        );
        let mut tot = (0u64, 0u64, 0u64, 0u64, 0u64);
        for l in &sorted {
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>9} {:>10} {:>9} {:>9}",
                l.func, l.replayed, l.detected, l.prevented, l.survived, l.diverged
            );
            tot.0 += l.replayed;
            tot.1 += l.detected;
            tot.2 += l.prevented;
            tot.3 += l.survived;
            tot.4 += l.diverged;
        }
        let _ = writeln!(
            out,
            "\n  Totals: {} replayed, {} detected -> {} prevented \
             ({} survived, {} diverged)",
            tot.0, tot.1, tot.2, tot.3, tot.4
        );
    }
    let _ = writeln!(out, "\n  Substitution audit ({} proven plan(s)):", plans.len());
    for plan in plans {
        for line in plan.render_proof().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

/// Per-worker campaign metrics, pre-rendered by the injector into the
/// profiler's report vocabulary — like [`LintLine`], the profiler knows
/// nothing about campaigns; it renders whatever rows the workers
/// produced, deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerLine {
    /// Worker name (e.g. `worker-0`).
    pub worker: String,
    /// Functions this worker claimed from the shared queue.
    pub functions: usize,
    /// Injection tests it executed.
    pub executed: usize,
    /// Tests skipped via checkpoint hits.
    pub checkpoint_hits: usize,
    /// Flaky-outcome retries it performed.
    pub retries: usize,
    /// Contract violations (failures) it observed.
    pub failures: usize,
    /// Wall-clock microseconds the worker was busy.
    pub elapsed_micros: u64,
}

/// Renders the per-worker campaign metrics: one line per worker sorted
/// by name, then a totals line. Worker rows depend on scheduling, so
/// this report is for operators — it is deliberately kept out of the
/// deterministic campaign XML.
pub fn render_worker_report(library: &str, lines: &[WorkerLine]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Campaign worker metrics for `{library}`:");
    if lines.is_empty() {
        let _ = writeln!(out, "  (serial campaign — no workers)");
        return out;
    }
    let mut sorted: Vec<&WorkerLine> = lines.iter().collect();
    sorted.sort_by(|a, b| a.worker.cmp(&b.worker));
    let _ = writeln!(
        out,
        "  {:<10} {:>6} {:>9} {:>7} {:>8} {:>9} {:>10} {:>12}",
        "worker", "funcs", "executed", "hits", "retries", "failures", "elapsed", "tests/s"
    );
    let mut tot = WorkerLine {
        worker: String::new(),
        functions: 0,
        executed: 0,
        checkpoint_hits: 0,
        retries: 0,
        failures: 0,
        elapsed_micros: 0,
    };
    for w in &sorted {
        let rate = if w.elapsed_micros == 0 {
            0.0
        } else {
            w.executed as f64 * 1_000_000.0 / w.elapsed_micros as f64
        };
        let _ = writeln!(
            out,
            "  {:<10} {:>6} {:>9} {:>7} {:>8} {:>9} {:>8}us {:>12.0}",
            w.worker,
            w.functions,
            w.executed,
            w.checkpoint_hits,
            w.retries,
            w.failures,
            w.elapsed_micros,
            rate
        );
        tot.functions += w.functions;
        tot.executed += w.executed;
        tot.checkpoint_hits += w.checkpoint_hits;
        tot.retries += w.retries;
        tot.failures += w.failures;
        tot.elapsed_micros = tot.elapsed_micros.max(w.elapsed_micros);
    }
    let _ = writeln!(
        out,
        "  {:<10} {:>6} {:>9} {:>7} {:>8} {:>9} {:>8}us",
        "total",
        tot.functions,
        tot.executed,
        tot.checkpoint_hits,
        tot.retries,
        tot.failures,
        tot.elapsed_micros
    );
    out
}

/// Renders a fault report: the verdict that fired plus the journal's
/// call ring ([`crate::WrapperJournal::tail`]), oldest first — the call
/// history an operator reads to see what led up to a `Fault`, `Deny` or
/// heal.
pub fn render_fault_report(app: &str, fault: &str, tail: &[FlightRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "HEALERS fault report for `{app}`");
    let _ = writeln!(out, "Fault: {fault}");
    if tail.is_empty() {
        let _ =
            writeln!(out, "\nFlight recorder: (empty — recording disabled or no calls)");
        return out;
    }
    let _ = writeln!(out, "\nFlight recorder (last {} calls, oldest first):", tail.len());
    for rec in tail {
        let _ = writeln!(
            out,
            "  {}{} -> {} [{} cycles]",
            rec.func, rec.args, rec.verdict, rec.cycles
        );
    }
    out
}

/// Renders the fleet rollup report: top crashing functions fleet-wide,
/// per-application health, per-window crash rates, ingest accounting
/// and the bounded rejected-document sample. Every section iterates
/// sorted maps and the timing-dependent `retry_signals` gauge is
/// deliberately omitted, so two same-seed fleet runs render
/// byte-identically.
pub fn render_fleet_report(
    rollup: &crate::fleet::FleetRollup,
    accounting: &crate::fleet::FleetAccounting,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "HEALERS fleet rollup");
    let _ = writeln!(
        out,
        "{} documents merged ({} post-mortem), {} rejected\n",
        rollup.docs, rollup.crash_docs, rollup.rejected
    );

    let _ = writeln!(out, "Top crashing functions fleet-wide:");
    let top = rollup.top_crashing(10);
    if top.is_empty() {
        let _ = writeln!(out, "  (no crashes attributed)");
    } else {
        let _ = writeln!(
            out,
            "  {:<14} {:>8} {:>10} {:>8}",
            "function", "crashes", "calls", "errors"
        );
        for (name, f) in top {
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>10} {:>8}",
                name, f.crashes, f.calls, f.errors
            );
        }
    }

    let _ = writeln!(out, "\nPer-application health:");
    let _ = writeln!(
        out,
        "  {:<14} {:>6} {:>8} {:>10} {:>8} {:>7}",
        "application", "docs", "crashes", "calls", "errors", "heals"
    );
    for (app, h) in &rollup.per_app {
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>8} {:>10} {:>8} {:>7}",
            app, h.docs, h.crashes, h.calls, h.errors, h.heals
        );
    }

    let _ = writeln!(out, "\nCrash rate by window (\u{2030} of calls):");
    let _ = writeln!(
        out,
        "  {:<8} {:>6} {:>10} {:>8}   worst function",
        "window", "docs", "calls", "rate"
    );
    for (w, ws) in &rollup.windows {
        let calls: u64 = ws.per_func.values().map(|f| f.calls + f.crashes).sum();
        let crashes: u64 = ws.per_func.values().map(|f| f.crashes).sum();
        let rate = (crashes * 1000).checked_div(calls).unwrap_or(0);
        let worst = ws
            .per_func
            .iter()
            .filter(|(_, f)| f.crashes > 0)
            .max_by(|a, b| {
                a.1.crash_rate_x1000().cmp(&b.1.crash_rate_x1000()).then(b.0.cmp(a.0))
            })
            .map(|(name, f)| format!("{name} ({}\u{2030})", f.crash_rate_x1000()))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "  {:<8} {:>6} {:>10} {:>7}\u{2030}   {}",
            w, ws.docs, calls, rate, worst
        );
    }

    let _ = writeln!(out, "\nIngest accounting:");
    let _ = writeln!(
        out,
        "  {:<8} {:>9} {:>8} {:>9} {:>10}",
        "shard", "accepted", "merged", "rejected", "shed-full"
    );
    for i in 0..accounting.accepted_per_shard.len() {
        let _ = writeln!(
            out,
            "  {:<8} {:>9} {:>8} {:>9} {:>10}",
            i,
            accounting.accepted_per_shard[i],
            accounting.merged_per_shard.get(i).copied().unwrap_or(0),
            accounting.rejected_per_shard.get(i).copied().unwrap_or(0),
            accounting.shed_full_per_shard.get(i).copied().unwrap_or(0),
        );
    }
    let _ = writeln!(
        out,
        "  {:<8} {:>9} {:>8} {:>9} {:>10}   shed-closed {}  balanced {}",
        "total",
        accounting.accepted(),
        accounting.merged(),
        accounting.rejected(),
        accounting.shed_full(),
        accounting.shed_closed,
        accounting.balanced()
    );

    if !rollup.rejected_samples.is_empty() {
        let _ = writeln!(
            out,
            "\nRejected document samples (first {} of {}):",
            rollup.rejected_samples.len(),
            rollup.rejected
        );
        for s in &rollup.rejected_samples {
            let _ = writeln!(out, "  [{}] {:?}", s.reason, s.snippet);
        }
    }
    out
}

/// Renders the remediation director's escalation journal: one line per
/// decision in decision order, then a per-action summary. The journal
/// is already deterministic, so the rendering is too.
pub fn render_escalation_report(journal: &[crate::remedy::RemedyEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Escalation journal ({} decisions):", journal.len());
    if journal.is_empty() {
        let _ = writeln!(out, "  (fleet healthy — no remediation needed)");
        return out;
    }
    for ev in journal {
        let _ = writeln!(
            out,
            "  w{:<4} {:<14} {:<10} {:>9} -> {:<9} rate {:>4}\u{2030} ewma {:>4}\u{2030}  {}",
            ev.window,
            ev.func,
            ev.action.tag(),
            ev.from.tag(),
            ev.to.tag(),
            ev.rate_x1000,
            ev.ewma_x1000,
            ev.detail
        );
    }
    let mut by_action: BTreeMap<&str, usize> = BTreeMap::new();
    for ev in journal {
        *by_action.entry(ev.action.tag()).or_insert(0) += 1;
    }
    let _ = writeln!(out, "\n  Summary:");
    for (action, n) in &by_action {
        let _ = writeln!(out, "    {action:<12} x{n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;

    #[test]
    fn report_contains_all_sections() {
        let stats = Stats::new();
        stats.record_call("strtok", 900, None);
        stats.record_call("fopen", 100, Some(simproc::errno::ENOENT));
        let report = render_report("wordcount", &stats.snapshot());
        assert!(report.contains("wordcount"), "{report}");
        assert!(report.contains("Call frequency"));
        assert!(report.contains("strtok"));
        assert!(report.contains("90.00%"));
        assert!(report.contains("ENOENT"));
        assert!(report.contains("No such file or directory"));
    }

    #[test]
    fn empty_run_renders() {
        let report = render_report("idle", &Stats::new().snapshot());
        assert!(report.contains("no errors recorded"));
        assert!(report.contains("(none)"));
    }

    #[test]
    fn healing_journal_is_rendered() {
        use crate::journal::{HealAction, HealEvent, WrapperJournal};
        let stats = Stats::new();
        stats.record_call("strcpy", 100, None);
        let journal = WrapperJournal::new();
        journal.record(HealEvent {
            func: "strcpy".into(),
            arg: Some(1),
            violation: "readable NUL-terminated string".into(),
            class: "unterminated-string".into(),
            action: HealAction::Repaired,
            detail: "NUL-terminated buffer at offset 15".into(),
            absorbed: None,
        });
        let report =
            render_report_with_healing("editor", &stats.snapshot(), &journal.snapshot());
        assert!(report.contains("Healing audit journal (1 events):"), "{report}");
        assert!(report.contains("repaired"), "{report}");
        assert!(report.contains("arg 2"), "1-based in the report: {report}");
        assert!(report.contains("NUL-terminated buffer at offset 15"));

        let empty = render_report_with_healing("editor", &stats.snapshot(), &[]);
        assert!(empty.contains("no healing actions taken"), "{empty}");
    }

    #[test]
    fn health_report_leads_with_degraded_contracts() {
        use cdecl::{parse_prototype, TypedefTable};
        use typelattice::{Confidence, RobustApi, RobustFunction, SafePred};
        let t = TypedefTable::with_builtins();
        let mut good = RobustFunction::new(
            parse_prototype("size_t strlen(const char *s);", &t).unwrap(),
            vec![SafePred::CStr],
            true,
        );
        good.coverage = 1.0;
        let mut cut = RobustFunction::new(
            parse_prototype("int abs(int j);", &t).unwrap(),
            vec![SafePred::Always],
            false,
        );
        cut.confidence = Confidence::Partial;
        cut.coverage = 0.5;
        let api = RobustApi { library: "libsimc.so.1".into(), functions: vec![good, cut] };
        let report = render_robust_api_health(&api);
        assert!(report.contains("libsimc.so.1"), "{report}");
        let abs = report.find("abs").unwrap();
        let strlen = report.find("strlen").unwrap();
        assert!(abs < strlen, "degraded contracts listed first: {report}");
        assert!(report.contains("budget expired"), "{report}");
        assert!(report.contains("1 of 2 contracts are measurements"), "{report}");
        assert!(report.contains("75.0%"), "mean coverage: {report}");
    }

    #[test]
    fn lint_report_renders_sorted_and_deterministic() {
        let mk = |func: &str, rule: &str, msg: &str| LintLine {
            func: func.into(),
            rule: rule.into(),
            severity: "error".into(),
            message: msg.into(),
        };
        let lines = vec![
            mk("strcpy", "narrow-mask", "b"),
            mk("memcpy", "check-after-mutation", "a"),
            mk("strcpy", "check-after-mutation", "a"),
        ];
        let r1 = render_lint_report("libsimc.so.1", &lines);
        let mut reversed = lines.clone();
        reversed.reverse();
        let r2 = render_lint_report("libsimc.so.1", &reversed);
        assert_eq!(r1, r2, "input order must not matter");
        let memcpy = r1.find("memcpy").unwrap();
        let strcpy = r1.find("strcpy").unwrap();
        assert!(memcpy < strcpy, "{r1}");
        assert!(r1.contains("3 finding(s)"), "{r1}");

        let clean = render_lint_report("libsimc.so.1", &[]);
        assert!(clean.contains("no findings"), "{clean}");
    }

    #[test]
    fn ablation_report_renders_sorted_with_policy_totals() {
        let mk = |func: &str, policy: &str, survived: u64, escaped: u64| AblationLine {
            func: func.into(),
            policy: policy.into(),
            replayed: 10,
            survived,
            corruption_escaped: escaped,
            absorbed_audited: survived,
            unaudited_escapes: 0,
        };
        let lines = vec![
            mk("strcpy", "terminate", 0, 0),
            mk("memcpy", "oblivious", 9, 1),
            mk("strcpy", "oblivious", 10, 0),
        ];
        let r1 = render_ablation_report("libsimc.so.1", &lines);
        let mut reversed = lines.clone();
        reversed.reverse();
        let r2 = render_ablation_report("libsimc.so.1", &reversed);
        assert_eq!(r1, r2, "input order must not matter");
        let memcpy = r1.find("memcpy").unwrap();
        let strcpy = r1.find("strcpy").unwrap();
        assert!(memcpy < strcpy, "{r1}");
        assert!(r1.contains("Per-policy totals:"), "{r1}");
        assert!(r1.contains("oblivious  19/20 survived, 1 corruption escaped"), "{r1}");
        assert!(r1.contains("terminate  0/10 survived, 0 corruption escaped"), "{r1}");

        let empty = render_ablation_report("libsimc.so.1", &[]);
        assert!(empty.contains("no crash cases replayed"), "{empty}");
    }

    #[test]
    fn latency_section_renders_when_present() {
        let stats = Stats::new();
        stats.record_call("memcpy", 100, None);
        let plain = render_report("x", &stats.snapshot());
        assert!(!plain.contains("Latency histograms"), "{plain}");

        stats.record_latency("memcpy", "call", 3);
        stats.record_latency("memcpy", "call", 900);
        let report = render_report("x", &stats.snapshot());
        assert!(report.contains("Latency histograms"), "{report}");
        assert!(report.contains("memcpy [call] — 2 samples"), "{report}");
        assert!(report.contains("2..3"), "{report}");
        assert!(report.contains("512..1023"), "{report}");
    }

    #[test]
    fn worker_report_renders_sorted_with_totals() {
        let mk = |worker: &str, executed: usize| WorkerLine {
            worker: worker.into(),
            functions: 2,
            executed,
            checkpoint_hits: 1,
            retries: 0,
            failures: executed / 10,
            elapsed_micros: 1_000,
        };
        let lines = vec![mk("worker-1", 50), mk("worker-0", 100)];
        let r1 = render_worker_report("libsimc.so.1", &lines);
        let mut reversed = lines.clone();
        reversed.reverse();
        let r2 = render_worker_report("libsimc.so.1", &reversed);
        assert_eq!(r1, r2, "input order must not matter");
        let w0 = r1.find("worker-0").unwrap();
        let w1 = r1.find("worker-1").unwrap();
        assert!(w0 < w1, "{r1}");
        assert!(r1.contains("total"), "{r1}");
        assert!(r1.contains("150"), "summed executed: {r1}");

        let serial = render_worker_report("libsimc.so.1", &[]);
        assert!(serial.contains("no workers"), "{serial}");
    }

    #[test]
    fn fault_report_lists_flight_tail() {
        let tail = vec![
            FlightRecord {
                func: "malloc".into(),
                args: "(32)".into(),
                verdict: "ok".into(),
                cycles: 10,
            },
            FlightRecord {
                func: "strcpy".into(),
                args: "(0x1000, ...)".into(),
                verdict: "security-violation".into(),
                cycles: 44,
            },
        ];
        let report = render_fault_report("victim", "SecurityViolation in strcpy", &tail);
        assert!(report.contains("Fault: SecurityViolation in strcpy"), "{report}");
        assert!(report.contains("last 2 calls"), "{report}");
        assert!(report.contains("malloc(32) -> ok [10 cycles]"), "{report}");
        assert!(report.contains("strcpy(0x1000, ...) -> security-violation"), "{report}");
        let m = report.find("malloc").unwrap();
        let s = report.find("strcpy(0x1000").unwrap();
        assert!(m < s, "oldest first: {report}");

        let empty = render_fault_report("victim", "fault", &[]);
        assert!(empty.contains("recording disabled or no calls"), "{empty}");
    }

    #[test]
    fn functions_sorted_by_cycles() {
        let stats = Stats::new();
        stats.record_call("cheap", 10, None);
        stats.record_call("costly", 1000, None);
        let report = render_report("x", &stats.snapshot());
        let costly = report.find("costly").unwrap();
        let cheap = report.find("cheap").unwrap();
        assert!(costly < cheap);
    }

    #[test]
    fn fleet_report_renders_all_sections() {
        use crate::fleet::{
            AppHealth, FleetAccounting, FleetRollup, FuncRollup, WindowFunc, WindowStats,
        };
        let mut rollup =
            FleetRollup { docs: 12, crash_docs: 3, rejected: 1, ..FleetRollup::default() };
        rollup.per_func.insert(
            "strcpy".into(),
            FuncRollup { calls: 100, cycles: 4000, errors: 2, crashes: 3 },
        );
        rollup.per_app.insert(
            "editor".into(),
            AppHealth { docs: 12, crashes: 3, calls: 100, errors: 2, heals: 5 },
        );
        let mut w = WindowStats { docs: 12, ..WindowStats::default() };
        w.per_func.insert("strcpy".into(), WindowFunc { calls: 97, errors: 2, crashes: 3 });
        rollup.windows.insert(2, w);
        rollup
            .rejected_samples
            .push(crate::fleet::RejectedSample::of("junk", "no <healers-profile> root"));
        let accounting = FleetAccounting {
            accepted_per_shard: vec![7, 6],
            merged_per_shard: vec![6, 6],
            rejected_per_shard: vec![1, 0],
            shed_full_per_shard: vec![0, 2],
            shed_closed: 1,
            retry_signals: 9,
        };
        let report = render_fleet_report(&rollup, &accounting);
        assert!(report.contains("Top crashing functions"), "{report}");
        assert!(report.contains("strcpy"), "{report}");
        assert!(report.contains("editor"), "{report}");
        assert!(report.contains("strcpy (30\u{2030})"), "{report}");
        assert!(report.contains("balanced true"), "{report}");
        assert!(report.contains("no <healers-profile> root"), "{report}");
        assert!(
            !report.contains("retry"),
            "retry signals are timing-dependent and must stay out: {report}"
        );
    }

    #[test]
    fn escalation_report_lists_decisions_in_order() {
        use crate::remedy::{EscalationLevel, RemedyAction, RemedyEvent};
        let journal = vec![
            RemedyEvent {
                window: 2,
                func: "strcpy".into(),
                action: RemedyAction::Escalate,
                from: EscalationLevel::Observe,
                to: EscalationLevel::Contain,
                rate_x1000: 400,
                ewma_x1000: 10,
                detail: "burst".into(),
            },
            RemedyEvent {
                window: 4,
                func: "strcpy".into(),
                action: RemedyAction::Confirm,
                from: EscalationLevel::Contain,
                to: EscalationLevel::Contain,
                rate_x1000: 20,
                ewma_x1000: 120,
                detail: "improved".into(),
            },
        ];
        let report = render_escalation_report(&journal);
        assert!(report.contains("2 decisions"), "{report}");
        assert!(report.contains("observe -> contain"), "{report}");
        assert!(report.contains("escalate     x1"), "{report}");
        assert!(report.contains("confirm      x1"), "{report}");
        let empty = render_escalation_report(&[]);
        assert!(empty.contains("fleet healthy"), "{empty}");
    }
}
