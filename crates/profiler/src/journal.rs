//! The wrapper journal: one bounded record of what a wrapper library
//! decided and saw, behind one lock, shared through one `Arc` by every
//! hook of the library and by the compiled telemetry epilogue.
//!
//! * **Decisions** — every repair, retry, substitution, containment,
//!   termination, observation, prevention and oblivious absorption, one
//!   [`HealEvent`] each. An absorption carries what it manufactured or
//!   suppressed ([`Absorption`]), so it is recorded exactly once.
//! * **Tainted uses** — later calls that consumed a value an absorption
//!   manufactured, and the set of those values.
//! * **The call ring** — the last N calls (function, truncated
//!   arguments, verdict, cycles), kept only when a ring size is set.
//!
//! Two retention rules bound it. Decisions, uses and the taint set are
//! kept first-N, [`JOURNAL_CAP`] each by default; what comes after the
//! cap is counted, never dropped silently. The call ring keeps the last
//! N. The exit
//! document's `<healing>`, `<oblivious>` and `<flight-recorder>`
//! sections and the fault report are views over this one store.
//! Recording is deterministic (no clocks, no RNG), so same-seed runs
//! render byte-identically.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use parking_lot::Mutex;
use simproc::CVal;

/// Decisions, and separately tainted uses, a journal keeps before it
/// starts counting instead of storing. The remediation director's
/// escalation journal keeps the same first-N.
pub const JOURNAL_CAP: usize = 1024;

/// Longest argument string kept per call-ring entry; longer strings are
/// truncated with a `...` suffix so a pathological argument can never
/// bloat the ring.
pub const MAX_ARGS_LEN: usize = 64;

/// What the wrapper did about one violation or fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HealAction {
    /// An argument was repaired in place (or substituted) before the call.
    Repaired,
    /// The original was re-invoked with re-sanitized arguments.
    Retried,
    /// A fault was swallowed and a containment value returned with
    /// `errno = EINVAL`.
    Substituted,
    /// The call was skipped and a benign value manufactured, errno
    /// untouched (failure-oblivious mode).
    Obliviated,
    /// The call was rejected with `errno = EINVAL` (classic containment).
    Contained,
    /// The process was terminated (security response).
    Terminated,
    /// The violation was recorded and the call passed through unchanged
    /// (observe-only posture).
    Observed,
    /// An overflow was *prevented* outright: a proven-sound safer-variant
    /// substitution clipped the write to the destination's exact extent,
    /// so no canary was ever smashed and no process was terminated.
    Prevented,
}

impl HealAction {
    /// Stable tag used in XML documents and reports.
    pub fn tag(self) -> &'static str {
        match self {
            HealAction::Repaired => "repaired",
            HealAction::Retried => "retried",
            HealAction::Substituted => "substituted",
            HealAction::Obliviated => "obliviated",
            HealAction::Contained => "contained",
            HealAction::Terminated => "terminated",
            HealAction::Observed => "observed",
            HealAction::Prevented => "prevented",
        }
    }
}

impl fmt::Display for HealAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealEvent {
    /// Wrapped function in which the violation was observed.
    pub func: String,
    /// Zero-based index of the offending argument, when the event is
    /// attributable to one (fault-path events are not).
    pub arg: Option<usize>,
    /// The violated robust type, as the wrapper displays it.
    pub violation: String,
    /// Violation-class tag the policy engine resolved against.
    pub class: String,
    /// What the wrapper did.
    pub action: HealAction,
    /// Human-readable description of the concrete repair.
    pub detail: String,
    /// What an [`HealAction::Obliviated`] decision manufactured or
    /// suppressed; `None` for every other action.
    pub absorbed: Option<Absorption>,
}

/// The payload of an oblivious absorption: the `<read>` or `<write>`
/// the `<oblivious>` section renders next to the decision's function,
/// argument and detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Absorption {
    /// A value manufactured in place of the call.
    Read(ManufacturedRead),
    /// An out-of-bounds write suppressed instead of performed.
    Write(ShadowWrite),
}

/// A manufactured read: a check or fault the engine answered with a
/// context-selected benign value instead of letting the call proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManufacturedRead {
    /// Violation class tag (`null-pointer`, `buffer-overflow`, ...); the
    /// fault's tag (`segv`, ...) for an absorbed fault, whose decision
    /// has no violation class.
    pub class: String,
    /// The argument role that selected the value (`cstr-scan`,
    /// `buf-len-read`, `contract-default`, `fault-absorb`, ...).
    pub role: String,
    /// The manufactured value, rendered.
    pub value: String,
}

/// A suppressed out-of-bounds write, attributed to a precise object via
/// the guardian oracle's region introspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowWrite {
    /// Zero-based index of the destination argument — not necessarily
    /// the violated one (a violated size attributes its write to the
    /// buffer it sizes).
    pub arg: Option<usize>,
    /// Destination address of the suppressed write.
    pub addr: u64,
    /// Base of the object the destination resolves to (0 when the
    /// pointer resolves to no object at all).
    pub object_base: u64,
    /// Size of that object in bytes.
    pub object_extent: u64,
    /// Bytes the call would have written (0 when unmeasurable).
    pub attempted: u64,
    /// Bytes that fell outside the object — the corruption clipped.
    pub clipped: u64,
}

/// A downstream call that consumed a manufactured (tainted) value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintedUse {
    /// The consuming function.
    pub func: String,
    /// Zero-based argument index where the tainted value appeared.
    pub arg: usize,
    /// The tainted value, rendered.
    pub value: String,
}

/// One call in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Wrapped function name.
    pub func: String,
    /// Rendered argument list, truncated to [`MAX_ARGS_LEN`].
    pub args: String,
    /// Outcome: `"ok"`, or the fault / deny verdict.
    pub verdict: String,
    /// Cycles spent in the call (entry to exit, hooks included).
    pub cycles: u64,
}

/// The `<oblivious>` view of a journal: its absorptions and tainted
/// uses in record order, and how many of either the cap dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObliviousSnapshot {
    /// Decisions carrying an [`Absorption`], in record order.
    pub absorbed: Vec<HealEvent>,
    /// Downstream consumptions of manufactured values, in record order.
    pub uses: Vec<TaintedUse>,
    /// Absorptions and uses counted past the cap — non-zero means the
    /// view undercounts but says so.
    pub dropped: u64,
}

impl ObliviousSnapshot {
    /// The manufactured reads, in record order.
    pub fn reads(&self) -> impl Iterator<Item = (&HealEvent, &ManufacturedRead)> {
        self.absorbed.iter().filter_map(|e| match &e.absorbed {
            Some(Absorption::Read(r)) => Some((e, r)),
            _ => None,
        })
    }

    /// The suppressed writes, in record order.
    pub fn writes(&self) -> impl Iterator<Item = (&HealEvent, &ShadowWrite)> {
        self.absorbed.iter().filter_map(|e| match &e.absorbed {
            Some(Absorption::Write(w)) => Some((e, w)),
            _ => None,
        })
    }

    /// `true` when nothing was recorded (and nothing overflowed).
    pub fn is_empty(&self) -> bool {
        self.absorbed.is_empty() && self.uses.is_empty() && self.dropped == 0
    }
}

#[derive(Debug, Default)]
struct Inner {
    decisions: Vec<HealEvent>,
    uses: Vec<TaintedUse>,
    /// Non-zero manufactured values, for downstream taint matching; the
    /// first `cap` distinct ones.
    taint: BTreeSet<u64>,
    /// Distinct manufactured values the full taint set turned away.
    dropped_taint: u64,
    ring: VecDeque<FlightRecord>,
    /// Decisions counted past the cap.
    dropped_decisions: u64,
    /// Of those, the absorptions, plus the uses counted past the cap.
    dropped_oblivious: u64,
}

/// The bounded journal shared by every hook of a wrapper library.
#[derive(Debug)]
pub struct WrapperJournal {
    cap: usize,
    ring_cap: usize,
    inner: Mutex<Inner>,
}

impl Default for WrapperJournal {
    fn default() -> Self {
        WrapperJournal::with_cap(JOURNAL_CAP)
    }
}

impl WrapperJournal {
    /// A journal keeping [`JOURNAL_CAP`] decisions and uses, no call ring.
    pub fn new() -> Self {
        WrapperJournal::default()
    }

    /// A journal keeping `cap` decisions and `cap` uses, no call ring.
    pub fn with_cap(cap: usize) -> Self {
        WrapperJournal { cap, ring_cap: 0, inner: Mutex::default() }
    }

    /// Adds a ring of the last `len` calls (`0` keeps none).
    #[must_use]
    pub fn with_ring(mut self, len: usize) -> Self {
        self.ring_cap = len;
        self.inner.get_mut().ring = VecDeque::with_capacity(len.min(1024));
        self
    }

    /// Records one decision.
    pub fn record(&self, event: HealEvent) {
        self.push(&mut self.inner.lock(), event);
    }

    /// Records one oblivious absorption under a single lock: the
    /// decision with its payload, and `taint` (a manufactured value) into
    /// the taint set. The taint set has its own cap, so a value
    /// manufactured after the decisions overflowed is still tracked; a
    /// new value that finds the taint set full is counted
    /// ([`WrapperJournal::taint_dropped`]) and not tracked. Zero is never
    /// tracked: it is indistinguishable from a legitimate zero.
    pub fn record_oblivious(&self, event: HealEvent, taint: Option<u64>) {
        let mut inner = self.inner.lock();
        if let Some(v) = taint.filter(|&v| v != 0) {
            if inner.taint.len() < self.cap || inner.taint.contains(&v) {
                inner.taint.insert(v);
            } else {
                inner.dropped_taint += 1;
            }
        }
        self.push(&mut inner, event);
    }

    fn push(&self, inner: &mut Inner, event: HealEvent) {
        if inner.decisions.len() < self.cap {
            inner.decisions.push(event);
        } else {
            inner.dropped_decisions += 1;
            inner.dropped_oblivious += u64::from(event.absorbed.is_some());
        }
    }

    /// Records every non-NULL pointer argument of a call to `func` that
    /// equals a manufactured value as a downstream use of it.
    pub fn record_tainted_uses(&self, func: &str, args: &[CVal]) {
        let pointers = || {
            args.iter()
                .enumerate()
                .filter(|(_, v)| matches!(v, CVal::Ptr(p) if !p.is_null()))
        };
        if pointers().next().is_none() {
            return;
        }
        let mut inner = self.inner.lock();
        for (arg, v) in pointers() {
            if !inner.taint.contains(&v.as_ptr().get()) {
                continue;
            }
            if inner.uses.len() < self.cap {
                inner.uses.push(TaintedUse {
                    func: func.to_string(),
                    arg,
                    value: v.to_string(),
                });
            } else {
                inner.dropped_oblivious += 1;
            }
        }
    }

    /// Records one call into the ring, evicting the oldest entry when
    /// full; a no-op without a ring. `args` is truncated to
    /// [`MAX_ARGS_LEN`] characters.
    pub fn record_call(&self, func: &str, args: &str, verdict: &str, cycles: u64) {
        if self.ring_cap == 0 {
            return;
        }
        let args = match args.char_indices().nth(MAX_ARGS_LEN) {
            Some((end, _)) => format!("{}...", &args[..end]),
            None => args.to_string(),
        };
        let mut inner = self.inner.lock();
        if inner.ring.len() == self.ring_cap {
            inner.ring.pop_front();
        }
        inner.ring.push_back(FlightRecord {
            func: func.to_string(),
            args,
            verdict: verdict.to_string(),
            cycles,
        });
    }

    /// The kept decisions, in record order — the `<healing>` view.
    pub fn snapshot(&self) -> Vec<HealEvent> {
        self.inner.lock().decisions.clone()
    }

    /// Decisions counted past the cap.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped_decisions
    }

    /// Manufactured values not tracked because the taint set was full.
    pub fn taint_dropped(&self) -> u64 {
        self.inner.lock().dropped_taint
    }

    /// The `<oblivious>` view.
    pub fn oblivious(&self) -> ObliviousSnapshot {
        let inner = self.inner.lock();
        ObliviousSnapshot {
            absorbed: inner
                .decisions
                .iter()
                .filter(|e| e.absorbed.is_some())
                .cloned()
                .collect(),
            uses: inner.uses.clone(),
            dropped: inner.dropped_oblivious,
        }
    }

    /// The call ring, oldest first — the `<flight-recorder>` view.
    pub fn tail(&self) -> Vec<FlightRecord> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Number of kept decisions.
    pub fn len(&self) -> usize {
        self.inner.lock().decisions.len()
    }

    /// `true` when no decision was recorded.
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock();
        inner.decisions.is_empty() && inner.dropped_decisions == 0
    }

    /// Number of kept decisions with the given action.
    pub fn count(&self, action: HealAction) -> usize {
        self.inner.lock().decisions.iter().filter(|e| e.action == action).count()
    }

    /// Empties the journal — decisions, uses, taint set, ring and drop
    /// counts (benchmarks replay millions of healed calls).
    pub fn clear(&self) {
        *self.inner.lock() = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{render_document, DocSections};
    use crate::stats::Stats;
    use simproc::VirtAddr;

    fn decision(func: &str, action: HealAction) -> HealEvent {
        HealEvent {
            func: func.into(),
            arg: Some(0),
            violation: "readable NUL-terminated string".into(),
            class: "null-pointer".into(),
            action,
            detail: "NUL-terminated buffer at offset 15".into(),
            absorbed: None,
        }
    }

    fn read() -> Absorption {
        Absorption::Read(ManufacturedRead {
            class: "null-pointer".into(),
            role: "contract-default".into(),
            value: "0x4000".into(),
        })
    }

    fn write() -> Absorption {
        Absorption::Write(ShadowWrite {
            arg: Some(0),
            addr: 0x1000,
            object_base: 0x1000,
            object_extent: 8,
            attempted: 12,
            clipped: 4,
        })
    }

    /// Records an absorption in `func` that manufactured `taint`.
    fn absorb(j: &WrapperJournal, func: &str, absorbed: Absorption, taint: Option<u64>) {
        let event = decision(func, HealAction::Obliviated);
        j.record_oblivious(HealEvent { absorbed: Some(absorbed), ..event }, taint);
    }

    fn ptr(v: u64) -> CVal {
        CVal::Ptr(VirtAddr::new(v))
    }

    /// The exit document's journal sections, as `ExitReportHook` renders
    /// them for a healing wrapper.
    fn sections(j: &WrapperJournal) -> String {
        let (events, oblivious) = (j.snapshot(), j.oblivious());
        let sections = DocSections {
            healing: Some(&events),
            healing_dropped: j.dropped(),
            oblivious: Some(&oblivious),
            ..DocSections::default()
        };
        render_document("app", "healing", &Stats::new().snapshot(), &sections)
    }

    #[test]
    fn decisions_accumulate_in_order() {
        let j = WrapperJournal::new();
        assert!(j.is_empty());
        j.record(decision("strcpy", HealAction::Repaired));
        j.record(decision("strlen", HealAction::Contained));
        assert_eq!(j.len(), 2);
        let snap = j.snapshot();
        assert_eq!(snap[0].func, "strcpy");
        assert_eq!(snap[1].action, HealAction::Contained);
        assert_eq!(j.count(HealAction::Repaired), 1);
        assert_eq!(j.count(HealAction::Obliviated), 0);
        assert!(j.oblivious().is_empty(), "no absorption, nothing to disclose");
    }

    #[test]
    fn action_tags_are_stable() {
        assert_eq!(HealAction::Repaired.tag(), "repaired");
        assert_eq!(HealAction::Obliviated.to_string(), "obliviated");
        assert_eq!(HealAction::Terminated.tag(), "terminated");
    }

    #[test]
    fn default_keeps_entries() {
        let j = WrapperJournal::default();
        absorb(&j, "strstr", read(), None);
        j.record_call("strstr", "()", "ok", 1);
        assert_eq!(j.len(), 1);
        assert_eq!(j.oblivious().absorbed.len(), 1);
        assert_eq!(j.dropped(), 0);
        assert!(j.tail().is_empty(), "no ring unless one is asked for");
    }

    #[test]
    fn an_absorption_is_one_decision_in_both_views() {
        let j = WrapperJournal::new();
        absorb(&j, "strcpy", write(), None);
        assert_eq!(j.len(), 1);
        let snap = j.oblivious();
        assert_eq!(snap.absorbed, j.snapshot());
        assert_eq!(snap.writes().count(), 1);
        assert_eq!(snap.reads().count(), 0);
    }

    #[test]
    fn overflow_is_counted_in_both_sections_and_taint_survives_it() {
        let j = WrapperJournal::with_cap(2);
        j.record(decision("strlen", HealAction::Repaired));
        absorb(&j, "strstr", read(), Some(0x4000));
        let under_cap = sections(&j);
        assert!(under_cap.contains("<healing events=\"2\">"), "{under_cap}");
        // Past the cap: a write, a heal, a read and another write.
        absorb(&j, "strcpy", write(), None);
        j.record(decision("strlen", HealAction::Repaired));
        absorb(&j, "strstr", read(), Some(0x5000));
        absorb(&j, "memset", write(), None);
        assert_eq!((j.len(), j.dropped()), (2, 4));
        // The value manufactured past the cap is still tracked: its use
        // is kept like any other. The third use overflows.
        j.record_tainted_uses("puts", &[ptr(0x4000), CVal::NULL, ptr(0x5000)]);
        j.record_tainted_uses("puts", &[ptr(0x4000)]);
        let snap = j.oblivious();
        assert_eq!(snap.uses.len(), 2);
        assert_eq!(snap.uses[1].arg, 2);
        assert_eq!(snap.dropped, 4, "three absorptions and one use past the cap");
        let doc = sections(&j);
        assert!(doc.contains("<healing events=\"2\" dropped=\"4\">"), "{doc}");
        assert!(
            doc.contains("<oblivious reads=\"1\" writes=\"0\" uses=\"2\" dropped=\"4\">"),
            "{doc}"
        );
    }

    #[test]
    fn taint_set_never_exceeds_cap() {
        let j = WrapperJournal::with_cap(4);
        let tracked = |j: &WrapperJournal| j.inner.lock().taint.len();
        for v in 1..=10 {
            absorb(&j, "strdup", read(), Some(v * 0x100));
            assert!(tracked(&j) <= 4);
        }
        assert_eq!((tracked(&j), j.taint_dropped()), (4, 6));
        // A value already tracked is not a drop.
        absorb(&j, "strdup", read(), Some(0x100));
        assert_eq!(j.taint_dropped(), 6);
        // Only the first four values count as taint.
        j.record_tainted_uses("puts", &[ptr(0x400), ptr(0x500)]);
        let uses = j.oblivious().uses;
        assert_eq!(uses.len(), 1, "{uses:?}");
        assert_eq!(uses[0].arg, 0);
        j.clear();
        assert_eq!((tracked(&j), j.taint_dropped()), (0, 0));
    }

    #[test]
    fn taint_tracks_nonzero_manufactured_pointers_only() {
        let j = WrapperJournal::new();
        absorb(&j, "strlen", read(), Some(0));
        absorb(&j, "strdup", read(), Some(7));
        j.record_tainted_uses("strlen", &[CVal::NULL, CVal::Int(7), ptr(8), ptr(7)]);
        let uses = j.oblivious().uses;
        assert_eq!(uses.len(), 1, "NULL and integers never count: {uses:?}");
        assert_eq!(uses[0].arg, 3);
    }

    #[test]
    fn ring_keeps_only_the_last_n_calls() {
        let j = WrapperJournal::new().with_ring(3);
        for i in 0..5 {
            j.record_call("f", &format!("({i})"), "ok", i);
        }
        let tail = j.tail();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].args, "(2)");
        assert_eq!(tail[2].args, "(4)");
        assert!(j.is_empty(), "calls are not decisions");
    }

    #[test]
    fn ring_truncates_long_args() {
        let j = WrapperJournal::new().with_ring(1);
        j.record_call("f", &"é".repeat(200), "ok", 1);
        let tail = j.tail();
        assert_eq!(tail[0].args.chars().count(), MAX_ARGS_LEN + 3);
        assert!(tail[0].args.ends_with("..."));
    }

    #[test]
    fn clear_empties_every_part() {
        let j = WrapperJournal::with_cap(1).with_ring(4);
        j.record(decision("f", HealAction::Repaired));
        absorb(&j, "g", read(), Some(9));
        j.record_call("f", "()", "ok", 1);
        j.clear();
        assert!(j.is_empty() && j.tail().is_empty() && j.oblivious().is_empty());
        j.record_tainted_uses("puts", &[ptr(9)]);
        assert!(j.oblivious().uses.is_empty(), "the taint set is cleared");
        j.record_call("f", "()", "ok", 1);
        assert_eq!(j.tail().len(), 1, "the ring is kept");
    }
}
