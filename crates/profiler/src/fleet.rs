//! The central collection service of §2.3: wrappers running in many
//! processes ship their self-describing XML documents to one place "for
//! later processing". Transport is in-process; the document format and
//! aggregation are the paper's.
//!
//! One service covers both scales. A plain central server is
//! [`FleetConfig::central`] (one shard); a fleet ingests through N
//! shards. Each shard's queue is **bounded**, and its back-pressure has
//! one form: a submitter waits for room. Either way documents are
//! parsed and merged *while they arrive* (streaming rollups: top
//! crashing functions fleet-wide, per-app health, per-window crash
//! rates), and every document is accounted for exactly: a `true` from
//! [`FleetCollector::submit_until_accepted`] is a guarantee of
//! collection, and a document refused at shutdown is counted on
//! `shed_closed` — nothing is silently lost.
//!
//! Accounting invariant (checked by [`FleetAccounting::balanced`]):
//! `accepted == merged + rejected`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::doc::parse_fleet_document;

// ---------------------------------------------------------------------------
// rejected-document samples

/// How many rejected documents the service keeps as a sample for
/// diagnosis (the first K to arrive, with their parse-failure
/// reasons). Beyond the cap, rejects are counted but not stored.
pub const REJECTED_SAMPLE_CAP: usize = 8;

/// How much of a rejected document's text is kept in its sample.
pub const REJECTED_SNIPPET_LEN: usize = 96;

/// A diagnosable trace of one rejected document: why it failed to parse
/// and the head of its text. Without these, a fleet with one malformed
/// submitter shows only a climbing reject counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedSample {
    /// Stable parse-failure reason tag from [`parse_fleet_document`].
    pub reason: &'static str,
    /// The first [`REJECTED_SNIPPET_LEN`] bytes of the document.
    pub snippet: String,
}

impl RejectedSample {
    /// Builds a sample for a document that failed to parse with `reason`.
    pub fn of(doc: &str, reason: &'static str) -> Self {
        let mut end = doc.len().min(REJECTED_SNIPPET_LEN);
        while !doc.is_char_boundary(end) {
            end -= 1;
        }
        RejectedSample { reason, snippet: doc[..end].to_string() }
    }
}

// ---------------------------------------------------------------------------
// configuration

/// Fleet service configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of ingest shards (worker threads), each with its own
    /// bounded queue and rollup accumulator.
    pub shards: usize,
    /// Per-shard queue capacity (documents). A submitter finding its
    /// shard full waits for room.
    pub queue_capacity: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { shards: 4, queue_capacity: 256 }
    }
}

impl FleetConfig {
    /// A plain central server (§2.3): one ingest shard. Like every
    /// service, it makes submitters wait while its queue is full, so no
    /// document is ever shed before shutdown.
    pub fn central() -> Self {
        FleetConfig { shards: 1, ..FleetConfig::default() }
    }
}

// ---------------------------------------------------------------------------
// rollups

/// Fleet-wide totals for one wrapped function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncRollup {
    /// Calls across every submitted document.
    pub calls: u64,
    /// Cycles across every submitted document.
    pub cycles: u64,
    /// errno-reporting calls across every submitted document.
    pub errors: u64,
    /// Documents whose process died with a fatal fault escaping this
    /// function.
    pub crashes: u64,
}

/// Health of one application across the fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppHealth {
    /// Documents received for this application.
    pub docs: u64,
    /// Of those, post-mortem documents (the process crashed).
    pub crashes: u64,
    /// Total wrapped calls reported.
    pub calls: u64,
    /// Total errno-reporting calls reported.
    pub errors: u64,
    /// Healing-journal events reported.
    pub heals: u64,
}

/// One function's activity inside one logical reporting window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowFunc {
    /// Calls reported in this window.
    pub calls: u64,
    /// errno-reporting calls reported in this window.
    pub errors: u64,
    /// Crash documents attributing their fatal fault to this function.
    pub crashes: u64,
}

impl WindowFunc {
    /// Crash rate in this window, in fixed-point thousandths
    /// (crashes per 1000 calls; the crashing call itself is counted).
    pub fn crash_rate_x1000(&self) -> u64 {
        let calls = self.calls + self.crashes;
        self.crashes.saturating_mul(1000).checked_div(calls).unwrap_or(0)
    }
}

/// Per-function activity inside one logical reporting window — what the
/// remediation director consumes, one window at a time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Function name → activity, sorted.
    pub per_func: BTreeMap<String, WindowFunc>,
    /// Documents merged into this window.
    pub docs: u64,
}

/// The live fleet rollup: everything merged so far. All maps are sorted
/// and all counters are commutative sums, so the rollup — and any
/// report rendered from it — is byte-identical however submissions
/// interleaved across shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetRollup {
    /// Documents merged.
    pub docs: u64,
    /// Of those, post-mortem (crash) documents.
    pub crash_docs: u64,
    /// Documents that failed to parse.
    pub rejected: u64,
    /// Fleet-wide per-function totals.
    pub per_func: BTreeMap<String, FuncRollup>,
    /// Per-application health.
    pub per_app: BTreeMap<String, AppHealth>,
    /// Per-window activity, keyed by logical window number.
    pub windows: BTreeMap<u64, WindowStats>,
    /// Bounded sample of rejected documents (sorted for determinism,
    /// capped at [`REJECTED_SAMPLE_CAP`]).
    pub rejected_samples: Vec<RejectedSample>,
}

impl FleetRollup {
    fn absorb_doc(&mut self, doc: &crate::doc::FleetDoc) {
        self.docs += 1;
        let crashed = doc.crashed_in.is_some();
        if crashed {
            self.crash_docs += 1;
        }
        let app = self.per_app.entry(doc.application.clone()).or_default();
        app.docs += 1;
        app.heals += doc.heal_events;
        if crashed {
            app.crashes += 1;
        }
        let window = self.windows.entry(doc.window).or_default();
        window.docs += 1;
        for f in &doc.functions {
            let fr = self.per_func.entry(f.name.clone()).or_default();
            fr.calls += f.calls;
            fr.cycles += f.cycles;
            fr.errors += f.errors;
            let wf = window.per_func.entry(f.name.clone()).or_default();
            wf.calls += f.calls;
            wf.errors += f.errors;
            let app = self.per_app.entry(doc.application.clone()).or_default();
            app.calls += f.calls;
            app.errors += f.errors;
        }
        if let Some(func) = &doc.crashed_in {
            self.per_func.entry(func.clone()).or_default().crashes += 1;
            window.per_func.entry(func.clone()).or_default().crashes += 1;
        }
    }

    fn absorb_reject(&mut self, doc: &str, reason: &'static str) {
        self.rejected += 1;
        if self.rejected_samples.len() < REJECTED_SAMPLE_CAP {
            self.rejected_samples.push(RejectedSample::of(doc, reason));
        }
    }

    /// Merges another rollup in (commutative: shard accumulators can be
    /// merged in any order).
    pub fn merge(&mut self, other: &FleetRollup) {
        self.docs += other.docs;
        self.crash_docs += other.crash_docs;
        self.rejected += other.rejected;
        for (name, fr) in &other.per_func {
            let mine = self.per_func.entry(name.clone()).or_default();
            mine.calls += fr.calls;
            mine.cycles += fr.cycles;
            mine.errors += fr.errors;
            mine.crashes += fr.crashes;
        }
        for (name, ah) in &other.per_app {
            let mine = self.per_app.entry(name.clone()).or_default();
            mine.docs += ah.docs;
            mine.crashes += ah.crashes;
            mine.calls += ah.calls;
            mine.errors += ah.errors;
            mine.heals += ah.heals;
        }
        for (w, ws) in &other.windows {
            let mine = self.windows.entry(*w).or_default();
            mine.docs += ws.docs;
            for (name, wf) in &ws.per_func {
                let m = mine.per_func.entry(name.clone()).or_default();
                m.calls += wf.calls;
                m.errors += wf.errors;
                m.crashes += wf.crashes;
            }
        }
        self.rejected_samples.extend(other.rejected_samples.iter().cloned());
        // Shard arrival order is scheduling-dependent; a sorted, capped
        // sample keeps the merged rollup deterministic.
        self.rejected_samples
            .sort_by(|a, b| (a.reason, &a.snippet).cmp(&(b.reason, &b.snippet)));
        self.rejected_samples.truncate(REJECTED_SAMPLE_CAP);
    }

    /// The top-N crashing functions fleet-wide: most crashes first,
    /// ties by name.
    pub fn top_crashing(&self, n: usize) -> Vec<(&str, &FuncRollup)> {
        let mut v: Vec<_> = self.per_func.iter().filter(|(_, f)| f.crashes > 0).collect();
        v.sort_by(|a, b| b.1.crashes.cmp(&a.1.crashes).then(a.0.cmp(b.0)));
        v.truncate(n);
        v.into_iter().map(|(k, f)| (k.as_str(), f)).collect()
    }
}

// ---------------------------------------------------------------------------
// exact accounting

/// The service's exact accounting, snapshot at shutdown (or live).
/// Every submission lands on exactly one of: `accepted` (thence
/// `merged` or `rejected`) or `shed_closed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetAccounting {
    /// Acked (queued) submissions, per shard.
    pub accepted_per_shard: Vec<u64>,
    /// Documents merged into rollups, per shard.
    pub merged_per_shard: Vec<u64>,
    /// Documents that failed to parse, per shard.
    pub rejected_per_shard: Vec<u64>,
    /// Documents dropped because a shard was full, per shard. Always 0:
    /// a submitter waits for room instead. Kept so the fleet report's
    /// `shed-full` column still renders.
    pub shed_full_per_shard: Vec<u64>,
    /// Submissions refused because the service was shutting down,
    /// including submitters still waiting on a full shard at that point.
    pub shed_closed: u64,
    /// Retry back-pressure signals handed out. Always 0: no submission
    /// is ever told to retry.
    pub retry_signals: u64,
}

impl FleetAccounting {
    /// Total acked submissions.
    pub fn accepted(&self) -> u64 {
        self.accepted_per_shard.iter().sum()
    }

    /// Total merged documents.
    pub fn merged(&self) -> u64 {
        self.merged_per_shard.iter().sum()
    }

    /// Total parse-rejected documents.
    pub fn rejected(&self) -> u64 {
        self.rejected_per_shard.iter().sum()
    }

    /// Total queue-full drops (always 0).
    pub fn shed_full(&self) -> u64 {
        self.shed_full_per_shard.iter().sum()
    }

    /// Total sheds of either kind.
    pub fn shed_total(&self) -> u64 {
        self.shed_full() + self.shed_closed
    }

    /// The zero-loss invariant: every acked document was merged or
    /// rejected-with-trace; nothing acked went missing.
    pub fn balanced(&self) -> bool {
        self.accepted() == self.merged() + self.rejected()
    }
}

// ---------------------------------------------------------------------------
// the service

/// A shard's queue state, all behind one mutex. `accepted` is counted
/// under it, and shutdown sets `closed` under it, so every push that
/// took the lock before the close is drained by the shard's worker.
#[derive(Debug, Default)]
struct ShardQueue {
    items: VecDeque<String>,
    closed: bool,
    accepted: u64,
}

/// One ingest shard: a bounded queue, the worker's counters and the
/// shard-local rollup.
#[derive(Debug, Default)]
struct Shard {
    queue: Mutex<ShardQueue>,
    not_full: Condvar,
    not_empty: Condvar,
    merged: AtomicU64,
    rejected: AtomicU64,
    accum: Mutex<FleetRollup>,
}

impl Shard {
    fn lock_queue(&self) -> MutexGuard<'_, ShardQueue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The worker loop: take every queued document at once, wake the
    /// submitters waiting for room, then parse the batch and merge it
    /// into the shard-local rollup outside the queue lock. Returns once
    /// the queue is closed *and* drained.
    fn ingest(&self) {
        let mut batch = VecDeque::new();
        loop {
            let mut q = self.lock_queue();
            while q.items.is_empty() && !q.closed {
                q = self.not_empty.wait(q).unwrap_or_else(|p| p.into_inner());
            }
            if q.items.is_empty() {
                return;
            }
            std::mem::swap(&mut q.items, &mut batch);
            drop(q);
            self.not_full.notify_all();
            let mut accum = self.accum.lock().unwrap_or_else(|p| p.into_inner());
            for doc in batch.drain(..) {
                match parse_fleet_document(&doc) {
                    Ok(parsed) => {
                        accum.absorb_doc(&parsed);
                        self.merged.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(reason) => {
                        accum.absorb_reject(&doc, reason);
                        self.rejected.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }
    }

    /// Closes the queue: waiting and later submitters are refused, the
    /// worker drains what remains and exits.
    fn close(&self) {
        self.lock_queue().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// The ingest state a [`FleetService`] and its collectors share.
#[derive(Debug)]
struct Ingest {
    shards: Vec<Shard>,
    queue_capacity: usize,
    rr: AtomicUsize,
    shed_closed: AtomicU64,
}

/// Handle for submitting documents to a running [`FleetService`].
/// Clones are cheap; submitters on any thread share the shards.
#[derive(Debug, Clone)]
pub struct FleetCollector {
    ingest: Arc<Ingest>,
}

impl FleetCollector {
    /// Submits `document` to the next shard in round-robin order,
    /// waiting while that shard is full. Returns `true` once the
    /// document is queued, which guarantees it reaches the rollup, and
    /// `false` if the service closed first (counted in `shed_closed`).
    pub fn submit_until_accepted(&self, document: &str) -> bool {
        let ingest = &*self.ingest;
        let i = ingest.rr.fetch_add(1, Ordering::Relaxed) % ingest.shards.len();
        let shard = &ingest.shards[i];
        let doc = document.to_string();
        let mut q = shard.lock_queue();
        while !q.closed && q.items.len() >= ingest.queue_capacity {
            q = shard.not_full.wait(q).unwrap_or_else(|p| p.into_inner());
        }
        if q.closed {
            drop(q);
            ingest.shed_closed.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        q.items.push_back(doc);
        q.accepted += 1;
        // The worker waits only on an empty queue: only the push that
        // ends the emptiness has anyone to wake.
        let wake = q.items.len() == 1;
        drop(q);
        if wake {
            shard.not_empty.notify_one();
        }
        true
    }
}

/// The sharded, back-pressured fleet collection service. Construction
/// spawns one worker thread per shard; each worker parses submissions
/// off its bounded queue and merges them into its shard-local rollup as
/// they arrive (streaming, not post-shutdown). [`FleetService::shutdown`]
/// closes every queue, lets the workers drain them, and returns the
/// merged rollup with exact accounting.
#[derive(Debug)]
pub struct FleetService {
    ingest: Arc<Ingest>,
    workers: Vec<JoinHandle<()>>,
}

/// Everything the fleet service gathered by shutdown time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetGathered {
    /// The merged rollup.
    pub rollup: FleetRollup,
    /// The exact ingest accounting.
    pub accounting: FleetAccounting,
}

impl FleetService {
    /// Starts the service with `config`.
    pub fn start(config: FleetConfig) -> Self {
        let ingest = Arc::new(Ingest {
            shards: (0..config.shards.max(1)).map(|_| Shard::default()).collect(),
            queue_capacity: config.queue_capacity.max(1),
            rr: AtomicUsize::new(0),
            shed_closed: AtomicU64::new(0),
        });
        let workers = (0..ingest.shards.len())
            .map(|i| {
                let ingest = Arc::clone(&ingest);
                std::thread::spawn(move || ingest.shards[i].ingest())
            })
            .collect();
        FleetService { ingest, workers }
    }

    /// A handle submitters use.
    pub fn collector(&self) -> FleetCollector {
        FleetCollector { ingest: Arc::clone(&self.ingest) }
    }

    /// Waits until every accepted document has been merged (or
    /// rejected) by its shard worker. Call between submission phases —
    /// with no submitter mid-flight — to seal a logical window before
    /// reading [`FleetService::rollup_snapshot`].
    pub fn quiesce(&self) {
        loop {
            let a = self.accounting();
            if a.merged() + a.rejected() >= a.accepted() {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// A merged copy of the live rollup — the streaming view. Counters
    /// lag in-queue documents; call [`FleetService::quiesce`] first for
    /// a sealed view.
    pub fn rollup_snapshot(&self) -> FleetRollup {
        let mut out = FleetRollup::default();
        for shard in &self.ingest.shards {
            out.merge(&shard.accum.lock().unwrap_or_else(|p| p.into_inner()));
        }
        out
    }

    /// The live accounting counters.
    pub fn accounting(&self) -> FleetAccounting {
        let shards = &self.ingest.shards;
        FleetAccounting {
            accepted_per_shard: shards.iter().map(|s| s.lock_queue().accepted).collect(),
            merged_per_shard: shards
                .iter()
                .map(|s| s.merged.load(Ordering::SeqCst))
                .collect(),
            rejected_per_shard: shards
                .iter()
                .map(|s| s.rejected.load(Ordering::SeqCst))
                .collect(),
            shed_full_per_shard: vec![0; shards.len()],
            shed_closed: self.ingest.shed_closed.load(Ordering::SeqCst),
            retry_signals: 0,
        }
    }

    /// Stops accepting submissions, drains every shard, joins the
    /// workers and returns the merged rollup with exact accounting.
    pub fn shutdown(mut self) -> FleetGathered {
        self.close_and_join();
        FleetGathered { rollup: self.rollup_snapshot(), accounting: self.accounting() }
    }

    fn close_and_join(&mut self) {
        for shard in &self.ingest.shards {
            shard.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{to_xml_for_fleet, FleetMeta};
    use crate::stats::Stats;

    fn doc(app: &str, instance: u64, window: u64, crashed: bool) -> String {
        let stats = Stats::new();
        stats.record_call("strcpy", 40, None);
        stats.record_call("strlen", 10, Some(simproc::errno::EINVAL));
        let meta = FleetMeta {
            instance,
            window,
            crashed_in: crashed.then(|| "strcpy".to_string()),
            fault: crashed.then(|| "segv".to_string()),
        };
        to_xml_for_fleet(app, "healing", &meta, &stats.snapshot(), None)
    }

    #[test]
    fn accepted_documents_land_in_the_rollup() {
        let service = FleetService::start(FleetConfig::default());
        let c = service.collector();
        for i in 0..10 {
            assert!(c.submit_until_accepted(&doc("editor", i, i / 4, i % 3 == 0)));
        }
        let out = service.shutdown();
        assert_eq!(out.rollup.docs, 10);
        assert_eq!(out.rollup.crash_docs, 4);
        assert_eq!(out.rollup.per_app["editor"].docs, 10);
        assert_eq!(out.rollup.per_func["strcpy"].crashes, 4);
        assert_eq!(out.rollup.per_func["strcpy"].calls, 10);
        assert_eq!(out.rollup.per_func["strlen"].errors, 10);
        assert_eq!(out.rollup.windows.len(), 3);
        assert!(out.accounting.balanced(), "{:?}", out.accounting);
    }

    #[test]
    fn malformed_documents_are_rejected_with_samples() {
        let service = FleetService::start(FleetConfig::default());
        let c = service.collector();
        assert!(c.submit_until_accepted("not xml"), "accepted into the queue");
        assert!(c.submit_until_accepted("<healers-profile foo=\"1\">"));
        assert!(c.submit_until_accepted(&doc("ok", 1, 0, false)));
        let out = service.shutdown();
        assert_eq!(out.rollup.docs, 1);
        assert_eq!(out.rollup.rejected, 2);
        assert_eq!(out.rollup.rejected_samples.len(), 2);
        let reasons: Vec<_> =
            out.rollup.rejected_samples.iter().map(|s| s.reason).collect();
        assert!(reasons.contains(&"no <healers-profile> root"), "{reasons:?}");
        assert!(reasons.contains(&"missing application attribute"), "{reasons:?}");
        assert!(out.accounting.balanced());
    }

    #[test]
    fn waiting_submitters_never_lose_or_shed() {
        let service = FleetService::start(FleetConfig { shards: 2, queue_capacity: 2 });
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = service.collector();
                std::thread::spawn(move || {
                    let d = doc("app", t, 0, false);
                    let mut accepted = 0u64;
                    for _ in 0..100 {
                        if c.submit_until_accepted(&d) {
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let accepted: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(accepted, 400);
        let out = service.shutdown();
        assert_eq!(out.accounting.shed_total(), 0);
        assert_eq!(out.rollup.docs, 400);
        assert!(out.accounting.balanced());
    }

    #[test]
    fn submissions_after_shutdown_are_counted_shed_closed() {
        let service = FleetService::start(FleetConfig::default());
        let c = service.collector();
        assert!(c.submit_until_accepted(&doc("app", 0, 0, false)));
        let out = service.shutdown();
        assert_eq!(out.rollup.docs, 1);
        assert!(!c.submit_until_accepted("late"));
        assert_eq!(c.ingest.shed_closed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_submitter_waiting_at_shutdown_is_refused_and_counted() {
        // One shard of capacity 1 whose worker is held mid-batch: the
        // first document is taken, the second fills the queue, the third
        // waits for room. Closing the shard refuses the waiter; the two
        // acked documents are still collected.
        let service = FleetService::start(FleetConfig { shards: 1, queue_capacity: 1 });
        let shard = &service.ingest.shards[0];
        let held = shard.accum.lock().unwrap();
        let c = service.collector();
        let submitter = std::thread::spawn(move || {
            (0..3)
                .map(|i| c.submit_until_accepted(&doc("app", i, 0, false)))
                .collect::<Vec<_>>()
        });
        while service.accounting().accepted() < 2 {
            std::thread::yield_now();
        }
        shard.close();
        drop(held);
        assert_eq!(submitter.join().unwrap(), [true, true, false]);
        let out = service.shutdown();
        assert_eq!(out.accounting.accepted(), 2);
        assert_eq!(out.accounting.shed_closed, 1);
        assert_eq!(out.rollup.docs, 2);
        assert!(out.accounting.balanced(), "{:?}", out.accounting);
    }

    #[test]
    fn escaped_names_roll_up_unescaped() {
        // `XmlWriter` escapes `& < > "` in attribute values; ingest must
        // undo it, or an application named `r&d` rolls up as `r&amp;d`.
        let service = FleetService::start(FleetConfig::central());
        let c = service.collector();
        let stats = Stats::new();
        stats.record_call("<op>", 7, None);
        let meta = FleetMeta {
            instance: 1,
            window: 0,
            crashed_in: Some("<op>".into()),
            fault: Some("segv".into()),
        };
        let d = to_xml_for_fleet("r&d", "healing", &meta, &stats.snapshot(), None);
        assert!(c.submit_until_accepted(&d));
        let out = service.shutdown();
        let apps: Vec<_> = out.rollup.per_app.keys().map(String::as_str).collect();
        assert_eq!(apps, ["r&d"]);
        let funcs: Vec<_> = out.rollup.per_func.keys().map(String::as_str).collect();
        assert_eq!(funcs, ["<op>"], "crash attribution lands on the same function");
        assert_eq!(out.rollup.per_func["<op>"].crashes, 1);
        assert_eq!(out.rollup.per_func["<op>"].calls, 1);
    }

    #[test]
    fn every_acked_submission_is_collected() {
        // The shutdown race: a submitter could pass the `closed` check,
        // the service could then drain and exit, and the enqueue still
        // "succeed" into a queue nobody reads — an ack for a silently
        // dropped document. Race submitters against shutdown and assert
        // that every ack is accounted for, every round, with one shard
        // (the central server) and with several, and with a queue of one
        // so that submitters are waiting for room when shutdown lands.
        use std::sync::atomic::AtomicUsize;
        for shards in [1, 4] {
            for queue_capacity in [1, 256] {
                for round in 0..50 {
                    let service =
                        FleetService::start(FleetConfig { shards, queue_capacity });
                    let acked = Arc::new(AtomicUsize::new(0));
                    let submitters: Vec<_> = (0..4)
                        .map(|t| {
                            let c = service.collector();
                            let acked = Arc::clone(&acked);
                            std::thread::spawn(move || {
                                for i in 0..20 {
                                    let d = doc(&format!("app-{t}"), i, 0, false);
                                    if !c.submit_until_accepted(&d) {
                                        // Once the service refuses, it stays shut.
                                        return;
                                    }
                                    acked.fetch_add(1, Ordering::SeqCst);
                                    std::thread::yield_now();
                                }
                            })
                        })
                        .collect();
                    // Shut down somewhere in the middle of the submission storm.
                    if round % 2 == 0 {
                        std::thread::yield_now();
                    }
                    let out = service.shutdown();
                    // Every submitter returns: none is left waiting on a
                    // closed shard.
                    for t in submitters {
                        t.join().unwrap();
                    }
                    let acked = acked.load(Ordering::SeqCst) as u64;
                    let at = format!(
                        "{shards} shards, capacity {queue_capacity}, round {round}"
                    );
                    assert_eq!(
                        acked,
                        out.accounting.merged() + out.accounting.rejected(),
                        "{at}: every acked submission is collected"
                    );
                    assert_eq!(acked, out.rollup.docs + out.rollup.rejected, "{at}");
                    assert_eq!(out.accounting.accepted(), acked, "{at}");
                    assert!(out.accounting.balanced(), "{at}: {:?}", out.accounting);
                }
            }
        }
    }

    #[test]
    fn rollup_is_deterministic_across_shard_interleavings() {
        let run = |shards: usize| {
            let service =
                FleetService::start(FleetConfig { shards, ..FleetConfig::default() });
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let c = service.collector();
                    std::thread::spawn(move || {
                        for i in 0..50u64 {
                            let d = doc("editor", t * 100 + i, i % 5, i % 7 == 0);
                            assert!(c.submit_until_accepted(&d));
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            service.shutdown().rollup
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a, b, "rollup independent of sharding and interleaving");
    }
}
