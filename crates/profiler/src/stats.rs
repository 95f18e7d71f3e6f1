//! Runtime statistics gathered by the profiling wrapper's
//! micro-generators: call counters, errno histograms, per-function
//! execution time (deterministic cycles standing in for `rdtsc`) and
//! log2-bucketed latency histograms per function and hook stage.
//!
//! # One table per process
//!
//! Like the paper's generated wrapper, whose counters are plain globals
//! (`++call_counter_num_calls[i]`), a process keeps one table: [`Stats`]
//! is a single mutex over a [`Snapshot`]. Every wrapper that records
//! into it is driven from one host thread, so the lock is uncontended;
//! threads that do share a table serialize on it and lose nothing.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use simproc::errno::MAX_ERRNO;

/// A log2-bucketed latency histogram: bucket `0` counts zero-valued
/// samples, bucket `b >= 1` counts samples in `[2^(b-1), 2^b - 1]`.
/// Sparse — only buckets that received samples are stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: BTreeMap<u32, u64>,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// The bucket index a value falls into: `0` for `0`, else
    /// `64 - value.leading_zeros()` (so `1 -> 1`, `2..=3 -> 2`,
    /// `4..=7 -> 3`, ..., `u64::MAX -> 64`).
    pub fn bucket_of(value: u64) -> u32 {
        64 - value.leading_zeros()
    }

    /// The smallest value that lands in `bucket`.
    pub fn bucket_floor(bucket: u32) -> u64 {
        if bucket == 0 {
            0
        } else {
            1u64 << (bucket - 1)
        }
    }

    /// Human-readable range label for `bucket` (`"0"`, `"1"`,
    /// `"2..3"`, `"4..7"`, ...).
    pub fn bucket_label(bucket: u32) -> String {
        match bucket {
            0 | 1 => bucket.to_string(),
            64 => format!("{}..{}", 1u64 << 63, u64::MAX),
            b => format!("{}..{}", 1u64 << (b - 1), (1u64 << b) - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(Self::bucket_of(value)).or_insert(0) += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// `true` when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Iterates `(bucket index, count)` in ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(b, n)| (*b, *n))
    }
}

/// Statistics for one wrapped function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncStats {
    /// Number of calls (`call counter` micro-generator).
    pub calls: u64,
    /// Cycles spent inside the function (`function exectime`).
    pub cycles: u64,
    /// errno values produced by this function (`func errors`); the key
    /// `MAX_ERRNO` is the out-of-range bucket, as in Figure 3.
    pub errnos: BTreeMap<i32, u64>,
    /// Latency histograms keyed by hook stage (`"call"`, `"check"`,
    /// `"heal"`, ...). Only populated through
    /// [`Stats::record_latency`] — the classic recording paths leave it
    /// empty, which keeps the default XML document byte-identical to the
    /// pre-histogram format.
    pub latency: BTreeMap<String, LatencyHistogram>,
}

/// A snapshot of collected statistics — also the live table [`Stats`]
/// records into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-function statistics, sorted by name.
    pub per_func: BTreeMap<String, FuncStats>,
    /// Process-wide errno distribution (`collect errors`).
    pub global_errnos: BTreeMap<i32, u64>,
    /// Total cycles spent inside wrapped functions.
    pub total_cycles: u64,
}

impl Snapshot {
    /// Total calls across all functions.
    pub fn total_calls(&self) -> u64 {
        self.per_func.values().map(|f| f.calls).sum()
    }

    /// Percentage of wrapped-function time spent in `name`.
    pub fn time_share(&self, name: &str) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let cycles = self.per_func.get(name).map(|f| f.cycles).unwrap_or(0);
        100.0 * cycles as f64 / self.total_cycles as f64
    }

    /// `true` when any function carries a latency histogram.
    pub fn has_latency(&self) -> bool {
        self.per_func.values().any(|f| !f.latency.is_empty())
    }

    /// Looks up (or lazily creates) the per-function row. Lookups borrow
    /// `func` so the hot path never allocates; the owned key is only
    /// built the first time a function is seen.
    fn func_entry(&mut self, func: &str) -> &mut FuncStats {
        if !self.per_func.contains_key(func) {
            self.per_func.insert(func.to_string(), FuncStats::default());
        }
        self.per_func.get_mut(func).expect("row just ensured")
    }

    fn record_call(&mut self, func: &str, cycles: u64, errno_changed_to: Option<i32>) {
        let entry = self.func_entry(func);
        entry.calls += 1;
        entry.cycles += cycles;
        if let Some(e) = errno_changed_to {
            *entry.errnos.entry(bucket(e)).or_insert(0) += 1;
        }
        self.total_cycles += cycles;
        if let Some(e) = errno_changed_to {
            *self.global_errnos.entry(bucket(e)).or_insert(0) += 1;
        }
    }

    fn record_latency(&mut self, func: &str, stage: &str, value: u64) {
        let row = self.func_entry(func);
        if let Some(hist) = row.latency.get_mut(stage) {
            hist.record(value);
        } else {
            let mut hist = LatencyHistogram::new();
            hist.record(value);
            row.latency.insert(stage.to_string(), hist);
        }
    }
}

fn bucket(errno: i32) -> i32 {
    if !(0..MAX_ERRNO).contains(&errno) {
        MAX_ERRNO
    } else {
        errno
    }
}

/// Statistics for a whole profiled run: one table behind one lock,
/// shared by all hooks through an `Arc`, like the wrapper's globals.
#[derive(Debug, Default)]
pub struct Stats {
    table: Mutex<Snapshot>,
}

impl Stats {
    /// Creates an empty statistics table.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Records one completed call. `errno_changed_to` carries the errno
    /// value if the call changed errno (the `func errors` /
    /// `collect errors` condition in Figure 3).
    pub fn record_call(&self, func: &str, cycles: u64, errno_changed_to: Option<i32>) {
        self.table.lock().record_call(func, cycles, errno_changed_to);
    }

    /// `call counter` micro-generator: one more call of `func`.
    pub fn record_count(&self, func: &str) {
        self.table.lock().func_entry(func).calls += 1;
    }

    /// `function exectime` micro-generator: cycles spent inside `func`.
    pub fn record_cycles(&self, func: &str, cycles: u64) {
        let mut table = self.table.lock();
        table.func_entry(func).cycles += cycles;
        table.total_cycles += cycles;
    }

    /// `func errors` micro-generator: `func` changed errno to `errno`.
    pub fn record_func_errno(&self, func: &str, errno: i32) {
        *self.table.lock().func_entry(func).errnos.entry(bucket(errno)).or_insert(0) += 1;
    }

    /// `collect errors` micro-generator: process-wide errno histogram.
    pub fn record_global_errno(&self, errno: i32) {
        *self.table.lock().global_errnos.entry(bucket(errno)).or_insert(0) += 1;
    }

    /// Adds one sample to the log2 latency histogram of `func`'s `stage`
    /// (`"call"` for the wrapped call itself; hooks use their own stage
    /// names such as `"check"` or `"heal"`).
    pub fn record_latency(&self, func: &str, stage: &str, value: u64) {
        self.table.lock().record_latency(func, stage, value);
    }

    /// Takes a consistent snapshot: a copy of the table under its lock.
    pub fn snapshot(&self) -> Snapshot {
        self.table.lock().clone()
    }

    /// Clears everything (a fresh profiling run).
    pub fn reset(&self) {
        *self.table.lock() = Snapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simproc::errno::{EINVAL, ENOENT};

    #[test]
    fn records_calls_cycles_and_errnos() {
        let stats = Stats::new();
        stats.record_call("strcpy", 120, None);
        stats.record_call("strcpy", 80, None);
        stats.record_call("fopen", 300, Some(ENOENT));
        stats.record_call("fopen", 100, Some(EINVAL));
        let snap = stats.snapshot();
        assert_eq!(snap.total_calls(), 4);
        assert_eq!(snap.per_func["strcpy"].calls, 2);
        assert_eq!(snap.per_func["strcpy"].cycles, 200);
        assert_eq!(snap.per_func["fopen"].errnos[&ENOENT], 1);
        assert_eq!(snap.global_errnos[&EINVAL], 1);
        assert_eq!(snap.total_cycles, 600);
    }

    #[test]
    fn time_share_sums_to_100() {
        let stats = Stats::new();
        stats.record_call("a", 750, None);
        stats.record_call("b", 250, None);
        let snap = stats.snapshot();
        assert!((snap.time_share("a") - 75.0).abs() < 1e-9);
        assert!((snap.time_share("b") - 25.0).abs() < 1e-9);
        assert_eq!(snap.time_share("missing"), 0.0);
    }

    #[test]
    fn out_of_range_errnos_hit_the_overflow_bucket() {
        let stats = Stats::new();
        stats.record_call("f", 1, Some(-3));
        stats.record_call("f", 1, Some(9999));
        let snap = stats.snapshot();
        assert_eq!(snap.per_func["f"].errnos[&MAX_ERRNO], 2);
    }

    #[test]
    fn fine_grained_recording_matches_record_call() {
        let a = Stats::new();
        a.record_call("f", 100, Some(EINVAL));
        let b = Stats::new();
        b.record_count("f");
        b.record_cycles("f", 100);
        b.record_func_errno("f", EINVAL);
        b.record_global_errno(EINVAL);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn reset_clears() {
        let stats = Stats::new();
        stats.record_call("x", 5, None);
        stats.record_latency("x", "call", 5);
        stats.reset();
        assert_eq!(stats.snapshot(), Snapshot::default());
    }

    #[test]
    fn empty_snapshot_time_share_is_zero() {
        let snap = Stats::new().snapshot();
        assert_eq!(snap.time_share("anything"), 0.0);
        assert_eq!(snap.total_calls(), 0);
        assert!(!snap.has_latency());
    }

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(7), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LatencyHistogram::bucket_floor(0), 0);
        assert_eq!(LatencyHistogram::bucket_floor(1), 1);
        assert_eq!(LatencyHistogram::bucket_floor(11), 1024);
        assert_eq!(LatencyHistogram::bucket_label(2), "2..3");
        assert_eq!(LatencyHistogram::bucket_label(0), "0");
        assert_eq!(
            LatencyHistogram::bucket_label(64),
            format!("{}..{}", 1u64 << 63, u64::MAX)
        );
    }

    #[test]
    fn latency_histograms_record_and_merge() {
        let stats = Stats::new();
        for v in [0, 1, 2, 3, 900, 1100] {
            stats.record_latency("memcpy", "call", v);
        }
        stats.record_latency("memcpy", "check", 5);
        let snap = stats.snapshot();
        assert!(snap.has_latency());
        let call = &snap.per_func["memcpy"].latency["call"];
        assert_eq!(call.count(), 6);
        let buckets: Vec<_> = call.buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1), (11, 1)]);
        assert_eq!(snap.per_func["memcpy"].latency["check"].count(), 1);
        // Latency never leaks into the classic counters.
        assert_eq!(snap.per_func["memcpy"].calls, 0);
        assert_eq!(snap.total_cycles, 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let stats = std::sync::Arc::new(Stats::new());
        let threads = 8;
        let per_thread = 1000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let stats = std::sync::Arc::clone(&stats);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        stats.record_call("hot", 2, (i % 50 == 0).then_some(EINVAL));
                        stats.record_latency("hot", "call", t * per_thread + i);
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.per_func["hot"].calls, threads * per_thread);
        assert_eq!(snap.per_func["hot"].cycles, 2 * threads * per_thread);
        assert_eq!(snap.per_func["hot"].errnos[&EINVAL], threads * (per_thread / 50));
        assert_eq!(snap.per_func["hot"].latency["call"].count(), threads * per_thread);
    }
}
