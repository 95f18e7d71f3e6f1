//! Fleet ingest throughput benchmark: documents per second through the
//! sharded collection service at 1, 4 and 16 shards, submitted by 8
//! concurrent threads; a submitter finding its shard's queue full waits
//! for room (`submit_until_accepted`).
//!
//! Each run asserts exact accounting — every submission acked, every
//! ack merged — so the numbers measure the *correct* path, not a lossy
//! one. Run with `--json` for a machine-readable summary (all values
//! integers, suitable for `BENCH_fleet.json` and the CI perf-smoke
//! gate).

use std::time::Instant;

use profiler::{FleetConfig, FleetMeta, FleetService, Stats};

const THREADS: u64 = 8;
const DOCS_PER_THREAD: u64 = 4_000;

fn sample_doc(instance: u64) -> String {
    let stats = Stats::new();
    stats.record_call("strcpy", 40 + instance % 16, None);
    stats.record_call("strlen", 10, None);
    stats.record_call("memcpy", 25, Some(simproc::errno::EINVAL));
    let meta = FleetMeta {
        instance,
        window: instance % 8,
        crashed_in: if instance.is_multiple_of(50) { Some("strcpy".into()) } else { None },
        fault: if instance.is_multiple_of(50) { Some("segv".into()) } else { None },
    };
    profiler::to_xml_for_fleet("bench-app", "healing", &meta, &stats.snapshot(), None)
}

/// Thousands of documents per second ingested (submitted, parsed and
/// merged) at the given shard count.
fn bench(shards: usize, docs: &[String]) -> u64 {
    let service = FleetService::start(FleetConfig { shards, queue_capacity: 256 });
    let total = THREADS * DOCS_PER_THREAD;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let c = service.collector();
            let docs = &docs;
            scope.spawn(move || {
                for i in 0..DOCS_PER_THREAD {
                    let doc =
                        &docs[((t * DOCS_PER_THREAD + i) % docs.len() as u64) as usize];
                    assert!(c.submit_until_accepted(doc), "service refused a document");
                }
            });
        }
    });
    let out = service.shutdown();
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(out.accounting.accepted(), total, "every submission acked");
    assert_eq!(out.rollup.docs, total, "every ack merged");
    assert!(out.accounting.balanced(), "{:?}", out.accounting);
    (total as f64 / elapsed / 1_000.0) as u64
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let docs: Vec<String> = (0..256).map(sample_doc).collect();

    // Warm-up pass: allocator, parser and branch predictors.
    let _ = bench(2, &docs);

    let shards1_kdocs_per_s = bench(1, &docs);
    let shards4_kdocs_per_s = bench(4, &docs);
    let shards16_kdocs_per_s = bench(16, &docs);
    let docs_total = THREADS * DOCS_PER_THREAD;
    // 4-shard vs 1-shard win, x100 (integer). Only meaningful with real
    // parallelism: on a 1-core box both configurations serialize and
    // this sits near 100 — `cores` records the provenance so gates can
    // skip the comparison there.
    let speedup_x100 =
        (shards4_kdocs_per_s * 100).checked_div(shards1_kdocs_per_s).unwrap_or(0);

    if json {
        println!("{{");
        println!("  \"docs\": {docs_total},");
        println!("  \"cores\": {cores},");
        println!("  \"threads\": {THREADS},");
        println!("  \"shards1_kdocs_per_s\": {shards1_kdocs_per_s},");
        println!("  \"shards4_kdocs_per_s\": {shards4_kdocs_per_s},");
        println!("  \"shards16_kdocs_per_s\": {shards16_kdocs_per_s},");
        println!("  \"speedup_x100\": {speedup_x100}");
        println!("}}");
    } else {
        println!(
            "fleet ingest ({docs_total} docs, {THREADS} submitter threads, {cores} core(s)):"
        );
        println!("   1 shard   {shards1_kdocs_per_s:>7} kdocs/s");
        println!("   4 shards  {shards4_kdocs_per_s:>7} kdocs/s");
        println!("  16 shards  {shards16_kdocs_per_s:>7} kdocs/s");
        println!("  4-shard/1-shard speedup: {speedup_x100}x100");
    }
}
