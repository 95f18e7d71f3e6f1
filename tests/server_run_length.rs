//! A protected server must not slow down the longer it runs. Session
//! buffers whose canary was smashed stay allocated on purpose
//! (quarantine), so the live heap grows with the run. Every `free` the
//! security wrapper checks must therefore cost the same at request
//! 300 000 as at request 10 000: in metered cycles, which are
//! deterministic, and in host time, which is not. Both hold in every
//! build profile:
//!
//! ```sh
//! cargo test --test server_run_length
//! ```

use std::time::{Duration, Instant};

use healers::{run_server_sim, ServerConfig, ServerReport};

fn config(requests: u64) -> ServerConfig {
    // Protected and adversarial: double frees and smashes in the mix.
    ServerConfig { requests, ..ServerConfig::default() }
}

/// The fastest of `runs` runs, with its wall-clock time.
fn best_of(runs: usize, requests: u64) -> (ServerReport, Duration) {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            let report = run_server_sim(&config(requests));
            (report, start.elapsed())
        })
        .min_by_key(|(_, elapsed)| *elapsed)
        .expect("at least one run")
}

#[test]
fn request_cost_stays_flat_from_10k_to_300k_requests() {
    let runs = 3;
    // A run with no requests costs the wrapper build, link and process
    // set-up; subtracting it leaves the time spent serving.
    let (_, setup) = best_of(runs, 0);
    let (short, short_time) = best_of(runs, 10_000);
    let (long, long_time) = best_of(runs.min(2), 300_000);
    for report in [&short, &long] {
        assert_eq!(report.lost, 0, "{}", report.canonical);
        assert_eq!(report.faulted, 0, "{}", report.canonical);
    }
    assert!(
        long.quarantined > 10 * short.quarantined,
        "the live heap must grow with the run: {} vs {} quarantined",
        long.quarantined,
        short.quarantined
    );

    let cycles = |r: &ServerReport, n: f64| r.cycles as f64 / n;
    let (short_cycles, long_cycles) = (cycles(&short, 1e4), cycles(&long, 3e5));
    assert!(
        (long_cycles / short_cycles - 1.0).abs() <= 0.05,
        "cycles per request drift with run length: {short_cycles:.2} at 10k, \
         {long_cycles:.2} at 300k"
    );

    let ns = |t: Duration, n: f64| t.saturating_sub(setup).as_nanos() as f64 / n;
    let (short_ns, long_ns) = (ns(short_time, 1e4), ns(long_time, 3e5));
    assert!(
        long_ns <= 2.0 * short_ns,
        "host time per request grows with run length: {short_ns:.0} ns at 10k, \
         {long_ns:.0} ns at 300k (set-up {setup:?})"
    );
}
