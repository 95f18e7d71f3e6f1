//! A simulated multi-threaded network server under sustained load.
//!
//! The concurrent-workload counterpart of [`crate::fleet`]: where the
//! fleet runs *many processes* each with one thread, this module runs
//! *one process* with many simulated worker threads sharing an address
//! space and a heap — the shape of a real network daemon. Each worker
//! handles a stream of requests end to end (parse → `malloc` → string
//! processing → `free`) through the dynamically-linked (and optionally
//! wrapper-interposed) C library, driven by a seeded load generator at a
//! configurable request mix.
//!
//! # Determinism across worker counts
//!
//! The scheduler is request-granular: request `r` is handled start to
//! finish by worker `r % workers`, and workers are switched between
//! requests, never inside one. The heap-visible state sequence is
//! therefore a function of the *global request order only* — the same
//! allocations, copies and frees happen against the same addresses
//! whatever the worker count. Per-worker state (stacks, errno, memo
//! tables) differs, but none of it feeds the canonical report: metered
//! call costs are length-dependent, not address-dependent, and errno is
//! reset at request entry. That is what makes [`ServerReport::canonical`]
//! and [`ServerReport::telemetry_xml`] byte-identical at 1, 4 or 8
//! workers for the same seed — the merge-discipline invariant the CI
//! gate holds.
//!
//! # The adversarial mix
//!
//! With [`ServerConfig::adversarial`] on (requires `protected`), the
//! load generator folds in the two cross-thread fault classes of
//! `injector`: a racing double-free (one worker frees a session buffer
//! another worker already dropped) and a cross-thread smash (one worker
//! overflows a shared session buffer through *unwrapped* stores; the
//! canary planted by the security wrapper is detected when a different
//! worker later frees it). Every such request is contained by the
//! wrapper and accounted — the server keeps serving.

use cdecl::{parse_prototype, TypedefTable};
use injector::{classify, Outcome};
use interpose::{Executable, Loader, Session, System};
use profiler::to_xml;
use simproc::{splitmix64, CVal, Fault, ThreadId, VirtAddr};
use typelattice::{RobustApi, RobustFunction, SafePred};
use wrappergen::{build_wrapper, WrapperConfig, WrapperKind, WrapperLibrary};

use crate::bridge::as_preload_library;

/// Configuration of one server run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulated worker threads sharing the process (≥ 1; worker 0 is
    /// the main thread).
    pub workers: usize,
    /// Total requests the load generator produces.
    pub requests: u64,
    /// Seed of the load generator: same seed, same request stream.
    pub seed: u64,
    /// Preload the security wrapper (canaries + terminating checks).
    pub protected: bool,
    /// Fold cross-thread attack shapes into the mix. Only meaningful —
    /// and only honoured — when `protected` is set: the bare allocator
    /// offers nothing to contain them with.
    pub adversarial: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            requests: 10_000,
            seed: 0xD00D_F00D,
            protected: true,
            adversarial: true,
        }
    }
}

/// What happened to every request — the server's books must balance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReport {
    /// Workers the run actually used.
    pub workers: usize,
    /// Requests handled to completion (any verdict).
    pub handled: u64,
    /// Requests that completed cleanly.
    pub ok: u64,
    /// Requests that completed with a graceful `errno` error.
    pub rejected: u64,
    /// Requests stopped by the wrapper (security violation contained).
    pub contained: u64,
    /// Requests that died on an uncontained fault (bare mode only).
    pub faulted: u64,
    /// Requests unaccounted for: **must be zero** — the gate invariant.
    pub lost: u64,
    /// Session buffers quarantined after a detected smash (left
    /// allocated on purpose: their canary is gone, freeing them would
    /// trip the wrapper again).
    pub quarantined: u64,
    /// Simulated cycles consumed by the whole run.
    pub cycles: u64,
    /// Requests handled per worker (worker-count dependent — kept out
    /// of the canonical report by construction).
    pub per_worker: Vec<u64>,
    /// Worker-count-invariant text report: byte-identical for the same
    /// seed at any worker count.
    pub canonical: String,
    /// Worker-count-invariant telemetry XML from the wrapper's stats
    /// (`None` when running unprotected).
    pub telemetry_xml: Option<String>,
}

/// The robust API the server's security wrapper is generated from —
/// hand-written with the same contracts a campaign derives, so server
/// construction does not pay for a fault-injection campaign.
fn server_api() -> RobustApi {
    let t = TypedefTable::with_builtins();
    let f = |proto: &str, preds: Vec<SafePred>| {
        RobustFunction::new(parse_prototype(proto, &t).expect("prototype"), preds, true)
    };
    RobustApi {
        library: "libsimc.so.1".into(),
        functions: vec![
            f("void *malloc(size_t n);", vec![SafePred::Always]),
            f("void free(void *p);", vec![SafePred::HeapChunkOrNull]),
            f(
                "char *strcpy(char *dest, const char *src);",
                vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr],
            ),
            f("size_t strlen(const char *s);", vec![SafePred::CStr]),
            f("int atoi(const char *s);", vec![SafePred::CStr]),
        ],
    }
}

/// Builds the server's security wrapper: canaries on the allocator,
/// terminating extent checks on the string functions, per-call latency
/// telemetry into the wrapper's stats.
pub fn server_wrapper() -> WrapperLibrary {
    build_wrapper(
        WrapperKind::Security,
        &server_api(),
        &WrapperConfig { latency_histograms: true, ..WrapperConfig::default() },
    )
}

const SYMBOLS: [&str; 6] = ["malloc", "free", "strcpy", "strlen", "atoi", "fopen"];

/// The shared session table: pointers stored by one request (on one
/// worker) and dropped by a later request (usually on another worker).
const SESSION_SLOTS: usize = 16;

#[derive(Clone, Copy)]
struct StoredBuf {
    ptr: VirtAddr,
    /// Canary smashed by an earlier request; the next free detects it.
    smashed: bool,
}

/// One generated request. Everything here is a pure function of
/// `(seed, r)` — never of the worker count.
enum Request {
    /// Parse-and-echo: malloc, strcpy in, strlen, free.
    Echo { len: u64 },
    /// Numeric parse: atoi over the receive buffer.
    Parse { value: u64 },
    /// Measure: strlen over the receive buffer.
    Count { len: u64 },
    /// Probe a config file that does not exist: the graceful-`errno`
    /// reject path (`fopen` → NULL + `ENOENT`).
    Probe,
    /// Open a session: malloc + strcpy, pointer parked in the table.
    Store { slot: usize, len: u64 },
    /// Close a session: free the parked pointer.
    Drop { slot: usize },
    /// Attack: free a session buffer twice across requests.
    DoubleFree { slot: usize },
    /// Attack: overflow a session buffer via unwrapped stores; the
    /// smash is detected by the canary when another worker frees it.
    Smash { slot: usize },
}

const STORE_CAP: u64 = 40;

fn generate(seed: u64, r: u64, adversarial: bool) -> Request {
    let roll = splitmix64(seed ^ r.wrapping_mul(0x9E37_79B9));
    let slot = (splitmix64(roll) % SESSION_SLOTS as u64) as usize;
    let len = 1 + splitmix64(roll ^ 0xBEEF) % (STORE_CAP - 8);
    match roll % 100 {
        0..=34 => Request::Echo { len },
        35..=54 => Request::Parse { value: splitmix64(roll ^ 0xCAFE) % 1_000_000 },
        55..=64 => Request::Count { len },
        65..=69 => Request::Probe,
        70..=84 => Request::Store { slot, len },
        85..=92 => Request::Drop { slot },
        93..=96 if adversarial => Request::DoubleFree { slot },
        _ if adversarial => Request::Smash { slot },
        _ => Request::Drop { slot },
    }
}

/// Writes the request payload into the shared receive buffer. This is
/// the "network read" — app-side stores, not library calls — and it is
/// also what guarantees every request starts on a fresh memo epoch:
/// writing memory bumps the address-space epoch, expiring every
/// worker's validation memo identically at any worker count.
fn fill_rx(s: &mut Session<'_>, rx: VirtAddr, bytes: &[u8]) -> Result<(), Fault> {
    let mut buf = bytes.to_vec();
    buf.push(0);
    s.proc().write_bytes(rx, &buf)
}

fn payload(len: u64) -> Vec<u8> {
    (0..len).map(|i| b'a' + (i % 26) as u8).collect()
}

/// Addresses fixed at server start-up (the app's own static data).
#[derive(Clone, Copy)]
struct Fixtures {
    /// The shared "network receive buffer".
    rx: VirtAddr,
    /// The literal `"r"` fopen mode string.
    mode: VirtAddr,
}

fn handle(
    s: &mut Session<'_>,
    fx: Fixtures,
    table: &mut [Option<StoredBuf>],
    req: &Request,
    quarantined: &mut u64,
) -> Result<CVal, Fault> {
    // Per-worker stack scratch: the "parse" step copies the header into
    // the handling thread's own stack frame. Stack addresses differ per
    // worker, but no library call ever sees them — only the (length-
    // dependent, address-independent) metered store cost registers.
    s.proc().push_frame("handle_request")?;
    let result = handle_inner(s, fx, table, req, quarantined);
    s.proc().pop_frame()?;
    result
}

fn handle_inner(
    s: &mut Session<'_>,
    fx: Fixtures,
    table: &mut [Option<StoredBuf>],
    req: &Request,
    quarantined: &mut u64,
) -> Result<CVal, Fault> {
    let rx = fx.rx;
    let scratch = s.proc().stack_alloc(16)?;
    match req {
        Request::Echo { len } => {
            let body = payload(*len);
            fill_rx(s, rx, &body)?;
            let head = &body[..body.len().min(8)];
            s.proc().write_bytes(scratch, head)?;
            let dst = s.call("malloc", &[CVal::Int(*len as i64 + 1)])?;
            if dst.as_ptr() == VirtAddr::NULL {
                return Ok(CVal::Int(-1));
            }
            s.call("strcpy", &[dst, CVal::Ptr(rx)])?;
            let n = s.call("strlen", &[dst])?;
            s.call("free", &[dst])?;
            Ok(n)
        }
        Request::Parse { value } => {
            fill_rx(s, rx, value.to_string().as_bytes())?;
            s.call("atoi", &[CVal::Ptr(rx)])
        }
        Request::Count { len } => {
            fill_rx(s, rx, &payload(*len))?;
            s.call("strlen", &[CVal::Ptr(rx)])
        }
        Request::Probe => {
            fill_rx(s, rx, b"no/such/config")?;
            // Missing file: NULL + ENOENT — the graceful reject path.
            s.call("fopen", &[CVal::Ptr(rx), CVal::Ptr(fx.mode)])
        }
        Request::Store { slot, len } => {
            let body = payload(*len);
            fill_rx(s, rx, &body)?;
            // Re-home an occupied session first; a smashed one is
            // quarantined, not freed (its canary is already gone).
            if let Some(old) = table[*slot].take() {
                if old.smashed {
                    *quarantined += 1;
                } else {
                    s.call("free", &[CVal::Ptr(old.ptr)])?;
                }
            }
            let buf = s.call("malloc", &[CVal::Int(STORE_CAP as i64)])?;
            if buf.as_ptr() == VirtAddr::NULL {
                return Ok(CVal::Int(-1));
            }
            s.call("strcpy", &[buf, CVal::Ptr(rx)])?;
            table[*slot] = Some(StoredBuf { ptr: buf.as_ptr(), smashed: false });
            Ok(CVal::Int(*slot as i64))
        }
        Request::Drop { slot } | Request::DoubleFree { slot } => {
            let Some(stored) = table[*slot] else {
                // Session already closed: answer with a measurement.
                fill_rx(s, rx, &payload(7))?;
                return s.call("strlen", &[CVal::Ptr(rx)]);
            };
            table[*slot] = None;
            let first = s.call("free", &[CVal::Ptr(stored.ptr)]);
            if stored.smashed {
                // The canary planted on another worker's malloc and
                // smashed by a third worker's overflow is detected
                // here; the buffer is quarantined either way.
                *quarantined += 1;
            }
            first?;
            if matches!(req, Request::DoubleFree { .. }) {
                // The racing free: a stale worker closing the same
                // session again. The wrapper must refuse it.
                s.call("free", &[CVal::Ptr(stored.ptr)])?;
            }
            Ok(CVal::Int(0))
        }
        Request::Smash { slot } => {
            let Some(stored) = table[*slot] else {
                fill_rx(s, rx, &payload(5))?;
                return s.call("strlen", &[CVal::Ptr(rx)]);
            };
            // The overflow happens through plain app stores — the exact
            // path no library wrapper can see. STORE_CAP bytes of junk
            // plus 8 more lands squarely on the wrapper's guard word
            // (the security malloc inflated the chunk by 8, so the
            // write stays inside the allocation: allocator metadata is
            // *not* harmed — only the canary, which is the point).
            let junk = vec![0xEEu8; STORE_CAP as usize + 8];
            s.proc().write_bytes(stored.ptr, &junk)?;
            table[*slot] = Some(StoredBuf { ptr: stored.ptr, smashed: true });
            Ok(CVal::Int(0))
        }
    }
}

/// Runs the simulated server to completion and balances the books.
///
/// # Panics
///
/// On a broken harness (link failure, thread spawn failure) — never on
/// request-level faults, which are contained and accounted.
pub fn run_server_sim(cfg: &ServerConfig) -> ServerReport {
    let workers = cfg.workers.max(1);
    let adversarial = cfg.adversarial && cfg.protected;

    let wrapper = cfg.protected.then(server_wrapper);
    let mut loader = Loader::new();
    if let Some(w) = &wrapper {
        loader.preload(as_preload_library(w));
    }
    let system = System::standard();
    fn no_entry(_s: &mut Session<'_>) -> Result<i32, Fault> {
        Ok(0)
    }
    let exe = Executable::new("simserved", &["libsimc.so.1"], &SYMBOLS, no_entry);
    let image = loader.load(&system, &exe).expect("server links");

    let mut proc = simlibc::setup::init_process();
    let mut tids = vec![ThreadId::MAIN];
    for w in 1..workers {
        tids.push(proc.spawn_thread(&format!("worker-{w}")).expect("worker stack"));
    }

    let mut s = Session::new(&mut proc, &image);
    let fx = Fixtures { rx: s.static_buf(64), mode: s.literal("r") };

    let mut table: Vec<Option<StoredBuf>> = vec![None; SESSION_SLOTS];
    let (mut ok, mut rejected, mut contained, mut faulted) = (0u64, 0u64, 0u64, 0u64);
    let mut quarantined = 0u64;
    let mut per_worker = vec![0u64; workers];

    let start_cycles = s.proc().cycles();
    for r in 0..cfg.requests {
        let w = (r % workers as u64) as usize;
        s.proc().switch_thread(tids[w]);
        s.proc().set_errno(0);
        let req = generate(cfg.seed, r, adversarial);
        let result = handle(&mut s, fx, &mut table, &req, &mut quarantined);
        let errno_after = s.proc().errno();
        per_worker[w] += 1;
        let outcome = classify(result, 0, errno_after).outcome;
        match outcome {
            Outcome::Pass => ok += 1,
            Outcome::GracefulError => rejected += 1,
            Outcome::Contained => contained += 1,
            _ => faulted += 1,
        }
    }

    // Drain: close every remaining session on the main thread so each
    // allocation is accounted — freed, or quarantined with its reason.
    s.proc().switch_thread(ThreadId::MAIN);
    for slot in table.iter_mut() {
        if let Some(stored) = slot.take() {
            if stored.smashed {
                quarantined += 1;
            } else {
                s.call("free", &[CVal::Ptr(stored.ptr)]).expect("drain free");
            }
        }
    }
    let cycles = s.proc().cycles() - start_cycles;

    let handled = ok + rejected + contained + faulted;
    let lost = cfg.requests - handled;

    // The canonical report deliberately omits the worker count and any
    // per-worker split: same seed, same bytes, any parallelism.
    let canonical = format!(
        "== simserved load report ==\n\
         seed:        {:#018x}\n\
         requests:    {}\n\
         ok:          {ok}\n\
         rejected:    {rejected}\n\
         contained:   {contained}\n\
         faulted:     {faulted}\n\
         lost:        {lost}\n\
         quarantined: {quarantined}\n\
         cycles:      {cycles}\n",
        cfg.seed, cfg.requests,
    );
    let telemetry_xml =
        wrapper.as_ref().map(|w| to_xml("simserved", "security", &w.stats.snapshot()));

    ServerReport {
        workers,
        handled,
        ok,
        rejected,
        contained,
        faulted,
        lost,
        quarantined,
        cycles,
        per_worker,
        canonical,
        telemetry_xml,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn books_balance_and_requests_mix() {
        let rep = run_server_sim(&ServerConfig {
            workers: 4,
            requests: 2_000,
            ..ServerConfig::default()
        });
        assert_eq!(rep.lost, 0, "every request must be accounted");
        assert_eq!(rep.handled, 2_000);
        assert_eq!(rep.faulted, 0, "the wrapper contains every attack");
        assert!(rep.ok > 0);
        assert!(rep.rejected > 0, "the graceful-errno path must be exercised: {rep:?}");
        assert!(rep.contained > 0, "the adversarial mix must be exercised: {rep:?}");
        assert_eq!(rep.per_worker.iter().sum::<u64>(), 2_000);
        assert!(rep.per_worker.iter().all(|&n| n == 500));
    }

    #[test]
    fn canonical_report_is_worker_count_invariant() {
        let base = ServerConfig { requests: 1_500, ..ServerConfig::default() };
        let one = run_server_sim(&ServerConfig { workers: 1, ..base.clone() });
        let four = run_server_sim(&ServerConfig { workers: 4, ..base.clone() });
        let eight = run_server_sim(&ServerConfig { workers: 8, ..base });
        assert_eq!(one.canonical, four.canonical);
        assert_eq!(four.canonical, eight.canonical);
        assert_eq!(one.telemetry_xml, four.telemetry_xml);
        assert_eq!(four.telemetry_xml, eight.telemetry_xml);
        assert_eq!(one.cycles, eight.cycles, "metered cost is schedule-invariant");
    }

    #[test]
    fn different_seeds_produce_different_streams() {
        let a = run_server_sim(&ServerConfig {
            requests: 800,
            seed: 1,
            ..ServerConfig::default()
        });
        let b = run_server_sim(&ServerConfig {
            requests: 800,
            seed: 2,
            ..ServerConfig::default()
        });
        assert_ne!(a.canonical, b.canonical);
    }

    #[test]
    fn unprotected_run_survives_the_clean_mix() {
        // Bare mode never honours the adversarial flag: the clean mix
        // runs loss-free against the raw allocator (the raw baseline
        // the benchmark compares against).
        let rep = run_server_sim(&ServerConfig {
            workers: 4,
            requests: 2_000,
            protected: false,
            adversarial: true,
            ..ServerConfig::default()
        });
        assert_eq!(rep.lost, 0);
        assert_eq!(rep.contained, 0);
        assert_eq!(rep.faulted, 0, "{rep:?}");
        assert!(rep.telemetry_xml.is_none());
    }

    #[test]
    fn smashed_sessions_are_detected_and_quarantined() {
        let rep = run_server_sim(&ServerConfig {
            workers: 4,
            requests: 4_000,
            ..ServerConfig::default()
        });
        assert!(rep.quarantined > 0, "smashes must be detected: {rep:?}");
        assert!(rep.canonical.contains("quarantined"));
    }
}
