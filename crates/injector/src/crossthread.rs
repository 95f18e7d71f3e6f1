//! Cross-thread heap fault classes.
//!
//! The per-call campaign crashes one function at a time, on one thread.
//! A threaded server adds failure modes no single-call contract can
//! exhibit: two threads racing `free` on the same chunk, and one thread
//! overflowing its buffer so that the damage only *surfaces* when
//! another thread frees the neighbouring chunk. This module materializes
//! those as deterministic, seed-driven scenarios over simulated threads
//! sharing one address space and heap, and classifies them with the same
//! outcome lattice (and the same quorum discipline) as the per-call
//! campaign — so a cross-thread verdict is comparable to a Ballista-style
//! one.
//!
//! Seeds choose the *interleaving*, not random data: who frees first,
//! whether allocation traffic lands between the racing frees, how far an
//! overflow reaches. Re-running a seed replays the exact same thread
//! schedule, which is what makes the quorum pass meaningful — a verdict
//! that does not reproduce under the identical schedule is a harness
//! problem ([`Outcome::Flaky`]), not a property of the library.

use simproc::{splitmix64, CVal, Fault, Proc, ThreadId, VirtAddr};

use crate::outcome::{Outcome, TestOutcome};
use crate::sandbox::{quorum, run_sandboxed, ProcFactory};
use crate::search::CampaignConfig;

/// The cross-thread fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossThreadFault {
    /// Two threads race `free` on one chunk. The seed decides which
    /// thread frees first and whether a `malloc` lands between the two
    /// frees (which can legitimize the second free by reviving the
    /// chunk — the benign interleaving of the same race).
    RacingDoubleFree,
    /// One thread overflows its buffer into the neighbouring chunk's
    /// header; a *different* thread then frees the neighbour and walks
    /// the corrupted metadata.
    CrossThreadSmash,
}

impl CrossThreadFault {
    /// Stable tag for reports and journals.
    pub fn tag(self) -> &'static str {
        match self {
            CrossThreadFault::RacingDoubleFree => "racing-double-free",
            CrossThreadFault::CrossThreadSmash => "cross-thread-smash",
        }
    }
}

/// Calls a bare simlibc function (no wrappers — this is the injector's
/// view of the library, the same one the per-call campaign exercises).
fn libc(p: &mut Proc, name: &str, args: &[CVal]) -> Result<CVal, Fault> {
    let f = simlibc::find_symbol(name).expect("simlibc symbol").imp;
    f(p, args)
}

/// Sentinel return for "the allocator handed one chunk out twice" —
/// promoted to [`Outcome::Silent`] by the harness.
const DUP_CHUNK: i64 = 99;

fn racing_double_free(p: &mut Proc, seed: u64) -> Result<CVal, Fault> {
    let racer = p.spawn_thread("racer")?;
    let a = libc(p, "malloc", &[CVal::Int(48)])?;
    let _pin = libc(p, "malloc", &[CVal::Int(16)])?;

    // The schedule, decided by the seed: which thread frees first, and
    // whether allocation traffic intervenes between the racing frees.
    let racer_first = splitmix64(seed) & 1 == 0;
    let traffic_between = splitmix64(seed ^ 0xA5A5) & 1 == 0;

    if racer_first {
        p.switch_thread(racer);
    }
    libc(p, "free", &[a])?;
    p.switch_thread(if racer_first { ThreadId::MAIN } else { racer });
    if traffic_between {
        // A malloc between the frees may revive the chunk, turning the
        // second free into a legal one — the benign interleaving.
        let _ = libc(p, "malloc", &[CVal::Int(48)])?;
    }
    libc(p, "free", &[a])?; // the racing free

    // Follow-up traffic walking the (possibly corrupted) free list,
    // split across both threads like real request handling.
    p.switch_thread(ThreadId::MAIN);
    let b = libc(p, "malloc", &[CVal::Int(48)])?;
    p.switch_thread(racer);
    let c = libc(p, "malloc", &[CVal::Int(48)])?;
    Ok(CVal::Int(if b == c { DUP_CHUNK } else { 0 }))
}

fn cross_thread_smash(p: &mut Proc, seed: u64) -> Result<CVal, Fault> {
    let smasher = p.spawn_thread("smasher")?;
    let a = libc(p, "malloc", &[CVal::Int(24)])?.as_ptr();
    let b = libc(p, "malloc", &[CVal::Int(24)])?;

    // The smasher overflows `a` through plain (unwrapped) stores — the
    // damage reaches into the neighbouring chunk's header.
    p.switch_thread(smasher);
    // malloc(24) rounds up to a 48-byte chunk (16-byte header + 32
    // usable), so the neighbour's header starts at payload offset 32 and
    // its size word at offset 40: reach past 40 to guarantee the smash
    // lands on metadata the neighbour's free will walk.
    let reach = 41 + (splitmix64(seed) % 15);
    let junk = vec![0xEEu8; reach as usize];
    p.write_bytes(a, &junk)?;

    // A different thread frees the *neighbour*: only now does the
    // allocator walk the corrupted metadata.
    p.switch_thread(ThreadId::MAIN);
    libc(p, "free", &[b])?;
    libc(p, "free", &[CVal::Ptr(a)])?;
    let c = libc(p, "malloc", &[CVal::Int(24)])?;
    Ok(CVal::Int(if c.as_ptr() == VirtAddr::NULL { DUP_CHUNK } else { 0 }))
}

/// Runs one cross-thread case in a fresh process through the per-call
/// campaign's sandbox and classifies the result on the standard outcome
/// lattice: a "successful" run that left the allocator's invariants
/// broken is a [`Outcome::Silent`] failure, the corruption an attacker
/// exploits later, and so is one that handed one chunk out twice.
pub fn run_cross_thread_case(
    fault: CrossThreadFault,
    factory: ProcFactory,
    seed: u64,
    fuel: u64,
) -> TestOutcome {
    let mut p = factory();
    let mut out = run_sandboxed(&mut p, fuel, true, |p| match fault {
        CrossThreadFault::RacingDoubleFree => racing_double_free(p, seed),
        CrossThreadFault::CrossThreadSmash => cross_thread_smash(p, seed),
    });
    if matches!(out.outcome, Outcome::Pass | Outcome::GracefulError)
        && out.ret == Some(CVal::Int(DUP_CHUNK))
    {
        out.outcome = Outcome::Silent;
    }
    out
}

/// [`run_cross_thread_case`] under the campaign's outcome quorum: a
/// failing verdict is re-executed (with fuel backoff) and must reproduce
/// exactly; one that does not is [`Outcome::Flaky`]. Because the seed
/// pins the whole thread schedule, a healthy harness never goes flaky
/// here — the quorum is the regression tripwire for nondeterminism
/// sneaking into the shared-address-space substrate.
pub fn run_cross_thread_quorum(
    fault: CrossThreadFault,
    factory: ProcFactory,
    seed: u64,
    config: &CampaignConfig,
) -> TestOutcome {
    let out = run_cross_thread_case(fault, factory, seed, config.fuel);
    quorum(out, config.quorum, config.fuel, |fuel| {
        run_cross_thread_case(fault, factory, seed, fuel)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factory() -> Proc {
        simlibc::setup::init_process()
    }

    fn config() -> CampaignConfig {
        CampaignConfig { fuel: 300_000, quorum: 2, ..CampaignConfig::default() }
    }

    #[test]
    fn racing_double_free_verdicts_are_deterministic_under_quorum() {
        let mut failures = 0;
        for seed in 0..8 {
            let a = run_cross_thread_quorum(
                CrossThreadFault::RacingDoubleFree,
                factory,
                seed,
                &config(),
            );
            let b = run_cross_thread_quorum(
                CrossThreadFault::RacingDoubleFree,
                factory,
                seed,
                &config(),
            );
            assert_eq!(a.outcome, b.outcome, "seed {seed} must replay identically");
            assert_ne!(
                a.outcome,
                Outcome::Flaky,
                "a pinned schedule must reproduce its own verdict (seed {seed})"
            );
            if a.outcome.is_failure() {
                failures += 1;
            }
        }
        assert!(failures > 0, "some interleaving must corrupt the bare allocator");
    }

    #[test]
    fn benign_interleaving_exists_and_passes() {
        // A malloc between the racing frees can revive the chunk and
        // legalize the second free: the race is schedule-dependent,
        // which is exactly why it needs a cross-thread fault class.
        let outcomes: Vec<Outcome> = (0..8)
            .map(|seed| {
                run_cross_thread_case(
                    CrossThreadFault::RacingDoubleFree,
                    factory,
                    seed,
                    300_000,
                )
                .outcome
            })
            .collect();
        assert!(outcomes.contains(&Outcome::Pass), "{outcomes:?}");
        assert!(outcomes.iter().any(|o| o.is_failure()), "{outcomes:?}");
    }

    #[test]
    fn cross_thread_smash_is_observed_on_the_other_threads_free() {
        for seed in 0..4 {
            let out = run_cross_thread_quorum(
                CrossThreadFault::CrossThreadSmash,
                factory,
                seed,
                &config(),
            );
            assert!(
                out.outcome.is_failure(),
                "smashed metadata must never classify clean: seed {seed} -> {:?}",
                out.outcome
            );
            assert_ne!(out.outcome, Outcome::Flaky, "seed {seed}");
        }
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(CrossThreadFault::RacingDoubleFree.tag(), "racing-double-free");
        assert_eq!(CrossThreadFault::CrossThreadSmash.tag(), "cross-thread-smash");
    }
}
