//! Sandboxed execution of a single injected call: fresh process image,
//! deterministic argument materialisation, fuel watchdog, panic
//! containment.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simproc::{CVal, Fault, Proc};
use typelattice::{benign_value, values_for, GenCx, ParamPlan};

use crate::checkpoint::{hash_case_key, Fnv1a};
use crate::outcome::{classify, Outcome, TestOutcome};

/// Builds fresh process images for each test.
pub type ProcFactory = fn() -> Proc;

/// The dispatch used to invoke the function under test — either the raw
/// library symbol or a wrapped binding.
pub type Dispatch<'a> = &'a mut dyn FnMut(&mut Proc, &[CVal]) -> Result<CVal, Fault>;

/// A replayable identifier of one injected call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CaseKey {
    /// A ladder-search case: parameter `param` tested with value
    /// `value_idx` of rung `rung_idx`, everything else benign.
    Ladder {
        /// Parameter under test.
        param: usize,
        /// Rung index in the parameter's ladder.
        rung_idx: usize,
        /// Index into the rung's generated values.
        value_idx: usize,
    },
    /// A pairwise validation case: parameters `i` and `j` both take
    /// adversarial values from their currently chosen rungs (everything
    /// else benign) — the 2-way coverage that exposes relational
    /// failures like `strcpy(small_dst, long_src)`.
    Pair {
        /// First parameter of the pair.
        i: usize,
        /// Second parameter of the pair.
        j: usize,
        /// Value index for `i`.
        vi: usize,
        /// Value index for `j`.
        vj: usize,
        /// When `true`, `j`'s value is materialised before `i`'s, so
        /// relational values for `i` are constructed against the real
        /// `j` value (and vice versa when `false`).
        j_first: bool,
        /// Chosen rung index per parameter at the time of the pair.
        rungs: Vec<usize>,
    },
}

/// Deterministic per-case seed: an explicit FNV-1a hash of
/// `(base, function, key)`. The hash algorithm is pinned — unlike
/// `DefaultHasher`, whose output may change between Rust releases — so
/// seeds, checkpoint journals and replays stay stable across toolchains.
pub fn case_seed(base: u64, func: &str, key: &CaseKey) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(base);
    h.write_str(func);
    hash_case_key(&mut h, key);
    h.finish()
}

/// Materialises the argument vector for `key` inside `proc`.
/// Deterministic: the same key and seed always produce the same values at
/// the same addresses.
pub fn materialize(
    proc: &mut Proc,
    plans: &[ParamPlan],
    key: &CaseKey,
    seed: u64,
) -> Vec<CVal> {
    let mut cx = GenCx::new(proc, seed);
    let mut args: Vec<CVal> =
        plans.iter().map(|p| benign_value(p.class, &mut cx)).collect();
    match key {
        CaseKey::Ladder { param, rung_idx, value_idx } => {
            let rung = &plans[*param].ladder[*rung_idx];
            let values = values_for(plans[*param].class, &rung.pred, &mut cx, &args);
            args[*param] = values[value_idx % values.len().max(1)];
        }
        CaseKey::Pair { i, j, vi, vj, j_first, rungs } => {
            let order =
                if *j_first { [(*j, *vj), (*i, *vi)] } else { [(*i, *vi), (*j, *vj)] };
            for (param, value_idx) in order {
                let rung =
                    &plans[param].ladder[rungs[param].min(plans[param].ladder.len() - 1)];
                let values = values_for(plans[param].class, &rung.pred, &mut cx, &args);
                if !values.is_empty() {
                    args[param] = values[value_idx % values.len()];
                }
            }
        }
    }
    args
}

/// Runs one case: fresh process, materialise, then the call in the
/// sandbox every injected body runs in. The sandbox clears errno, limits
/// the call to `fuel` cycles, contains a host panic as
/// [`Outcome::HostBug`] and classifies the result; `detect_silent` (off
/// only to ablate) adds the post-call heap check for Silent corruption.
pub fn run_case(
    factory: ProcFactory,
    plans: &[ParamPlan],
    key: &CaseKey,
    seed: u64,
    fuel: u64,
    detect_silent: bool,
    call: Dispatch<'_>,
) -> TestOutcome {
    let mut proc = factory();
    let args = materialize(&mut proc, plans, key, seed);
    run_sandboxed(&mut proc, fuel, detect_silent, |p| call(p, &args))
}

/// The sandbox every injected body runs in: errno cleared, a fuel
/// limit of `fuel` cycles, a host panic contained as
/// [`Outcome::HostBug`], and the result classified. With
/// `detect_silent`, a "successful" call that corrupted allocator
/// metadata is a Silent failure (the Ballista S class), e.g. strcpy
/// overflowing a heap buffer without touching an unmapped page.
pub(crate) fn run_sandboxed(
    proc: &mut Proc,
    fuel: u64,
    detect_silent: bool,
    body: impl FnOnce(&mut Proc) -> Result<CVal, Fault>,
) -> TestOutcome {
    proc.set_errno(0);
    let errno_before = proc.errno();
    let start = proc.cycles();
    proc.set_fuel_limit(Some(start + fuel));
    let result = catch_unwind(AssertUnwindSafe(|| body(&mut *proc)));
    proc.set_fuel_limit(None);
    let Ok(result) = result else {
        return TestOutcome {
            outcome: Outcome::HostBug,
            fault: None,
            errno: proc.errno(),
            ret: None,
        };
    };
    let mut out = classify(result, errno_before, proc.errno());
    if detect_silent
        && matches!(out.outcome, Outcome::Pass | Outcome::GracefulError)
        && simlibc::heap::check_invariants(proc).is_err()
    {
        out.outcome = Outcome::Silent;
    }
    out
}

/// The outcome quorum: a non-hang failure is re-run `rounds` times, each
/// with twice the fuel of the last (starting from `fuel`), and must
/// reproduce exactly. One that does not is [`Outcome::Flaky`],
/// first-class, instead of letting the last observation win.
pub(crate) fn quorum(
    out: TestOutcome,
    rounds: usize,
    mut fuel: u64,
    mut rerun: impl FnMut(u64) -> TestOutcome,
) -> TestOutcome {
    if !out.outcome.is_failure() || out.outcome == Outcome::Hang {
        return out;
    }
    for _ in 0..rounds {
        fuel = fuel.saturating_mul(2);
        if rerun(fuel).outcome != out.outcome {
            return TestOutcome {
                outcome: Outcome::Flaky,
                fault: None,
                errno: out.errno,
                ret: None,
            };
        }
    }
    out
}

/// Number of values a rung generates (computed in a throwaway process so
/// callers can enumerate `value_idx`).
pub fn value_count(
    factory: ProcFactory,
    plans: &[ParamPlan],
    param: usize,
    rung_idx: usize,
    seed: u64,
) -> usize {
    let mut proc = factory();
    let mut cx = GenCx::new(&mut proc, seed);
    let pinned: Vec<CVal> = plans.iter().map(|p| benign_value(p.class, &mut cx)).collect();
    let rung = &plans[param].ladder[rung_idx];
    values_for(plans[param].class, &rung.pred, &mut cx, &pinned).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdecl::{parse_prototype, TypedefTable};
    use simlibc::setup::init_process;
    use typelattice::plan;

    fn plans_for(proto: &str) -> Vec<ParamPlan> {
        let t = TypedefTable::with_builtins();
        plan(&parse_prototype(proto, &t).unwrap())
    }

    #[test]
    fn materialization_is_deterministic() {
        let plans = plans_for("char *strcpy(char *dest, const char *src);");
        let key = CaseKey::Ladder { param: 1, rung_idx: 0, value_idx: 2 };
        let seed = case_seed(42, "strcpy", &key);
        let mut p1 = init_process();
        let a1 = materialize(&mut p1, &plans, &key, seed);
        let mut p2 = init_process();
        let a2 = materialize(&mut p2, &plans, &key, seed);
        assert_eq!(a1, a2);
    }

    #[test]
    fn run_case_classifies_a_crash() {
        let plans = plans_for("size_t strlen(const char *s);");
        // Rung 0 is `any`; value 0 is NULL.
        let key = CaseKey::Ladder { param: 0, rung_idx: 0, value_idx: 0 };
        let seed = case_seed(1, "strlen", &key);
        let strlen = simlibc::find_symbol("strlen").unwrap().imp;
        let mut call = move |p: &mut Proc, a: &[CVal]| strlen(p, a);
        let out = run_case(init_process, &plans, &key, seed, 100_000, true, &mut call);
        assert_eq!(out.outcome, Outcome::Crash, "{out:?}");
    }

    #[test]
    fn run_case_classifies_a_pass() {
        let plans = plans_for("size_t strlen(const char *s);");
        // The cstr rung (index 3) generates valid strings.
        let key = CaseKey::Ladder { param: 0, rung_idx: 3, value_idx: 0 };
        let seed = case_seed(1, "strlen", &key);
        let strlen = simlibc::find_symbol("strlen").unwrap().imp;
        let mut call = move |p: &mut Proc, a: &[CVal]| strlen(p, a);
        let out = run_case(init_process, &plans, &key, seed, 1_000_000, true, &mut call);
        assert_eq!(out.outcome, Outcome::Pass, "{out:?}");
    }

    #[test]
    fn host_panic_is_contained_as_host_bug() {
        let plans = plans_for("size_t strlen(const char *s);");
        let key = CaseKey::Ladder { param: 0, rung_idx: 3, value_idx: 0 };
        let mut call = |_p: &mut Proc, _a: &[CVal]| -> Result<CVal, Fault> {
            panic!("deliberate host bug")
        };
        let out = run_case(init_process, &plans, &key, 1, 100_000, true, &mut call);
        assert_eq!(out.outcome, Outcome::HostBug);
    }

    #[test]
    fn case_seed_varies_by_key_and_func() {
        let k1 = CaseKey::Ladder { param: 0, rung_idx: 0, value_idx: 0 };
        let k2 = CaseKey::Ladder { param: 0, rung_idx: 0, value_idx: 1 };
        assert_ne!(case_seed(1, "f", &k1), case_seed(1, "f", &k2));
        assert_ne!(case_seed(1, "f", &k1), case_seed(1, "g", &k1));
        assert_ne!(case_seed(1, "f", &k1), case_seed(2, "f", &k1));
    }

    #[test]
    fn case_seed_values_are_pinned() {
        // The seed recipe is part of the checkpoint-journal contract: if
        // these literals change, existing journals and recorded replays
        // silently stop matching. Bump the journal version when changing
        // the recipe.
        let ladder = CaseKey::Ladder { param: 0, rung_idx: 0, value_idx: 0 };
        assert_eq!(case_seed(1, "strlen", &ladder), 0x6ed6_7bac_ef7b_212d);
        let pair =
            CaseKey::Pair { i: 0, j: 1, vi: 2, vj: 3, j_first: true, rungs: vec![4, 5] };
        assert_eq!(case_seed(2003, "strcpy", &pair), 0x3cf2_b092_4a1d_f2da);
    }

    #[test]
    fn value_count_matches_generation() {
        let plans = plans_for("size_t strlen(const char *s);");
        let n = value_count(init_process, &plans, 0, 0, 7);
        assert!(n >= 5, "{n}");
    }
}
