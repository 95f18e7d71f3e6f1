//! Ablation studies over the campaign engine and the wrapper policies.
//!
//! **Detector ablation** (`DESIGN.md` §4, `EXPERIMENTS.md` A1): what
//! silent-failure detection and pairwise validation each contribute to
//! the derived contracts.
//!
//! **Policy ablation** (`DESIGN.md` §14, `EXPERIMENTS.md` X7): the same
//! recorded crash cases replayed under Terminate vs Heal vs Oblivious
//! wrappers — requests survived vs corruption escaped per function,
//! with the no-silent-absorption audit contract checked on the
//! Oblivious arm.
//!
//! ```sh
//! cargo run --release --example ablation
//! cargo run --release --example ablation -- --oblivious-gate
//! ```
//!
//! `--oblivious-gate` runs only the policy ablation, twice, and exits
//! nonzero unless (a) both same-seed runs render byte-identically,
//! (b) Oblivious survives strictly more requests than Terminate, and
//! (c) every Oblivious survival is audited (zero unaudited escapes).

use healers::injector::{
    run_campaign, run_policy_ablation, targets_from_simlibc, AblationArm, CampaignConfig,
    TargetFn,
};
use healers::profiler::{render_ablation_report, AblationLine};
use healers::simproc::{CVal, Fault, Proc};
use healers::{
    process_factory, Policy, PolicyEngine, Toolkit, WrapperConfig, WrapperLibrary,
};

/// Wrapper-front dispatch: route through the wrapper when the function
/// is wrapped, fall back to the bare symbol otherwise.
fn front<'a>(
    lib: &'a WrapperLibrary,
    targets: &'a [TargetFn],
) -> impl FnMut(&str, &mut Proc, &[CVal]) -> Result<CVal, Fault> + 'a {
    move |name, p, a| match lib.get(name) {
        Some(w) => w.call(p, a),
        None => (targets.iter().find(|t| t.name == name).expect("target").imp)(p, a),
    }
}

/// One full policy-ablation run: campaign, three healing wrappers that
/// differ only in policy, replay, render. Deterministic in the seed.
fn policy_ablation() -> (String, Vec<AblationLine>) {
    let names = ["strlen", "strcpy", "strcat", "strstr", "memcpy"];
    let targets: Vec<_> = targets_from_simlibc()
        .into_iter()
        .filter(|t| names.contains(&t.name.as_str()))
        .collect();
    let config =
        CampaignConfig { pair_values: 4, fuel: 300_000, ..CampaignConfig::default() };
    let campaign = run_campaign("libsimc.so.1", &targets, process_factory, &config);

    let toolkit = Toolkit::new();
    let healing = |policy: PolicyEngine| {
        toolkit.generate_healing_wrapper(
            &campaign.api,
            &WrapperConfig { policy: Some(policy), ..WrapperConfig::default() },
        )
    };
    let terminate = healing(PolicyEngine::terminating());
    let heal = healing(PolicyEngine::healing());
    let oblivious = healing(PolicyEngine::new(Policy::Oblivious));

    // The oblivious audit probe: every journal record (decision or
    // tainted use) and every one the cap counted instead of keeping is
    // an audit trace.
    let journal = oblivious.journal.clone();
    let mut probe = move || {
        let s = journal.oblivious();
        journal.len() as u64 + journal.dropped() + s.uses.len() as u64 + s.dropped
    };

    let mut term_front = front(&terminate, &targets);
    let mut heal_front = front(&heal, &targets);
    let mut obl_front = front(&oblivious, &targets);
    let mut arms = [
        AblationArm { policy: "terminate", dispatch: &mut term_front, probe: None },
        AblationArm { policy: "heal", dispatch: &mut heal_front, probe: None },
        AblationArm {
            policy: "oblivious",
            dispatch: &mut obl_front,
            probe: Some(&mut probe),
        },
    ];
    let rows = run_policy_ablation(
        &campaign.crashes,
        &targets,
        process_factory,
        &config,
        &mut arms,
    );
    (render_ablation_report("libsimc.so.1", &rows), rows)
}

/// `--oblivious-gate`: the CI contract for the availability mode.
fn oblivious_gate() -> i32 {
    let (report_a, rows) = policy_ablation();
    let (report_b, _) = policy_ablation();
    print!("{report_a}");

    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("gate: ok   - {what}");
        } else {
            println!("gate: FAIL - {what}");
            failed = true;
        }
    };
    check(report_a == report_b, "same-seed replays render byte-identically");
    let survived = |policy: &str| -> u64 {
        rows.iter().filter(|r| r.policy == policy).map(|r| r.survived).sum()
    };
    let (term, heal, obl) =
        (survived("terminate"), survived("heal"), survived("oblivious"));
    println!("gate: survived terminate={term} heal={heal} oblivious={obl}");
    check(obl > term, "oblivious survives strictly more requests than terminate");
    let unaudited: u64 = rows.iter().map(|r| r.unaudited_escapes).sum();
    check(unaudited == 0, "every oblivious absorption left an audit trace");
    i32::from(failed)
}

fn detector_ablation() {
    let names = ["strcpy", "strcat", "memcpy", "memset", "strncpy", "sprintf"];
    let targets: Vec<_> = targets_from_simlibc()
        .into_iter()
        .filter(|t| names.contains(&t.name.as_str()))
        .collect();

    let variants: [(&str, CampaignConfig); 4] = [
        ("full (paper + both detectors)", CampaignConfig::default()),
        (
            "no silent detection",
            CampaignConfig { detect_silent: false, ..CampaignConfig::default() },
        ),
        (
            "no pairwise validation",
            CampaignConfig { validate_pairs: false, ..CampaignConfig::default() },
        ),
        (
            "neither (pure per-parameter Ballista)",
            CampaignConfig {
                detect_silent: false,
                validate_pairs: false,
                ..CampaignConfig::default()
            },
        ),
    ];

    println!("Ablation: what each detector contributes to the derived contracts\n");
    println!(
        "{:<38} {:>7} {:>9}   derived type of strcpy's dest",
        "variant", "tests", "failures"
    );
    println!("{}", "-".repeat(100));
    for (label, config) in variants {
        let result = run_campaign("libsimc.so.1", &targets, process_factory, &config);
        let strcpy = result.api.function("strcpy").unwrap();
        println!(
            "{:<38} {:>7} {:>9}   {}",
            label,
            result.total_tests(),
            result.total_failures(),
            strcpy.preds[0]
        );
    }

    println!();
    println!("Reading the table:");
    println!("  - without silent detection, in-arena overflows look like passes, so");
    println!("    dest degrades to a mere writability check — the wrapper would then");
    println!("    wave real overflows through;");
    println!("  - without pairwise validation, the relational failure (small dest x");
    println!("    long src) is never even exercised, with the same degradation;");
    println!("  - the full configuration derives the paper's relational contract.");
}

fn main() {
    if std::env::args().any(|a| a == "--oblivious-gate") {
        std::process::exit(oblivious_gate());
    }
    detector_ablation();
    println!();
    let (report, _) = policy_ablation();
    print!("{report}");
    println!();
    println!("Reading the policy table:");
    println!("  - terminate converts every violation into a contained refusal: nothing");
    println!("    corrupts, but no request survives;");
    println!("  - heal survives what argument repair can fix;");
    println!("  - oblivious survives the rest by manufacturing context-aware reads and");
    println!("    suppressing out-of-bounds writes — every absorption is on the audit");
    println!("    record, which is what makes the mode measurable rather than silent.");
}
