//! Static analysis pass: contract inference, ladder pre-seeding and the
//! wrapper-soundness lint.
//!
//! ```sh
//! cargo run --release --example analyze              # full demo
//! cargo run --release --example analyze -- --lint-gate   # CI: exit 1 on findings
//! ```
//!
//! 1. Infer contracts for `libsimc.so.1` from prototypes + man pages.
//! 2. Run the fault-injection campaign twice — plain and pre-seeded by
//!    the contracts — and show that the verdicts are identical while the
//!    seeded run injects measurably fewer cases (the pruned counts).
//! 3. Generate every standard wrapper kind and run the soundness lint
//!    over their call models; `--lint-gate` exits nonzero on any finding.

use healers::analyzer;
use healers::injector::{
    run_campaign, run_campaign_with, targets_from_simlibc, CampaignConfig, CampaignRun,
};
use healers::{process_factory, simlibc, Toolkit, WrapperConfig, WrapperKind};

fn main() {
    let lint_gate = std::env::args().any(|a| a == "--lint-gate");
    let toolkit = Toolkit::new();
    let config = CampaignConfig::default();

    // --- 1. static contract inference ----------------------------------
    println!("== Step 1: static contract inference ==\n");
    let targets = targets_from_simlibc();
    let protos: Vec<_> = targets.iter().map(|t| t.proto.clone()).collect();
    let base = analyzer::infer_contracts("libsimc.so.1", &protos, &simlibc::man_page);
    let text = base.to_text();
    if lint_gate {
        println!("{} functions in the fact base", base.functions.len());
    } else {
        for line in text.lines().take(28) {
            println!("{line}");
        }
        println!("  ... ({} lines total)\n", text.lines().count());
    }

    // --- 2. contract-seeded campaign vs the plain one -------------------
    println!("== Step 2: ladder pre-seeding (pruned injection cases) ==\n");
    let hints = analyzer::ladder_hints(&base, &protos);
    let plain = run_campaign("libsimc.so.1", &targets, process_factory, &config);
    let run = CampaignRun { hints: Some(&hints), ..CampaignRun::default() };
    let seeded =
        run_campaign_with("libsimc.so.1", &targets, process_factory, &config, &run);
    if seeded.api.to_xml() != plain.api.to_xml() {
        eprintln!("FAIL: contract-seeded campaign changed the robust-API verdicts");
        std::process::exit(1);
    }
    println!(
        "verdicts identical; seeded campaign ran {} cases vs {} ({} pruned by contracts)",
        seeded.executed_cases(),
        plain.executed_cases(),
        seeded.total_pruned()
    );
    if !lint_gate {
        println!("\nper-function pruning (functions with a contract floor):");
        for r in seeded.reports.iter().filter(|r| r.pruned > 0) {
            println!("  {:<14} {:>5} cases pruned", r.name, r.pruned);
        }
    }

    // --- 3. the wrapper-soundness lint ----------------------------------
    println!("\n== Step 3: wrapper-soundness lint over generated wrappers ==\n");
    let mut findings = analyzer::lint_contracts(&base);
    let kinds = [
        WrapperKind::Robustness,
        WrapperKind::Security,
        WrapperKind::Healing,
        WrapperKind::Profiling,
        WrapperKind::Tracing,
    ];
    for kind in kinds {
        let wrapper =
            toolkit.generate_wrapper(kind, &seeded.api, &WrapperConfig::default());
        findings.extend(toolkit.lint_wrapper(&wrapper));
    }
    if let Some((math, math_base)) =
        toolkit.derive_robust_api_with_contracts("libsimm.so.1")
    {
        findings.extend(analyzer::lint_contracts(&math_base));
        let wrapper = toolkit.generate_wrapper(
            WrapperKind::Robustness,
            &math.api,
            &WrapperConfig::default(),
        );
        findings.extend(toolkit.lint_wrapper(&wrapper));
    }
    print!("{}", analyzer::render_findings("libsimc.so.1 + libsimm.so.1", &findings));
    if !findings.is_empty() {
        std::process::exit(1);
    }
}
