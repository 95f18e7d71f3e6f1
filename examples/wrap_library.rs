//! The paper's §3.1 demonstration plus the full Figure 2 pipeline:
//! select a library, enumerate its functions, emit the XML-style
//! declaration file, run the automated fault-injection campaign, derive
//! the robust API — then prove the generated robustness wrapper contains
//! every crash the campaign found.
//!
//! ```sh
//! cargo run --release --example wrap_library
//! ```

use healers::injector::{render_table, replay_cases, run_campaign, to_xml, CampaignConfig};
use healers::simproc::{CVal, Fault, Proc};
use healers::{process_factory, Toolkit, WrapperConfig, WrapperKind};

fn main() {
    let toolkit = Toolkit::new();

    // --- select a library and enumerate it (§3.1) -----------------------
    println!("== Libraries in the system ==");
    for (soname, nfuncs) in toolkit.list_libraries() {
        println!("  {soname:<16} {nfuncs:>4} functions");
    }
    let soname = "libsimc.so.1";
    let functions = toolkit.list_functions(soname).unwrap();
    println!("\nselected {soname}: {} functions", functions.len());
    println!(
        "first few: {}\n",
        functions.iter().take(8).cloned().collect::<Vec<_>>().join(", ")
    );

    // --- the XML-style declaration file ----------------------------------
    let decl = toolkit.declaration_file(soname).unwrap();
    println!("--- declaration file (excerpt) ---");
    for line in decl.lines().take(12) {
        println!("{line}");
    }
    println!("... ({} lines total)\n", decl.lines().count());

    // --- the automated fault-injection campaign (Figure 2) ----------------
    println!("== Automated fault-injection campaign ==\n");
    let config = CampaignConfig::default();
    let targets = toolkit.targets(soname).unwrap();
    let start = std::time::Instant::now();
    let campaign = run_campaign(soname, &targets, process_factory, &config);
    let elapsed = start.elapsed();
    println!("{}", render_table(&campaign));
    println!("campaign: {} injected calls\n", campaign.total_tests());
    // Wall clock goes to stderr: stdout stays byte-identical run to run
    // (docs/campaign_output.txt is diffed against it).
    eprintln!(
        "campaign wall clock: {:.2?} ({:.0} calls/s)",
        elapsed,
        campaign.total_tests() as f64 / elapsed.as_secs_f64()
    );

    // --- the robust API document ------------------------------------------
    let api_xml = campaign.api.to_xml();
    println!("--- robust API document (excerpt) ---");
    for line in api_xml.lines().take(10) {
        println!("{line}");
    }
    println!("...\n");

    // --- generate the robustness wrapper and replay every crash -----------
    println!("== Containment check: replay every crash through the wrapper ==\n");
    let wrapper = toolkit.generate_wrapper(
        WrapperKind::Robustness,
        &campaign.api,
        &WrapperConfig::default(),
    );
    println!(
        "robustness wrapper interposes {} of {} functions\n",
        wrapper.len(),
        targets.len()
    );
    let mut dispatch = |name: &str, p: &mut Proc, args: &[CVal]| -> Result<CVal, Fault> {
        match wrapper.get(name) {
            Some(w) => w.call(p, args),
            None => {
                let t = healers::simlibc::find_symbol(name).expect("symbol");
                (t.imp)(p, args)
            }
        }
    };
    let summary =
        replay_cases(&campaign.crashes, &targets, process_factory, &config, &mut dispatch);
    println!(
        "replayed {} recorded robustness failures through the wrapper:",
        summary.total
    );
    println!("  still failing     : {}", summary.still_failing);
    println!("  turned into errno : {}", summary.graceful);
    println!(
        "  other containment : {}",
        summary.total - summary.still_failing - summary.graceful - summary.contained
    );
    let contained_pct = 100.0 * (summary.total - summary.still_failing) as f64
        / summary.total.max(1) as f64;
    println!("  containment rate  : {contained_pct:.1}%");
    if summary.still_failing > 0 {
        println!("\nuncontained failures by function (fail/replayed):");
        for (func, fail, total) in summary.uncontained() {
            println!("  {func:<12} {fail:>3}/{total}");
        }
        println!(
            "(format-string traffic through varargs and 3-way relational cases\n\
             are outside what fixed-argument type checks can express — see\n\
             EXPERIMENTS.md)"
        );
    }

    // The campaign XML for the collection server.
    let campaign_xml = to_xml(&campaign);
    println!("\ncampaign document: {} bytes of self-describing XML", campaign_xml.len());
}
