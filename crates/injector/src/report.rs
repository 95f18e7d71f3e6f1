//! Rendering campaign results: the robustness table of the §3.1 demo and
//! the XML documents HEALERS ships to its collection server.
//!
//! Both renderings are deterministic: functions are sorted by symbol
//! name, histograms are ordered maps, and run-variable telemetry
//! (retries, checkpoint hits) stays out of the XML so a resumed campaign
//! serialises byte-identically to an uninterrupted one.

use std::fmt::Write as _;

use cdecl::xml::XmlWriter;

use crate::outcome::Outcome;
use crate::search::{CampaignResult, FunctionReport};

fn sorted_reports(result: &CampaignResult) -> Vec<&FunctionReport> {
    let mut reports: Vec<&FunctionReport> = result.reports.iter().collect();
    reports.sort_by(|a, b| a.name.cmp(&b.name));
    reports
}

/// Renders the campaign as a fixed-width text table: one row per
/// function (sorted by name), failure counts by class, confidence and
/// coverage annotations, and the derived safe types.
pub fn render_table(result: &CampaignResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Robustness campaign over {} — {} functions, {} injected calls, {} failures{}{}",
        result.library,
        result.reports.len(),
        result.total_tests(),
        result.total_failures(),
        match result.total_pruned() {
            0 => String::new(),
            n => format!(", {n} cases pruned by static contracts"),
        },
        if result.complete { "" } else { " [PARTIAL: budget exhausted]" }
    );
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6} {:>12} {:>5}  derived robust argument types",
        "function", "tests", "crash", "abort", "hang", "resid", "confidence", "cover"
    );
    let _ = writeln!(out, "{}", "-".repeat(112));
    for r in sorted_reports(result) {
        if r.skipped {
            let _ = writeln!(
                out,
                "{:<14} {:>6}  (skipped: terminates by contract)",
                r.name, "-"
            );
            continue;
        }
        let count = |o: Outcome| r.histogram.get(&o).copied().unwrap_or(0);
        let types =
            r.params.iter().map(|p| p.chosen_name.as_str()).collect::<Vec<_>>().join(", ");
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6} {:>12} {:>5.3}  [{}]{}",
            r.name,
            r.tests,
            count(Outcome::Crash),
            count(Outcome::Abort),
            count(Outcome::Hang),
            r.residual_failures,
            r.confidence.tag(),
            r.coverage,
            types,
            if r.fully_robust { "" } else { "  (!residual)" }
        );
    }
    out
}

/// Serialises the campaign as a self-describing XML document (the format
/// sent to the central server in §2.3). Functions are emitted sorted by
/// symbol name; per-run telemetry that varies between a full and a
/// resumed run (retries, checkpoint hits) is deliberately excluded so
/// equivalent campaigns serialise byte-identically.
pub fn to_xml(result: &CampaignResult) -> String {
    let mut w = XmlWriter::new();
    w.open(
        "campaign",
        &[
            ("library", result.library.as_str()),
            ("tests", &result.total_tests().to_string()),
            ("failures", &result.total_failures().to_string()),
            ("pruned", &result.total_pruned().to_string()),
            ("complete", if result.complete { "true" } else { "false" }),
        ],
    );
    for r in sorted_reports(result) {
        w.open(
            "function",
            &[
                ("name", r.name.as_str()),
                ("tests", &r.tests.to_string()),
                ("fully-robust", if r.fully_robust { "true" } else { "false" }),
                ("skipped", if r.skipped { "true" } else { "false" }),
                ("confidence", r.confidence.tag()),
                ("coverage", &format!("{:.3}", r.coverage)),
                ("pruned", &r.pruned.to_string()),
            ],
        );
        for (o, n) in &r.histogram {
            w.leaf("outcome", &[("kind", o.tag()), ("count", &n.to_string())]);
        }
        for (i, p) in r.params.iter().enumerate() {
            w.open(
                "param",
                &[
                    ("index", &(i + 1).to_string()),
                    ("robust-type", p.chosen_name.as_str()),
                    ("pruned", &p.pruned.to_string()),
                ],
            );
            for (rung, failures) in &p.tried {
                w.leaf(
                    "rung",
                    &[("type", rung.as_str()), ("failures", &failures.to_string())],
                );
            }
            w.close();
        }
        w.close();
    }
    w.close();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{run_campaign, targets_from_simlibc, CampaignConfig};
    use simlibc::setup::init_process;

    fn small_result() -> CampaignResult {
        let targets: Vec<_> = targets_from_simlibc()
            .into_iter()
            .filter(|t| ["strlen", "abs", "exit"].contains(&t.name.as_str()))
            .collect();
        let config = CampaignConfig { pair_values: 4, fuel: 200_000, ..Default::default() };
        run_campaign("libsimc.so.1", &targets, init_process, &config)
    }

    #[test]
    fn table_mentions_functions_and_types() {
        let table = render_table(&small_result());
        assert!(table.contains("strlen"), "{table}");
        assert!(table.contains("cstr"), "{table}");
        assert!(table.contains("skipped"), "{table}");
        assert!(table.contains("injected calls"), "{table}");
        assert!(table.contains("high"), "{table}");
    }

    #[test]
    fn xml_is_well_formed_enough() {
        let xml = to_xml(&small_result());
        assert!(xml.starts_with("<?xml"));
        assert_eq!(xml.matches("<campaign").count(), 1);
        assert_eq!(xml.matches("</campaign>").count(), 1);
        assert_eq!(xml.matches("<function").count(), xml.matches("</function>").count());
        assert!(xml.contains("robust-type"));
        assert!(xml.contains("complete=\"true\""), "{xml}");
        assert!(xml.contains("confidence=\"high\""), "{xml}");
    }

    #[test]
    fn reports_render_sorted_by_function_name() {
        let result = small_result();
        let table = render_table(&result);
        let xml = to_xml(&result);
        // abs < exit < strlen alphabetically, regardless of probe order.
        for text in [&table, &xml] {
            let abs = text.find("abs").unwrap();
            let exit = text.find("exit").unwrap();
            let strlen = text.find("strlen").unwrap();
            assert!(abs < exit && exit < strlen, "{text}");
        }
    }

    #[test]
    fn hinted_campaign_reports_pruned_counts_in_xml() {
        let targets: Vec<_> =
            targets_from_simlibc().into_iter().filter(|t| t.name == "strlen").collect();
        let config = CampaignConfig { pair_values: 4, fuel: 200_000, ..Default::default() };
        let mut hints = typelattice::LadderHints::new();
        hints.set("strlen", vec![3]);
        let result = crate::search::run_campaign_with(
            "libsimc.so.1",
            &targets,
            init_process,
            &config,
            &crate::search::CampaignRun { hints: Some(&hints), ..Default::default() },
        );
        assert!(result.total_pruned() > 0);
        let xml = to_xml(&result);
        assert!(xml.contains(&format!("pruned=\"{}\"", result.total_pruned())), "{xml}");
    }

    #[test]
    fn same_seed_runs_render_byte_identically() {
        let targets: Vec<_> = targets_from_simlibc()
            .into_iter()
            .filter(|t| ["strlen", "isalpha"].contains(&t.name.as_str()))
            .collect();
        let config = CampaignConfig { pair_values: 4, fuel: 200_000, ..Default::default() };
        let r1 = run_campaign("libsimc.so.1", &targets, init_process, &config);
        let r2 = run_campaign("libsimc.so.1", &targets, init_process, &config);
        assert_eq!(render_table(&r1), render_table(&r2));
        assert_eq!(to_xml(&r1), to_xml(&r2));
        assert_eq!(r1.api.to_xml(), r2.api.to_xml());
    }
}
