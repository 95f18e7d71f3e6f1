//! The self-describing XML documents of §2.3: "the gathered information
//! sent to the server is in form of a self-describing XML document. The
//! server can extract from the document which functions were wrapped and
//! what kind of information was collected."

use cdecl::xml::{unescape, XmlWriter};
use simproc::errno::errno_name;

use crate::journal::{FlightRecord, HealEvent, ObliviousSnapshot};
use crate::stats::Snapshot;

/// Serialises a profiling snapshot into the self-describing document
/// format. `app` names the profiled application, `wrapper` the wrapper
/// type that collected the data.
pub fn to_xml(app: &str, wrapper: &str, snap: &Snapshot) -> String {
    render_document(app, wrapper, snap, &DocSections::default())
}

/// Fleet identity and termination verdict stamped onto a submission's
/// root element: which instance produced the document, which logical
/// reporting window it covers, and — for post-mortem documents shipped
/// on behalf of a crashed process — the wrapped function the fatal
/// fault escaped from and the fault's tag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetMeta {
    /// Fleet member id.
    pub instance: u64,
    /// Logical reporting window (an epoch number stamped by the fleet
    /// driver, not wall-clock time — rollups stay deterministic).
    pub window: u64,
    /// Wrapped function a fatal fault escaped from, for crash documents.
    pub crashed_in: Option<String>,
    /// Tag of the fatal fault (`segv`, `hang`, ...), for crash documents.
    pub fault: Option<String>,
}

/// The document a fleet member ships: the root element additionally
/// carries `instance` and `window` attributes, plus `crashed-in`/`fault`
/// when the document is a post-mortem for a process that died instead
/// of reaching `exit`, and `events` (when `Some`) adds the `<healing>`
/// journal. Documents without the extra attributes parse as window 0 of
/// instance 0, so standalone and fleet submitters share one ingest path.
pub fn to_xml_for_fleet(
    app: &str,
    wrapper: &str,
    meta: &FleetMeta,
    snap: &Snapshot,
    events: Option<&[HealEvent]>,
) -> String {
    render_document(
        app,
        wrapper,
        snap,
        &DocSections { meta: Some(meta), healing: events, ..DocSections::default() },
    )
}

/// The optional parts of a document, next to the call statistics every
/// document carries. The default is the plain profiling document.
#[derive(Debug, Clone, Copy, Default)]
pub struct DocSections<'a> {
    /// Fleet identity stamped onto the root element.
    pub meta: Option<&'a FleetMeta>,
    /// The healing journal, rendered as a `<healing>` section (present
    /// even when empty: a healing wrapper discloses that it healed
    /// nothing). One `<event>` per entry carrying the function,
    /// argument, violated robust type, violation class, action taken and
    /// a description of the repair.
    pub healing: Option<&'a [HealEvent]>,
    /// Decisions the journal counted past its cap instead of keeping; a
    /// non-zero count adds a `dropped` attribute to `<healing>`.
    pub healing_dropped: u64,
    /// The flight-recorder tail of last-N calls, rendered as a
    /// `<flight-recorder>` section when non-empty.
    pub flight: &'a [FlightRecord],
    /// The oblivious absorptions and tainted uses, rendered as an
    /// `<oblivious>` section when non-empty: one `<read>` per
    /// manufactured value, one `<write>` per suppressed out-of-bounds
    /// write with its precise-object attribution, one `<use>` per
    /// downstream call that consumed a tainted value. An empty view
    /// renders byte-identically to none — the section only appears when
    /// there is something to disclose.
    pub oblivious: Option<&'a ObliviousSnapshot>,
}

/// Renders one self-describing document: the statistics in `snap` plus
/// whichever `sections` are present. Every document shipped to the
/// collection service comes from here.
pub fn render_document(
    app: &str,
    wrapper: &str,
    snap: &Snapshot,
    sections: &DocSections<'_>,
) -> String {
    let DocSections { meta, healing: events, healing_dropped, flight, oblivious } =
        *sections;
    let oblivious = oblivious.filter(|o| !o.is_empty());
    let mut w = XmlWriter::new();
    let mut root_attrs = vec![
        ("application".to_string(), app.to_string()),
        ("wrapper".to_string(), wrapper.to_string()),
        ("total-calls".to_string(), snap.total_calls().to_string()),
        ("total-cycles".to_string(), snap.total_cycles.to_string()),
    ];
    if let Some(meta) = meta {
        root_attrs.push(("instance".to_string(), meta.instance.to_string()));
        root_attrs.push(("window".to_string(), meta.window.to_string()));
        if let Some(func) = &meta.crashed_in {
            root_attrs.push(("crashed-in".to_string(), func.clone()));
        }
        if let Some(fault) = &meta.fault {
            root_attrs.push(("fault".to_string(), fault.clone()));
        }
    }
    let attr_refs: Vec<(&str, &str)> =
        root_attrs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    w.open("healers-profile", &attr_refs);
    w.open("collected", &[]);
    w.leaf("metric", &[("name", "call-counter")]);
    w.leaf("metric", &[("name", "function-exectime")]);
    w.leaf("metric", &[("name", "func-errors")]);
    w.leaf("metric", &[("name", "collect-errors")]);
    if snap.has_latency() {
        w.leaf("metric", &[("name", "latency-histogram")]);
    }
    if events.is_some() {
        w.leaf("metric", &[("name", "healing-journal")]);
    }
    if !flight.is_empty() {
        w.leaf("metric", &[("name", "flight-recorder")]);
    }
    if oblivious.is_some() {
        w.leaf("metric", &[("name", "oblivious-audit")]);
    }
    w.close();
    for (name, f) in &snap.per_func {
        w.open(
            "function",
            &[
                ("name", name.as_str()),
                ("calls", &f.calls.to_string()),
                ("cycles", &f.cycles.to_string()),
                ("time-share", &format!("{:.2}", snap.time_share(name))),
            ],
        );
        for (e, n) in &f.errnos {
            w.leaf(
                "error",
                &[
                    ("errno", &e.to_string()),
                    ("name", errno_name(*e)),
                    ("count", &n.to_string()),
                ],
            );
        }
        for (stage, hist) in &f.latency {
            w.open(
                "latency",
                &[("stage", stage.as_str()), ("samples", &hist.count().to_string())],
            );
            for (b, n) in hist.buckets() {
                w.leaf(
                    "bucket",
                    &[
                        ("log2", &b.to_string()),
                        (
                            "floor",
                            &crate::stats::LatencyHistogram::bucket_floor(b).to_string(),
                        ),
                        ("count", &n.to_string()),
                    ],
                );
            }
            w.close();
        }
        w.close();
    }
    w.open("errno-distribution", &[]);
    for (e, n) in &snap.global_errnos {
        w.leaf(
            "error",
            &[
                ("errno", &e.to_string()),
                ("name", errno_name(*e)),
                ("count", &n.to_string()),
            ],
        );
    }
    w.close();
    // Argument indices are 1-based in documents; `-` for none.
    let arg_str =
        |arg: Option<usize>| arg.map(|i| (i + 1).to_string()).unwrap_or_else(|| "-".into());
    if let Some(events) = events {
        let (count, dropped) = (events.len().to_string(), healing_dropped.to_string());
        let mut attrs = vec![("events", count.as_str())];
        if healing_dropped > 0 {
            attrs.push(("dropped", dropped.as_str()));
        }
        w.open("healing", &attrs);
        for ev in events {
            w.leaf(
                "event",
                &[
                    ("function", ev.func.as_str()),
                    ("arg", &arg_str(ev.arg)),
                    ("class", ev.class.as_str()),
                    ("action", ev.action.tag()),
                    ("violation", ev.violation.as_str()),
                    ("detail", ev.detail.as_str()),
                ],
            );
        }
        w.close();
    }
    if !flight.is_empty() {
        w.open("flight-recorder", &[("entries", &flight.len().to_string())]);
        for rec in flight {
            w.leaf(
                "call",
                &[
                    ("function", rec.func.as_str()),
                    ("args", rec.args.as_str()),
                    ("verdict", rec.verdict.as_str()),
                    ("cycles", &rec.cycles.to_string()),
                ],
            );
        }
        w.close();
    }
    if let Some(o) = oblivious {
        let reads: Vec<_> = o.reads().collect();
        let writes: Vec<_> = o.writes().collect();
        w.open(
            "oblivious",
            &[
                ("reads", &reads.len().to_string()),
                ("writes", &writes.len().to_string()),
                ("uses", &o.uses.len().to_string()),
                ("dropped", &o.dropped.to_string()),
            ],
        );
        for (ev, r) in reads {
            w.leaf(
                "read",
                &[
                    ("function", ev.func.as_str()),
                    ("arg", &arg_str(ev.arg)),
                    ("class", r.class.as_str()),
                    ("role", r.role.as_str()),
                    ("value", r.value.as_str()),
                    ("detail", ev.detail.as_str()),
                ],
            );
        }
        for (ev, s) in writes {
            w.leaf(
                "write",
                &[
                    ("function", ev.func.as_str()),
                    ("arg", &arg_str(s.arg)),
                    ("addr", &format!("{:#x}", s.addr)),
                    ("object-base", &format!("{:#x}", s.object_base)),
                    ("object-extent", &s.object_extent.to_string()),
                    ("attempted", &s.attempted.to_string()),
                    ("clipped", &s.clipped.to_string()),
                    ("detail", ev.detail.as_str()),
                ],
            );
        }
        for u in &o.uses {
            w.leaf(
                "use",
                &[
                    ("function", u.func.as_str()),
                    ("arg", &(u.arg + 1).to_string()),
                    ("value", u.value.as_str()),
                ],
            );
        }
        w.close();
    }
    w.close();
    w.finish()
}

/// One function's totals as read back from a submitted document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetFunc {
    /// Function name.
    pub name: String,
    /// Call count.
    pub calls: u64,
    /// Cycles spent inside the function.
    pub cycles: u64,
    /// Total errno-reporting calls (sum of the `<error>` counts).
    pub errors: u64,
}

/// A submitted document decoded for fleet ingest: the header identity
/// plus per-function totals — everything the streaming rollup merge
/// consumes. Produced by [`parse_fleet_document`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetDoc {
    /// Application that was profiled.
    pub application: String,
    /// Wrapper type that collected the data.
    pub wrapper: String,
    /// Fleet member id (0 for legacy documents without one).
    pub instance: u64,
    /// Logical reporting window (0 for legacy documents).
    pub window: u64,
    /// Function a fatal fault escaped from, for post-mortem documents.
    pub crashed_in: Option<String>,
    /// Fault tag for post-mortem documents.
    pub fault: Option<String>,
    /// Per-function totals, in document order.
    pub functions: Vec<FleetFunc>,
    /// Number of healing-journal events the document carries.
    pub heal_events: u64,
    /// Manufactured oblivious reads the document discloses.
    pub oblivious_reads: u64,
    /// Suppressed out-of-bounds writes the document discloses.
    pub oblivious_writes: u64,
    /// Downstream tainted-value consumptions the document discloses.
    pub oblivious_uses: u64,
}

/// The raw (still escaped) value of attribute `key` in tag text `s`.
/// Text-valued attributes go through [`unescape`]: [`XmlWriter`]
/// escapes `& < > "`, so an application named `r&d` is written as
/// `r&amp;d` and must roll up as `r&d`.
fn attr_in<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("{key}=\"");
    let start = s.find(&pat)? + pat.len();
    let end = s[start..].find('"')? + start;
    Some(&s[start..end])
}

/// Decodes a submitted document for fleet ingest.
///
/// # Errors
///
/// A stable reason tag describing the first malformation found — what
/// the ingest shards attach to their bounded rejected-document samples.
pub fn parse_fleet_document(doc: &str) -> Result<FleetDoc, &'static str> {
    let open = doc.find("<healers-profile").ok_or("no <healers-profile> root")?;
    let tag_end = doc[open..].find('>').ok_or("unterminated root tag")? + open;
    let tag = &doc[open..tag_end];
    let mut out = FleetDoc {
        application: unescape(
            attr_in(tag, "application").ok_or("missing application attribute")?,
        ),
        wrapper: unescape(attr_in(tag, "wrapper").ok_or("missing wrapper attribute")?),
        ..FleetDoc::default()
    };
    out.instance = attr_in(tag, "instance").and_then(|v| v.parse().ok()).unwrap_or(0);
    out.window = attr_in(tag, "window").and_then(|v| v.parse().ok()).unwrap_or(0);
    out.crashed_in = attr_in(tag, "crashed-in").map(unescape);
    out.fault = attr_in(tag, "fault").map(unescape);
    let mut rest = &doc[tag_end..];
    while let Some(pos) = rest.find("<function ") {
        let seg_end =
            rest[pos..].find('>').map(|e| e + pos).ok_or("malformed function element")?;
        let ftag = &rest[pos..seg_end];
        let close =
            rest[seg_end..].find("</function>").map(|e| e + seg_end).unwrap_or(rest.len());
        let mut func = FleetFunc {
            name: unescape(attr_in(ftag, "name").ok_or("function element without name")?),
            calls: attr_in(ftag, "calls").and_then(|v| v.parse().ok()).unwrap_or(0),
            cycles: attr_in(ftag, "cycles").and_then(|v| v.parse().ok()).unwrap_or(0),
            errors: 0,
        };
        let mut body = &rest[seg_end..close];
        while let Some(e) = body.find("<error ") {
            let leaf_end = body[e..].find('>').map(|x| x + e).unwrap_or(body.len());
            func.errors += attr_in(&body[e..leaf_end], "count")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            body = &body[leaf_end..];
        }
        out.functions.push(func);
        rest = &rest[close..];
    }
    if let Some(pos) = rest.find("<healing events=\"") {
        out.heal_events =
            attr_in(&rest[pos..], "events").and_then(|v| v.parse().ok()).unwrap_or(0);
    }
    if let Some(pos) = rest.find("<oblivious ") {
        let tag_end = rest[pos..].find('>').map(|e| e + pos).unwrap_or(rest.len());
        let otag = &rest[pos..tag_end];
        let count = |key| attr_in(otag, key).and_then(|v| v.parse().ok()).unwrap_or(0);
        out.oblivious_reads = count("reads");
        out.oblivious_writes = count("writes");
        out.oblivious_uses = count("uses");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;

    fn sample() -> Snapshot {
        let stats = Stats::new();
        stats.record_call("strcpy", 500, None);
        stats.record_call("fopen", 500, Some(simproc::errno::ENOENT));
        stats.snapshot()
    }

    #[test]
    fn doc_is_self_describing() {
        let doc = to_xml("wordcount", "profiling", &sample());
        assert!(doc.contains("application=\"wordcount\""), "{doc}");
        assert!(doc.contains("wrapper=\"profiling\""));
        assert!(doc.contains("call-counter"));
        assert!(doc.contains("function-exectime"));
        assert!(doc.contains("<function name=\"strcpy\""));
        assert!(doc.contains("time-share=\"50.00\""));
        assert!(doc.contains("name=\"ENOENT\""));
        assert!(doc.contains("errno-distribution"));
    }

    #[test]
    fn header_fields_roundtrip() {
        let doc = to_xml("app1", "profiling", &sample());
        let parsed = parse_fleet_document(&doc).unwrap();
        assert_eq!(parsed.application, "app1");
        assert_eq!(parsed.wrapper, "profiling");
        let funcs: Vec<_> = parsed.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(funcs, vec!["fopen", "strcpy"]);
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(
            parse_fleet_document("not xml at all"),
            Err("no <healers-profile> root")
        );
        assert_eq!(
            parse_fleet_document("<healers-profile foo=\"1\">"),
            Err("missing application attribute")
        );
    }

    #[test]
    fn escaped_attributes_parse_back_unescaped() {
        let stats = Stats::new();
        stats.record_call("a<b>&\"c\"", 5, None);
        let meta = FleetMeta {
            instance: 3,
            window: 1,
            crashed_in: Some("x&y".into()),
            fault: Some("<segv>".into()),
        };
        let doc = to_xml_for_fleet("r&d", "heal\"ing", &meta, &stats.snapshot(), None);
        assert!(doc.contains("application=\"r&amp;d\""), "{doc}");
        let parsed = parse_fleet_document(&doc).unwrap();
        assert_eq!(parsed.application, "r&d");
        assert_eq!(parsed.wrapper, "heal\"ing");
        assert_eq!(parsed.crashed_in.as_deref(), Some("x&y"));
        assert_eq!(parsed.fault.as_deref(), Some("<segv>"));
        assert_eq!(parsed.functions[0].name, "a<b>&\"c\"");
    }

    #[test]
    fn healing_section_is_self_describing() {
        use crate::journal::{HealAction, HealEvent};
        let events = vec![HealEvent {
            func: "strcpy".into(),
            arg: Some(1),
            violation: "readable NUL-terminated string".into(),
            class: "unterminated-string".into(),
            action: HealAction::Repaired,
            detail: "NUL-terminated buffer at offset 15".into(),
            absorbed: None,
        }];
        let sections = DocSections { healing: Some(&events), ..DocSections::default() };
        let doc = render_document("editor", "healing", &sample(), &sections);
        assert!(doc.contains("wrapper=\"healing\""), "{doc}");
        assert!(doc.contains("name=\"healing-journal\""), "{doc}");
        assert!(doc.contains("<healing events=\"1\">"), "{doc}");
        assert!(doc.contains("action=\"repaired\""), "{doc}");
        assert!(doc.contains("arg=\"2\""), "1-based in the document: {doc}");
        // Ingest still indexes healing documents.
        let parsed = parse_fleet_document(&doc).unwrap();
        assert_eq!(parsed.application, "editor");
        assert_eq!(parsed.wrapper, "healing");
        assert_eq!(parsed.heal_events, 1);
    }

    #[test]
    fn plain_document_has_no_healing_section() {
        let doc = to_xml("wordcount", "profiling", &sample());
        assert!(!doc.contains("<healing"), "{doc}");
        assert!(!doc.contains("healing-journal"));
        assert!(!doc.contains("latency-histogram"));
        assert!(!doc.contains("flight-recorder"));
    }

    #[test]
    fn latency_section_is_self_describing() {
        let stats = Stats::new();
        stats.record_call("memcpy", 100, None);
        for v in [0, 3, 900] {
            stats.record_latency("memcpy", "call", v);
        }
        let doc = to_xml("app", "profiling", &stats.snapshot());
        assert!(doc.contains("name=\"latency-histogram\""), "{doc}");
        assert!(doc.contains("<latency stage=\"call\" samples=\"3\">"), "{doc}");
        assert!(doc.contains("<bucket log2=\"2\" floor=\"2\" count=\"1\"/>"), "{doc}");
        assert!(doc.contains("<bucket log2=\"10\" floor=\"512\" count=\"1\"/>"), "{doc}");
    }

    #[test]
    fn flight_section_is_self_describing() {
        use crate::journal::FlightRecord;
        let tail = vec![
            FlightRecord {
                func: "malloc".into(),
                args: "(32)".into(),
                verdict: "ok".into(),
                cycles: 12,
            },
            FlightRecord {
                func: "strcpy".into(),
                args: "(0x1000, \"owned\")".into(),
                verdict: "security-violation".into(),
                cycles: 40,
            },
        ];
        let sections = DocSections { flight: &tail, ..DocSections::default() };
        let doc = render_document("victim", "security", &sample(), &sections);
        assert!(doc.contains("name=\"flight-recorder\""), "{doc}");
        assert!(doc.contains("<flight-recorder entries=\"2\">"), "{doc}");
        assert!(doc.contains("verdict=\"security-violation\""), "{doc}");
        // XmlWriter escapes the quoted argument string.
        assert!(doc.contains("&quot;owned&quot;"), "{doc}");
        // Ingest still indexes flight documents.
        let parsed = parse_fleet_document(&doc).unwrap();
        assert_eq!(parsed.application, "victim");
        assert_eq!(parsed.wrapper, "security");
    }

    #[test]
    fn empty_flight_tail_matches_plain_document() {
        let snap = sample();
        let plain = to_xml("app", "profiling", &snap);
        let flight = render_document(
            "app",
            "profiling",
            &snap,
            &DocSections { flight: &[], ..DocSections::default() },
        );
        assert_eq!(plain, flight);
    }

    #[test]
    fn oblivious_section_is_self_describing() {
        use crate::journal::{
            Absorption, HealAction, HealEvent, ManufacturedRead, ObliviousSnapshot,
            ShadowWrite, TaintedUse,
        };
        let absorbed = |func: &str, absorbed: Absorption, detail: &str| HealEvent {
            func: func.into(),
            arg: Some(0),
            violation: String::new(),
            class: "null-pointer".into(),
            action: HealAction::Obliviated,
            detail: detail.into(),
            absorbed: Some(absorbed),
        };
        let snap = ObliviousSnapshot {
            absorbed: vec![
                absorbed(
                    "strcpy",
                    Absorption::Write(ShadowWrite {
                        arg: Some(0),
                        addr: 0x5000,
                        object_base: 0x5000,
                        object_extent: 8,
                        attempted: 20,
                        clipped: 12,
                    }),
                    "overflowing copy suppressed",
                ),
                absorbed(
                    "strlen",
                    Absorption::Read(ManufacturedRead {
                        class: "null-pointer".into(),
                        role: "cstr-scan".into(),
                        value: "0".into(),
                    }),
                    "NULL scanned as empty string",
                ),
            ],
            uses: vec![TaintedUse { func: "puts".into(), arg: 0, value: "0x5000".into() }],
            dropped: 0,
        };
        let sections = DocSections { oblivious: Some(&snap), ..DocSections::default() };
        let doc = render_document("editor", "healing", &sample(), &sections);
        assert!(doc.contains("name=\"oblivious-audit\""), "{doc}");
        assert!(
            doc.contains("<oblivious reads=\"1\" writes=\"1\" uses=\"1\" dropped=\"0\">"),
            "{doc}"
        );
        assert!(doc.contains("role=\"cstr-scan\""), "{doc}");
        assert!(doc.contains("object-base=\"0x5000\""), "{doc}");
        assert!(doc.contains("clipped=\"12\""), "{doc}");
        assert!(doc.contains("<use function=\"puts\" arg=\"1\""), "{doc}");
        // Reads render before writes whatever their record order.
        assert!(doc.find("<read ").unwrap() < doc.find("<write ").unwrap(), "{doc}");
        // Fleet ingest decodes the disclosure counts.
        let parsed = parse_fleet_document(&doc).unwrap();
        assert_eq!(parsed.oblivious_reads, 1);
        assert_eq!(parsed.oblivious_writes, 1);
        assert_eq!(parsed.oblivious_uses, 1);
    }

    #[test]
    fn empty_oblivious_audit_matches_plain_document() {
        let snap = sample();
        let plain = to_xml("app", "profiling", &snap);
        let empty = crate::journal::ObliviousSnapshot::default();
        let audited = render_document(
            "app",
            "profiling",
            &snap,
            &DocSections { oblivious: Some(&empty), ..DocSections::default() },
        );
        assert_eq!(plain, audited, "no silent section, no silent difference");
        assert!(!plain.contains("oblivious"));
    }
}
