//! Property tests for `parse_fleet_document`, the collection service's
//! only ingest parser. Submitted documents are untrusted input: no string,
//! truncation or byte flip may panic the parser. Documents the renderer
//! produced must parse back to the figures they were rendered from,
//! including names full of XML specials.

use proptest::prelude::*;

use profiler::{
    parse_fleet_document, render_document, Absorption, DocSections, FleetMeta,
    FlightRecord, HealAction, HealEvent, ManufacturedRead, ObliviousSnapshot, ShadowWrite,
    Stats, TaintedUse,
};
use simproc::errno::{EINVAL, ENOENT};

/// Names drawn mostly from XML specials and entity fragments, plus a
/// multi-byte character so truncations land inside code points.
fn name() -> impl Strategy<Value = String> {
    prop_oneof!["[a-z_]{1,8}", "[a-c&;<>\"=/ é]{1,10}", "&[lgtampquo]{2,4};[a-z]{0,3}",]
}

/// One wrapped function's calls: `(name, calls, cycles per call, errno
/// selector)`.
fn calls() -> impl Strategy<Value = Vec<(String, u64, u64, u8)>> {
    prop::collection::vec((name(), 1u64..4, 0u64..1000, 0u8..3), 0..4)
}

/// A rendered document and the inputs it was rendered from.
struct Rendered {
    doc: String,
    app: String,
    wrapper: String,
    meta: Option<FleetMeta>,
    stats: Stats,
    heals: usize,
    oblivious: ObliviousSnapshot,
}

fn heal_event(func: String, detail: String) -> HealEvent {
    HealEvent {
        func,
        arg: Some(0),
        violation: detail.clone(),
        class: "null-pointer".into(),
        action: HealAction::Repaired,
        detail,
        absorbed: None,
    }
}

fn absorbed(func: String, absorbed: Absorption) -> HealEvent {
    HealEvent {
        action: HealAction::Obliviated,
        absorbed: Some(absorbed),
        ..heal_event(func.clone(), func)
    }
}

fn render(
    (app, wrapper): (String, String),
    meta: Option<(u64, u64, Option<String>, Option<String>)>,
    funcs: Vec<(String, u64, u64, u8)>,
    heals: Vec<(String, String)>,
    audit: (Vec<String>, Vec<String>, Vec<String>),
    flight: Vec<(String, String)>,
) -> Rendered {
    let stats = Stats::new();
    for (func, n, cycles, errno) in &funcs {
        for _ in 0..*n {
            let errno = [None, Some(EINVAL), Some(ENOENT)][*errno as usize];
            stats.record_call(func, *cycles, errno);
        }
    }
    let meta = meta.map(|(instance, window, crashed_in, fault)| FleetMeta {
        instance,
        window,
        crashed_in,
        fault,
    });
    let events: Vec<HealEvent> = heals.into_iter().map(|(f, d)| heal_event(f, d)).collect();
    let (reads, writes, uses) = audit;
    let read = |func: String| {
        let value = func.clone();
        let read = ManufacturedRead {
            class: "null-pointer".into(),
            role: "cstr-scan".into(),
            value,
        };
        absorbed(func, Absorption::Read(read))
    };
    let write = |func: String| {
        let write = ShadowWrite {
            arg: Some(0),
            addr: 0x5000,
            object_base: 0x5000,
            object_extent: 8,
            attempted: 20,
            clipped: 12,
        };
        absorbed(func, Absorption::Write(write))
    };
    let oblivious = ObliviousSnapshot {
        absorbed: reads
            .into_iter()
            .map(read)
            .chain(writes.into_iter().map(write))
            .collect(),
        uses: uses
            .into_iter()
            .map(|func| TaintedUse { func: func.clone(), arg: 0, value: func })
            .collect(),
        dropped: 0,
    };
    let tail: Vec<FlightRecord> = flight
        .into_iter()
        .map(|(func, args)| FlightRecord { func, args, verdict: "ok".into(), cycles: 3 })
        .collect();
    let doc = render_document(
        &app,
        &wrapper,
        &stats.snapshot(),
        &DocSections {
            meta: meta.as_ref(),
            healing: (!events.is_empty()).then_some(events.as_slice()),
            healing_dropped: 0,
            flight: &tail,
            oblivious: Some(&oblivious),
        },
    );
    Rendered { doc, app, wrapper, meta, stats, heals: events.len(), oblivious }
}

fn rendered() -> impl Strategy<Value = Rendered> {
    (
        (name(), name()),
        prop_oneof![
            Just(None),
            (
                any::<u64>(),
                0u64..64,
                prop_oneof![Just(None), name().prop_map(Some)],
                prop_oneof![Just(None), name().prop_map(Some)]
            )
                .prop_map(Some),
        ],
        calls(),
        prop::collection::vec((name(), name()), 0..3),
        (
            prop::collection::vec(name(), 0..2),
            prop::collection::vec(name(), 0..2),
            prop::collection::vec(name(), 0..2),
        ),
        prop::collection::vec((name(), name()), 0..2),
    )
        .prop_map(|(ids, meta, funcs, heals, audit, flight)| {
            render(ids, meta, funcs, heals, audit, flight)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn render_then_parse_keeps_every_figure(r in rendered()) {
        let parsed = parse_fleet_document(&r.doc)
            .map_err(|e| TestCaseError::fail(format!("{e}: {}", r.doc)))?;
        prop_assert_eq!(&parsed.application, &r.app);
        prop_assert_eq!(&parsed.wrapper, &r.wrapper);
        let meta = r.meta.clone().unwrap_or_default();
        prop_assert_eq!(parsed.instance, meta.instance);
        prop_assert_eq!(parsed.window, meta.window);
        prop_assert_eq!(&parsed.crashed_in, &meta.crashed_in);
        prop_assert_eq!(&parsed.fault, &meta.fault);
        let snap = r.stats.snapshot();
        let expected: Vec<(String, u64, u64, u64)> = snap
            .per_func
            .iter()
            .map(|(n, f)| (n.clone(), f.calls, f.cycles, f.errnos.values().sum()))
            .collect();
        let got: Vec<(String, u64, u64, u64)> = parsed
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.calls, f.cycles, f.errors))
            .collect();
        prop_assert_eq!(got, expected, "{}", r.doc);
        prop_assert_eq!(parsed.heal_events, r.heals as u64);
        prop_assert_eq!(parsed.oblivious_reads, r.oblivious.reads().count() as u64);
        prop_assert_eq!(parsed.oblivious_writes, r.oblivious.writes().count() as u64);
        prop_assert_eq!(parsed.oblivious_uses, r.oblivious.uses.len() as u64);
    }

    #[test]
    fn truncations_and_byte_flips_never_panic(r in rendered(), mask in 1u8..=255) {
        let bytes = r.doc.as_bytes();
        for i in 0..=bytes.len() {
            let _ = parse_fleet_document(&String::from_utf8_lossy(&bytes[..i]));
        }
        let mut flipped = bytes.to_vec();
        for i in 0..flipped.len() {
            flipped[i] ^= mask;
            let _ = parse_fleet_document(&String::from_utf8_lossy(&flipped));
            flipped[i] ^= mask;
        }
    }

    #[test]
    fn arbitrary_strings_never_panic(
        body in "[a-z0-9<>/=\" &;é-]{0,160}",
        rooted in any::<bool>(),
    ) {
        let doc = if rooted { format!("<healers-profile {body}") } else { body };
        let _ = parse_fleet_document(&doc);
    }
}
