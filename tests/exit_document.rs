//! The exit document a healing wrapper ships, pinned byte for byte.
//!
//! One wrapper with `Policy::Oblivious` on some functions and a flight
//! recorder of 8 is driven through every kind of decision it journals:
//! a repair, a containment, a manufactured oblivious read, a suppressed
//! oblivious write, a downstream use of a manufactured value, a fault
//! absorbed obliviously, and `exit`. Its `<healing>`, `<oblivious>` and
//! `<flight-recorder>` sections are all views over what the wrapper
//! recorded, so any change to how it records shows up here.

use healers::cdecl::{parse_prototype, TypedefTable};
use healers::profiler::{FleetConfig, FleetService};
use healers::simlibc::testutil::libc_proc;
use healers::simproc::{CVal, Fault, VirtAddr};
use healers::typelattice::RobustFunction;
use healers::wrappergen::build_wrapper;
use healers::{Policy, PolicyEngine, RobustApi, SafePred, WrapperConfig, WrapperKind};

fn api() -> RobustApi {
    let t = TypedefTable::with_builtins();
    let f = |proto: &str, preds: Vec<SafePred>| {
        RobustFunction::new(parse_prototype(proto, &t).unwrap(), preds, true)
    };
    RobustApi {
        library: "libsimc.so.1".into(),
        functions: vec![
            f("size_t strlen(const char *s);", vec![SafePred::CStr]),
            f("int fclose(FILE *stream);", vec![SafePred::ValidFilePtr]),
            f(
                "char *strstr(const char *haystack, const char *needle);",
                vec![SafePred::CStr, SafePred::CStr],
            ),
            f(
                "char *strcpy(char *dest, const char *src);",
                vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr],
            ),
            f(
                "void *memset(void *s, int c, size_t n);",
                vec![
                    SafePred::NonNull,
                    SafePred::Always,
                    SafePred::SizeFitsWritable { ptr: 0, elem: 1 },
                ],
            ),
            f("int atoi(const char *nptr);", vec![SafePred::NonNull]),
            f("void exit(int status);", vec![SafePred::Always]),
        ],
    }
}

const EXPECTED: &str = r#"<?xml version="1.0"?>
<healers-profile application="pinned" wrapper="healing" total-calls="11" total-cycles="58">
  <collected>
    <metric name="call-counter"/>
    <metric name="function-exectime"/>
    <metric name="func-errors"/>
    <metric name="collect-errors"/>
    <metric name="healing-journal"/>
    <metric name="flight-recorder"/>
    <metric name="oblivious-audit"/>
  </collected>
  <function name="atoi" calls="1" cycles="6" time-share="10.34">
  </function>
  <function name="exit" calls="1" cycles="0" time-share="0.00">
  </function>
  <function name="fclose" calls="1" cycles="0" time-share="0.00">
    <error errno="22" name="EINVAL" count="1"/>
  </function>
  <function name="memset" calls="1" cycles="0" time-share="0.00">
  </function>
  <function name="strcpy" calls="1" cycles="0" time-share="0.00">
  </function>
  <function name="strlen" calls="5" cycles="52" time-share="89.66">
  </function>
  <function name="strstr" calls="1" cycles="0" time-share="0.00">
  </function>
  <errno-distribution>
    <error errno="22" name="EINVAL" count="1"/>
  </errno-distribution>
  <healing events="6">
    <event function="strlen" arg="1" class="null-pointer" action="repaired" violation="readable NUL-terminated string" detail="substituted empty string"/>
    <event function="fclose" arg="1" class="resource-handle" action="contained" violation="valid FILE pointer" detail="no safe repair exists"/>
    <event function="strstr" arg="1" class="null-pointer" action="obliviated" violation="readable NUL-terminated string" detail="contract-derived default: manufactured empty string at 0x801020 for a NULL-tolerant scan"/>
    <event function="strcpy" arg="1" class="buffer-overflow" action="obliviated" violation="writable buffer &gt;= strlen(arg2)+1" detail="oblivious write suppression: 41 byte(s) to 0x8000030 discarded (25 outside the 16-byte object at 0x8000030)"/>
    <event function="memset" arg="3" class="buffer-overflow" action="obliviated" violation="size &lt;= writable extent of arg1 / 1" detail="oblivious write suppression: 100 byte(s) to 0x8000030 discarded (84 outside the 16-byte object at 0x8000030)"/>
    <event function="atoi" arg="-" class="" action="obliviated" violation="" detail="fault absorbed obliviously: segmentation fault: read at 0x000000000040 in memory access"/>
  </healing>
  <flight-recorder entries="8">
    <call function="strlen" args="(0x000000801000)" verdict="ok" cycles="11"/>
    <call function="strlen" args="(0x000008000010)" verdict="ok" cycles="13"/>
    <call function="fclose" args="(0x000000801008)" verdict="ok" cycles="0"/>
    <call function="strstr" args="(0x000000000000, 0x000000801018)" verdict="ok" cycles="0"/>
    <call function="strlen" args="(0x000000801020)" verdict="ok" cycles="6"/>
    <call function="strcpy" args="(0x000008000030, 0x000000801028)" verdict="ok" cycles="0"/>
    <call function="memset" args="(0x000008000030, 65, 100)" verdict="ok" cycles="0"/>
    <call function="atoi" args="(0x000000000040)" verdict="ok" cycles="6"/>
  </flight-recorder>
  <oblivious reads="2" writes="2" uses="1" dropped="0">
    <read function="strstr" arg="1" class="null-pointer" role="contract-default" value="0x000000801020" detail="contract-derived default: manufactured empty string at 0x801020 for a NULL-tolerant scan"/>
    <read function="atoi" arg="-" class="segv" role="fault-absorb" value="0" detail="fault absorbed obliviously: segmentation fault: read at 0x000000000040 in memory access"/>
    <write function="strcpy" arg="1" addr="0x8000030" object-base="0x8000030" object-extent="16" attempted="41" clipped="25" detail="oblivious write suppression: 41 byte(s) to 0x8000030 discarded (25 outside the 16-byte object at 0x8000030)"/>
    <write function="memset" arg="1" addr="0x8000030" object-base="0x8000030" object-extent="16" attempted="100" clipped="84" detail="oblivious write suppression: 100 byte(s) to 0x8000030 discarded (84 outside the 16-byte object at 0x8000030)"/>
    <use function="strlen" arg="1" value="0x000000801020"/>
  </oblivious>
</healers-profile>
"#;

#[test]
fn healing_exit_document_is_pinned() {
    let service = FleetService::start(FleetConfig::central());
    let policy = PolicyEngine::healing()
        .with_func("strstr", Policy::Oblivious)
        .with_func("strcpy", Policy::Oblivious)
        .with_func("memset", Policy::Oblivious)
        .with_func("atoi", Policy::Oblivious);
    let config = WrapperConfig {
        app_name: "pinned".into(),
        fleet: Some(service.collector()),
        policy: Some(policy),
        flight_recorder: Some(8),
        oblivious_null_defaults: vec!["strstr".into()],
        ..WrapperConfig::default()
    };
    let lib = build_wrapper(WrapperKind::Healing, &api(), &config);
    let call = |p: &mut _, name: &str, args: &[CVal]| lib.get(name).unwrap().call(p, args);
    let mut p = libc_proc();

    let hello = p.alloc_cstr("hello");
    for _ in 0..3 {
        assert_eq!(call(&mut p, "strlen", &[CVal::Ptr(hello)]), Ok(CVal::Int(5)));
    }
    // A repair: strlen(NULL) heals to strlen("").
    assert_eq!(call(&mut p, "strlen", &[CVal::NULL]), Ok(CVal::Int(0)));
    // A containment: no safe repair exists for a bogus FILE*.
    let bogus = p.alloc_data_zeroed(16);
    assert_eq!(call(&mut p, "fclose", &[CVal::Ptr(bogus)]), Ok(CVal::Int(-1)));
    // An oblivious read: a contract-derived empty string for a NULL scan.
    let needle = p.alloc_cstr("x");
    let made = call(&mut p, "strstr", &[CVal::NULL, CVal::Ptr(needle)]).unwrap();
    assert!(!made.is_null());
    // A tainted use: the manufactured string flows into strlen.
    assert_eq!(call(&mut p, "strlen", &[made]), Ok(CVal::Int(0)));
    // An oblivious write: the overflowing copy is suppressed.
    let dest = healers::simlibc::heap::malloc(&mut p, 8).unwrap();
    let long = p.alloc_cstr(&"A".repeat(40));
    let copied = call(&mut p, "strcpy", &[CVal::Ptr(dest), CVal::Ptr(long)]);
    assert_eq!(copied, Ok(CVal::Ptr(dest)));
    // A second one, where the violated argument (the size) is not the
    // destination the suppressed write is attributed to.
    let fill = [CVal::Ptr(dest), CVal::Int(0x41), CVal::Int(100)];
    assert_eq!(call(&mut p, "memset", &fill), Ok(CVal::Ptr(dest)));
    // A fault absorption: the non-NULL check passes, the scan faults.
    let wild = CVal::Ptr(VirtAddr::new(0x40));
    assert_eq!(call(&mut p, "atoi", &[wild]), Ok(CVal::Int(0)));
    assert_eq!(call(&mut p, "exit", &[CVal::Int(0)]), Err(Fault::Exit(0)));

    let doc = lib.shipped_document().expect("exit shipped a document");
    assert_eq!(service.shutdown().accounting.accepted(), 1);
    assert_eq!(doc, EXPECTED, "\n--- shipped ---\n{doc}");
}
