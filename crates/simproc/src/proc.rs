//! The simulated process: address space + kernel + stack + fuel + errno.
//!
//! Every simulated C library function and every simulated application runs
//! against a [`Proc`]. All memory traffic goes through the fuel-metered
//! checked accessors, so a call that would hang (e.g. `strlen` walking an
//! unterminated buffer around a circular mapping) runs out of fuel and is
//! classified as a hang, and every access is protection-checked so crashes
//! become observable [`Fault`] values.

use crate::addr::{Access, Prot, VirtAddr};
use crate::calltable::{CallTarget, FuncId, FuncTable, SHELLCODE_MAGIC};
use crate::chunks::LiveChunks;
use crate::cval::CVal;
use crate::fault::Fault;
use crate::kernel::Kernel;
use crate::layout;
use crate::mem::AddressSpace;

/// A stack frame of a simulated application function.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Name of the function that owns the frame (diagnostics).
    pub func: String,
    /// Highest address of the frame (the stack pointer at entry).
    pub top: VirtAddr,
    /// Address of the saved return-address slot inside the frame.
    pub ret_slot: VirtAddr,
    /// The sentinel stored in the return slot at frame creation.
    ret_sentinel: u64,
}

impl Frame {
    /// Whether `addr` lies inside this frame's local area (below the saved
    /// return address, at or above the current extent of the stack).
    pub fn contains_local(&self, addr: VirtAddr, sp: VirtAddr) -> bool {
        addr >= sp && addr < self.ret_slot
    }
}

/// Default execution fuel for a single library call under fault injection.
pub const DEFAULT_CALL_FUEL: u64 = 2_000_000;

/// Slots in the per-process validation memo (direct mapped).
const MEMO_SLOTS: usize = 64;

/// One memoized pointer validation: "wrapper `key` judged pointer `ptr`
/// valid while the address space sat at `mem_epoch` and the judging
/// oracle's auxiliary state at `aux_epoch`". Expires the instant either
/// epoch moves.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    key: u64,
    ptr: u64,
    mem_epoch: u64,
    aux_epoch: u64,
}

/// `key` is `u64::MAX` on empty slots: real keys are `(wrapper id << 32) |
/// arg slot` with the slot strictly below `u32::MAX`, so a real key's low
/// half is never all-ones and no key can collide with the sentinel.
const MEMO_EMPTY: MemoEntry =
    MemoEntry { key: u64::MAX, ptr: 0, mem_epoch: 0, aux_epoch: 0 };

/// Direct-mapped table slot for `key`. The wrapper id and the arg slot
/// occupy disjoint 32-bit halves of the key, so fold the halves together
/// before reducing — a plain `key % MEMO_SLOTS` would map every wrapper's
/// slot-0 key onto table slot 0.
fn memo_slot(key: u64) -> usize {
    ((key >> 32) ^ key) as usize % MEMO_SLOTS
}

/// Identifier of one simulated thread inside a [`Proc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(u32);

impl ThreadId {
    /// The main thread, alive from process creation.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Zero-based index (main thread is 0, spawn order after that).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The saved execution context of one simulated thread: everything that is
/// private per-thread while the address space, heap, kernel and fuel meter
/// stay shared. The *current* thread's context lives unpacked in the hot
/// [`Proc`] fields (`errno`, `frames`, `sp`, `validation_memo`, stack
/// bounds); its `SimThread` entry holds stale copies until the next
/// [`Proc::switch_thread`] parks it.
///
/// The validation memo is deliberately per-thread: memoized verdicts from
/// extent-oracle predicates can depend on the judging thread's own live
/// frames and stack pointer, which swap on a thread switch *without* an
/// address-space epoch bump. Keeping the table with the thread means a
/// verdict can only ever be replayed under the frames it was computed
/// against, while any thread's mutation still expires every table through
/// the shared epoch.
#[derive(Debug, Clone)]
struct SimThread {
    /// Diagnostic name (worker label in server reports).
    name: String,
    errno: i32,
    frames: Vec<Frame>,
    sp: VirtAddr,
    /// Lowest address of this thread's stack mapping (overflow limit).
    stack_base: VirtAddr,
    /// Top (exclusive) of this thread's stack mapping.
    stack_top: VirtAddr,
    memo: Option<Box<[MemoEntry; MEMO_SLOTS]>>,
}

/// A simulated process image.
///
/// ```
/// use simproc::{Proc, CVal};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Proc::new();
/// let s = p.alloc_data(b"hello\0");
/// assert_eq!(p.read_cstr_lossy(s), "hello");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Proc {
    /// The simulated address space.
    pub mem: AddressSpace,
    /// Kernel-side state: files, std streams, privilege, attack flags.
    pub kernel: Kernel,
    /// The function/address table: names, text addresses and host
    /// implementations, shared copy-on-write with the processes it was
    /// cloned from.
    pub funcs: FuncTable,
    errno: i32,
    fuel_limit: Option<u64>,
    fuel_used: u64,
    frames: Vec<Frame>,
    sp: VirtAddr,
    /// Lowest address of the current thread's stack (overflow limit).
    stack_base: VirtAddr,
    /// Top (exclusive) of the current thread's stack.
    stack_top: VirtAddr,
    data_cursor: VirtAddr,
    rodata_cursor: VirtAddr,
    /// The one empty C string [`Proc::empty_cstr`] hands out, placed in
    /// the data segment on first use.
    empty_cstr: Option<VirtAddr>,
    exit_status: Option<i32>,
    next_sentinel: u64,
    fleet_identity: Option<(u64, u64, u64)>,
    /// Direct-mapped positive cache of pointer validations, keyed by
    /// (wrapper, arg slot). Allocated lazily on the first store so
    /// processes that never run compiled wrappers pay nothing. Belongs to
    /// the *current thread* — see [`SimThread`] for why the tables are
    /// per-thread — and is swapped out by [`Proc::switch_thread`].
    validation_memo: Option<Box<[MemoEntry; MEMO_SLOTS]>>,
    /// Every simulated thread of the process, indexed by [`ThreadId`].
    /// Entry `cur_thread` is stale while that thread runs (its live
    /// context sits in the fields above).
    threads: Vec<SimThread>,
    /// Index of the currently running thread.
    cur_thread: u32,
    /// The heap allocator's record of live chunks, shared by every
    /// thread like the heap itself.
    live_chunks: LiveChunks,
}

impl Default for Proc {
    fn default() -> Self {
        Proc::new()
    }
}

impl Proc {
    /// Creates a process with the standard segment layout mapped.
    pub fn new() -> Self {
        let mut mem = AddressSpace::new();
        mem.map(layout::TEXT_BASE, layout::TEXT_SIZE, Prot::RX, "text").expect("layout");
        mem.map(layout::RODATA_BASE, layout::RODATA_SIZE, Prot::R, "rodata")
            .expect("layout");
        mem.map(layout::DATA_BASE, layout::DATA_SIZE, Prot::RW, "data").expect("layout");
        mem.map(layout::HEAP_BASE, layout::HEAP_INITIAL, Prot::RW, "heap").expect("layout");
        mem.map(layout::STACK_BASE, layout::STACK_SIZE, Prot::RW, "[stack]")
            .expect("layout");
        Proc {
            mem,
            kernel: Kernel::new(),
            funcs: FuncTable::new(),
            errno: 0,
            fuel_limit: None,
            fuel_used: 0,
            frames: Vec::new(),
            sp: layout::STACK_TOP,
            stack_base: layout::STACK_BASE,
            stack_top: layout::STACK_TOP,
            data_cursor: layout::DATA_CURSOR_START,
            rodata_cursor: layout::RODATA_BASE,
            empty_cstr: None,
            exit_status: None,
            next_sentinel: 0x5AFE_0000_0000_0000,
            fleet_identity: None,
            validation_memo: None,
            threads: vec![SimThread {
                name: "main".to_string(),
                errno: 0,
                frames: Vec::new(),
                sp: layout::STACK_TOP,
                stack_base: layout::STACK_BASE,
                stack_top: layout::STACK_TOP,
                memo: None,
            }],
            cur_thread: 0,
            live_chunks: LiveChunks::default(),
        }
    }

    // ----- simulated threads ----------------------------------------------

    /// Spawns a new simulated thread with its own stack, errno, frame list
    /// and validation memo, sharing this process's address space, heap,
    /// kernel and fuel meter. The thread starts parked; run it with
    /// [`Proc::switch_thread`]. Mapping the stack bumps the validation
    /// epoch, so every memoized verdict in every thread expires.
    ///
    /// # Errors
    ///
    /// [`Fault::Abort`] when the thread-stack area is exhausted.
    pub fn spawn_thread(&mut self, name: &str) -> Result<ThreadId, Fault> {
        let n = self.threads.len() as u32;
        let top = layout::thread_stack_top(n).ok_or_else(|| {
            Fault::abort(format!("thread stack area exhausted at {name}"))
        })?;
        let base = top.sub(layout::THREAD_STACK_SIZE);
        self.mem
            .map(base, layout::THREAD_STACK_SIZE, Prot::RW, format!("[stack:t{n}]"))
            .map_err(|e| Fault::abort(format!("mapping stack for {name}: {e}")))?;
        self.threads.push(SimThread {
            name: name.to_string(),
            errno: 0,
            frames: Vec::new(),
            sp: top,
            stack_base: base,
            stack_top: top,
            memo: None,
        });
        Ok(ThreadId(n))
    }

    /// Parks the current thread and resumes `tid`: errno, the frame list,
    /// the stack pointer/bounds and the validation memo are swapped; the
    /// address space, heap, kernel, fuel meter and epoch stay shared. A
    /// no-op when `tid` is already current. Deliberately *not* an epoch
    /// bump: each thread keeps its own memo table, so cached verdicts
    /// stay sound across switches.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was never spawned.
    pub fn switch_thread(&mut self, tid: ThreadId) {
        assert!(tid.index() < self.threads.len(), "switch to unspawned thread {tid}");
        if tid.0 == self.cur_thread {
            return;
        }
        let cur = &mut self.threads[self.cur_thread as usize];
        cur.errno = self.errno;
        cur.sp = self.sp;
        cur.frames = std::mem::take(&mut self.frames);
        cur.memo = self.validation_memo.take();
        let next = &mut self.threads[tid.index()];
        self.errno = next.errno;
        self.sp = next.sp;
        self.stack_base = next.stack_base;
        self.stack_top = next.stack_top;
        self.frames = std::mem::take(&mut next.frames);
        self.validation_memo = next.memo.take();
        self.cur_thread = tid.0;
    }

    /// The currently running thread.
    pub fn current_thread(&self) -> ThreadId {
        ThreadId(self.cur_thread)
    }

    /// Number of simulated threads (main thread included).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Diagnostic name of a thread.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was never spawned.
    pub fn thread_name(&self, tid: ThreadId) -> &str {
        // The parked entry is stale only for context registers; the name
        // never changes after spawn, so this is safe for the current
        // thread too.
        &self.threads[tid.index()].name
    }

    // ----- the heap allocator's live-chunk record --------------------------

    /// The live heap chunks the allocator has handed out and not yet
    /// taken back.
    pub fn live_chunks(&self) -> &LiveChunks {
        &self.live_chunks
    }

    /// Mutable access for the allocator, which updates the record at its
    /// own return points.
    pub fn live_chunks_mut(&mut self) -> &mut LiveChunks {
        &mut self.live_chunks
    }

    // ----- epoch-memoized pointer validation ------------------------------

    /// Whether the validation memo holds a still-live entry for `key`
    /// judging exactly `ptr`: same pointer, same address-space epoch, same
    /// auxiliary (oracle) epoch. A hit means the cached judgement is
    /// provably identical to re-running the check, so the caller may skip
    /// it entirely.
    pub fn validation_hit(&self, key: u64, ptr: VirtAddr, aux_epoch: u64) -> bool {
        match &self.validation_memo {
            Some(table) => {
                let e = &table[memo_slot(key)];
                e.key == key
                    && e.ptr == ptr.get()
                    && e.mem_epoch == self.mem.epoch()
                    && e.aux_epoch == aux_epoch
            }
            None => false,
        }
    }

    /// Records a *successful* validation of `ptr` under `key` at the
    /// current address-space epoch. Only positive results may be stored:
    /// the memo is consulted to skip checks, never to fail them.
    pub fn validation_store(&mut self, key: u64, ptr: VirtAddr, aux_epoch: u64) {
        let mem_epoch = self.mem.epoch();
        let table =
            self.validation_memo.get_or_insert_with(|| Box::new([MEMO_EMPTY; MEMO_SLOTS]));
        table[memo_slot(key)] = MemoEntry { key, ptr: ptr.get(), mem_epoch, aux_epoch };
    }

    /// Registers a callable function: a name, a text address, and a host
    /// implementation. Calls through the address reach `imp`. The entry
    /// is private to this process: a call table shared with other
    /// processes is copied first (see [`FuncTable`]).
    pub fn register_host_fn(&mut self, name: &str, imp: HostFn) -> VirtAddr {
        self.funcs.register_impl(name, imp).1
    }

    /// The host implementation behind a function id, if one is registered.
    pub fn host_fn(&self, id: FuncId) -> Option<HostFn> {
        self.funcs.imp(id)
    }

    // ----- errno ---------------------------------------------------------

    /// Current `errno` value.
    pub fn errno(&self) -> i32 {
        self.errno
    }

    /// Sets `errno`.
    pub fn set_errno(&mut self, e: i32) {
        self.errno = e;
    }

    // ----- fuel / cycles --------------------------------------------------

    /// Installs a fuel budget; `None` removes the watchdog.
    pub fn set_fuel_limit(&mut self, limit: Option<u64>) {
        self.fuel_limit = limit;
    }

    /// Fuel spent so far — also the deterministic "cycle counter" that the
    /// `function exectime` micro-generator samples instead of `rdtsc`.
    pub fn cycles(&self) -> u64 {
        self.fuel_used
    }

    /// Stamps the process with its fleet identity: which fleet member
    /// this process is (`instance`), which logical reporting window
    /// (`epoch`) the run belongs to, and the fleet-wide simulation seed.
    /// Wrappers that ship documents at `exit` read it back to tag their
    /// submissions; unset for ordinary (non-fleet) processes.
    pub fn set_fleet_identity(&mut self, instance: u64, epoch: u64, seed: u64) {
        self.fleet_identity = Some((instance, epoch, seed));
    }

    /// The `(instance, epoch, seed)` stamped by
    /// [`Proc::set_fleet_identity`], if any.
    pub fn fleet_identity(&self) -> Option<(u64, u64, u64)> {
        self.fleet_identity
    }

    /// Burns `n` units of fuel.
    ///
    /// # Errors
    ///
    /// [`Fault::Hang`] when the budget is exhausted.
    pub fn consume_fuel(&mut self, n: u64) -> Result<(), Fault> {
        self.fuel_used = self.fuel_used.saturating_add(n);
        match self.fuel_limit {
            Some(limit) if self.fuel_used > limit => Err(Fault::Hang),
            _ => Ok(()),
        }
    }

    // ----- checked, fuel-metered memory access ----------------------------

    /// Reads one byte (1 fuel).
    pub fn read_u8(&mut self, addr: VirtAddr) -> Result<u8, Fault> {
        self.consume_fuel(1)?;
        self.mem.read_u8(addr)
    }

    /// Writes one byte (1 fuel).
    pub fn write_u8(&mut self, addr: VirtAddr, v: u8) -> Result<(), Fault> {
        self.consume_fuel(1)?;
        self.mem.write_u8(addr, v)
    }

    /// Reads a `u32` (1 fuel).
    pub fn read_u32(&mut self, addr: VirtAddr) -> Result<u32, Fault> {
        self.consume_fuel(1)?;
        self.mem.read_u32(addr)
    }

    /// Writes a `u32` (1 fuel).
    pub fn write_u32(&mut self, addr: VirtAddr, v: u32) -> Result<(), Fault> {
        self.consume_fuel(1)?;
        self.mem.write_u32(addr, v)
    }

    /// Reads a `u64` (1 fuel).
    pub fn read_u64(&mut self, addr: VirtAddr) -> Result<u64, Fault> {
        self.consume_fuel(1)?;
        self.mem.read_u64(addr)
    }

    /// Writes a `u64` (1 fuel).
    pub fn write_u64(&mut self, addr: VirtAddr, v: u64) -> Result<(), Fault> {
        self.consume_fuel(1)?;
        self.mem.write_u64(addr, v)
    }

    /// Reads a pointer (1 fuel).
    pub fn read_ptr(&mut self, addr: VirtAddr) -> Result<VirtAddr, Fault> {
        Ok(VirtAddr::new(self.read_u64(addr)?))
    }

    /// Writes a pointer (1 fuel).
    pub fn write_ptr(&mut self, addr: VirtAddr, v: VirtAddr) -> Result<(), Fault> {
        self.write_u64(addr, v.get())
    }

    /// Reads `len` bytes (1 fuel per 8 bytes, minimum 1).
    pub fn read_bytes(&mut self, addr: VirtAddr, len: u64) -> Result<Vec<u8>, Fault> {
        self.consume_fuel(1 + len / 8)?;
        self.mem.read_bytes(addr, len)
    }

    /// Writes bytes (1 fuel per 8 bytes, minimum 1).
    pub fn write_bytes(&mut self, addr: VirtAddr, bytes: &[u8]) -> Result<(), Fault> {
        self.consume_fuel(1 + bytes.len() as u64 / 8)?;
        self.mem.write_bytes(addr, bytes)
    }

    /// Reads a NUL-terminated C string starting at `addr`, one fuel per
    /// byte. An unterminated string keeps scanning until it faults on
    /// unmapped memory or runs out of fuel — exactly like real `strlen`.
    /// The length is scanned first, so the host buffer has exactly the
    /// string's size, and a scan that faults allocates nothing.
    pub fn read_cstr(&mut self, addr: VirtAddr) -> Result<Vec<u8>, Fault> {
        let len = self.cstr_len(addr)?;
        Ok(self.mem.read_bytes(addr, len).expect("scanned readable"))
    }

    /// The length of the C string at `addr`: [`Proc::scan`] for its NUL,
    /// one fuel per byte read, the NUL included.
    ///
    /// # Errors
    ///
    /// [`Fault::Hang`] or [`Fault::Segv`] where the scan runs out of fuel
    /// or mapped memory.
    pub fn cstr_len(&mut self, addr: VirtAddr) -> Result<u64, Fault> {
        Ok(self.scan(addr, 0, u64::MAX)?.expect("a NUL ends every unfaulted scan"))
    }

    // ----- run primitives ---------------------------------------------------
    //
    // Each primitive is observably one byte loop of `read_u8`/`write_u8`:
    // the same result, the same fault (address and access included), the
    // same partial writes before it and the same `cycles()`. Only the cost
    // differs: a step moves the largest run the fuel left, the readable
    // source run, the writable destination run and the overlap of source
    // and destination allow, in one bulk access. When no byte fits, the
    // primitive takes one byte step of its loop, which faults exactly as
    // the loop would have.

    /// Fuel that can still be burned without a hang.
    fn fuel_left(&self) -> u64 {
        match self.fuel_limit {
            Some(limit) => limit.saturating_sub(self.fuel_used),
            None => u64::MAX,
        }
    }

    /// Charges `n` fuel already known to fit in [`Proc::fuel_left`].
    fn charge(&mut self, n: u64) {
        self.fuel_used = self.fuel_used.saturating_add(n);
    }

    /// Writes `v` to the `n` bytes at `addr`: the loop of `n` ×
    /// [`Proc::write_u8`], 1 fuel per byte.
    ///
    /// # Errors
    ///
    /// [`Fault::Hang`] or [`Fault::Segv`] where that loop would fault, with
    /// the bytes before it written.
    pub fn fill(&mut self, addr: VirtAddr, n: u64, v: u8) -> Result<(), Fault> {
        let mut done = 0u64;
        while done < n {
            let at = addr.add(done);
            let k = (n - done)
                .min(self.fuel_left())
                .min(self.mem.run_at(at, Access::Write).len() as u64);
            if k == 0 {
                self.write_u8(at, v)?;
                done += 1;
                continue;
            }
            self.charge(k);
            self.mem.fill(at, k, v).expect("run is writable");
            done += k;
        }
        Ok(())
    }

    /// Copies `n` bytes from `src` to `dst` front to back: the loop of `n`
    /// × ([`Proc::read_u8`] of `src[i]`, [`Proc::write_u8`] of `dst[i]`),
    /// 2 fuel per byte. Like that loop, an overlapping `dst` above `src`
    /// re-reads bytes the copy already wrote (the classic `memcpy` smear).
    ///
    /// # Errors
    ///
    /// [`Fault::Hang`] or [`Fault::Segv`] where that loop would fault, with
    /// the bytes before it copied.
    pub fn copy_forward(
        &mut self,
        dst: VirtAddr,
        src: VirtAddr,
        n: u64,
    ) -> Result<(), Fault> {
        self.copy_runs(dst, src, n, false).map(|_| ())
    }

    /// [`Proc::copy_forward`] of at most `max` bytes that stops after
    /// copying a NUL, as `strcpy` does. Returns the bytes copied, the NUL
    /// included.
    ///
    /// # Errors
    ///
    /// As [`Proc::copy_forward`].
    pub fn copy_cstr(
        &mut self,
        dst: VirtAddr,
        src: VirtAddr,
        max: u64,
    ) -> Result<u64, Fault> {
        self.copy_runs(dst, src, max, true)
    }

    fn copy_runs(
        &mut self,
        dst: VirtAddr,
        src: VirtAddr,
        n: u64,
        stop_after_nul: bool,
    ) -> Result<u64, Fault> {
        // A destination `d` bytes above the source reads, at byte `i`, what
        // byte `i - d` wrote: a run of at most `d` bytes reads only bytes
        // from before it.
        let reach = if dst > src { dst.diff(src) } else { u64::MAX };
        let mut done = 0u64;
        while done < n {
            let (s, d) = (src.add(done), dst.add(done));
            let read = self.mem.run_at(s, Access::Read);
            let mut k = (n - done)
                .min(self.fuel_left() / 2)
                .min(read.len() as u64)
                .min(self.mem.run_at(d, Access::Write).len() as u64)
                .min(reach);
            if k == 0 {
                let b = self.read_u8(s)?;
                self.write_u8(d, b)?;
                done += 1;
                if stop_after_nul && b == 0 {
                    return Ok(done);
                }
                continue;
            }
            let nul = stop_after_nul
                .then(|| read[..k as usize].iter().position(|&b| b == 0))
                .flatten();
            if let Some(z) = nul {
                k = z as u64 + 1;
            }
            self.charge(2 * k);
            self.mem.copy_within(d, s, k).expect("runs are accessible");
            done += k;
            if nul.is_some() {
                return Ok(done);
            }
        }
        Ok(done)
    }

    /// Copies `n` bytes from `src` to `dst` back to front, `memmove`'s
    /// overlap branch: the loop of, for `i` from `n - 1` down to 0,
    /// [`Proc::read_u8`] of `src[i]` and [`Proc::write_u8`] of `dst[i]`,
    /// 2 fuel per byte.
    ///
    /// # Errors
    ///
    /// [`Fault::Hang`] or [`Fault::Segv`] where that loop would fault, with
    /// the bytes above it copied.
    pub fn copy_backward(
        &mut self,
        dst: VirtAddr,
        src: VirtAddr,
        n: u64,
    ) -> Result<(), Fault> {
        // Mirror of `copy_runs`: a destination below the source reads back
        // what the copy wrote `src - dst` bytes earlier.
        let reach = if src > dst { src.diff(dst) } else { u64::MAX };
        let mut left = n;
        while left > 0 {
            let (s, d) = (src.add(left), dst.add(left));
            let k = left
                .min(self.fuel_left() / 2)
                .min(self.mem.run_before(s, Access::Read).len() as u64)
                .min(self.mem.run_before(d, Access::Write).len() as u64)
                .min(reach);
            if k == 0 {
                left -= 1;
                let b = self.read_u8(src.add(left))?;
                self.write_u8(dst.add(left), b)?;
                continue;
            }
            left -= k;
            self.charge(2 * k);
            self.mem
                .copy_within(dst.add(left), src.add(left), k)
                .expect("runs are accessible");
        }
        Ok(())
    }

    /// Reads bytes from `addr` until one equals `needle`, at most `max` of
    /// them: the loop of [`Proc::read_u8`], 1 fuel per byte read. Returns
    /// the needle's offset, or `None` when the first `max` bytes hold none.
    ///
    /// # Errors
    ///
    /// [`Fault::Hang`] or [`Fault::Segv`] where that loop would fault.
    pub fn scan(
        &mut self,
        addr: VirtAddr,
        needle: u8,
        max: u64,
    ) -> Result<Option<u64>, Fault> {
        let mut done = 0u64;
        while done < max {
            let at = addr.add(done);
            let run = self.mem.run_at(at, Access::Read);
            let k = (max - done).min(self.fuel_left()).min(run.len() as u64);
            if k == 0 {
                if self.read_u8(at)? == needle {
                    return Ok(Some(done));
                }
                done += 1;
                continue;
            }
            if let Some(z) = run[..k as usize].iter().position(|&b| b == needle) {
                self.charge(z as u64 + 1);
                return Ok(Some(done + z as u64));
            }
            self.charge(k);
            done += k;
        }
        Ok(None)
    }

    /// Swaps the `size` bytes at `a` with the `size` bytes after them: the
    /// sequence of [`Proc::read_bytes`] of both elements, then
    /// [`Proc::write_bytes`] of each into the other's place, `1 + size / 8`
    /// fuel for each of the four. When both elements lie in one readable
    /// and writable region and the fuel left covers all four charges, the
    /// swap happens in place and is charged at once; otherwise the four
    /// calls run as written, so a fault, a hang between two of them and a
    /// write made before it are theirs.
    ///
    /// # Errors
    ///
    /// [`Fault::Hang`] or [`Fault::Segv`] where that sequence would fault.
    pub fn swap_adjacent(&mut self, a: VirtAddr, size: u64) -> Result<(), Fault> {
        let each = 1 + size / 8;
        if each.checked_mul(4).is_some_and(|all| all <= self.fuel_left())
            && self.mem.swap_adjacent(a, size)
        {
            self.charge(4 * each);
            return Ok(());
        }
        let b = a.add(size);
        let va = self.read_bytes(a, size)?;
        let vb = self.read_bytes(b, size)?;
        self.write_bytes(a, &vb)?;
        self.write_bytes(b, &va)
    }

    /// [`Proc::read_cstr`] decoded as lossy UTF-8; panics on fault
    /// (host-side convenience for tests and reports only).
    pub fn read_cstr_lossy(&mut self, addr: VirtAddr) -> String {
        String::from_utf8_lossy(&self.read_cstr(addr).expect("read_cstr_lossy faulted"))
            .into_owned()
    }

    /// Writes `s` plus a terminating NUL.
    pub fn write_cstr(&mut self, addr: VirtAddr, s: &[u8]) -> Result<(), Fault> {
        self.write_bytes(addr, s)?;
        self.write_u8(addr.add(s.len() as u64), 0)
    }

    // ----- fixture helpers (host-side, unmetered) --------------------------

    /// Bump-allocates `bytes` in the writable data segment. Panics if the
    /// segment is exhausted (fixtures only).
    pub fn alloc_data(&mut self, bytes: &[u8]) -> VirtAddr {
        let addr = self.data_cursor.align_up(8);
        let end = addr.add(bytes.len() as u64);
        assert!(end <= layout::DATA_BASE.add(layout::DATA_SIZE), "data segment exhausted");
        assert!(self.mem.poke_bytes(addr, bytes), "data segment not mapped");
        self.data_cursor = end;
        addr
    }

    /// Bump-allocates `len` zeroed bytes in the data segment.
    pub fn alloc_data_zeroed(&mut self, len: u64) -> VirtAddr {
        let addr = self.data_cursor.align_up(8);
        let end = addr.add(len);
        assert!(end <= layout::DATA_BASE.add(layout::DATA_SIZE), "data segment exhausted");
        self.data_cursor = end;
        addr
    }

    /// Bump-allocates `bytes` in the *read-only* data segment (string
    /// literals, ctype tables). Uses the loader view to write.
    pub fn alloc_rodata(&mut self, bytes: &[u8]) -> VirtAddr {
        let addr = self.rodata_cursor.align_up(8);
        let end = addr.add(bytes.len() as u64);
        assert!(
            end <= layout::RODATA_BASE.add(layout::RODATA_SIZE),
            "rodata segment exhausted"
        );
        assert!(self.mem.poke_bytes(addr, bytes), "rodata not mapped");
        self.rodata_cursor = end;
        addr
    }

    /// Places a NUL-terminated C string in the data segment.
    pub fn alloc_cstr(&mut self, s: &str) -> VirtAddr {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.alloc_data(&bytes)
    }

    /// The process's one manufactured empty C string. The first call
    /// places it in the data segment; every later call returns the same
    /// address, its NUL byte rewritten in case a caller stored through
    /// it. A caller that fabricates empty strings on every call thus
    /// uses one data-segment slot, however often it runs.
    pub fn empty_cstr(&mut self) -> VirtAddr {
        match self.empty_cstr {
            Some(addr) => {
                assert!(self.mem.poke_bytes(addr, &[0]), "data segment not mapped");
                addr
            }
            None => {
                let addr = self.alloc_cstr("");
                self.empty_cstr = Some(addr);
                addr
            }
        }
    }

    /// Places a NUL-terminated C string in the read-only segment, the way
    /// a compiler places string literals.
    pub fn alloc_cstr_literal(&mut self, s: &str) -> VirtAddr {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.alloc_rodata(&bytes)
    }

    // ----- stack ----------------------------------------------------------

    /// Current stack pointer.
    pub fn sp(&self) -> VirtAddr {
        self.sp
    }

    /// Pushes a stack frame for `func`, reserving the saved-return-address
    /// slot that stack-smashing attacks target.
    ///
    /// # Errors
    ///
    /// [`Fault::Segv`] on stack overflow.
    pub fn push_frame(&mut self, func: &str) -> Result<(), Fault> {
        let ret_slot = self.sp.sub(8);
        let new_sp = self.sp.sub(16); // saved return address + saved frame ptr
        if new_sp < self.stack_base {
            return Err(Fault::segv(new_sp, Access::Write, "stack overflow"));
        }
        let sentinel = self.next_sentinel;
        self.next_sentinel += 1;
        self.mem.write_u64(ret_slot, sentinel)?;
        self.frames.push(Frame {
            func: func.to_string(),
            top: self.sp,
            ret_slot,
            ret_sentinel: sentinel,
        });
        self.sp = new_sp;
        Ok(())
    }

    /// Allocates `len` bytes of locals in the current frame, returning the
    /// lowest address of the buffer (buffers grow toward the return
    /// address above them — the classic smash direction).
    ///
    /// # Errors
    ///
    /// [`Fault::Segv`] on stack overflow.
    ///
    /// # Panics
    ///
    /// Panics if no frame has been pushed.
    pub fn stack_alloc(&mut self, len: u64) -> Result<VirtAddr, Fault> {
        assert!(!self.frames.is_empty(), "stack_alloc outside any frame");
        let new_sp = self.sp.sub(len).align_down(8);
        if new_sp < self.stack_base {
            return Err(Fault::segv(new_sp, Access::Write, "stack overflow"));
        }
        self.sp = new_sp;
        // Moving the stack pointer changes which addresses count as live
        // frame locals (the stack extent oracle), without touching memory.
        self.mem.bump_epoch();
        Ok(new_sp)
    }

    /// Pops the current frame, simulating the function's `ret`. If the
    /// saved return address was clobbered, control transfers to whatever
    /// the attacker wrote there: shellcode sets the kernel's
    /// `shell_spawned` flag; anything else is a wild jump.
    ///
    /// # Errors
    ///
    /// [`Fault::WildJump`] when the return address was overwritten.
    pub fn pop_frame(&mut self) -> Result<(), Fault> {
        let frame = self.frames.pop().expect("pop_frame without a frame");
        let stored = self.mem.read_u64(frame.ret_slot)?;
        self.sp = frame.top;
        // The frame and its locals are dead: extents computed against it
        // must expire even though no region data changed.
        self.mem.bump_epoch();
        if stored == frame.ret_sentinel {
            return Ok(());
        }
        let target = VirtAddr::new(stored);
        if self.resolve_call(target) == CallTarget::Shellcode {
            self.kernel.shell_spawned = true;
        }
        Err(Fault::WildJump { target })
    }

    /// The innermost live frame containing `addr`, used by the stack
    /// guard's extent oracle.
    pub fn frame_containing(&self, addr: VirtAddr) -> Option<&Frame> {
        self.frames
            .iter()
            .rev()
            .find(|f| f.contains_local(addr, self.sp) || (addr >= self.sp && addr < f.top))
    }

    /// Depth of the frame stack.
    pub fn frame_depth(&self) -> usize {
        self.frames.len()
    }

    // ----- indirect calls and control-flow hijack ---------------------------

    /// Classifies an indirect call target. A pointer into memory whose
    /// first 24 bytes contain [`SHELLCODE_MAGIC`] "executes" the
    /// attacker's payload: the kernel records a spawned shell. The search
    /// window models the jump-over-clobbered-bytes trick real unlink
    /// exploits use (unlink's second write destroys the payload's first
    /// word).
    pub fn resolve_call(&self, target: VirtAddr) -> CallTarget {
        if let Some(id) = self.funcs.by_addr(target) {
            return CallTarget::Function(id);
        }
        let window = 16 + SHELLCODE_MAGIC.len() as u64;
        if let Some(bytes) = self.mem.peek_bytes(target, window) {
            if bytes.windows(SHELLCODE_MAGIC.len()).any(|w| w == SHELLCODE_MAGIC) {
                return CallTarget::Shellcode;
            }
        }
        CallTarget::Wild
    }

    /// Performs an indirect call resolution with side effects: shellcode
    /// spawns the attacker's shell (if the process has root privilege, the
    /// box is owned), wild targets fault.
    ///
    /// # Errors
    ///
    /// [`Fault::WildJump`] unless the target is a registered function.
    pub fn call_indirect(&mut self, target: VirtAddr) -> Result<FuncId, Fault> {
        match self.resolve_call(target) {
            CallTarget::Function(id) => Ok(id),
            CallTarget::Shellcode => {
                self.kernel.shell_spawned = true;
                Err(Fault::WildJump { target })
            }
            CallTarget::Wild => Err(Fault::WildJump { target }),
        }
    }

    /// Executes an indirect call: resolves `target`, dispatches to the
    /// registered host implementation with `args`. Ten fuel per call
    /// models call overhead.
    ///
    /// # Errors
    ///
    /// [`Fault::WildJump`] for unresolvable targets (shellcode included —
    /// after setting the attacker's success flag), [`Fault::Abort`] for a
    /// registered function without an implementation, plus whatever the
    /// callee itself returns.
    pub fn call_function(
        &mut self,
        target: VirtAddr,
        args: &[CVal],
    ) -> Result<CVal, Fault> {
        self.consume_fuel(10)?;
        let id = self.call_indirect(target)?;
        match self.host_fn(id) {
            Some(f) => f(self, args),
            None => Err(Fault::abort(format!(
                "call to `{}` which has no implementation",
                self.funcs.name_of(id)
            ))),
        }
    }

    // ----- process lifetime -------------------------------------------------

    /// Terminates the process with `status`.
    ///
    /// # Errors
    ///
    /// Always returns [`Fault::Exit`] so callers unwind.
    pub fn exit(&mut self, status: i32) -> Fault {
        self.exit_status = Some(status);
        Fault::Exit(status)
    }

    /// The exit status, if the process has exited.
    pub fn exit_status(&self) -> Option<i32> {
        self.exit_status
    }
}

/// The signature of every simulated C function: the host implementation of
/// a symbol in a simulated shared library.
pub type HostFn = fn(&mut Proc, &[CVal]) -> Result<CVal, Fault>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_layout_is_mapped() {
        let p = Proc::new();
        assert!(p.mem.region_at(layout::TEXT_BASE).is_some());
        assert!(p.mem.region_at(layout::HEAP_BASE).is_some());
        assert!(p.mem.region_at(layout::STACK_BASE).is_some());
        assert!(p.mem.region_at(layout::WILD_ADDR).is_none());
    }

    #[test]
    fn errno_roundtrip() {
        let mut p = Proc::new();
        assert_eq!(p.errno(), 0);
        p.set_errno(crate::errno::EINVAL);
        assert_eq!(p.errno(), crate::errno::EINVAL);
    }

    #[test]
    fn fuel_exhaustion_is_a_hang() {
        let mut p = Proc::new();
        p.set_fuel_limit(Some(10));
        assert!(p.consume_fuel(10).is_ok());
        assert_eq!(p.consume_fuel(1), Err(Fault::Hang));
        assert_eq!(p.cycles(), 11);
    }

    #[test]
    fn cstr_roundtrip() {
        let mut p = Proc::new();
        let a = p.alloc_cstr("robust");
        assert_eq!(p.read_cstr(a).unwrap(), b"robust");
        assert_eq!(p.read_cstr_lossy(a), "robust");
    }

    #[test]
    fn unterminated_cstr_faults_at_segment_end() {
        let mut p = Proc::new();
        // Fill the very end of the data segment without a NUL anywhere after.
        let end = layout::DATA_BASE.add(layout::DATA_SIZE);
        let start = end.sub(4);
        assert!(p.mem.poke_bytes(start, &[b'x'; 4]));
        let err = p.read_cstr(start).unwrap_err();
        assert!(matches!(err, Fault::Segv { .. }), "{err}");
    }

    #[test]
    fn unterminated_cstr_hangs_with_small_fuel() {
        let mut p = Proc::new();
        p.set_fuel_limit(Some(100));
        // Data segment is zero-filled, so this terminates immediately;
        // instead scan the (large, zeroed) heap after filling it without NUL.
        let base = layout::HEAP_BASE;
        let fill = vec![b'a'; layout::HEAP_INITIAL as usize];
        assert!(p.mem.poke_bytes(base, &fill));
        let err = p.read_cstr(base).unwrap_err();
        assert_eq!(err, Fault::Hang);
    }

    #[test]
    fn rodata_literals_are_readonly() {
        let mut p = Proc::new();
        let lit = p.alloc_cstr_literal("const");
        assert_eq!(p.read_cstr(lit).unwrap(), b"const");
        let err = p.write_u8(lit, b'X').unwrap_err();
        assert!(matches!(err, Fault::Segv { access: Access::Write, .. }));
    }

    #[test]
    fn frames_push_alloc_pop() {
        let mut p = Proc::new();
        p.push_frame("main").unwrap();
        let buf = p.stack_alloc(64).unwrap();
        p.write_bytes(buf, &[7u8; 64]).unwrap();
        assert_eq!(p.frame_depth(), 1);
        let f = p.frame_containing(buf).unwrap();
        assert_eq!(f.func, "main");
        p.pop_frame().unwrap();
        assert_eq!(p.frame_depth(), 0);
        assert_eq!(p.sp(), layout::STACK_TOP);
    }

    #[test]
    fn smashed_return_address_is_detected_on_pop() {
        let mut p = Proc::new();
        p.push_frame("vuln").unwrap();
        let buf = p.stack_alloc(16).unwrap();
        // Overflow the 16-byte buffer up into the saved return address
        // (8-byte saved bp sits between buffer and ret slot).
        let smash = vec![0x41u8; 16 + 8 + 8];
        p.mem.write_bytes(buf, &smash).unwrap();
        let err = p.pop_frame().unwrap_err();
        assert!(matches!(err, Fault::WildJump { .. }));
        assert!(!p.kernel.shell_spawned);
    }

    #[test]
    fn smashed_return_address_to_shellcode_spawns_shell() {
        let mut p = Proc::new();
        let payload = p.alloc_data(SHELLCODE_MAGIC);
        p.push_frame("vuln").unwrap();
        let _buf = p.stack_alloc(16).unwrap();
        let frame_ret = p.frame_containing(p.sp()).unwrap().ret_slot;
        p.mem.write_u64(frame_ret, payload.get()).unwrap();
        let err = p.pop_frame().unwrap_err();
        assert!(matches!(err, Fault::WildJump { .. }));
        assert!(p.kernel.shell_spawned, "shellcode must have run");
    }

    #[test]
    fn stack_overflow_faults() {
        let mut p = Proc::new();
        p.push_frame("deep").unwrap();
        let err = p.stack_alloc(layout::STACK_SIZE + 1).unwrap_err();
        assert!(matches!(err, Fault::Segv { .. }));
    }

    #[test]
    fn indirect_call_resolution() {
        let mut p = Proc::new();
        let (id, addr) = p.funcs.register("qsort_cmp");
        assert_eq!(p.call_indirect(addr).unwrap(), id);
        let err = p.call_indirect(VirtAddr::new(0x1234)).unwrap_err();
        assert!(matches!(err, Fault::WildJump { .. }));
    }

    #[test]
    fn indirect_call_to_shellcode_owns_root_process() {
        let mut p = Proc::new();
        p.kernel.root_privilege = true;
        let payload = p.alloc_data(SHELLCODE_MAGIC);
        let err = p.call_indirect(payload).unwrap_err();
        assert!(matches!(err, Fault::WildJump { .. }));
        assert!(p.kernel.shell_spawned);
        assert!(p.kernel.root_privilege);
    }

    #[test]
    fn call_function_dispatches_to_host_impl() {
        fn double(_p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
            Ok(CVal::Int(args[0].as_int() * 2))
        }
        let mut p = Proc::new();
        let addr = p.register_host_fn("double", double);
        let r = p.call_function(addr, &[CVal::Int(21)]).unwrap();
        assert_eq!(r, CVal::Int(42));
    }

    #[test]
    fn call_function_without_impl_aborts() {
        let mut p = Proc::new();
        let (_, addr) = p.funcs.register("stub");
        let err = p.call_function(addr, &[]).unwrap_err();
        assert!(matches!(err, Fault::Abort { .. }));
    }

    #[test]
    fn exit_records_status() {
        let mut p = Proc::new();
        let f = p.exit(3);
        assert_eq!(f, Fault::Exit(3));
        assert_eq!(p.exit_status(), Some(3));
    }

    #[test]
    fn data_allocations_do_not_overlap() {
        let mut p = Proc::new();
        let a = p.alloc_data(b"aaaa");
        let b = p.alloc_data(b"bbbb");
        assert!(b >= a.add(4));
        let z = p.alloc_data_zeroed(16);
        assert!(z >= b.add(4));
    }

    #[test]
    fn write_bytes_checked_respects_protection() {
        let mut p = Proc::new();
        let err = p.write_bytes(layout::TEXT_BASE, &[0u8; 4]).unwrap_err();
        assert!(matches!(err, Fault::Segv { access: Access::Write, .. }));
    }

    #[test]
    fn validation_memo_expires_with_the_epoch() {
        let mut p = Proc::new();
        let a = p.alloc_data_zeroed(32);
        let key = (7u64 << 3) | 1;
        assert!(!p.validation_hit(key, a, 0), "empty memo never hits");
        p.validation_store(key, a, 0);
        assert!(p.validation_hit(key, a, 0), "fresh store hits");
        assert!(!p.validation_hit(key, a.add(1), 0), "different pointer misses");
        assert!(!p.validation_hit(key + 8, a, 0), "different key misses");
        assert!(!p.validation_hit(key, a, 1), "different aux epoch misses");
        // Any memory mutation expires the entry.
        p.mem.write_u8(a, 1).unwrap();
        assert!(!p.validation_hit(key, a, 0), "content write expires");
        p.validation_store(key, a, 0);
        assert!(p.validation_hit(key, a, 0));
        // Stack machinery expires entries too: frames move the stack
        // extent oracle without writing region data.
        p.push_frame("f").unwrap();
        assert!(!p.validation_hit(key, a, 0), "push_frame expires");
        p.validation_store(key, a, 0);
        let _ = p.stack_alloc(16).unwrap();
        assert!(!p.validation_hit(key, a, 0), "stack_alloc expires");
        p.validation_store(key, a, 0);
        p.pop_frame().unwrap();
        assert!(!p.validation_hit(key, a, 0), "pop_frame expires");
        // The memo clones with the process.
        p.validation_store(key, a, 0);
        assert!(p.clone().validation_hit(key, a, 0));
    }

    #[test]
    fn spawned_threads_get_private_stacks_errno_and_frames() {
        let mut p = Proc::new();
        assert_eq!(p.current_thread(), ThreadId::MAIN);
        assert_eq!(p.thread_count(), 1);
        p.set_errno(1);
        p.push_frame("main").unwrap();
        let main_buf = p.stack_alloc(32).unwrap();

        let t1 = p.spawn_thread("worker-1").unwrap();
        let t2 = p.spawn_thread("worker-2").unwrap();
        assert_eq!(p.thread_count(), 3);
        assert_eq!(p.thread_name(t1), "worker-1");
        assert_ne!(t1, t2);

        // Worker 1: clean context, own stack region, own errno.
        p.switch_thread(t1);
        assert_eq!(p.current_thread(), t1);
        assert_eq!(p.errno(), 0);
        assert_eq!(p.frame_depth(), 0);
        p.push_frame("handler").unwrap();
        let w1_buf = p.stack_alloc(64).unwrap();
        assert_eq!(p.mem.region_at(w1_buf).unwrap().name(), "[stack:t1]");
        assert_ne!(
            p.mem.region_at(w1_buf).unwrap().name(),
            p.mem.region_at(main_buf).unwrap().name()
        );
        p.set_errno(7);

        // Worker 2 sees none of worker 1's context.
        p.switch_thread(t2);
        assert_eq!(p.errno(), 0);
        assert_eq!(p.frame_depth(), 0);
        p.push_frame("handler").unwrap();
        let w2_buf = p.stack_alloc(64).unwrap();
        assert_eq!(p.mem.region_at(w2_buf).unwrap().name(), "[stack:t2]");
        assert_ne!(w1_buf, w2_buf);
        p.pop_frame().unwrap();

        // Main thread resumes exactly where it parked.
        p.switch_thread(ThreadId::MAIN);
        assert_eq!(p.errno(), 1);
        assert_eq!(p.frame_depth(), 1);
        assert_eq!(p.frame_containing(main_buf).unwrap().func, "main");
        p.pop_frame().unwrap();

        // And worker 1's frame survived both switches.
        p.switch_thread(t1);
        assert_eq!(p.errno(), 7);
        assert_eq!(p.frame_containing(w1_buf).unwrap().func, "handler");
        p.pop_frame().unwrap();
    }

    #[test]
    fn thread_switch_keeps_memo_tables_private() {
        let mut p = Proc::new();
        let t1 = p.spawn_thread("w").unwrap();
        let a = p.alloc_data_zeroed(32);
        let key = (7u64 << 32) | 1;
        p.validation_store(key, a, 0);
        assert!(p.validation_hit(key, a, 0));
        // The other thread must not inherit the verdict...
        p.switch_thread(t1);
        assert!(!p.validation_hit(key, a, 0), "memo tables are per-thread");
        p.validation_store(key, a, 0);
        // ...and switching back revives the original table (epoch
        // untouched by the switches themselves).
        p.switch_thread(ThreadId::MAIN);
        assert!(p.validation_hit(key, a, 0), "parked table survives a round trip");
        // A mutation from the main thread expires the parked table too,
        // through the shared epoch.
        p.mem.write_u8(a, 1).unwrap();
        p.switch_thread(t1);
        assert!(!p.validation_hit(key, a, 0), "shared epoch expires parked memos");
    }

    #[test]
    fn thread_stack_overflow_faults_at_its_own_base() {
        let mut p = Proc::new();
        let t1 = p.spawn_thread("w").unwrap();
        p.switch_thread(t1);
        p.push_frame("deep").unwrap();
        // Larger than the (smaller) thread stack, though it would fit the
        // main stack: the per-thread base must be the limit.
        const { assert!(layout::THREAD_STACK_SIZE < layout::STACK_SIZE) };
        let err = p.stack_alloc(layout::THREAD_STACK_SIZE + 1).unwrap_err();
        assert!(matches!(err, Fault::Segv { .. }));
        // Guard gap below the stack is unmapped.
        let base = layout::thread_stack_top(1).unwrap().sub(layout::THREAD_STACK_SIZE);
        assert!(p.mem.region_at(base.sub(1)).is_none());
    }

    #[test]
    fn spawn_thread_exhausts_cleanly() {
        let mut p = Proc::new();
        let mut spawned = 0u32;
        loop {
            match p.spawn_thread("w") {
                Ok(_) => spawned += 1,
                Err(f) => {
                    assert!(matches!(f, Fault::Abort { .. }));
                    break;
                }
            }
            assert!(spawned < 10_000, "floor never reached");
        }
        assert!(spawned >= 64, "area fits a useful number of threads, got {spawned}");
    }

    #[test]
    fn u32_ptr_accessors() {
        let mut p = Proc::new();
        let a = p.alloc_data_zeroed(16);
        p.write_u32(a, 0xfeed).unwrap();
        assert_eq!(p.read_u32(a).unwrap(), 0xfeed);
        p.write_ptr(a.add(8), VirtAddr::new(0x42)).unwrap();
        assert_eq!(p.read_ptr(a.add(8)).unwrap(), VirtAddr::new(0x42));
    }
}
