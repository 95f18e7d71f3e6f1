//! # simproc — the simulated process substrate for HEALERS
//!
//! HEALERS (Fetzer & Xiao, DSN 2003) hardens applications by intercepting
//! C library calls, fault-injecting libraries to learn their robust APIs,
//! and generating protective wrappers. Reproducing that requires crashing
//! library functions *millions of times* — something you cannot do to the
//! host's real libc. This crate provides the substitute: a fully simulated
//! process in which
//!
//! * memory accesses are protection-checked, so a wild pointer produces a
//!   [`Fault::Segv`] **value** instead of killing the host;
//! * execution is fuel-metered, so a non-terminating scan becomes a
//!   [`Fault::Hang`];
//! * functions have addresses, so function pointers can be stored in (and
//!   corrupted from) simulated memory, enabling faithful control-flow
//!   hijack experiments;
//! * a miniature kernel holds files and std streams on the far side of the
//!   "system call" boundary.
//!
//! ```
//! use simproc::{Proc, Fault, VirtAddr};
//!
//! let mut p = Proc::new();
//! let s = p.alloc_cstr("hello");
//! assert_eq!(p.read_cstr_lossy(s), "hello");
//!
//! // A wild read is an observable value, not a host crash:
//! let fault = p.read_u8(VirtAddr::new(0xdead_beef)).unwrap_err();
//! assert!(matches!(fault, Fault::Segv { .. }));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod calltable;
mod chunks;
mod cval;
pub mod errno;
mod fault;
mod kernel;
pub mod layout;
mod mem;
pub mod oracle;
mod proc;

pub use addr::{Access, Prot, VirtAddr};
pub use calltable::{CallTarget, FuncId, FuncTable, FUNC_STRIDE, SHELLCODE_MAGIC};
pub use chunks::LiveChunks;
pub use cval::CVal;
pub use fault::Fault;
pub use kernel::{Kernel, KernelError, OpenMode};
pub use mem::{AddressSpace, EpochHandle, MapError, Region};
pub use oracle::{ExtentOracle, RegionOracle};
pub use proc::{Frame, HostFn, Proc, ThreadId, DEFAULT_CALL_FUEL};

/// splitmix64: the one deterministic stream every seeded schedule in the
/// workspace draws from (a server's request mix, a fleet's per-instance
/// faults, a cross-thread case's interleaving). Same input, same output,
/// on every platform and toolchain.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
