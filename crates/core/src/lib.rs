//! # healers-core — the HEALERS toolkit facade
//!
//! Ties the whole pipeline of the paper together behind one type,
//! [`Toolkit`]:
//!
//! 1. list the system's shared libraries and their functions, emit
//!    XML-style declaration files (§3.1);
//! 2. run automated fault-injection campaigns deriving each library's
//!    robust API (§2.2, Figure 2);
//! 3. generate security / robustness / profiling wrappers from
//!    micro-generators (§2.3, Figure 3);
//! 4. preload wrappers under applications through the simulated dynamic
//!    loader (§2.1, Figure 1) and run them protected;
//! 5. inspect executables for their linked libraries and undefined
//!    symbols (§3.2, Figure 4).
//!
//! ```no_run
//! use healers_core::Toolkit;
//! use wrappergen::{WrapperKind, WrapperConfig};
//!
//! let toolkit = Toolkit::new();
//! let campaign = toolkit.derive_robust_api("libsimc.so.1").unwrap();
//! let wrapper = toolkit.generate_wrapper(
//!     WrapperKind::Robustness,
//!     &campaign.api,
//!     &WrapperConfig::default(),
//! );
//! println!("{} functions wrapped", wrapper.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bridge;
mod fleet;
mod server;
mod toolkit;

pub use bridge::as_preload_library;
pub use fleet::{
    policy_for, run_fleet_sim, FleetSimConfig, FleetSimOutcome, FleetSupervisor,
    BURST_WINDOW,
};
pub use server::{run_server_sim, server_wrapper, ServerConfig, ServerReport};
pub use toolkit::{process_factory, Toolkit};
