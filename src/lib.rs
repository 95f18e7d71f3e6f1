//! # HEALERS — a toolkit for enhancing the robustness and security of existing applications
//!
//! A full reproduction of Fetzer & Xiao's HEALERS system (DSN 2003) in
//! Rust, over a simulated process substrate. The facade re-exports every
//! layer; see the crate-level docs of each for the paper section it
//! implements:
//!
//! | crate | paper artifact |
//! |---|---|
//! | [`simproc`] | simulated process: checked memory, faults-as-values, fuel |
//! | [`simlibc`] | the fragile C library under test (~100 functions, exploitable heap) |
//! | [`cdecl`] | header / man-page prototype extraction (§2.2) |
//! | [`typelattice`] | Ballista-style argument-type hierarchy (§2.2) |
//! | [`injector`] | automated fault-injection campaigns → robust APIs (Figure 2) |
//! | [`wrappergen`] | micro-generator wrapper generation (§2.3, Figure 3) |
//! | [`guardian`] | heap canaries and extent oracles (§3.4) |
//! | [`interpose`] | `LD_PRELOAD` dynamic-loader simulation (§2.1, Figure 1) |
//! | [`profiler`] | profiling wrapper runtime and central collection service (§3.3, Figure 5) |
//! | [`analyzer`] | static contract inference + wrapper-soundness lint |
//! | [`healers_core`] | the end-to-end [`Toolkit`] |
//!
//! ```no_run
//! use healers::Toolkit;
//! use healers::wrappergen::{WrapperKind, WrapperConfig};
//!
//! let toolkit = Toolkit::new();
//! let campaign = toolkit.derive_robust_api("libsimc.so.1").unwrap();
//! println!("{}", healers::injector::render_table(&campaign));
//! let wrapper = toolkit.generate_wrapper(
//!     WrapperKind::Robustness,
//!     &campaign.api,
//!     &WrapperConfig::default(),
//! );
//! println!("{} functions wrapped", wrapper.len());
//! ```

#![warn(missing_docs)]

pub use analyzer;
pub use cdecl;
pub use guardian;
pub use healers_core;
pub use injector;
pub use interpose;
pub use profiler;
pub use simlibc;
pub use simproc;
pub use typelattice;
pub use wrappergen;

pub use healers_core::{
    as_preload_library, process_factory, run_server_sim, server_wrapper, ServerConfig,
    ServerReport, Toolkit,
};
pub use injector::{
    run_cross_thread_quorum, CampaignConfig, CampaignResult, CheckpointJournal,
    CrossThreadFault, Outcome,
};
pub use interpose::{Executable, Loader, RunOutcome, Session, System};
pub use profiler::{HealAction, HealEvent, HealingJournal};
pub use typelattice::{repair_hint, Confidence, RepairHint, RobustApi, SafePred};
pub use wrappergen::{
    LowConfidence, Policy, PolicyEngine, ViolationClass, WrapperConfig, WrapperKind,
    WrapperLibrary,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let tk = crate::Toolkit::new();
        assert_eq!(tk.list_libraries().len(), 2);
    }
}
