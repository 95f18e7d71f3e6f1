//! # wrappergen — HEALERS' flexible wrapper generation (paper §2.3)
//!
//! "The functionality of a wrapper generator is decomposed into a number
//! of features, each supported by a micro-generator. Each micro-generator
//! generates a fragment of the prefix and postfix code of a function. The
//! micro-generators can be combined in a variety of ways to generate new
//! wrapper types."
//!
//! Every micro-generator here is one [`Hook`] ([`hooks`]) that declares
//! what it does per call as one op list ([`Hook::ops`]). From that list
//! come its three views:
//!
//! * **behaviour**: the hook executes inside the simulated process; a
//!   hook whose accept path is exactly its `Check` ops is fused, its
//!   checks running in a check kernel shared with the fused hooks next
//!   to it, and its `before` only when one of them fails;
//! * **model**: [`WrappedFn::call_model`], the ops in pipeline order, is
//!   what the analyzer's lint and substitution prover read;
//! * **code** ([`codegen`]): the C fragment the hook contributes to the
//!   wrapper `.so` — composed prefix-in-order / postfix-in-reverse and
//!   golden-tested against the paper's Figure 3.
//!
//! [`build_wrapper`] assembles the three wrapper types of Figure 1
//! (robustness / security / profiling) from a fault-injection-derived
//! [`RobustApi`](typelattice::RobustApi); [`WrapperBuilder`] composes
//! custom ones.
//!
//! ```
//! use wrappergen::{build_wrapper, WrapperKind, WrapperConfig};
//! use typelattice::{RobustApi, RobustFunction, SafePred};
//! use cdecl::{parse_prototype, TypedefTable};
//! use simproc::CVal;
//!
//! let t = TypedefTable::with_builtins();
//! let api = RobustApi {
//!     library: "libsimc.so.1".into(),
//!     functions: vec![RobustFunction::new(
//!         parse_prototype("size_t strlen(const char *s);", &t).unwrap(),
//!         vec![SafePred::CStr],
//!         true,
//!     )],
//! };
//! let lib = build_wrapper(WrapperKind::Robustness, &api, &WrapperConfig::default());
//!
//! // The wrapper contains the crash that strlen(NULL) would be:
//! let mut p = simlibc::testutil::libc_proc();
//! let r = lib.get("strlen").unwrap().call(&mut p, &[CVal::NULL]).unwrap();
//! assert_eq!(r, CVal::Int(-1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builders;
pub mod codegen;
pub mod hooks;
mod oblivious;
pub mod policy;
mod runtime;
mod substitute;

pub use builders::{
    build_wrapper, build_wrapper_with_impls, LowConfidence, WrapperBuilder, WrapperConfig,
    WrapperKind, WrapperLibrary,
};
pub use oblivious::{
    oblivious_fault_value, oblivious_outcome, ObliviousCx, ObliviousOutcome,
};
pub use policy::{
    apply_repair, Policy, PolicyEngine, PolicyOverrides, ViolationClass, SUBSTITUTE_CAP,
};
pub use runtime::{
    containment_value, reject, ArcOracle, CallCx, CallLog, CallModel, FaultDecision, Hook,
    HookAction, HookOp, ModelOp, WrappedFn,
};
pub use substitute::SubstituteHook;
