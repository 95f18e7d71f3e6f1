//! The micro-generator *code* side (paper §2.3, Figure 3).
//!
//! "Each micro-generator generates a fragment of the prefix and postfix
//! code of a function. The micro-generators can be combined in a variety
//! of ways to generate new wrapper types." Each [`Hook`] renders its own
//! [`Fragment`] ([`Hook::fragments`]), its check lines rendered from its
//! own `Check` ops; [`generate_function`] frames them with the
//! `prototype` and `caller` fragments. The generated C text is what a
//! real HEALERS deployment would compile into the wrapper `.so`; here it
//! is emitted verbatim (and golden-tested against the shape of Figure 3)
//! while the same hooks execute in the simulation.

use std::borrow::Cow;
use std::sync::Arc;

use cdecl::{CType, Prototype};
use simproc::CVal;

use crate::runtime::{containment_value, Hook};

/// Context handed to each hook rendering its fragment.
#[derive(Debug, Clone)]
pub struct CodegenCx<'a> {
    /// The function being wrapped.
    pub proto: &'a Prototype,
    /// The function's index in the wrapper library (the paper's generated
    /// code indexes per-function arrays with it, e.g. `[1206]`).
    pub func_index: usize,
}

impl CodegenCx<'_> {
    fn ret_is_void(&self) -> bool {
        self.proto.ret == CType::Void
    }

    /// The C name of parameter `i`: its declared name, else `a{i+1}`.
    pub fn param(&self, i: usize) -> String {
        self.proto
            .params
            .get(i)
            .map(|p| p.display_name(i))
            .unwrap_or_else(|| format!("a{}", i + 1))
    }

    /// The call's argument list, `a, b, c`.
    pub fn arg_list(&self) -> String {
        (0..self.proto.params.len()).map(|i| self.param(i)).collect::<Vec<_>>().join(", ")
    }

    fn param_decls(&self) -> String {
        if self.proto.params.is_empty() && !self.proto.variadic {
            return "void".to_string();
        }
        let mut parts: Vec<String> = self
            .proto
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{} {}", p.ty, self.param(i)))
            .collect();
        if self.proto.variadic {
            parts.push("...".into());
        }
        parts.join(", ")
    }

    /// The C literal of [`containment_value`] for the return type, or
    /// `None` for `void`.
    pub fn containment_literal(&self) -> Option<String> {
        match containment_value(&self.proto.ret) {
            CVal::Void => None,
            CVal::Ptr(_) => Some("NULL".into()),
            CVal::F64(v) => Some(format!("{v:?}")),
            CVal::Int(v) => Some(v.to_string()),
        }
    }

    /// `return <containment literal>;` — a rejected call's exit.
    pub fn error_return(&self) -> String {
        match self.containment_literal() {
            Some(lit) => format!("return {lit};"),
            None => "return;".into(),
        }
    }
}

/// One micro-generator's C fragment: prefix lines emitted before the
/// call to the original, postfix lines after it (emission order is
/// reversed across fragments, exactly as in Figure 3). Each side is a
/// block of `\n`-terminated lines; an empty side emits nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// The micro-generator's name as it appears in generated comments
    /// (e.g. `"function exectime"`).
    pub name: &'static str,
    /// Lines emitted before the call.
    pub prefix: Cow<'static, str>,
    /// Lines emitted after the call.
    pub postfix: Cow<'static, str>,
}

impl Fragment {
    /// A fragment named `name` with the given prefix and postfix lines.
    pub fn new(
        name: &'static str,
        prefix: impl Into<Cow<'static, str>>,
        postfix: impl Into<Cow<'static, str>>,
    ) -> Self {
        Fragment { name, prefix: prefix.into(), postfix: postfix.into() }
    }
}

/// `prototype`: the wrapper signature, the `ret` declaration and the
/// final `return`.
fn prototype(cx: &CodegenCx<'_>) -> Fragment {
    let (name, ret) = (&cx.proto.name, &cx.proto.ret);
    let decls = cx.param_decls();
    if cx.ret_is_void() {
        Fragment::new("prototype", format!("{ret} {name}({decls})\n{{\n"), "}\n")
    } else {
        let prefix = format!("{ret} {name}({decls})\n{{\n  {ret} ret;\n");
        Fragment::new("prototype", prefix, "  return ret;\n}\n")
    }
}

/// `caller`: the call to the original function through the resolved
/// symbol address.
fn caller(cx: &CodegenCx<'_>) -> Fragment {
    let (name, args) = (&cx.proto.name, cx.arg_list());
    let assign = if cx.ret_is_void() { "" } else { "ret = " };
    Fragment::new("caller", "", format!("  {assign}(*addr_{name})({args});\n"))
}

/// Composes the wrapper source for one function: the `prototype` frame,
/// then every hook's fragments in pipeline order, then the `caller` —
/// prefix fragments in order, postfix fragments in *reverse* order, each
/// annotated `/* Prefix|Postfix code by micro-gen NAME */` — Figure 3's
/// exact structure.
pub fn generate_function(cx: &CodegenCx<'_>, hooks: &[Arc<dyn Hook>]) -> String {
    let mut frags = vec![prototype(cx)];
    frags.extend(hooks.iter().flat_map(|h| h.fragments(cx)));
    frags.push(caller(cx));
    let mut out = String::new();
    let mut emit = |side: &str, name: &str, text: &str| {
        if !text.is_empty() {
            for part in ["/* ", side, " code by micro-gen ", name, " */\n", text] {
                out.push_str(part);
            }
        }
    };
    for f in &frags {
        emit("Prefix", f.name, &f.prefix);
    }
    for f in frags.iter().rev() {
        emit("Postfix", f.name, &f.postfix);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{
        ArgCheckHook, CallCounterHook, CanaryHook, CollectErrorsHook, ExectimeHook,
        FuncErrorsHook, LogCallHook,
    };
    use crate::policy::PolicyEngine;
    use cdecl::{parse_prototype, TypedefTable};
    use guardian::{CanaryRegistry, GuardOracle};
    use profiler::{Stats, WrapperJournal};
    use typelattice::SafePred;

    fn proto(s: &str) -> Prototype {
        parse_prototype(s, &TypedefTable::with_builtins()).unwrap()
    }

    fn arg_check(
        p: &Prototype,
        preds: Vec<SafePred>,
        engine: PolicyEngine,
    ) -> Arc<dyn Hook> {
        let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
        Arc::new(ArgCheckHook::new(preds, p.ret.clone(), oracle, engine))
    }

    fn healing(p: &Prototype, preds: Vec<SafePred>) -> Arc<dyn Hook> {
        let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
        let journal = Arc::new(WrapperJournal::new());
        let engine = PolicyEngine::healing();
        Arc::new(ArgCheckHook::with_journal(preds, p.ret.clone(), oracle, engine, journal))
    }

    fn generate(p: &Prototype, func_index: usize, hooks: &[Arc<dyn Hook>]) -> String {
        generate_function(&CodegenCx { proto: p, func_index }, hooks)
    }

    fn assert_landmarks(code: &str, landmarks: &[&str]) {
        let mut pos = 0;
        for l in landmarks {
            let found = code[pos..]
                .find(l)
                .unwrap_or_else(|| panic!("missing or out of order: {l}\n---\n{code}"));
            pos += found + l.len();
        }
    }

    #[test]
    fn figure3_structure_is_reproduced() {
        // The four profiling hooks of Figure 3, in the paper's order,
        // inside the prototype/caller frame.
        let stats = Arc::new(Stats::new());
        let hooks: Vec<Arc<dyn Hook>> = vec![
            Arc::new(ExectimeHook::new(Arc::clone(&stats))),
            Arc::new(CollectErrorsHook::new(Arc::clone(&stats))),
            Arc::new(FuncErrorsHook::new(Arc::clone(&stats))),
            Arc::new(CallCounterHook::new(stats)),
        ];
        let code = generate(&proto("wctrans_t wctrans(const char* a1);"), 1206, &hooks);

        // Every annotation of Figure 3, in its order.
        assert_landmarks(
            &code,
            &[
                "/* Prefix code by micro-gen prototype */",
                "long wctrans(const char* a1)",
                "  long ret;",
                "/* Prefix code by micro-gen function exectime */",
                "  rdtsc(exectime_start);",
                "/* Prefix code by micro-gen collect errors */",
                "  int collect_errors_err = errno;",
                "/* Prefix code by micro-gen func error */",
                "  int func_error_err = errno;",
                "/* Prefix code by micro-gen call counter */",
                "  ++call_counter_num_calls[1206];",
                "/* Postfix code by micro-gen caller */",
                "  ret = (*addr_wctrans)(a1);",
                "/* Postfix code by micro-gen func error */",
                "      ++func_error_cnter[1206][errno];",
                "/* Postfix code by micro-gen collect errors */",
                "      ++collect_errors_cnter[errno];",
                "/* Postfix code by micro-gen function exectime */",
                "  exectime[1206] += exectime_end - exectime_start;",
                "/* Postfix code by micro-gen prototype */",
                "  return ret;",
            ],
        );
    }

    #[test]
    fn void_functions_have_no_ret() {
        let code = generate(&proto("void srand(unsigned int seed);"), 7, &[]);
        assert!(!code.contains("ret;"), "{code}");
        assert!(code.contains("(*addr_srand)(seed);"));
        assert!(!code.contains("return ret"));
    }

    #[test]
    fn arg_check_emits_one_test_per_nontrivial_pred() {
        let p = proto("char *strcpy(char *dest, const char *src);");
        let preds = vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr];
        let code = generate(&p, 1, &[arg_check(&p, preds, PolicyEngine::containment())]);
        assert_eq!(code.matches("healers_check").count(), 2, "{code}");
        assert!(code.contains("errno = EINVAL; return NULL;"), "{code}");
        assert!(code.contains("writable buffer >= strlen(arg2)+1"));
    }

    #[test]
    fn canary_fragments_specialise_by_function() {
        let canary: Arc<dyn Hook> =
            Arc::new(CanaryHook::new(Arc::new(CanaryRegistry::new())));
        let code =
            generate(&proto("void *malloc(size_t size);"), 0, &[Arc::clone(&canary)]);
        assert!(code.contains("size += CANARY_LEN"), "{code}");
        assert!(code.contains("healers_write_canary"), "{code}");

        let code = generate(&proto("void free(void *ptr);"), 1, &[canary]);
        assert!(code.contains("healers_canary_ok(ptr)"), "{code}");
        assert!(code.contains("heap smashing detected"));
    }

    #[test]
    fn containment_literals_follow_containment_value() {
        let cases = [
            ("char *f(void);", Some("NULL"), "return NULL;"),
            ("int f(void);", Some("-1"), "return -1;"),
            ("size_t f(void);", Some("-1"), "return -1;"),
            ("double f(void);", Some("0.0"), "return 0.0;"),
            ("void f(void);", None, "return;"),
        ];
        for (sig, lit, ret) in cases {
            let p = proto(sig);
            let cx = CodegenCx { proto: &p, func_index: 0 };
            assert_eq!(cx.containment_literal().as_deref(), lit, "{sig}");
            assert_eq!(cx.error_return(), ret, "{sig}");
        }
    }

    #[test]
    fn healing_structure_mirrors_figure3() {
        // The healing wrapper's landmark sequence: check-then-heal
        // prefixes in order, retry scaffolding around the call, fault
        // backstop in reverse postfix order — Figure 3's discipline with
        // the new micro-generators slotted in.
        let p = proto("char *strcpy(char *dest, const char *src);");
        let preds = vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr];
        let code = generate(&p, 42, &[healing(&p, preds)]);
        assert_landmarks(
            &code,
            &[
                "/* Prefix code by micro-gen prototype */",
                "char* strcpy(char* dest, const char* src)",
                "  char* ret;",
                "/* Prefix code by micro-gen heal args */",
                "  if (!healers_check(dest, \"writable buffer >= strlen(arg2)+1\"))",
                "    if (!healers_heal(&dest, \"writable buffer >= strlen(arg2)+1\")) { errno = EINVAL; return NULL; }",
                "  if (!healers_check(src, ",
                "    if (!healers_heal(&src, ",
                "/* Prefix code by micro-gen retry */",
                "  int healing_attempt = 0;",
                "retry_call:",
                "/* Postfix code by micro-gen caller */",
                "  ret = (*addr_strcpy)(dest, src);",
                "/* Postfix code by micro-gen retry */",
                "  if (healers_faulted()) {",
                "    if (healing_attempt++ < HEAL_MAX_RETRIES) {",
                "      healers_resanitize();",
                "      goto retry_call;",
                "    ret = NULL;",
                "/* Postfix code by micro-gen prototype */",
                "  return ret;",
            ],
        );
    }

    #[test]
    fn retry_fragment_handles_void_returns() {
        let p = proto("void free(void *ptr);");
        let code = generate(&p, 3, &[healing(&p, vec![SafePred::HeapChunkOrNull])]);
        assert!(code.contains("healers_heal(&ptr"), "{code}");
        assert!(code.contains("errno = EINVAL; return;"), "{code}");
        assert!(!code.contains("ret ="), "void function has no ret: {code}");
    }

    #[test]
    fn variadic_signature() {
        let code = generate(&proto("int printf(const char *format, ...);"), 0, &[]);
        assert!(code.contains("int printf(const char* format, ...)"), "{code}");
    }

    #[test]
    fn log_call_mentions_args() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let code = generate(
            &proto("wctrans_t wctrans(const char* a1);"),
            0,
            &[Arc::new(LogCallHook::new(log))],
        );
        assert!(code.contains("healers_log(\"wctrans(a1)\")"), "{code}");
    }
}
