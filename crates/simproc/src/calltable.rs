//! The function/address table: gives every registered function a text
//! address so function *pointers* exist in simulated memory, indirect calls
//! can be resolved — and corrupted pointers can hijack control flow, which
//! is precisely the attack the paper's security wrapper stops.

use std::collections::HashMap;
use std::sync::Arc;

use crate::addr::VirtAddr;
use crate::layout::TEXT_BASE;
use crate::proc::HostFn;

/// Identifier of a registered simulated function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index form, for dense per-function statistics arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Byte spacing between consecutive function entry points in the simulated
/// text segment.
pub const FUNC_STRIDE: u64 = 16;

/// Marker bytes an attacker plants in a buffer; if control flow ever
/// reaches them, the "shellcode" runs. See [`crate::proc::Proc::resolve_call`].
pub const SHELLCODE_MAGIC: &[u8] = b"\x90\x90SHELLCODE";

/// The outcome of resolving an indirect call target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// A legitimate registered function.
    Function(FuncId),
    /// The target points into memory containing attacker shellcode.
    Shellcode,
    /// The target is garbage (unmapped or not a function entry).
    Wild,
}

/// Maps names, text addresses and host implementations to function ids:
/// one structure for name ↔ id ↔ implementation.
///
/// Cloning is O(1). The entries sit behind an [`Arc`] and are copied on
/// the first write to a shared table, so every process started from one
/// library table shares it until the process registers a function or
/// implementation of its own (a qsort comparator, an atexit handler), and
/// that registration stays private to the process. A copy costs four
/// allocations (the `Arc` and its three collections): names are
/// reference-counted, not re-allocated.
#[derive(Debug, Clone, Default)]
pub struct FuncTable {
    entries: Arc<Entries>,
}

#[derive(Debug, Clone, Default)]
struct Entries {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, FuncId>,
    /// Host implementations, indexed by `FuncId`, parallel to `names`.
    impls: Vec<Option<HostFn>>,
}

impl FuncTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FuncTable::default()
    }

    /// Registers a function name, returning its id and text address.
    /// Registering the same name twice returns the existing entry (and
    /// leaves a shared table shared).
    pub fn register(&mut self, name: &str) -> (FuncId, VirtAddr) {
        if let Some(id) = self.id_of(name) {
            return (id, self.addr_of(id));
        }
        let e = Arc::make_mut(&mut self.entries);
        let id = FuncId(e.names.len() as u32);
        let name: Arc<str> = Arc::from(name);
        e.names.push(Arc::clone(&name));
        e.by_name.insert(name, id);
        e.impls.push(None);
        (id, self.addr_of(id))
    }

    /// Registers `name` (if new) and binds its host implementation,
    /// replacing any earlier one. The write goes to this table's own
    /// copy of the entries.
    pub fn register_impl(&mut self, name: &str, imp: HostFn) -> (FuncId, VirtAddr) {
        let (id, addr) = self.register(name);
        Arc::make_mut(&mut self.entries).impls[id.index()] = Some(imp);
        (id, addr)
    }

    /// The host implementation behind a function id, if one is bound.
    pub fn imp(&self, id: FuncId) -> Option<HostFn> {
        self.entries.impls.get(id.index()).copied().flatten()
    }

    /// The text address of a function id.
    pub fn addr_of(&self, id: FuncId) -> VirtAddr {
        TEXT_BASE.add(FUNC_STRIDE * (id.0 as u64 + 1))
    }

    /// Resolves a text address back to a function id, if it is an exact
    /// entry point of a registered function.
    pub fn by_addr(&self, addr: VirtAddr) -> Option<FuncId> {
        let off = addr.diff(TEXT_BASE);
        if off == 0 || !off.is_multiple_of(FUNC_STRIDE) {
            return None;
        }
        let idx = off / FUNC_STRIDE - 1;
        if idx < self.len() as u64 {
            Some(FuncId(idx as u32))
        } else {
            None
        }
    }

    /// Looks up a function id by name.
    pub fn id_of(&self, name: &str) -> Option<FuncId> {
        self.entries.by_name.get(name).copied()
    }

    /// The name of a function id.
    pub fn name_of(&self, id: FuncId) -> &str {
        &self.entries.names[id.index()]
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.entries.names.len()
    }

    /// `true` if no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &str)> {
        self.entries.names.iter().enumerate().map(|(i, n)| (FuncId(i as u32), &**n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cval::CVal;
    use crate::fault::Fault;
    use crate::proc::Proc;

    fn one(_p: &mut Proc, _args: &[CVal]) -> Result<CVal, Fault> {
        Ok(CVal::Int(1))
    }

    fn two(_p: &mut Proc, _args: &[CVal]) -> Result<CVal, Fault> {
        Ok(CVal::Int(2))
    }

    #[test]
    fn register_and_resolve() {
        let mut t = FuncTable::new();
        let (id, addr) = t.register("strcpy");
        assert_eq!(t.by_addr(addr), Some(id));
        assert_eq!(t.id_of("strcpy"), Some(id));
        assert_eq!(t.name_of(id), "strcpy");
        assert_eq!(t.addr_of(id), addr);
    }

    #[test]
    fn duplicate_registration_is_idempotent() {
        let mut t = FuncTable::new();
        let a = t.register("memcpy");
        let b = t.register("memcpy");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn unknown_addresses_do_not_resolve() {
        let mut t = FuncTable::new();
        let (_, addr) = t.register("f");
        assert_eq!(t.by_addr(addr.add(1)), None, "misaligned");
        assert_eq!(t.by_addr(addr.add(FUNC_STRIDE)), None, "past the end");
        assert_eq!(t.by_addr(TEXT_BASE), None, "base is never a function");
    }

    #[test]
    fn iteration_order_is_registration_order() {
        let mut t = FuncTable::new();
        t.register("a");
        t.register("b");
        let names: Vec<_> = t.iter().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(!t.is_empty());
    }

    #[test]
    fn addresses_are_distinct_and_in_text() {
        let mut t = FuncTable::new();
        let (_, a1) = t.register("x");
        let (_, a2) = t.register("y");
        assert_ne!(a1, a2);
        assert!(a1 >= TEXT_BASE && a2 >= TEXT_BASE);
    }

    #[test]
    fn clones_share_until_written_and_writes_stay_private() {
        let mut base = FuncTable::new();
        base.register_impl("f", one);
        let mut a = base.clone();
        let b = base.clone();
        assert!(Arc::ptr_eq(&a.entries, &b.entries));
        // Re-registering a known name without an implementation is a read.
        assert_eq!(a.register("f"), base.register("f"));
        assert!(Arc::ptr_eq(&a.entries, &b.entries));

        a.register_impl("f", two);
        a.register_impl("g", two);
        assert!(!Arc::ptr_eq(&a.entries, &b.entries));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert!(b.id_of("g").is_none());
        let f = b.id_of("f").unwrap();
        let mut p = Proc::new();
        assert_eq!((b.imp(f).unwrap())(&mut p, &[]).unwrap(), CVal::Int(1));
        assert_eq!((a.imp(f).unwrap())(&mut p, &[]).unwrap(), CVal::Int(2));
    }

    #[test]
    fn register_leaves_the_impl_unbound() {
        let mut t = FuncTable::new();
        let (id, _) = t.register("stub");
        assert!(t.imp(id).is_none());
        assert!(t.imp(FuncId(99)).is_none());
    }
}
