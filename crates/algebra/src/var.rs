//! Interned symbolic variables.
//!
//! Variables are interned process-wide so that a variable called `x` in a
//! library element's polynomial and a variable called `x` in a target-code
//! polynomial are the same symbol. [`Var`] is a cheap `Copy` handle;
//! [`VarSet`] is an *ordered* collection of variables used to express
//! orderings such as Maple's `[x, y, p]` argument to `simplify`.
//!
//! # Interner design
//!
//! Interning (`Var::new`) takes a mutex around a `HashMap<&str, u32>`, so a
//! lookup is one hash probe instead of the former `O(n)` scan of every name
//! ever interned. Resolution (`Var::name`, and therefore every `Display` of
//! every variable of every polynomial) is **lock-free**: names live in leaked
//! append-only segments published through atomics, and `name()` returns the
//! `&'static str` directly — no lock, no `String` clone. This matters because
//! formatting a polynomial resolves a name per variable *occurrence*, and the
//! mapper's reports format thousands of terms.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicPtr, Ordering as AtomicOrdering};
use std::sync::{Mutex, OnceLock};

/// log2 of the first segment's capacity: segment `s` holds `2^(s + 5)` names,
/// so 27 segments cover `2^32 - 32` variables — effectively the full index
/// space of a `u32` handle.
const FIRST_SEGMENT_BITS: u32 = 5;
/// Number of name segments (doubling capacities).
const SEGMENT_COUNT: usize = 27;

/// Append-only, lock-free-readable name table.
///
/// Each segment is a leaked boxed slice of `OnceLock<&'static str>` published
/// through an [`AtomicPtr`]; a slot is written (under the intern mutex) before
/// its index ever escapes as a [`Var`], so any index a reader can legally hold
/// resolves without blocking.
struct NameTable {
    /// Published name segments (leaked, capacities doubling per slot).
    segments: [AtomicPtr<OnceLock<&'static str>>; SEGMENT_COUNT],
    /// Hashed name → index lookup, guarded by the intern mutex.
    map: Mutex<HashMap<&'static str, u32>>,
}

/// Segment and offset of a global name index.
fn locate(index: u32) -> (usize, usize) {
    let virtual_index = index as u64 + (1 << FIRST_SEGMENT_BITS);
    let seg = (virtual_index.ilog2() - FIRST_SEGMENT_BITS) as usize;
    let base = (1_u64 << (seg as u32 + FIRST_SEGMENT_BITS)) - (1 << FIRST_SEGMENT_BITS);
    (seg, (index as u64 - base) as usize)
}

/// Capacity of segment `seg`.
fn segment_len(seg: usize) -> usize {
    1 << (seg as u32 + FIRST_SEGMENT_BITS)
}

fn table() -> &'static NameTable {
    static TABLE: OnceLock<NameTable> = OnceLock::new();
    TABLE.get_or_init(|| NameTable {
        segments: [const { AtomicPtr::new(std::ptr::null_mut()) }; SEGMENT_COUNT],
        map: Mutex::new(HashMap::new()),
    })
}

impl NameTable {
    /// Interns `name`, returning its stable index.
    fn intern(&self, name: &str) -> u32 {
        let mut map = self.map.lock().expect("variable interner poisoned");
        if let Some(&idx) = map.get(name) {
            return idx;
        }
        // The segment table covers virtual indices below 2^32, i.e. raw
        // indices up to u32::MAX - 32; fail with the capacity message before
        // `locate` could index past the last segment.
        let idx = u32::try_from(map.len())
            .ok()
            .filter(|&i| (i as u64) + (1 << FIRST_SEGMENT_BITS) < 1 << 32)
            .expect("variable interner full");
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        let (seg, offset) = locate(idx);
        let mut ptr = self.segments[seg].load(AtomicOrdering::Acquire);
        if ptr.is_null() {
            let fresh: Box<[OnceLock<&'static str>]> =
                (0..segment_len(seg)).map(|_| OnceLock::new()).collect();
            ptr = Box::leak(fresh).as_mut_ptr();
            // Only this thread allocates (we hold the mutex), so a plain
            // Release store publishes the zeroed segment.
            self.segments[seg].store(ptr, AtomicOrdering::Release);
        }
        // SAFETY: `ptr` is non-null and points at a leaked (never freed)
        // slice of exactly `segment_len(seg)` OnceLocks: it is either the
        // allocation made just above on this thread, or one published by a
        // previous `intern` call's Release store — which this function's
        // Acquire load pairs with, making the fully initialized slice
        // visible. Interners never store any other value, the slice is
        // leaked via Box::leak so the 'static lifetime is real, and
        // `offset < segment_len(seg)` by construction of `locate`, so the
        // pointer arithmetic stays in bounds of the one allocation.
        let slot = unsafe { &*ptr.add(offset) };
        slot.set(leaked).expect("fresh interner slot set twice");
        map.insert(leaked, idx);
        idx
    }

    /// Resolves an index previously returned by [`NameTable::intern`].
    ///
    /// Lock-free: one atomic load plus a `OnceLock` read.
    fn resolve(&self, index: u32) -> &'static str {
        let (seg, offset) = locate(index);
        let ptr = self.segments[seg].load(AtomicOrdering::Acquire);
        assert!(!ptr.is_null(), "unknown variable index {index}");
        // SAFETY: the only non-null value ever stored into
        // `segments[seg]` is the Box::leak'd slice of `segment_len(seg)`
        // OnceLocks published by `intern`'s Release store; the Acquire load
        // above pairs with it, so observing non-null here guarantees the
        // whole allocation (and every OnceLock in it) is visible and alive
        // forever (leaked, never freed). A caller-supplied `index` only
        // reaches a published slot because `intern` sets the slot's
        // OnceLock under the interner mutex *before* the index escapes to
        // any caller, and `offset < segment_len(seg)` by construction of
        // `locate` keeps the pointer arithmetic in bounds.
        let slot = unsafe { &*ptr.add(offset) };
        slot.get().expect("variable index not yet published")
    }
}

/// A symbolic variable, interned by name.
///
/// ```
/// use symmap_algebra::var::Var;
///
/// let x1 = Var::new("x");
/// let x2 = Var::new("x");
/// assert_eq!(x1, x2);
/// assert_eq!(x1.name(), "x");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Interns `name` and returns its handle. Calling this twice with the same
    /// name yields equal handles; the lookup is a single hash probe.
    pub fn new(name: &str) -> Self {
        Var(table().intern(name))
    }

    /// The variable's textual name. Lock-free and allocation-free: the name
    /// lives in the process-wide interner for the lifetime of the process.
    pub fn name(&self) -> &'static str {
        table().resolve(self.0)
    }

    /// The raw interner index. Stable for the lifetime of the process.
    pub fn index(&self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a raw interner index. Internal: packed
    /// monomials store exponents densely by variable index and need to
    /// reconstruct handles when iterating.
    pub(crate) fn from_index(index: u32) -> Var {
        Var(index)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An *ordered* list of distinct variables.
///
/// The order is significant: it defines variable precedence for lexicographic
/// and elimination monomial orders (first = most significant), mirroring the
/// variable-list argument of Maple's `simplify` and `convert(..., 'horner')`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VarSet {
    vars: Vec<Var>,
}

impl VarSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        VarSet { vars: Vec::new() }
    }

    /// Creates a set from variable names, in the given precedence order.
    pub fn from_names(names: &[&str]) -> Self {
        let mut set = VarSet::new();
        for n in names {
            set.push(Var::new(n));
        }
        set
    }

    /// Appends a variable if not already present; returns `true` if added.
    pub fn push(&mut self, v: Var) -> bool {
        if self.vars.contains(&v) {
            false
        } else {
            self.vars.push(v);
            true
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Returns `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Returns `true` if the set contains `v`.
    pub fn contains(&self, v: Var) -> bool {
        self.vars.contains(&v)
    }

    /// Position of `v` in the precedence order, if present.
    pub fn position(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// Iterates over the variables in precedence order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        self.vars.iter().copied()
    }

    /// The variables as a slice, in precedence order.
    pub fn as_slice(&self) -> &[Var] {
        &self.vars
    }

    /// Builds the union of two sets, keeping `self`'s order first.
    pub fn union(&self, other: &VarSet) -> VarSet {
        let mut out = self.clone();
        for v in other.iter() {
            out.push(v);
        }
        out
    }
}

impl FromIterator<Var> for VarSet {
    fn from_iter<T: IntoIterator<Item = Var>>(iter: T) -> Self {
        let mut s = VarSet::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = Var::new("alpha_test_var");
        let b = Var::new("alpha_test_var");
        let c = Var::new("beta_test_var");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "alpha_test_var");
        assert_eq!(c.name(), "beta_test_var");
    }

    #[test]
    fn segment_locator_covers_the_index_space() {
        // Indices map to (segment, offset) pairs that are dense and in bounds.
        let mut expected = Vec::new();
        for seg in 0..4 {
            for off in 0..segment_len(seg) {
                expected.push((seg, off));
            }
        }
        for (idx, &(seg, off)) in expected.iter().enumerate() {
            assert_eq!(locate(idx as u32), (seg, off), "index {idx}");
        }
        // The last representable index still lands inside the segment table.
        let (seg, off) = locate(u32::MAX - (1 << FIRST_SEGMENT_BITS));
        assert!(seg < SEGMENT_COUNT);
        assert!(off < segment_len(seg));
    }

    #[test]
    fn interner_crosses_segment_boundaries() {
        // Intern enough fresh names to spill past the first (32-entry)
        // segment regardless of what other tests interned first.
        let vars: Vec<Var> = (0..80)
            .map(|i| Var::new(&format!("seg_boundary_test_var_{i}")))
            .collect();
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(v.name(), format!("seg_boundary_test_var_{i}"));
        }
    }

    #[test]
    fn concurrent_interning_and_resolution() {
        use std::thread;
        let handles: Vec<_> = (0..4)
            .map(|t| {
                thread::spawn(move || {
                    let mut resolved = Vec::new();
                    for i in 0..64 {
                        // Half shared names (contended interning), half unique.
                        let name = if i % 2 == 0 {
                            format!("concurrent_shared_{i}")
                        } else {
                            format!("concurrent_t{t}_{i}")
                        };
                        let v = Var::new(&name);
                        resolved.push((v, name));
                    }
                    for (v, name) in resolved {
                        assert_eq!(v.name(), name);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("interner thread panicked");
        }
        // Shared names interned from different threads are the same handle.
        assert_eq!(
            Var::new("concurrent_shared_0"),
            Var::new("concurrent_shared_0")
        );
    }

    #[test]
    fn varset_preserves_order_and_dedups() {
        let mut s = VarSet::from_names(&["x", "y"]);
        assert_eq!(s.len(), 2);
        assert!(!s.push(Var::new("x")));
        assert!(s.push(Var::new("z")));
        assert_eq!(s.position(Var::new("x")), Some(0));
        assert_eq!(s.position(Var::new("z")), Some(2));
        assert_eq!(s.to_string(), "[x, y, z]");
    }

    #[test]
    fn union_preserves_first_seen_order() {
        let a = VarSet::from_names(&["x", "y"]);
        let b = VarSet::from_names(&["y", "z"]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(u.position(Var::new("z")), Some(2));
    }

    #[test]
    fn from_iterator() {
        let s: VarSet = [Var::new("x"), Var::new("y"), Var::new("x")]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_set() {
        let s = VarSet::new();
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "[]");
    }
}
