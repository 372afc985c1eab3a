//! Collections of characterized library elements, stored as ring-sharded
//! groups behind a fingerprint index.
//!
//! A [`Library`] groups its elements by *exact variable support*: every
//! element whose polynomial uses precisely the same set of variables lives in
//! the same [`LibraryShard`], behind an `Arc` so cloned libraries (one per
//! batch worker) share storage instead of copying it, and shards can be
//! handed out / retained independently. Each shard carries the support's
//! [`Ring`], its sorted global indices and a 64-bit support mask, so the
//! mapper's candidate scan ([`Library::candidates`]) skips a whole shard with
//! one mask AND — on a thousand-element library the scan touches a few dozen
//! shard headers instead of a thousand `Poly`s. Because a shard's elements
//! all share one support, the shard-level test *is* the element-level test:
//! no element inside a surviving shard needs further support checks.
//!
//! Insertion order is remembered in a directory (and restored after every
//! scan), so the sharding is invisible to iteration: `iter()`,
//! `candidates()`, `Display` and `PartialEq` all behave exactly as the flat
//! `Vec` storage did, byte for byte. See `DESIGN.md` §9 for the soundness
//! argument and the shard lifecycle.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use symmap_algebra::fingerprint::PolyFingerprint;
use symmap_algebra::ring::Ring;

use crate::element::LibraryElement;

/// One support-homogeneous group of elements: every element's polynomial
/// uses exactly the variables in [`LibraryShard::support`]. Shards sit
/// behind `Arc`s inside [`Library`] — cloning a library clones shard
/// *handles*, and mutation copies only the shard it touches.
#[derive(Debug, Clone)]
pub struct LibraryShard {
    /// The ring spanned by the common support, ready for ring-local work.
    ring: Ring,
    /// OR of `1 << (index % 64)` over the support: the one-word skip test.
    mask: u64,
    /// Sorted global variable indices common to every element here.
    support: Box<[u32]>,
    /// The elements, in first-insertion order within the shard.
    elements: Vec<LibraryElement>,
    /// Directory position of each element, parallel to `elements` — what
    /// lets a scan restore library insertion order without a lookup table.
    positions: Vec<u32>,
}

impl LibraryShard {
    /// The ring spanned by this shard's variable support.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The 64-bit support mask (`OR` of `1 << (index % 64)`).
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Sorted global indices of the common variable support.
    pub fn support(&self) -> &[u32] {
        &self.support
    }

    /// Number of elements in the shard.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the shard currently holds no elements (possible after a
    /// re-characterization moved its last element to a different support).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The shard's elements, in first-insertion order within the shard.
    pub fn elements(&self) -> &[LibraryElement] {
        &self.elements
    }

    /// Whether this shard's support shares a variable with `target` —
    /// the mask fast-path followed by the exact sorted-merge confirm, so
    /// the answer is exact in both directions.
    fn intersects(&self, target: &PolyFingerprint) -> bool {
        self.mask & target.mask() != 0 && sorted_slices_intersect(&self.support, target.support())
    }
}

/// Whether two sorted index slices share an element (merge walk).
fn sorted_slices_intersect(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// What one [`Library::candidates`] scan did, for the mapper's prune
/// instrumentation. Deterministic: a pure function of the library contents
/// and the target fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Shards dismissed whole by the support test (mask AND, confirmed by
    /// the exact merge on a collision).
    pub shards_skipped: usize,
    /// Shards whose support intersects the target's: every element inside
    /// is a genuine candidate (shard support is exact, not approximate).
    pub shards_scanned: usize,
    /// Elements pruned without touching their polynomials — the total
    /// population of the skipped shards.
    pub rejected: usize,
    /// Elements kept as candidates.
    pub kept: usize,
}

/// Result of a [`Library::candidates`] scan: the surviving elements in
/// library insertion order (byte-identical to the legacy full scan), plus
/// the prune accounting.
#[derive(Debug)]
pub struct CandidateScan<'a> {
    /// Surviving elements, in library insertion order.
    pub elements: Vec<&'a LibraryElement>,
    /// What the scan skipped and kept.
    pub stats: PruneStats,
}

/// Where one element lives: shard index and slot within the shard. The
/// directory (one entry per element, in insertion order) is what keeps
/// sharded storage observably identical to the old flat `Vec`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    shard: u32,
    slot: u32,
}

/// A named collection of characterized library elements.
///
/// ```
/// use symmap_libchar::{Library, LibraryElement};
/// use symmap_algebra::poly::Poly;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lib = Library::new("tiny");
/// lib.push(
///     LibraryElement::builder("sum", "s")
///         .polynomial(Poly::parse("x + y")?)
///         .cycles(2)
///         .build()?,
/// );
/// assert_eq!(lib.len(), 1);
/// assert!(lib.element("sum").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Library {
    name: String,
    /// Support-homogeneous element groups, in first-creation order.
    shards: Vec<Arc<LibraryShard>>,
    /// One entry per element, in insertion order.
    directory: Vec<Slot>,
    /// Element name → directory index. Point lookups only — iteration
    /// always goes through the (ordered) directory, never this map.
    by_name: HashMap<String, u32>,
    /// Exact support → shard index. Point lookups only, same discipline.
    by_support: HashMap<Box<[u32]>, u32>,
}

impl Library {
    /// Creates an empty library.
    pub fn new(name: &str) -> Self {
        Library {
            name: name.to_string(),
            ..Library::default()
        }
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an element. Elements with duplicate names replace the earlier one
    /// (re-characterization updates in place, keeping its insertion-order
    /// position even when the new polynomial moves it to a different shard).
    pub fn push(&mut self, element: LibraryElement) {
        match self.by_name.get(element.name()) {
            Some(&dir_idx) => self.replace(dir_idx, element),
            None => {
                let dir_idx = self.directory.len() as u32;
                self.by_name.insert(element.name().to_string(), dir_idx);
                let slot = self.insert_into_shard(element, dir_idx);
                self.directory.push(slot);
            }
        }
    }

    /// Routes `element` to the shard matching its exact support, creating
    /// the shard on first sight of that support.
    fn insert_into_shard(&mut self, element: LibraryElement, dir_idx: u32) -> Slot {
        let fp = element.fingerprint();
        let shard_idx = match self.by_support.get(fp.support()) {
            Some(&i) => i,
            None => {
                let i = self.shards.len() as u32;
                self.shards.push(Arc::new(LibraryShard {
                    ring: Ring::spanning(std::iter::once(element.polynomial())),
                    mask: fp.mask(),
                    support: fp.support().into(),
                    elements: Vec::new(),
                    positions: Vec::new(),
                }));
                self.by_support.insert(fp.support().into(), i);
                i
            }
        };
        let shard = Arc::make_mut(&mut self.shards[shard_idx as usize]);
        shard.elements.push(element);
        shard.positions.push(dir_idx);
        Slot {
            shard: shard_idx,
            slot: (shard.elements.len() - 1) as u32,
        }
    }

    /// Replaces the element at directory position `dir_idx`. Same support:
    /// overwrite in place. Changed support: relocate to the right shard,
    /// keeping the directory position (and thus iteration order).
    fn replace(&mut self, dir_idx: u32, element: LibraryElement) {
        let Slot { shard, slot } = self.directory[dir_idx as usize];
        if *self.shards[shard as usize].support == *element.fingerprint().support() {
            Arc::make_mut(&mut self.shards[shard as usize]).elements[slot as usize] = element;
            return;
        }
        // Shift the old slot out and re-point the directory entries of the
        // elements that moved down.
        let moved: Vec<u32> = {
            let s = Arc::make_mut(&mut self.shards[shard as usize]);
            s.elements.remove(slot as usize);
            s.positions.remove(slot as usize);
            s.positions[slot as usize..].to_vec()
        };
        for pos in moved {
            self.directory[pos as usize].slot -= 1;
        }
        let slot = self.insert_into_shard(element, dir_idx);
        self.directory[dir_idx as usize] = slot;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Returns `true` when the library has no elements.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Looks up an element by name — O(1) through the name map.
    pub fn element(&self, name: &str) -> Option<&LibraryElement> {
        let &dir_idx = self.by_name.get(name)?;
        Some(self.at(self.directory[dir_idx as usize]))
    }

    /// The element a directory slot points at.
    fn at(&self, slot: Slot) -> &LibraryElement {
        &self.shards[slot.shard as usize].elements[slot.slot as usize]
    }

    /// Iterates over all elements, in insertion order (the directory order —
    /// sharding never reorders iteration).
    pub fn iter(&self) -> impl Iterator<Item = &LibraryElement> + '_ {
        // lint:allow(D1): `directory` is a `Vec<Slot>` iterated in insertion
        // order; the hash maps in this struct are point-lookup-only.
        self.directory.iter().map(|&slot| self.at(slot))
    }

    /// The ring-sharded storage: support-homogeneous element groups in
    /// first-creation order, each behind an `Arc` handle that clones (and
    /// ships to workers) without copying element data.
    pub fn shards(&self) -> &[Arc<LibraryShard>] {
        &self.shards
    }

    /// Candidate elements for a target with fingerprint `target`: exactly
    /// those whose polynomial shares at least one variable with the
    /// target's support, in insertion order — the same elements, in the
    /// same order, as a full `iter()` scan filtering on support overlap,
    /// but skipping whole shards on a one-word mask test.
    pub fn candidates(&self, target: &PolyFingerprint) -> CandidateScan<'_> {
        let mut picked: Vec<(u32, &LibraryElement)> = Vec::new();
        let mut stats = PruneStats::default();
        for shard in &self.shards {
            if !shard.intersects(target) {
                stats.shards_skipped += 1;
                stats.rejected += shard.elements.len();
                continue;
            }
            stats.shards_scanned += 1;
            picked.extend(shard.positions.iter().copied().zip(&shard.elements));
        }
        picked.sort_unstable_by_key(|&(pos, _)| pos);
        stats.kept = picked.len();
        CandidateScan {
            elements: picked.into_iter().map(|(_, e)| e).collect(),
            stats,
        }
    }

    /// Merges another library into this one (its elements override same-named
    /// ones here).
    pub fn merge(&mut self, other: &Library) {
        for e in other.iter() {
            self.push(e.clone());
        }
    }

    /// Builds the union of several libraries under a new name.
    pub fn union(name: &str, parts: &[&Library]) -> Library {
        let mut out = Library::new(name);
        for p in parts {
            out.merge(p);
        }
        out
    }
}

/// Libraries are equal when they have the same name and the same elements in
/// the same iteration order — shard layout is storage, not identity.
impl PartialEq for Library {
    fn eq(&self, other: &Library) -> bool {
        self.name == other.name && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "library `{}` ({} elements)", self.name, self.len())?;
        for e in self.iter() {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

impl Extend<LibraryElement> for Library {
    fn extend<T: IntoIterator<Item = LibraryElement>>(&mut self, iter: T) {
        for e in iter {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::LibrarySource;
    use symmap_algebra::poly::Poly;

    fn element(name: &str, poly: &str, source: LibrarySource, cycles: u64) -> LibraryElement {
        LibraryElement::builder(name, &format!("{name}_out"))
            .polynomial(Poly::parse(poly).unwrap())
            .cycles(cycles)
            .source(source)
            .build()
            .unwrap()
    }

    fn fp(poly: &str) -> PolyFingerprint {
        PolyFingerprint::of(&Poly::parse(poly).unwrap())
    }

    #[test]
    fn push_and_lookup() {
        let mut lib = Library::new("test");
        assert!(lib.is_empty());
        lib.push(element("a", "x + y", LibrarySource::InHouse, 5));
        lib.push(element("b", "x*y", LibrarySource::Ipp, 2));
        assert_eq!(lib.len(), 2);
        assert!(lib.element("a").is_some());
        assert!(lib.element("zzz").is_none());
    }

    #[test]
    fn duplicate_names_replace() {
        let mut lib = Library::new("test");
        lib.push(element("a", "x + y", LibrarySource::InHouse, 5));
        lib.push(element("a", "x + y", LibrarySource::InHouse, 3));
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.element("a").unwrap().cycles(), 3);
    }

    #[test]
    fn filter_by_source_and_union() {
        let mut lm = Library::new("lm");
        lm.push(element("exp", "1 + x", LibrarySource::LinuxMath, 900));
        let mut ih = Library::new("ih");
        ih.push(element("exp_fixed", "1 + x", LibrarySource::InHouse, 40));
        let all = Library::union("all", &[&lm, &ih]);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn extend_and_display() {
        let mut lib = Library::new("test");
        lib.extend(vec![element("a", "x", LibrarySource::Ipp, 1)]);
        let s = lib.to_string();
        assert!(s.contains("library `test`"));
        assert!(s.contains("a [IPP]"));
    }

    #[test]
    fn shards_group_by_exact_support_and_iteration_stays_insertion_ordered() {
        let mut lib = Library::new("test");
        lib.push(element("sum", "x + y", LibrarySource::InHouse, 2));
        lib.push(element("sq", "x^2", LibrarySource::InHouse, 1));
        lib.push(element("diff", "x - y", LibrarySource::InHouse, 2));
        lib.push(element("prod", "x*y", LibrarySource::Ipp, 3));
        // {x,y} and {x}: two shards; sum/diff/prod share the first.
        assert_eq!(lib.shards().len(), 2);
        let names: Vec<&str> = lib.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["sum", "sq", "diff", "prod"]);
        let xy = &lib.shards()[0];
        assert_eq!(xy.len(), 3);
        assert_eq!(xy.ring().len(), 2);
        assert!(!xy.is_empty());
    }

    #[test]
    fn candidates_match_the_legacy_support_scan_in_content_and_order() {
        let mut lib = Library::new("test");
        lib.push(element("sum", "x + y", LibrarySource::InHouse, 2));
        lib.push(element("other", "u*w", LibrarySource::InHouse, 4));
        lib.push(element("sq", "x^2", LibrarySource::InHouse, 1));
        lib.push(element("mixed", "y + u", LibrarySource::Ipp, 3));
        let target = fp("x^2 + y");
        let scan = lib.candidates(&target);
        let legacy: Vec<&LibraryElement> = lib
            .iter()
            .filter(|e| {
                let tv = Poly::parse("x^2 + y").unwrap().vars();
                e.polynomial().vars().iter().any(|v| tv.contains(v))
            })
            .collect();
        let got: Vec<&str> = scan.elements.iter().map(|e| e.name()).collect();
        let want: Vec<&str> = legacy.iter().map(|e| e.name()).collect();
        assert_eq!(got, want);
        assert_eq!(got, vec!["sum", "sq", "mixed"]);
        assert_eq!(scan.stats.kept, 3);
        assert_eq!(scan.stats.rejected, 1);
        assert_eq!(scan.stats.shards_skipped, 1);
        assert_eq!(scan.stats.shards_scanned, 3);
    }

    #[test]
    fn constant_elements_are_never_candidates() {
        let mut lib = Library::new("test");
        lib.push(element("konst", "7", LibrarySource::InHouse, 1));
        lib.push(element("id", "x", LibrarySource::InHouse, 1));
        let scan = lib.candidates(&fp("x + 1"));
        let names: Vec<&str> = scan.elements.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["id"]);
    }

    #[test]
    fn replacement_with_changed_support_relocates_but_keeps_order() {
        let mut lib = Library::new("test");
        lib.push(element("a", "x + y", LibrarySource::InHouse, 1));
        lib.push(element("b", "x - y", LibrarySource::InHouse, 2));
        lib.push(element("c", "x*y", LibrarySource::InHouse, 3));
        // Re-characterize `b` onto a different support: moves shard, keeps
        // its iteration position and stays findable by name.
        lib.push(element("b", "z^2", LibrarySource::InHouse, 9));
        let names: Vec<&str> = lib.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(lib.element("b").unwrap().cycles(), 9);
        assert_eq!(lib.element("c").unwrap().cycles(), 3);
        // The z-shard now exists and the {x,y} shard shrank to two.
        assert_eq!(lib.shards().len(), 2);
        assert_eq!(lib.shards()[0].len(), 2);
        // Candidates for z hit exactly the relocated element.
        let scan = lib.candidates(&fp("z"));
        let names: Vec<&str> = scan.elements.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["b"]);
    }

    #[test]
    fn cloned_libraries_share_shards_until_mutation() {
        let mut lib = Library::new("test");
        lib.push(element("a", "x + y", LibrarySource::InHouse, 1));
        let snap = lib.clone();
        assert!(Arc::ptr_eq(&lib.shards()[0], &snap.shards()[0]));
        // Mutating the original copies only its own shard handle.
        lib.push(element("b", "x + y", LibrarySource::InHouse, 2));
        assert!(!Arc::ptr_eq(&lib.shards()[0], &snap.shards()[0]));
        assert_eq!(snap.len(), 1);
        assert_eq!(lib.len(), 2);
        assert_eq!(snap.element("a").unwrap().cycles(), 1);
    }

    #[test]
    fn equality_ignores_shard_layout() {
        // Same elements arriving in the same order through different
        // replacement histories must compare equal.
        let mut a = Library::new("lib");
        a.push(element("e1", "x", LibrarySource::InHouse, 1));
        a.push(element("e2", "y", LibrarySource::InHouse, 1));
        let mut b = Library::new("lib");
        b.push(element("e1", "x + y", LibrarySource::InHouse, 1));
        b.push(element("e2", "y", LibrarySource::InHouse, 1));
        b.push(element("e1", "x", LibrarySource::InHouse, 1));
        assert_eq!(a, b);
    }
}
