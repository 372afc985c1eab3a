//! The library-element model.

use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use symmap_algebra::factor::is_primitive;
use symmap_algebra::fingerprint::PolyFingerprint;
use symmap_algebra::poly::Poly;
use symmap_algebra::simplify::SideRelation;

/// Numeric format of an element's inputs and outputs (from the library's
/// include files, as §3.1 puts it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NumericFormat {
    /// IEEE double precision.
    Double,
    /// IEEE single precision.
    Single,
    /// Fixed point with the given integer/fractional bit split.
    Fixed(u8, u8),
}

impl fmt::Display for NumericFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericFormat::Double => write!(f, "double"),
            NumericFormat::Single => write!(f, "float"),
            NumericFormat::Fixed(i, q) => write!(f, "Q{i}.{q}"),
        }
    }
}

/// Which library an element belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LibrarySource {
    /// Linux math library ("LM").
    LinuxMath,
    /// In-house pre-optimized fixed-point routines ("IH").
    InHouse,
    /// Intel Integrated Performance Primitives style library ("IPP").
    Ipp,
}

impl fmt::Display for LibrarySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibrarySource::LinuxMath => write!(f, "LM"),
            LibrarySource::InHouse => write!(f, "IH"),
            LibrarySource::Ipp => write!(f, "IPP"),
        }
    }
}

/// A characterized complex library element.
///
/// The polynomial representation is expressed in the element's formal input
/// variables; `output_symbol` is the fresh variable the mapper introduces when
/// it uses the element as a side relation.
///
/// Equality and `Debug` cover the element's data, not its lazily filled
/// memos ([`LibraryElement::side_relation`], [`LibraryElement::is_primitive`]).
#[derive(Clone)]
pub struct LibraryElement {
    name: String,
    output_symbol: String,
    polynomial: Poly,
    /// Invariant summary of `polynomial`, computed once at build time so
    /// candidate selection over thousand-element libraries never touches the
    /// polynomial itself (see `DESIGN.md` §9).
    fingerprint: PolyFingerprint,
    cycles: u64,
    energy_nj: f64,
    accuracy: f64,
    format: NumericFormat,
    source: LibrarySource,
    /// The element's side relation, derived on first use by the mapper's
    /// search — not at build time, because deriving it interns
    /// `output_symbol`, and interner indices follow first-intern order.
    /// Shared with every clone: clones have the same symbol and polynomial
    /// for life (no method changes either), so the libraries built from one
    /// element (`Library::union` clones) derive its relation once.
    side_relation: Arc<OnceLock<SideRelation>>,
    /// Whether `polynomial` is primitive ([`is_primitive`]), decided on
    /// first use by the mapper's candidate ordering and shared with every
    /// clone like `side_relation`.
    primitive: Arc<OnceLock<bool>>,
}

impl PartialEq for LibraryElement {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.output_symbol == other.output_symbol
            && self.polynomial == other.polynomial
            && self.fingerprint == other.fingerprint
            && self.cycles == other.cycles
            && self.energy_nj == other.energy_nj
            && self.accuracy == other.accuracy
            && self.format == other.format
            && self.source == other.source
    }
}

impl fmt::Debug for LibraryElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LibraryElement")
            .field("name", &self.name)
            .field("output_symbol", &self.output_symbol)
            .field("polynomial", &self.polynomial)
            .field("fingerprint", &self.fingerprint)
            .field("cycles", &self.cycles)
            .field("energy_nj", &self.energy_nj)
            .field("accuracy", &self.accuracy)
            .field("format", &self.format)
            .field("source", &self.source)
            .finish()
    }
}

impl LibraryElement {
    /// Starts building an element with the given name and output symbol.
    pub fn builder(name: &str, output_symbol: &str) -> LibraryElementBuilder {
        LibraryElementBuilder {
            name: name.to_string(),
            output_symbol: output_symbol.to_string(),
            polynomial: None,
            cycles: 1,
            energy_nj: 0.0,
            accuracy: 0.0,
            format: NumericFormat::Double,
            source: LibrarySource::InHouse,
        }
    }

    /// The element's name (as a designer would see it in the library index).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fresh symbol that stands for the element's output in rewritten code.
    pub fn output_symbol(&self) -> &str {
        &self.output_symbol
    }

    /// The polynomial representation of the element's function.
    pub fn polynomial(&self) -> &Poly {
        &self.polynomial
    }

    /// The precomputed invariant fingerprint of [`polynomial`]: support mask,
    /// degree signature and ℤ/p evaluation hash, ready for O(1) conservative
    /// pruning checks.
    ///
    /// [`polynomial`]: LibraryElement::polynomial
    pub fn fingerprint(&self) -> &PolyFingerprint {
        &self.fingerprint
    }

    /// The side relation `output_symbol = polynomial` the mapper prices this
    /// element with: symbol, generator, body variables and the
    /// self-reference flag, derived on the first call on the element or any
    /// of its clones and shared by every later one. The first call interns
    /// the output symbol.
    pub fn side_relation(&self) -> &SideRelation {
        self.side_relation
            .get_or_init(|| SideRelation::new(&self.output_symbol, &self.polynomial))
    }

    /// Whether the element's polynomial is primitive in [`factor`]'s sense:
    /// content 1 and a positive GrLex leading coefficient. Decided on the
    /// first call on the element or any of its clones.
    ///
    /// [`factor`]: symmap_algebra::factor::factor
    pub fn is_primitive(&self) -> bool {
        *self
            .primitive
            .get_or_init(|| is_primitive(&self.polynomial))
    }

    /// Execution cycles on the characterized platform (per invocation).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Energy per invocation in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.energy_nj
    }

    /// Worst-case absolute output error versus the exact function.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Input/output numeric format.
    pub fn format(&self) -> NumericFormat {
        self.format
    }

    /// Which library this element comes from.
    pub fn source(&self) -> LibrarySource {
        self.source
    }

    /// Overrides the measured cost (used after characterization).
    pub fn set_cost(&mut self, cycles: u64, energy_nj: f64) {
        self.cycles = cycles;
        self.energy_nj = energy_nj;
    }
}

impl fmt::Display for LibraryElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] ({}, {} cycles, {:.1} nJ, err {:.2e}): {} = {}",
            self.name,
            self.source,
            self.format,
            self.cycles,
            self.energy_nj,
            self.accuracy,
            self.output_symbol,
            self.polynomial
        )
    }
}

/// Builder for [`LibraryElement`].
#[derive(Debug, Clone)]
pub struct LibraryElementBuilder {
    name: String,
    output_symbol: String,
    polynomial: Option<Poly>,
    cycles: u64,
    energy_nj: f64,
    accuracy: f64,
    format: NumericFormat,
    source: LibrarySource,
}

/// Error returned when a builder is missing its polynomial representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildElementError {
    /// Name of the element that failed to build.
    pub name: String,
}

impl fmt::Display for BuildElementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "library element `{}` has no polynomial representation",
            self.name
        )
    }
}

impl std::error::Error for BuildElementError {}

impl LibraryElementBuilder {
    /// Sets the polynomial representation (required).
    pub fn polynomial(mut self, p: Poly) -> Self {
        self.polynomial = Some(p);
        self
    }

    /// Sets the per-invocation cycle cost.
    pub fn cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles.max(1);
        self
    }

    /// Sets the per-invocation energy in nanojoules.
    pub fn energy_nj(mut self, energy: f64) -> Self {
        self.energy_nj = energy.max(0.0);
        self
    }

    /// Sets the worst-case absolute error.
    pub fn accuracy(mut self, accuracy: f64) -> Self {
        self.accuracy = accuracy.max(0.0);
        self
    }

    /// Sets the numeric format.
    pub fn format(mut self, format: NumericFormat) -> Self {
        self.format = format;
        self
    }

    /// Sets the source library.
    pub fn source(mut self, source: LibrarySource) -> Self {
        self.source = source;
        self
    }

    /// Builds the element.
    ///
    /// # Errors
    ///
    /// Returns [`BuildElementError`] if no polynomial representation was set.
    pub fn build(self) -> Result<LibraryElement, BuildElementError> {
        let polynomial = self.polynomial.ok_or(BuildElementError {
            name: self.name.clone(),
        })?;
        let fingerprint = PolyFingerprint::of(&polynomial);
        Ok(LibraryElement {
            name: self.name,
            output_symbol: self.output_symbol,
            polynomial,
            fingerprint,
            cycles: self.cycles,
            energy_nj: self.energy_nj,
            accuracy: self.accuracy,
            format: self.format,
            source: self.source,
            side_relation: Arc::default(),
            primitive: Arc::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let e = LibraryElement::builder("mac", "m")
            .polynomial(Poly::parse("a*b + c").unwrap())
            .cycles(3)
            .energy_nj(4.5)
            .accuracy(1e-9)
            .format(NumericFormat::Fixed(16, 15))
            .source(LibrarySource::Ipp)
            .build()
            .unwrap();
        assert_eq!(e.name(), "mac");
        assert_eq!(e.output_symbol(), "m");
        assert_eq!(e.cycles(), 3);
        assert_eq!(e.source(), LibrarySource::Ipp);
        assert_eq!(e.format().to_string(), "Q16.15");
        assert!(e.to_string().contains("mac"));
    }

    #[test]
    fn builder_requires_polynomial() {
        let err = LibraryElement::builder("nopoly", "n").build().unwrap_err();
        assert!(err.to_string().contains("nopoly"));
    }

    #[test]
    fn zero_cycles_clamped_to_one() {
        let e = LibraryElement::builder("free", "f")
            .polynomial(Poly::parse("x").unwrap())
            .cycles(0)
            .build()
            .unwrap();
        assert_eq!(e.cycles(), 1);
    }

    #[test]
    fn set_cost_updates_measurements() {
        let mut e = LibraryElement::builder("exp", "e")
            .polynomial(Poly::parse("1 + x").unwrap())
            .build()
            .unwrap();
        e.set_cost(123, 9.0);
        assert_eq!(e.cycles(), 123);
        assert_eq!(e.energy_nj(), 9.0);
    }

    #[test]
    fn building_and_scanning_leave_the_output_symbol_uninterned() {
        use crate::library::Library;
        use symmap_algebra::var::Var;

        let body = Poly::parse("memo_in_a*memo_in_b + memo_in_a").unwrap();
        let e = LibraryElement::builder("memo_elem", "memo_out_sym")
            .polynomial(body)
            .build()
            .unwrap();
        let mut lib = Library::new("memo");
        lib.push(e.clone());
        let target = Poly::parse("memo_in_a^2").unwrap();
        let scan = lib.candidates(&PolyFingerprint::of(&target));
        assert_eq!(scan.elements.len(), 1);
        let _ = format!("{e:?} {e}");
        // Nothing above interned the symbol: a name interned now ranks
        // before it, as it would have before the memo existed.
        let probe = Var::new("memo_probe_after_build");
        let relation = lib.element("memo_elem").unwrap().side_relation();
        assert!(probe.index() < relation.symbol().index());
        assert_eq!(relation.symbol().name(), "memo_out_sym");
    }

    #[test]
    fn priced_element_equals_its_unpriced_clone() {
        let build = || {
            LibraryElement::builder("mac", "m")
                .polynomial(Poly::parse("a*b + c").unwrap())
                .build()
                .unwrap()
        };
        let (priced, unpriced) = (build(), build());
        assert_eq!(
            priced.side_relation().generator(),
            &Poly::parse("a*b + c - m").unwrap()
        );
        assert!(priced.side_relation().check().is_ok());
        assert_eq!(priced, unpriced);
        assert_eq!(format!("{priced:?}"), format!("{unpriced:?}"));
        // Clones made before or after pricing share the one relation.
        let early = unpriced.clone();
        assert!(std::ptr::eq(
            early.side_relation(),
            unpriced.side_relation()
        ));
        assert!(std::ptr::eq(
            priced.clone().side_relation(),
            priced.side_relation()
        ));
        assert!(!std::ptr::eq(
            priced.side_relation(),
            unpriced.side_relation()
        ));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NumericFormat::Double.to_string(), "double");
        assert_eq!(LibrarySource::LinuxMath.to_string(), "LM");
        assert_eq!(LibrarySource::Ipp.to_string(), "IPP");
    }
}
