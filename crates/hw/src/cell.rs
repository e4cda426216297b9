//! EGT (Electrolyte-Gated Transistor) standard-cell library.
//!
//! The values are an architectural-level abstraction of the open EGT library
//! used in the printed-electronics literature (Bleier et al., ISCA 2020;
//! Mubarik et al., MICRO 2020): inkjet-printed transistors at ~1 V supply with
//! feature sizes in the tens of micrometres, which makes individual gates
//! measure in fractions of a square millimetre and switch in milliseconds.
//! Absolute numbers differ from a real signoff flow; the *relative* cost of
//! gates (a full adder ≈ 4–5 NAND-equivalents, an XOR ≈ 2.6) is what drives
//! the area trends reproduced by this crate.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Kinds of standard cells available in the printed technology. Every one
/// is combinational: a bespoke classifier holds no state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Inverter.
    Inverter,
    /// Non-inverting buffer.
    Buffer,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2-to-1 multiplexer.
    Mux2,
    /// Half adder (sum + carry).
    HalfAdder,
    /// Full adder (sum + carry).
    FullAdder,
}

/// Number of distinct [`CellKind`]s: the length of [`CellKind::all`].
pub(crate) const KIND_COUNT: usize = CellKind::all().len();

impl CellKind {
    /// All cell kinds, in discriminant order.
    pub const fn all() -> [CellKind; 11] {
        [
            CellKind::Inverter,
            CellKind::Buffer,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Mux2,
            CellKind::HalfAdder,
            CellKind::FullAdder,
        ]
    }

    /// Number of input pins (at most 3).
    pub const fn input_count(self) -> usize {
        match self {
            CellKind::Inverter | CellKind::Buffer => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2
            | CellKind::HalfAdder => 2,
            CellKind::Mux2 | CellKind::FullAdder => 3,
        }
    }

    /// Number of output pins (at most 2: adders drive sum and carry).
    pub const fn output_count(self) -> usize {
        match self {
            CellKind::HalfAdder | CellKind::FullAdder => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CellKind::Inverter => "INV",
            CellKind::Buffer => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::HalfAdder => "HA",
            CellKind::FullAdder => "FA",
        };
        f.write_str(name)
    }
}

/// Physical parameters of one standard cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Cell area in mm² (printed cells are huge compared to silicon).
    pub area_mm2: f64,
    /// Static power draw in µW (EGT logic is dominated by static power).
    pub power_uw: f64,
    /// Propagation delay in µs.
    pub delay_us: f64,
}

/// The printed-electronics standard-cell library every circuit is costed
/// on: the open EGT library abstraction ([`CellLibrary::egt`], also the
/// [`Default`]).
///
/// # Example
///
/// ```
/// use pmlp_hw::{CellLibrary, CellKind};
/// let lib = CellLibrary::egt();
/// let fa = lib.params(CellKind::FullAdder);
/// let inv = lib.params(CellKind::Inverter);
/// assert!(fa.area_mm2 > inv.area_mm2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    /// Per-[`CellKind`] parameters, indexed by discriminant order.
    cells: [CellParams; KIND_COUNT],
}

impl CellLibrary {
    /// The open EGT library abstraction (inkjet-printed, ~1 V supply).
    ///
    /// Relative cell sizes follow standard NAND-equivalent gate counts; the
    /// absolute scale (a NAND2 of 0.04 mm², 1.3 µW, 25 µs) is representative of
    /// published EGT figures. Area and static power both scale with the
    /// NAND-equivalent count, so every cell draws 32.5 µW per mm².
    pub fn egt() -> Self {
        let nand_area = 0.04; // mm²
        let nand_power = 1.3; // µW
        let nand_delay = 25.0; // µs
        let cells = CellKind::all().map(|kind| {
            // (NAND-equivalent gates, delay relative to a NAND2)
            let (ge, delay_factor) = match kind {
                CellKind::Inverter => (0.6, 0.6),
                CellKind::Buffer => (0.8, 0.9),
                CellKind::Nand2 => (1.0, 1.0),
                CellKind::Nor2 => (1.0, 1.1),
                CellKind::And2 | CellKind::Or2 => (1.4, 1.3),
                CellKind::Xor2 | CellKind::Xnor2 => (2.6, 1.8),
                CellKind::Mux2 => (2.2, 1.5),
                CellKind::HalfAdder => (3.2, 2.0),
                CellKind::FullAdder => (4.8, 2.6),
            };
            CellParams {
                area_mm2: nand_area * ge,
                power_uw: nand_power * ge,
                delay_us: nand_delay * delay_factor,
            }
        });
        CellLibrary { cells }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        "EGT"
    }

    /// Parameters of `kind`.
    pub fn params(&self, kind: CellKind) -> CellParams {
        self.cells[kind as usize]
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::egt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn egt_library_defines_every_cell() {
        let lib = CellLibrary::egt();
        for kind in CellKind::all() {
            let p = lib.params(kind);
            assert!(p.area_mm2 > 0.0, "{kind} has zero area");
            assert!(p.power_uw > 0.0, "{kind} has zero power");
            assert!(p.delay_us > 0.0, "{kind} has zero delay");
        }
    }

    #[test]
    fn relative_cell_costs_are_sane() {
        let lib = CellLibrary::egt();
        let inv = lib.params(CellKind::Inverter);
        let nand = lib.params(CellKind::Nand2);
        let xor = lib.params(CellKind::Xor2);
        let fa = lib.params(CellKind::FullAdder);
        let ha = lib.params(CellKind::HalfAdder);
        assert!(inv.area_mm2 < nand.area_mm2);
        assert!(nand.area_mm2 < xor.area_mm2);
        assert!(ha.area_mm2 < fa.area_mm2);
        assert!(fa.area_mm2 > 3.0 * nand.area_mm2);
    }

    /// Static power is a fixed multiple of area for every cell, so a power
    /// objective would rank designs exactly as the area objective does. That
    /// is why the search offers no `power` axis; a library that breaks the
    /// proportionality should bring it back.
    #[test]
    fn power_is_proportional_to_area_in_every_cell() {
        let lib = CellLibrary::egt();
        for kind in CellKind::all() {
            let p = lib.params(kind);
            let ratio = p.power_uw / p.area_mm2;
            assert!(
                (ratio - 32.5).abs() <= 1e-12 * 32.5,
                "{kind} draws {ratio} uW per mm2, not 32.5: power no longer ranks designs \
                 as area does, so the dropped `power` objective axis would differ from `area`"
            );
        }
    }

    #[test]
    fn display_names_match_liberty_style() {
        assert_eq!(CellKind::FullAdder.to_string(), "FA");
        assert_eq!(CellKind::Nand2.to_string(), "NAND2");
    }

    #[test]
    fn default_library_is_egt() {
        assert_eq!(CellLibrary::default(), CellLibrary::egt());
        assert_eq!(CellLibrary::default().name(), "EGT");
    }

    #[test]
    fn all_lists_each_kind_at_its_discriminant() {
        for (i, kind) in CellKind::all().into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }
}
