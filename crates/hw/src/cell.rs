//! EGT (Electrolyte-Gated Transistor) standard-cell library.
//!
//! The values are an architectural-level abstraction of the open EGT library
//! used in the printed-electronics literature (Bleier et al., ISCA 2020;
//! Mubarik et al., MICRO 2020): inkjet-printed transistors at ~1 V supply with
//! feature sizes in the tens of micrometres, which makes individual gates
//! measure in fractions of a square millimetre and switch in milliseconds.
//! Absolute numbers differ from a real signoff flow; the *relative* cost of
//! gates (a full adder ≈ 4–5 NAND-equivalents, a flip-flop ≈ 6) is what drives
//! the area trends reproduced by this crate.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Kinds of standard cells available in the printed technology.
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
    /// D flip-flop (used only by sequential variants / registers).
    Dff,
}

impl CellKind {
    /// All cell kinds, in a stable order.
    pub fn all() -> [CellKind; 12] {
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
            CellKind::Dff,
        ]
    }

    /// Number of input pins (at most 3).
    pub const fn input_count(self) -> usize {
        match self {
            CellKind::Inverter | CellKind::Buffer | CellKind::Dff => 1,
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
            CellKind::Dff => "DFF",
        };
        f.write_str(name)
    }
}

/// Physical parameters of one standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellParams {
    /// Cell area in mm² (printed cells are huge compared to silicon).
    pub area_mm2: f64,
    /// Static power draw in µW (EGT logic is dominated by static power).
    pub power_uw: f64,
    /// Propagation delay in µs.
    pub delay_us: f64,
}

/// A printed-electronics standard-cell library.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    name: String,
    supply_voltage: f64,
    cells: BTreeMap<CellKind, CellParams>,
}

impl CellLibrary {
    /// Builds a library from explicit per-cell parameters.
    ///
    /// Missing cells fall back to the NAND2 parameters scaled by a
    /// NAND-equivalent factor, so partially specified libraries stay usable.
    pub fn new(
        name: impl Into<String>,
        supply_voltage: f64,
        cells: BTreeMap<CellKind, CellParams>,
    ) -> Self {
        CellLibrary {
            name: name.into(),
            supply_voltage,
            cells,
        }
    }

    /// The open EGT library abstraction (inkjet-printed, ~1 V supply).
    ///
    /// Relative cell sizes follow standard NAND-equivalent gate counts; the
    /// absolute scale (a NAND2 of 0.04 mm², 1.3 µW, 25 µs) is representative of
    /// published EGT figures.
    pub fn egt() -> Self {
        let nand_area = 0.04; // mm²
        let nand_power = 1.3; // µW
        let nand_delay = 25.0; // µs
        let mk = |ge: f64, delay_factor: f64| CellParams {
            area_mm2: nand_area * ge,
            power_uw: nand_power * ge,
            delay_us: nand_delay * delay_factor,
        };
        let mut cells = BTreeMap::new();
        cells.insert(CellKind::Inverter, mk(0.6, 0.6));
        cells.insert(CellKind::Buffer, mk(0.8, 0.9));
        cells.insert(CellKind::Nand2, mk(1.0, 1.0));
        cells.insert(CellKind::Nor2, mk(1.0, 1.1));
        cells.insert(CellKind::And2, mk(1.4, 1.3));
        cells.insert(CellKind::Or2, mk(1.4, 1.3));
        cells.insert(CellKind::Xor2, mk(2.6, 1.8));
        cells.insert(CellKind::Xnor2, mk(2.6, 1.8));
        cells.insert(CellKind::Mux2, mk(2.2, 1.5));
        cells.insert(CellKind::HalfAdder, mk(3.2, 2.0));
        cells.insert(CellKind::FullAdder, mk(4.8, 2.6));
        cells.insert(CellKind::Dff, mk(6.0, 2.2));
        CellLibrary::new("EGT", 1.0, cells)
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nominal supply voltage in volts.
    pub fn supply_voltage(&self) -> f64 {
        self.supply_voltage
    }

    /// Parameters of `kind`, falling back to NAND2-derived estimates when the
    /// library does not define the cell explicitly.
    pub fn params(&self, kind: CellKind) -> CellParams {
        if let Some(&p) = self.cells.get(&kind) {
            return p;
        }
        // Fallback: scale the NAND2 cell by a typical NAND-equivalent factor.
        let base = self
            .cells
            .get(&CellKind::Nand2)
            .copied()
            .unwrap_or(CellParams {
                area_mm2: 0.04,
                power_uw: 1.3,
                delay_us: 25.0,
            });
        let ge = match kind {
            CellKind::Inverter => 0.6,
            CellKind::Buffer => 0.8,
            CellKind::Nand2 | CellKind::Nor2 => 1.0,
            CellKind::And2 | CellKind::Or2 => 1.4,
            CellKind::Xor2 | CellKind::Xnor2 => 2.6,
            CellKind::Mux2 => 2.2,
            CellKind::HalfAdder => 3.2,
            CellKind::FullAdder => 4.8,
            CellKind::Dff => 6.0,
        };
        CellParams {
            area_mm2: base.area_mm2 * ge,
            power_uw: base.power_uw * ge,
            delay_us: base.delay_us * ge,
        }
    }

    /// Iterates over all explicitly defined cells.
    pub fn iter(&self) -> impl Iterator<Item = (&CellKind, &CellParams)> {
        self.cells.iter()
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

    #[test]
    fn fallback_params_are_used_for_missing_cells() {
        let mut cells = BTreeMap::new();
        cells.insert(
            CellKind::Nand2,
            CellParams {
                area_mm2: 0.1,
                power_uw: 2.0,
                delay_us: 10.0,
            },
        );
        let lib = CellLibrary::new("partial", 1.0, cells);
        let fa = lib.params(CellKind::FullAdder);
        assert!((fa.area_mm2 - 0.48).abs() < 1e-9);
        assert!((fa.power_uw - 9.6).abs() < 1e-9);
    }

    #[test]
    fn display_names_match_liberty_style() {
        assert_eq!(CellKind::FullAdder.to_string(), "FA");
        assert_eq!(CellKind::Nand2.to_string(), "NAND2");
    }

    #[test]
    fn default_library_is_egt() {
        assert_eq!(CellLibrary::default().name(), "EGT");
        assert!((CellLibrary::default().supply_voltage() - 1.0).abs() < 1e-12);
    }
}
