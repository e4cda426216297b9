//! Area, power and timing report structures, and the per-kind cell counts
//! both the netlist walk and the fast-path cost model build them from.

use crate::cell::{CellKind, CellLibrary, KIND_COUNT};
use crate::report::SynthesisReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Per-[`CellKind`] propagation delays of `library`, indexed by discriminant
/// order.
pub(crate) fn cell_delays(library: &CellLibrary) -> [f64; KIND_COUNT] {
    CellKind::all().map(|kind| library.params(kind).delay_us)
}

/// Per-[`CellKind`] instance counts, indexed by discriminant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CellCounts([usize; KIND_COUNT]);

impl CellCounts {
    #[inline]
    pub(crate) fn bump(&mut self, kind: CellKind) {
        self.0[kind as usize] += 1;
    }

    /// The synthesis report of design `design_name`: these cells under
    /// `library`, with a longest combinational path of `critical_path_us`.
    pub(crate) fn report(
        &self,
        design_name: &str,
        library: &CellLibrary,
        critical_path_us: f64,
    ) -> SynthesisReport {
        let (area_by_kind, total_mm2) = self.report_map(|kind| library.params(kind).area_mm2);
        let (power_by_kind, total_uw) = self.report_map(|kind| library.params(kind).power_uw);
        SynthesisReport {
            design_name: design_name.to_string(),
            library_name: library.name().to_string(),
            area: AreaReport {
                total_mm2,
                gate_count: self.0.iter().sum(),
                by_kind: area_by_kind,
            },
            power: PowerReport {
                total_uw,
                by_kind: power_by_kind,
            },
            timing: TimingReport::from_critical_path(critical_path_us),
        }
    }

    /// Per-kind `(count, count * per_cell)` map, skipping absent kinds, and
    /// its total. The total sums in [`CellKind`] order, so every caller gets
    /// the same floating-point result bit for bit.
    fn report_map(
        &self,
        per_cell: impl Fn(CellKind) -> f64,
    ) -> (BTreeMap<CellKind, (usize, f64)>, f64) {
        let mut by_kind = BTreeMap::new();
        let mut total = 0.0;
        for kind in CellKind::all() {
            let count = self.0[kind as usize];
            if count == 0 {
                continue;
            }
            let value = per_cell(kind) * count as f64;
            by_kind.insert(kind, (count, value));
            total += value;
        }
        (by_kind, total)
    }
}

/// Cell-area breakdown of a netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AreaReport {
    /// Total cell area in mm².
    pub total_mm2: f64,
    /// Total number of gates.
    pub gate_count: usize,
    /// Per-cell-kind `(instance count, area mm²)`.
    pub by_kind: BTreeMap<CellKind, (usize, f64)>,
}

/// Static-power breakdown of a netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PowerReport {
    /// Total static power in µW.
    pub total_uw: f64,
    /// Per-cell-kind `(instance count, power µW)`.
    pub by_kind: BTreeMap<CellKind, (usize, f64)>,
}

/// Critical-path timing of a netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Longest combinational path in µs.
    pub critical_path_us: f64,
    /// Corresponding maximum operating frequency in Hz (infinite for an empty
    /// netlist).
    pub max_frequency_hz: f64,
}

impl TimingReport {
    /// The timing report of a circuit whose longest combinational path takes
    /// `critical_path_us`.
    pub(crate) fn from_critical_path(critical_path_us: f64) -> Self {
        TimingReport {
            critical_path_us,
            max_frequency_hz: if critical_path_us > 0.0 {
                1e6 / critical_path_us
            } else {
                f64::INFINITY
            },
        }
    }
}

impl Default for TimingReport {
    fn default() -> Self {
        TimingReport::from_critical_path(0.0)
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total area: {:.4} mm2 ({} gates)",
            self.total_mm2, self.gate_count
        )?;
        for (kind, (count, area)) in &self.by_kind {
            writeln!(f, "  {kind:<6} x{count:<6} {area:.4} mm2")?;
        }
        Ok(())
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total static power: {:.3} uW", self.total_uw)?;
        for (kind, (count, power)) in &self.by_kind {
            writeln!(f, "  {kind:<6} x{count:<6} {power:.3} uW")?;
        }
        Ok(())
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "critical path: {:.1} us", self.critical_path_us)?;
        if self.max_frequency_hz.is_finite() {
            writeln!(f, "max frequency: {:.1} Hz", self.max_frequency_hz)
        } else {
            writeln!(f, "max frequency: unbounded (no combinational path)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reports_are_empty() {
        assert_eq!(AreaReport::default().total_mm2, 0.0);
        assert_eq!(PowerReport::default().total_uw, 0.0);
        assert!(TimingReport::default().max_frequency_hz.is_infinite());
    }

    #[test]
    fn display_contains_totals() {
        let mut by_kind = BTreeMap::new();
        by_kind.insert(CellKind::FullAdder, (3usize, 0.576));
        let area = AreaReport {
            total_mm2: 0.576,
            gate_count: 3,
            by_kind,
        };
        let text = area.to_string();
        assert!(text.contains("0.576"));
        assert!(text.contains("FA"));

        let timing = TimingReport {
            critical_path_us: 100.0,
            max_frequency_hz: 10_000.0,
        };
        assert!(timing.to_string().contains("100.0"));
    }
}
