//! Glue between the software model (`pmlp-minimize` integer layers) and the
//! bespoke hardware model (`pmlp-hw` circuit specs).

use crate::error::CoreError;
use pmlp_hw::{
    BespokeMlpCircuit, CellLibrary, CircuitSpec, HwActivation, LayerSpec, SharingStrategy,
    SynthesisReport,
};
use pmlp_minimize::IntegerLayer;
use serde::{Deserialize, Serialize};

/// Builds a [`CircuitSpec`] from the integer layers produced by the
/// minimization pipeline.
///
/// Hidden layers map to ReLU hardware activations and the output layer to an
/// argmax comparator tree, mirroring the bespoke classifier architecture of
/// Mubarik et al.
///
/// # Errors
///
/// Returns [`CoreError::Hw`] when the integer layers are structurally
/// inconsistent (e.g. empty).
pub fn circuit_spec_from_layers(
    layers: &[IntegerLayer],
    input_bits: u8,
) -> Result<CircuitSpec, CoreError> {
    if layers.is_empty() {
        return Err(CoreError::InvalidConfig {
            context: "no layers to synthesize".into(),
        });
    }
    let last = layers.len() - 1;
    let mut hw_layers = Vec::with_capacity(layers.len());
    for (i, layer) in layers.iter().enumerate() {
        let activation = if i == last {
            HwActivation::Argmax
        } else {
            HwActivation::ReLU
        };
        // The codes may exceed the nominal bit-width after clustering snaps
        // values between grid points; derive the width from the actual codes.
        let max_code = layer
            .codes
            .iter()
            .flatten()
            .map(|c| c.unsigned_abs())
            .max()
            .unwrap_or(0);
        let needed_bits = (64 - max_code.leading_zeros() as u8 + 1)
            .max(layer.weight_bits)
            .min(24);
        let spec = LayerSpec::with_biases(
            layer.codes.clone(),
            layer.bias_codes.clone(),
            needed_bits,
            activation,
        )
        .map_err(CoreError::from)?;
        hw_layers.push(spec);
    }
    CircuitSpec::new(input_bits, hw_layers).map_err(CoreError::from)
}

/// Synthesizes the bespoke circuit for a set of integer layers and returns its
/// total cell area in mm².
///
/// `sharing` should be [`SharingStrategy::SharedPerInput`] when the model was
/// weight-clustered (the paper's multiplier-sharing architecture) and
/// [`SharingStrategy::None`] otherwise.
///
/// # Errors
///
/// Propagates [`CoreError::Hw`] from synthesis.
pub fn synthesize_area(
    layers: &[IntegerLayer],
    input_bits: u8,
    library: &CellLibrary,
    sharing: SharingStrategy,
) -> Result<SynthesisSummary, CoreError> {
    let spec = circuit_spec_from_layers(layers, input_bits)?;
    let circuit =
        BespokeMlpCircuit::synthesize_with(&spec, library, sharing).map_err(CoreError::from)?;
    Ok(SynthesisSummary::of(&circuit.report()))
}

/// Fast-path counterpart of [`synthesize_area`]: the same
/// [`SynthesisSummary`] numbers computed through the analytic cost model
/// ([`pmlp_hw::cost::estimate_circuit`]) without materializing a netlist.
///
/// The cost model tallies the gates of the same circuit builder, so the
/// summary is bit-for-bit identical to the full path — the equivalence suite
/// asserts exact equality. Search loops evaluate through this; Pareto-front
/// finalists and the baseline run [`synthesize_area`] for a verifiable
/// netlist.
///
/// # Errors
///
/// Propagates [`CoreError::Hw`] from spec validation.
pub fn estimate_area(
    layers: &[IntegerLayer],
    input_bits: u8,
    library: &CellLibrary,
    sharing: SharingStrategy,
) -> Result<SynthesisSummary, CoreError> {
    let spec = circuit_spec_from_layers(layers, input_bits)?;
    let report =
        pmlp_hw::cost::estimate_circuit(&spec, library, sharing).map_err(CoreError::from)?;
    Ok(SynthesisSummary::of(&report))
}

/// Compact synthesis result used by the search objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthesisSummary {
    /// Total cell area in mm².
    pub area_mm2: f64,
    /// Total static power in µW.
    pub power_uw: f64,
    /// Critical path in µs.
    pub critical_path_us: f64,
    /// Total gate count.
    pub gate_count: usize,
}

impl SynthesisSummary {
    fn of(report: &SynthesisReport) -> Self {
        SynthesisSummary {
            area_mm2: report.area.total_mm2,
            power_uw: report.power.total_uw,
            critical_path_us: report.timing.critical_path_us,
            gate_count: report.area.gate_count,
        }
    }

    /// Energy per inference in pJ: static power (µW) × critical path (µs).
    /// Like every other field, bit-identical between the fast path and full
    /// synthesis (both factors are).
    pub fn energy_pj(&self) -> f64 {
        self.power_uw * self.critical_path_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers() -> Vec<IntegerLayer> {
        vec![
            IntegerLayer {
                codes: vec![vec![3, -2, 0], vec![1, 4, -5]],
                bias_codes: vec![0, 2],
                scale: 0.1,
                weight_bits: 4,
            },
            IntegerLayer {
                codes: vec![vec![2, -1], vec![-3, 1]],
                bias_codes: vec![0, 0],
                scale: 0.2,
                weight_bits: 4,
            },
        ]
    }

    #[test]
    fn builds_spec_with_relu_hidden_and_argmax_output() {
        let spec = circuit_spec_from_layers(&layers(), 4).unwrap();
        assert_eq!(spec.layers.len(), 2);
        assert_eq!(spec.layers[0].activation, HwActivation::ReLU);
        assert_eq!(spec.layers[1].activation, HwActivation::Argmax);
        assert_eq!(spec.input_count(), 3);
        assert_eq!(spec.output_count(), 2);
    }

    #[test]
    fn empty_layer_list_is_rejected() {
        assert!(circuit_spec_from_layers(&[], 4).is_err());
    }

    #[test]
    fn synthesize_area_returns_positive_numbers() {
        let summary =
            synthesize_area(&layers(), 4, &CellLibrary::egt(), SharingStrategy::None).unwrap();
        assert!(summary.area_mm2 > 0.0);
        assert!(summary.power_uw > 0.0);
        assert!(summary.critical_path_us > 0.0);
        assert!(summary.gate_count > 0);
    }

    #[test]
    fn codes_wider_than_nominal_bits_are_accepted() {
        // Clustering can move a code slightly outside the nominal grid; the
        // bridge widens the declared bit-width instead of failing.
        let wide = vec![IntegerLayer {
            codes: vec![vec![9, -12]],
            bias_codes: vec![0],
            scale: 0.05,
            weight_bits: 4,
        }];
        let spec = circuit_spec_from_layers(&wide, 4).unwrap();
        assert!(spec.layers[0].weight_bits >= 5);
    }

    #[test]
    fn estimate_area_matches_full_synthesis_exactly() {
        let lib = CellLibrary::egt();
        for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
            let full = synthesize_area(&layers(), 4, &lib, sharing).unwrap();
            let fast = estimate_area(&layers(), 4, &lib, sharing).unwrap();
            assert_eq!(fast, full, "{sharing:?}");
            // Delay (and hence derived energy) rides on the same guarantee.
            assert_eq!(fast.critical_path_us, full.critical_path_us);
            assert_eq!(fast.energy_pj(), full.energy_pj());
            assert!(fast.energy_pj() > 0.0);
        }
    }

    #[test]
    fn sharing_never_increases_area() {
        // Fully clustered codes: sharing must help (or at worst tie).
        let clustered = vec![IntegerLayer {
            codes: vec![vec![5, -3, 6]; 8],
            bias_codes: vec![0; 8],
            scale: 0.1,
            weight_bits: 4,
        }];
        let lib = CellLibrary::egt();
        let unshared = synthesize_area(&clustered, 4, &lib, SharingStrategy::None).unwrap();
        let shared = synthesize_area(&clustered, 4, &lib, SharingStrategy::SharedPerInput).unwrap();
        assert!(shared.area_mm2 <= unshared.area_mm2);
        assert!(
            shared.area_mm2 < unshared.area_mm2 * 0.8,
            "sharing saved too little"
        );
    }
}
