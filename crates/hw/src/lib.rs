//! # pmlp-hw — bespoke printed-electronics hardware model
//!
//! This crate replaces the Synopsys Design Compiler + PrimeTime + EGT
//! cell-library flow used by the paper with an architectural synthesis and
//! estimation engine for *bespoke* MLP circuits:
//!
//! * [`cell`] — an Electrolyte-Gated Transistor (EGT) standard-cell library
//!   with per-cell area, static power and delay,
//! * [`fixed`] — fixed-point weight/input formats,
//! * [`csd`] — canonical-signed-digit recoding of hard-wired coefficients,
//! * [`constmul`] — shift-add synthesis of constant-coefficient multipliers,
//! * [`cost`] — the analytic fast-path cost model: area/power/timing of the
//!   circuit the builders describe, tallied without building a netlist,
//! * [`adder`] — ripple-carry adders and balanced adder trees,
//! * [`netlist`] — a gate-level netlist with area/power/critical-path
//!   analysis, and the [`GateSink`] trait every circuit builder writes to,
//! * [`neuron`] / [`circuit`] — bespoke neurons and whole-MLP circuits,
//!   including multiplier sharing for clustered weights,
//! * [`intinfer`] — a pure-integer inference engine, bit-identical to
//!   gate-level netlist simulation, for scoring candidate accuracy on the
//!   exact arithmetic the printed circuit performs,
//! * [`analysis`] / [`report`] — synthesis-style reports.
//!
//! In a bespoke implementation every weight is a hard-wired constant, so the
//! area of a neuron is dominated by (a) how many weights are non-zero
//! (pruning), (b) how many non-zero *digits* each weight has at the chosen
//! precision (quantization) and (c) how many distinct products per input have
//! to be computed (weight clustering / multiplier sharing). Those are exactly
//! the effects the paper's three minimization techniques exploit.
//!
//! ## Example
//!
//! ```
//! use pmlp_hw::{CircuitSpec, LayerSpec, HwActivation, CellLibrary, BespokeMlpCircuit};
//!
//! # fn main() -> Result<(), pmlp_hw::HwError> {
//! // A 2-input, 2-neuron single-layer classifier with 4-bit weights.
//! let spec = CircuitSpec::new(
//!     4,
//!     vec![LayerSpec::new(
//!         vec![vec![3, -2], vec![0, 5]],
//!         4,
//!         HwActivation::Argmax,
//!     )?],
//! )?;
//! let circuit = BespokeMlpCircuit::synthesize(&spec, &CellLibrary::egt())?;
//! assert!(circuit.area().total_mm2 > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adder;
pub mod analysis;
pub mod cell;
pub mod circuit;
pub mod constmul;
pub mod cost;
pub mod csd;
pub mod error;
pub mod fixed;
pub mod intinfer;
pub mod netlist;
pub mod neuron;
pub mod report;
pub mod verilog;

pub use analysis::{AreaReport, PowerReport, TimingReport};
pub use cell::{CellKind, CellLibrary, CellParams};
pub use circuit::{BespokeMlpCircuit, CircuitSpec, HwActivation, LayerSpec, SharingStrategy};
pub use cost::{estimate_circuit, multiplier_cache_stats, CostCacheStats};
pub use csd::CsdDigits;
pub use error::HwError;
pub use fixed::FixedPointFormat;
pub use intinfer::{quantize_rows, IntInferEngine};
pub use netlist::{Gate, GateSink, Netlist};
pub use neuron::NeuronCircuit;
pub use report::SynthesisReport;
pub use verilog::{to_verilog, VerilogOptions};
