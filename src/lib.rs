//! # printed-mlp — hardware-aware automated neural minimization for printed MLPs
//!
//! Umbrella crate of the DATE 2023 reproduction: re-exports the full stack so
//! applications can depend on a single crate.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`nn`] | `pmlp-nn` | from-scratch MLP training (ReLU layers, softmax cross-entropy, Adam, trainer) |
//! | [`data`] | `pmlp-data` | synthetic UCI-equivalent datasets + CSV loader |
//! | [`hw`] | `pmlp-hw` | bespoke printed-electronics hardware model (EGT cells, CSD multipliers, netlists, area/power/delay) |
//! | [`minimize`] | `pmlp-minimize` | quantization/QAT, pruning, weight clustering |
//! | [`core`] | `pmlp-core` | hardware-aware NSGA-II search, sweeps, Pareto fronts, experiment drivers, cross-dataset campaigns |
//! | [`serve`] | `pmlp-serve` | networked evaluation-cache server (HTTP tier over the store wire format) |
//!
//! ## Quickstart
//!
//! This is the `examples/quickstart.rs` flow as a runnable doc-test (reduced
//! training budget so `cargo test` stays fast; the example uses the paper
//! budget):
//!
//! ```
//! use printed_mlp::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Train the bespoke Seeds baseline and wrap it in the evaluation engine.
//! let budget = BaselineConfig { epochs: 8, ..BaselineConfig::default() };
//! let engine = EvalEngine::train_with(UciDataset::Seeds, 42, &budget)?
//!     .with_fine_tune_epochs(1);
//!
//! // Measure what 4-bit quantization buys in circuit area.
//! let point = engine.evaluate(&MinimizationConfig::default().with_weight_bits(4))?;
//! assert!(point.area_gain() > 1.0, "4-bit designs are smaller than the 8-bit baseline");
//!
//! // A second request for the same configuration is answered from the cache.
//! let again = engine.evaluate(&point.config)?;
//! assert_eq!(again, point);
//! assert_eq!(engine.stats().hits, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Re-export of the search / experiment layer (`pmlp-core`).
pub use pmlp_core as core;
/// Re-export of the dataset substrate (`pmlp-data`).
pub use pmlp_data as data;
/// Re-export of the bespoke hardware model (`pmlp-hw`).
pub use pmlp_hw as hw;
/// Re-export of the minimization techniques (`pmlp-minimize`).
pub use pmlp_minimize as minimize;
/// Re-export of the neural-network substrate (`pmlp-nn`).
pub use pmlp_nn as nn;
/// Re-export of the networked evaluation-cache server (`pmlp-serve`).
pub use pmlp_serve as serve;

/// Commonly used items, importable with `use printed_mlp::prelude::*`.
pub mod prelude {
    pub use pmlp_core::baseline::{BaselineConfig, BaselineDesign};
    pub use pmlp_core::campaign::{Campaign, CampaignConfig, CampaignResult, DatasetReport};
    pub use pmlp_core::engine::{EvalEngine, Evaluator};
    pub use pmlp_core::experiment::{Effort, Figure1Experiment, Figure2Experiment};
    pub use pmlp_core::objective::{evaluate_config, DesignPoint, EvaluationContext};
    pub use pmlp_core::report::render_campaign_table;
    pub use pmlp_core::{Nsga2, Nsga2Config};
    pub use pmlp_data::{load, UciDataset};
    pub use pmlp_hw::{BespokeMlpCircuit, CellLibrary, CircuitSpec};
    pub use pmlp_minimize::MinimizationConfig;
    pub use pmlp_nn::{Activation, Dataset, Mlp, MlpBuilder, TrainConfig, Trainer};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        // Compile-time check that the re-exports resolve.
        let _config = MinimizationConfig::default();
        let _lib = CellLibrary::egt();
        let _train = TrainConfig::default();
        let _dataset = UciDataset::Seeds;
    }
}
