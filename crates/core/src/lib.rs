//! # pmlp-core — hardware-aware automated neural minimization
//!
//! The paper's contribution: given a trained printed-MLP classifier, search
//! the joint space of quantization bit-width, unstructured sparsity and
//! per-input weight-cluster count for accuracy/area Pareto-optimal bespoke
//! circuits, where the area of every candidate is measured by synthesizing it
//! with the bespoke hardware model of [`pmlp_hw`].
//!
//! Main entry points:
//!
//! * [`engine::EvalEngine`] — the shared, memoizing, parallel evaluation
//!   engine every search, sweep and experiment scores candidates through,
//! * [`baseline::BaselineDesign`] — trains and characterizes the un-minimized
//!   bespoke MLP (Mubarik et al.) every figure is normalized against,
//! * [`objective::evaluate_config`] — the raw (uncached) accuracy + area
//!   measurement of a single
//!   [`MinimizationConfig`](pmlp_minimize::MinimizationConfig),
//! * [`sweep`] — the standalone technique sweeps of Fig. 1,
//! * [`nsga2::Nsga2`] — the hardware-aware genetic algorithm of Fig. 2,
//! * [`experiment`] — drivers that regenerate every figure/table of the paper,
//! * [`campaign::Campaign`] — the cross-dataset reproduction campaign that
//!   fans the whole dataset registry out over the worker pool,
//! * [`store::EvalStore`] — the persistent, crash-safe evaluation store that
//!   carries cached evaluations across processes (and with them, resumable
//!   searches),
//! * [`pareto`] / [`report`] — Pareto-front utilities and result tables.
//!
//! ## Example
//!
//! ```no_run
//! use pmlp_core::engine::{EvalEngine, Evaluator};
//! use pmlp_data::UciDataset;
//! use pmlp_minimize::MinimizationConfig;
//!
//! # fn main() -> Result<(), pmlp_core::CoreError> {
//! let engine = EvalEngine::train(UciDataset::Seeds, 42)?;
//! let point = engine.evaluate(&MinimizationConfig::default().with_weight_bits(4))?;
//! println!("area gain {:.2}x at {:.1}% accuracy", point.area_gain(), point.accuracy * 100.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod bridge;
pub mod campaign;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod genome;
pub mod nsga2;
pub mod objective;
pub mod pareto;
pub mod report;
pub mod store;
pub mod sweep;

pub use baseline::{baseline_doc_name, BaselineConfig, BaselineDesign};
pub use campaign::{Campaign, CampaignConfig, CampaignResult, CampaignRunStats, DatasetReport};
pub use engine::{EngineStats, EvalEngine, EvalKey, EvalProgress, Evaluator, FinalizedDesign};
pub use error::CoreError;
pub use genome::Genome;
pub use nsga2::{Nsga2, Nsga2Config};
pub use objective::{
    evaluate_config, AccuracyTier, DesignMetrics, DesignPoint, EvaluationContext, ObjectiveKind,
    ObjectiveSpace,
};
pub use pareto::{area_gain_at_accuracy_loss, hypervolume, pareto_front, pareto_front_in};
pub use report::{render_campaign_table, FigureSeries, HeadlineRow, TechniqueSummary};
pub use store::{EvalRecord, EvalStore};
