//! # pmlp-minimize — neural minimization for bespoke printed MLPs
//!
//! Implementations of the three minimization techniques evaluated by the
//! paper, each as an independent module plus a combined pipeline:
//!
//! * [`quantize`] — symmetric uniform weight quantization (post-training) and
//!   the integer/ scale decomposition handed to the hardware model,
//! * [`qat`] — quantization-aware (re)training with a straight-through
//!   estimator, the software equivalent of the paper's QKeras flow,
//! * [`prune`] — unstructured magnitude pruning with mask-preserving
//!   fine-tuning,
//! * [`cluster`] — per-input-position weight clustering (Deep-Compression
//!   style) that enables multiplier sharing in bespoke circuits,
//! * [`config`] / [`apply`] — a joint [`MinimizationConfig`] combining all
//!   three techniques and the staged pipeline that applies it to a trained
//!   MLP; each stage seeds its own RNG from its prefix configuration, so a
//!   [`StageMemo`] can share prune and cluster stages between configurations.
//!
//! ## Example
//!
//! ```
//! use pmlp_minimize::{MinimizationConfig, apply::minimize};
//! use pmlp_nn::{MlpBuilder, Dataset, Trainer, TrainConfig};
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! // Tiny separable dataset.
//! let xs: Vec<Vec<f32>> = (0..100)
//!     .map(|i| vec![(i % 2) as f32, ((i / 2) % 5) as f32 / 5.0])
//!     .collect();
//! let ys: Vec<usize> = (0..100).map(|i| i % 2).collect();
//! let data = Dataset::from_rows(xs, ys, 2)?;
//!
//! let mut mlp = MlpBuilder::new(2).hidden(4).output(2).build(&mut rng)?;
//! Trainer::new(TrainConfig { epochs: 10, ..TrainConfig::default() }).fit(&mut mlp, &data, None, &mut rng)?;
//!
//! let config = MinimizationConfig::default().with_weight_bits(4).with_sparsity(0.3);
//! let minimized = minimize(&mlp, &data, None, &config, 7)?;
//! assert!(minimized.model.sparsity() >= 0.25);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apply;
pub mod cluster;
pub mod config;
pub mod error;
pub mod prune;
pub mod qat;
pub mod quantize;

pub use apply::{minimize, minimize_with, MinimizedModel, StageMemo, StageOutput, Uncached};
pub use cluster::{ClusterAssignment, ClusteringConfig};
pub use config::{sparsity_millis, MinimizationConfig};
pub use error::MinimizeError;
pub use prune::PruningMask;
pub use qat::QatConfig;
pub use quantize::{IntegerLayer, QuantizationConfig, QuantizedMlp};
