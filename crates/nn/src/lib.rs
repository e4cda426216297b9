//! # pmlp-nn — from-scratch MLP training substrate
//!
//! This crate implements everything needed to train the small multilayer
//! perceptrons (MLPs) used as printed-electronics classifiers in the DATE 2023
//! paper *Hardware-Aware Automated Neural Minimization for Printed Multilayer
//! Perceptrons*, with the one recipe the pipeline uses: a dense matrix type,
//! Xavier-initialized dense layers (ReLU hidden, identity output), the
//! softmax cross-entropy loss, Adam and a mini-batch trainer.
//!
//! The MLPs in the printed-electronics setting are deliberately tiny (a single
//! hidden layer of a few tens of neurons), so this crate favours clarity and
//! determinism: all tensors are dense row-major `f32` matrices and all
//! randomness flows through caller-provided [`rand::Rng`] instances so that
//! experiments are reproducible. Every candidate the pipeline scores is
//! fine-tuned first, so the training step is the one hot path: it allocates
//! nothing per mini-batch, the backward pass reads its transposed operands
//! in place, and its matrix kernel sums in the textbook order, so trained
//! weights are bit-identical to a naive implementation's. The kernel is
//! compiled three times from one source: for the target's baseline
//! features and, on x86-64, for AVX with the same 8-wide column panels and
//! for AVX-512F with 16-wide ones. Run-time checks pick the widest build
//! the CPU has, and every build gives the same bits.
//!
//! ## Example
//!
//! ```
//! use pmlp_nn::{MlpBuilder, Trainer, TrainConfig, Dataset};
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! # fn main() -> Result<(), pmlp_nn::NnError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! // A tiny two-class problem: points left/right of the y axis.
//! let xs: Vec<Vec<f32>> = (0..200)
//!     .map(|i| vec![if i % 2 == 0 { -1.0 } else { 1.0 } + (i as f32 % 7.0) * 0.01, 0.5])
//!     .collect();
//! let ys: Vec<usize> = (0..200).map(|i| i % 2).collect();
//! let data = Dataset::from_rows(xs, ys, 2)?;
//!
//! let mut mlp = MlpBuilder::new(2)
//!     .hidden(8)
//!     .output(2)
//!     .build(&mut rng)?;
//!
//! let config = TrainConfig { epochs: 20, batch_size: 16, ..TrainConfig::default() };
//! let trainer = Trainer::new(config);
//! trainer.fit(&mut mlp, &data, None, &mut rng)?;
//! let acc = mlp.accuracy(&data);
//! assert!(acc > 0.9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod dataset;
pub mod error;
mod init;
mod kernel;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod mlp;
mod optimizer;
pub mod trainer;

pub use activation::Activation;
pub use dataset::Dataset;
pub use error::NnError;
pub use layer::DenseLayer;
pub use matrix::Matrix;
pub use metrics::accuracy;
pub use mlp::{Mlp, MlpBuilder};
pub use trainer::{TrainConfig, TrainReport, Trainer};
