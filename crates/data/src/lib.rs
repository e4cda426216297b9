//! # pmlp-data — datasets for printed-MLP classification
//!
//! The DATE 2023 paper evaluates its minimization techniques on a battery of
//! small UCI classification tasks. This crate registers the full battery —
//! **WhiteWine**, **RedWine**, **Pendigits** and **Seeds** (the Fig. 1
//! subplots) plus **Arrhythmia**, **Balance**, **BreastCancer**, **Cardio**,
//! **GasId**, **Vertebral**, **Mammographic** and **Har** — as
//! [`UciDataset`] registry entries. This environment has no network access,
//! so every entry ships a deterministic *synthetic equivalent*: a seeded
//! Gaussian-mixture generator that reproduces the dataset's dimensionality,
//! class count, class imbalance and approximate difficulty (via controlled
//! class overlap). [`csv::parse_csv`] parses the real UCI files into a
//! [`Dataset`], but only as a library function: every experiment trains on
//! the synthetic stand-in, and no binary reads a CSV.
//!
//! The substitution is described in the `pmlp-data` section of
//! `docs/ARCHITECTURE.md`; every generator is seeded so experiments are
//! exactly reproducible.
//!
//! ## Example
//!
//! ```
//! use pmlp_data::{UciDataset, load};
//!
//! # fn main() -> Result<(), pmlp_data::DataError> {
//! let seeds = load(UciDataset::Seeds, 42)?;
//! assert_eq!(seeds.feature_count(), 7);
//! assert_eq!(seeds.class_count(), 3);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub mod error;
pub mod preprocess;
pub mod synth;
pub mod uci;

pub use error::DataError;
pub use pmlp_nn::Dataset;
pub use preprocess::quantize_features;
pub use synth::{ClassSpec, GaussianMixtureSpec};
pub use uci::{load, DatasetDescriptor, UciDataset};
