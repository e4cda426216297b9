//! Float-exact training golden: the trained weights themselves.
//!
//! The integer-inference goldens pin quantized weight codes and
//! `tests/objectives.rs` pins a campaign's reported numbers; both survive a
//! training change that moves a float weight without moving its rounded
//! code. This suite pins the FNV-1a hash of every `f32::to_bits` (weights,
//! then biases, layer by layer) of two models per dataset:
//!
//! - the Quick-budget baseline at seed 42;
//! - the float model the minimization pipeline returns for one combined
//!   configuration (4-bit weights, sparsity 0.4, 3 clusters per input) on
//!   that baseline, which exercises prune, cluster and QAT fine-tuning.
//!
//! Seeds (7→10→3) is small: no layer fills an 8-wide column panel of the
//! matrix kernel twice. WhiteWine (11→25→5) covers full panels, a
//! zero-padded tail panel and the 5-wide output layer.
//!
//! The Quick baselines (12 epochs, at most 432 Adam steps) and the
//! fine-tunes stop before any Adam moment decays to a subnormal value, so
//! one more constant covers long runs: the full-effort (60-epoch, about
//! 2,160 steps) WhiteWine baseline at seed 42, whose dead hidden units'
//! first moments turn subnormal partway through, where the trainer's
//! per-epoch flush of subnormal moments acts.
//!
//! Any change to initialization, the optimizer, the loss, the batch order,
//! the summation order of the matrix kernel or the fine-tuning constraints
//! fails here. A change that moves the weights on purpose must update the
//! constants and say why.

use printed_mlp::core::baseline::BaselineDesign;
use printed_mlp::core::experiment::Effort;
use printed_mlp::data::UciDataset;
use printed_mlp::minimize::{minimize, MinimizationConfig};
use printed_mlp::nn::Mlp;

const SEED: u64 = 42;

/// Hash of the Quick-budget Seeds baseline at seed 42.
const BASELINE_HASH: u64 = 0x01e0_a62d_ce1c_15f6;

/// Hash of the q4/p0.40/c3 minimized model on that baseline.
const COMBINED_HASH: u64 = 0x13f8_c2ca_5060_0ea9;

/// Hash of the Quick-budget WhiteWine baseline at seed 42.
const WHITEWINE_BASELINE_HASH: u64 = 0x3c90_62ab_6b90_c07e;

/// Hash of the q4/p0.40/c3 minimized model on that baseline.
const WHITEWINE_COMBINED_HASH: u64 = 0xb574_c393_f6e8_d2af;

/// Hash of the full-effort (60-epoch) WhiteWine baseline at seed 42.
const WHITEWINE_FULL_BASELINE_HASH: u64 = 0x14bc_84d8_d4df_f2bd;

/// 64-bit FNV-1a over the little-endian bytes of every parameter's bits.
fn parameter_hash(model: &Mlp) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for layer in model.layers() {
        for value in layer.weights().as_slice().iter().chain(layer.biases()) {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// `(baseline, combined)` hashes of `dataset` at seed 42.
fn trained_hashes(dataset: UciDataset) -> (u64, u64) {
    let baseline = BaselineDesign::train_with(dataset, SEED, &Effort::Quick.baseline_config())
        .expect("quick baseline");
    let config = MinimizationConfig::default()
        .with_weight_bits(4)
        .with_sparsity(0.4)
        .with_clusters(3);
    let minimized = minimize(
        &baseline.model,
        &baseline.train,
        Some(&baseline.test),
        &config,
        SEED,
    )
    .expect("combined minimization");
    (
        parameter_hash(&baseline.model),
        parameter_hash(&minimized.model),
    )
}

#[test]
fn trained_weights_are_bit_identical() {
    let hashes = trained_hashes(UciDataset::Seeds);
    assert_eq!(
        hashes,
        (BASELINE_HASH, COMBINED_HASH),
        "trained float weights moved: (baseline, combined) = ({:#018x}, {:#018x})",
        hashes.0,
        hashes.1
    );
}

#[test]
fn whitewine_trained_weights_are_bit_identical() {
    let hashes = trained_hashes(UciDataset::WhiteWine);
    assert_eq!(
        hashes,
        (WHITEWINE_BASELINE_HASH, WHITEWINE_COMBINED_HASH),
        "trained float weights moved: (baseline, combined) = ({:#018x}, {:#018x})",
        hashes.0,
        hashes.1
    );
}

#[test]
fn full_effort_whitewine_baseline_is_bit_identical() {
    let baseline =
        BaselineDesign::train_with(UciDataset::WhiteWine, SEED, &Effort::Full.baseline_config())
            .expect("full-effort baseline");
    let hash = parameter_hash(&baseline.model);
    assert_eq!(
        hash, WHITEWINE_FULL_BASELINE_HASH,
        "trained float weights moved: baseline = {hash:#018x}"
    );
}
