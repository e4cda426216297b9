//! Pure-integer fixed-point inference for bespoke MLP circuits.
//!
//! The search loop scores thousands of candidate networks per second, and the
//! artifact whose accuracy actually matters is the *circuit* — not the float
//! model it was distilled from. This module evaluates a [`CircuitSpec`] (the
//! same integer weights/biases the netlist hard-wires) with plain integer
//! arithmetic, bit-identical to [`crate::circuit::BespokeMlpCircuit`] →
//! [`crate::netlist::Netlist::simulate`], at millions of rows per second:
//!
//! * no floats anywhere — inputs are the unsigned `input_bits`-wide grid
//!   values the circuit's primary inputs carry, sums are exact integers;
//! * row-blocked accumulate kernels, run serially (parallelism lives above
//!   them, over candidates);
//! * a narrow **i32** kernel is selected automatically when the worst-case
//!   accumulator bound fits, falling back to an **i64** kernel otherwise
//!   (the bound is over magnitudes, so every partial sum is covered too);
//! * an optional per-input product codebook mirroring
//!   [`SharingStrategy::SharedPerInput`]: each distinct `(input, weight)`
//!   product is computed once per row, exactly like the shared multipliers
//!   in the synthesized netlist.
//!
//! ## Why this is bit-identical to the netlist
//!
//! The gate-level adders never overflow: `add`/`sub` widen their result by
//! one bit and the balanced adder tree grows as needed, so the netlist
//! computes the exact integer dot product `Σ wᵢ·uᵢ + bias`. ReLU masks the
//! sum to `max(0, s)` and the argmax comparator tree resolves ties to the
//! *lowest* index — the same recurrence this module evaluates. Sharing
//! changes circuit *structure*, never arithmetic. The differential
//! battery (`intinfer_vs_netlist` proptests plus the golden-vector corpus)
//! holds the two implementations together.
//!
//! ## Example
//!
//! ```
//! use pmlp_hw::{CircuitSpec, LayerSpec, HwActivation, IntInferEngine};
//!
//! # fn main() -> Result<(), pmlp_hw::HwError> {
//! let spec = CircuitSpec::new(
//!     4,
//!     vec![LayerSpec::new(
//!         vec![vec![3, -2], vec![0, 5]],
//!         4,
//!         HwActivation::Argmax,
//!     )?],
//! )?;
//! let engine = IntInferEngine::from_spec(&spec)?;
//! assert_eq!(engine.classify_row(&[1, 7]), 1); // 3·1-2·7 = -11  vs  5·7 = 35
//! # Ok(())
//! # }
//! ```

use crate::circuit::{CircuitSpec, HwActivation, SharingStrategy};
use crate::error::HwError;
use std::collections::BTreeMap;

/// Number of classification rows scored per scratch allocation.
const ROW_BLOCK: usize = 1024;

/// Quantizes min-max-normalized features (each in `[0, 1]`) onto the
/// circuit's unsigned input grid: `u = round(x · (2^input_bits − 1))`,
/// clamped to the grid. This is exactly the grid
/// `pmlp_data`'s `quantize_features` snaps to, so a float model scored on
/// quantized features and this engine consume identical points.
///
/// The returned rows are flattened sample-major (`features.len()` values).
///
/// # Errors
///
/// Returns [`HwError::InvalidBitWidth`] when `input_bits` is outside
/// `1..=16`.
pub fn quantize_rows(features: &[f32], input_bits: u8) -> Result<Vec<u16>, HwError> {
    if input_bits == 0 || input_bits > 16 {
        return Err(HwError::InvalidBitWidth {
            context: format!("input_bits must be in 1..=16, got {input_bits}"),
        });
    }
    let levels = ((1_u32 << input_bits) - 1) as f32;
    Ok(features
        .iter()
        .map(|&x| (x * levels).round().clamp(0.0, levels) as u16)
        .collect())
}

/// The integer type an accumulate kernel runs in.
trait Cell: Copy + Send + Sync + 'static {
    fn from_i64(v: i64) -> Self;
    fn to_i64(self) -> i64;
    fn from_input(v: u16) -> Self;
    fn mac(acc: Self, w: Self, x: Self) -> Self;
    fn mul(a: Self, b: Self) -> Self;
    fn add(a: Self, b: Self) -> Self;
    fn relu(v: Self) -> Self;
}

macro_rules! impl_cell {
    ($t:ty) => {
        impl Cell for $t {
            #[inline(always)]
            fn from_i64(v: i64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_i64(self) -> i64 {
                self as i64
            }
            #[inline(always)]
            fn from_input(v: u16) -> Self {
                v as $t
            }
            #[inline(always)]
            fn mac(acc: Self, w: Self, x: Self) -> Self {
                acc + w * x
            }
            #[inline(always)]
            fn mul(a: Self, b: Self) -> Self {
                a * b
            }
            #[inline(always)]
            fn add(a: Self, b: Self) -> Self {
                a + b
            }
            #[inline(always)]
            fn relu(v: Self) -> Self {
                if v < 0 {
                    0
                } else {
                    v
                }
            }
        }
    };
}

impl_cell!(i32);
impl_cell!(i64);

/// Per-input product codebook for the shared kernel: each distinct
/// `(input, weight)` pair becomes one product *slot*, computed once per row
/// and summed into every subscribing neuron — the software mirror of the
/// netlist's shared multipliers.
struct Codebook<T> {
    /// `(input index, weight code)` per slot.
    slots: Vec<(u32, T)>,
    /// Concatenated slot indices, neuron-major.
    terms: Vec<u32>,
    /// Per neuron: `[start, end)` range into `terms`.
    term_ranges: Vec<(u32, u32)>,
}

/// One fully-connected layer, pre-lowered into kernel form.
struct Layer<T> {
    neurons: usize,
    inputs: usize,
    /// Dense row-major weights (`neurons × inputs`); unused when `shared`
    /// is present.
    weights: Vec<T>,
    biases: Vec<T>,
    relu: bool,
    shared: Option<Codebook<T>>,
}

impl<T: Cell> Layer<T> {
    /// Evaluates the layer: `acts_in` (`inputs` values) → `acts_out`
    /// (`neurons` values, pre-sized by the caller). `products` is shared
    /// scratch for the codebook kernel.
    fn forward(&self, acts_in: &[T], acts_out: &mut [T], products: &mut Vec<T>) {
        match &self.shared {
            None => {
                for (n, out) in acts_out.iter_mut().enumerate() {
                    let row = &self.weights[n * self.inputs..(n + 1) * self.inputs];
                    let mut acc = self.biases[n];
                    for (&w, &x) in row.iter().zip(acts_in.iter()) {
                        acc = T::mac(acc, w, x);
                    }
                    *out = if self.relu { T::relu(acc) } else { acc };
                }
            }
            Some(book) => {
                products.clear();
                products.extend(
                    book.slots
                        .iter()
                        .map(|&(i, code)| T::mul(acts_in[i as usize], code)),
                );
                for (n, out) in acts_out.iter_mut().enumerate() {
                    let (start, end) = book.term_ranges[n];
                    let mut acc = self.biases[n];
                    for &slot in &book.terms[start as usize..end as usize] {
                        acc = T::add(acc, products[slot as usize]);
                    }
                    *out = if self.relu { T::relu(acc) } else { acc };
                }
            }
        }
    }
}

/// A lowered network plus the scratch sizing its kernels need.
struct Network<T> {
    layers: Vec<Layer<T>>,
    /// Widest activation vector (inputs or any layer's neuron count).
    max_width: usize,
    /// Largest codebook slot count across layers (0 when sharing is off).
    max_slots: usize,
}

impl<T: Cell> Network<T> {
    fn lower(spec: &CircuitSpec, sharing: SharingStrategy) -> Self {
        let mut layers = Vec::with_capacity(spec.layers.len());
        let mut max_width = spec.input_count();
        let mut max_slots = 0;
        for layer in &spec.layers {
            max_width = max_width.max(layer.neuron_count());
            let shared = match sharing {
                SharingStrategy::None => None,
                SharingStrategy::SharedPerInput => {
                    let book = build_codebook::<T>(&layer.weights);
                    max_slots = max_slots.max(book.slots.len());
                    Some(book)
                }
            };
            layers.push(Layer {
                neurons: layer.neuron_count(),
                inputs: layer.input_count(),
                weights: match shared {
                    // The dense matrix is dead weight once the codebook owns
                    // the products.
                    Some(_) => Vec::new(),
                    None => layer
                        .weights
                        .iter()
                        .flatten()
                        .map(|&w| T::from_i64(w))
                        .collect(),
                },
                biases: layer.biases.iter().map(|&b| T::from_i64(b)).collect(),
                relu: layer.activation == HwActivation::ReLU,
                shared,
            });
        }
        Network {
            layers,
            max_width,
            max_slots,
        }
    }

    /// Runs the whole network for one row into `scratch`, leaving the final
    /// layer's activations in the returned slice.
    fn forward<'s>(&self, row: &[u16], scratch: &'s mut Scratch<T>) -> &'s [T] {
        let Scratch { a, b, products } = scratch;
        a.clear();
        a.extend(row.iter().map(|&v| T::from_input(v)));
        for layer in &self.layers {
            b.clear();
            b.resize(layer.neurons, T::from_i64(0));
            layer.forward(a, b, products);
            std::mem::swap(a, b);
        }
        a
    }
}

/// Reusable per-worker buffers: two activation ping-pong vectors plus the
/// codebook product scratch.
struct Scratch<T> {
    a: Vec<T>,
    b: Vec<T>,
    products: Vec<T>,
}

impl<T: Cell> Scratch<T> {
    fn for_network(net: &Network<T>) -> Self {
        Scratch {
            a: Vec::with_capacity(net.max_width),
            b: Vec::with_capacity(net.max_width),
            products: Vec::with_capacity(net.max_slots),
        }
    }
}

fn build_codebook<T: Cell>(weights: &[Vec<i64>]) -> Codebook<T> {
    let mut slot_of: BTreeMap<(usize, i64), u32> = BTreeMap::new();
    let mut slots: Vec<(u32, T)> = Vec::new();
    let mut terms: Vec<u32> = Vec::new();
    let mut term_ranges = Vec::with_capacity(weights.len());
    for row in weights {
        let start = terms.len() as u32;
        for (i, &w) in row.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let slot = *slot_of.entry((i, w)).or_insert_with(|| {
                slots.push((i as u32, T::from_i64(w)));
                (slots.len() - 1) as u32
            });
            terms.push(slot);
        }
        term_ranges.push((start, terms.len() as u32));
    }
    Codebook {
        slots,
        terms,
        term_ranges,
    }
}

enum Plan {
    Narrow(Network<i32>),
    Wide(Network<i64>),
}

/// A pure-integer inference engine for a bespoke MLP circuit, bit-identical
/// to gate-level netlist simulation of the same [`CircuitSpec`].
///
/// Construct one with [`IntInferEngine::from_spec`] (dense kernels) or
/// [`IntInferEngine::from_spec_with`] (per-input product sharing), then score
/// rows with [`classify_row`](IntInferEngine::classify_row) /
/// [`classify_batch`](IntInferEngine::classify_batch) /
/// [`accuracy`](IntInferEngine::accuracy). Inputs are unsigned grid values in
/// `0..2^input_bits` (see [`quantize_rows`]).
pub struct IntInferEngine {
    input_bits: u8,
    input_count: usize,
    output_count: usize,
    plan: Plan,
}

impl IntInferEngine {
    /// Builds an engine with dense accumulate kernels (the counterpart of
    /// [`SharingStrategy::None`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitSpec::validate`]'s errors, which include a
    /// worst-case accumulator past `i64` (such a network cannot be scored
    /// exactly by this engine — nor by `word_value` on the netlist).
    pub fn from_spec(spec: &CircuitSpec) -> Result<Self, HwError> {
        Self::from_spec_with(spec, SharingStrategy::None)
    }

    /// Builds an engine whose kernels mirror the given sharing strategy.
    /// The arithmetic result is identical either way (sharing changes which
    /// intermediate products are reused, never their values); the shared
    /// kernel exists so the software path exercises the exact product
    /// codebooks the hardware builds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IntInferEngine::from_spec`].
    pub fn from_spec_with(spec: &CircuitSpec, sharing: SharingStrategy) -> Result<Self, HwError> {
        spec.validate()?;
        let plan = if spec.accumulator_bound() <= i32::MAX as u128 {
            Plan::Narrow(Network::lower(spec, sharing))
        } else {
            Plan::Wide(Network::lower(spec, sharing))
        };
        Ok(IntInferEngine {
            input_bits: spec.input_bits,
            input_count: spec.input_count(),
            output_count: spec.output_count(),
            plan,
        })
    }

    /// Number of input features per row.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Number of output classes.
    pub fn output_count(&self) -> usize {
        self.output_count
    }

    /// Bit-width of the unsigned input grid.
    pub fn input_bits(&self) -> u8 {
        self.input_bits
    }

    /// `true` when the worst-case accumulator forced the wide `i64` kernel;
    /// `false` when the narrow `i32` kernel is in use.
    pub fn uses_wide_kernel(&self) -> bool {
        matches!(self.plan, Plan::Wide(_))
    }

    fn check_row(&self, row: &[u16]) {
        assert_eq!(
            row.len(),
            self.input_count,
            "expected {} inputs per row",
            self.input_count
        );
        let limit = 1_u32 << self.input_bits;
        for &v in row {
            assert!(
                (v as u32) < limit,
                "input {v} does not fit in {} unsigned bits",
                self.input_bits
            );
        }
    }

    /// Raw last-layer sums for one row (after ReLU if the output layer has
    /// one; before any argmax) — the integer counterpart of
    /// [`crate::circuit::BespokeMlpCircuit::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics when the row length or an input value is out of range.
    pub fn outputs(&self, row: &[u16]) -> Vec<i64> {
        self.check_row(row);
        match &self.plan {
            Plan::Narrow(net) => {
                let mut scratch = Scratch::for_network(net);
                net.forward(row, &mut scratch)
                    .iter()
                    .map(|&v| v.to_i64())
                    .collect()
            }
            Plan::Wide(net) => {
                let mut scratch = Scratch::for_network(net);
                net.forward(row, &mut scratch).to_vec()
            }
        }
    }

    /// Argmax class for one row, ties resolved to the lowest index — the
    /// integer counterpart of
    /// [`crate::circuit::BespokeMlpCircuit::classify`].
    ///
    /// # Panics
    ///
    /// Panics when the row length or an input value is out of range.
    pub fn classify_row(&self, row: &[u16]) -> usize {
        self.check_row(row);
        match &self.plan {
            Plan::Narrow(net) => {
                let mut scratch = Scratch::for_network(net);
                argmax(net.forward(row, &mut scratch))
            }
            Plan::Wide(net) => {
                let mut scratch = Scratch::for_network(net);
                argmax(net.forward(row, &mut scratch))
            }
        }
    }

    /// Classifies a flattened batch (`rows.len()` must be a multiple of
    /// [`input_count`](IntInferEngine::input_count)), row-blocked.
    ///
    /// # Panics
    ///
    /// Panics when the batch length or an input value is out of range.
    pub fn classify_batch(&self, rows: &[u16]) -> Vec<usize> {
        assert_eq!(
            rows.len() % self.input_count,
            0,
            "batch length {} is not a multiple of input count {}",
            rows.len(),
            self.input_count
        );
        let n = rows.len() / self.input_count;
        let mut out = vec![0_usize; n];
        match &self.plan {
            Plan::Narrow(net) => self.classify_blocks(net, rows, &mut out),
            Plan::Wide(net) => self.classify_blocks(net, rows, &mut out),
        }
        out
    }

    fn classify_blocks<T: Cell + PartialOrd>(
        &self,
        net: &Network<T>,
        rows: &[u16],
        out: &mut [usize],
    ) {
        let ic = self.input_count;
        let limit = 1_u32 << self.input_bits;
        for (block, chunk) in out.chunks_mut(ROW_BLOCK).enumerate() {
            let mut scratch = Scratch::for_network(net);
            for (j, slot) in chunk.iter_mut().enumerate() {
                let r = block * ROW_BLOCK + j;
                let row = &rows[r * ic..(r + 1) * ic];
                debug_assert!(row.iter().all(|&v| (v as u32) < limit));
                *slot = argmax(net.forward(row, &mut scratch));
            }
        }
        // The batch kernel only debug-asserts per value; keep release builds
        // honest with one vectorizable pass over the whole batch.
        assert!(
            rows.iter().all(|&v| (v as u32) < limit),
            "batch contains an input outside {} unsigned bits",
            self.input_bits
        );
    }

    /// Fraction of rows whose argmax class matches `labels` (flattened rows,
    /// one label per row).
    ///
    /// # Panics
    ///
    /// Panics when the label count does not match the row count, or on any
    /// out-of-range input.
    pub fn accuracy(&self, rows: &[u16], labels: &[usize]) -> f64 {
        let predicted = self.classify_batch(rows);
        assert_eq!(
            predicted.len(),
            labels.len(),
            "{} labels for {} rows",
            labels.len(),
            predicted.len()
        );
        if labels.is_empty() {
            return 0.0;
        }
        let hits = predicted
            .iter()
            .zip(labels.iter())
            .filter(|(p, l)| p == l)
            .count();
        hits as f64 / labels.len() as f64
    }
}

/// Ties go to the lowest index, matching the hardware comparator tree.
fn argmax<T: Cell + PartialOrd>(values: &[T]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate().skip(1) {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;
    use crate::circuit::{BespokeMlpCircuit, LayerSpec};

    fn spec(input_bits: u8, layers: Vec<LayerSpec>) -> CircuitSpec {
        CircuitSpec::new(input_bits, layers).unwrap()
    }

    fn simple_spec() -> CircuitSpec {
        spec(
            4,
            vec![
                LayerSpec::with_biases(
                    vec![vec![2, -1, 3], vec![-2, 4, 1]],
                    vec![5, -7],
                    4,
                    HwActivation::ReLU,
                )
                .unwrap(),
                LayerSpec::with_biases(
                    vec![vec![1, -2], vec![-3, 2]],
                    vec![0, 9],
                    4,
                    HwActivation::Argmax,
                )
                .unwrap(),
            ],
        )
    }

    fn reference_outputs(spec: &CircuitSpec, row: &[u16]) -> Vec<i64> {
        let mut current: Vec<i64> = row.iter().map(|&v| v as i64).collect();
        for layer in &spec.layers {
            let mut next = Vec::new();
            for (w, &b) in layer.weights.iter().zip(layer.biases.iter()) {
                let mut sum: i64 = w.iter().zip(current.iter()).map(|(w, x)| w * x).sum();
                sum += b;
                if layer.activation == HwActivation::ReLU {
                    sum = sum.max(0);
                }
                next.push(sum);
            }
            current = next;
        }
        current
    }

    #[test]
    fn matches_reference_forward() {
        let spec = simple_spec();
        let engine = IntInferEngine::from_spec(&spec).unwrap();
        for row in [[0_u16, 0, 0], [1, 2, 3], [15, 15, 15], [7, 0, 9]] {
            assert_eq!(engine.outputs(&row), reference_outputs(&spec, &row));
        }
    }

    #[test]
    fn matches_netlist_simulation() {
        let spec = simple_spec();
        let engine = IntInferEngine::from_spec(&spec).unwrap();
        let circuit = BespokeMlpCircuit::synthesize(&spec, &CellLibrary::egt()).unwrap();
        for row in [[0_u16, 0, 0], [1, 2, 3], [15, 15, 15], [3, 14, 5]] {
            let wide: Vec<u64> = row.iter().map(|&v| v as u64).collect();
            assert_eq!(engine.outputs(&row), circuit.evaluate(&wide));
            assert_eq!(engine.classify_row(&row), circuit.classify(&wide));
        }
    }

    #[test]
    fn shared_kernel_matches_dense_kernel() {
        let spec = spec(
            4,
            vec![
                LayerSpec::new(
                    vec![vec![5, -3, 7], vec![5, -3, 0], vec![5, 7, 7]],
                    4,
                    HwActivation::ReLU,
                )
                .unwrap(),
                LayerSpec::new(
                    vec![vec![2, 2, -1], vec![-2, 2, 1]],
                    4,
                    HwActivation::Argmax,
                )
                .unwrap(),
            ],
        );
        let dense = IntInferEngine::from_spec(&spec).unwrap();
        let shared =
            IntInferEngine::from_spec_with(&spec, SharingStrategy::SharedPerInput).unwrap();
        for row in [[0_u16, 5, 9], [12, 3, 1], [15, 0, 8], [15, 15, 15]] {
            assert_eq!(dense.outputs(&row), shared.outputs(&row));
            assert_eq!(dense.classify_row(&row), shared.classify_row(&row));
        }
    }

    #[test]
    fn argmax_ties_go_to_lowest_index() {
        // Two identical neurons: every input produces a tie.
        let spec = spec(
            4,
            vec![LayerSpec::new(vec![vec![3, 1], vec![3, 1]], 4, HwActivation::Argmax).unwrap()],
        );
        let engine = IntInferEngine::from_spec(&spec).unwrap();
        let circuit = BespokeMlpCircuit::synthesize(&spec, &CellLibrary::egt()).unwrap();
        for row in [[0_u16, 0], [7, 3], [15, 15]] {
            assert_eq!(engine.classify_row(&row), 0);
            assert_eq!(
                engine.classify_row(&row),
                circuit.classify(&[row[0] as u64, row[1] as u64])
            );
        }
    }

    #[test]
    fn all_zero_weights_score_biases_only() {
        let spec = spec(
            3,
            vec![LayerSpec::with_biases(
                vec![vec![0, 0], vec![0, 0]],
                vec![-4, 6],
                4,
                HwActivation::Argmax,
            )
            .unwrap()],
        );
        for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
            let engine = IntInferEngine::from_spec_with(&spec, sharing).unwrap();
            assert_eq!(engine.outputs(&[7, 7]), vec![-4, 6]);
            assert_eq!(engine.classify_row(&[0, 0]), 1);
        }
    }

    #[test]
    fn batch_matches_per_row_and_runs_past_one_block() {
        let spec = simple_spec();
        let engine = IntInferEngine::from_spec(&spec).unwrap();
        let n = ROW_BLOCK + 37;
        let mut rows = Vec::with_capacity(n * 3);
        for r in 0..n {
            rows.extend_from_slice(&[
                (r % 16) as u16,
                ((r * 7 + 3) % 16) as u16,
                ((r * 13 + 1) % 16) as u16,
            ]);
        }
        let batch = engine.classify_batch(&rows);
        assert_eq!(batch.len(), n);
        for (r, &class) in batch.iter().enumerate() {
            assert_eq!(class, engine.classify_row(&rows[r * 3..(r + 1) * 3]));
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let spec = spec(
            2,
            vec![LayerSpec::new(vec![vec![1], vec![-1]], 4, HwActivation::Argmax).unwrap()],
        );
        let engine = IntInferEngine::from_spec(&spec).unwrap();
        // Rows 1..3 classify as 0 (positive beats negative); row 0 ties -> 0.
        let rows = [0_u16, 1, 2, 3];
        assert_eq!(engine.accuracy(&rows, &[0, 0, 0, 0]), 1.0);
        assert_eq!(engine.accuracy(&rows, &[0, 0, 1, 1]), 0.5);
    }

    #[test]
    fn kernel_selection_follows_accumulator_bound() {
        let narrow = IntInferEngine::from_spec(&simple_spec()).unwrap();
        assert!(!narrow.uses_wide_kernel());
        // 16-bit inputs times large 24-bit weights with a wide fan-in pushes
        // the bound past i32.
        let wide_spec = spec(
            16,
            vec![LayerSpec::new(
                vec![vec![4_000_000, 4_000_000, 4_000_000]],
                24,
                HwActivation::Identity,
            )
            .unwrap()],
        );
        let wide = IntInferEngine::from_spec(&wide_spec).unwrap();
        assert!(wide.uses_wide_kernel());
        // Bound math: 3 · 4e6 · 65535 ≈ 7.9e11 > i32::MAX.
        assert_eq!(
            wide.outputs(&[65535, 65535, 65535]),
            vec![3 * 4_000_000_i64 * 65535]
        );
    }

    #[test]
    fn quantize_rows_snaps_to_grid() {
        let rows = quantize_rows(&[0.0, 1.0, 0.5, 0.26666668, 1.2, -0.3], 4).unwrap();
        // levels = 15: 0.5·15 = 7.5 rounds to 8; 0.26666668·15 ≈ 4.0 -> 4;
        // out-of-range values clamp.
        assert_eq!(rows, vec![0, 15, 8, 4, 15, 0]);
        assert!(quantize_rows(&[0.5], 0).is_err());
        assert!(quantize_rows(&[0.5], 17).is_err());
    }

    #[test]
    fn quantize_round_trips_prequantized_features() {
        // Features already on the grid (the campaign's quantized test sets)
        // must map back to their exact integer grid point.
        for bits in [1_u8, 4, 8, 12, 16] {
            let levels = (1_u32 << bits) - 1;
            let step = 97.max(levels / 64);
            for u in (0..=levels).step_by(step as usize) {
                let x = u as f32 / levels as f32;
                assert_eq!(
                    quantize_rows(&[x], bits).unwrap()[0] as u32,
                    u,
                    "bits {bits} u {u}"
                );
            }
        }
    }

    #[test]
    fn overflowing_spec_is_rejected() {
        // Chain layers until the bound exceeds i64: 16-bit inputs and
        // maximal 24-bit weights grow the bound by ~2^23 per layer.
        let max_w = (1_i64 << 23) - 1;
        let layers = (0..5)
            .map(|_| LayerSpec::new(vec![vec![max_w]; 1], 24, HwActivation::Identity).unwrap())
            .collect();
        let err = CircuitSpec::new(16, layers).unwrap_err();
        assert!(err.to_string().contains("exceeds i64"), "{err}");
    }

    #[test]
    fn row_shape_is_checked() {
        let engine = IntInferEngine::from_spec(&simple_spec()).unwrap();
        assert!(std::panic::catch_unwind(|| engine.classify_row(&[1, 2])).is_err());
        assert!(std::panic::catch_unwind(|| engine.classify_row(&[1, 2, 16])).is_err());
        assert!(std::panic::catch_unwind(|| engine.classify_batch(&[1, 2, 3, 4])).is_err());
    }
}
