//! Per-input-position weight clustering (Deep-Compression style).
//!
//! The paper applies the weight clustering of Han et al. (ICLR 2016) so that
//! weights *of the same position* — i.e. multiplied by the same input — share
//! a value. In a bespoke circuit the product of that input with the shared
//! value is then computed once and wired to every neuron that needs it,
//! shrinking the multiplier count from "non-zero weights" to "distinct
//! (input, value) pairs".

use crate::error::MinimizeError;
use pmlp_nn::{Dataset, Mlp, TrainConfig, TrainReport, Trainer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the weight-clustering pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusteringConfig {
    /// Number of clusters per input position (per layer row). Smaller values
    /// mean more sharing and smaller circuits but higher accuracy loss.
    pub clusters_per_input: usize,
    /// Maximum number of k-means iterations.
    pub max_iterations: usize,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            clusters_per_input: 4,
            max_iterations: 50,
        }
    }
}

impl ClusteringConfig {
    /// Creates a configuration with `clusters_per_input` clusters and the
    /// default iteration budget.
    pub fn new(clusters_per_input: usize) -> Self {
        ClusteringConfig {
            clusters_per_input,
            ..ClusteringConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MinimizeError::InvalidConfig`] when the cluster count or the
    /// iteration budget is zero.
    pub fn validate(&self) -> Result<(), MinimizeError> {
        if self.clusters_per_input == 0 {
            return Err(MinimizeError::InvalidConfig {
                context: "clusters_per_input must be >= 1".into(),
            });
        }
        if self.max_iterations == 0 {
            return Err(MinimizeError::InvalidConfig {
                context: "max_iterations must be >= 1".into(),
            });
        }
        Ok(())
    }
}

/// The cluster structure of a clustered MLP: for every layer, the groups
/// of weights that share one value, one group per input position and
/// cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterAssignment {
    layers: Vec<LayerGroups>,
}

/// The groups of one layer's weight matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LayerGroups {
    /// `(inputs, outputs)` of the weight matrix.
    shape: (usize, usize),
    /// Row-major weight indices, group after group, each group in
    /// ascending output order.
    members: Vec<usize>,
    /// Each group's member count, in the order of `members`. A cluster
    /// without weights has no group.
    counts: Vec<usize>,
    /// Each group's centroid, the value its weights share.
    centroids: Vec<f32>,
}

impl LayerGroups {
    /// The groups of an `inputs x outputs` weight matrix whose input row
    /// `i` has cluster centroids `rows[i].0` and puts output `o` in cluster
    /// `rows[i].1[o]`.
    fn new(shape: (usize, usize), rows: &[(Vec<f32>, Vec<usize>)]) -> LayerGroups {
        let (inputs, outputs) = shape;
        let mut groups = LayerGroups {
            shape,
            members: Vec::with_capacity(inputs * outputs),
            counts: Vec::new(),
            centroids: Vec::new(),
        };
        for (i, (centroids, assign)) in rows.iter().enumerate() {
            for (c, &centroid) in centroids.iter().enumerate() {
                let start = groups.members.len();
                groups.members.extend(
                    (0..outputs)
                        .filter(|&o| assign[o] == c)
                        .map(|o| i * outputs + o),
                );
                if groups.members.len() > start {
                    groups.counts.push(groups.members.len() - start);
                    groups.centroids.push(centroid);
                }
            }
        }
        groups
    }
}

/// `members` cut into consecutive groups of `counts` members.
fn split<'a>(mut members: &'a [usize], counts: &'a [usize]) -> impl Iterator<Item = &'a [usize]> {
    counts.iter().map(move |&count| {
        let (group, rest) = members.split_at(count);
        members = rest;
        group
    })
}

impl ClusterAssignment {
    /// Snaps every weight of `mlp` to its cluster centroid.
    ///
    /// # Errors
    ///
    /// Returns [`MinimizeError::InvalidConfig`] when the assignment does not
    /// match the model shape.
    pub fn apply(&self, mlp: &mut Mlp) -> Result<(), MinimizeError> {
        self.check_shape(mlp)?;
        for (layer, groups) in mlp.layers_mut().iter_mut().zip(&self.layers) {
            let weights = layer.weights_mut().as_mut_slice();
            for (group, &centroid) in split(&groups.members, &groups.counts).zip(&groups.centroids)
            {
                for &m in group {
                    weights[m] = centroid;
                }
            }
        }
        Ok(())
    }

    /// Recomputes the centroids as the mean of the current weights assigned to
    /// each cluster (the Deep-Compression centroid update used during
    /// fine-tuning), then snaps the weights onto the new centroids.
    ///
    /// # Errors
    ///
    /// Returns [`MinimizeError::InvalidConfig`] on shape mismatch.
    pub fn refit_and_apply(&mut self, mlp: &mut Mlp) -> Result<(), MinimizeError> {
        self.check_shape(mlp)?;
        self.refit(mlp);
        Ok(())
    }

    /// [`ClusterAssignment::refit_and_apply`] on a model of the checked
    /// shape: the fine-tuning constraint after every batch. Each group's
    /// `f64` sum starts at `0.0` and adds its weights in ascending output
    /// order.
    fn refit(&mut self, mlp: &mut Mlp) {
        for (layer, groups) in mlp.layers_mut().iter_mut().zip(&mut self.layers) {
            let weights = layer.weights_mut().as_mut_slice();
            let LayerGroups {
                members,
                counts,
                centroids,
                ..
            } = groups;
            for (group, centroid) in split(members, counts).zip(centroids) {
                let sum = group
                    .iter()
                    .fold(0.0_f64, |sum, &m| sum + weights[m] as f64);
                *centroid = (sum / group.len() as f64) as f32;
                for &m in group {
                    weights[m] = *centroid;
                }
            }
        }
    }

    /// Checks that the assignment covers `mlp` weight for weight.
    fn check_shape(&self, mlp: &Mlp) -> Result<(), MinimizeError> {
        if mlp.layers().len() != self.layers.len() {
            return Err(MinimizeError::InvalidConfig {
                context: format!(
                    "assignment covers {} layers but the model has {}",
                    self.layers.len(),
                    mlp.layers().len()
                ),
            });
        }
        if mlp
            .layers()
            .iter()
            .zip(&self.layers)
            .any(|(layer, groups)| layer.weights().shape() != groups.shape)
        {
            return Err(MinimizeError::InvalidConfig {
                context: "cluster assignment shape does not match model layer".into(),
            });
        }
        Ok(())
    }
}

/// One-dimensional k-means on a slice of values. Returns `(centroids,
/// assignment)` with `centroids.len() <= k`.
fn kmeans_1d(values: &[f32], k: usize, max_iterations: usize) -> (Vec<f32>, Vec<usize>) {
    if values.is_empty() {
        return (Vec::new(), Vec::new());
    }
    // Initialize centroids spread over the value range (deterministic).
    let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let k = k.max(1).min(values.len());
    let mut centroids: Vec<f32> = if k == 1 {
        vec![values.iter().sum::<f32>() / values.len() as f32]
    } else {
        (0..k)
            .map(|i| min + (max - min) * i as f32 / (k - 1) as f32)
            .collect()
    };
    let mut assignment = vec![0usize; values.len()];

    for _ in 0..max_iterations {
        // Assignment step.
        let mut changed = false;
        for (vi, &v) in values.iter().enumerate() {
            let (best, _) = centroids
                .iter()
                .enumerate()
                .map(|(ci, &c)| (ci, (v - c).abs()))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                .expect("at least one centroid");
            if assignment[vi] != best {
                assignment[vi] = best;
                changed = true;
            }
        }
        // Update step.
        let mut sums = vec![0.0_f64; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (vi, &v) in values.iter().enumerate() {
            sums[assignment[vi]] += v as f64;
            counts[assignment[vi]] += 1;
        }
        for c in 0..centroids.len() {
            if counts[c] > 0 {
                centroids[c] = (sums[c] / counts[c] as f64) as f32;
            }
        }
        if !changed {
            break;
        }
    }
    (centroids, assignment)
}

/// Clusters the weights of `mlp` per input position and snaps them to their
/// centroids. Returns the assignment so fine-tuning can keep the structure.
///
/// # Errors
///
/// Returns [`MinimizeError::InvalidConfig`] when `config` is invalid.
pub fn cluster_weights(
    mlp: &mut Mlp,
    config: &ClusteringConfig,
) -> Result<ClusterAssignment, MinimizeError> {
    config.validate()?;
    let layers = mlp
        .layers()
        .iter()
        .map(|layer| {
            let weights = layer.weights();
            let rows: Vec<_> = (0..weights.rows())
                .map(|i| {
                    kmeans_1d(
                        weights.row(i),
                        config.clusters_per_input,
                        config.max_iterations,
                    )
                })
                .collect();
            LayerGroups::new(weights.shape(), &rows)
        })
        .collect();
    let assignment = ClusterAssignment { layers };
    assignment.apply(mlp)?;
    Ok(assignment)
}

/// Clusters the weights of `mlp` and fine-tunes it while keeping the cluster
/// structure (weights snap back to their — continuously refitted — centroids
/// after every optimizer step).
///
/// # Errors
///
/// Returns [`MinimizeError`] on invalid configuration or training failure.
pub fn cluster_and_fine_tune<R: Rng + ?Sized>(
    mlp: &mut Mlp,
    train: &Dataset,
    validation: Option<&Dataset>,
    config: &ClusteringConfig,
    training: &TrainConfig,
    rng: &mut R,
) -> Result<(ClusterAssignment, TrainReport), MinimizeError> {
    let mut assignment = cluster_weights(mlp, config)?;
    let trainer = Trainer::new(training.clone());
    // `cluster_weights` grouped this model's weights, and training keeps
    // its shape, so no step checks the shape again.
    let mut constraint = |m: &mut Mlp| assignment.refit(m);
    let report = trainer.fit_constrained(mlp, train, validation, &mut constraint, rng)?;
    // The final centroids, refit on the trained weights.
    assignment.refit(mlp);
    Ok((assignment, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlp_data::{load, UciDataset};
    use pmlp_nn::MlpBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        MlpBuilder::new(5)
            .hidden(12)
            .output(3)
            .build(&mut rng)
            .unwrap()
    }

    fn distinct_values_per_row(m: &Mlp, layer: usize) -> Vec<usize> {
        let l = &m.layers()[layer];
        let (inputs, outputs) = l.weights().shape();
        (0..inputs)
            .map(|i| {
                (0..outputs)
                    .map(|o| l.weights().get(i, o).to_bits())
                    .collect::<BTreeSet<u32>>()
                    .len()
            })
            .collect()
    }

    #[test]
    fn kmeans_recovers_well_separated_clusters() {
        let values = vec![0.0, 0.1, 0.05, 5.0, 5.1, 4.9, -3.0, -3.1];
        let (centroids, assignment) = kmeans_1d(&values, 3, 50);
        assert_eq!(centroids.len(), 3);
        // Values near 5 share a cluster distinct from values near 0 and -3.
        assert_eq!(assignment[3], assignment[4]);
        assert_eq!(assignment[4], assignment[5]);
        assert_ne!(assignment[0], assignment[3]);
        assert_ne!(assignment[0], assignment[6]);
    }

    #[test]
    fn kmeans_handles_degenerate_inputs() {
        let (c, a) = kmeans_1d(&[], 3, 10);
        assert!(c.is_empty() && a.is_empty());
        let (c, a) = kmeans_1d(&[1.0, 1.0, 1.0], 5, 10);
        assert!(c.len() <= 3);
        assert_eq!(a.len(), 3);
        let (c, _) = kmeans_1d(&[2.5], 4, 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clustering_limits_distinct_values_per_input_position() {
        let mut m = mlp(1);
        let k = 3;
        cluster_weights(&mut m, &ClusteringConfig::new(k)).unwrap();
        for layer in 0..m.layers().len() {
            for count in distinct_values_per_row(&m, layer) {
                assert!(
                    count <= k,
                    "row has {count} distinct values, expected <= {k}"
                );
            }
        }
    }

    #[test]
    fn more_clusters_means_lower_distortion() {
        let original = mlp(2);
        let distortion = |k: usize| {
            let mut m = original.clone();
            cluster_weights(&mut m, &ClusteringConfig::new(k)).unwrap();
            original
                .flatten_weights()
                .iter()
                .zip(m.flatten_weights().iter())
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
        };
        let d2 = distortion(2);
        let d4 = distortion(4);
        let d8 = distortion(8);
        assert!(d4 <= d2 + 1e-6);
        assert!(d8 <= d4 + 1e-6);
    }

    #[test]
    fn many_clusters_approximate_the_original_weights_closely() {
        let original = mlp(3);
        let mut m = original.clone();
        // With many more clusters than distinct values per row the k-means
        // approximation error becomes small (it need not be exactly zero
        // because the deterministic initialization can merge nearby values).
        let outputs = m.layers()[0].outputs().max(m.layers()[1].outputs());
        cluster_weights(&mut m, &ClusteringConfig::new(2 * outputs)).unwrap();
        let max_abs = original.max_abs_weight();
        for (a, b) in original
            .flatten_weights()
            .iter()
            .zip(m.flatten_weights().iter())
        {
            assert!((a - b).abs() < 0.15 * max_abs.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut m = mlp(4);
        assert!(cluster_weights(&mut m, &ClusteringConfig::new(0)).is_err());
        assert!(cluster_weights(
            &mut m,
            &ClusteringConfig {
                clusters_per_input: 2,
                max_iterations: 0
            }
        )
        .is_err());
    }

    #[test]
    fn apply_rejects_mismatched_model() {
        let mut m = mlp(5);
        let assignment = cluster_weights(&mut m, &ClusteringConfig::new(2)).unwrap();
        let mut other = {
            let mut rng = StdRng::seed_from_u64(7);
            MlpBuilder::new(3)
                .hidden(4)
                .output(2)
                .build(&mut rng)
                .unwrap()
        };
        assert!(assignment.apply(&mut other).is_err());
    }

    #[test]
    fn fine_tuning_preserves_cluster_structure() {
        let mut rng = StdRng::seed_from_u64(17);
        let data = load(UciDataset::Seeds, 5).unwrap();
        let (train, _) = data.stratified_split(0.8, &mut rng).unwrap();
        let mut model = MlpBuilder::new(train.feature_count())
            .hidden(8)
            .output(train.class_count())
            .build(&mut rng)
            .unwrap();
        Trainer::new(TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        })
        .fit(&mut model, &train, None, &mut rng)
        .unwrap();

        let k = 3;
        let (_, _) = cluster_and_fine_tune(
            &mut model,
            &train,
            None,
            &ClusteringConfig::new(k),
            &TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        for layer in 0..model.layers().len() {
            for count in distinct_values_per_row(&model, layer) {
                assert!(count <= k, "cluster structure broken: {count} > {k}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pmlp_nn::MlpBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-row refit that grouped refitting replaced, kept as the
    /// reference: per input row, each cluster's `f64` sum over the row in
    /// ascending output order, the mean for every cluster with weights,
    /// then every weight of the row snapped to its centroid.
    fn per_row_refit(weights: &mut [f32], outputs: usize, rows: &mut [(Vec<f32>, Vec<usize>)]) {
        for (row, (centroids, assign)) in weights.chunks_exact_mut(outputs).zip(rows) {
            let mut sums = vec![0.0_f64; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (&w, &c) in row.iter().zip(assign.iter()) {
                sums[c] += w as f64;
                counts[c] += 1;
            }
            for ((centroid, &sum), &count) in centroids.iter_mut().zip(&sums).zip(&counts) {
                if count > 0 {
                    *centroid = (sum / count as f64) as f32;
                }
            }
            for (w, &c) in row.iter_mut().zip(assign.iter()) {
                *w = centroids[c];
            }
        }
    }

    /// A weight of random sign and magnitude between 2^-60 and 2^60; a
    /// tenth are zeros, a tenth repeat the last value and a fifth negate
    /// it. A group summing `a, -a, b` gives `b` in ascending order but
    /// `0.0` in descending order when `b` is too small to change `a`, so a
    /// refit that sums in another order shows in the weights.
    fn weight(rng: &mut StdRng, last: f32) -> f32 {
        match rng.gen_range(0..10) {
            0 => 0.0,
            1 => last,
            2 | 3 => -last,
            _ => rng.gen_range(-1.0f32..1.0) * 2.0f32.powi(rng.gen_range(-60..=60)),
        }
    }

    fn bits(weights: &[f32]) -> Vec<u32> {
        weights.iter().map(|w| w.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn kmeans_centroid_count_never_exceeds_k(
            values in proptest::collection::vec(-5.0f32..5.0, 1..40),
            k in 1usize..8
        ) {
            let (centroids, assignment) = kmeans_1d(&values, k, 30);
            prop_assert!(centroids.len() <= k);
            prop_assert_eq!(assignment.len(), values.len());
            prop_assert!(assignment.iter().all(|&a| a < centroids.len()));
        }

        #[test]
        fn kmeans_assignment_is_nearest_centroid(
            values in proptest::collection::vec(-5.0f32..5.0, 2..30),
            k in 1usize..5
        ) {
            let (centroids, assignment) = kmeans_1d(&values, k, 100);
            for (v, &a) in values.iter().zip(assignment.iter()) {
                let assigned_dist = (v - centroids[a]).abs();
                for &c in &centroids {
                    prop_assert!(assigned_dist <= (v - c).abs() + 1e-5);
                }
            }
        }

        #[test]
        fn refit_equals_the_per_row_reference_bit_for_bit(
            inputs in 1usize..=12,
            hidden in 1usize..=30,
            outputs in 1usize..=10,
            clusters in 1usize..=8,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mlp = MlpBuilder::new(inputs)
                .hidden(hidden)
                .output(outputs)
                .build(&mut rng)
                .unwrap();
            // Random clusters per input row: with more clusters than a
            // row's outputs some stay empty, and one-member clusters are
            // common.
            let mut reference: Vec<Vec<(Vec<f32>, Vec<usize>)>> = mlp
                .layers()
                .iter()
                .map(|layer| {
                    let (rows, cols) = layer.weights().shape();
                    (0..rows)
                        .map(|_| {
                            let k = rng.gen_range(1..=clusters);
                            let centroids = (0..k).map(|_| weight(&mut rng, 0.5)).collect();
                            let assign = (0..cols).map(|_| rng.gen_range(0..k)).collect();
                            (centroids, assign)
                        })
                        .collect()
                })
                .collect();
            let mut assignment = ClusterAssignment {
                layers: mlp
                    .layers()
                    .iter()
                    .zip(&reference)
                    .map(|(layer, rows)| LayerGroups::new(layer.weights().shape(), rows))
                    .collect(),
            };
            // Three rounds of new weights and a refit, as fine-tuning runs
            // them after every batch.
            for _ in 0..3 {
                for layer in mlp.layers_mut() {
                    let mut last = 0.0;
                    for w in layer.weights_mut().as_mut_slice() {
                        *w = weight(&mut rng, last);
                        last = *w;
                    }
                }
                let mut expected: Vec<Vec<f32>> =
                    mlp.layers().iter().map(|l| l.weights().as_slice().to_vec()).collect();
                for ((weights, rows), layer) in expected.iter_mut().zip(&mut reference).zip(mlp.layers()) {
                    per_row_refit(weights, layer.outputs(), rows);
                }
                assignment.refit_and_apply(&mut mlp).unwrap();
                for (layer, weights) in mlp.layers().iter().zip(&expected) {
                    prop_assert_eq!(bits(layer.weights().as_slice()), bits(weights));
                }
            }
            // `apply` snaps every weight to the centroid the last refit
            // stored for its cluster.
            for layer in mlp.layers_mut() {
                layer.weights_mut().map_inplace(|w| w * 3.0 + 1.0);
            }
            assignment.apply(&mut mlp).unwrap();
            for (layer, rows) in mlp.layers().iter().zip(&reference) {
                let expected: Vec<f32> = rows
                    .iter()
                    .flat_map(|(centroids, assign)| assign.iter().map(|&c| centroids[c]))
                    .collect();
                prop_assert_eq!(bits(layer.weights().as_slice()), bits(&expected));
            }
        }
    }
}
