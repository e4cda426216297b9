//! In-memory labelled dataset used by the trainer and by evaluation.

use crate::error::NnError;
use crate::matrix::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A labelled classification dataset: a feature matrix (one sample per row)
/// and one class index per sample.
///
/// # Example
///
/// ```
/// use pmlp_nn::Dataset;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let xs = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5, 0.5]];
/// let ys = vec![0, 1, 0];
/// let data = Dataset::from_rows(xs, ys, 2)?;
/// assert_eq!(data.len(), 3);
/// assert_eq!(data.feature_count(), 2);
/// assert_eq!(data.class_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    class_count: usize,
}

impl Dataset {
    /// Builds a dataset from per-sample feature rows and labels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidDataset`] when the dataset is empty, when the
    /// number of labels does not match the number of rows, or when a label is
    /// `>= class_count`.
    pub fn from_rows(
        features: Vec<Vec<f32>>,
        labels: Vec<usize>,
        class_count: usize,
    ) -> Result<Self, NnError> {
        let features = Matrix::from_rows(&features).map_err(|e| NnError::InvalidDataset {
            context: format!("features: {e}"),
        })?;
        Dataset::new(features, labels, class_count)
    }

    /// Builds a dataset from an existing feature matrix and labels.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dataset::from_rows`].
    pub fn new(features: Matrix, labels: Vec<usize>, class_count: usize) -> Result<Self, NnError> {
        if features.rows() == 0 {
            return Err(NnError::InvalidDataset {
                context: "dataset has no samples".into(),
            });
        }
        if labels.len() != features.rows() {
            return Err(NnError::InvalidDataset {
                context: format!("{} labels for {} samples", labels.len(), features.rows()),
            });
        }
        if class_count == 0 {
            return Err(NnError::InvalidDataset {
                context: "class_count must be non-zero".into(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= class_count) {
            return Err(NnError::InvalidDataset {
                context: format!("label {bad} out of range for {class_count} classes"),
            });
        }
        Ok(Dataset {
            features,
            labels,
            class_count,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    /// `true` when the dataset has no samples (never true for a constructed
    /// dataset, but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of input features per sample.
    pub fn feature_count(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// The full feature matrix (samples x features).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The label of every sample.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of samples belonging to each class.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.class_count];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }

    /// Returns a new dataset containing only the samples at `indices`
    /// (duplicates allowed, order preserved).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: self.features.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            class_count: self.class_count,
        }
    }

    /// Splits the dataset into a training and a test partition with
    /// `train_fraction` of the samples (rounded down, at least one sample in
    /// each partition) going to the training set. Sampling is stratified per
    /// class so both partitions keep the original class balance.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `train_fraction` is not in
    /// `(0, 1)` or the dataset is too small to give both partitions a sample.
    pub fn stratified_split<R: Rng + ?Sized>(
        &self,
        train_fraction: f64,
        rng: &mut R,
    ) -> Result<(Dataset, Dataset), NnError> {
        if !(train_fraction > 0.0 && train_fraction < 1.0) {
            return Err(NnError::InvalidConfig {
                context: format!("train_fraction must be in (0,1), got {train_fraction}"),
            });
        }
        if self.len() < 2 {
            return Err(NnError::InvalidConfig {
                context: "cannot split a dataset with fewer than 2 samples".into(),
            });
        }
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for class in 0..self.class_count {
            let mut members: Vec<usize> = (0..self.len())
                .filter(|&i| self.labels[i] == class)
                .collect();
            members.shuffle(rng);
            let n_train = ((members.len() as f64) * train_fraction).round() as usize;
            let n_train = n_train.min(members.len());
            train_idx.extend_from_slice(&members[..n_train]);
            test_idx.extend_from_slice(&members[n_train..]);
        }
        // Guarantee both partitions are non-empty.
        if train_idx.is_empty() {
            train_idx.push(test_idx.pop().expect("dataset has at least 2 samples"));
        }
        if test_idx.is_empty() {
            test_idx.push(train_idx.pop().expect("dataset has at least 2 samples"));
        }
        train_idx.shuffle(rng);
        test_idx.shuffle(rng);
        Ok((self.subset(&train_idx), self.subset(&test_idx)))
    }

    /// Fills `indices` with a fresh shuffled permutation of `0..len`, reusing
    /// the buffer's allocation. Chunking the result yields one epoch's
    /// mini-batches without any further allocation.
    pub fn shuffle_indices_into<R: Rng + ?Sized>(&self, indices: &mut Vec<usize>, rng: &mut R) {
        indices.clear();
        indices.extend(0..self.len());
        indices.shuffle(rng);
    }

    /// Gathers the samples at `indices` into caller-owned buffers: `features`
    /// takes the batch's shape and keeps its allocation (the final short
    /// batch of an epoch shrinks it in place), `labels` is cleared and
    /// refilled. This is the
    /// allocation-free batch path used by the trainer; it borrows the feature
    /// matrix instead of copying `Vec<Vec<f32>>` rows around.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn gather_batch(&self, indices: &[usize], features: &mut Matrix, labels: &mut Vec<usize>) {
        features.resize(indices.len(), self.feature_count());
        features.copy_rows_from(&self.features, indices);
        labels.clear();
        labels.extend(indices.iter().map(|&i| self.labels[i]));
    }

    /// Applies min-max normalization per feature, mapping every feature to
    /// `[0, 1]`. Returns the per-feature `(min, max)` pairs so the same
    /// transform can be applied to unseen data (e.g. the test split).
    pub fn normalize_min_max(&mut self) -> Vec<(f32, f32)> {
        let cols = self.feature_count();
        let mut ranges = Vec::with_capacity(cols);
        for c in 0..cols {
            let (min, max) = self
                .features
                .column_iter(c)
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(min, max), v| {
                    (min.min(v), max.max(v))
                });
            ranges.push((min, max));
        }
        self.apply_min_max(&ranges);
        ranges
    }

    /// Applies a previously computed min-max transform (from
    /// [`Dataset::normalize_min_max`]) to this dataset.
    ///
    /// Features whose range is degenerate (`max == min`) map to `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `ranges.len() != self.feature_count()`.
    pub fn apply_min_max(&mut self, ranges: &[(f32, f32)]) {
        assert_eq!(ranges.len(), self.feature_count(), "range count mismatch");
        for r in 0..self.features.rows() {
            for (c, &(min, max)) in ranges.iter().enumerate() {
                let denom = max - min;
                let v = self.features.get(r, c);
                let scaled = if denom.abs() < f32::EPSILON {
                    0.0
                } else {
                    (v - min) / denom
                };
                self.features.set(r, c, scaled.clamp(0.0, 1.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(n_per_class: usize, classes: usize) -> Dataset {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..classes {
            for i in 0..n_per_class {
                xs.push(vec![c as f32 * 10.0 + i as f32, i as f32]);
                ys.push(c);
            }
        }
        Dataset::from_rows(xs, ys, classes).unwrap()
    }

    #[test]
    fn construction_validates_labels() {
        let xs = vec![vec![1.0], vec![2.0]];
        assert!(Dataset::from_rows(xs.clone(), vec![0], 2).is_err());
        assert!(Dataset::from_rows(xs.clone(), vec![0, 5], 2).is_err());
        assert!(Dataset::from_rows(xs, vec![0, 1], 2).is_ok());
    }

    #[test]
    fn class_histogram_counts_every_class() {
        let d = toy(5, 3);
        assert_eq!(d.class_histogram(), vec![5, 5, 5]);
    }

    #[test]
    fn subset_preserves_labels_and_order() {
        let d = toy(3, 2);
        let s = d.subset(&[4, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[1, 0]);
        assert_eq!(s.features().row(0), d.features().row(4));
    }

    #[test]
    fn stratified_split_preserves_class_balance() {
        let d = toy(40, 3);
        let mut rng = StdRng::seed_from_u64(13);
        let (train, test) = d.stratified_split(0.75, &mut rng).unwrap();
        assert_eq!(train.len() + test.len(), d.len());
        for hist in [train.class_histogram(), test.class_histogram()] {
            let max = *hist.iter().max().unwrap();
            let min = *hist.iter().min().unwrap();
            assert!(max - min <= 1, "imbalanced split: {hist:?}");
        }
    }

    #[test]
    fn stratified_split_rejects_bad_fraction() {
        let d = toy(4, 2);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(d.stratified_split(0.0, &mut rng).is_err());
        assert!(d.stratified_split(1.0, &mut rng).is_err());
        assert!(d.stratified_split(-0.5, &mut rng).is_err());
    }

    #[test]
    fn shuffle_indices_into_covers_all_samples_exactly_once() {
        let d = toy(10, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut indices = vec![7, 7, 7];
        d.shuffle_indices_into(&mut indices, &mut rng);
        indices.sort_unstable();
        assert_eq!(indices, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn gather_batch_matches_subset() {
        let d = toy(5, 2);
        let mut features = Matrix::zeros(0, d.feature_count());
        let mut labels = Vec::new();
        d.gather_batch(&[7, 1, 4], &mut features, &mut labels);
        let subset = d.subset(&[7, 1, 4]);
        assert_eq!(&features, subset.features());
        assert_eq!(labels, subset.labels());
        // A second gather with the same geometry reuses the buffer.
        let capacity_ptr = features.as_slice().as_ptr();
        d.gather_batch(&[0, 2, 3], &mut features, &mut labels);
        assert_eq!(features.as_slice().as_ptr(), capacity_ptr);
        assert_eq!(&features, d.subset(&[0, 2, 3]).features());
    }

    #[test]
    fn min_max_normalization_maps_to_unit_interval() {
        let mut d = toy(10, 2);
        let ranges = d.normalize_min_max();
        assert_eq!(ranges.len(), 2);
        for r in 0..d.len() {
            for &v in d.features().row(r) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn apply_min_max_handles_degenerate_ranges() {
        let mut d = Dataset::from_rows(vec![vec![5.0], vec![5.0]], vec![0, 1], 2).unwrap();
        d.normalize_min_max();
        assert_eq!(d.features().get(0, 0), 0.0);
        assert_eq!(d.features().get(1, 0), 0.0);
    }

    #[test]
    fn same_seed_gives_same_split() {
        let d = toy(20, 2);
        let (a_train, _) = d
            .stratified_split(0.7, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let (b_train, _) = d
            .stratified_split(0.7, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(a_train, b_train);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn split_partitions_the_dataset(
            n_per_class in 4usize..30,
            frac in 0.2f64..0.8,
            seed in 0u64..1000
        ) {
            let d = {
                let mut xs = Vec::new();
                let mut ys = Vec::new();
                for c in 0..3usize {
                    for i in 0..n_per_class {
                        xs.push(vec![c as f32, i as f32]);
                        ys.push(c);
                    }
                }
                Dataset::from_rows(xs, ys, 3).unwrap()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let (train, test) = d.stratified_split(frac, &mut rng).unwrap();
            prop_assert_eq!(train.len() + test.len(), d.len());
            prop_assert!(!train.is_empty());
            prop_assert!(!test.is_empty());
        }

        #[test]
        fn normalization_is_idempotent_on_unit_data(
            n in 2usize..20,
            seed in 0u64..100
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    vec![
                        rand::Rng::gen_range(&mut rng, 0.0..1.0),
                        rand::Rng::gen_range(&mut rng, 0.0..1.0),
                    ]
                })
                .collect();
            let ys: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let mut d = Dataset::from_rows(xs, ys, 2).unwrap();
            d.normalize_min_max();
            let snapshot = d.clone();
            d.normalize_min_max();
            for (a, b) in d.features().as_slice().iter().zip(snapshot.features().as_slice()) {
                prop_assert!((a - b).abs() < 1e-5);
            }
        }
    }
}
