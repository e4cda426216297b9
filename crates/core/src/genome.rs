//! Genome encoding of the hardware-aware genetic algorithm.
//!
//! A genome is one point of the joint minimization space: weight bit-width,
//! unstructured sparsity and clusters-per-input. Each gene can also be
//! "disabled", meaning the corresponding technique is not applied at all, so
//! the GA can rediscover the standalone techniques as special cases.

use pmlp_minimize::{sparsity_millis, MinimizationConfig};
use rand::Rng;

/// Admissible ranges of the three genes, matching the paper's sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct GenomeSpace {
    /// Allowed weight bit-widths (paper: 2–7).
    pub weight_bits: Vec<u8>,
    /// Allowed sparsity levels (paper: 0.2–0.6).
    pub sparsities: Vec<f64>,
    /// Allowed clusters-per-input counts.
    pub cluster_counts: Vec<usize>,
    /// Probability that a technique is enabled when sampling a random genome.
    pub enable_probability: f64,
}

impl Default for GenomeSpace {
    fn default() -> Self {
        GenomeSpace {
            weight_bits: (2..=7).collect(),
            sparsities: vec![0.2, 0.3, 0.4, 0.5, 0.6],
            cluster_counts: vec![2, 3, 4, 6, 8],
            enable_probability: 0.7,
        }
    }
}

/// One candidate of the GA population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Genome {
    /// Quantization bit-width (`None` = quantization disabled, keep 8-bit).
    pub weight_bits: Option<u8>,
    /// Pruning sparsity (`None` = pruning disabled).
    pub sparsity: Option<f64>,
    /// Clusters per input (`None` = clustering disabled).
    pub clusters: Option<usize>,
}

impl Genome {
    /// The baseline genome (no technique enabled).
    pub fn baseline() -> Self {
        Genome {
            weight_bits: None,
            sparsity: None,
            clusters: None,
        }
    }

    /// Samples a random genome from `space`.
    pub fn random<R: Rng + ?Sized>(space: &GenomeSpace, rng: &mut R) -> Self {
        let pick_bits = rng.gen_bool(space.enable_probability);
        let pick_sparsity = rng.gen_bool(space.enable_probability);
        let pick_clusters = rng.gen_bool(space.enable_probability);
        Genome {
            weight_bits: if pick_bits && !space.weight_bits.is_empty() {
                Some(space.weight_bits[rng.gen_range(0..space.weight_bits.len())])
            } else {
                None
            },
            sparsity: if pick_sparsity && !space.sparsities.is_empty() {
                Some(space.sparsities[rng.gen_range(0..space.sparsities.len())])
            } else {
                None
            },
            clusters: if pick_clusters && !space.cluster_counts.is_empty() {
                Some(space.cluster_counts[rng.gen_range(0..space.cluster_counts.len())])
            } else {
                None
            },
        }
    }

    /// Uniform crossover: each gene is inherited from either parent with equal
    /// probability.
    pub fn crossover<R: Rng + ?Sized>(&self, other: &Genome, rng: &mut R) -> Genome {
        Genome {
            weight_bits: if rng.gen_bool(0.5) {
                self.weight_bits
            } else {
                other.weight_bits
            },
            sparsity: if rng.gen_bool(0.5) {
                self.sparsity
            } else {
                other.sparsity
            },
            clusters: if rng.gen_bool(0.5) {
                self.clusters
            } else {
                other.clusters
            },
        }
    }

    /// Mutation: each gene is independently re-sampled (or toggled on/off)
    /// with probability `rate`.
    pub fn mutate<R: Rng + ?Sized>(&self, space: &GenomeSpace, rate: f64, rng: &mut R) -> Genome {
        let mut out = *self;
        if rng.gen_bool(rate) {
            out.weight_bits =
                if rng.gen_bool(space.enable_probability) && !space.weight_bits.is_empty() {
                    Some(space.weight_bits[rng.gen_range(0..space.weight_bits.len())])
                } else {
                    None
                };
        }
        if rng.gen_bool(rate) {
            out.sparsity = if rng.gen_bool(space.enable_probability) && !space.sparsities.is_empty()
            {
                Some(space.sparsities[rng.gen_range(0..space.sparsities.len())])
            } else {
                None
            };
        }
        if rng.gen_bool(rate) {
            out.clusters =
                if rng.gen_bool(space.enable_probability) && !space.cluster_counts.is_empty() {
                    Some(space.cluster_counts[rng.gen_range(0..space.cluster_counts.len())])
                } else {
                    None
                };
        }
        out
    }

    /// Converts the genome into a [`MinimizationConfig`] (input bits and
    /// fine-tuning budget are supplied by the evaluation context).
    pub fn to_config(self) -> MinimizationConfig {
        let mut config = MinimizationConfig::default();
        if let Some(b) = self.weight_bits {
            config = config.with_weight_bits(b);
        }
        if let Some(s) = self.sparsity {
            config = config.with_sparsity(s);
        }
        if let Some(c) = self.clusters {
            config = config.with_clusters(c);
        }
        config
    }

    /// Stable key for deduplication within a GA population.
    pub fn key(&self) -> (u8, u32, usize) {
        (
            self.weight_bits.unwrap_or(0),
            self.sparsity.map(sparsity_millis).unwrap_or(u32::MAX),
            self.clusters.unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_genomes_stay_inside_the_space() {
        let space = GenomeSpace::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let g = Genome::random(&space, &mut rng);
            if let Some(b) = g.weight_bits {
                assert!(space.weight_bits.contains(&b));
            }
            if let Some(s) = g.sparsity {
                assert!(space.sparsities.contains(&s));
            }
            if let Some(c) = g.clusters {
                assert!(space.cluster_counts.contains(&c));
            }
        }
    }

    #[test]
    fn random_genomes_are_diverse() {
        let space = GenomeSpace::default();
        let mut rng = StdRng::seed_from_u64(2);
        let keys: std::collections::BTreeSet<_> = (0..100)
            .map(|_| Genome::random(&space, &mut rng).key())
            .collect();
        assert!(
            keys.len() > 20,
            "only {} distinct genomes out of 100",
            keys.len()
        );
    }

    #[test]
    fn crossover_only_mixes_parent_genes() {
        let a = Genome {
            weight_bits: Some(3),
            sparsity: Some(0.2),
            clusters: None,
        };
        let b = Genome {
            weight_bits: Some(6),
            sparsity: None,
            clusters: Some(4),
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let child = a.crossover(&b, &mut rng);
            assert!(child.weight_bits == a.weight_bits || child.weight_bits == b.weight_bits);
            assert!(child.sparsity == a.sparsity || child.sparsity == b.sparsity);
            assert!(child.clusters == a.clusters || child.clusters == b.clusters);
        }
    }

    #[test]
    fn zero_mutation_rate_is_identity() {
        let space = GenomeSpace::default();
        let mut rng = StdRng::seed_from_u64(4);
        let g = Genome::random(&space, &mut rng);
        assert_eq!(g.mutate(&space, 0.0, &mut rng), g);
    }

    #[test]
    fn full_mutation_rate_changes_something_eventually() {
        let space = GenomeSpace::default();
        let mut rng = StdRng::seed_from_u64(5);
        let g = Genome {
            weight_bits: Some(2),
            sparsity: Some(0.2),
            clusters: Some(2),
        };
        let changed = (0..20).any(|_| g.mutate(&space, 1.0, &mut rng) != g);
        assert!(changed);
    }

    #[test]
    fn to_config_round_trips_gene_values() {
        let g = Genome {
            weight_bits: Some(4),
            sparsity: Some(0.4),
            clusters: Some(3),
        };
        let c = g.to_config();
        assert_eq!(c.weight_bits, Some(4));
        assert_eq!(c.sparsity, Some(0.4));
        assert_eq!(c.clusters_per_input, Some(3));
        let b = Genome::baseline().to_config();
        assert!(b.is_baseline());
    }

    #[test]
    fn keys_distinguish_distinct_genomes() {
        let a = Genome {
            weight_bits: Some(4),
            sparsity: Some(0.4),
            clusters: Some(3),
        };
        let b = Genome {
            weight_bits: Some(4),
            sparsity: Some(0.4),
            clusters: Some(4),
        };
        let c = Genome::baseline();
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }
}
