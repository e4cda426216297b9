//! Glorot/Xavier-uniform weight initialization, the one scheme the
//! pipeline's dense layers start from.

use crate::matrix::Matrix;
use rand::Rng;

/// Draws a `fan_in x fan_out` weight matrix from
/// `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`, one sample per
/// entry in row-major order.
pub(crate) fn xavier_uniform<R: Rng + ?Sized>(
    fan_in: usize,
    fan_out: usize,
    rng: &mut R,
) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut m = Matrix::zeros(fan_in, fan_out);
    for w in m.as_mut_slice() {
        *w = rng.gen_range(-limit..=limit);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let bound = (6.0_f32 / 30.0).sqrt();
        for _ in 0..3 {
            let m = xavier_uniform(10, 20, &mut rng);
            for &w in m.as_slice() {
                assert!(w.abs() <= bound + 1e-6, "{w} exceeds bound {bound}");
            }
        }
    }

    #[test]
    fn matrix_has_requested_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = xavier_uniform(7, 3, &mut rng);
        assert_eq!(m.shape(), (7, 3));
    }

    #[test]
    fn same_seed_gives_same_matrix() {
        let a = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(9));
        let b = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_matrices() {
        let a = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(1));
        let b = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
    }
}
