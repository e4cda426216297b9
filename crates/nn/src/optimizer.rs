//! The Adam optimizer every training run uses.
//!
//! [`Adam::step`] turns one layer's raw gradient into the parameter *update*
//! that [`crate::mlp::Mlp::apply_updates`] then subtracts from its
//! parameters.

use crate::layer::LayerGradient;
use crate::matrix::Matrix;

/// Decay rate of the first-moment (mean) estimate.
const BETA1: f32 = 0.9;
/// Decay rate of the second-moment (uncentered variance) estimate.
const BETA2: f32 = 0.999;
/// Added to the update's denominator to keep it away from zero.
const EPSILON: f32 = 1e-8;

/// Adam optimizer (Kingma & Ba, 2015) with bias correction and the standard
/// hyper-parameters.
///
/// The moment buffers are indexed by the layer's position, so one optimizer
/// instance must only ever be used with a single network.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: u64,
    first_moment: Vec<Option<LayerGradient>>,
    second_moment: Vec<Option<LayerGradient>>,
}

impl Adam {
    /// Creates an Adam optimizer with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            t: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// Transforms the raw gradient of layer `layer_index` into the update
    /// that will be subtracted from the parameters.
    pub fn step(&mut self, layer_index: usize, gradient: &LayerGradient) -> LayerGradient {
        if self.first_moment.len() <= layer_index {
            self.first_moment.resize(layer_index + 1, None);
            self.second_moment.resize(layer_index + 1, None);
        }
        // Advance the timestep only once per epoch-step of layer 0 so that all
        // layers in one backward pass share the same bias correction.
        if layer_index == 0 {
            self.t += 1;
        }
        let t = self.t.max(1) as f32;

        // Moment buffers are updated in place (hot path: one step per layer
        // per batch); the arithmetic matches the textbook formulation
        // exactly, element by element.
        if self.first_moment[layer_index].is_none() {
            self.first_moment[layer_index] = Some(LayerGradient {
                weights: Matrix::zeros(gradient.weights.rows(), gradient.weights.cols()),
                biases: vec![0.0; gradient.biases.len()],
            });
            self.second_moment[layer_index] = Some(LayerGradient {
                weights: Matrix::zeros(gradient.weights.rows(), gradient.weights.cols()),
                biases: vec![0.0; gradient.biases.len()],
            });
        }
        let m = self.first_moment[layer_index]
            .as_mut()
            .expect("adam m initialized");
        let v = self.second_moment[layer_index]
            .as_mut()
            .expect("adam v initialized");
        assert_eq!(
            m.weights.shape(),
            gradient.weights.shape(),
            "adam moment shape drift"
        );

        for (m, &g) in m
            .weights
            .as_mut_slice()
            .iter_mut()
            .zip(gradient.weights.as_slice())
        {
            *m = BETA1 * *m + (1.0 - BETA1) * g;
        }
        for (m, &g) in m.biases.iter_mut().zip(gradient.biases.iter()) {
            *m = BETA1 * *m + (1.0 - BETA1) * g;
        }
        for (v, &g) in v
            .weights
            .as_mut_slice()
            .iter_mut()
            .zip(gradient.weights.as_slice())
        {
            *v = BETA2 * *v + (g * g) * (1.0 - BETA2);
        }
        for (v, &g) in v.biases.iter_mut().zip(gradient.biases.iter()) {
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
        }

        let bias1 = 1.0 - BETA1.powf(t);
        let bias2 = 1.0 - BETA2.powf(t);
        let lr = self.lr;
        let adamize = |(m, v): (&f32, &f32)| -> f32 {
            let m_hat = m / bias1;
            let v_hat = v / bias2;
            lr * m_hat / (v_hat.sqrt() + EPSILON)
        };

        let update_weights = Matrix::from_vec(
            gradient.weights.rows(),
            gradient.weights.cols(),
            m.weights
                .as_slice()
                .iter()
                .zip(v.weights.as_slice())
                .map(adamize)
                .collect(),
        )
        .expect("adam update shape");
        let update_biases: Vec<f32> = m.biases.iter().zip(v.biases.iter()).map(adamize).collect();

        LayerGradient {
            weights: update_weights,
            biases: update_biases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(value: f32) -> LayerGradient {
        LayerGradient {
            weights: Matrix::filled(2, 2, value),
            biases: vec![value; 2],
        }
    }

    #[test]
    fn adam_first_step_is_close_to_learning_rate() {
        // With bias correction, the very first Adam update has magnitude ~lr
        // regardless of gradient scale.
        let mut opt = Adam::new(0.01);
        let update = opt.step(0, &gradient(5.0));
        assert!((update.weights.get(0, 0) - 0.01).abs() < 1e-3);
        let mut opt2 = Adam::new(0.01);
        let update2 = opt2.step(0, &gradient(0.001));
        assert!((update2.weights.get(0, 0) - 0.01).abs() < 1e-3);
    }

    #[test]
    fn adam_update_sign_follows_gradient_sign() {
        let mut opt = Adam::new(0.01);
        let grad = LayerGradient {
            weights: Matrix::filled(1, 1, -3.0),
            biases: vec![-3.0],
        };
        let update = opt.step(0, &grad);
        assert!(update.weights.get(0, 0) < 0.0);
        assert!(update.biases[0] < 0.0);
    }
}
