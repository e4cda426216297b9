//! The Adam optimizer every training run uses.
//!
//! [`Adam::step`] updates every layer of the network in place from the
//! gradients the training step left in its buffers: one pass per parameter
//! array fuses the moment updates, the bias-corrected step and the
//! subtraction.

use crate::layer::{DenseLayer, LayerBuffers};
use crate::mlp::Mlp;

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
#[derive(Debug)]
pub(crate) struct Adam {
    lr: f32,
    t: u64,
    moments: Vec<Moments>,
}

/// The first (`m`) and second (`v`) moment estimates of one layer.
#[derive(Debug)]
struct Moments {
    m_weights: Vec<f32>,
    v_weights: Vec<f32>,
    m_biases: Vec<f32>,
    v_biases: Vec<f32>,
}

impl Moments {
    fn zeros(layer: &DenseLayer) -> Self {
        Moments {
            m_weights: vec![0.0; layer.weight_count()],
            v_weights: vec![0.0; layer.weight_count()],
            m_biases: vec![0.0; layer.outputs()],
            v_biases: vec![0.0; layer.outputs()],
        }
    }
}

impl Adam {
    /// Creates an Adam optimizer with learning rate `lr`.
    pub(crate) fn new(lr: f32) -> Self {
        Adam {
            lr,
            t: 0,
            moments: Vec::new(),
        }
    }

    /// One optimizer step over the whole network, from the parameter
    /// gradients in `buffers` (one per layer, as [`Mlp::gradients`] left
    /// them). The timestep advances once, before the first layer updates,
    /// so every layer shares one bias correction.
    ///
    /// # Panics
    ///
    /// Panics when a gradient's size does not match its layer's parameters.
    pub(crate) fn step(&mut self, mlp: &mut Mlp, buffers: &[LayerBuffers]) {
        if self.moments.len() != mlp.layers().len() {
            self.moments = mlp.layers().iter().map(Moments::zeros).collect();
        }
        self.t += 1;
        let t = self.t as f32;
        let bias1 = 1.0 - BETA1.powf(t);
        let bias2 = 1.0 - BETA2.powf(t);
        let lr = self.lr;
        for ((layer, buffers), moments) in mlp
            .layers_mut()
            .iter_mut()
            .zip(buffers)
            .zip(&mut self.moments)
        {
            assert!(
                buffers.grad_weights.len() == moments.m_weights.len()
                    && buffers.grad_biases.len() == moments.m_biases.len(),
                "adam moment shape drift"
            );
            update(
                layer.weights_mut().as_mut_slice(),
                buffers.grad_weights.as_slice(),
                &mut moments.m_weights,
                &mut moments.v_weights,
                [lr, bias1, bias2],
                |g| (g * g) * (1.0 - BETA2),
            );
            update(
                layer.biases_mut(),
                &buffers.grad_biases,
                &mut moments.m_biases,
                &mut moments.v_biases,
                [lr, bias1, bias2],
                |g| (1.0 - BETA2) * g * g,
            );
        }
    }
}

/// The fused in-place Adam update of one parameter array. `second_moment`
/// is the increment `(1 - BETA2) * g * g` of the second moment, passed in
/// because the weights and the biases associate its product differently
/// (both orders are kept as they were, so trained models stay
/// bit-identical).
#[inline(always)]
fn update(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    [lr, bias1, bias2]: [f32; 3],
    second_moment: impl Fn(f32) -> f32,
) {
    for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
        *m = BETA1 * *m + (1.0 - BETA1) * g;
        *v = BETA2 * *v + second_moment(g);
        let m_hat = *m / bias1;
        let v_hat = *v / bias2;
        *p -= lr * m_hat / (v_hat.sqrt() + EPSILON);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::matrix::Matrix;

    /// A one-layer network with zero parameters and buffers holding the
    /// gradient `value` for every parameter.
    fn zero_network_with_gradient(value: f32) -> (Mlp, Vec<LayerBuffers>) {
        let layer =
            DenseLayer::from_parameters(Matrix::zeros(2, 2), vec![0.0; 2], Activation::Identity)
                .unwrap();
        let mut buffers = LayerBuffers::default();
        buffers.grad_weights = Matrix::filled(2, 2, value);
        buffers.grad_biases = vec![value; 2];
        (Mlp::from_layers(vec![layer]).unwrap(), vec![buffers])
    }

    #[test]
    fn adam_first_step_is_close_to_learning_rate() {
        // With bias correction, the very first Adam update has magnitude ~lr
        // regardless of gradient scale.
        for value in [5.0, 0.001] {
            let (mut mlp, buffers) = zero_network_with_gradient(value);
            Adam::new(0.01).step(&mut mlp, &buffers);
            let update = -mlp.layers()[0].weights().get(0, 0);
            assert!((update - 0.01).abs() < 1e-3, "gradient {value}: {update}");
        }
    }

    #[test]
    fn adam_update_sign_follows_gradient_sign() {
        let (mut mlp, buffers) = zero_network_with_gradient(-3.0);
        Adam::new(0.01).step(&mut mlp, &buffers);
        // A negative gradient is a negative update, so the parameters grow.
        assert!(mlp.layers()[0].weights().get(0, 0) > 0.0);
        assert!(mlp.layers()[0].biases()[0] > 0.0);
    }
}
