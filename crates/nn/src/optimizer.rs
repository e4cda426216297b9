//! The Adam optimizer every training run uses.
//!
//! [`Adam::step`] updates every layer of the network in place from the
//! gradients the training step left in its buffers: one pass per parameter
//! array fuses the moment updates, the bias-corrected step and the
//! subtraction.
//!
//! A moment whose gradient stays zero (a dead hidden unit's) decays into
//! the subnormal range and, under round-to-nearest, stays there, so every
//! later step would do slow subnormal arithmetic on it.
//! [`Adam::flush_subnormals`] zeroes such moments; the trainer calls it once
//! per epoch, not per step, because only long runs reach the subnormal range
//! (the fine-tunes' few hundred steps per stage never do) and a select in
//! the per-step update slows every fine-tune.

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

    /// Sets every subnormal moment to `+0.0`; NaN and infinities pass
    /// through.
    ///
    /// The trained parameters do not move in practice, though not by
    /// construction: a flushed second moment's bias-corrected square root
    /// (below 3.4e-18) vanishes against [`EPSILON`], and a flushed first
    /// moment shifts a step by less than `lr` × 1.2e-29 (1.2e-31 at the
    /// learning rate of 0.01), which rounds away unless the parameter's
    /// magnitude is below about 2e-24.
    pub(crate) fn flush_subnormals(&mut self) {
        for moments in &mut self.moments {
            for array in [
                &mut moments.m_weights,
                &mut moments.v_weights,
                &mut moments.m_biases,
                &mut moments.v_biases,
            ] {
                for value in array.iter_mut() {
                    if value.abs() < f32::MIN_POSITIVE {
                        *value = 0.0;
                    }
                }
            }
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
        let buffers = LayerBuffers {
            grad_weights: Matrix::filled(2, 2, value),
            grad_biases: vec![value; 2],
            ..LayerBuffers::default()
        };
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

    /// Every moment of `adam`: per layer, the weights' first and second
    /// moments, then the biases'.
    fn moments(adam: &Adam) -> Vec<f32> {
        adam.moments
            .iter()
            .flat_map(|m| [&m.m_weights, &m.v_weights, &m.m_biases, &m.v_biases])
            .flatten()
            .copied()
            .collect()
    }

    fn parameter_bits(mlp: &Mlp) -> Vec<u32> {
        let layer = &mlp.layers()[0];
        let parameters = layer.weights().as_slice().iter().chain(layer.biases());
        parameters.map(|p| p.to_bits()).collect()
    }

    #[test]
    fn flush_zeroes_exactly_the_subnormal_moments_and_keeps_the_parameters() {
        // One real gradient (one bias's negative), then 800 zero gradients,
        // as a unit that dies after its first step sees: the first moments
        // decay by BETA1 per step into the subnormal range and stick there,
        // the second moments decay by BETA2 and stay normal.
        let (mut mlp, mut gradient) = zero_network_with_gradient(1e-3);
        gradient[0].grad_biases[1] = -1e-3;
        let (_, zero) = zero_network_with_gradient(0.0);
        let mut adam = Adam::new(0.01);
        let (mut unflushed_mlp, _) = zero_network_with_gradient(0.0);
        let mut unflushed = Adam::new(0.01);
        let mut step_both = |buffers: &[LayerBuffers], adam: &mut Adam| {
            adam.step(&mut mlp, buffers);
            unflushed.step(&mut unflushed_mlp, buffers);
        };
        for buffers in std::iter::once(&gradient).chain(std::iter::repeat_n(&zero, 800)) {
            step_both(buffers, &mut adam);
        }
        let before = moments(&adam);
        assert!(
            before
                .iter()
                .any(|m| m.is_subnormal() && m.is_sign_negative())
                && before.iter().any(|m| m.is_normal()),
            "the test needs subnormal and normal moments: {before:?}"
        );

        adam.flush_subnormals();
        for (old, new) in before.iter().zip(moments(&adam)) {
            let expected = if old.is_subnormal() { 0.0 } else { *old };
            assert_eq!(
                new.to_bits(),
                expected.to_bits(),
                "{old:e} flushed to {new:e}"
            );
        }

        // More dead steps, then a live one: the parameters never part from
        // an unflushed run's.
        for buffers in std::iter::repeat_n(&zero, 100).chain([&gradient]) {
            step_both(buffers, &mut adam);
        }
        assert_eq!(parameter_bits(&mlp), parameter_bits(&unflushed_mlp));

        // NaN, the infinities and the smallest normal value pass through.
        let layer = &mut adam.moments[0];
        layer.m_weights[0] = f32::NAN;
        layer.v_weights[0] = f32::INFINITY;
        layer.m_biases[0] = f32::NEG_INFINITY;
        layer.v_biases[0] = f32::MIN_POSITIVE;
        adam.flush_subnormals();
        let layer = &adam.moments[0];
        assert!(layer.m_weights[0].is_nan());
        assert_eq!(
            [layer.v_weights[0], layer.m_biases[0], layer.v_biases[0]],
            [f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE]
        );
    }
}
