//! Scalar non-linear activation functions and their derivatives.
//!
//! The SiLU-vs-ReLU comparison is central to the paper (§III-B): SiLU's small
//! negative tail forces signed quantization and near-zero sparsity, while
//! ReLU permits unsigned formats and clamps ~65% of activations to exact
//! zero.

use crate::parallel;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// The activation functions used by the EDM U-Net blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (no non-linearity).
    Identity,
    /// SiLU / swish: `x * sigmoid(x)`. Output range `[-0.278…, +inf)`.
    Silu,
    /// Rectified linear unit: `max(x, 0)`. Output range `[0, +inf)`.
    Relu,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Silu => x * sigmoid(x),
            Activation::Relu => x.max(0.0),
        }
    }

    /// Derivative of the activation at `x` (pre-activation value).
    ///
    /// For ReLU the derivative at exactly 0 is taken as 0, the usual
    /// subgradient convention.
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Silu => {
                let s = sigmoid(x);
                s + x * s * (1.0 - s)
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Applies the activation element-wise to a tensor, in parallel over
    /// the worker pool for large tensors (elementwise work is trivially
    /// order-preserving, so results are identical at any thread count).
    pub fn forward(self, x: &Tensor) -> Tensor {
        let mut out = x.clone();
        parallel::par_map_inplace(out.as_mut_slice(), self.work_per_elem(), move |v| {
            self.apply(v)
        });
        out
    }

    /// Element-wise `grad_out * f'(x)` for backprop, parallel like
    /// [`Activation::forward`].
    ///
    /// # Errors
    ///
    /// Returns a shape-mismatch error if the tensors differ in shape.
    pub fn backward(self, x: &Tensor, grad_out: &Tensor) -> crate::error::Result<Tensor> {
        if x.shape() != grad_out.shape() {
            // Delegate to zip_with for the canonical shape-mismatch error.
            return grad_out.zip_with(x, |g, v| g * self.derivative(v));
        }
        let mut out = grad_out.clone();
        parallel::par_zip_inplace(
            out.as_mut_slice(),
            x.as_slice(),
            self.work_per_elem(),
            |g, v| g * self.derivative(v),
        );
        Ok(out)
    }

    /// Worker-pool work units per element of a forward or backward sweep:
    /// SiLU evaluates an `exp`, the others only move the element.
    fn work_per_elem(self) -> usize {
        match self {
            Activation::Silu => parallel::EXP_WORK,
            Activation::Identity | Activation::Relu => parallel::MOVE_WORK,
        }
    }

    /// Global minimum of the activation's output range.
    ///
    /// SiLU attains `min ≈ -0.2785` (at `x ≈ -1.2785`); ReLU and identity
    /// outputs are bounded below by 0 and -inf respectively.
    pub fn output_min(self) -> f32 {
        match self {
            Activation::Identity => f32::NEG_INFINITY,
            Activation::Silu => SILU_MIN,
            Activation::Relu => 0.0,
        }
    }

    /// Whether outputs are guaranteed non-negative (enabling unsigned
    /// quantization formats).
    pub fn is_non_negative(self) -> bool {
        matches!(self, Activation::Relu)
    }
}

/// The global minimum of SiLU, `min_x x·σ(x) ≈ -0.27846`.
pub const SILU_MIN: f32 = -0.278_464_54;

/// Numerically-stable logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silu_values() {
        assert_eq!(Activation::Silu.apply(0.0), 0.0);
        assert!((Activation::Silu.apply(1.0) - 0.731_058_6).abs() < 1e-5);
        // The documented global minimum is attained near x = -1.2785.
        let min = (-300..300)
            .map(|i| Activation::Silu.apply(i as f32 / 100.0))
            .fold(f32::INFINITY, f32::min);
        assert!((min - SILU_MIN).abs() < 1e-3, "min {min}");
    }

    #[test]
    fn relu_clamps_negatives_to_exact_zero() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
        assert!(Activation::Relu.is_non_negative());
        assert!(!Activation::Silu.is_non_negative());
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in [Activation::Identity, Activation::Silu, Activation::Relu] {
            for x in [-2.0f32, -0.5, 0.3, 1.7] {
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let an = act.derivative(x);
                assert!((fd - an).abs() < 1e-2, "{act:?} at {x}: fd={fd} an={an}");
            }
        }
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn tensor_forward_backward() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = Activation::Relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let g = Activation::Relu
            .backward(&x, &Tensor::from_slice(&[1.0, 1.0, 1.0]))
            .unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_induces_sparsity_silu_does_not() {
        // Standard-normal pre-activations: ReLU zeroes ~half, SiLU none.
        let mut rng = crate::rng::Rng::seed_from(77);
        let x = Tensor::randn([1000], &mut rng);
        let relu_sparsity = Activation::Relu.forward(&x).sparsity();
        let silu_sparsity = Activation::Silu.forward(&x).sparsity();
        assert!(relu_sparsity > 0.4, "relu {relu_sparsity}");
        assert!(silu_sparsity < 0.01, "silu {silu_sparsity}");
    }
}
