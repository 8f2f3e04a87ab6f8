//! Softmax and related reductions over the last axis.
//!
//! Used by the EDM attention block (`enc.16x16_block_1`-style image
//! self-attention in the paper's Figure 2).

use crate::arena;
use crate::error::{Result, TensorError};
use crate::parallel;
use crate::tensor::Tensor;

/// Row-wise softmax over the last axis of a rank-2 tensor.
///
/// Numerically stabilized by subtracting the row maximum before
/// exponentiation. Rows are independent, so they are distributed over the
/// worker pool in contiguous blocks; each row is reduced serially, making
/// the result bitwise identical at any thread count.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the input is not rank 2 or
/// [`TensorError::InvalidArgument`] if the last axis is empty.
///
/// # Examples
///
/// ```
/// use sqdm_tensor::{Tensor, ops::softmax_rows};
/// # fn main() -> Result<(), sqdm_tensor::TensorError> {
/// let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], [2, 2])?;
/// let y = softmax_rows(&x)?;
/// assert!((y.get(&[0, 0])? - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn softmax_rows(x: &Tensor) -> Result<Tensor> {
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows",
            expected: 2,
            actual: x.rank(),
        });
    }
    let (m, n) = (x.dims()[0], x.dims()[1]);
    if n == 0 {
        return Err(TensorError::InvalidArgument {
            op: "softmax_rows",
            reason: "last axis is empty".into(),
        });
    }
    let xv = x.as_slice();
    let mut out = arena::take_zeroed::<f32>(m * n);
    parallel::par_chunks_mut(&mut out, n, parallel::EXP_WORK * n, |i, orow| {
        let row = &xv[i * n..(i + 1) * n];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0f32;
        for (o, &v) in orow.iter_mut().zip(row.iter()) {
            *o = (v - max).exp();
            sum += *o;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    });
    Tensor::from_vec(out, [m, n])
}

/// Backward pass of [`softmax_rows`].
///
/// Given `y = softmax(x)` and the upstream gradient `grad_out`, returns
/// `grad_x[i, j] = y[i, j] * (grad_out[i, j] - Σ_k grad_out[i, k] y[i, k])`.
///
/// # Errors
///
/// Returns a shape-mismatch error if `y` and `grad_out` differ in shape.
pub fn softmax_rows_backward(y: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
    if y.shape() != grad_out.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_rows_backward",
            lhs: y.dims().to_vec(),
            rhs: grad_out.dims().to_vec(),
        });
    }
    if y.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows_backward",
            expected: 2,
            actual: y.rank(),
        });
    }
    let (m, n) = (y.dims()[0], y.dims()[1]);
    let yv = y.as_slice();
    let gv = grad_out.as_slice();
    let mut out = arena::take_zeroed::<f32>(m * n);
    if n > 0 {
        parallel::par_chunks_mut(&mut out, n, parallel::MOVE_WORK * n, |i, orow| {
            let yrow = &yv[i * n..(i + 1) * n];
            let grow = &gv[i * n..(i + 1) * n];
            let dot: f32 = yrow.iter().zip(grow.iter()).map(|(a, b)| a * b).sum();
            for ((o, &yy), &gg) in orow.iter_mut().zip(yrow.iter()).zip(grow.iter()) {
                *o = yy * (gg - dot);
            }
        });
    }
    Tensor::from_vec(out, [m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn rows_sum_to_one() {
        let mut rng = Rng::seed_from(20);
        let x = Tensor::randn([5, 9], &mut rng).scale(3.0);
        let y = softmax_rows(&x).unwrap();
        for i in 0..5 {
            let s: f32 = (0..9).map(|j| y.get(&[i, j]).unwrap()).sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn stable_for_large_inputs() {
        let x = Tensor::from_vec(vec![1000.0, 1000.0, -1000.0], [1, 3]).unwrap();
        let y = softmax_rows(&x).unwrap();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert!((y.get(&[0, 0]).unwrap() - 0.5).abs() < 1e-5);
        assert!(y.get(&[0, 2]).unwrap() < 1e-6);
    }

    #[test]
    fn shift_invariance() {
        let x = Tensor::from_vec(vec![0.1, 0.7, -0.3], [1, 3]).unwrap();
        let shifted = x.map(|v| v + 5.0);
        let a = softmax_rows(&x).unwrap();
        let b = softmax_rows(&shifted).unwrap();
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = Rng::seed_from(21);
        let x = Tensor::randn([2, 4], &mut rng);
        let y = softmax_rows(&x).unwrap();
        let gout = Tensor::randn([2, 4], &mut rng);
        let grad = softmax_rows_backward(&y, &gout).unwrap();

        let eps = 1e-3f32;
        let loss = |x: &Tensor| -> f32 {
            softmax_rows(x)
                .unwrap()
                .as_slice()
                .iter()
                .zip(gout.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        for idx in 0..8 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let an = grad.as_slice()[idx];
            assert!((fd - an).abs() < 1e-2, "idx {idx}: fd={fd} an={an}");
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(softmax_rows(&Tensor::zeros([3])).is_err());
        assert!(softmax_rows(&Tensor::zeros([2, 0])).is_err());
        let y = Tensor::zeros([2, 3]);
        assert!(softmax_rows_backward(&y, &Tensor::zeros([3, 2])).is_err());
    }
}
