//! 2-D convolution: forward and backward kernels built on im2col.
//!
//! The EDM U-Net is convolution-dominated (the paper's Figure 4 attributes
//! over 90% of compute to Conv+activation blocks), so these kernels carry
//! almost all of the model's arithmetic. The im2col lowering also mirrors how
//! the accelerator simulator lowers convolutions to GEMM workloads.

use crate::error::{Result, TensorError};
use crate::ops::matmul::{matmul, matmul_a_bt, matmul_at_b};
use crate::parallel;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Geometry of a 2-D convolution (square stride/padding, no dilation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dGeometry {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
}

impl Default for Conv2dGeometry {
    fn default() -> Self {
        Conv2dGeometry {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dGeometry {
    /// Geometry with the given stride and padding.
    pub fn new(stride: usize, padding: usize) -> Self {
        Conv2dGeometry { stride, padding }
    }

    /// "Same" padding for odd kernel size `k` at stride 1.
    pub fn same(k: usize) -> Self {
        Conv2dGeometry {
            stride: 1,
            padding: k / 2,
        }
    }

    /// Output spatial extent for an input extent and kernel extent.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvGeometry`] if the kernel does not
    /// fit in the padded input or the stride is zero.
    pub fn out_extent(&self, input: usize, kernel: usize) -> Result<usize> {
        if self.stride == 0 {
            return Err(TensorError::InvalidConvGeometry {
                reason: "stride must be nonzero".into(),
            });
        }
        let padded = input + 2 * self.padding;
        if kernel == 0 || kernel > padded {
            return Err(TensorError::InvalidConvGeometry {
                reason: format!("kernel {kernel} does not fit padded input {padded}"),
            });
        }
        Ok((padded - kernel) / self.stride + 1)
    }
}

/// Lowers an input feature map `[N, C, H, W]` into the im2col matrix
/// `[C*kh*kw, N*oh*ow]` for the given kernel size and geometry.
///
/// Column `((n*oh + oy)*ow + ox)` holds the receptive field of output pixel
/// `(oy, ox)` of batch element `n`, flattened in `(c, ky, kx)` order. This
/// matches the weight layout `[K, C*kh*kw]` used by [`conv2d`]. Rows of the
/// matrix are gathered independently, so they are distributed over the
/// worker pool; every matrix element is written exactly once, making the
/// result identical at any thread count.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or invalid geometry.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, geom: Conv2dGeometry) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let oh = geom.out_extent(h, kh)?;
    let ow = geom.out_extent(w, kw)?;
    let rows = c * kh * kw;
    let cols = n * oh * ow;
    let iv = input.as_slice();
    let mut out = vec![0.0f32; rows * cols];
    if rows > 0 && cols > 0 {
        parallel::par_chunks_mut(&mut out, cols, parallel::MOVE_WORK * cols, |row, o_row| {
            let cc = row / (kh * kw);
            let ky = (row / kw) % kh;
            let kx = row % kw;
            for nn in 0..n {
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let in_row = &iv[((nn * c + cc) * h + iy as usize) * w..][..w];
                    let o_base = (nn * oh + oy) * ow;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        o_row[o_base + ox] = in_row[ix as usize];
                    }
                }
            }
        });
    }
    Tensor::from_vec(out, [rows, cols])
}

/// Scatters an im2col matrix `[C*kh*kw, N*oh*ow]` back onto a feature map
/// `[N, C, H, W]`, accumulating overlapping contributions.
///
/// This is the adjoint of [`im2col`] and implements the input-gradient pass
/// of the convolution.
///
/// # Errors
///
/// Returns an error if the matrix shape is inconsistent with the geometry.
#[allow(clippy::too_many_arguments)] // mirrors im2col's full geometry tuple
pub fn col2im(
    cols_mat: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    geom: Conv2dGeometry,
) -> Result<Tensor> {
    let oh = geom.out_extent(h, kh)?;
    let ow = geom.out_extent(w, kw)?;
    let rows = c * kh * kw;
    let cols = n * oh * ow;
    if cols_mat.dims() != [rows, cols] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols_mat.dims().to_vec(),
            rhs: vec![rows, cols],
        });
    }
    let cv = cols_mat.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    // Scatter one (n, c) image plane per chunk: all contributions to a
    // plane come from its own channel's rows, so planes are independent,
    // and within a plane the (oy, ox, ky, kx) accumulation order matches
    // the serial loop — bitwise identical at any thread count.
    if n * c > 0 && h * w > 0 {
        let plane_work = parallel::MOVE_WORK * oh * ow * kh * kw;
        parallel::par_chunks_mut(&mut out, h * w, plane_work, |plane, o_plane| {
            let nn = plane / c;
            let cc = plane % c;
            for oy in 0..oh {
                for ox in 0..ow {
                    let col = (nn * oh + oy) * ow + ox;
                    for ky in 0..kh {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let row = (cc * kh + ky) * kw + kx;
                            o_plane[iy as usize * w + ix as usize] += cv[row * cols + col];
                        }
                    }
                }
            }
        });
    }
    Tensor::from_vec(out, [n, c, h, w])
}

/// 2-D convolution forward pass.
///
/// * `input`: `[N, C, H, W]`
/// * `weight`: `[K, C, kh, kw]`
/// * `bias`: optional `[K]`
///
/// Returns `[N, K, oh, ow]`.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
///
/// # Examples
///
/// ```
/// use sqdm_tensor::{Tensor, ops::{conv2d, Conv2dGeometry}};
/// # fn main() -> Result<(), sqdm_tensor::TensorError> {
/// let x = Tensor::ones([1, 1, 4, 4]);
/// let w = Tensor::ones([1, 1, 3, 3]);
/// let y = conv2d(&x, &w, None, Conv2dGeometry::same(3))?;
/// assert_eq!(y.dims(), &[1, 1, 4, 4]);
/// assert_eq!(y.get(&[0, 0, 1, 1])?, 9.0); // fully-overlapped window
/// # Ok(())
/// # }
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: Conv2dGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (k, wc, kh, kw) = weight.shape().as_nchw()?;
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
        });
    }
    if let Some(b) = bias {
        if b.dims() != [k] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d(bias)",
                lhs: b.dims().to_vec(),
                rhs: vec![k],
            });
        }
    }
    let oh = geom.out_extent(h, kh)?;
    let ow = geom.out_extent(w, kw)?;

    let cols = im2col(input, kh, kw, geom)?;
    let wmat = weight.reshape([k, c * kh * kw])?;
    // [K, C*kh*kw] x [C*kh*kw, N*oh*ow] -> [K, N*oh*ow]
    let prod = matmul(&wmat, &cols)?;

    // Re-lay out from [K, N*oh*ow] to [N, K, oh, ow] and add bias, one
    // (n, k) output plane per chunk.
    let pv = prod.as_slice();
    let mut out = vec![0.0f32; n * k * oh * ow];
    let spatial = oh * ow;
    if n * k > 0 && spatial > 0 {
        let plane_work = parallel::MOVE_WORK * spatial;
        parallel::par_chunks_mut(&mut out, spatial, plane_work, |plane, dst| {
            let nn = plane / k;
            let kk = plane % k;
            let b = bias.map(|b| b.as_slice()[kk]).unwrap_or(0.0);
            let src = &pv[kk * n * spatial + nn * spatial..kk * n * spatial + (nn + 1) * spatial];
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = s + b;
            }
        });
    }
    Tensor::from_vec(out, [n, k, oh, ow])
}

/// Multi-request 2-D convolution: applies one weight (and bias) to a
/// batch of independent inputs in a single [`conv2d`] call.
///
/// Each request `xs[i]` is `[Nᵢ, C, H, W]` over a shared spatial
/// geometry; the inputs are stacked along the batch axis, lowered and
/// multiplied once — one im2col, one weight reshape, one GEMM for the
/// whole batch — and the outputs are split back per request. Because the
/// convolution's im2col columns, GEMM reductions and bias epilogue are
/// all per-sample independent, each returned tensor is bitwise identical
/// to `conv2d(&xs[i], weight, bias, geom)` at any `SQDM_THREADS`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the requests disagree on
/// `[C, H, W]`, plus all [`conv2d`] error conditions.
pub fn conv2d_multi(
    xs: &[Tensor],
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: Conv2dGeometry,
) -> Result<Vec<Tensor>> {
    if xs.is_empty() {
        return Ok(Vec::new());
    }
    let (_, c, h, w) = xs[0].shape().as_nchw()?;
    let mut total_n = 0usize;
    for x in xs {
        let (nx, cx, hx, wx) = x.shape().as_nchw()?;
        if (cx, hx, wx) != (c, h, w) {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_multi",
                lhs: x.dims().to_vec(),
                rhs: xs[0].dims().to_vec(),
            });
        }
        total_n += nx;
    }
    let mut packed = Vec::with_capacity(total_n * c * h * w);
    for x in xs {
        packed.extend_from_slice(x.as_slice());
    }
    let packed = Tensor::from_vec(packed, [total_n, c, h, w])?;
    let y = conv2d(&packed, weight, bias, geom)?;
    let (_, k, oh, ow) = y.shape().as_nchw()?;
    let stride = k * oh * ow;
    let yv = y.as_slice();
    let mut results = Vec::with_capacity(xs.len());
    let mut row = 0usize;
    for x in xs {
        let nx = x.dims()[0];
        results.push(Tensor::from_vec(
            yv[row * stride..(row + nx) * stride].to_vec(),
            [nx, k, oh, ow],
        )?);
        row += nx;
    }
    Ok(results)
}

/// Gradients of a 2-D convolution.
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weight, `[K, C, kh, kw]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, `[K]`.
    pub grad_bias: Tensor,
}

/// 2-D convolution backward pass.
///
/// Given the upstream gradient `grad_out` of shape `[N, K, oh, ow]`, the
/// original `input` and `weight`, computes gradients for input, weight and
/// bias.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geom: Conv2dGeometry,
) -> Result<Conv2dGrads> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (k, wc, kh, kw) = weight.shape().as_nchw()?;
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
        });
    }
    let oh = geom.out_extent(h, kh)?;
    let ow = geom.out_extent(w, kw)?;
    if grad_out.dims() != [n, k, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward(grad_out)",
            lhs: grad_out.dims().to_vec(),
            rhs: vec![n, k, oh, ow],
        });
    }

    // Rearrange grad_out from [N, K, oh, ow] to the GEMM layout [K, N*oh*ow].
    let spatial = oh * ow;
    let gv = grad_out.as_slice();
    let mut gmat = vec![0.0f32; k * n * spatial];
    for nn in 0..n {
        for kk in 0..k {
            let src = &gv[(nn * k + kk) * spatial..(nn * k + kk + 1) * spatial];
            let dst =
                &mut gmat[kk * n * spatial + nn * spatial..kk * n * spatial + (nn + 1) * spatial];
            dst.copy_from_slice(src);
        }
    }
    let gmat = Tensor::from_vec(gmat, [k, n * spatial])?;

    // grad_weight = gmat x colsᵀ  -> [K, C*kh*kw]
    let cols = im2col(input, kh, kw, geom)?;
    let gw = matmul_a_bt(&gmat, &cols)?;
    let grad_weight = gw.reshape([k, c, kh, kw])?;

    // grad_input = col2im(wmatᵀ x gmat)
    let wmat = weight.reshape([k, c * kh * kw])?;
    let gcols = matmul_at_b(&wmat, &gmat)?; // [C*kh*kw, N*oh*ow]
    let grad_input = col2im(&gcols, n, c, h, w, kh, kw, geom)?;

    // grad_bias = per-output-channel sum of grad_out.
    let mut gb = vec![0.0f32; k];
    for nn in 0..n {
        for kk in 0..k {
            let src = &gv[(nn * k + kk) * spatial..(nn * k + kk + 1) * spatial];
            gb[kk] += src.iter().sum::<f32>();
        }
    }
    let grad_bias = Tensor::from_vec(gb, [k])?;

    Ok(Conv2dGrads {
        grad_input,
        grad_weight,
        grad_bias,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Direct convolution reference (no im2col), for cross-checking.
    fn conv2d_naive(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        geom: Conv2dGeometry,
    ) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw().unwrap();
        let (k, _, kh, kw) = weight.shape().as_nchw().unwrap();
        let oh = geom.out_extent(h, kh).unwrap();
        let ow = geom.out_extent(w, kw).unwrap();
        let mut out = Tensor::zeros([n, k, oh, ow]);
        for nn in 0..n {
            for kk in 0..k {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map(|b| b.as_slice()[kk]).unwrap_or(0.0);
                        for cc in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy =
                                        (oy * geom.stride + ky) as isize - geom.padding as isize;
                                    let ix =
                                        (ox * geom.stride + kx) as isize - geom.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.get(&[nn, cc, iy as usize, ix as usize]).unwrap()
                                        * weight.get(&[kk, cc, ky, kx]).unwrap();
                                }
                            }
                        }
                        out.set(&[nn, kk, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = Rng::seed_from(10);
        for (geom, n, c, k, h, w, kh) in [
            (Conv2dGeometry::new(1, 0), 1, 1, 1, 5, 5, 3),
            (Conv2dGeometry::same(3), 2, 3, 4, 6, 6, 3),
            (Conv2dGeometry::new(2, 1), 1, 2, 3, 8, 8, 3),
            (Conv2dGeometry::new(1, 0), 1, 2, 2, 4, 4, 1),
        ] {
            let x = Tensor::randn([n, c, h, w], &mut rng);
            let wt = Tensor::randn([k, c, kh, kh], &mut rng);
            let b = Tensor::randn([k], &mut rng);
            let fast = conv2d(&x, &wt, Some(&b), geom).unwrap();
            let slow = conv2d_naive(&x, &wt, Some(&b), geom);
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn multi_request_conv_matches_per_request_calls_bitwise() {
        let mut rng = Rng::seed_from(23);
        let geom = Conv2dGeometry::same(3);
        let wt = Tensor::randn([4, 3, 3, 3], &mut rng);
        let b = Tensor::randn([4], &mut rng);
        let xs = [
            Tensor::randn([1, 3, 6, 6], &mut rng),
            Tensor::randn([2, 3, 6, 6], &mut rng),
            Tensor::randn([1, 3, 6, 6], &mut rng),
        ];
        let batched = conv2d_multi(&xs, &wt, Some(&b), geom).unwrap();
        assert_eq!(batched.len(), xs.len());
        for (x, y) in xs.iter().zip(&batched) {
            let single = conv2d(x, &wt, Some(&b), geom).unwrap();
            assert_eq!(single.dims(), y.dims());
            for (a, c) in single.as_slice().iter().zip(y.as_slice()) {
                assert_eq!(a.to_bits(), c.to_bits());
            }
        }
        // Spatial mismatch across requests is rejected.
        let bad = [Tensor::zeros([1, 3, 6, 6]), Tensor::zeros([1, 3, 4, 4])];
        assert!(conv2d_multi(&bad, &wt, Some(&b), geom).is_err());
        assert!(conv2d_multi(&[], &wt, None, geom).unwrap().is_empty());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = Rng::seed_from(11);
        let geom = Conv2dGeometry::same(3);
        let x = Tensor::randn([1, 2, 4, 4], &mut rng);
        let wt = Tensor::randn([3, 2, 3, 3], &mut rng).scale(0.5);
        let b = Tensor::randn([3], &mut rng);

        // Loss = sum(conv(x)) so the upstream gradient is all-ones.
        let y = conv2d(&x, &wt, Some(&b), geom).unwrap();
        let gout = Tensor::ones(y.dims());
        let grads = conv2d_backward(&x, &wt, &gout, geom).unwrap();

        let eps = 1e-2f32;
        let loss = |x: &Tensor, wt: &Tensor, b: &Tensor| -> f32 {
            conv2d(x, wt, Some(b), geom).unwrap().sum()
        };

        // Spot-check a handful of coordinates in each gradient.
        for idx in [0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xp, &wt, &b) - loss(&xm, &wt, &b)) / (2.0 * eps);
            let an = grads.grad_input.as_slice()[idx];
            assert!((fd - an).abs() < 0.05, "input grad {idx}: fd={fd} an={an}");
        }
        for idx in [0usize, 5, 17, 53] {
            let mut wp = wt.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = wt.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            let an = grads.grad_weight.as_slice()[idx];
            assert!((fd - an).abs() < 0.05, "weight grad {idx}: fd={fd} an={an}");
        }
        for idx in 0..3 {
            let mut bp = b.clone();
            bp.as_mut_slice()[idx] += eps;
            let mut bm = b.clone();
            bm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&x, &wt, &bp) - loss(&x, &wt, &bm)) / (2.0 * eps);
            let an = grads.grad_bias.as_slice()[idx];
            assert!((fd - an).abs() < 0.05, "bias grad {idx}: fd={fd} an={an}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
        // property of an adjoint pair, which backprop correctness rests on.
        let mut rng = Rng::seed_from(12);
        let geom = Conv2dGeometry::new(2, 1);
        let (n, c, h, w, kh, kw) = (2, 3, 5, 5, 3, 3);
        let x = Tensor::randn([n, c, h, w], &mut rng);
        let cols = im2col(&x, kh, kw, geom).unwrap();
        let y = Tensor::randn(cols.dims(), &mut rng);
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im(&y, n, c, h, w, kh, kw, geom).unwrap();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn geometry_validation() {
        let g = Conv2dGeometry::new(1, 0);
        assert!(g.out_extent(2, 3).is_err());
        assert!(Conv2dGeometry::new(0, 0).out_extent(4, 3).is_err());
        assert_eq!(Conv2dGeometry::same(3).out_extent(7, 3).unwrap(), 7);
        assert_eq!(Conv2dGeometry::new(2, 1).out_extent(8, 3).unwrap(), 4);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let x = Tensor::zeros([1, 2, 4, 4]);
        let w = Tensor::zeros([3, 5, 3, 3]);
        assert!(conv2d(&x, &w, None, Conv2dGeometry::same(3)).is_err());
    }

    #[test]
    fn bias_shape_checked() {
        let x = Tensor::zeros([1, 1, 4, 4]);
        let w = Tensor::zeros([2, 1, 3, 3]);
        let bad_bias = Tensor::zeros([3]);
        assert!(conv2d(&x, &w, Some(&bad_bias), Conv2dGeometry::same(3)).is_err());
    }
}
