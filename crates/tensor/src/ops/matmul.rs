//! Dense matrix multiplication kernels.
//!
//! All three variants (`a×b`, `aᵀ×b`, `a×bᵀ`) reduce to one shared
//! row-blocked i-k-j core ([`gemm_rows`]): the transposed operands are
//! packed into row-major layout once, then every output row is produced by
//! the same inner loop. That gives the variants identical cache behavior
//! *and* identical floating-point semantics — per output element the
//! reduction always runs over `k` in ascending order, which is what makes
//! the worker-pool parallelism bitwise-deterministic at any thread count.
//!
//! These kernels are strictly dense: every operand element participates,
//! so non-finite values propagate exactly as IEEE 754 dictates (`0 × NaN =
//! NaN`, `0 × ∞ = NaN`). Sparsity-aware zero skipping is the business of
//! the quantization/accelerator layers (`sqdm-quant`, `sqdm-accel`), not
//! of the dense reference kernels.

use crate::arena;
use crate::error::{Result, TensorError};
use crate::ops::blocking;
use crate::parallel;
use crate::tensor::Tensor;

/// The shared GEMM core: `out[i, :] += Σ_k lhs[i, k] · rhs[k, :]` with
/// `lhs` `[m, k]` and `rhs` `[k, n]`, both row-major, `out` zeroed on
/// entry.
///
/// Rows of `out` are distributed over the worker pool in contiguous
/// blocks; each row's reduction runs over `k` in ascending order on
/// exactly one thread, so the result is bitwise identical to the serial
/// i-k-j loop for every thread count.
///
/// Task sizing comes from the shared [`blocking`] heuristic; the loop
/// itself stays untiled on purpose — see the module docs of
/// [`blocking`](crate::ops::blocking) for why the broadcast-form f32 core
/// does not take the panel/tile advice the integer kernels use.
fn gemm_rows(lhs: &[f32], rhs: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(rhs.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    parallel::par_chunks_mut(out, n, blocking::gemm_task_work(k, n), |i, o_row| {
        let a_row = &lhs[i * k..(i + 1) * k];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            let b_row = &rhs[kk * n..(kk + 1) * n];
            for (o, &b_kj) in o_row.iter_mut().zip(b_row.iter()) {
                *o += a_ik * b_kj;
            }
        }
    });
}

/// Packs the transpose of a row-major `[rows, cols]` slice into a new
/// row-major `[cols, rows]` buffer, in parallel for large matrices.
fn pack_transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(src.len(), rows * cols);
    let mut out = arena::take_zeroed::<f32>(src.len());
    if rows == 0 || cols == 0 {
        return out;
    }
    parallel::par_chunks_mut(&mut out, rows, parallel::MOVE_WORK * rows, |j, o_row| {
        for (i, o) in o_row.iter_mut().enumerate() {
            *o = src[i * cols + j];
        }
    });
    out
}

fn check_rank2(op: &'static str, a: &Tensor, b: &Tensor) -> Result<()> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: if a.rank() != 2 { a.rank() } else { b.rank() },
        });
    }
    Ok(())
}

/// Multiplies two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
///
/// The kernel is a cache-friendly i-k-j loop over contiguous rows,
/// row-parallelized over the [`crate::parallel`] worker pool; it is the
/// workhorse behind `conv2d` (via im2col), the linear layers and attention.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2 and
/// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use sqdm_tensor::{Tensor, ops::matmul};
/// # fn main() -> Result<(), sqdm_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
/// assert_eq!(matmul(&a, &i)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_rank2("matmul", a, b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = arena::take_zeroed::<f32>(m * n);
    gemm_rows(a.as_slice(), b.as_slice(), &mut out, m, k, n);
    Tensor::from_vec(out, [m, n])
}

/// Multiplies `aᵀ × b`: `[k, m]ᵀ × [k, n] → [m, n]`.
///
/// `a` is packed into row-major `[m, k]` once and fed to the same blocked
/// core as [`matmul`], so the two share one inner loop and one set of
/// floating-point semantics.
///
/// # Errors
///
/// Same conditions as [`matmul`], with the inner dimension taken from the
/// *first* axis of both operands.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_rank2("matmul_at_b", a, b)?;
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let at = pack_transpose(a.as_slice(), k, m);
    let mut out = arena::take_zeroed::<f32>(m * n);
    gemm_rows(&at, b.as_slice(), &mut out, m, k, n);
    arena::recycle(at);
    Tensor::from_vec(out, [m, n])
}

/// Multiplies `a × bᵀ`: `[m, k] × [n, k]ᵀ → [m, n]`.
///
/// `b` is packed into row-major `[k, n]` once and fed to the same blocked
/// core as [`matmul`] — previously this variant used its own j-inner
/// dot-product loop with different cache behavior (and different
/// zero-skip semantics) from its siblings.
///
/// # Errors
///
/// Same conditions as [`matmul`], with the inner dimension taken from the
/// *second* axis of both operands.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_rank2("matmul_a_bt", a, b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let bt = pack_transpose(b.as_slice(), n, k);
    let mut out = arena::take_zeroed::<f32>(m * n);
    gemm_rows(a.as_slice(), &bt, &mut out, m, k, n);
    arena::recycle(bt);
    Tensor::from_vec(out, [m, n])
}

/// Multi-request `a × bᵀ`: applies one shared right-hand operand to a
/// batch of row blocks in a single GEMM call.
///
/// Each request `xs[i]` is `[mᵢ, k]`; the row blocks are stacked into one
/// `[Σmᵢ, k]` operand, `b` (`[n, k]`) is packed into row-major `[k, n]`
/// **once** for the whole batch, and one [`matmul_a_bt`]-shaped GEMM
/// produces all outputs. This is the f32 batched-serving entry point: the
/// transpose pack of the (weight) operand is amortized across requests
/// and the worker pool sees `Σmᵢ` rows instead of `mᵢ` at a time.
///
/// Because every output element's reduction runs over `k` in ascending
/// order on exactly one thread, each returned `[mᵢ, n]` tensor is bitwise
/// identical to `matmul_a_bt(&xs[i], b)` at any `SQDM_THREADS`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`]/[`TensorError::ShapeMismatch`]
/// if any request is not rank 2 or disagrees with `b` on the reduction
/// length.
pub fn matmul_a_bt_multi(xs: &[Tensor], b: &Tensor) -> Result<Vec<Tensor>> {
    let (n, _, total_rows) = check_a_bt_multi(xs, b)?;
    let mut out = arena::take_zeroed::<f32>(total_rows * n);
    matmul_a_bt_multi_into(xs, b, &mut out)?;
    let mut results = Vec::with_capacity(xs.len());
    let mut row = 0usize;
    for x in xs {
        let m = x.dims()[0];
        let mut chunk = arena::take::<f32>(m * n);
        chunk.extend_from_slice(&out[row * n..(row + m) * n]);
        results.push(Tensor::from_vec(chunk, [m, n])?);
        row += m;
    }
    arena::recycle(out);
    Ok(results)
}

/// [`matmul_a_bt_multi`] writing into caller-owned storage: `out` must
/// hold exactly `Σmᵢ · n` elements and receives the stacked `[Σmᵢ, n]`
/// result (request `i`'s rows at offset `Σ_{j<i} mⱼ · n`), fully
/// overwritten. The zero-allocation serving path's f32 GEMM entry.
///
/// # Errors
///
/// Same conditions as [`matmul_a_bt_multi`], plus
/// [`TensorError::ShapeMismatch`] if `out` has the wrong length.
pub fn matmul_a_bt_multi_into(xs: &[Tensor], b: &Tensor, out: &mut [f32]) -> Result<()> {
    let (n, k, total_rows) = check_a_bt_multi(xs, b)?;
    if out.len() != total_rows * n {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt_multi(out)",
            lhs: vec![out.len()],
            rhs: vec![total_rows, n],
        });
    }
    let mut lhs = arena::take::<f32>(total_rows * k);
    for x in xs {
        lhs.extend_from_slice(x.as_slice());
    }
    let bt = pack_transpose(b.as_slice(), n, k);
    out.fill(0.0);
    gemm_rows(&lhs, &bt, out, total_rows, k, n);
    arena::recycle(lhs);
    arena::recycle(bt);
    Ok(())
}

/// Shared shape validation for the `matmul_a_bt_multi*` entries: returns
/// `(n, k, Σmᵢ)`.
fn check_a_bt_multi(xs: &[Tensor], b: &Tensor) -> Result<(usize, usize, usize)> {
    let (n, k) = match b.dims() {
        [n, k] => (*n, *k),
        _ => {
            return Err(TensorError::RankMismatch {
                op: "matmul_a_bt_multi",
                expected: 2,
                actual: b.rank(),
            })
        }
    };
    let mut total_rows = 0usize;
    for x in xs {
        check_rank2("matmul_a_bt_multi", x, b)?;
        if x.dims()[1] != k {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_a_bt_multi",
                lhs: x.dims().to_vec(),
                rhs: b.dims().to_vec(),
            });
        }
        total_rows += x.dims()[0];
    }
    Ok((n, k, total_rows))
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the input is not rank 2.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "transpose",
            expected: 2,
            actual: a.rank(),
        });
    }
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let out = pack_transpose(a.as_slice(), m, n);
    Tensor::from_vec(out, [n, m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.get(&[i, kk]).unwrap() * b.get(&[kk, j]).unwrap();
                }
                out.set(&[i, j], acc).unwrap();
            }
        }
        out
    }

    #[test]
    fn matches_naive_reference() {
        let mut rng = Rng::seed_from(1);
        for (m, k, n) in [(1, 1, 1), (3, 4, 5), (7, 2, 9), (8, 8, 8)] {
            let a = Tensor::randn([m, k], &mut rng);
            let b = Tensor::randn([k, n], &mut rng);
            let fast = matmul(&a, &b).unwrap();
            let slow = naive(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = Rng::seed_from(2);
        let a = Tensor::randn([4, 6], &mut rng);
        let b = Tensor::randn([4, 5], &mut rng);
        let via_t = matmul(&transpose(&a).unwrap(), &b).unwrap();
        let direct = matmul_at_b(&a, &b).unwrap();
        for (x, y) in via_t.as_slice().iter().zip(direct.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }

        let c = Tensor::randn([3, 6], &mut rng);
        let via_t2 = matmul(&a, &transpose(&c).unwrap()).unwrap();
        let direct2 = matmul_a_bt(&a, &c).unwrap();
        for (x, y) in via_t2.as_slice().iter().zip(direct2.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros([3])).is_err());
        assert!(transpose(&Tensor::zeros([3])).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let mut eye = Tensor::zeros([3, 3]);
        for i in 0..3 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        assert_eq!(matmul(&a, &eye).unwrap(), a);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn([5, 7], &mut rng);
        assert_eq!(transpose(&transpose(&a).unwrap()).unwrap(), a);
    }

    /// Regression for the zero-skip bug: `if a_ik == 0.0 { continue; }`
    /// silently masked NaN/Inf in the other operand, violating `0 × NaN =
    /// NaN` and making the variants disagree on non-finite inputs.
    #[test]
    fn zero_times_nan_propagates_in_all_variants() {
        // a's first row is exactly zero where b's first row holds the
        // non-finite values, so the old skip would have hidden them.
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], [2, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 1.0, 1.0], [2, 2]).unwrap();

        let y = matmul(&a, &b).unwrap();
        // out[0, 0] = 0·NaN + 1·1 and out[0, 1] = 0·∞ + 1·1: both NaN.
        assert!(y.get(&[0, 0]).unwrap().is_nan());
        assert!(y.get(&[0, 1]).unwrap().is_nan());
        // Rows without a zero-masked non-finite stay finite or propagate ∞.
        assert!(y.get(&[1, 0]).unwrap().is_nan()); // 2·NaN + 3·1

        let y_atb = matmul_at_b(&transpose(&a).unwrap(), &b).unwrap();
        let y_abt = matmul_a_bt(&a, &transpose(&b).unwrap()).unwrap();
        for (via, name) in [(y_atb, "matmul_at_b"), (y_abt, "matmul_a_bt")] {
            for (lhs, rhs) in y.as_slice().iter().zip(via.as_slice()) {
                assert!(
                    lhs.to_bits() == rhs.to_bits() || (lhs.is_nan() && rhs.is_nan()),
                    "{name} disagrees with matmul on non-finite input: {lhs} vs {rhs}"
                );
            }
        }
    }

    #[test]
    fn infinity_times_zero_is_nan_not_zero() {
        // The mirrored case: zero in *b*, non-finite in *a*.
        let a = Tensor::from_vec(vec![f32::INFINITY, 2.0], [1, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 1.0, 1.0, 1.0], [2, 2]).unwrap();
        let y = matmul(&a, &b).unwrap();
        assert!(y.get(&[0, 0]).unwrap().is_nan()); // ∞·0 + 2·1
        assert!(y.get(&[0, 1]).unwrap().is_infinite()); // ∞·1 + 2·1
    }

    #[test]
    fn nan_row_poisons_only_its_own_output_row() {
        let a = Tensor::from_vec(vec![f32::NAN, 0.0, 0.0, 1.0], [2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let y = matmul(&a, &b).unwrap();
        assert!(y.get(&[0, 0]).unwrap().is_nan());
        assert!(y.get(&[0, 1]).unwrap().is_nan());
        assert_eq!(y.get(&[1, 0]).unwrap(), 3.0);
        assert_eq!(y.get(&[1, 1]).unwrap(), 4.0);
    }

    #[test]
    fn multi_request_gemm_matches_per_request_calls_bitwise() {
        let mut rng = Rng::seed_from(9);
        let b = Tensor::randn([6, 5], &mut rng);
        let xs = [
            Tensor::randn([3, 5], &mut rng),
            Tensor::randn([1, 5], &mut rng),
            Tensor::randn([4, 5], &mut rng),
        ];
        let batched = matmul_a_bt_multi(&xs, &b).unwrap();
        assert_eq!(batched.len(), xs.len());
        for (x, y) in xs.iter().zip(&batched) {
            let single = matmul_a_bt(x, &b).unwrap();
            assert_eq!(single.dims(), y.dims());
            for (a, c) in single.as_slice().iter().zip(y.as_slice()) {
                assert_eq!(a.to_bits(), c.to_bits());
            }
        }
        // Reduction-length mismatch is rejected.
        assert!(matmul_a_bt_multi(&[Tensor::zeros([2, 4])], &b).is_err());
        assert!(matmul_a_bt_multi(&[], &b).unwrap().is_empty());
    }

    #[test]
    fn empty_inner_dimension_yields_zeros() {
        let a = Tensor::zeros([3, 0]);
        let b = Tensor::zeros([0, 4]);
        let y = matmul(&a, &b).unwrap();
        assert_eq!(y.dims(), &[3, 4]);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(
            matmul_a_bt(&a, &Tensor::zeros([4, 0])).unwrap().dims(),
            &[3, 4]
        );
        assert_eq!(
            matmul_at_b(&Tensor::zeros([0, 3]), &b).unwrap().dims(),
            &[3, 4]
        );
    }
}
