//! Batched-vs-single bitwise equivalence for the multi-request kernels.
//!
//! The batched entry points added for serving — `qgemm_multi`,
//! `qgemm_delta_multi`, `conv2d_i8_multi`, `matmul_a_bt_multi`,
//! `conv2d_multi` — promise that packing N independently quantized
//! requests into one kernel call is bitwise identical to N single-request
//! calls, at any `SQDM_THREADS`. These property tests pin that promise
//! over random shapes, scales, change masks and thread counts `{1, 2, 7}`.
//! The multi-thread runs use a one-unit grain (`with_grain`) so these
//! small shapes split, and check by counting regions that they did.

use proptest::prelude::*;
use sqdm_tensor::ops::int::{
    conv2d_i8, conv2d_i8_multi, qgemm, qgemm_delta, qgemm_delta_multi, qgemm_multi,
    QuantizedMatrix, XQuant,
};
use sqdm_tensor::ops::{conv2d, conv2d_multi, matmul_a_bt, matmul_a_bt_multi, Conv2dGeometry};
use sqdm_tensor::parallel::{regions_opened, with_grain, with_threads};
use sqdm_tensor::{Rng, Tensor};

const THREADS: [usize; 3] = [1, 2, 7];

/// Runs `f` on `threads` threads with every region of two or more chunks
/// split, returning its result and the multi-task regions it opened.
fn split<R>(threads: usize, f: impl FnOnce() -> R) -> (R, u64) {
    with_grain(1, || {
        with_threads(threads, || {
            let before = regions_opened();
            let r = f();
            (r, regions_opened() - before)
        })
    })
}

/// Deterministic pseudo-random i8 codes.
fn codes(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = Rng::seed_from(seed);
    (0..len)
        .map(|_| (rng.uniform() * 254.0 - 127.0) as i8)
        .collect()
}

fn weight(m: usize, k: usize, block_len: usize, seed: u64) -> QuantizedMatrix {
    let mut rng = Rng::seed_from(seed);
    let nb = if k == 0 { 0 } else { k.div_ceil(block_len) };
    let scales: Vec<f32> = (0..m * nb).map(|_| 0.001 + rng.uniform() * 0.02).collect();
    QuantizedMatrix::new(codes(m * k, seed ^ 0x9e37), m, k, scales, block_len).unwrap()
}

/// Packs per-request `[k, stripe]` code matrices side by side into the
/// striped `[k, requests · stripe]` layout.
fn pack_stripes(per: &[Vec<i8>], k: usize, stripe: usize) -> Vec<i8> {
    let n = stripe * per.len();
    let mut out = vec![0i8; k * n];
    for row in 0..k {
        for (r, p) in per.iter().enumerate() {
            out[row * n + r * stripe..row * n + (r + 1) * stripe]
                .copy_from_slice(&p[row * stripe..(row + 1) * stripe]);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn qgemm_multi_matches_single_request_calls(
        (m, k, stripe, reqs, block_len, seed) in
            (1usize..10, 1usize..12, 1usize..6, 1usize..4, 1usize..6, 0u64..1 << 32)
    ) {
        let w = weight(m, k, block_len, seed);
        let mut rng = Rng::seed_from(seed ^ 0xabcd);
        let xqs: Vec<XQuant> = (0..reqs)
            .map(|_| XQuant {
                scale: 0.005 + rng.uniform() * 0.1,
                zero_point: (rng.uniform() * 10.0 - 5.0) as i32,
            })
            .collect();
        let per: Vec<Vec<i8>> = (0..reqs)
            .map(|r| codes(k * stripe, seed ^ (r as u64 + 1)))
            .collect();
        let packed = pack_stripes(&per, k, stripe);
        let n = stripe * reqs;
        for t in THREADS {
            let ((), regions) = split(t, || {
                let mut batched = vec![0.0f32; m * n];
                qgemm_multi(&w, &packed, stripe, &xqs, &mut batched).unwrap();
                for (r, p) in per.iter().enumerate() {
                    let mut single = vec![0.0f32; m * stripe];
                    qgemm(&w, p, stripe, xqs[r], &mut single).unwrap();
                    for i in 0..m {
                        for j in 0..stripe {
                            assert_eq!(
                                batched[i * n + r * stripe + j].to_bits(),
                                single[i * stripe + j].to_bits(),
                                "request {r} ({i},{j}) at {t} threads"
                            );
                        }
                    }
                }
            });
            assert!(t == 1 || m * n < 2 || regions > 0, "{t} threads: no region split");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn qgemm_delta_multi_matches_single_stream_calls(
        (m, k, stripe, reqs, seed) in
            (1usize..8, 1usize..10, 1usize..5, 1usize..4, 0u64..1 << 32)
    ) {
        let w = weight(m, k, 4, seed);
        let mut rng = Rng::seed_from(seed ^ 0x1234);
        let xqs: Vec<XQuant> = (0..reqs)
            .map(|_| XQuant::symmetric(0.01 + rng.uniform() * 0.05))
            .collect();
        // Per-stream masks and code pairs: changed rows get fresh codes.
        let masks: Vec<Vec<bool>> = (0..reqs)
            .map(|_| (0..k).map(|_| rng.uniform() < 0.4).collect())
            .collect();
        let prev: Vec<Vec<i8>> = (0..reqs)
            .map(|r| codes(k * stripe, seed ^ (0x77 + r as u64)))
            .collect();
        let curr: Vec<Vec<i8>> = prev
            .iter()
            .zip(&masks)
            .map(|(p, mask)| {
                let mut c = p.clone();
                for (row, &ch) in mask.iter().enumerate() {
                    if ch {
                        for v in &mut c[row * stripe..(row + 1) * stripe] {
                            *v = v.wrapping_add(3);
                        }
                    }
                }
                c
            })
            .collect();
        let n = stripe * reqs;
        let packed_prev = pack_stripes(&prev, k, stripe);
        let packed_curr = pack_stripes(&curr, k, stripe);
        let flat_mask: Vec<bool> = masks.iter().flatten().copied().collect();
        let mut prev_out = vec![0.0f32; m * n];
        qgemm_multi(&w, &packed_prev, stripe, &xqs, &mut prev_out).unwrap();
        for t in THREADS {
            let ((), regions) = split(t, || {
                let mut batched = vec![0.0f32; m * n];
                qgemm_delta_multi(
                    &w, &packed_curr, &packed_prev, &flat_mask, stripe, &xqs, &prev_out,
                    &mut batched,
                )
                .unwrap();
                for r in 0..reqs {
                    let mut sprev = vec![0.0f32; m * stripe];
                    qgemm(&w, &prev[r], stripe, xqs[r], &mut sprev).unwrap();
                    let mut single = vec![0.0f32; m * stripe];
                    qgemm_delta(
                        &w, &curr[r], &prev[r], &masks[r], stripe, xqs[r], &sprev, &mut single,
                    )
                    .unwrap();
                    for i in 0..m {
                        for j in 0..stripe {
                            assert_eq!(
                                batched[i * n + r * stripe + j].to_bits(),
                                single[i * stripe + j].to_bits(),
                                "stream {r} ({i},{j}) at {t} threads"
                            );
                        }
                    }
                }
            });
            assert!(t == 1 || m < 2 || regions > 0, "{t} threads: no region split");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn conv2d_i8_multi_matches_per_sample_convs(
        (n, c, kout, hw, seed) in (1usize..4, 1usize..3, 1usize..4, 4usize..7, 0u64..1 << 32)
    ) {
        let geom = Conv2dGeometry::same(3);
        let red = c * 9;
        let mut rng = Rng::seed_from(seed ^ 0x55);
        let wq = QuantizedMatrix::per_channel(
            codes(kout * red, seed),
            kout,
            red,
            (0..kout).map(|_| 0.002 + rng.uniform() * 0.01).collect(),
        )
        .unwrap();
        let bias: Vec<f32> = (0..kout).map(|_| rng.uniform() * 2.0 - 1.0).collect();
        let xqs: Vec<XQuant> = (0..n)
            .map(|_| XQuant {
                scale: 0.01 + rng.uniform() * 0.05,
                zero_point: (rng.uniform() * 8.0 - 4.0) as i32,
            })
            .collect();
        let stride = c * hw * hw;
        let x = codes(n * stride, seed ^ 0x99);
        for t in THREADS {
            let ((), regions) = split(t, || {
                let batched =
                    conv2d_i8_multi(&x, n, c, hw, hw, &wq, 3, 3, Some(&bias), geom, &xqs).unwrap();
                for nn in 0..n {
                    let single = conv2d_i8(
                        &x[nn * stride..(nn + 1) * stride],
                        1,
                        c,
                        hw,
                        hw,
                        &wq,
                        3,
                        3,
                        Some(&bias),
                        geom,
                        xqs[nn],
                    )
                    .unwrap();
                    let per = single.len();
                    for (j, (a, b)) in batched.as_slice()[nn * per..(nn + 1) * per]
                        .iter()
                        .zip(single.as_slice())
                        .enumerate()
                    {
                        assert_eq!(a.to_bits(), b.to_bits(), "sample {nn} elem {j} at {t} threads");
                    }
                }
            });
            assert!(t == 1 || regions > 0, "{t} threads: no region split");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn f32_multi_entry_points_match_per_request_calls(
        (reqs, k, nout, hw, seed) in
            (1usize..4, 1usize..8, 1usize..6, 4usize..7, 0u64..1 << 32)
    ) {
        let mut rng = Rng::seed_from(seed);
        let b = Tensor::randn([nout, k], &mut rng);
        let xs: Vec<Tensor> = (0..reqs)
            .map(|_| {
                let rows = 1 + (rng.uniform() * 3.0) as usize;
                Tensor::randn([rows, k], &mut rng)
            })
            .collect();
        let wt = Tensor::randn([2, 2, 3, 3], &mut rng);
        let bias = Tensor::randn([2], &mut rng);
        let convs: Vec<Tensor> = (0..reqs)
            .map(|_| Tensor::randn([1, 2, hw, hw], &mut rng))
            .collect();
        for t in THREADS {
            let ((), regions) = split(t, || {
                let gemms = matmul_a_bt_multi(&xs, &b).unwrap();
                for (x, y) in xs.iter().zip(&gemms) {
                    let single = matmul_a_bt(x, &b).unwrap();
                    assert_eq!(single.dims(), y.dims());
                    for (a, c) in single.as_slice().iter().zip(y.as_slice()) {
                        assert_eq!(a.to_bits(), c.to_bits(), "gemm at {t} threads");
                    }
                }
                let geom = Conv2dGeometry::same(3);
                let outs = conv2d_multi(&convs, &wt, Some(&bias), geom).unwrap();
                for (x, y) in convs.iter().zip(&outs) {
                    let single = conv2d(x, &wt, Some(&bias), geom).unwrap();
                    for (a, c) in single.as_slice().iter().zip(y.as_slice()) {
                        assert_eq!(a.to_bits(), c.to_bits(), "conv at {t} threads");
                    }
                }
            });
            assert!(t == 1 || regions > 0, "{t} threads: no region split");
        }
    }
}
