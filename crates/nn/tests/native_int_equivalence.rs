//! NativeInt ↔ FakeQuant equivalence for the layer executors.
//!
//! For formats whose fake-quant path quantizes at the same granularity the
//! integer engine executes (per-channel weights, per-tensor activations —
//! INT8, INT4), the two paths compute the *same* requantized sum and may
//! differ only in floating-point rounding: fake-quant rounds each
//! dequantized product and partial sum, the native path accumulates
//! exactly in i32 and rounds at the one requantization multiply. The
//! elementwise gap is therefore bounded by one ULP of the requantization
//! rounding per accumulation step — `(k + 8) · ε · Σ|a·b|` — and for
//! power-of-two scales every intermediate is exact, so the paths must
//! match **bitwise**.
//!
//! Each property also pins the worker-pool contract: the native engine is
//! bitwise identical across `SQDM_THREADS ∈ {1, 2, 7}`. The multi-thread
//! runs use a one-unit grain (`with_grain`) so these small layers split,
//! and check by counting regions that they did.

use proptest::prelude::*;
use sqdm_nn::layers::{Conv2d, Linear};
use sqdm_nn::QuantExecutor;
use sqdm_quant::{BlockPrecision, ExecMode, Granularity, IntGrid, QuantFormat, ScaleEncoding};
use sqdm_tensor::ops::{conv2d, matmul_a_bt, Conv2dGeometry};
use sqdm_tensor::parallel::{regions_opened, with_grain, with_threads};
use sqdm_tensor::{Rng, Tensor};

/// Thread counts the determinism contract is checked against.
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

/// Per-channel INT8 with power-of-two scales: the exact-arithmetic case.
fn int8_pow2() -> QuantFormat {
    QuantFormat {
        grid: IntGrid::signed(8),
        granularity: Granularity::PerChannel,
        scale_encoding: ScaleEncoding::PowerOfTwo,
        name: "INT8-POW2",
    }
}

/// The f32-scale formats whose granularity the engine matches exactly.
fn aligned_formats() -> [QuantFormat; 2] {
    [QuantFormat::int8(), QuantFormat::int4()]
}

fn assert_close(native: &Tensor, fake: &Tensor, amax: &Tensor, k: usize, what: &str) {
    assert_eq!(native.dims(), fake.dims(), "{what}: shape");
    let tol_step = (k as f32 + 8.0) * f32::EPSILON;
    for ((&a, &b), &m) in native
        .as_slice()
        .iter()
        .zip(fake.as_slice())
        .zip(amax.as_slice())
    {
        let tol = tol_step * (m + 1e-6);
        assert!(
            (a - b).abs() <= tol,
            "{what}: native {a} vs fake {b} (tol {tol})"
        );
    }
}

fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
    let ab: Vec<u32> = a.as_slice().iter().map(|v| v.to_bits()).collect();
    let bb: Vec<u32> = b.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(ab, bb, "{what}: not bitwise equal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn linear_native_matches_fake_quant(
        (batch, inf, outf, seed) in (1usize..6, 1usize..48, 1usize..9, 0u64..1 << 32)
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut lin = Linear::new(inf, outf, &mut rng);
        lin.bias.value = Tensor::randn([outf], &mut rng);
        let x = Tensor::randn([batch, inf], &mut rng);

        for fmt in aligned_formats() {
            let exec = QuantExecutor::new(BlockPrecision::uniform(fmt));
            let fake = exec.linear_forward(&lin, &x).unwrap();
            let nexec = exec.with_mode(ExecMode::NativeInt);
            let native = with_threads(1, || nexec.linear_forward(&lin, &x).unwrap());

            // |fake_x| · |fake_w|ᵀ + |bias|: the accumulation magnitude
            // that scales the rounding bound.
            let xa = exec.quant_activation_2d(&x).unwrap().map(f32::abs);
            let wa = exec.quant_weight(&lin.weight.value).unwrap().map(f32::abs);
            let mut amax = matmul_a_bt(&xa, &wa).unwrap();
            let bv: Vec<f32> = lin.bias.value.as_slice().iter().map(|b| b.abs()).collect();
            let av = amax.as_mut_slice();
            for i in 0..batch {
                for (j, &b) in bv.iter().enumerate() {
                    av[i * outf + j] += b;
                }
            }
            assert_close(&native, &fake, &amax, inf, fmt.name);

            // Bitwise determinism at every thread count.
            for t in THREADS {
                let (par, regions) = split(t, || nexec.linear_forward(&lin, &x).unwrap());
                assert!(t == 1 || regions > 0, "{t} threads: linear never split");
                assert_bitwise(&native, &par, fmt.name);
            }
        }

        // Power-of-two scales: exact arithmetic, bitwise equality.
        let exec = QuantExecutor::new(BlockPrecision::uniform(int8_pow2()));
        let fake = exec.linear_forward(&lin, &x).unwrap();
        let native = exec
            .with_mode(ExecMode::NativeInt)
            .linear_forward(&lin, &x)
            .unwrap();
        assert_bitwise(&native, &fake, "INT8-POW2 linear");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn conv_native_matches_fake_quant(
        (n, c, kout, hw, stride, seed) in
            (1usize..3, 1usize..4, 1usize..4, 4usize..9, 1usize..3, 0u64..1 << 32)
    ) {
        let geom = Conv2dGeometry::new(stride, 1);
        let mut rng = Rng::seed_from(seed);
        let mut conv = Conv2d::new(c, kout, 3, geom, &mut rng);
        conv.bias.value = Tensor::randn([kout], &mut rng);
        let x = Tensor::randn([n, c, hw, hw], &mut rng);
        let k_red = c * 9;

        for fmt in aligned_formats() {
            let exec = QuantExecutor::new(BlockPrecision::uniform(fmt));
            let fake = exec.conv_forward(&conv, &x).unwrap();
            let nexec = exec.with_mode(ExecMode::NativeInt);
            let native = with_threads(1, || nexec.conv_forward(&conv, &x).unwrap());

            let xa = exec.quant_activation(&x).unwrap().map(f32::abs);
            let wa = exec.quant_weight(&conv.weight.value).unwrap().map(f32::abs);
            let ba = conv.bias.value.map(f32::abs);
            let amax = conv2d(&xa, &wa, Some(&ba), geom).unwrap();
            assert_close(&native, &fake, &amax, k_red, fmt.name);

            for t in THREADS {
                let (par, regions) = split(t, || nexec.conv_forward(&conv, &x).unwrap());
                assert!(t == 1 || regions > 0, "{t} threads: conv never split");
                assert_bitwise(&native, &par, fmt.name);
            }
        }

        let exec = QuantExecutor::new(BlockPrecision::uniform(int8_pow2()));
        let fake = exec.conv_forward(&conv, &x).unwrap();
        let native = exec
            .with_mode(ExecMode::NativeInt)
            .conv_forward(&conv, &x)
            .unwrap();
        assert_bitwise(&native, &fake, "INT8-POW2 conv");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn attention_native_projections_match_fake_quant(
        (n, c, hw, seed) in (1usize..3, 2usize..6, 2usize..5, 0u64..1 << 32)
    ) {
        use sqdm_nn::layers::SelfAttention2d;
        let mut rng = Rng::seed_from(seed);
        let attn = SelfAttention2d::new(c, &mut rng);
        let x = Tensor::randn([n, c, hw, hw], &mut rng);

        // Power-of-two INT8: projections are exact on both paths, but the
        // f32 attention math (softmax) between them is only approximately
        // shared — the projections feeding it are identical, so the whole
        // block output is identical.
        let exec = QuantExecutor::new(BlockPrecision::uniform(int8_pow2()));
        let fake = exec.attention_forward(&attn, &x).unwrap();
        let nexec = exec.with_mode(ExecMode::NativeInt);
        let native = nexec.attention_forward(&attn, &x).unwrap();
        assert_bitwise(&native, &fake, "INT8-POW2 attention");

        for t in THREADS {
            let (par, regions) = split(t, || nexec.attention_forward(&attn, &x).unwrap());
            assert!(t == 1 || regions > 0, "{t} threads: attention never split");
            assert_bitwise(&native, &par, "attention thread determinism");
        }
    }
}
