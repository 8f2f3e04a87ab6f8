//! How often one denoiser evaluation reaches the worker pool.
//!
//! Handing work to the pool costs a queue lock, a condvar wake and a
//! latch round trip, tens of microseconds of CPU, while a batch-1 kernel
//! of the `default` or `micro` U-Net finishes in a few microseconds to a
//! few tens. The pool's grain (`sqdm_tensor::parallel::GRAIN`) therefore
//! keeps a whole batch-1 int8 evaluation on the calling thread, and still
//! splits the GEMM panels of batch-4 serving. These tests count the
//! multi-task regions an evaluation opens to pin both sides.

use sqdm_edm::{block_ids, Denoiser, EdmSchedule, PackCache, RunConfig, UNet, UNetConfig};
use sqdm_quant::{BlockPrecision, ExecMode, PrecisionAssignment, QuantFormat};
use sqdm_tensor::ops::int::{qgemm_packed_multi, PackedQuantizedMatrix, QuantizedMatrix, XQuant};
use sqdm_tensor::parallel::{regions_opened, with_threads};
use sqdm_tensor::{Rng, Tensor};

fn int8_native() -> PrecisionAssignment {
    PrecisionAssignment::uniform(
        block_ids::COUNT,
        BlockPrecision::uniform(QuantFormat::int8()),
        "INT8",
    )
    .with_mode(ExecMode::NativeInt)
}

/// Regions opened by one int8-native evaluation of a `batch`-sample
/// input on two threads, after a warm-up evaluation has filled the pack
/// cache (the serving steady state).
fn regions_per_eval(cfg: UNetConfig, batch: usize) -> u64 {
    let mut net = UNet::new(cfg, &mut Rng::seed_from(7)).unwrap();
    let s = cfg.image_size;
    let x = Tensor::randn([batch, cfg.in_channels, s, s], &mut Rng::seed_from(11));
    let sigmas = vec![1.0f32; batch];
    let asg = int8_native();
    let packs = PackCache::new();
    let den = Denoiser::new(EdmSchedule::default());
    let mut eval = || {
        let mut rc = RunConfig {
            assignment: Some(&asg),
            batched: batch > 1,
            packs: Some(&packs),
            ..RunConfig::infer()
        };
        den.denoise(&mut net, &x, &sigmas, &mut rc).unwrap();
    };
    with_threads(2, || {
        eval();
        let before = regions_opened();
        eval();
        regions_opened() - before
    })
}

#[test]
fn batch_one_int8_evals_stay_on_the_calling_thread() {
    for (name, cfg) in [
        ("default", UNetConfig::default()),
        ("micro", UNetConfig::micro()),
    ] {
        assert_eq!(
            regions_per_eval(cfg, 1),
            0,
            "a b1 {name} eval dispatched work to the pool"
        );
    }
}

#[test]
fn batch_four_default_evals_still_split_gemm_panels() {
    let regions = regions_per_eval(UNetConfig::default(), 4);
    assert!(
        regions > 0,
        "a b4 default eval opened no pool region: batched serving lost its parallelism"
    );
}

#[test]
fn batch_four_gemm_of_a_default_site_splits_its_panels() {
    // The 12→12 3×3 conv of the `default` U-Net's 16×16 blocks, lowered:
    // [12, 108] weights times [108, batch · 256] activation codes.
    let (m, k, stripe) = (12usize, 108usize, 256usize);
    let code = |i: usize| (i.wrapping_mul(2_654_435_761) >> 9) as i8;
    let w =
        QuantizedMatrix::per_channel((0..m * k).map(code).collect(), m, k, vec![0.01; m]).unwrap();
    let pw = PackedQuantizedMatrix::pack(w);
    for (batch, want) in [(1usize, 0u64), (4, 2)] {
        let x: Vec<i8> = (0..k * stripe * batch).map(|i| code(i + 1)).collect();
        let xqs = vec![XQuant::symmetric(0.02); batch];
        let mut out = vec![0.0f32; m * stripe * batch];
        let regions = with_threads(2, || {
            let before = regions_opened();
            qgemm_packed_multi(&pw, &x, stripe, &xqs, &mut out).unwrap();
            regions_opened() - before
        });
        // At batch 4 both the activation pack and the GEMM panels split.
        assert_eq!(regions, want, "batch {batch}");
    }
}
