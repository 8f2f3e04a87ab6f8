//! Serial-vs-parallel microbenchmarks for the worker-pool kernel layer.
//!
//! Each benchmark runs the same kernel twice: once pinned to one thread
//! (`with_threads(1, ..)`, today's serial baseline) and once on the
//! default pool (`SQDM_THREADS` or the machine's available parallelism).
//! Because the pool is bitwise-deterministic, the two compute the exact
//! same bits — only the wall-clock should differ. The headline target is
//! the 256×256×256 matmul: ≥3× over serial on 4 cores. On a single-core
//! host the "parallel" numbers simply match the serial ones.
//!
//! The `dispatch_*` groups measure what the pool's grain
//! (`sqdm_tensor::parallel::GRAIN`) trades off: the round trip of an
//! empty two-task region, and the int8 convolution of a `default` U-Net
//! site (12→12 channels, 3×3, 16×16) at batch 1 and 4: serial, on the
//! pool at the real grain, and on the pool at a 4096-unit grain (the
//! former value), which splits every pass of this conv.

use criterion::{criterion_group, criterion_main, Criterion};
use sqdm_tensor::ops::int::{
    conv2d_i8_packed_into, PackedQuantizedMatrix, QuantizedMatrix, XQuant,
};
use sqdm_tensor::ops::{conv2d, conv2d_backward, matmul, softmax_rows, Conv2dGeometry};
use sqdm_tensor::parallel::{current_threads, par_join, with_grain, with_threads};
use sqdm_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::Duration;

fn bench_matmul_256(c: &mut Criterion) {
    let mut rng = Rng::seed_from(1);
    let a = Tensor::randn([256, 256], &mut rng);
    let b = Tensor::randn([256, 256], &mut rng);
    let threads = current_threads();
    let mut group = c.benchmark_group("matmul_256x256x256");
    group.bench_function("serial_1t", |bch| {
        bch.iter(|| with_threads(1, || matmul(black_box(&a), black_box(&b)).unwrap()))
    });
    group.bench_function(format!("parallel_{threads}t"), |bch| {
        bch.iter(|| matmul(black_box(&a), black_box(&b)).unwrap())
    });
    group.finish();
}

fn bench_conv_parallel(c: &mut Criterion) {
    let mut rng = Rng::seed_from(2);
    let x = Tensor::randn([2, 16, 32, 32], &mut rng);
    let w = Tensor::randn([16, 16, 3, 3], &mut rng);
    let geom = Conv2dGeometry::same(3);
    let y = conv2d(&x, &w, None, geom).unwrap();
    let gout = Tensor::ones(y.dims());
    let threads = current_threads();

    let mut group = c.benchmark_group("conv2d_fwd_16ch_32px");
    group.bench_function("serial_1t", |bch| {
        bch.iter(|| {
            with_threads(1, || {
                conv2d(black_box(&x), black_box(&w), None, geom).unwrap()
            })
        })
    });
    group.bench_function(format!("parallel_{threads}t"), |bch| {
        bch.iter(|| conv2d(black_box(&x), black_box(&w), None, geom).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("conv2d_bwd_16ch_32px");
    group.bench_function("serial_1t", |bch| {
        bch.iter(|| {
            with_threads(1, || {
                conv2d_backward(black_box(&x), black_box(&w), black_box(&gout), geom).unwrap()
            })
        })
    });
    group.bench_function(format!("parallel_{threads}t"), |bch| {
        bch.iter(|| conv2d_backward(black_box(&x), black_box(&w), black_box(&gout), geom).unwrap())
    });
    group.finish();
}

fn bench_softmax_parallel(c: &mut Criterion) {
    let mut rng = Rng::seed_from(3);
    let x = Tensor::randn([512, 512], &mut rng);
    let threads = current_threads();
    let mut group = c.benchmark_group("softmax_512x512");
    group.bench_function("serial_1t", |bch| {
        bch.iter(|| with_threads(1, || softmax_rows(black_box(&x)).unwrap()))
    });
    group.bench_function(format!("parallel_{threads}t"), |bch| {
        bch.iter(|| softmax_rows(black_box(&x)).unwrap())
    });
    group.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_empty_region");
    let empty = || par_join(|| black_box(1u32), || black_box(2u32));
    group.bench_function("serial_1t", |bch| bch.iter(|| with_threads(1, empty)));
    group.bench_function("pool_2t", |bch| bch.iter(|| with_threads(2, empty)));
    group.finish();

    // One 3×3 conv site of the `default` U-Net on the int8 engine, with a
    // cached weight pack as in serving.
    let (ch, px) = (12usize, 16usize);
    let red = ch * 9;
    let code = |i: usize| ((i.wrapping_mul(2_654_435_761) >> 7) % 255) as i32 as i8;
    let wq =
        QuantizedMatrix::per_channel((0..ch * red).map(code).collect(), ch, red, vec![0.01; ch])
            .unwrap();
    let pw = PackedQuantizedMatrix::pack(wq);
    let geom = Conv2dGeometry::same(3);
    let threads = current_threads();
    for batch in [1usize, 4] {
        let x: Vec<i8> = (0..batch * ch * px * px).map(|i| code(i + 5)).collect();
        let xqs = vec![XQuant::symmetric(0.02); batch];
        let mut out = vec![0.0f32; batch * ch * px * px];
        let mut conv = || {
            conv2d_i8_packed_into(&pw, &x, batch, ch, px, px, 3, 3, None, geom, &xqs, &mut out)
                .unwrap()
        };
        let mut group = c.benchmark_group(format!("dispatch_conv_i8_12ch_16px_b{batch}"));
        group.bench_function("serial_1t", |bch| bch.iter(|| with_threads(1, &mut conv)));
        group.bench_function(format!("pool_{threads}t"), |bch| bch.iter(&mut conv));
        group.bench_function(format!("pool_{threads}t_grain4096"), |bch| {
            bch.iter(|| with_grain(4096, &mut conv))
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    targets = bench_matmul_256, bench_conv_parallel, bench_softmax_parallel, bench_dispatch
}
criterion_main!(benches);
