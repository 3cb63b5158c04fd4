//! Micro-benchmarks of the tensor kernels behind local training: matrix
//! multiplication, 2-D convolution (the paper's 5×5 'same' convolutions)
//! and max pooling — each timed the way the training arena drives it, into
//! buffers held across iterations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedadmm_tensor::{init, ops, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = SmallRng::seed_from_u64(0);
    for &n in &[32usize, 64, 128] {
        let a = init::randn(&[n, n], 0.0, 1.0, &mut rng);
        let b = init::randn(&[n, n], 0.0, 1.0, &mut rng);
        let mut out = Tensor::zeros(&[0]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| ops::gemm_into(black_box(&a), black_box(&b), &mut out).unwrap())
        });
    }
    group.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_5x5_same");
    group.sample_size(10);
    let mut rng = SmallRng::seed_from_u64(1);
    // One MNIST-shaped batch through the paper's first CNN 1 convolution
    // (1→32 channels) and one CIFAR-shaped batch through CNN 2's (3→32).
    let cases = [
        ("mnist_batch8_1to32", 8usize, 1usize, 28usize, 32usize),
        ("cifar_batch8_3to32", 8, 3, 32, 32),
    ];
    for (name, batch, in_c, hw, out_c) in cases {
        let input = init::randn(&[batch, in_c, hw, hw], 0.0, 1.0, &mut rng);
        let weight = init::randn(&[out_c, in_c, 5, 5], 0.0, 0.1, &mut rng);
        let bias = Tensor::zeros(&[out_c]);
        let mut scratch = ops::Conv2dScratch::default();
        let mut out = Tensor::zeros(&[0]);
        group.bench_function(format!("forward_{name}"), |bench| {
            bench.iter(|| {
                ops::conv2d_forward_into(
                    black_box(&input),
                    black_box(&weight),
                    &bias,
                    1,
                    2,
                    &mut scratch,
                    &mut out,
                )
                .unwrap()
            })
        });
        let mut grad_weight = Tensor::zeros(weight.dims());
        let mut grad_bias = Tensor::zeros(&[out_c]);
        let mut grad_input = Tensor::zeros(&[0]);
        group.bench_function(format!("backward_{name}"), |bench| {
            bench.iter(|| {
                ops::conv2d_backward_into(
                    black_box(&input),
                    black_box(&weight),
                    &out,
                    1,
                    2,
                    &mut scratch,
                    &mut grad_weight,
                    &mut grad_bias,
                    &mut grad_input,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_pooling(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let input = init::randn(&[8, 32, 28, 28], 0.0, 1.0, &mut rng);
    let mut out = Tensor::zeros(&[0]);
    let mut argmax = Vec::new();
    c.bench_function("max_pool2d_2x2_batch8x32x28x28", |bench| {
        bench.iter(|| {
            ops::max_pool2d_forward_into(black_box(&input), 2, 2, &mut out, &mut argmax).unwrap()
        })
    });
}

criterion_group!(benches, bench_matmul, bench_conv2d, bench_pooling);
criterion_main!(benches);
