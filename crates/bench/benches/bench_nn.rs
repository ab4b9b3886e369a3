//! Benchmarks one full GAN-style training step (forward + backward +
//! optimizer) on the autograd stack.

use criterion::{criterion_group, criterion_main, Criterion};
use kinet_nn::layers::{Activation, Mlp, MlpConfig};
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::Tape;
use kinet_tensor::{Matrix, MatrixRandomExt};
use rand::{rngs::StdRng, SeedableRng};

fn bench_training_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mlp = Mlp::new(
        &MlpConfig::new(96, &[128, 128], 1).with_activation(Activation::LeakyRelu(0.2)),
        &mut rng,
    );
    let mut opt = Adam::new(mlp.params(), 1e-3);
    let x = Matrix::randn(128, 96, 0.0, 1.0, &mut rng);
    let t = Matrix::zeros(128, 1);
    // One tape for every step, reset in between, as the trainers run it.
    let mut tape = Tape::new();
    c.bench_function("mlp_train_step_128x96", |bencher| {
        bencher.iter(|| {
            tape.reset();
            let out = mlp.forward(&tape, tape.constant(&x), true, &mut rng);
            let loss = out.bce_with_logits(&t);
            tape.backward(loss);
            opt.step();
            opt.zero_grad();
        });
    });
}

fn bench_inference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mlp = Mlp::new(
        &MlpConfig::new(96, &[128, 128], 1).with_activation(Activation::LeakyRelu(0.2)),
        &mut rng,
    );
    let x = Matrix::randn(512, 96, 0.0, 1.0, &mut rng);
    c.bench_function("mlp_infer_512x96", |bencher| {
        bencher.iter(|| std::hint::black_box(mlp.infer(&x)));
    });
}

criterion_group!(benches, bench_training_step, bench_inference);
criterion_main!(benches);
