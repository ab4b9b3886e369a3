//! Property-based gradient verification: for randomly generated small
//! graphs, the analytic gradients from the reverse pass must match central
//! finite differences. This is the strongest correctness guarantee the
//! autograd engine has.

use kinet_nn::{gradient_check, Param, Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Runs one forward pass of the op under test and returns the scalar loss.
/// `op` selects which composite graph to build.
fn forward(op: usize, p: &Param, x: &Matrix, t: &Matrix, backward: bool) -> f32 {
    let tape = Tape::new();
    let w = tape.param(p);
    let xc = tape.constant(x);
    let out = match op {
        0 => xc.matmul(w).tanh(),
        1 => xc.matmul(w).sigmoid(),
        2 => xc.matmul(w).relu(),
        3 => xc.matmul(w).leaky_relu(0.1),
        4 => xc.matmul(w).softmax(),
        5 => xc.matmul(w).exp().scale(0.01),
        6 => {
            let h = xc.matmul(w);
            h.mul(h).add_scalar(1.0).sqrt()
        }
        7 => {
            let h = xc.matmul(w);
            h.add_scalar(5.0).ln()
        }
        _ => {
            let h = xc.matmul(w);
            let mu = h.mean_rows();
            h.sub_row(mu)
        }
    };
    let loss = out.mse(t);
    if backward {
        tape.backward(loss);
    }
    loss.value()[(0, 0)]
}

/// A graph with its constant inputs `x` and `mask` in every operand
/// position: either side of a product, sum or quotient, a matmul's left
/// side, a row broadcast computed only from constants, a concatenation
/// and a loss. `w` is the one parameter.
fn mixed_graph<'t>(w: Var<'t>, x: Var<'t>, mask: Var<'t>, t: &Matrix) -> Var<'t> {
    let h = x.matmul(w);
    let h = h.mul(mask).add(x.mul(h.tanh()));
    let h = h.div(mask.add_scalar(2.0)).sub(x);
    let centered = h.sub_row(x.mean_rows());
    Var::concat_cols([centered, x, h.sigmoid()]).mse(t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn analytic_gradient_matches_finite_differences(
        op in 0usize..9,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Param::new(Matrix::randn(3, 4, 0.0, 0.4, &mut rng));
        let x = Matrix::randn(5, 3, 0.0, 0.7, &mut rng);
        let (rows, cols) = (5, 4);
        let t = Matrix::randn(rows, cols, 0.0, 0.5, &mut rng);

        let _ = forward(op, &p, &x, &t, true);
        let analytic = p.grad();
        p.zero_grad();
        let max_diff =
            gradient_check(&p, || forward(op, &p, &x, &t, false), &analytic, 5e-3);
        // f32 finite differences are noisy; 3e-2 absolute is a tight-enough
        // band to catch any sign/transpose/scale bug.
        prop_assert!(max_diff < 3e-2, "op {op}: max grad diff {max_diff}");
    }

    #[test]
    fn bias_broadcast_gradients_match(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bias = Param::new(Matrix::randn(1, 4, 0.0, 0.3, &mut rng));
        let x = Matrix::randn(6, 4, 0.0, 0.5, &mut rng);
        let t = Matrix::zeros(6, 4);
        let run = |backward: bool| -> f32 {
            let tape = Tape::new();
            let out = tape.constant(&x).add_row(tape.param(&bias)).tanh();
            let loss = out.mse(&t);
            if backward {
                tape.backward(loss);
            }
            loss.value()[(0, 0)]
        };
        let _ = run(true);
        let analytic = bias.grad();
        bias.zero_grad();
        let max_diff = gradient_check(&bias, || run(false), &analytic, 5e-3);
        prop_assert!(max_diff < 2e-2, "bias grad diff {max_diff}");
    }

    #[test]
    fn batchnorm_style_graph_gradients_match(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gamma = Param::new(Matrix::randn(1, 3, 1.0, 0.1, &mut rng));
        let x = Matrix::randn(8, 3, 2.0, 1.5, &mut rng);
        let t = Matrix::zeros(8, 3);
        let run = |backward: bool| -> f32 {
            let tape = Tape::new();
            let xv = tape.constant(&x);
            let mu = xv.mean_rows();
            let centered = xv.sub_row(mu);
            let var = centered.mul(centered).mean_rows();
            let std = var.add_scalar(1e-5).sqrt();
            let norm = centered.div_row(std);
            let out = norm.mul_row(tape.param(&gamma));
            let loss = out.mse(&t);
            if backward {
                tape.backward(loss);
            }
            loss.value()[(0, 0)]
        };
        let _ = run(true);
        let analytic = gamma.grad();
        gamma.zero_grad();
        let max_diff = gradient_check(&gamma, || run(false), &analytic, 5e-3);
        prop_assert!(max_diff < 2e-2, "gamma grad diff {max_diff}");
    }

    #[test]
    fn loss_gradients_match(
        loss_kind in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Param::new(Matrix::randn(2, 3, 0.0, 0.5, &mut rng));
        let x = Matrix::randn(4, 2, 0.0, 0.8, &mut rng);
        // targets appropriate per loss
        let t = match loss_kind {
            0 => Matrix::from_fn(4, 3, |_, c| if c == 0 { 1.0 } else { 0.0 }),
            1 => Matrix::from_fn(4, 3, |r, c| f32::from((r + c) % 2 == 0)),
            _ => Matrix::randn(4, 3, 0.0, 1.0, &mut rng),
        };
        let run = |backward: bool| -> f32 {
            let tape = Tape::new();
            let logits = tape.constant(&x).matmul(tape.param(&p));
            let loss = match loss_kind {
                0 => logits.softmax_cross_entropy(&t),
                1 => logits.bce_with_logits(&t),
                _ => logits.mse(&t),
            };
            if backward {
                tape.backward(loss);
            }
            loss.value()[(0, 0)]
        };
        let _ = run(true);
        let analytic = p.grad();
        p.zero_grad();
        let max_diff = gradient_check(&p, || run(false), &analytic, 5e-3);
        prop_assert!(max_diff < 2e-2, "loss {loss_kind}: grad diff {max_diff}");
    }

    #[test]
    fn pruning_constants_leaves_parameter_gradients_bit_equal(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Param::new(Matrix::randn(3, 3, 0.0, 0.5, &mut rng));
        let x = Matrix::randn(5, 3, 0.0, 0.8, &mut rng);
        let mask = Matrix::randn(5, 3, 1.0, 0.3, &mut rng);
        let t = Matrix::randn(5, 9, 0.0, 0.5, &mut rng);

        // Pruned: `x` and `mask` are constants, so the reverse pass does
        // no work for them or for anything computed only from them.
        let tape = Tape::new();
        tape.backward(mixed_graph(tape.param(&w), tape.constant(&x), tape.constant(&mask), &t));
        let pruned = w.grad();
        w.zero_grad();

        // Unpruned: the same values as trainable parameters, so every
        // node of the graph computes its gradient.
        let (px, pm) = (Param::new(x.clone()), Param::new(mask.clone()));
        let tape = Tape::new();
        tape.backward(mixed_graph(tape.param(&w), tape.param(&px), tape.param(&pm), &t));
        prop_assert!(px.grad().frobenius_norm() > 0.0 && pm.grad().frobenius_norm() > 0.0);

        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&pruned), bits(&w.grad()));
    }
}
