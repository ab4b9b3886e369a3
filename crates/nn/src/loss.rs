//! Loss functions as free functions over graph nodes.
//!
//! All losses return a `1 × 1` scalar node suitable for
//! [`crate::Tape::backward`].

use crate::Var;
use kinet_tensor::Matrix;

/// Mean squared error against constant targets.
pub fn mse<'t>(pred: Var<'t>, target: &Matrix) -> Var<'t> {
    pred.mse(target)
}

/// Mean binary cross-entropy on logits against constant 0/1 targets.
pub fn bce_with_logits<'t>(logits: Var<'t>, target: &Matrix) -> Var<'t> {
    logits.bce_with_logits(target)
}

/// Mean softmax cross-entropy on logits against constant one-hot targets.
pub fn softmax_cross_entropy<'t>(logits: Var<'t>, target: &Matrix) -> Var<'t> {
    logits.softmax_cross_entropy(target)
}

/// Discriminator loss for a vanilla GAN: real rows should score 1, fake
/// rows 0 (labels may be softened by the caller via `real_label`).
pub fn gan_discriminator_loss<'t>(
    real_logits: Var<'t>,
    fake_logits: Var<'t>,
    real_label: f32,
) -> Var<'t> {
    let real = real_logits.bce_with_logits_node(labels(real_logits, real_label));
    let fake = fake_logits.bce_with_logits_node(labels(fake_logits, 0.0));
    real.add(fake)
}

/// A constant `rows × 1` column of `label`, one row per row of `logits`,
/// written straight into the tape.
fn labels(logits: Var<'_>, label: f32) -> Var<'_> {
    let (rows, _) = logits.shape();
    logits
        .tape()
        .constant_with(rows, 1, |t| t.as_mut_slice().fill(label))
}

/// Non-saturating generator loss: fake rows should be scored as real.
///
/// This is the `log(1 - D(G(z)))`-minimization of the paper's Eq. (4) in its
/// standard non-saturating form (`-log D(G(z))`), which has the same fixed
/// points but usable gradients early in training.
pub fn gan_generator_loss<'t>(fake_logits: Var<'t>) -> Var<'t> {
    fake_logits.bce_with_logits_node(labels(fake_logits, 1.0))
}

/// KL divergence `KL(N(mu, sigma²) ‖ N(0, 1))`, summed over latent
/// dimensions and averaged over the batch — the VAE regularizer.
pub fn gaussian_kl<'t>(mu: Var<'t>, logvar: Var<'t>) -> Var<'t> {
    // -0.5 * mean_batch sum_dim (1 + logvar - mu² - exp(logvar))
    let (batch, _) = mu.shape();
    let term = logvar.add_scalar(1.0).sub(mu.mul(mu)).sub(logvar.exp());
    term.sum().scale(-0.5 / batch as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Param, Tape};
    use kinet_tensor::Matrix;

    #[test]
    fn gan_losses_at_equilibrium() {
        // At D(x) = 0.5 (logit 0) both losses equal ln 2 (D loss = 2 ln 2).
        let tape = Tape::new();
        let real = tape.constant(&Matrix::zeros(4, 1));
        let fake = tape.constant(&Matrix::zeros(4, 1));
        let d = gan_discriminator_loss(real, fake, 1.0);
        assert!((d.value()[(0, 0)] - 2.0 * std::f32::consts::LN_2).abs() < 1e-5);
        let g = gan_generator_loss(fake);
        assert!((g.value()[(0, 0)] - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn discriminator_loss_decreases_with_confidence() {
        let tape = Tape::new();
        let good_real = tape.constant(&Matrix::full(4, 1, 5.0));
        let good_fake = tape.constant(&Matrix::full(4, 1, -5.0));
        let confident = gan_discriminator_loss(good_real, good_fake, 1.0);
        let mid = gan_discriminator_loss(
            tape.constant(&Matrix::zeros(4, 1)),
            tape.constant(&Matrix::zeros(4, 1)),
            1.0,
        );
        assert!(confident.value()[(0, 0)] < mid.value()[(0, 0)]);
    }

    #[test]
    fn label_smoothing_shifts_target() {
        let tape = Tape::new();
        let real = tape.constant(&Matrix::full(2, 1, 10.0));
        let fake = tape.constant(&Matrix::full(2, 1, -10.0));
        let hard = gan_discriminator_loss(real, fake, 1.0).value()[(0, 0)];
        let soft = gan_discriminator_loss(real, fake, 0.9).value()[(0, 0)];
        assert!(soft > hard, "smoothed labels penalize over-confident D");
    }

    #[test]
    fn kl_zero_for_standard_normal() {
        let tape = Tape::new();
        let mu = tape.constant(&Matrix::zeros(8, 3));
        let logvar = tape.constant(&Matrix::zeros(8, 3));
        let kl = gaussian_kl(mu, logvar);
        assert!(kl.value()[(0, 0)].abs() < 1e-6);
    }

    #[test]
    fn kl_positive_otherwise_and_differentiable() {
        let tape = Tape::new();
        let pm = Param::new(Matrix::full(4, 2, 1.5));
        let pl = Param::new(Matrix::full(4, 2, 0.5));
        let kl = gaussian_kl(tape.param(&pm), tape.param(&pl));
        assert!(kl.value()[(0, 0)] > 0.0);
        tape.backward(kl);
        // d/dmu of 0.5*mu² per element (scaled by 1/batch) = mu/batch
        assert!((pm.grad()[(0, 0)] - 1.5 / 4.0).abs() < 1e-5);
    }

    #[test]
    fn mse_free_function_matches_method() {
        let tape = Tape::new();
        let x = tape.constant(&Matrix::row_vector(&[1.0, 3.0]));
        let t = Matrix::row_vector(&[0.0, 0.0]);
        assert_eq!(mse(x, &t).value()[(0, 0)], 5.0);
    }
}
