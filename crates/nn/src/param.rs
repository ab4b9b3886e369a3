//! Trainable parameters shared between tapes and optimizers.

use kinet_tensor::Matrix;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

#[derive(Debug)]
struct ParamInner {
    value: Matrix,
    grad: Matrix,
}

/// A trainable tensor with an accumulated gradient.
///
/// `Param` is a cheap-to-clone handle (`Rc<RefCell<…>>`): layers hold one
/// copy, optimizers hold another, and [`crate::Tape::param`] registers it on
/// the graph so [`crate::Tape::backward`] can write the gradient back.
///
/// Parameters are intentionally *not* `Send`; training in this workspace is
/// single-threaded per model, and cross-thread parallelism happens at the
/// level of whole models (see `kinet-nids`).
///
/// ```
/// use kinet_nn::Param;
/// use kinet_tensor::Matrix;
/// let p = Param::new(Matrix::zeros(2, 2));
/// p.update(|m| m[(0, 0)] = 5.0);
/// assert_eq!(p.value()[(0, 0)], 5.0);
/// assert_eq!(p.grad().sum(), 0.0);
/// ```
#[derive(Clone)]
pub struct Param {
    inner: Rc<RefCell<ParamInner>>,
}

impl Param {
    /// Wraps a value as a trainable parameter with zeroed gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self {
            inner: Rc::new(RefCell::new(ParamInner { value, grad })),
        }
    }

    /// Clones the current value out of the cell.
    pub fn value(&self) -> Matrix {
        self.inner.borrow().value.clone()
    }

    /// Clones the accumulated gradient out of the cell.
    pub fn grad(&self) -> Matrix {
        self.inner.borrow().grad.clone()
    }

    /// `(rows, cols)` of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.borrow().value.shape()
    }

    /// Mutates the value in place (e.g. an optimizer step).
    pub fn update(&self, f: impl FnOnce(&mut Matrix)) {
        f(&mut self.inner.borrow_mut().value);
    }

    /// Reads the value without cloning it.
    pub fn with_value<R>(&self, f: impl FnOnce(&Matrix) -> R) -> R {
        f(&self.inner.borrow().value)
    }

    /// Reads the accumulated gradient without cloning it.
    pub fn with_grad<R>(&self, f: impl FnOnce(&Matrix) -> R) -> R {
        f(&self.inner.borrow().grad)
    }

    /// Mutates the value with read access to the gradient — the fused,
    /// clone-free form optimizer steps use.
    pub fn apply_update(&self, f: impl FnOnce(&mut Matrix, &Matrix)) {
        let mut inner = self.inner.borrow_mut();
        let ParamInner { value, grad } = &mut *inner;
        f(value, grad);
    }

    /// Adds `delta` into the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate_grad(&self, delta: &Matrix) {
        self.inner.borrow_mut().grad.add_assign_scaled(delta, 1.0);
    }

    /// Rewrites every gradient element as `f(g)`, in place.
    pub fn map_grad(&self, f: impl Fn(f32) -> f32) {
        self.inner.borrow_mut().grad.map_inplace(f);
    }

    /// Resets the gradient to zero, reusing the existing buffer.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad.as_mut_slice().fill(0.0);
    }

    /// `true` when two handles refer to the same underlying parameter.
    pub fn same_as(&self, other: &Param) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Param{:?} |grad|={:.4}",
            inner.value.shape(),
            inner.grad.frobenius_norm()
        )
    }
}

/// An ordered collection of parameters, as produced by layers and consumed
/// by optimizers.
///
/// ```
/// use kinet_nn::{Param, ParamSet};
/// use kinet_tensor::Matrix;
/// let mut set = ParamSet::new();
/// set.push(Param::new(Matrix::zeros(1, 1)));
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one parameter.
    pub fn push(&mut self, p: Param) {
        self.params.push(p);
    }

    /// Appends every parameter of `other` (handles are shared, not copied).
    pub fn extend(&mut self, other: &ParamSet) {
        self.params.extend(other.params.iter().cloned());
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Iterates over the parameter handles.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.shape().0 * p.shape().1).sum()
    }

    /// Zeroes every gradient in the set.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Global L2 norm of all gradients (no gradient clones).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                p.with_grad(|g| {
                    let n = g.frobenius_norm();
                    n * n
                })
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    /// Non-finite gradients (an exploded step) are zeroed outright rather
    /// than scaled — `inf * 0 = NaN` would otherwise poison optimizer
    /// moments permanently.
    ///
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        // In place, and bit-identical to the former rewrite of each
        // gradient into a zeroed buffer: the `0.0 +` keeps its signed-zero
        // result (`0.0 + -0.0` is `+0.0`).
        if !norm.is_finite() {
            for p in &self.params {
                p.map_grad(|g| {
                    0.0 + if g.is_finite() {
                        g.clamp(-max_norm, max_norm)
                    } else {
                        0.0
                    }
                });
            }
            return norm;
        }
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &self.params {
                p.map_grad(|g| 0.0 + g * scale);
            }
        }
        norm
    }

    /// Snapshots all parameter values (for checkpointing / tests).
    pub fn state(&self) -> Vec<Matrix> {
        self.params.iter().map(|p| p.value()).collect()
    }

    /// Restores parameter values from [`ParamSet::state`] output.
    ///
    /// # Panics
    ///
    /// Panics if the number or shapes of matrices differ.
    pub fn load_state(&self, state: &[Matrix]) {
        assert_eq!(state.len(), self.params.len(), "state length mismatch");
        for (p, s) in self.params.iter().zip(state) {
            assert_eq!(p.shape(), s.shape(), "state shape mismatch");
            p.update(|m| *m = s.clone());
        }
    }
}

impl FromIterator<Param> for ParamSet {
    fn from_iter<T: IntoIterator<Item = Param>>(iter: T) -> Self {
        Self {
            params: iter.into_iter().collect(),
        }
    }
}

impl Extend<Param> for ParamSet {
    fn extend<T: IntoIterator<Item = Param>>(&mut self, iter: T) {
        self.params.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_roundtrip() {
        let p = Param::new(Matrix::ones(2, 3));
        assert_eq!(p.shape(), (2, 3));
        p.update(|m| *m = m.scale(2.0));
        assert_eq!(p.value().sum(), 12.0);
        p.accumulate_grad(&Matrix::ones(2, 3));
        p.accumulate_grad(&Matrix::ones(2, 3));
        assert_eq!(p.grad().sum(), 12.0);
        p.zero_grad();
        assert_eq!(p.grad().sum(), 0.0);
    }

    #[test]
    fn same_as_identity() {
        let p = Param::new(Matrix::zeros(1, 1));
        let q = p.clone();
        let r = Param::new(Matrix::zeros(1, 1));
        assert!(p.same_as(&q));
        assert!(!p.same_as(&r));
    }

    #[test]
    fn set_norm_and_clip() {
        let mut set = ParamSet::new();
        let p = Param::new(Matrix::zeros(1, 2));
        p.accumulate_grad(&Matrix::row_vector(&[3.0, 4.0]));
        set.push(p.clone());
        assert!((set.grad_norm() - 5.0).abs() < 1e-6);
        let pre = set.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((set.grad_norm() - 1.0).abs() < 1e-5);
        // clipping below the threshold is a no-op
        set.clip_grad_norm(10.0);
        assert!((set.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn state_save_restore() {
        let mut set = ParamSet::new();
        set.push(Param::new(Matrix::full(1, 1, 1.0)));
        set.push(Param::new(Matrix::full(2, 2, 2.0)));
        let snapshot = set.state();
        set.iter().for_each(|p| p.update(|m| *m = m.scale(0.0)));
        assert_eq!(set.state()[1].sum(), 0.0);
        set.load_state(&snapshot);
        assert_eq!(set.state()[1].sum(), 8.0);
    }

    #[test]
    fn num_scalars_counts() {
        let set: ParamSet = [
            Param::new(Matrix::zeros(2, 3)),
            Param::new(Matrix::zeros(1, 4)),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.num_scalars(), 10);
    }
}
