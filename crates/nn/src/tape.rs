//! The dynamic computation graph: [`Tape`], [`Var`] and the reverse pass.
//!
//! A [`Tape`] records every forward operation as a node; [`Tape::backward`]
//! walks the nodes in reverse creation order (a valid topological order,
//! since operands always precede results) and accumulates gradients, finally
//! writing parameter gradients back into their [`Param`] cells.
//!
//! # One tape per training loop
//!
//! A tape lives as long as the loop that owns it. [`Tape::reset`] clears
//! the graph but keeps every node slot's value and gradient buffer, and
//! node `i` of the next pass writes into slot `i`. A loop that records
//! the same graphs every step (a GAN's D pass, then its G pass) therefore
//! stops allocating after its first step. Everything a pass reads is
//! copied into a slot, never cloned: constants ([`Tape::constant`]),
//! parameter values ([`Tape::param`]), random draws such as noise and
//! dropout masks ([`Tape::constant_with`]) and loss targets. Each op writes
//! its output through a tensor `_into` kernel.
//!
//! # Gradient pruning
//!
//! A node *needs a gradient* when a [`Param`] is among its inputs,
//! directly or through other nodes. Constants, and everything computed
//! only from constants, do not: they get no gradient buffer, and
//! [`Tape::backward`] does no work for them (not even the input gradient
//! of a first layer). Every node that does need a gradient receives the
//! same contributions in the same order as without pruning, so parameter
//! gradients are bit-identical.
//!
//! A gradient buffer is zeroed when the reverse pass first accumulates
//! into it, not when its node is recorded. Nodes the pass never reaches,
//! such as a generator's nodes behind a [`Var::detach`], cost neither a
//! zero-fill nor a scan.

use crate::param::{Param, ParamSet};
use kinet_tensor::Matrix;
use std::cell::{Cell, RefCell};

enum Op {
    Leaf,
    Param(Param),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Neg(usize),
    Matmul(usize, usize),
    Scale(usize, f32),
    AddScalar(usize),
    AddRow(usize, usize),
    SubRow(usize, usize),
    MulRow(usize, usize),
    DivRow(usize, usize),
    MeanRows(usize),
    Sum(usize),
    Mean(usize),
    Relu(usize),
    LeakyRelu(usize, f32),
    Tanh(usize),
    Sigmoid(usize),
    Exp(usize),
    Ln(usize),
    Sqrt(usize),
    Softmax(usize),
    /// The operands are the tape's list entries `start..end`.
    ConcatCols(usize, usize),
    SliceCols(usize, usize, usize),
    Reshape(usize),
    /// `(logits, constant target)`, as are the two losses below.
    BceWithLogits(usize, usize),
    SoftmaxCrossEntropy(usize, usize),
    Mse(usize, usize),
}

struct Node {
    value: Matrix,
    /// Sized only when `needs_grad`, and zeroed on the reverse pass's first
    /// accumulation into it ([`grad_of`]); until then it holds stale values.
    grad: Matrix,
    op: Op,
    needs_grad: bool,
    /// Whether the reverse pass has accumulated into `grad` yet.
    touched: bool,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            value: Matrix::default(),
            grad: Matrix::default(),
            op: Op::Leaf,
            needs_grad: false,
            touched: false,
        }
    }
}

/// A computation graph recording forward operations for reverse-mode
/// differentiation.
///
/// See the [crate-level docs](crate) for an end-to-end example. A tape is
/// meant to live as long as its training loop: [`Tape::reset`] clears the
/// graph but keeps every node's buffers for the next pass. Constants, and
/// nodes computed only from constants, need no gradient and get none.
#[derive(Default)]
pub struct Tape {
    /// Node slots; those at and past `live` are spare buffers.
    nodes: RefCell<Vec<Node>>,
    live: Cell<usize>,
    /// Node-index lists: concatenation operands and [`VarList`]s.
    lists: RefCell<Vec<usize>>,
    /// Parameters this pass registers as constants ([`Tape::freeze`]).
    frozen: RefCell<Vec<Param>>,
}

/// A handle to a node on a [`Tape`].
///
/// `Var` is `Copy`; all arithmetic methods record a new node and return a
/// new handle. Mixing `Var`s from different tapes is a logic error and will
/// panic (on an index out of bounds) or silently corrupt gradients.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: usize,
}

/// A list of nodes kept on the tape, so a pass can hand several nodes
/// around without allocating a `Vec` (see [`Tape::list`]).
#[derive(Clone, Copy)]
pub struct VarList<'t> {
    tape: &'t Tape,
    start: usize,
    len: usize,
}

impl<'t> VarList<'t> {
    /// Number of nodes in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the list holds no node.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th node.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> Var<'t> {
        assert!(i < self.len, "list index {i} out of range {}", self.len);
        Var {
            tape: self.tape,
            idx: self.tape.lists.borrow()[self.start + i],
        }
    }

    /// The nodes in order.
    pub fn iter(self) -> impl Iterator<Item = Var<'t>> {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.live.get()
    }

    /// `true` when no node has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the graph for the next pass while keeping every slot's value
    /// and gradient buffer (and the list storage) for reuse. Taking
    /// `&mut self` guarantees no [`Var`] of the old graph survives.
    pub fn reset(&mut self) {
        let live = self.live.replace(0);
        for node in &mut self.nodes.get_mut()[..live] {
            // Releases the parameter handles the old graph held.
            node.op = Op::Leaf;
        }
        self.lists.get_mut().clear();
        self.frozen.get_mut().clear();
    }

    /// Records `op` in the next slot; it needs a gradient when it is a
    /// parameter or one of its `inputs` needs one. `forward` gets the
    /// earlier nodes and the slot's reused value buffer, and must write the
    /// whole output (the `_into` kernels resize their output themselves).
    fn push(
        &self,
        op: Op,
        inputs: &[usize],
        forward: impl FnOnce(&[Node], &mut Matrix),
    ) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        let idx = self.live.get();
        if idx == nodes.len() {
            nodes.push(Node::default());
        }
        let (head, tail) = nodes.split_at_mut(idx);
        let needs_grad = matches!(op, Op::Param(_)) || inputs.iter().any(|&p| head[p].needs_grad);
        let node = &mut tail[0];
        forward(head, &mut node.value);
        if needs_grad {
            let (rows, cols) = node.value.shape();
            node.grad.resize(rows, cols);
        }
        node.op = op;
        node.needs_grad = needs_grad;
        node.touched = false;
        self.live.set(idx + 1);
        Var { tape: self, idx }
    }

    /// Registers a constant (non-differentiable) input, copied into the
    /// next slot's buffer.
    pub fn constant(&self, value: &Matrix) -> Var<'_> {
        self.push(Op::Leaf, &[], |_, out| out.copy_from(value))
    }

    /// Registers a `rows × cols` constant that `fill` writes in place
    /// (starting from zeros) — for random draws such as noise and dropout
    /// masks, which then need no buffer of their own.
    pub fn constant_with(
        &self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Matrix),
    ) -> Var<'_> {
        self.push(Op::Leaf, &[], |_, out| {
            out.resize(rows, cols);
            out.as_mut_slice().fill(0.0);
            fill(out);
        })
    }

    /// Registers a trainable parameter, copying its current value; its
    /// gradient is filled in by [`Tape::backward`]. A parameter frozen for
    /// this pass ([`Tape::freeze`]) is registered as a constant instead.
    pub fn param(&self, p: &Param) -> Var<'_> {
        let frozen = self.frozen.borrow().iter().any(|f| f.same_as(p));
        let op = if frozen {
            Op::Leaf
        } else {
            Op::Param(p.clone())
        };
        self.push(op, &[], |_, out| p.with_value(|v| out.copy_from(v)))
    }

    /// Registers every parameter of `params` as a constant for the rest of
    /// this pass, until [`Tape::reset`]: the reverse pass then computes no
    /// gradient for them and leaves theirs untouched, while the values a
    /// forward pass reads, and every other gradient, stay bit-identical.
    pub fn freeze(&self, params: &ParamSet) {
        self.frozen.borrow_mut().extend(params.iter().cloned());
    }

    /// Stores `vars` as a [`VarList`] on the tape.
    ///
    /// # Panics
    ///
    /// Panics if producing the items records another list or
    /// concatenation (the list must be contiguous).
    pub fn list<'t>(&'t self, vars: impl IntoIterator<Item = Var<'t>>) -> VarList<'t> {
        let start = self.lists.borrow().len();
        let mut len = 0;
        for v in vars {
            let mut lists = self.lists.borrow_mut();
            assert_eq!(
                lists.len(),
                start + len,
                "a tape list was interleaved with another"
            );
            lists.push(v.idx);
            len += 1;
        }
        VarList {
            tape: self,
            start,
            len,
        }
    }

    /// Runs the reverse pass from `loss`, which must be a `1 × 1` scalar
    /// node, accumulating gradients into every [`Param`] on the tape.
    ///
    /// The pass is allocation-free: every gradient buffer was sized when
    /// its node was recorded, and each rule accumulates directly into the
    /// parents' buffers through fused in-place kernels
    /// (`add_assign`/`add_assign_zip_map`/`matmul_*_acc`). Nodes that need
    /// no gradient (no [`Param`] among their inputs) are skipped, as are
    /// nodes nothing reached and nodes whose gradient is all zero.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar-shaped.
    pub fn backward(&self, loss: Var<'_>) {
        let mut nodes = self.nodes.borrow_mut();
        {
            let l = &mut nodes[loss.idx];
            assert_eq!(
                l.value.shape(),
                (1, 1),
                "backward target must be a 1x1 scalar"
            );
            if !l.needs_grad {
                return;
            }
            l.grad.as_mut_slice().fill(1.0);
            l.touched = true;
        }
        let lists = self.lists.borrow();
        for i in (0..self.live.get()).rev() {
            // Operands always precede results, so `head` holds every parent
            // of `node` and the borrows are disjoint.
            let (head, tail) = nodes.split_at_mut(i);
            let node = &tail[0];
            // Nothing reached an untouched node, so its gradient is zero
            // without looking at the (stale) buffer.
            if !node.touched || node.grad.as_slice().iter().all(|&v| v == 0.0) {
                continue;
            }
            let g = &node.grad;
            let out = &node.value;
            // A node that needs a gradient has at least one parent that
            // does; the rules below skip the parents that do not.
            match &node.op {
                Op::Leaf => {}
                Op::Param(p) => p.accumulate_grad(g),
                Op::Add(a, b) => {
                    if head[*a].needs_grad {
                        grad_of(&mut head[*a]).add_assign(g);
                    }
                    if head[*b].needs_grad {
                        grad_of(&mut head[*b]).add_assign(g);
                    }
                }
                Op::Sub(a, b) => {
                    if head[*a].needs_grad {
                        grad_of(&mut head[*a]).add_assign(g);
                    }
                    if head[*b].needs_grad {
                        grad_of(&mut head[*b]).add_assign_scaled(g, -1.0);
                    }
                }
                Op::Mul(a, b) => {
                    if head[*a].needs_grad {
                        let (ga, vb) = grad_value_mut(head, *a, *b);
                        ga.add_assign_zip_map(g, vb, |gi, vi| gi * vi);
                    }
                    if head[*b].needs_grad {
                        let (gb, va) = grad_value_mut(head, *b, *a);
                        gb.add_assign_zip_map(g, va, |gi, vi| gi * vi);
                    }
                }
                Op::Div(a, b) => {
                    if head[*a].needs_grad {
                        let (ga, vb) = grad_value_mut(head, *a, *b);
                        ga.add_assign_zip_map(g, vb, |gi, vi| gi / vi);
                    }
                    if head[*b].needs_grad {
                        let (gb, vb) = grad_value_mut(head, *b, *b);
                        gb.add_assign_zip3_map(g, out, vb, |gi, oi, vi| -((gi * oi) / vi));
                    }
                }
                Op::Neg(a) => grad_of(&mut head[*a]).add_assign_scaled(g, -1.0),
                Op::Matmul(a, b) => {
                    if head[*a].needs_grad {
                        let (ga, vb) = grad_value_mut(head, *a, *b);
                        ga.matmul_nt_acc(g, vb);
                    }
                    if head[*b].needs_grad {
                        let (gb, va) = grad_value_mut(head, *b, *a);
                        gb.matmul_tn_acc(va, g);
                    }
                }
                Op::Scale(a, s) => grad_of(&mut head[*a]).add_assign_scaled(g, *s),
                Op::AddScalar(a) => grad_of(&mut head[*a]).add_assign(g),
                Op::AddRow(a, r) => {
                    if head[*a].needs_grad {
                        grad_of(&mut head[*a]).add_assign(g);
                    }
                    if head[*r].needs_grad {
                        acc_col_sums(grad_of(&mut head[*r]), g, 1.0);
                    }
                }
                Op::SubRow(a, r) => {
                    if head[*a].needs_grad {
                        grad_of(&mut head[*a]).add_assign(g);
                    }
                    if head[*r].needs_grad {
                        acc_col_sums(grad_of(&mut head[*r]), g, -1.0);
                    }
                }
                Op::MulRow(a, r) => {
                    if head[*a].needs_grad {
                        let (ga, vr) = grad_value_mut(head, *a, *r);
                        acc_row_broadcast(ga, g, vr, |gi, ri| gi * ri);
                    }
                    if head[*r].needs_grad {
                        let (gr, va) = grad_value_mut(head, *r, *a);
                        acc_col_sums_prod(gr, g, va, 1.0);
                    }
                }
                Op::DivRow(a, r) => {
                    if head[*a].needs_grad {
                        let (ga, vr) = grad_value_mut(head, *a, *r);
                        acc_row_broadcast(ga, g, vr, |gi, ri| gi / ri);
                    }
                    if head[*r].needs_grad {
                        let (gr, vr) = grad_value_mut(head, *r, *r);
                        // d/dr = -Σ_rows (g ⊙ out) / r, column-wise.
                        for c in 0..g.cols() {
                            let rv = vr.as_slice()[c];
                            let mut sum = 0.0f32;
                            for row in 0..g.rows() {
                                let idx = row * g.cols() + c;
                                sum += (g.as_slice()[idx] * out.as_slice()[idx]) / rv;
                            }
                            gr.as_mut_slice()[c] += -sum;
                        }
                    }
                }
                Op::MeanRows(a) => {
                    let ga = grad_of(&mut head[*a]);
                    let inv = 1.0 / ga.rows() as f32;
                    let gs = g.as_slice();
                    for r in 0..ga.rows() {
                        for (o, &gv) in ga.row_mut(r).iter_mut().zip(gs) {
                            *o += gv * inv;
                        }
                    }
                }
                Op::Sum(a) => {
                    let gv = g[(0, 0)];
                    for o in grad_of(&mut head[*a]).as_mut_slice() {
                        *o += gv;
                    }
                }
                Op::Mean(a) => {
                    let ga = grad_of(&mut head[*a]);
                    let gv = g[(0, 0)] / ga.len() as f32;
                    for o in ga.as_mut_slice() {
                        *o += gv;
                    }
                }
                Op::Relu(a) => {
                    let (ga, va) = grad_value_mut(head, *a, *a);
                    ga.add_assign_zip_map(g, va, |gi, vi| if vi > 0.0 { gi } else { 0.0 });
                }
                Op::LeakyRelu(a, alpha) => {
                    let alpha = *alpha;
                    let (ga, va) = grad_value_mut(head, *a, *a);
                    ga.add_assign_zip_map(g, va, |gi, vi| if vi > 0.0 { gi } else { gi * alpha });
                }
                Op::Tanh(a) => {
                    grad_of(&mut head[*a])
                        .add_assign_zip_map(g, out, |gi, oi| gi * (1.0 - oi * oi));
                }
                Op::Sigmoid(a) => {
                    grad_of(&mut head[*a])
                        .add_assign_zip_map(g, out, |gi, oi| gi * oi * (1.0 - oi));
                }
                Op::Exp(a) => {
                    grad_of(&mut head[*a]).add_assign_zip_map(g, out, |gi, oi| gi * oi);
                }
                Op::Ln(a) => {
                    let (ga, va) = grad_value_mut(head, *a, *a);
                    ga.add_assign_zip_map(g, va, |gi, vi| gi / vi.max(LN_EPS));
                }
                Op::Sqrt(a) => {
                    grad_of(&mut head[*a])
                        .add_assign_zip_map(g, out, |gi, oi| gi * 0.5 / oi.max(1e-6));
                }
                Op::Softmax(a) => {
                    let ga = grad_of(&mut head[*a]);
                    for r in 0..out.rows() {
                        let orow = out.row(r);
                        let grow = g.row(r);
                        let dot: f32 = orow.iter().zip(grow).map(|(&o, &gi)| o * gi).sum();
                        for (c, o) in ga.row_mut(r).iter_mut().enumerate() {
                            *o += orow[c] * (grow[c] - dot);
                        }
                    }
                }
                Op::ConcatCols(start, end) => {
                    let mut offset = 0;
                    for &p in &lists[*start..*end] {
                        let w = head[p].value.cols();
                        if !head[p].needs_grad {
                            offset += w;
                            continue;
                        }
                        let pg = grad_of(&mut head[p]);
                        for r in 0..pg.rows() {
                            let gsrc = &g.row(r)[offset..offset + w];
                            for (o, &gv) in pg.row_mut(r).iter_mut().zip(gsrc) {
                                *o += gv;
                            }
                        }
                        offset += w;
                    }
                }
                Op::SliceCols(a, start, end) => {
                    let ga = grad_of(&mut head[*a]);
                    for r in 0..ga.rows() {
                        let dst = &mut ga.row_mut(r)[*start..*end];
                        for (o, &gv) in dst.iter_mut().zip(g.row(r)) {
                            *o += gv;
                        }
                    }
                }
                Op::Reshape(a) => {
                    // Same element order, different shape: accumulate
                    // buffer-to-buffer.
                    let ga = grad_of(&mut head[*a]);
                    for (o, &gv) in ga.as_mut_slice().iter_mut().zip(g.as_slice()) {
                        *o += gv;
                    }
                }
                Op::BceWithLogits(a, t) => {
                    let gv = g[(0, 0)];
                    let (ga, va, target) = grad_value_target(head, *a, *t);
                    let n = va.len() as f32;
                    ga.add_assign_zip_map(va, target, |x, t| (sigmoid_scalar(x) - t) * gv / n);
                }
                Op::SoftmaxCrossEntropy(a, t) => {
                    let gv = g[(0, 0)];
                    let (ga, va, target) = grad_value_target(head, *a, *t);
                    let n = va.rows() as f32;
                    for r in 0..va.rows() {
                        let varow = va.row(r);
                        let (max, sum) = softmax_row_max_sum(varow);
                        let trow = target.row(r);
                        for (c, o) in ga.row_mut(r).iter_mut().enumerate() {
                            let p = (varow[c] - max).exp() / sum;
                            *o += (p - trow[c]) * gv / n;
                        }
                    }
                }
                Op::Mse(a, t) => {
                    let gv = g[(0, 0)];
                    let (ga, va, target) = grad_value_target(head, *a, *t);
                    let n = va.len() as f32;
                    ga.add_assign_zip_map(va, target, |x, t| 2.0 * (x - t) * gv / n);
                }
            }
        }
    }
}

/// The gradient buffer of a node the reverse pass accumulates into:
/// zeroed on the first accumulation, so nodes nothing reaches (such as the
/// generator's nodes in a D step) are never zeroed or scanned.
fn grad_of(node: &mut Node) -> &mut Matrix {
    touch(&mut node.grad, &mut node.touched)
}

fn touch<'a>(grad: &'a mut Matrix, touched: &mut bool) -> &'a mut Matrix {
    if !*touched {
        grad.as_mut_slice().fill(0.0);
        *touched = true;
    }
    grad
}

/// Disjoint borrows of `nodes[gi]`'s gradient (mutable, via [`grad_of`])
/// and `nodes[vi].value` (shared); `gi == vi` is legal because the fields
/// are distinct.
fn grad_value_mut(nodes: &mut [Node], gi: usize, vi: usize) -> (&mut Matrix, &Matrix) {
    if gi == vi {
        let Node {
            grad,
            value,
            touched,
            ..
        } = &mut nodes[gi];
        (touch(grad, touched), value)
    } else if gi < vi {
        let (l, r) = nodes.split_at_mut(vi);
        (grad_of(&mut l[gi]), &r[0].value)
    } else {
        let (l, r) = nodes.split_at_mut(gi);
        (grad_of(&mut r[0]), &l[vi].value)
    }
}

/// Disjoint borrows of a loss input's gradient and value and of its
/// constant target (which never needs a gradient, so `t != a`).
fn grad_value_target(nodes: &mut [Node], a: usize, t: usize) -> (&mut Matrix, &Matrix, &Matrix) {
    debug_assert!(a < t, "a loss target is recorded after its input");
    let (l, r) = nodes.split_at_mut(t);
    let Node {
        grad,
        value,
        touched,
        ..
    } = &mut l[a];
    (touch(grad, touched), value, &r[0].value)
}

/// `dst[0][c] += s * Σ_r g[r][c]`, rows summed in ascending order — the
/// fused form of `dst.add_assign_scaled(&g.sum_rows(), s)`.
fn acc_col_sums(dst: &mut Matrix, g: &Matrix, s: f32) {
    let cols = g.cols();
    let gs = g.as_slice();
    for (c, o) in dst.as_mut_slice().iter_mut().enumerate() {
        let mut sum = 0.0f32;
        for r in 0..g.rows() {
            sum += gs[r * cols + c];
        }
        *o += sum * s;
    }
}

/// `dst[0][c] += s * Σ_r g[r][c] * x[r][c]` — the fused form of
/// `dst.add_assign_scaled(&g.mul(&x).sum_rows(), s)`.
fn acc_col_sums_prod(dst: &mut Matrix, g: &Matrix, x: &Matrix, s: f32) {
    let cols = g.cols();
    let (gs, xs) = (g.as_slice(), x.as_slice());
    for (c, o) in dst.as_mut_slice().iter_mut().enumerate() {
        let mut sum = 0.0f32;
        for r in 0..g.rows() {
            sum += gs[r * cols + c] * xs[r * cols + c];
        }
        *o += sum * s;
    }
}

/// `dst[r][c] += f(g[r][c], row[0][c])` — the fused form of
/// `dst.add_assign_scaled(&g.op_row_broadcast(&row), 1.0)`.
fn acc_row_broadcast(dst: &mut Matrix, g: &Matrix, row: &Matrix, f: impl Fn(f32, f32) -> f32) {
    let rv = row.as_slice();
    for r in 0..dst.rows() {
        for ((o, &gv), &rc) in dst.row_mut(r).iter_mut().zip(g.row(r)).zip(rv) {
            *o += f(gv, rc);
        }
    }
}

const LN_EPS: f32 = 1e-8;

pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Row max and exponential sum — the shared numerics behind every softmax
/// in this module. [`softmax_into`] and the `SoftmaxCrossEntropy`
/// backward rule both derive probabilities as `(x - max).exp() / sum` from
/// this helper, keeping the two paths in bitwise lockstep.
fn softmax_row_max_sum(row: &[f32]) -> (f32, f32) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &x in row {
        sum += (x - max).exp();
    }
    (max, sum)
}

fn softmax_into(m: &Matrix, out: &mut Matrix) {
    out.copy_from(m);
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let (max, sum) = softmax_row_max_sum(row);
        for v in row.iter_mut() {
            *v = (*v - max).exp() / sum;
        }
    }
}

// The arithmetic methods intentionally mirror `Matrix`'s inherent
// `add`/`sub`/`mul`/`div`/`neg` names rather than the operator traits:
// tape nodes are `Copy` handles and the graph DSL reads as method chains.
#[allow(clippy::should_implement_trait)]
impl<'t> Var<'t> {
    /// The tape this node lives on.
    pub(crate) fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Clones this node's current value.
    pub fn value(&self) -> Matrix {
        self.with_value(Matrix::clone)
    }

    /// Reads this node's value without cloning it.
    pub(crate) fn with_value<R>(&self, f: impl FnOnce(&Matrix) -> R) -> R {
        f(&self.tape.nodes.borrow()[self.idx].value)
    }

    /// The value of a `1 × 1` node, such as a loss.
    ///
    /// # Panics
    ///
    /// Panics if the node is not `1 × 1`.
    pub fn scalar(&self) -> f32 {
        self.with_value(|v| {
            assert_eq!(v.shape(), (1, 1), "scalar() of a {:?} node", v.shape());
            v[(0, 0)]
        })
    }

    /// `(rows, cols)` of this node's value.
    pub fn shape(&self) -> (usize, usize) {
        self.with_value(Matrix::shape)
    }

    /// Clones this node's accumulated gradient (meaningful after
    /// [`Tape::backward`]). A node the reverse pass did not reach, such as
    /// a constant, reports zeros.
    pub fn grad(&self) -> Matrix {
        let nodes = self.tape.nodes.borrow();
        let node = &nodes[self.idx];
        if node.touched {
            node.grad.clone()
        } else {
            Matrix::zeros(node.value.rows(), node.value.cols())
        }
    }

    fn unary(self, op: Op, f: impl FnOnce(&Matrix, &mut Matrix)) -> Var<'t> {
        let a = self.idx;
        self.tape.push(op, &[a], |n, out| f(&n[a].value, out))
    }

    fn binary(
        self,
        other: Var<'t>,
        op: Op,
        f: impl FnOnce(&Matrix, &Matrix, &mut Matrix),
    ) -> Var<'t> {
        let (a, b) = (self.idx, other.idx);
        self.tape
            .push(op, &[a, b], |n, out| f(&n[a].value, &n[b].value, out))
    }

    /// Element-wise sum.
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Add(self.idx, other.idx), |a, b, out| {
            a.zip_map_into(b, out, |x, y| x + y)
        })
    }

    /// Element-wise difference.
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Sub(self.idx, other.idx), |a, b, out| {
            a.zip_map_into(b, out, |x, y| x - y)
        })
    }

    /// Element-wise product.
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Mul(self.idx, other.idx), |a, b, out| {
            a.zip_map_into(b, out, |x, y| x * y)
        })
    }

    /// Element-wise quotient.
    pub fn div(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Div(self.idx, other.idx), |a, b, out| {
            a.zip_map_into(b, out, |x, y| x / y)
        })
    }

    /// Negation.
    pub fn neg(self) -> Var<'t> {
        self.unary(Op::Neg(self.idx), |a, out| a.map_into(out, |v| -v))
    }

    /// Matrix product `self · other`.
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Matmul(self.idx, other.idx), |a, b, out| {
            a.matmul_into(b, out)
        })
    }

    /// Multiplies every element by `s`.
    pub fn scale(self, s: f32) -> Var<'t> {
        self.unary(Op::Scale(self.idx, s), |a, out| a.map_into(out, |v| v * s))
    }

    /// Adds `s` to every element.
    pub fn add_scalar(self, s: f32) -> Var<'t> {
        self.unary(Op::AddScalar(self.idx), |a, out| a.map_into(out, |v| v + s))
    }

    /// Adds a constant matrix (no gradient flows into it).
    pub fn add_const(self, c: &Matrix) -> Var<'t> {
        self.add(self.tape.constant(c))
    }

    /// Multiplies element-wise by a constant matrix.
    pub fn mul_const(self, c: &Matrix) -> Var<'t> {
        self.mul(self.tape.constant(c))
    }

    /// Adds a `1 × cols` row node to every row.
    pub fn add_row(self, row: Var<'t>) -> Var<'t> {
        self.binary(row, Op::AddRow(self.idx, row.idx), |a, r, out| {
            a.broadcast_row_into(r, out, |x, y| x + y)
        })
    }

    /// Subtracts a `1 × cols` row node from every row.
    pub fn sub_row(self, row: Var<'t>) -> Var<'t> {
        self.binary(row, Op::SubRow(self.idx, row.idx), |a, r, out| {
            a.broadcast_row_into(r, out, |x, y| x - y)
        })
    }

    /// Multiplies every row element-wise by a `1 × cols` row node.
    pub fn mul_row(self, row: Var<'t>) -> Var<'t> {
        self.binary(row, Op::MulRow(self.idx, row.idx), |a, r, out| {
            a.broadcast_row_into(r, out, |x, y| x * y)
        })
    }

    /// Divides every row element-wise by a `1 × cols` row node.
    pub fn div_row(self, row: Var<'t>) -> Var<'t> {
        self.binary(row, Op::DivRow(self.idx, row.idx), |a, r, out| {
            a.broadcast_row_into(r, out, |x, y| x / y)
        })
    }

    /// Column-wise mean as a `1 × cols` node.
    pub fn mean_rows(self) -> Var<'t> {
        self.unary(Op::MeanRows(self.idx), |a, out| a.mean_rows_into(out))
    }

    /// Sum of all elements as a `1 × 1` node.
    pub fn sum(self) -> Var<'t> {
        self.unary(Op::Sum(self.idx), |a, out| set_scalar(out, a.sum()))
    }

    /// Mean of all elements as a `1 × 1` node.
    pub fn mean(self) -> Var<'t> {
        self.unary(Op::Mean(self.idx), |a, out| set_scalar(out, a.mean()))
    }

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        self.unary(Op::Relu(self.idx), |a, out| a.map_into(out, |x| x.max(0.0)))
    }

    /// Leaky ReLU with slope `alpha` for negative inputs.
    pub fn leaky_relu(self, alpha: f32) -> Var<'t> {
        self.unary(Op::LeakyRelu(self.idx, alpha), |a, out| {
            a.map_into(out, |x| if x > 0.0 { x } else { alpha * x })
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(self) -> Var<'t> {
        self.unary(Op::Tanh(self.idx), |a, out| a.map_into(out, f32::tanh))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(self) -> Var<'t> {
        self.unary(Op::Sigmoid(self.idx), |a, out| {
            a.map_into(out, sigmoid_scalar)
        })
    }

    /// Element-wise exponential.
    pub fn exp(self) -> Var<'t> {
        self.unary(Op::Exp(self.idx), |a, out| a.map_into(out, f32::exp))
    }

    /// Element-wise natural log, clamped below at a small epsilon.
    pub fn ln(self) -> Var<'t> {
        self.unary(Op::Ln(self.idx), |a, out| {
            a.map_into(out, |x| x.max(LN_EPS).ln())
        })
    }

    /// Element-wise square root, clamped below at zero.
    pub fn sqrt(self) -> Var<'t> {
        self.unary(Op::Sqrt(self.idx), |a, out| {
            a.map_into(out, |x| x.max(0.0).sqrt())
        })
    }

    /// Row-wise softmax.
    pub fn softmax(self) -> Var<'t> {
        self.unary(Op::Softmax(self.idx), softmax_into)
    }

    /// Concatenates `vars` along columns (all must share the row count and
    /// live on the same tape). The operand list is kept on the tape, so
    /// `vars` may be a lazy iterator that records the operands itself.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or row counts differ.
    pub fn concat_cols(vars: impl IntoIterator<Item = Var<'t>>) -> Var<'t> {
        let mut vars = vars.into_iter().peekable();
        let tape = vars.peek().expect("concat of zero vars").tape;
        let list = tape.list(vars);
        let (start, end) = (list.start, list.start + list.len);
        let lists = tape.lists.borrow();
        let parents = &lists[start..end];
        tape.push(Op::ConcatCols(start, end), parents, |n, out| {
            let rows = n[parents[0]].value.rows();
            let cols = parents.iter().map(|&p| n[p].value.cols()).sum();
            out.resize(rows, cols);
            let mut offset = 0;
            for &p in parents {
                let v = &n[p].value;
                assert_eq!(
                    v.rows(),
                    rows,
                    "hstack row mismatch: {} vs {rows}",
                    v.rows()
                );
                for r in 0..rows {
                    out.row_mut(r)[offset..offset + v.cols()].copy_from_slice(v.row(r));
                }
                offset += v.cols();
            }
        })
    }

    /// Copies the column range `[start, end)` as a new node.
    pub fn slice_cols(self, start: usize, end: usize) -> Var<'t> {
        self.unary(Op::SliceCols(self.idx, start, end), |a, out| {
            a.slice_cols_into(start, end, out)
        })
    }

    /// Reshapes to `rows × cols` (same element count).
    ///
    /// # Panics
    ///
    /// Panics if the element count differs.
    pub fn reshape(self, rows: usize, cols: usize) -> Var<'t> {
        self.unary(Op::Reshape(self.idx), |a, out| {
            assert_eq!(
                a.len(),
                rows * cols,
                "cannot reshape {}x{} into {rows}x{cols}",
                a.rows(),
                a.cols()
            );
            out.copy_from(a);
            out.resize(rows, cols);
        })
    }

    /// A constant copy of this node's value: gradients stop here, so
    /// nothing upstream of it takes part in the reverse pass.
    pub fn detach(self) -> Var<'t> {
        let a = self.idx;
        self.tape
            .push(Op::Leaf, &[], |n, out| out.copy_from(&n[a].value))
    }

    /// Records a loss node over these logits and the constant `target`,
    /// its value computed by `total` from both.
    fn loss(
        self,
        target: Var<'t>,
        op: Op,
        what: &str,
        total: impl FnOnce(&Matrix, &Matrix) -> f32,
    ) -> Var<'t> {
        self.binary(target, op, |va, target, out| {
            assert_eq!(va.shape(), target.shape(), "{what} target shape mismatch");
            set_scalar(out, total(va, target))
        })
    }

    /// Mean binary-cross-entropy between these logits and constant targets,
    /// as a `1 × 1` node (numerically stable log-sum-exp form).
    pub fn bce_with_logits(self, target: &Matrix) -> Var<'t> {
        self.bce_with_logits_node(self.tape.constant(target))
    }

    /// [`Var::bce_with_logits`] against targets already on the tape, such
    /// as a [`Tape::constant_with`] fill. `target` must be a constant: no
    /// gradient flows into it.
    pub(crate) fn bce_with_logits_node(self, target: Var<'t>) -> Var<'t> {
        let op = Op::BceWithLogits(self.idx, target.idx);
        self.loss(target, op, "bce", |va, target| {
            let total: f32 = va
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(&x, &t)| x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln())
                .sum();
            total / va.len() as f32
        })
    }

    /// Mean softmax cross-entropy between these logits and constant one-hot
    /// (or soft) targets, as a `1 × 1` node.
    pub fn softmax_cross_entropy(self, target: &Matrix) -> Var<'t> {
        let t = self.tape.constant(target);
        let op = Op::SoftmaxCrossEntropy(self.idx, t.idx);
        self.loss(t, op, "cross-entropy", |va, target| {
            let mut total = 0.0;
            for r in 0..va.rows() {
                let row = va.row(r);
                let (max, sum) = softmax_row_max_sum(row);
                for (&x, &t) in row.iter().zip(target.row(r)) {
                    let p = (x - max).exp() / sum;
                    total -= t * p.max(LN_EPS).ln();
                }
            }
            total / va.rows() as f32
        })
    }

    /// Mean squared error against constant targets as a `1 × 1` node.
    pub fn mse(self, target: &Matrix) -> Var<'t> {
        let t = self.tape.constant(target);
        let op = Op::Mse(self.idx, t.idx);
        self.loss(t, op, "mse", |va, target| {
            let total: f32 = va
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(&x, &t)| (x - t) * (x - t))
                .sum();
            total / va.len() as f32
        })
    }
}

/// Writes `v` as a `1 × 1` value.
fn set_scalar(out: &mut Matrix, v: f32) {
    out.resize(1, 1);
    out.as_mut_slice()[0] = v;
}

impl std::fmt::Debug for Var<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Var#{} {:?}", self.idx, self.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_tensor::MatrixRandomExt;
    use rand::{rngs::StdRng, SeedableRng};

    fn scalar(tape: &Tape, v: f32) -> Var<'_> {
        tape.constant(&Matrix::full(1, 1, v))
    }

    #[test]
    fn add_mul_chain_gradients() {
        // f(a, b) = sum(a * b + a); df/da = b + 1, df/db = a
        let tape = Tape::new();
        let pa = Param::new(Matrix::full(1, 1, 3.0));
        let pb = Param::new(Matrix::full(1, 1, 4.0));
        let a = tape.param(&pa);
        let b = tape.param(&pb);
        let f = a.mul(b).add(a).sum();
        assert_eq!(f.value()[(0, 0)], 15.0);
        tape.backward(f);
        assert_eq!(pa.grad()[(0, 0)], 5.0);
        assert_eq!(pb.grad()[(0, 0)], 3.0);
    }

    #[test]
    fn div_gradients() {
        // f = a / b at a=6, b=3: df/da = 1/3, df/db = -6/9
        let tape = Tape::new();
        let pa = Param::new(Matrix::full(1, 1, 6.0));
        let pb = Param::new(Matrix::full(1, 1, 3.0));
        let f = tape.param(&pa).div(tape.param(&pb)).sum();
        tape.backward(f);
        assert!((pa.grad()[(0, 0)] - 1.0 / 3.0).abs() < 1e-6);
        assert!((pb.grad()[(0, 0)] + 6.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_gradient_matches_manual() {
        let tape = Tape::new();
        let pw = Param::new(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let x = tape.constant(&Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        let w = tape.param(&pw);
        let loss = x.matmul(w).sum();
        tape.backward(loss);
        // d sum(XW)/dW = Xᵀ · 1
        assert_eq!(pw.grad(), Matrix::from_rows(&[&[2.0, 2.0], &[2.0, 2.0]]));
    }

    #[test]
    fn activation_values() {
        let tape = Tape::new();
        let x = tape.constant(&Matrix::row_vector(&[-1.0, 0.0, 2.0]));
        assert_eq!(x.relu().value().as_slice(), &[0.0, 0.0, 2.0]);
        assert_eq!(x.leaky_relu(0.1).value().as_slice(), &[-0.1, 0.0, 2.0]);
        let s = x.sigmoid().value();
        assert!((s[(0, 1)] - 0.5).abs() < 1e-6);
        let t = x.tanh().value();
        assert!((t[(0, 2)] - 2.0f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let tape = Tape::new();
        let x = tape.constant(&Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[1000.0, 1000.0, 1000.0],
        ]));
        let s = x.softmax().value();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(
            !s.has_non_finite(),
            "softmax must be stable for large logits"
        );
    }

    #[test]
    fn broadcast_row_gradients() {
        // loss = sum(x + b) where b is 1x2 and x is 3x2 -> db = [3, 3]
        let tape = Tape::new();
        let pb = Param::new(Matrix::row_vector(&[0.5, -0.5]));
        let x = tape.constant(&Matrix::ones(3, 2));
        let loss = x.add_row(tape.param(&pb)).sum();
        tape.backward(loss);
        assert_eq!(pb.grad().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn concat_and_slice_gradients() {
        let tape = Tape::new();
        let pa = Param::new(Matrix::ones(2, 2));
        let pb = Param::new(Matrix::ones(2, 3));
        let a = tape.param(&pa);
        let b = tape.param(&pb);
        let cat = Var::concat_cols([a, b]);
        assert_eq!(cat.shape(), (2, 5));
        // only the second half contributes
        let loss = cat.slice_cols(2, 5).sum();
        tape.backward(loss);
        assert_eq!(pa.grad().sum(), 0.0);
        assert_eq!(pb.grad().sum(), 6.0);
    }

    #[test]
    fn bce_with_logits_matches_closed_form() {
        let tape = Tape::new();
        let p = Param::new(Matrix::row_vector(&[0.0, 2.0]));
        let target = Matrix::row_vector(&[1.0, 0.0]);
        let loss = tape.param(&p).bce_with_logits(&target);
        let expected = (-0.5f32.ln() + (1.0 + 2.0f32.exp()).ln()) / 2.0;
        assert!((loss.value()[(0, 0)] - expected).abs() < 1e-5);
        tape.backward(loss);
        let g = p.grad();
        assert!((g[(0, 0)] - (0.5 - 1.0) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_cross_entropy_gradient_direction() {
        let tape = Tape::new();
        let p = Param::new(Matrix::row_vector(&[0.0, 0.0, 0.0]));
        let target = Matrix::row_vector(&[0.0, 1.0, 0.0]);
        let loss = tape.param(&p).softmax_cross_entropy(&target);
        assert!((loss.value()[(0, 0)] - 3.0f32.ln()).abs() < 1e-5);
        tape.backward(loss);
        let g = p.grad();
        assert!(
            g[(0, 1)] < 0.0,
            "gradient must push the true-class logit up"
        );
        assert!(g[(0, 0)] > 0.0 && g[(0, 2)] > 0.0);
    }

    #[test]
    fn mean_rows_gradient_spreads() {
        let tape = Tape::new();
        let p = Param::new(Matrix::ones(4, 2));
        let loss = tape.param(&p).mean_rows().sum();
        tape.backward(loss);
        assert_eq!(p.grad(), Matrix::full(4, 2, 0.25));
    }

    #[test]
    fn numeric_gradient_check_mlp_like_graph() {
        let mut rng = StdRng::seed_from_u64(11);
        let pw = Param::new(Matrix::randn(3, 4, 0.0, 0.5, &mut rng));
        let x = Matrix::randn(5, 3, 0.0, 1.0, &mut rng);
        let t = Matrix::randn(5, 4, 0.0, 1.0, &mut rng);

        let loss_value = |pw: &Param, backward: bool| -> f32 {
            let tape = Tape::new();
            let out = tape.constant(&x).matmul(tape.param(pw)).tanh();
            let loss = out.mse(&t);
            if backward {
                tape.backward(loss);
            }
            loss.value()[(0, 0)]
        };
        let _ = loss_value(&pw, true);
        let analytic = pw.grad();
        pw.zero_grad();
        let max_diff = crate::gradient_check(&pw, || loss_value(&pw, false), &analytic, 1e-2);
        assert!(
            max_diff < 2e-2,
            "numeric vs analytic gradient diff {max_diff}"
        );
    }

    #[test]
    fn gradient_does_not_flow_into_constants() {
        let tape = Tape::new();
        let p = Param::new(Matrix::full(1, 1, 2.0));
        let c = scalar(&tape, 10.0);
        let loss = tape.param(&p).mul(c).sum();
        tape.backward(loss);
        assert_eq!(p.grad()[(0, 0)], 10.0);
        // No parameter depends on a constant, so the reverse pass computes
        // no gradient for it.
        assert_eq!(c.grad(), Matrix::zeros(1, 1));
    }

    #[test]
    fn a_reset_tape_reproduces_a_fresh_one_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let pw = Param::new(Matrix::randn(3, 4, 0.0, 0.5, &mut rng));
        let x = Matrix::randn(6, 3, 0.0, 1.0, &mut rng);
        let t = Matrix::randn(6, 4, 0.0, 1.0, &mut rng);
        let pass = |tape: &Tape| {
            let h = tape.constant(&x).matmul(tape.param(&pw)).tanh();
            let loss = Var::concat_cols([h, h.sigmoid()]).slice_cols(2, 6).mse(&t);
            tape.backward(loss);
            let out = (loss.scalar(), pw.grad());
            pw.zero_grad();
            out
        };
        let fresh = pass(&Tape::new());
        let mut tape = Tape::new();
        // A differently shaped graph first, so every slot holds stale data.
        let junk = tape
            .constant(&Matrix::ones(9, 9))
            .mul_const(&Matrix::full(9, 9, 3.0));
        tape.backward(junk.add(tape.param(&Param::new(Matrix::ones(9, 9)))).sum());
        tape.reset();
        assert!(tape.is_empty());
        let reused = pass(&tape);
        assert_eq!(fresh.0.to_bits(), reused.0.to_bits());
        assert_eq!(fresh.1, reused.1);
    }

    #[test]
    fn detach_stops_the_reverse_pass() {
        let tape = Tape::new();
        let (pa, pb) = (
            Param::new(Matrix::full(1, 1, 3.0)),
            Param::new(Matrix::full(1, 1, 4.0)),
        );
        let a = tape.param(&pa);
        let loss = a.mul(a).detach().mul(tape.param(&pb)).sum();
        assert_eq!(loss.scalar(), 36.0);
        tape.backward(loss);
        assert_eq!(pa.grad()[(0, 0)], 0.0);
        assert_eq!(pb.grad()[(0, 0)], 9.0);
    }

    #[test]
    fn frozen_params_are_constants_until_reset() {
        let mut tape = Tape::new();
        let (pa, pb) = (
            Param::new(Matrix::full(1, 1, 3.0)),
            Param::new(Matrix::full(1, 1, 4.0)),
        );
        let mut frozen = ParamSet::new();
        frozen.push(pb.clone());
        tape.freeze(&frozen);
        let loss = tape.param(&pa).mul(tape.param(&pb)).sum();
        assert_eq!(loss.scalar(), 12.0);
        tape.backward(loss);
        assert_eq!(pa.grad()[(0, 0)], 4.0);
        assert_eq!(pb.grad()[(0, 0)], 0.0, "a frozen param gets no gradient");
        tape.reset();
        let loss = tape.param(&pa).mul(tape.param(&pb)).sum();
        tape.backward(loss);
        assert_eq!(pb.grad()[(0, 0)], 3.0, "reset thaws it");
    }

    #[test]
    fn param_used_twice_accumulates() {
        let tape = Tape::new();
        let p = Param::new(Matrix::full(1, 1, 3.0));
        let a = tape.param(&p);
        let b = tape.param(&p);
        let loss = a.add(b).sum(); // d/dp = 2 (two separate registrations)
        tape.backward(loss);
        assert_eq!(p.grad()[(0, 0)], 2.0);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar() {
        let tape = Tape::new();
        let x = tape.constant(&Matrix::ones(2, 2));
        tape.backward(x);
    }

    #[test]
    fn exp_ln_sqrt_gradients() {
        let tape = Tape::new();
        let p = Param::new(Matrix::full(1, 1, 4.0));
        let x = tape.param(&p);
        let loss = x.exp().add(x.ln()).add(x.sqrt()).sum();
        tape.backward(loss);
        let expected = 4.0f32.exp() + 0.25 + 0.5 / 2.0;
        assert!((p.grad()[(0, 0)] - expected).abs() < 1e-2);
    }

    #[test]
    fn reshape_gradient_roundtrip() {
        let tape = Tape::new();
        let p = Param::new(Matrix::ones(2, 3));
        let loss = tape.param(&p).reshape(3, 2).mse(&Matrix::zeros(3, 2));
        tape.backward(loss);
        assert_eq!(p.grad().shape(), (2, 3));
        assert!((p.grad()[(0, 0)] - 2.0 / 6.0).abs() < 1e-6);
    }
}
