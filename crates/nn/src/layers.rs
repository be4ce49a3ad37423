//! Trainable layers: parameters, (masked) linear layers, embeddings, ReLU.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::{
    add_bias, column_sums_accumulate, gemm_tn_acc, gemm_tn_acc_rows, matmul_blocked,
    transpose_into, MadeMask, Matrix,
};

/// A trainable parameter tensor: value and accumulated gradient of identical shape.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (zeroed by the optimizer after each step).
    pub grad: Matrix,
}

impl Param {
    /// A zero-initialised parameter.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Param {
            value: Matrix::zeros(rows, cols),
            grad: Matrix::zeros(rows, cols),
        }
    }

    /// Uniform "Xavier/Glorot" initialisation in `±sqrt(6/(fan_in+fan_out))`.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-limit..limit))
            .collect();
        Param {
            value: Matrix::from_vec(rows, cols, data),
            grad: Matrix::zeros(rows, cols),
        }
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.value.rows() * self.value.cols()
    }

    /// Zeroes the gradient buffer.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// A dense layer `y = x·W + b` with `W: in×out`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix (`in_dim × out_dim`).
    pub weight: Param,
    /// Bias vector (`1 × out_dim`).
    pub bias: Param,
}

impl Linear {
    /// Creates a Xavier-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Linear {
            weight: Param::xavier(in_dim, out_dim, rng),
            bias: Param::zeros(1, out_dim),
        }
    }

    /// Forward pass: `out = x·W + b` (every element of `out` is overwritten).
    pub fn forward(&self, x: &Matrix, out: &mut Matrix) {
        matmul_blocked(x, &self.weight.value, out);
        add_bias(out.data_mut(), self.bias.value.row(0));
    }

    /// Backward pass: accumulates `dW += xᵀ·dy` ([`gemm_tn_acc`]) and `db += Σ dy`, and
    /// overwrites `dx = dy·Wᵀ` — [`matmul_blocked`] over `Wᵀ`, which this call writes into
    /// `wt` (any shape on entry; a caller that keeps one `wt` across calls and layers
    /// allocates for the largest layer once).  Each `dx` element is the ascending dot
    /// product over the layer's outputs it always was; that the row kernel skips
    /// `dy == 0.0` drops only `±0.0` terms while the weights are finite.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix, dx: &mut Matrix, wt: &mut Matrix) {
        let Param { value, grad } = &mut self.weight;
        let (in_dim, out_dim) = (value.rows(), value.cols());
        assert_eq!(x.rows(), dy.rows(), "outer (batch) dimensions must agree");
        assert_eq!((x.cols(), dy.cols()), (in_dim, out_dim));
        gemm_tn_acc(
            x.rows(),
            in_dim,
            out_dim,
            x.data(),
            dy.data(),
            None,
            grad.data_mut(),
        );
        column_sums_accumulate(dy, 0..out_dim, self.bias.grad.row_mut(0));
        transpose_into(in_dim, out_dim, value.data(), wt);
        matmul_blocked(dy, wt, dx);
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.weight.num_params() + self.bias.num_params()
    }
}

/// A masked dense layer: identical to [`Linear`] but with a fixed connectivity rule.
///
/// The rule enforces the autoregressive property (MADE): forbidden weights are initialised
/// to zero and their gradients are zeroed every backward pass, so they remain exactly zero
/// for the lifetime of the model and the forward pass can use a plain GEMM.  The layer
/// holds the [`MadeMask`] rule itself — a few words — and evaluates it where a pass needs
/// it; no 0/1 matrix is ever materialised.
#[derive(Debug, Clone)]
pub struct MaskedLinear {
    /// The underlying dense layer.
    pub inner: Linear,
    mask: MadeMask,
}

impl MaskedLinear {
    /// Creates a masked layer: `mask.allows(i, o) == false` forbids the connection from
    /// input unit `i` to output unit `o`.  Every weight draws its Xavier value — the RNG
    /// stream does not depend on the mask — and the forbidden ones are then zeroed, so the
    /// autoregressive property holds from step zero.
    pub fn new(in_dim: usize, out_dim: usize, mask: MadeMask, rng: &mut StdRng) -> Self {
        let mut inner = Linear::new(in_dim, out_dim, rng);
        zero_forbidden(inner.weight.value.data_mut(), out_dim, 0..in_dim, mask);
        MaskedLinear { inner, mask }
    }

    /// The layer's connectivity rule.
    pub fn mask(&self) -> MadeMask {
        self.mask
    }

    /// Forward pass (plain GEMM; masked weights are structurally zero).
    pub fn forward(&self, x: &Matrix, out: &mut Matrix) {
        self.inner.forward(x, out);
    }

    /// `Wᵀ` into `wt` (resized; its allocation reused): the operand of
    /// [`MaskedLinear::backward_dx`], transposed once per step and read by every lane.
    pub fn transpose_weight(&self, wt: &mut Matrix) {
        let value = &self.inner.weight.value;
        transpose_into(value.rows(), value.cols(), value.data(), wt);
    }

    /// The `dx` half of the backward pass: overwrites `dx = dy·Wᵀ`, where `wt` holds this
    /// layer's `Wᵀ` ([`MaskedLinear::transpose_weight`]) — [`matmul_blocked`] over it, so
    /// each row of `dx` depends on the same row of `dy` only.  Each `dx` element is the
    /// ascending dot product over the layer's outputs it always was; that the row kernel
    /// skips `dy == 0.0` drops only `±0.0` terms while the weights are finite.  The other
    /// half is `weight_grad_rows` and the bias's column sums.
    pub fn backward_dx(&self, dy: &Matrix, wt: &Matrix, dx: &mut Matrix) {
        let value = &self.inner.weight.value;
        assert_eq!(
            (wt.rows(), wt.cols()),
            (value.cols(), value.rows()),
            "wt must be this layer's transposed weight"
        );
        matmul_blocked(dy, wt, dx);
    }

    /// Total number of scalar parameters (counting masked entries, as the dense storage
    /// does; `effective_params` reports only the live ones).
    pub fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    /// Number of unmasked (live) weight parameters plus biases.
    pub fn effective_params(&self) -> usize {
        let weight = &self.inner.weight.value;
        let forbidden: usize = (0..weight.rows())
            .flat_map(|i| self.mask.forbidden_runs(i, weight.cols()))
            .map(|run| run.len())
            .sum();
        self.inner.num_params() - forbidden
    }
}

/// The `dW` half of a masked layer's backward pass, over the gradient rows `rows` of a
/// weight under `mask`: `grad` (those rows only, row-major) `+= xᵀ·dy` over a batch given
/// as row chunks in batch order — `(x, dy)` per chunk — and then `+0.0` over every entry
/// the rule forbids, so the optimizer can never resurrect a forbidden connection.
///
/// Each element is one ascending-batch-row chain however the batch is chunked
/// ([`gemm_tn_acc_rows`] resumes it from `grad`), so callers that own disjoint row ranges
/// of one gradient compute it together, bit for bit.  The forbidden entries are
/// discarded, so the product skips the register tiles that hold nothing else.
///
/// The dense-matrix masks the rule replaced multiplied every gradient by its 0/1 entry.
/// No bit of a trained model moved with them: an allowed gradient was `g · 1.0 = g`; a
/// forbidden one was `g · 0.0 = ±0.0` and is now `+0.0`, and Adam maps both to `m = +0.0`
/// (`β₁·(+0.0) + (1−β₁)·(−0.0) = +0.0`), `v = +0.0` and `w −= +0.0`.  Only a diverged run
/// differs: a non-finite gradient used to leak `NaN · 0.0 = NaN` into a masked weight, and
/// now cannot.
pub(crate) fn weight_grad_rows<'a>(
    mask: MadeMask,
    batch: impl IntoIterator<Item = (&'a Matrix, &'a Matrix)>,
    rows: Range<usize>,
    grad: &mut [f32],
) {
    let mut width = None;
    for (x, dy) in batch {
        assert_eq!(x.rows(), dy.rows(), "outer (batch) dimensions must agree");
        let (in_dim, out_dim) = (x.cols(), dy.cols());
        gemm_tn_acc_rows(
            x.rows(),
            in_dim,
            out_dim,
            x.data(),
            dy.data(),
            Some(mask),
            rows.clone(),
            grad,
        );
        width = Some(out_dim);
    }
    if let Some(width) = width {
        zero_forbidden(grad, width, rows, mask);
    }
}

/// Writes `+0.0` into every entry `mask` forbids in the rows `rows` of a `· × width`
/// matrix, given as those rows only (`data`), row by row over the rule's runs.
fn zero_forbidden(data: &mut [f32], width: usize, rows: Range<usize>, mask: MadeMask) {
    for (i, row) in rows.zip(data.chunks_exact_mut(width.max(1))) {
        for run in mask.forbidden_runs(i, width) {
            row[run].fill(0.0);
        }
    }
}

/// A per-column embedding table with `domain + 1` rows; the extra last row is the MASK
/// token used by wildcard skipping (paper §3.4).
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Embedding matrix (`(domain+1) × dim`).
    pub table: Param,
    domain: usize,
}

impl Embedding {
    /// Creates an embedding for a column with `domain` distinct codes.
    pub fn new(domain: usize, dim: usize, rng: &mut StdRng) -> Self {
        Embedding {
            table: Param::xavier(domain + 1, dim, rng),
            domain,
        }
    }

    /// The column's domain size (excluding the MASK token).
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.table.value.cols()
    }

    /// The token id of the MASK (wildcard) token.
    pub fn mask_token(&self) -> u32 {
        self.domain as u32
    }

    /// Copies the embedding of `token` into `out`.
    pub fn lookup(&self, token: u32, out: &mut [f32]) {
        let token = token as usize;
        assert!(
            token <= self.domain,
            "token {token} outside domain {}",
            self.domain
        );
        out.copy_from_slice(self.table.value.row(token));
    }

    /// Accumulates `grad` into the gradient row of `token`.
    pub fn accumulate_grad(&mut self, token: u32, grad: &[f32]) {
        let token = token as usize;
        let row = self.table.grad.row_mut(token);
        for (g, d) in row.iter_mut().zip(grad) {
            *g += d;
        }
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.table.num_params()
    }
}

/// In-place ReLU; returns nothing, mutates `m`.
pub fn relu(m: &mut Matrix) {
    for v in m.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Backward of ReLU: zeroes entries of `dy` where the *activation output* was zero.
pub fn relu_backward(activated: &Matrix, dy: &mut Matrix) {
    assert_eq!(activated.rows(), dy.rows());
    assert_eq!(activated.cols(), dy.cols());
    for (d, a) in dy.data_mut().iter_mut().zip(activated.data()) {
        if *a == 0.0 {
            *d = 0.0;
        }
    }
}

/// Deterministic RNG helper shared by model constructors.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_backward_shapes_and_gradcheck() {
        let mut rng = seeded_rng(1);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        let mut y = Matrix::zeros(2, 2);
        layer.forward(&x, &mut y);

        // Loss = sum(y); dy = ones.
        let dy = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let mut dx = Matrix::zeros(2, 3);
        layer.backward(&x, &dy, &mut dx, &mut Matrix::zeros(0, 0));

        // Numerical gradient check on one weight.
        let eps = 1e-3;
        let loss = |l: &Linear| {
            let mut out = Matrix::zeros(2, 2);
            l.forward(&x, &mut out);
            out.data().iter().sum::<f32>()
        };
        let base = loss(&layer);
        let mut perturbed = layer.clone();
        let orig = perturbed.weight.value.get(1, 0);
        perturbed.weight.value.set(1, 0, orig + eps);
        let numeric = (loss(&perturbed) - base) / eps;
        let analytic = layer.weight.grad.get(1, 0);
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
        assert_eq!(layer.num_params(), 3 * 2 + 2);
    }

    #[test]
    fn masked_linear_keeps_masked_weights_zero() {
        let mut rng = seeded_rng(2);
        // Two hidden units of degrees 0 and 1: the rule forbids input 1 -> output 0.
        let mut layer = MaskedLinear::new(2, 2, MadeMask::Hidden { period: 2 }, &mut rng);
        assert_eq!(layer.inner.weight.value.get(1, 0), 0.0);
        assert_eq!(layer.effective_params(), 3 + 2);
        assert_eq!(layer.num_params(), 4 + 2);

        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut y = Matrix::zeros(1, 2);
        layer.forward(&x, &mut y);
        let dy = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut wt = Matrix::zeros(0, 0);
        layer.transpose_weight(&mut wt);
        let mut dx = Matrix::zeros(1, 2);
        layer.backward_dx(&dy, &wt, &mut dx);
        assert_eq!(
            dx.data(),
            &[
                layer.inner.weight.value.get(0, 0) + layer.inner.weight.value.get(0, 1),
                layer.inner.weight.value.get(1, 1)
            ]
        );
        let mask = layer.mask();
        let grad = layer.inner.weight.grad.data_mut();
        // Row 1 alone, from a batch in two chunks (the second empty), then row 0.
        let empty = Matrix::zeros(0, 2);
        weight_grad_rows(mask, [(&x, &dy), (&empty, &empty)], 1..2, &mut grad[2..]);
        weight_grad_rows(mask, [(&x, &dy)], 0..1, &mut grad[..2]);
        // Gradient of the masked weight is forced to zero.
        assert_eq!(layer.inner.weight.grad.get(1, 0), 0.0);
        assert_eq!(layer.inner.weight.grad.get(1, 1), 1.0);
        assert_ne!(layer.inner.weight.grad.get(0, 0), 0.0);
    }

    #[test]
    fn masked_output_ignores_masked_input() {
        let mut rng = seeded_rng(3);
        // Two columns of one context unit each: output 1 may only see input 0 (degree 0).
        let mask = MadeMask::Output {
            period: 2,
            d_emb: 1,
        };
        let layer = MaskedLinear::new(2, 2, mask, &mut rng);
        let x1 = Matrix::from_vec(1, 2, vec![3.0, 0.0]);
        let x2 = Matrix::from_vec(1, 2, vec![3.0, 99.0]);
        let mut y1 = Matrix::zeros(1, 2);
        let mut y2 = Matrix::zeros(1, 2);
        layer.forward(&x1, &mut y1);
        layer.forward(&x2, &mut y2);
        assert!((y1.get(0, 1) - y2.get(0, 1)).abs() < 1e-6);
    }

    #[test]
    fn embedding_lookup_and_grad() {
        let mut rng = seeded_rng(4);
        let mut emb = Embedding::new(5, 3, &mut rng);
        assert_eq!(emb.domain(), 5);
        assert_eq!(emb.dim(), 3);
        assert_eq!(emb.mask_token(), 5);
        assert_eq!(emb.num_params(), 6 * 3);
        let mut out = vec![0.0; 3];
        emb.lookup(2, &mut out);
        assert_eq!(out, emb.table.value.row(2));
        emb.lookup(emb.mask_token(), &mut out);
        emb.accumulate_grad(2, &[1.0, 2.0, 3.0]);
        emb.accumulate_grad(2, &[1.0, 1.0, 1.0]);
        assert_eq!(emb.table.grad.row(2), &[2.0, 3.0, 4.0]);
        assert_eq!(emb.table.grad.row(3), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn embedding_out_of_domain_panics() {
        let mut rng = seeded_rng(5);
        let emb = Embedding::new(3, 2, &mut rng);
        let mut out = vec![0.0; 2];
        emb.lookup(9, &mut out);
    }

    #[test]
    fn relu_and_its_backward() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        relu(&mut m);
        assert_eq!(m.data(), &[0.0, 0.0, 2.0, 0.0]);
        let mut dy = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        relu_backward(&m, &mut dy);
        assert_eq!(dy.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::zeros(2, 2);
        p.grad.set(0, 0, 5.0);
        p.zero_grad();
        assert_eq!(p.grad.get(0, 0), 0.0);
        assert_eq!(p.num_params(), 4);
    }
}
