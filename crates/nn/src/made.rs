//! ResMADE: the masked autoregressive density model (paper §3.4, Figure 3).
//!
//! The model factorises the joint distribution of an `n`-column tuple autoregressively,
//! `p(x) = Π p(xᵢ | x₍<ᵢ₎)`, and evaluates **all** `n` conditionals in a single forward
//! pass thanks to MADE-style connectivity masks:
//!
//! * every input/hidden/output unit carries a *degree* identifying the column (or column
//!   prefix) it is allowed to depend on,
//! * masked linear layers only connect units whose degrees respect the autoregressive
//!   order, so the logits for column `i` are a function of columns `< i` only.
//!
//! Architecture: per-column embeddings → masked input layer → ReLU → `k` masked residual
//! blocks → masked output layer producing one `d_emb`-dimensional *context vector* per
//! column → per-column logits obtained by dotting the context with the (weight-tied)
//! embedding table plus a bias.  Wildcard skipping (§3.4) is supported by reserving one
//! extra MASK token per column: during training inputs are randomly replaced by MASK, and
//! at inference MASK is fed for every unconstrained column.

use std::cmp::Reverse;
use std::ops::Range;
use std::sync::{OnceLock, PoisonError};
use std::thread;

use rand::rngs::StdRng;
use rand::Rng;

use crate::layers::{
    relu, relu_backward, seeded_rng, weight_grad_rows, Embedding, Linear, MaskedLinear, Param,
};
use crate::loss::{softmax_cross_entropy_rows, softmax_rows, softmax_rows_slice};
use crate::tensor::{
    add_bias, column_sums_accumulate, gemm_narrow, gemm_nt, gemm_tn_acc, matmul, matmul_blocked,
    matmul_blocked_acc, matmul_col_range_live, matmul_units_live, transpose_into, LiveUnits,
    MadeMask, Matrix,
};

/// A step's new hidden units are computed in runs widened outward to multiples of this
/// many units (see [`LiveUnits::added_since`]): the register tiles of
/// [`matmul_units_live`] then run full, and recomputing a unit the carry already holds
/// reproduces its bits.  Chosen on `direct_m` (numbers in `docs/kernels.md`).
const UNIT_ALIGN: usize = 4;

/// Hyper-parameters of a [`ResMade`] model.
#[derive(Debug, Clone)]
pub struct MadeConfig {
    /// Domain size (number of distinct codes) of each column, in autoregressive order.
    pub domains: Vec<usize>,
    /// Per-column embedding dimension (`d_emb` in the paper's ablation, Table 5 group C).
    pub d_emb: usize,
    /// Hidden width of the masked feed-forward layers (`d_ff`).
    pub d_hidden: usize,
    /// Number of residual blocks (each = two masked linear layers).
    pub num_blocks: usize,
    /// Seed for parameter initialisation.
    pub seed: u64,
}

impl MadeConfig {
    /// A small default configuration suitable for tests.
    pub fn small(domains: Vec<usize>) -> Self {
        MadeConfig {
            domains,
            d_emb: 8,
            d_hidden: 32,
            num_blocks: 1,
            seed: 0,
        }
    }
}

/// The ResMADE autoregressive model.
#[derive(Debug, Clone)]
pub struct ResMade {
    config: MadeConfig,
    embeddings: Vec<Embedding>,
    input_layer: MaskedLinear,
    blocks: Vec<(MaskedLinear, MaskedLinear)>,
    output_layer: MaskedLinear,
    /// Per-column logit biases (`1 × domainᵢ`).
    output_bias: Vec<Param>,
}

impl ResMade {
    /// Builds a model with MADE connectivity for the given configuration.  The only
    /// matrices it allocates are parameters: each masked layer carries its connectivity as
    /// a [`MadeMask`] rule over the model's degree period.
    pub fn new(config: MadeConfig) -> Self {
        assert!(
            !config.domains.is_empty(),
            "model needs at least one column"
        );
        assert!(config.d_emb > 0 && config.d_hidden > 0);
        let n = config.domains.len();
        let mut rng = seeded_rng(config.seed);

        let embeddings: Vec<Embedding> = config
            .domains
            .iter()
            .map(|&d| Embedding::new(d, config.d_emb, &mut rng))
            .collect();

        // Hidden-unit degrees are round-robin over {0, .., n-2} (a unit of degree g may
        // depend on columns ≤ g and feed columns > g).  With a single column there is
        // nothing to condition on; degree 0 units then feed nothing, which is fine.
        let period = Self::degree_period(n);
        let (d_emb, d_hidden) = (config.d_emb, config.d_hidden);
        let input_layer = MaskedLinear::new(
            n * d_emb,
            d_hidden,
            MadeMask::Input { period, d_emb },
            &mut rng,
        );
        let mut hidden_layer =
            || MaskedLinear::new(d_hidden, d_hidden, MadeMask::Hidden { period }, &mut rng);
        let blocks: Vec<(MaskedLinear, MaskedLinear)> = (0..config.num_blocks)
            .map(|_| (hidden_layer(), hidden_layer()))
            .collect();
        let output_layer = MaskedLinear::new(
            d_hidden,
            n * d_emb,
            MadeMask::Output { period, d_emb },
            &mut rng,
        );

        let output_bias = config.domains.iter().map(|&d| Param::zeros(1, d)).collect();

        ResMade {
            config,
            embeddings,
            input_layer,
            blocks,
            output_layer,
            output_bias,
        }
    }

    /// Period `P` of the round-robin hidden-unit degrees of an `n`-column model: unit `h`
    /// has degree `h % P`, over the degrees `0..=n−2` (one degree when there are fewer).
    /// The one place the layout is spelled: every layer's [`MadeMask`] evaluates its rule
    /// over it and [`ResMade::live_units`] derives a step's live set from it.
    fn degree_period(n: usize) -> usize {
        n.saturating_sub(1).max(1)
    }

    /// The hidden units that can reach column `col`'s context — those of degree `< col` —
    /// which are all a step for `col` reads.  It computes those of them its carried prefix
    /// does not already hold.
    pub fn live_units(&self, col: usize) -> LiveUnits {
        LiveUnits::new(Self::degree_period(self.num_columns()), col)
    }

    /// The hidden units a step for `col` computes in each layer when it continues a prefix
    /// of `from` columns: those of degree in `from..col`, one run per degree period,
    /// widened outward to multiples of four units and merged where they touch.
    pub fn new_units(&self, from: usize, col: usize) -> impl Iterator<Item = Range<usize>> {
        self.live_units(col)
            .added_since(from, self.config.d_hidden, UNIT_ALIGN)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.config.domains.len()
    }

    /// Domain size of column `i`.
    pub fn domain(&self, i: usize) -> usize {
        self.config.domains[i]
    }

    /// The MASK (wildcard) token of column `i`.
    pub fn mask_token(&self, i: usize) -> u32 {
        self.embeddings[i].mask_token()
    }

    /// The model configuration.
    pub fn config(&self) -> &MadeConfig {
        &self.config
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.embeddings
            .iter()
            .map(|e| e.num_params())
            .sum::<usize>()
            + self.input_layer.num_params()
            + self
                .blocks
                .iter()
                .map(|(a, b)| a.num_params() + b.num_params())
                .sum::<usize>()
            + self.output_layer.num_params()
            + self
                .output_bias
                .iter()
                .map(|b| b.num_params())
                .sum::<usize>()
    }

    /// Approximate model size in bytes (4 bytes per f32 parameter) — the "Size" column of
    /// the paper's result tables.
    pub fn size_bytes(&self) -> usize {
        self.num_params() * 4
    }

    /// All trainable parameters, in a stable order (for the optimizer and serialization).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = Vec::new();
        for e in &mut self.embeddings {
            out.push(&mut e.table);
        }
        out.push(&mut self.input_layer.inner.weight);
        out.push(&mut self.input_layer.inner.bias);
        for (a, b) in &mut self.blocks {
            out.push(&mut a.inner.weight);
            out.push(&mut a.inner.bias);
            out.push(&mut b.inner.weight);
            out.push(&mut b.inner.bias);
        }
        out.push(&mut self.output_layer.inner.weight);
        out.push(&mut self.output_layer.inner.bias);
        for b in &mut self.output_bias {
            out.push(b);
        }
        out
    }

    /// Read-only view of the parameters, in the same order as [`ResMade::params_mut`].
    pub fn params(&self) -> Vec<&Param> {
        let mut out: Vec<&Param> = Vec::new();
        for e in &self.embeddings {
            out.push(&e.table);
        }
        out.push(&self.input_layer.inner.weight);
        out.push(&self.input_layer.inner.bias);
        for (a, b) in &self.blocks {
            out.push(&a.inner.weight);
            out.push(&a.inner.bias);
            out.push(&b.inner.weight);
            out.push(&b.inner.bias);
        }
        out.push(&self.output_layer.inner.weight);
        out.push(&self.output_layer.inner.bias);
        for b in &self.output_bias {
            out.push(b);
        }
        out
    }

    /// Frees every parameter's gradient buffer (as much memory again as the weights).
    /// The model still evaluates, serialises and clones as before, but can no longer be
    /// trained: [`ResMade::forward_backward`] panics on it.  For models that only serve.
    pub fn release_gradients(&mut self) {
        for p in self.params_mut() {
            p.grad = Matrix::zeros(0, 0);
        }
    }

    /// The trunk's masked layers in order — the input layer, each residual block's two, the
    /// output layer — as [`ResMade::params`] lists them; a training step numbers them so.
    fn layers(&self) -> impl Iterator<Item = &MaskedLinear> {
        std::iter::once(&self.input_layer)
            .chain(self.blocks.iter().flat_map(|(a, b)| [a, b]))
            .chain(std::iter::once(&self.output_layer))
    }

    /// The training forward's trunk (hidden stack → per-column context vectors) over the
    /// embedded rows `r.x`, every activation the backward pass needs kept in `r` (shaped
    /// by [`LaneRows::shape`]).
    fn forward_trunk(&self, r: &mut LaneRows) {
        self.input_layer.forward(&r.x, &mut r.hiddens[0]);
        relu(&mut r.hiddens[0]);
        for (i, (w1, w2)) in self.blocks.iter().enumerate() {
            let (before, after) = r.hiddens.split_at_mut(i + 1);
            let (h_prev, h_next) = (&before[i], &mut after[0]);
            let (a, b) = &mut r.block_acts[i];
            w1.forward(h_prev, a);
            relu(a);
            w2.forward(a, b);
            relu(b);
            for ((o, p), v) in h_next
                .data_mut()
                .iter_mut()
                .zip(h_prev.data())
                .zip(b.data())
            {
                *o = p + v;
            }
        }
        self.output_layer
            .forward(r.hiddens.last().expect("non-empty"), &mut r.ctx);
    }

    /// The `dx` chain of the backward pass over one lane's rows: from the context gradient
    /// (column after column in `dctx`, whose rows `r` copies over its context vectors) down
    /// to the embedded inputs' gradient `r.dx`, each layer's `dy` kept in `r` for the
    /// weight gradients; `wts[l]` is the transposed weight of layer `l` of
    /// [`ResMade::layers`].  Every product is row-local.
    fn backward_rows(&self, r: &mut LaneRows, dctx: &Matrix, wts: &[Matrix]) {
        let (rows, d) = (r.x.rows(), self.config.d_emb);
        for (col, column) in dctx.data().chunks_exact(dctx.cols()).enumerate() {
            let column = &column[r.start * d..(r.start + rows) * d];
            for (b, slice) in column.chunks_exact(d).enumerate() {
                r.ctx.row_mut(b)[col * d..(col + 1) * d].copy_from_slice(slice);
            }
        }
        self.output_layer
            .backward_dx(&r.ctx, &wts[wts.len() - 1], &mut r.dh);
        for (i, (w1, w2)) in self.blocks.iter().enumerate().rev() {
            let (a, b) = &mut r.block_acts[i];
            let da = &mut r.block_grads[i];
            // dh splits into the identity path (stays dh) and the branch path through b,
            // whose gradient overwrites b: what `relu_backward(b, dh)` would leave in a copy
            // of dh.
            for (v, &g) in b.data_mut().iter_mut().zip(r.dh.data()) {
                *v = if *v == 0.0 { 0.0 } else { g };
            }
            w2.backward_dx(b, &wts[2 + 2 * i], da);
            relu_backward(a, da);
            w1.backward_dx(da, &wts[1 + 2 * i], &mut r.dh_branch);
            for (o, v) in r.dh.data_mut().iter_mut().zip(r.dh_branch.data()) {
                *o += v;
            }
        }
        relu_backward(&r.hiddens[0], &mut r.dh);
        self.input_layer.backward_dx(&r.dh, &wts[0], &mut r.dx);
    }

    /// One maximum-likelihood training step on a batch, both token buffers flat row-major
    /// `batch × num_columns`.
    ///
    /// * `inputs` — tokens as fed to the network (may contain MASK tokens from wildcard
    ///   skipping),
    /// * `targets` — the true token of every column (never MASK).
    ///
    /// Gradients are *accumulated* into the parameters; the caller applies an optimizer
    /// step afterwards.  Returns the mean negative log-likelihood (nats per tuple).
    ///
    /// The step runs in **lanes**, one per core this process may run on, as long as each
    /// gets a few rows of the batch; nobody configures them.  Lanes are scoped threads of
    /// this call (the calling thread is the first) and own disjoint output elements of
    /// every product, in four phases — forward by batch rows, the per-column heads by whole
    /// columns, the `dx` chain by batch rows, the weight gradients by gradient rows and
    /// columns — so every element gets exactly the chain of f32 additions one lane gives
    /// it: the trained weights do not depend on the lane count
    /// (`trained_weights_are_pinned*`, at 1, 2 and 3 lanes).  A panic in any lane (a token
    /// outside its domain) is re-raised on the calling thread once every lane has stopped.
    ///
    /// Every activation and gradient lives in `scratch`, which adapts to the batch it is
    /// given: once it has seen the largest batch, no step grows a buffer.  The matrix
    /// products run on the register-blocked kernels of [`crate::tensor`], each of which
    /// keeps the per-element accumulation order of the naive loop it replaced — a trained
    /// weight does not depend on the blocking either.
    pub fn forward_backward(
        &mut self,
        inputs: &[u32],
        targets: &[u32],
        scratch: &mut TrainScratch,
    ) -> f32 {
        let lanes = lanes_for(inputs.len() / self.num_columns(), MIN_LANE_ROWS);
        self.forward_backward_in(inputs, targets, scratch, lanes)
    }

    /// [`ResMade::forward_backward`] in `lanes` lanes.
    pub(crate) fn forward_backward_in(
        &mut self,
        inputs: &[u32],
        targets: &[u32],
        scratch: &mut TrainScratch,
        lanes: usize,
    ) -> f32 {
        assert_eq!(inputs.len(), targets.len());
        assert!(!inputs.is_empty(), "cannot train on an empty batch");
        assert!(
            self.input_layer.inner.weight.grad.rows() > 0,
            "this model's gradient buffers were released; it can only be evaluated"
        );
        assert!(lanes >= 1, "a step needs a lane");
        let n = self.num_columns();
        assert_eq!(
            inputs.len() % n,
            0,
            "flat token buffer length must be a multiple of the column count"
        );
        let batch = inputs.len() / n;
        let d = self.config.d_emb;
        // Every buffer gets its shape here, on the calling thread: no lane allocates, so
        // no lane's thread leaves memory behind in a malloc arena of its own.
        scratch.shape(self, batch, lanes);
        let TrainScratch {
            rows,
            heads,
            wts,
            dctx,
            losses,
        } = scratch;
        let rows = &mut rows[..lanes];

        // 1. Forward, by batch rows: each lane embeds and runs the whole trunk on its own
        //    rows.  Beside it, each layer's `Wᵀ` for the `dx` chain, dealt out by size.
        let transposes = deal(
            lanes,
            self.layers()
                .zip(wts.iter_mut())
                .map(|(layer, wt)| (layer.num_params(), (layer, wt))),
        );
        in_lanes(rows.iter_mut().zip(transposes), |(r, transposes)| {
            let tokens = &inputs[r.start * n..(r.start + r.x.rows()) * n];
            self.embed_flat_into(tokens, &mut r.x);
            self.forward_trunk(r);
            for (layer, wt) in transposes {
                layer.transpose_weight(wt);
            }
        });

        // 2. The per-column heads, by whole columns, dealt out by domain:
        //   logits[b][v] = ctx_col[b] · E[v] + bias[v]
        //   dctx_col[b]  = Σ_v dlogits[b][v] · E[v]          (dlogits · E[..domain])
        //   dE[v]       += Σ_b dlogits[b][v] · ctx_col[b]    (dlogitsᵀ · ctx_col)
        //   dbias[v]    += Σ_b dlogits[b][v]
        // `E[..domain]` leaves out the table's last row: MASK is never a target.  Each
        // column's loss is kept and the losses summed in column order afterwards.
        let columns = self
            .embeddings
            .iter_mut()
            .zip(&mut self.output_bias)
            .zip(dctx.data_mut().chunks_exact_mut(batch * d))
            .zip(losses.iter_mut())
            .enumerate()
            .map(|(col, (((embedding, bias), dctx), loss))| {
                let head = Head {
                    col,
                    embedding,
                    bias,
                    dctx,
                    loss,
                };
                (head.bias.value.cols() + 1, head)
            });
        let dealt = deal(lanes, columns);
        let (lane_rows, scale) = (&*rows, 1.0 / batch as f32);
        in_lanes(heads.iter_mut().zip(dealt), |(scratch, heads)| {
            for head in heads {
                scratch.run(head, lane_rows, (targets, n), scale);
            }
        });
        let total_loss = losses.iter().fold(0.0f32, |total, loss| total + loss);

        // 3. The `dx` chain, by batch rows.
        let (dctx, wts) = (&*dctx, &*wts);
        in_lanes(rows.iter_mut(), |r| self.backward_rows(r, dctx, wts));

        // 4. The weight gradients, deferred: each `dW` by blocks of its rows, each bias by
        //    columns, the input-side embedding gradients by columns (after the heads'
        //    `dE`), all dealt out by size.
        let mut grads = Vec::new();
        let layers = std::iter::once(&mut self.input_layer)
            .chain(self.blocks.iter_mut().flat_map(|(a, b)| [a, b]))
            .chain(std::iter::once(&mut self.output_layer));
        for (layer, masked) in layers.enumerate() {
            let mask = masked.mask();
            let Linear { weight, bias } = &mut masked.inner;
            let (in_dim, out_dim) = (weight.grad.rows(), weight.grad.cols());
            for (block, grad) in weight
                .grad
                .data_mut()
                .chunks_mut(DW_ROWS * out_dim)
                .enumerate()
            {
                let rows = block * DW_ROWS..(block * DW_ROWS + DW_ROWS).min(in_dim);
                let allowed = rows
                    .clone()
                    .map(|i| {
                        out_dim
                            - mask
                                .forbidden_runs(i, out_dim)
                                .map(|run| run.len())
                                .sum::<usize>()
                    })
                    .sum();
                grads.push((
                    allowed,
                    Grad::Weight {
                        layer,
                        mask,
                        rows,
                        grad,
                    },
                ));
            }
            let share = out_dim.div_ceil(lanes);
            for (part, grad) in bias.grad.data_mut().chunks_mut(share).enumerate() {
                let cols = part * share..part * share + grad.len();
                grads.push((grad.len(), Grad::Bias { layer, cols, grad }));
            }
        }
        for (col, embedding) in self.embeddings.iter_mut().enumerate() {
            grads.push((d, Grad::Embedding { col, embedding }));
        }
        let lane_rows = &*rows;
        in_lanes(deal(lanes, grads), |grads| {
            for grad in grads {
                grad.accumulate(lane_rows, (inputs, n));
            }
        });

        total_loss
    }

    /// Wildcard skipping (§3.4): writes into `out` the flat `batch × num_columns` buffer
    /// `tokens` with each token independently replaced by its column's MASK token with
    /// probability `p`.  `rate = Some(p)` uses one `p` for the whole batch; `None` is the
    /// *varied* scheme Naru uses in practice, where each row first draws its own `p`
    /// uniformly from `[0, 1)`.  That exposes the model to inputs ranging from fully
    /// observed to almost fully masked, which is what inference needs — a query typically
    /// constrains only a handful of columns, so the conditioning context at estimation
    /// time is mostly MASK tokens.
    ///
    /// `out` is cleared first (its allocation is reused).  Draws come from `rng` in
    /// row-major order: per row, its `p` if varied, then one draw per column.
    pub fn apply_wildcard_skipping(
        &self,
        tokens: &[u32],
        rate: Option<f32>,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        out.reserve(tokens.len());
        for row in tokens.chunks_exact(self.num_columns()) {
            let p = rate.unwrap_or_else(|| rng.random());
            out.extend(row.iter().enumerate().map(|(c, &t)| {
                if rng.random::<f32>() < p {
                    self.mask_token(c)
                } else {
                    t
                }
            }));
        }
    }

    /// Embeds a flat `batch × num_columns` token buffer into the input matrix `x`
    /// (resized; allocation reused across calls).
    pub fn embed_flat_into(&self, tokens: &[u32], x: &mut Matrix) {
        let n = self.num_columns();
        x.resize(tokens.len() / n, n * self.config.d_emb);
        self.embed_columns(tokens, 0..n, x.data_mut());
    }

    /// Embeds the columns `cols` of a flat `batch × num_columns` token buffer into the
    /// row-major `batch × cols.len()·d_emb` slab `out`.  Tokens outside `cols` are not
    /// read.
    fn embed_columns(&self, tokens: &[u32], cols: Range<usize>, out: &mut [f32]) {
        let n = self.num_columns();
        let d = self.config.d_emb;
        assert_eq!(
            tokens.len() % n,
            0,
            "flat token buffer length must be a multiple of the column count"
        );
        let width = cols.len() * d;
        if width == 0 {
            return;
        }
        for (row_tokens, out_row) in tokens.chunks_exact(n).zip(out.chunks_exact_mut(width)) {
            for ((c, &token), slot) in (cols.start..)
                .zip(&row_tokens[cols.clone()])
                .zip(out_row.chunks_exact_mut(d))
            {
                self.embeddings[c].lookup(token, slot);
            }
        }
    }

    /// The seed trunk — embeddings → hidden stack → the context vectors of *every* column
    /// (`batch × num_columns·d_emb`) — on the naive [`matmul`], fresh allocations per
    /// layer.  It is that kernel's only caller outside tests: the oracle both forwards are
    /// pinned against must share no kernel with them.
    fn reference_ctx(&self, tokens: &[u32]) -> Matrix {
        let mut x = Matrix::zeros(0, 0);
        self.embed_flat_into(tokens, &mut x);
        let layer = |layer: &MaskedLinear, x: &Matrix| {
            let weights = &layer.inner.weight.value;
            let mut out = Matrix::zeros(x.rows(), weights.cols());
            matmul(x, weights, &mut out);
            add_bias(out.data_mut(), layer.inner.bias.value.row(0));
            out
        };
        let mut h = layer(&self.input_layer, &x);
        relu(&mut h);
        for (w1, w2) in &self.blocks {
            let mut a = layer(w1, &h);
            relu(&mut a);
            let mut b = layer(w2, &a);
            relu(&mut b);
            for (o, v) in h.data_mut().iter_mut().zip(b.data()) {
                *o += v;
            }
        }
        layer(&self.output_layer, &h)
    }

    /// The seed (pre-fast-path) inference forward, kept verbatim as the baseline the
    /// determinism contract is pinned against — a test oracle with no production caller:
    /// fresh allocations per call, naive kernels, the full-width output layer (contexts
    /// for *every* column), and the scalar weight-tied logit loop.
    ///
    /// Bit-identical to [`ResMade::conditional_probs_into`] — only the compute profile
    /// differs.
    pub fn conditional_probs_reference(&self, inputs: &[Vec<u32>], col: usize) -> Matrix {
        assert!(col < self.num_columns());
        let flat: Vec<u32> = inputs.iter().flatten().copied().collect();
        let ctx = self.reference_ctx(&flat);
        let d = self.config.d_emb;
        let domain = self.config.domains[col];
        let emb = &self.embeddings[col].table.value;
        let bias = self.output_bias[col].value.row(0);
        let mut logits = Matrix::zeros(ctx.rows(), domain);
        for b in 0..ctx.rows() {
            let c = &ctx.row(b)[col * d..(col + 1) * d];
            let out = logits.row_mut(b);
            for (v, out_v) in out.iter_mut().enumerate() {
                let e = emb.row(v);
                let mut acc = 0.0f32;
                for (a, b_) in c.iter().zip(e) {
                    acc += a * b_;
                }
                *out_v = acc + bias[v];
            }
        }
        softmax_rows(&logits)
    }

    /// Conditional distribution `p(x_col | tokens₍<col₎)` for every row of the flat
    /// `batch × num_columns` buffer `tokens`, as a `batch × domain` matrix of probabilities.
    /// Tokens at columns `>= col` are never read (the masks cut them off); callers
    /// conventionally fill them with MASK tokens.  All intermediates live in `scratch` —
    /// no buffer grows in steady state — and the returned reference points into
    /// `scratch.probs`.  One [`ResMade::conditional_probs_step`] from an empty prefix.
    ///
    /// Bit-for-bit equal to the naive path (`conditional_probs_into_matches_training_
    /// path_bitwise` pins this), which is what keeps progressive-sampling estimates
    /// exactly reproducible across the old and new inference code.
    pub fn conditional_probs_into<'s>(
        &self,
        tokens: &[u32],
        col: usize,
        scratch: &'s mut InferenceScratch,
    ) -> &'s Matrix {
        self.conditional_probs_step(tokens, col, None, scratch)
    }

    /// Reserves `scratch` for steps of up to `rows` rows of this model.
    ///
    /// A step sizes its buffers by the column it is asked for and the rows it is given, so
    /// an unreserved scratch grows along whatever order the queries arrive in, and the
    /// reallocations leave an order-dependent trail of freed blocks behind — the process's
    /// peak memory then varies from run to run of the same work.  Reserved, every buffer
    /// is allocated once, at a size that depends on the model and `rows` only; pages are
    /// still touched only as far as a step really uses them.
    pub fn reserve_scratch(&self, rows: usize, scratch: &mut InferenceScratch) {
        let n = self.num_columns();
        let d = self.config.d_emb;
        let max_domain = self.config.domains.iter().copied().max().unwrap_or(0);
        // The widest slab: a first step at the last column.
        scratch.x.reserve(rows, (n - 1) * d);
        let InferenceScratch {
            z, carried, spare, ..
        } = scratch;
        for m in [z, spare]
            .into_iter()
            .chain(carry_layers(carried, self.blocks.len()))
        {
            m.reserve(rows, self.config.d_hidden);
        }
        scratch.ctx.reserve(rows, d);
        scratch.logits.reserve(rows, max_domain);
        scratch.probs.reserve(rows, max_domain);
    }

    /// One step of the **prefix-incremental** inference forward: `p(x_col | tokens₍<col₎)`
    /// for every row of the flat `batch × num_columns` buffer `tokens`, reusing what the
    /// previous step on `scratch` already computed.
    ///
    /// `scratch` carries, per row of the last step, the input layer's pre-bias sums over
    /// the columns that step covered and, in every hidden layer a later step reads, the
    /// units whose degree is below that step's column — MADE's masks make them functions
    /// of those columns alone.  With `parents = Some(p)`, row `r` continues row `p[r]` of
    /// the last step: it must hold the same tokens in the columns that step covered (rows
    /// may be duplicated, reordered or dropped), `col` must not be smaller than the last
    /// step's, and only the columns in between are embedded and multiplied, and only the
    /// hidden units of the degrees in between computed.  `parents = None` starts from the
    /// empty prefix (what [`ResMade::conditional_probs_into`] does).  Tokens at columns
    /// `>= col` are never read.  One chain of steps must stay on one model.
    ///
    /// Every layer of the trunk is incremental.  Hidden unit `u` has the degree `u % P`
    /// (`P` = `ResMade::degree_period`), and MADE's masks make a unit of degree `k`, in
    /// every layer, a function of columns `<= k` alone.  The scratch carries, per row of
    /// the last step, the input layer's pre-bias sums `z` over columns `< z_cols` and, in
    /// each residual block's first activation `a` and output `h`, the units of degree
    /// `< z_cols`.  A step for `col`:
    ///
    /// 1. gathers each row's carry from its parent row — all of `z`, the units of degree
    ///    `< z_cols` of the carried layers — and gathers nothing when `parents` is the
    ///    identity;
    /// 2. adds columns `z_cols..col` onto the units of `z` of degree `>= z_cols` — a unit
    ///    of lower degree hears none of them — ([`matmul_blocked_acc`]; columns `>= col`
    ///    meet structurally-zero weights on every path into column `col`) and takes
    ///    `h₀ = relu(z + b)`;
    /// 3. layer by layer, computes only the units of degree in `z_cols..col` — one short
    ///    run per period, widened to `UNIT_ALIGN` — from the live inner units (degree
    ///    `< col`, [`ResMade::live_units`]) straight into the carried matrix
    ///    ([`matmul_units_live`]), then their bias, ReLU and residual add;
    /// 4. computes **only** column `col`'s `d_emb`-wide context slice, from the live units
    ///    of the last layer ([`matmul_col_range_live`]), the logit head as one blocked GEMM
    ///    against the embedding table ([`gemm_nt`]), and the softmax.
    ///
    /// Points 2–4 run in **lanes** when the batch is wide — one per core this process may
    /// run on, each with at least `MIN_STEP_LANE_ROWS` rows; nobody configures them.  The
    /// rows are cut, at multiples of four, into `BLOCKS_PER_LANE` contiguous blocks per
    /// lane, each split off every buffer in place (none copied), and the lanes claim
    /// blocks until none is left.  Every product of those points is row-local: a row gets
    /// the same bits whichever lane computes it (`prefix_steps_match_reference_bitwise*`,
    /// at 1, 2 and 3 lanes).  A panic in a lane (a token outside its domain) is re-raised
    /// on the calling thread once every lane has stopped.  No buffer is allocated by a step
    /// once the scratch is reserved; a step of several lanes starts that many scoped
    /// threads less one.
    ///
    /// Units of degree `>= col` hold unspecified values (partial sums, or stale) that no
    /// kernel reads: every inner walk stays inside the live set.
    ///
    /// The step stays bit-identical to [`ResMade::conditional_probs_reference`]:
    ///
    /// 1. every output element of the input layer is an ascending-`p` chain of f32 adds
    ///    that skips `a == 0.0`; storing a chain to `z` and resuming it later performs the
    ///    same adds in the same order;
    /// 2. masked weights are exactly `0.0` and every weight is finite
    ///    ([`ResMade::check_masked_weights`]), so a term with a masked weight — left out
    ///    by a kernel, or added where the reference adds it — is `a · ±0.0` onto an
    ///    accumulator that starts at `+0.0` and therefore is never `−0.0`: it changes no
    ///    bit;
    /// 3. so a unit of degree `k` gets the same bits from a walk over any superset of the
    ///    units of degree `<= k` below it, given the same bits there — the live set of any
    ///    step for a column `> k` is one.  By induction up the trunk, what a parent row
    ///    computed for a unit of degree `< z_cols` is what this step would compute, and a
    ///    run widened below `z_cols` stores those bits again;
    /// 4. units of degree `>= col` get zero weight — `±0.0` terms again — on every path
    ///    into column `col`'s context: the hidden rule is `deg(h₂) >= deg(h₁)`, the output
    ///    rule the strict `deg(h) < col`.
    pub fn conditional_probs_step<'s>(
        &self,
        tokens: &[u32],
        col: usize,
        parents: Option<&[u32]>,
        scratch: &'s mut InferenceScratch,
    ) -> &'s Matrix {
        let lanes = lanes_for(tokens.len() / self.num_columns(), MIN_STEP_LANE_ROWS);
        self.conditional_probs_step_in(tokens, col, parents, scratch, lanes)
    }

    /// [`ResMade::conditional_probs_step`] in `lanes` lanes.
    pub(crate) fn conditional_probs_step_in<'s>(
        &self,
        tokens: &[u32],
        col: usize,
        parents: Option<&[u32]>,
        scratch: &'s mut InferenceScratch,
        lanes: usize,
    ) -> &'s Matrix {
        let n = self.num_columns();
        assert!(col < n);
        assert!(lanes >= 1, "a step needs a lane");
        assert_eq!(
            tokens.len() % n,
            0,
            "flat token buffer length must be a multiple of the column count"
        );
        let d = self.config.d_emb;
        let h_dim = self.config.d_hidden;
        let domain = self.config.domains[col];
        let batch = tokens.len() / n;
        let period = Self::degree_period(n);
        let model = (period, self.blocks.len());

        // The carry ← each row's parent row (or the empty prefix).
        let z_cols = match parents {
            None => {
                scratch.z.resize(batch, h_dim);
                scratch.z.fill_zero();
                scratch.model = model;
                for m in carry_layers(&mut scratch.carried, self.blocks.len()) {
                    m.resize(batch, h_dim);
                }
                0
            }
            Some(parents) => {
                assert_eq!(parents.len(), batch, "one parent row per token row");
                assert!(
                    scratch.z.cols() == h_dim && scratch.model == model,
                    "the carried prefix belongs to another model"
                );
                assert!(
                    scratch.z_cols <= col,
                    "steps must follow the autoregressive order"
                );
                let z_cols = scratch.z_cols;
                let InferenceScratch {
                    z, carried, spare, ..
                } = &mut *scratch;
                let identity =
                    batch <= z.rows() && parents.iter().enumerate().all(|(r, &p)| p as usize == r);
                let carried_units = LiveUnits::new(period, z_cols);
                let layers = carry_layers(carried, self.blocks.len()).map(|m| (m, carried_units));
                for (m, units) in std::iter::once((z, LiveUnits::ALL)).chain(layers) {
                    if identity {
                        m.resize(batch, h_dim);
                    } else {
                        gather_rows(m, parents, units, spare);
                    }
                }
                z_cols
            }
        };
        #[cfg(test)]
        if scratch.poison {
            let carried_units = LiveUnits::new(period, z_cols);
            for m in carry_layers(&mut scratch.carried, self.blocks.len()) {
                for row in m.data_mut().chunks_exact_mut(h_dim) {
                    for (u, v) in row.iter_mut().enumerate() {
                        if !carried_units.contains(u) {
                            *v = f32::NAN;
                        }
                    }
                }
            }
        }
        #[cfg(test)]
        let poison = scratch.poison;

        let InferenceScratch {
            x,
            z,
            z_cols: carried_cols,
            carried,
            spare,
            embedded_columns,
            block_terms,
            lanes: last_lanes,
            ctx,
            logits,
            probs,
            ..
        } = scratch;
        *carried_cols = col;
        *embedded_columns = batch * (col - z_cols);
        let inner: usize = self.live_units(col).runs(h_dim).map(|run| run.len()).sum();
        let computed: usize = self.new_units(z_cols, col).map(|run| run.len()).sum();
        *block_terms = (2 * self.blocks.len() * batch * inner * computed) as u64;
        *last_lanes = lanes;

        // Every buffer gets its shape here, on the calling thread, and each block of rows
        // its rows of it: no lane allocates a buffer or reads another block's rows.
        let x_width = (col - z_cols) * d;
        x.resize(batch, x_width);
        spare.resize(batch, h_dim);
        ctx.resize(batch, d);
        logits.resize(batch, domain);
        probs.resize(batch, domain);
        let (mut x, mut z, mut h0) = (x.data_mut(), z.data_mut(), spare.data_mut());
        let (mut ctx, mut logits) = (ctx.data_mut(), logits.data_mut());
        let mut probs_rows = probs.data_mut();
        let mut carried: Vec<&mut [f32]> = carried[..2 * self.blocks.len()]
            .iter_mut()
            .map(Matrix::data_mut)
            .collect();
        // Lanes claim blocks of rows from a shared queue until none is left, so a lane
        // whose core is taken away mid-step leaves at most one block for the others to
        // wait on, and a lane on a slower core takes fewer.
        let blocks = if lanes > 1 {
            BLOCKS_PER_LANE * lanes
        } else {
            1
        };
        let work = row_blocks(batch, blocks).map(|rows| {
            let r = rows.len();
            StepRows {
                tokens: &tokens[rows.start * n..rows.end * n],
                x: take_rows(&mut x, r * x_width),
                z: take_rows(&mut z, r * h_dim),
                h0: take_rows(&mut h0, r * h_dim),
                carried: carried
                    .iter_mut()
                    .map(|m| take_rows(m, r * h_dim))
                    .collect(),
                ctx: take_rows(&mut ctx, r * d),
                logits: take_rows(&mut logits, r * domain),
                probs: take_rows(&mut probs_rows, r * domain),
                #[cfg(test)]
                poison,
            }
        });
        #[expect(
            clippy::disallowed_types,
            reason = "held only to take the next block, never across a lane's work, so no \
                      panic can poison it; nc-nn depends on no lock crate"
        )]
        let queue = std::sync::Mutex::new(work);
        let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        in_lanes(0..lanes, |_| {
            while let Some(rows) = claim() {
                self.step_rows(rows, z_cols, col);
            }
        });
        probs
    }

    /// Points 2–4 of [`ResMade::conditional_probs_step`] over one block of rows: the input
    /// layer's new columns, `h₀`, each block layer's new units, the context slice, the
    /// logits and the softmax.  `z_cols` is the carried prefix's column count.
    fn step_rows(&self, rows: StepRows<'_>, z_cols: usize, col: usize) {
        let StepRows {
            tokens,
            x,
            z,
            h0,
            mut carried,
            ctx,
            logits,
            probs,
            ..
        } = rows;
        let n = self.num_columns();
        let (d, h_dim) = (self.config.d_emb, self.config.d_hidden);
        let period = Self::degree_period(n);

        // z[:, u] += x[:, z_cols..col] · W_in[z_cols·d .. col·d, u] for the units u of
        // degree >= z_cols (the others hear none of these columns), then h₀ = relu(z + b).
        self.embed_columns(tokens, z_cols..col, x);
        let input_units = || LiveUnits::new(period, period).added_since(z_cols, h_dim, UNIT_ALIGN);
        // Test hook: every unit of `z` outside those runs is `−0.0` while they are added
        // (and restored after).  A kernel that walked such a unit would add `a · +0.0` — a
        // masked weight — for each non-zero input `a`, and one positive `a` turns the
        // `−0.0` into `+0.0`.
        #[cfg(test)]
        let kept = rows.poison.then(|| {
            let (outside, kept) = (outside(h_dim, input_units()), z.to_vec());
            for row in z.chunks_exact_mut(h_dim) {
                for &u in &outside {
                    row[u] = -0.0;
                }
            }
            (outside, kept)
        });
        let w_in = &self.input_layer.inner.weight.value;
        for run in input_units() {
            matmul_blocked_acc(x, w_in, z_cols * d..col * d, run, z);
        }
        #[cfg(test)]
        if let Some((outside, kept)) = kept {
            for (row, kept) in z.chunks_exact_mut(h_dim).zip(kept.chunks_exact(h_dim)) {
                for &u in &outside {
                    let what = format!("unit {u} of z, degree {} < {z_cols}", u % period);
                    assert_eq!(row[u].to_bits(), (-0.0f32).to_bits(), "{what} was added to");
                    row[u] = kept[u];
                }
            }
        }
        let bias = self.input_layer.inner.bias.value.row(0);
        for (h_row, z_row) in h0.chunks_exact_mut(h_dim).zip(z.chunks_exact(h_dim)) {
            for ((h, &z), &b) in h_row.iter_mut().zip(z_row).zip(bias) {
                *h = relu_value(z + b);
            }
        }

        // The residual blocks, new units only.
        let live = self.live_units(col);
        for (i, (w1, w2)) in self.blocks.iter().enumerate() {
            let (below, this) = carried.split_at_mut(2 * i);
            let h_in: &[f32] = below.last().map_or(&*h0, |h| &**h);
            let [a, h_out, ..] = this else {
                unreachable!("two carried layers per block")
            };
            for run in self.new_units(z_cols, col) {
                matmul_units_live(h_in, &w1.inner.weight.value, run.clone(), live, a);
                bias_relu(a, run, w1.inner.bias.value.row(0));
            }
            for run in self.new_units(z_cols, col) {
                matmul_units_live(a, &w2.inner.weight.value, run.clone(), live, h_out);
                residual(h_in, run, w2.inner.bias.value.row(0), h_out);
            }
        }

        let (lo, hi) = (col * d, (col + 1) * d);
        let last: &[f32] = carried.last().map_or(&*h0, |h| &**h);
        matmul_col_range_live(
            last,
            &self.output_layer.inner.weight.value,
            lo,
            hi,
            live,
            ctx,
        );
        add_bias(ctx, &self.output_layer.inner.bias.value.row(0)[lo..hi]);
        let domain = self.config.domains[col];
        let emb = &self.embeddings[col].table.value;
        let rows = tokens.len() / n;
        gemm_nt(rows, domain, d, ctx, &emb.data()[..domain * d], logits);
        add_bias(logits, self.output_bias[col].value.row(0));
        softmax_rows_slice(domain, logits, probs);
    }

    /// Checks the invariants the autoregressive property and the inference forward's
    /// skipped terms rest on: every masked entry of the input, block and output layers is
    /// exactly `0.0`, and every entry is finite (a skipped term is `a · ±0.0`, which is a
    /// zero only while `a` is finite).  Training keeps the first (masked weights start at
    /// zero and their gradients are forced to zero); weights decoded from outside the
    /// program must be checked.  The error names the offending layer.
    pub fn check_masked_weights(&self) -> Result<(), String> {
        let check = |layer: &MaskedLinear, name: &str| {
            let weights = &layer.inner.weight.value;
            let cols = weights.cols();
            // The first offender in row-major order: per row, the first non-finite entry
            // or the first non-zero one inside the rule's forbidden runs.
            let offender = (0..weights.rows()).find_map(|i| {
                let row = weights.row(i);
                let masked = layer
                    .mask()
                    .forbidden_runs(i, cols)
                    .flatten()
                    .find(|&o| row[o] != 0.0);
                let non_finite = row.iter().position(|w| !w.is_finite());
                masked.into_iter().chain(non_finite).min().map(|o| (i, o))
            });
            match offender {
                None => Ok(()),
                Some((i, o)) => {
                    let weight = weights.get(i, o);
                    let (kind, want) = if weight.is_finite() {
                        ("masked weight", "not 0")
                    } else {
                        ("weight", "not finite")
                    };
                    Err(format!(
                        "{kind} ({i}, {o}) of the {name} is {weight}, {want}"
                    ))
                }
            }
        };
        check(&self.input_layer, "input layer")?;
        for (i, (w1, w2)) in self.blocks.iter().enumerate() {
            check(w1, &format!("first layer of block {i}"))?;
            check(w2, &format!("second layer of block {i}"))?;
        }
        check(&self.output_layer, "output layer")
    }
}

/// The first `2·blocks` matrices of `carried` — each residual block's first activation,
/// then its output — growing the vector to that many.  It only grows: a scratch moved to
/// a model with fewer blocks uses a prefix.
fn carry_layers(carried: &mut Vec<Matrix>, blocks: usize) -> std::slice::IterMut<'_, Matrix> {
    if carried.len() < 2 * blocks {
        carried.resize_with(2 * blocks, Matrix::default);
    }
    carried[..2 * blocks].iter_mut()
}

/// Row `r` of `m` ← row `parents[r]` of `m`, in the units `units` (the rest of each row is
/// left unspecified), gathered through `spare`, which ends up holding the old `m`.
fn gather_rows(m: &mut Matrix, parents: &[u32], units: LiveUnits, spare: &mut Matrix) {
    let width = m.cols();
    spare.resize(parents.len(), width);
    for (r, &parent) in parents.iter().enumerate() {
        let (from, to) = (m.row(parent as usize), spare.row_mut(r));
        for run in units.runs(width) {
            to[run.clone()].copy_from_slice(&from[run]);
        }
    }
    std::mem::swap(m, spare);
}

/// [`relu`] of one value.
fn relu_value(v: f32) -> f32 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// `m[r][u] = relu(m[r][u] + bias[u])` for the units `units` of every row of the
/// row-major rows `m` (as wide as `bias`).
fn bias_relu(m: &mut [f32], units: Range<usize>, bias: &[f32]) {
    for row in m.chunks_exact_mut(bias.len()) {
        for (v, &b) in row[units.clone()].iter_mut().zip(&bias[units.clone()]) {
            *v = relu_value(*v + b);
        }
    }
}

/// A residual block's output over the units `units` of every row: `out[r][u] = h[r][u] +
/// relu(out[r][u] + bias[u])`, where `h` is the block's input and `out` holds the pre-bias
/// sums of its second layer (row-major rows as wide as `bias`).
fn residual(h: &[f32], units: Range<usize>, bias: &[f32], out: &mut [f32]) {
    let width = bias.len();
    for (row, h_row) in out.chunks_exact_mut(width).zip(h.chunks_exact(width)) {
        let (row, h_row, bias) = (
            &mut row[units.clone()],
            &h_row[units.clone()],
            &bias[units.clone()],
        );
        for ((v, &h), &b) in row.iter_mut().zip(h_row).zip(bias) {
            *v = h + relu_value(*v + b);
        }
    }
}

/// Reusable buffers — and the carried prefix — of the inference forward pass
/// ([`ResMade::conditional_probs_step`]).
///
/// Create one per serving thread and reuse it across forward passes, sub-columns and
/// queries; every buffer is resized in place (allocations only grow, never shrink), so in
/// steady state no step allocates or grows a buffer ([`ResMade::reserve_scratch`] sizes
/// them all at once).  What a step does allocate is bookkeeping — each block of rows' list
/// of its carried rows — and, when it runs in several lanes, their scoped threads.  The scratch is not
/// tied to a model: a step from the empty prefix adapts to whatever shapes it needs and
/// overwrites the carried prefix, so one scratch can serve several models of different
/// sizes.
#[derive(Debug, Clone, Default)]
pub struct InferenceScratch {
    /// Embedded slab of the newly covered columns (`batch × (col − z_cols)·d_emb`).
    x: Matrix,
    /// Input-layer pre-bias sums of the last step's rows over input columns `0..z_cols`
    /// (`batch × d_hidden`).
    z: Matrix,
    /// Number of input columns folded into `z` (the last step's `col`).
    z_cols: usize,
    /// Per row of the last step, the hidden layers a later step reads: each residual
    /// block's first activation `a`, then its output `h` (`batch × d_hidden` each).  Their
    /// units of degree `< z_cols` hold their values, the others nothing to be read.
    carried: Vec<Matrix>,
    /// The target a carried matrix is gathered into (it then holds the matrix it
    /// replaced), and then the input layer's activation `h₀ = relu(z + b)`.
    spare: Matrix,
    /// `(degree period, residual blocks)` of the model whose prefix is carried.
    model: (usize, usize),
    /// Token embeddings the last step looked up: `batch × (col − previous col)`.
    embedded_columns: usize,
    /// Product terms the last step's new-unit kernels walked.
    block_terms: u64,
    /// Lanes the last step ran in.
    lanes: usize,
    /// Context slice of the queried column (`batch × d_emb`).
    ctx: Matrix,
    /// Logits of the queried column (`batch × domain`).
    logits: Matrix,
    /// Softmax probabilities returned to the caller.
    probs: Matrix,
    /// Test hook: after the gather, NaN-fill every carried unit the step did not carry
    /// over, so a read of one surfaces in its result; and check that the input layer adds
    /// to no unit of `z` outside the runs of the new degrees.
    #[cfg(test)]
    poison: bool,
}

impl InferenceScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Token embeddings the last step looked up — its rows times the columns it added to
    /// the carried prefix.  A stateless forward would report rows × every column.
    pub fn embedded_columns(&self) -> usize {
        self.embedded_columns
    }

    /// Product terms the last step's new-unit kernels walked in the residual blocks: rows
    /// × units computed (the runs of new degrees, widened) × live inner units, per block
    /// layer, zero activations included.  A forward blind to the masks and the carry walks
    /// `rows × 2·num_blocks·d_hidden²`.
    pub fn block_terms(&self) -> u64 {
        self.block_terms
    }

    /// Lanes the last step ran in (see [`ResMade::conditional_probs_step`]): one unless
    /// its batch was wide enough to give several cores a lane each.  Zero before the
    /// first step.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// One block of rows of every buffer of an inference step: the rows' tokens (`rows ×
/// num_columns`), and their rows of the embedded slab, `z`, `h₀`, each carried layer, the
/// context slice, the logits and the probabilities.
struct StepRows<'a> {
    tokens: &'a [u32],
    x: &'a mut [f32],
    z: &'a mut [f32],
    h0: &'a mut [f32],
    carried: Vec<&'a mut [f32]>,
    ctx: &'a mut [f32],
    logits: &'a mut [f32],
    probs: &'a mut [f32],
    /// [`InferenceScratch`]'s test hook.
    #[cfg(test)]
    poison: bool,
}

/// Splits the first `len` elements off `rest`.
fn take_rows<'a>(rest: &mut &'a mut [f32], len: usize) -> &'a mut [f32] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// `batch` rows cut into `blocks` contiguous blocks, in order, at multiples of four rows,
/// so that every block but the last runs only full 4-row register tiles, as one block of
/// all the rows would.  With more blocks than groups of four rows, some are empty.
fn row_blocks(batch: usize, blocks: usize) -> impl Iterator<Item = Range<usize>> {
    let cut = move |block: usize| {
        if block == blocks {
            batch
        } else {
            block * batch / blocks / 4 * 4
        }
    };
    (0..blocks).map(move |block| cut(block)..cut(block + 1))
}

/// The units below `width` outside `runs`.
#[cfg(test)]
fn outside(width: usize, runs: impl Iterator<Item = Range<usize>>) -> Vec<usize> {
    let mut inside = vec![false; width];
    for run in runs {
        inside[run].fill(true);
    }
    (0..width).filter(|&u| !inside[u]).collect()
}

/// Fewest batch rows a lane of a training step is given: below this, starting a lane's
/// thread costs more than its share of the step.
const MIN_LANE_ROWS: usize = 16;

/// Fewest rows a lane of an inference step is given, so a step of fewer than twice this
/// many runs in one lane.  Chosen on `direct_m` (the sweep is in `docs/kernels.md`,
/// "Lanes at inference"); above 32, so JOB-light's 64-sample steps stay in one lane.
const MIN_STEP_LANE_ROWS: usize = 64;

/// Blocks of rows per lane of an inference step of several lanes (one lane takes its
/// rows as one block).
const BLOCKS_PER_LANE: usize = 4;

/// Bytes of heap a fresh [`TrainScratch`] leaves free below its buffers (see
/// [`TrainScratch::shape`]).
const HEAP_CUSHION: usize = 64 << 10;

/// Gradient rows of one `dW` task of a training step's last phase; even, so the 2-row
/// tiles of [`gemm_tn_acc`] stay aligned.
const DW_ROWS: usize = 16;

/// The lanes a step on `rows` rows runs in: one per core this process may run on (read
/// once), but no more than give each lane `min_rows` rows.
fn lanes_for(rows: usize, min_rows: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    cores.min(rows / min_rows).max(1)
}

/// Runs `lane` on every element of `work` at once: the first on the calling thread, every
/// other on a scoped thread of its own, all joined before this returns — no thread
/// outlives the call, and a single lane starts none.  No lane waits on another, so a
/// panicking lane stops no other; its payload is re-raised here, on the caller (the
/// calling thread's own first).
fn in_lanes<W: Send>(work: impl IntoIterator<Item = W>, lane: impl Fn(W) + Sync) {
    let mut work = work.into_iter().peekable();
    let Some(first) = work.next() else {
        return;
    };
    if work.peek().is_none() {
        return lane(first);
    }
    let lane = &lane;
    thread::scope(|scope| {
        let others: Vec<_> = work.map(|w| scope.spawn(move || lane(w))).collect();
        lane(first);
        for other in others {
            if let Err(payload) = other.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Deals `(cost, item)`s out to `lanes` lanes, dearest first, each to the lane with the
/// least cost so far (the lowest such lane on a tie).  Which lane computes an output
/// element moves no bit of it: this only balances the lanes.
fn deal<T>(lanes: usize, items: impl IntoIterator<Item = (usize, T)>) -> Vec<Vec<T>> {
    let mut items: Vec<(usize, T)> = items.into_iter().collect();
    items.sort_by_key(|&(cost, _)| Reverse(cost));
    let mut dealt: Vec<(usize, Vec<T>)> = (0..lanes).map(|_| (0, Vec::new())).collect();
    for (cost, item) in items {
        let (load, lane) = dealt
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("at least one lane");
        *load += cost;
        lane.push(item);
    }
    dealt.into_iter().map(|(_, lane)| lane).collect()
}

/// One lane's rows of every activation and gradient of a training step.
#[derive(Debug, Clone, Default)]
struct LaneRows {
    /// The first batch row held; the rows are `start..start + x.rows()`.
    start: usize,
    /// Embedded inputs (`rows × n·d_emb`).
    x: Matrix,
    /// `hiddens[0]` is the post-ReLU input-layer activation; `hiddens[i+1]` the output of
    /// residual block `i` (`rows × d_hidden` each).
    hiddens: Vec<Matrix>,
    /// `(a, b)` activations inside each residual block; the `dx` chain overwrites `b` with
    /// its gradient, the block's second layer's `dy`.
    block_acts: Vec<(Matrix, Matrix)>,
    /// Per-column context vectors (`rows × n·d_emb`); the `dx` chain overwrites them with
    /// their gradient, the output layer's `dy`.
    ctx: Matrix,
    /// The residual stream's gradient (`rows × d_hidden`); after the `dx` chain, the input
    /// layer's `dy`.
    dh: Matrix,
    /// The gradient of each residual block's `a`: its first layer's `dy`.
    block_grads: Vec<Matrix>,
    /// A block's contribution to the residual stream's gradient.
    dh_branch: Matrix,
    /// Gradient of the embedded inputs (`rows × n·d_emb`).
    dx: Matrix,
}

impl LaneRows {
    /// Holds batch rows `rows` of a step of `model`: every buffer resized to its shape.
    fn shape(&mut self, rows: Range<usize>, model: &ResMade) {
        let (batch, blocks) = (rows.len(), model.blocks.len());
        let (width, h_dim) = (
            model.num_columns() * model.config.d_emb,
            model.config.d_hidden,
        );
        self.start = rows.start;
        for m in [&mut self.x, &mut self.ctx, &mut self.dx] {
            m.resize(batch, width);
        }
        self.hiddens.resize_with(blocks + 1, Matrix::default);
        self.block_acts.resize_with(blocks, Default::default);
        self.block_grads.resize_with(blocks, Matrix::default);
        let acts = self.block_acts.iter_mut().flat_map(|(a, b)| [a, b]);
        for m in [&mut self.dh, &mut self.dh_branch]
            .into_iter()
            .chain(&mut self.hiddens)
            .chain(acts)
            .chain(&mut self.block_grads)
        {
            m.resize(batch, h_dim);
        }
    }

    /// The input and the output gradient, over these rows, of layer `layer` of
    /// [`ResMade::layers`].
    fn layer_io(&self, layer: usize) -> (&Matrix, &Matrix) {
        let blocks = self.block_acts.len();
        match layer {
            0 => (&self.x, &self.dh),
            l if l <= 2 * blocks => {
                let i = (l - 1) / 2;
                let (a, db) = &self.block_acts[i];
                if l % 2 == 1 {
                    (&self.hiddens[i], &self.block_grads[i])
                } else {
                    (a, db)
                }
            }
            _ => (&self.hiddens[blocks], &self.ctx),
        }
    }
}

/// One lane's buffers for the per-column heads of a training step.
#[derive(Debug, Clone, Default)]
struct HeadScratch {
    /// One lane's rows of a column's context slice (`≤ ⌈batch / lanes⌉ × d_emb`).
    ctx: Matrix,
    /// Their logits and the logits' gradient (`≤ ⌈batch / lanes⌉ × domain`).
    logits: Matrix,
    dlogits: Matrix,
    /// Their targets.
    targets: Vec<u32>,
    /// The column's `E[..domain]ᵀ`.
    wt: Matrix,
}

/// What one column's head writes: the gradients of its embedding table and its logit
/// bias, its context slice's gradient (`batch × d_emb`) and its mean loss.
struct Head<'a> {
    col: usize,
    embedding: &'a mut Embedding,
    bias: &'a mut Param,
    dctx: &'a mut [f32],
    loss: &'a mut f32,
}

impl HeadScratch {
    /// `head`'s column over the whole batch — every lane's rows in batch order,
    /// one lane's rows at a time — so each gradient element and the f64 loss sum get the
    /// chains one pass over the batch adds.  `targets` is the flat `batch × n` buffer and
    /// `scale` one over the batch size.
    fn run(
        &mut self,
        head: Head<'_>,
        rows: &[LaneRows],
        (targets, n): (&[u32], usize),
        scale: f32,
    ) {
        let Head {
            col,
            embedding,
            bias,
            dctx,
            loss,
        } = head;
        let (d, domain) = (embedding.dim(), bias.value.cols());
        let Param {
            value: emb,
            grad: emb_grad,
        } = &mut embedding.table;
        let emb = &emb.data()[..domain * d];
        transpose_into(domain, d, emb, &mut self.wt);
        let mut total = 0.0f64;
        for r in rows {
            let (first, m) = (r.start, r.ctx.rows());
            self.ctx.resize(m, d);
            for b in 0..m {
                self.ctx
                    .row_mut(b)
                    .copy_from_slice(&r.ctx.row(b)[col * d..(col + 1) * d]);
            }
            self.logits.resize(m, domain);
            matmul_blocked(&self.ctx, &self.wt, &mut self.logits);
            add_bias(self.logits.data_mut(), bias.value.row(0));
            self.targets.clear();
            self.targets
                .extend((first..first + m).map(|b| targets[b * n + col]));
            self.dlogits.resize(m, domain);
            softmax_cross_entropy_rows(
                &self.logits,
                &self.targets,
                scale,
                &mut total,
                &mut self.dlogits,
            );
            column_sums_accumulate(&self.dlogits, 0..domain, bias.grad.row_mut(0));
            gemm_narrow(
                m,
                domain,
                d,
                self.dlogits.data(),
                emb,
                &mut dctx[first * d..(first + m) * d],
            );
            gemm_tn_acc(
                m,
                domain,
                d,
                self.dlogits.data(),
                self.ctx.data(),
                None,
                emb_grad.data_mut(),
            );
        }
        *loss = (total * f64::from(scale)) as f32;
    }
}

/// One task of a training step's weight-gradient phase, and the gradient it owns.
enum Grad<'a> {
    /// Rows `rows` of the `dW` of layer `layer` (of [`ResMade::layers`]).
    Weight {
        layer: usize,
        mask: MadeMask,
        rows: Range<usize>,
        grad: &'a mut [f32],
    },
    /// Columns `cols` of that layer's bias gradient.
    Bias {
        layer: usize,
        cols: Range<usize>,
        grad: &'a mut [f32],
    },
    /// The input-side gradient of column `col`'s embedding table.
    Embedding {
        col: usize,
        embedding: &'a mut Embedding,
    },
}

impl Grad<'_> {
    /// Adds this task's share of the batch's gradient — every lane's rows in batch order,
    /// so each element gets the one ascending-row chain a single pass adds.  `inputs` is
    /// the flat `batch × n` buffer the step embedded.
    fn accumulate(self, rows: &[LaneRows], (inputs, n): (&[u32], usize)) {
        match self {
            Grad::Weight {
                layer,
                mask,
                rows: grad_rows,
                grad,
            } => weight_grad_rows(
                mask,
                rows.iter().map(|r| r.layer_io(layer)),
                grad_rows,
                grad,
            ),
            Grad::Bias { layer, cols, grad } => {
                for r in rows {
                    column_sums_accumulate(r.layer_io(layer).1, cols.clone(), grad);
                }
            }
            Grad::Embedding { col, embedding } => {
                let d = embedding.dim();
                for r in rows {
                    for (b, dx) in r.dx.data().chunks_exact(r.dx.cols()).enumerate() {
                        let token = inputs[(r.start + b) * n + col];
                        embedding.accumulate_grad(token, &dx[col * d..(col + 1) * d]);
                    }
                }
            }
        }
    }
}

/// Every buffer of one training step ([`ResMade::forward_backward`]): each lane's rows of
/// the activations and gradients, each lane's head buffers, every layer's transposed
/// weight, the context gradient column by column and the per-column losses.
///
/// The trainer owns one and passes it to every step — never the model, which is cloned
/// into every serving core.  Buffers are resized in place and only ever grow, so after the
/// first full batch no step grows one, a ragged last batch included.  A lane's head
/// buffers are shared by the columns it takes and hold one lane's rows of the largest
/// domain, so all lanes' together are no larger than one batch's.  Not tied to a model: a
/// step adapts it to whatever shapes it needs.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    /// Per lane, its rows of every activation and gradient.
    rows: Vec<LaneRows>,
    /// Per lane, its head buffers.
    heads: Vec<HeadScratch>,
    /// `Wᵀ` of every layer of [`ResMade::layers`], for the `dx` chain.
    wts: Vec<Matrix>,
    /// The context gradient, one row per model column (`n × batch·d_emb`: that column's
    /// `batch × d_emb` slice).
    dctx: Matrix,
    /// Each column's mean loss.
    losses: Vec<f32>,
}

impl TrainScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gives every buffer a step of `model` on `batch` rows in `lanes` lanes reads or
    /// writes its shape (or, for the head buffers, its capacity).
    ///
    /// A fresh scratch's buffers are allocated over [`HEAP_CUSHION`] bytes of heap that
    /// are freed right after.  What the process allocates while the steps of a training
    /// call run — the sampler pool's channel blocks, each step's task lists — then fits
    /// in that gap below the buffers instead of going on top of them, so the buffers,
    /// dropped at the end of the call, sit at the top of the heap and go back to the
    /// system.  Pinned under a later allocation they would stay resident as a hole for
    /// the rest of the process (measured in `docs/kernels.md`, "Lanes").
    fn shape(&mut self, model: &ResMade, batch: usize, lanes: usize) {
        let cushion: Vec<u8> = if self.rows.is_empty() {
            Vec::with_capacity(HEAP_CUSHION)
        } else {
            Vec::new()
        };
        let (n, d) = (model.num_columns(), model.config.d_emb);
        if self.rows.len() < lanes {
            self.rows.resize_with(lanes, LaneRows::default);
            self.heads.resize_with(lanes, HeadScratch::default);
        }
        for (lane, r) in self.rows[..lanes].iter_mut().enumerate() {
            r.shape(lane * batch / lanes..(lane + 1) * batch / lanes, model);
        }
        let head_rows = batch.div_ceil(lanes);
        let max_domain = model.config.domains.iter().copied().max().unwrap_or(0);
        for head in &mut self.heads[..lanes] {
            head.ctx.reserve(head_rows, d);
            head.logits.reserve(head_rows, max_domain);
            head.dlogits.reserve(head_rows, max_domain);
            head.targets.clear();
            head.targets.reserve(head_rows);
            head.wt.reserve(d, max_domain);
        }
        let layers = 2 * model.blocks.len() + 2;
        self.wts
            .resize_with(self.wts.len().max(layers), Matrix::default);
        for (layer, wt) in model.layers().zip(self.wts.iter_mut()) {
            let weight = &layer.inner.weight.value;
            wt.resize(weight.cols(), weight.rows());
        }
        self.dctx.resize(n, batch * d);
        self.losses.resize(n, 0.0);
        drop(cushion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, AdamConfig};

    fn make(domains: Vec<usize>, seed: u64) -> ResMade {
        ResMade::new(MadeConfig {
            domains,
            d_emb: 6,
            d_hidden: 24,
            num_blocks: 1,
            seed,
        })
    }

    /// [`ResMade::conditional_probs_into`] through a throwaway scratch.
    fn probs(m: &ResMade, tokens: &[u32], col: usize) -> Matrix {
        m.conditional_probs_into(tokens, col, &mut InferenceScratch::new())
            .clone()
    }

    #[test]
    fn shapes_and_metadata() {
        let m = make(vec![4, 3, 5], 1);
        assert_eq!(m.num_columns(), 3);
        assert_eq!(m.domain(2), 5);
        assert_eq!(m.mask_token(0), 4);
        assert!(m.num_params() > 0);
        assert_eq!(m.size_bytes(), m.num_params() * 4);
        assert_eq!(m.params().len(), m.clone().params_mut().len());
    }

    #[test]
    fn autoregressive_property_holds() {
        // p(x_0) and p(x_1 | x_0) must not change when later columns change.
        let m = make(vec![4, 3, 5], 2);
        let a = [1u32, 2, 0];
        let b = [1u32, 2, 4];
        let c = [1u32, 0, 4];
        let p0_a = probs(&m, &a, 0);
        let p0_b = probs(&m, &b, 0);
        let p0_c = probs(&m, &c, 0);
        assert_eq!(p0_a.data(), p0_b.data());
        assert_eq!(p0_a.data(), p0_c.data());
        let p1_a = probs(&m, &a, 1);
        let p1_b = probs(&m, &b, 1);
        assert_eq!(p1_a.data(), p1_b.data());
        // But p(x_1 | x_0) should generally change when x_0 changes (non-degenerate net).
        let p2_a = probs(&m, &a, 2);
        let p2_c = probs(&m, &c, 2);
        assert_ne!(p2_a.data(), p2_c.data());
    }

    #[test]
    fn conditional_probs_are_distributions() {
        let m = make(vec![4, 3, 5], 3);
        let rows = [0u32, 0, 0, 3, 2, 4];
        for col in 0..3 {
            let p = probs(&m, &rows, col);
            assert_eq!((p.rows(), p.cols()), (2, m.domain(col)));
            for b in 0..2 {
                let s: f32 = p.row(b).iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
                assert!(p.row(b).iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn training_reduces_loss_and_learns_correlation() {
        // Two perfectly correlated columns: x1 = x0 over a domain of 4.
        let mut m = ResMade::new(MadeConfig {
            domains: vec![4, 4],
            d_emb: 8,
            d_hidden: 32,
            num_blocks: 1,
            seed: 7,
        });
        let mut adam = Adam::for_params(
            AdamConfig {
                lr: 5e-3,
                ..Default::default()
            },
            &m.params(),
        );
        let data: Vec<u32> = (0..256u32).flat_map(|i| [i % 4, i % 4]).collect();
        let mut scratch = TrainScratch::new();
        let first_loss = m.forward_backward(&data, &data, &mut scratch);
        adam.step(&mut m.params_mut());
        let mut last_loss = first_loss;
        for _ in 0..300 {
            last_loss = m.forward_backward(&data, &data, &mut scratch);
            adam.step(&mut m.params_mut());
        }
        assert!(
            last_loss < first_loss * 0.6,
            "loss did not decrease: {first_loss} -> {last_loss}"
        );
        // After training, p(x1 = k | x0 = k) should dominate.
        for k in 0..4u32 {
            let p = probs(&m, &[k, 0], 1);
            let row = p.row(0);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(
                argmax as u32, k,
                "column 1 should copy column 0 (probs {row:?})"
            );
        }
        assert_eq!(m.check_masked_weights(), Ok(()));
    }

    /// The lane counts every training pin runs at: one lane, an even and an uneven split.
    const LANES: [usize; 3] = [1, 2, 3];

    /// Training is pinned to the bit: a fixed tiny model, fixed token rows (inputs carry
    /// MASK tokens the way wildcard skipping leaves them), five `forward_backward` + Adam
    /// steps, and the FNV-1a of the serialised weights — the same at every lane count.
    /// The constant predates the [`MadeMask`] rule (gradients were then multiplied by dense
    /// 0/1 matrices) and the lanes, so it also pins that neither moved a bit.
    #[test]
    fn trained_weights_are_pinned() {
        for lanes in LANES {
            let mut m = ResMade::new(MadeConfig {
                domains: vec![4, 9, 3, 6, 5],
                d_emb: 5,
                d_hidden: 14,
                num_blocks: 2,
                seed: 23,
            });
            let mut adam = Adam::for_params(AdamConfig::default(), &m.params());
            let n = m.num_columns();
            let cells = || (0..12).flat_map(|b| (0..n).map(move |c| (b, c)));
            let targets: Vec<u32> = cells()
                .map(|(b, c)| ((b * 7 + c * 3) % m.domain(c)) as u32)
                .collect();
            let inputs: Vec<u32> = cells()
                .zip(&targets)
                .map(|((b, c), &t)| if (b + c) % 3 == 0 { m.mask_token(c) } else { t })
                .collect();
            let mut scratch = TrainScratch::new();
            for _ in 0..5 {
                m.forward_backward_in(&inputs, &targets, &mut scratch, lanes);
                adam.step(&mut m.params_mut());
            }
            assert_eq!(m.check_masked_weights(), Ok(()));
            let bytes = crate::serialize::model_to_bytes(&m);
            let hash = crate::serialize::fnv1a64(&bytes);
            assert_eq!(hash, 0xdc58_f21b_ad79_f0e8, "{lanes} lanes: {hash:#x}");
        }
    }

    /// The same pin where the kernels are wide: `d_hidden` 96 (three 32-wide blocks),
    /// batches 37 → 128 → 37 (ragged row tiles, uneven lane splits, a scratch that grows
    /// and shrinks), a 300-value domain, and degree periods 7, 26 (JOB-light's) and 60
    /// (JOB-M's) — shorter and longer than a register tile — at every lane count.  Recorded
    /// from the allocating, naive-kernel `forward_backward` this crate had before
    /// [`TrainScratch`].  A fourth step on a single row (lanes with no rows) must then
    /// leave the same bytes at every lane count.
    #[test]
    fn trained_weights_are_pinned_at_width() {
        let base = [7usize, 62, 41, 300, 12, 3, 3, 33];
        let cycled = |n: usize| (0..n).map(|c| base[c % base.len()]).collect::<Vec<_>>();
        for (domains, pinned) in [
            (cycled(8), 0x2175_307e_98a5_6e9cu64),
            (cycled(27), 0x7cac_668d_a4f7_67a0),
            (cycled(61), 0xa4fb_0bec_3d9e_3396),
        ] {
            let n = domains.len();
            let mut one_row = Vec::new();
            for lanes in LANES {
                let mut m = ResMade::new(MadeConfig {
                    domains: domains.clone(),
                    d_emb: 12,
                    d_hidden: 96,
                    num_blocks: 2,
                    seed: 31,
                });
                let mut adam = Adam::for_params(AdamConfig::default(), &m.params());
                let mut scratch = TrainScratch::new();
                for (step, batch) in [37usize, 128, 37, 1].into_iter().enumerate() {
                    let cells = || (0..batch).flat_map(|b| (0..n).map(move |c| (b, c)));
                    let targets: Vec<u32> = cells()
                        .map(|(b, c)| ((b * 7 + c * 3 + step * 5) % m.domain(c)) as u32)
                        .collect();
                    let inputs: Vec<u32> = cells()
                        .zip(&targets)
                        .map(|((b, c), &t)| {
                            if (b + c + step) % 3 == 0 {
                                m.mask_token(c)
                            } else {
                                t
                            }
                        })
                        .collect();
                    m.forward_backward_in(&inputs, &targets, &mut scratch, lanes);
                    adam.step(&mut m.params_mut());
                    assert_eq!(m.check_masked_weights(), Ok(()));
                    let bytes = crate::serialize::model_to_bytes(&m);
                    if step == 2 {
                        let hash = crate::serialize::fnv1a64(&bytes);
                        assert_eq!(hash, pinned, "{n} columns, {lanes} lanes: {hash:#x}");
                    } else if step == 3 && lanes == 1 {
                        one_row = bytes;
                    } else if step == 3 {
                        assert!(bytes == one_row, "{n} columns, {lanes} lanes: one row");
                    }
                }
            }
        }
    }

    /// A panic in a lane other than the caller's — a target outside its column's domain
    /// in a head, an input token outside it in the forward — reaches the caller with its
    /// message once every lane has stopped, and the scratch trains on afterwards.
    #[test]
    fn a_lane_panic_reaches_the_caller() {
        let mut m = make(vec![40, 3, 30, 5], 2);
        let n = m.num_columns();
        let tokens: Vec<u32> = (0..64 * n).map(|i| (i % 3) as u32).collect();
        let mut scratch = TrainScratch::new();
        // Lane 0 takes the 40-value column, lane 1 the 30-value one (column 2) and the
        // last 32 rows.
        let mut bad_target = tokens.clone();
        bad_target[40 * n + 2] = 30;
        let mut bad_input = tokens.clone();
        bad_input[63 * n + 1] = 9;
        for (inputs, targets) in [(&tokens, &bad_target), (&bad_input, &tokens)] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.forward_backward_in(inputs, targets, &mut scratch, 2);
            }));
            let payload = caught.expect_err("the step trained on a token outside its domain");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(message.contains("outside domain"), "{message}");
        }
        m.forward_backward_in(&tokens, &tokens, &mut scratch, 2);
    }

    /// The training forward runs on the blocked kernels out of a reused scratch; the
    /// reference trunk on the naive `matmul` with fresh allocations.  Same context vectors,
    /// bit for bit, through one scratch across batch sizes that grow and shrink.
    #[test]
    fn training_forward_matches_reference_trunk_bitwise() {
        let m = ResMade::new(MadeConfig {
            domains: vec![4, 9, 3, 40, 5, 7],
            d_emb: 7,
            d_hidden: 45,
            num_blocks: 2,
            seed: 19,
        });
        let n = m.num_columns();
        let mut rows = LaneRows::default();
        for (round, batch) in [5usize, 1, 37, 4].into_iter().enumerate() {
            let tokens: Vec<u32> = (0..batch * n)
                .map(|i| {
                    let (b, c) = (i / n, i % n);
                    if (b + c + round) % 3 == 0 {
                        m.mask_token(c)
                    } else {
                        ((b * 31 + c * 7 + round) % m.domain(c)) as u32
                    }
                })
                .collect();
            rows.shape(0..batch, &m);
            m.embed_flat_into(&tokens, &mut rows.x);
            m.forward_trunk(&mut rows);
            let reference = m.reference_ctx(&tokens);
            assert_eq!(
                (rows.ctx.rows(), rows.ctx.cols()),
                (batch, n * m.config.d_emb)
            );
            for (i, (a, b)) in reference.data().iter().zip(rows.ctx.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch} element {i}");
            }
        }
    }

    /// What [`MaskedLinear::backward`] promises, seen from the model, now that the weight
    /// gradient skips the tiles a rule forbids: after a step's backward pass every
    /// forbidden gradient of every masked layer is `+0.0`, for all three kinds of mask and
    /// a degree period shorter (26) and longer (60) than a register tile — and the
    /// optimizer then leaves every masked weight at zero.
    #[test]
    fn forbidden_gradients_are_positive_zero_after_a_step() {
        for (n, lanes) in [27usize, 61]
            .into_iter()
            .flat_map(|n| LANES.map(|l| (n, l)))
        {
            let mut m = ResMade::new(MadeConfig {
                domains: (0..n).map(|c| [3usize, 5, 2, 7, 4][c % 5]).collect(),
                d_emb: 12,
                d_hidden: 96,
                num_blocks: 1,
                seed: 3,
            });
            let mut adam = Adam::for_params(AdamConfig::default(), &m.params());
            let mut scratch = TrainScratch::new();
            let tokens: Vec<u32> = (0..9 * n)
                .map(|i| ((i / n * 5 + i % n) % m.domain(i % n)) as u32)
                .collect();
            for _ in 0..2 {
                m.forward_backward_in(&tokens, &tokens, &mut scratch, lanes);
                let (w1, w2) = &m.blocks[0];
                for layer in [&m.input_layer, w1, w2, &m.output_layer] {
                    let grad = &layer.inner.weight.grad;
                    let mut allowed_nonzero = 0;
                    for i in 0..grad.rows() {
                        for o in 0..grad.cols() {
                            let g = grad.get(i, o);
                            if layer.mask().allows(i, o) {
                                allowed_nonzero += usize::from(g != 0.0);
                            } else {
                                assert_eq!(g.to_bits(), 0, "{:?} ({i}, {o})", layer.mask());
                            }
                        }
                    }
                    assert!(allowed_nonzero > 0, "{:?}", layer.mask());
                }
                adam.step(&mut m.params_mut());
                assert_eq!(m.check_masked_weights(), Ok(()));
            }
        }
    }

    #[test]
    fn wildcard_skipping_masks_roughly_p_fraction() {
        let m = make(vec![10, 10, 10, 10], 4);
        let mut rng = seeded_rng(9);
        let rows: Vec<u32> = (0..500)
            .flat_map(|i| [i % 10, (i / 2) % 10, 3, 4])
            .collect();
        let mut masked = Vec::new();
        m.apply_wildcard_skipping(&rows, Some(0.3), &mut rng, &mut masked);
        assert_eq!(masked.len(), rows.len());
        // Every column has domain 10, so one MASK token serves all four.
        let n_masked = masked.iter().filter(|&&t| t == m.mask_token(0)).count();
        let frac = n_masked as f64 / rows.len() as f64;
        assert!((frac - 0.3).abs() < 0.05, "masked fraction {frac}");
        // p = 0 masks nothing, and the buffer is overwritten, not appended to.
        m.apply_wildcard_skipping(&rows, Some(0.0), &mut rng, &mut masked);
        assert_eq!(masked, rows);
    }

    /// The masks the nested `apply_wildcard_skipping(rows, 0.3)` and
    /// `apply_wildcard_skipping_varied(rows)` drew from this seed, flattened — recorded
    /// before the two were folded into one function, so the RNG draw order (row-major; a
    /// varied row's rate first) is pinned.  The trained weights of every seeded model hang
    /// off it.
    #[test]
    fn wildcard_skipping_draw_order_is_pinned() {
        let m = make(vec![10, 7, 4, 12], 4);
        let rows: Vec<u32> = (0..6u32)
            .flat_map(|i| [i % 10, (i * 3) % 7, i % 4, (i * 5) % 12])
            .collect();
        let mut rng = seeded_rng(9);
        let mut masked = Vec::new();
        m.apply_wildcard_skipping(&rows, Some(0.3), &mut rng, &mut masked);
        assert_eq!(
            masked,
            [0, 0, 4, 0, 10, 7, 1, 12, 2, 6, 2, 10, 3, 7, 3, 3, 4, 5, 0, 12, 5, 7, 1, 12]
        );
        m.apply_wildcard_skipping(&rows, None, &mut rng, &mut masked);
        assert_eq!(
            masked,
            [10, 0, 0, 0, 10, 7, 1, 5, 2, 7, 2, 12, 3, 2, 3, 3, 4, 7, 4, 8, 5, 1, 1, 1]
        );
        assert_eq!(rng.random::<u32>(), 702349618);
    }

    #[test]
    fn single_column_model_learns_a_marginal() {
        // Domain 3 with skewed frequencies 0.7 / 0.2 / 0.1.
        let mut m = ResMade::new(MadeConfig {
            domains: vec![3],
            d_emb: 4,
            d_hidden: 8,
            num_blocks: 1,
            seed: 5,
        });
        let mut adam = Adam::for_params(
            AdamConfig {
                lr: 5e-2,
                ..Default::default()
            },
            &m.params(),
        );
        let data = [[0u32; 70].as_slice(), &[1; 20], &[2; 10]].concat();
        let mut scratch = TrainScratch::new();
        for _ in 0..200 {
            m.forward_backward(&data, &data, &mut scratch);
            adam.step(&mut m.params_mut());
        }
        let p = probs(&m, &[0], 0);
        assert!((p.get(0, 0) - 0.7).abs() < 0.08, "p = {:?}", p.row(0));
        assert!((p.get(0, 1) - 0.2).abs() < 0.08);
        assert!((p.get(0, 2) - 0.1).abs() < 0.08);
    }

    #[test]
    fn conditional_probs_into_matches_training_path_bitwise() {
        let m = ResMade::new(MadeConfig {
            domains: vec![4, 9, 3, 17, 5],
            d_emb: 6,
            d_hidden: 24,
            num_blocks: 2,
            seed: 11,
        });
        let mut scratch = InferenceScratch::new();
        // Varying batch sizes through ONE reused scratch, with MASK tokens mixed in the
        // way progressive sampling produces them.
        for (round, &batch) in [7usize, 1, 13, 4].iter().enumerate() {
            let rows: Vec<Vec<u32>> = (0..batch)
                .map(|b| {
                    (0..m.num_columns())
                        .map(|c| {
                            if (b + c + round) % 3 == 0 {
                                m.mask_token(c)
                            } else {
                                ((b * 31 + c * 7 + round) % m.domain(c)) as u32
                            }
                        })
                        .collect()
                })
                .collect();
            let flat: Vec<u32> = rows.iter().flatten().copied().collect();
            for col in 0..m.num_columns() {
                // The reference is the seed path: full-batch allocation, full-width
                // output layer, scalar weight-tied logit loop.  The fast path must
                // reproduce it bit-for-bit — this is the model-level half of the
                // progressive sampler's determinism contract.
                let naive = m.conditional_probs_reference(&rows, col);
                let fast = m.conditional_probs_into(&flat, col, &mut scratch);
                assert_eq!(
                    (fast.rows(), fast.cols()),
                    (batch, m.domain(col)),
                    "shape at col {col}"
                );
                for (i, (a, b)) in naive.data().iter().zip(fast.data()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "round {round} col {col} element {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// The tests' generator: `next(bound)` is uniform-ish in `0..bound`.
    fn lcg(mut seed: u64) -> impl FnMut(usize) -> usize {
        move |bound: usize| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as usize) % bound
        }
    }

    /// A `num_blocks = 2` model whose every bias row holds a value (fresh models have
    /// all-zero biases).
    fn biased(
        domains: Vec<usize>,
        d_hidden: usize,
        next: &mut impl FnMut(usize) -> usize,
    ) -> ResMade {
        let mut m = ResMade::new(MadeConfig {
            domains,
            d_emb: 6,
            d_hidden,
            num_blocks: 2,
            seed: 17,
        });
        for p in m.params_mut() {
            if p.value.rows() == 1 {
                for v in p.value.data_mut() {
                    *v = next(2001) as f32 / 1000.0 - 1.0;
                }
            }
        }
        m
    }

    /// One step of `m` on `scratch` in `lanes` lanes, checked bit for bit against the seed
    /// forward.  With `parents`, row `r` continues `rows[parents[r]]` (the last step's token
    /// rows, which conditioned `base_col`); without, `batch` rows start from the empty
    /// prefix (`base_col` 0).  Newly covered columns get tokens from `next` (the last value
    /// of a domain is MASK), columns `>= col` garbage that would panic if it were looked
    /// up.  The scratch poisons every carried unit the step did not carry over and checks
    /// that the input layer adds to no unit of `z` of degree `< base_col` outside the
    /// widened runs.  Returns the step's token rows.
    #[expect(
        clippy::too_many_arguments,
        reason = "a test helper spelling out one step: model, scratch, prefix, shape, lanes"
    )]
    fn checked_step(
        m: &ResMade,
        scratch: &mut InferenceScratch,
        (rows, base_col): (&[Vec<u32>], usize),
        parents: Option<&[u32]>,
        batch: usize,
        col: usize,
        lanes: usize,
        next: &mut impl FnMut(usize) -> usize,
    ) -> Vec<Vec<u32>> {
        let n = m.num_columns();
        let base_col = if parents.is_some() { base_col } else { 0 };
        let new_rows: Vec<Vec<u32>> = (0..parents.map_or(batch, <[u32]>::len))
            .map(|r| {
                let mut row = match parents {
                    None => vec![0u32; n],
                    Some(parents) => rows[parents[r] as usize].clone(),
                };
                for (c, token) in row.iter_mut().enumerate().skip(base_col) {
                    *token = if c >= col {
                        u32::MAX
                    } else {
                        next(m.domain(c) + 1) as u32
                    };
                }
                row
            })
            .collect();
        let batch = new_rows.len();
        let flat: Vec<u32> = new_rows.iter().flatten().copied().collect();
        scratch.poison = true;
        let stepped = m.conditional_probs_step_in(&flat, col, parents, scratch, lanes);
        // The reference embeds every column, so it needs valid tokens there.
        let masked: Vec<Vec<u32>> = new_rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(c, &t)| if c >= col { m.mask_token(c) } else { t })
                    .collect()
            })
            .collect();
        let reference = m.conditional_probs_reference(&masked, col);
        let what = format!("n {n} {base_col} → {col} parents {parents:?}, {lanes} lanes");
        assert_eq!(
            (stepped.rows(), stepped.cols()),
            (batch, m.domain(col)),
            "{what}"
        );
        for (i, (a, b)) in reference.data().iter().zip(stepped.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
        assert_eq!(scratch.embedded_columns(), batch * (col - base_col));
        assert_eq!(scratch.lanes(), lanes);
        let d_hidden = m.config.d_hidden;
        assert!(scratch.block_terms() <= (batch * 4 * d_hidden * d_hidden) as u64);
        let period = ResMade::degree_period(n);
        let new_degree = (0..d_hidden).any(|u| (base_col..col).contains(&(u % period)));
        assert_eq!(scratch.block_terms() > 0, new_degree, "{what}");
        new_rows
    }

    /// The prefix-incremental forward against the seed forward, bit for bit, along random
    /// walks: every step picks its rows' parents at random from the previous step (rows
    /// duplicated, reordered, dropped), advances `col` by a few columns, and fills the
    /// newly covered columns with fresh tokens or MASK; now and then the walk restarts from
    /// the empty prefix.  Covers `n−1 < d_hidden`, `n−1 > d_hidden` (degrees without a
    /// unit), a one-column model, `col = 0` (a zero-width slab), and the `(d_hidden, P)`
    /// layouts of the kernel tests.  Before every step computes, each carried unit it did
    /// not carry over is NaN — and would surface if read.  The same walks run in 1, 2 and
    /// 3 lanes: batches of 1–9 rows, cut into four blocks per lane at multiples of four,
    /// so most blocks are empty and the rest uneven.
    #[test]
    fn prefix_steps_match_reference_bitwise_along_random_walks() {
        let cycled = |n: usize| (0..n).map(|c| [3usize, 5, 2, 7, 4][c % 5]).collect();
        for lanes in LANES {
            // The same walks at every lane count.
            let mut next = lcg(0x57E9);
            for (domains, d_hidden) in [
                (vec![4usize, 9, 3, 17, 5], 24usize),
                (vec![3, 5, 2, 7, 4, 6, 3, 5, 2, 8, 4, 3], 6),
                (vec![7], 8),
                (cycled(61), 96),
                (cycled(27), 96),
                (cycled(8), 40),
                (cycled(51), 33),
                (cycled(2), 8),
            ] {
                let m = biased(domains, d_hidden, &mut next);
                let n = m.num_columns();
                let mut scratch = InferenceScratch::new();
                // Token rows of the previous step and the column it conditioned.
                let mut rows: Vec<Vec<u32>> = Vec::new();
                let mut prev_col = 0usize;
                for _ in 0..60 {
                    let restart = rows.is_empty() || next(7) == 0;
                    let batch = 1 + next(9);
                    let parents: Vec<u32> =
                        (0..batch).map(|_| next(rows.len().max(1)) as u32).collect();
                    let base_col = if restart { 0 } else { prev_col };
                    // 0–3 columns at a time; wide models take longer strides to reach their
                    // last columns within the walk.
                    let col = (base_col + next(4.max(n / 4))).min(n - 1);
                    rows = checked_step(
                        &m,
                        &mut scratch,
                        (&rows, prev_col),
                        (!restart).then_some(&parents[..]),
                        batch,
                        col,
                        lanes,
                        &mut next,
                    );
                    prev_col = col;
                }
            }
        }
    }

    /// The parent maps the sampler produces, each spelled out, at JOB-light's degree period
    /// (26: four period copies in a 96-unit layer) and JOB-M's (60): the identity (classes
    /// that did not split — nothing is gathered), a non-monotone map with duplicates (an
    /// early class died and a later one split), a shrinking batch, an identity prefix of
    /// a shorter batch, a batch that widens to 37 rows and one that narrows to 18 — each
    /// in 1, 2 and 3 lanes (rows cut into four blocks per lane at multiples of four:
    /// uneven blocks, and from a batch of fewer rows than blocks some empty ones).
    #[test]
    fn prefix_steps_match_reference_bitwise_under_explicit_parent_maps() {
        let wide: Vec<u32> = (0..37).map(|r| (r * 2 % 3) as u32).collect();
        let narrow: Vec<u32> = (0..18).map(|r| 36 - 2 * r).collect();
        let identity: Vec<u32> = (0..13).collect();
        let maps: [(&[u32], usize); 8] = [
            (&[0, 1, 2, 3], 3),
            (&[2, 0, 0, 1], 0),
            (&[3, 1], 7),
            (&[0], 1),
            (&[0, 0, 0], 2),
            (&wide, 2),
            (&narrow, 1),
            (&identity, 20),
        ];
        for lanes in LANES {
            // The same models and tokens at every lane count.
            let mut next = lcg(0x9A7E);
            for n in [27usize, 61] {
                let m = biased(
                    (0..n).map(|c| [3usize, 5, 2, 7, 4][c % 5]).collect(),
                    96,
                    &mut next,
                );
                let mut scratch = InferenceScratch::new();
                let mut col = n / 5;
                let mut rows =
                    checked_step(&m, &mut scratch, (&[], 0), None, 4, col, lanes, &mut next);
                for (parents, stride) in maps {
                    let to = (col + stride).min(n - 1);
                    rows = checked_step(
                        &m,
                        &mut scratch,
                        (&rows, col),
                        Some(parents),
                        0,
                        to,
                        lanes,
                        &mut next,
                    );
                    col = to;
                }
            }
        }
    }

    /// A panic in any lane of a step — an input token outside its column's domain, in the
    /// last block of rows, which whichever lane gets there first claims — reaches the
    /// caller with its message once every lane has stopped, and the scratch serves a step
    /// from the empty prefix afterwards.  (`a_lane_panic_reaches_the_caller` pins the
    /// panic of a lane other than the caller's on the same `in_lanes`.)
    #[test]
    fn a_step_lane_panic_reaches_the_caller() {
        let m = make(vec![40, 3, 30, 5], 2);
        let n = m.num_columns();
        let mut tokens: Vec<u32> = (0..64 * n).map(|i| (i % 3) as u32).collect();
        let rows: Vec<Vec<u32>> = tokens.chunks(n).map(<[u32]>::to_vec).collect();
        let mut scratch = InferenceScratch::new();
        tokens[62 * n + 1] = 9;
        for lanes in [2, 3] {
            for _ in 0..8 {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    m.conditional_probs_step_in(&tokens, 2, None, &mut scratch, lanes);
                }));
                let payload = caught.expect_err("the step embedded a token outside its domain");
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(message.contains("outside domain"), "{message}");
            }
            let flat: Vec<u32> = rows.concat();
            let stepped = m.conditional_probs_step_in(&flat, 2, None, &mut scratch, lanes);
            assert_eq!(stepped, &m.conditional_probs_reference(&rows, 2));
        }
    }

    /// A step runs in one lane until its batch gives every core [`MIN_STEP_LANE_ROWS`]
    /// rows: JOB-light's 64 progressive samples never start a thread.
    #[test]
    fn narrow_steps_run_in_one_lane() {
        for rows in [0, 1, 64, 2 * MIN_STEP_LANE_ROWS - 1] {
            assert_eq!(lanes_for(rows, MIN_STEP_LANE_ROWS), 1, "{rows} rows");
        }
        let m = make(vec![4, 3, 5], 1);
        let mut scratch = InferenceScratch::new();
        assert_eq!(scratch.lanes(), 0);
        m.conditional_probs_into(&vec![0u32; 64 * 3], 2, &mut scratch);
        assert_eq!(scratch.lanes(), 1);
    }

    /// Column 0's context is its bias and nothing else: with no live unit, a step for it
    /// — all a one-column model ever runs — walks no block weight and no output weight.
    #[test]
    fn column_zero_touches_no_hidden_weight() {
        for domains in [vec![7usize], vec![4, 3, 5]] {
            let mut m = make(domains, 12);
            let n = m.num_columns();
            for p in m.params_mut() {
                if p.value.rows() == 1 {
                    for (i, v) in p.value.data_mut().iter_mut().enumerate() {
                        *v = (i % 7) as f32 * 0.25 - 0.5;
                    }
                }
            }
            let rows = vec![vec![0u32; n], vec![2; n]];
            let expected = m.conditional_probs_reference(&rows, 0);
            let mut poisoned = m.clone();
            for (w1, w2) in &mut poisoned.blocks {
                w1.inner.weight.value.data_mut().fill(f32::NAN);
                w2.inner.weight.value.data_mut().fill(f32::NAN);
            }
            poisoned
                .output_layer
                .inner
                .weight
                .value
                .data_mut()
                .fill(f32::NAN);
            let flat: Vec<u32> = rows.iter().flatten().copied().collect();
            let mut scratch = InferenceScratch::new();
            let stepped = poisoned.conditional_probs_into(&flat, 0, &mut scratch);
            for (a, b) in expected.data().iter().zip(stepped.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "n {n}: {a} vs {b}");
            }
            assert_eq!(scratch.block_terms(), 0);
        }
    }

    /// The live set of a step is exactly the set of hidden units the output mask lets into
    /// that column's context — and, for the small layouts, the three rules compose to the
    /// autoregressive property: input column `c'` reaches column `c`'s context through
    /// input → hidden^k → output iff `c' < c`.
    #[test]
    fn live_set_equals_the_output_masks_support() {
        for (n, d_hidden) in [
            (1usize, 8usize),
            (2, 8),
            (12, 6),
            (5, 24),
            (27, 40),
            (61, 96),
        ] {
            let m = ResMade::new(MadeConfig {
                domains: vec![3; n],
                d_emb: 3,
                d_hidden,
                num_blocks: 1,
                seed: 1,
            });
            let d = m.config.d_emb;
            let (input, hidden, output) = (
                m.input_layer.mask(),
                m.blocks[0].0.mask(),
                m.output_layer.mask(),
            );
            assert_eq!(m.blocks[0].1.mask(), hidden);
            for col in 0..n {
                let live = m.live_units(col);
                for h in 0..d_hidden {
                    let allowed = output.allows(h, col * d);
                    assert!((col * d..(col + 1) * d).all(|o| output.allows(h, o) == allowed));
                    assert_eq!(
                        live.contains(h),
                        allowed,
                        "n {n} d_hidden {d_hidden} col {col} unit {h}"
                    );
                }
            }
            if n > 12 {
                continue;
            }
            // One hidden → hidden step from the units an input column reaches; a second
            // step adds nothing, so the check covers hidden^k for every k ≥ 1.
            let step = |reached: &[bool]| -> Vec<bool> {
                (0..d_hidden)
                    .map(|h2| (0..d_hidden).any(|h1| reached[h1] && hidden.allows(h1, h2)))
                    .collect()
            };
            for from in 0..n {
                let first: Vec<bool> = (0..d_hidden)
                    .map(|h| (from * d..(from + 1) * d).any(|i| input.allows(i, h)))
                    .collect();
                let reached = step(&first);
                assert_eq!(step(&reached), reached);
                for to in 0..n {
                    let arrives = (to * d..(to + 1) * d)
                        .any(|o| (0..d_hidden).any(|h| reached[h] && output.allows(h, o)));
                    // A degree without a unit (`d_hidden < n − 1`) cuts some allowed
                    // paths, never opens a forbidden one.
                    let has_unit = from < d_hidden;
                    assert_eq!(
                        arrives,
                        from < to && has_unit,
                        "n {n} d_hidden {d_hidden}: column {from} into column {to}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "gradient buffers were released")]
    fn released_gradients_keep_inference_and_refuse_training() {
        let mut m = make(vec![4, 3, 5], 10);
        let rows = [1u32, 2, 0, 3, 0, 4];
        let before = probs(&m, &rows, 2);
        m.release_gradients();
        assert_eq!(probs(&m, &rows, 2), before);
        assert_eq!(m.clone().params().len(), m.params().len());
        m.forward_backward(&rows, &rows, &mut TrainScratch::new());
    }

    #[test]
    fn reserved_scratch_never_reallocates() {
        let m = ResMade::new(MadeConfig {
            domains: vec![4, 3, 9, 5],
            d_emb: 6,
            d_hidden: 24,
            num_blocks: 2,
            seed: 4,
        });
        let n = m.num_columns();
        let rows = 10;
        let addresses = |s: &InferenceScratch| {
            let mut all: Vec<*const f32> = [&s.x, &s.z, &s.spare, &s.ctx, &s.logits, &s.probs]
                .into_iter()
                .chain(&s.carried)
                .map(|m| m.data().as_ptr())
                .collect();
            // A gather swaps the carried matrix it fills with `spare`.
            all.sort();
            all
        };
        // One lane, and two: lanes split the buffers the calling thread shaped.
        for lanes in [1, 2] {
            let mut scratch = InferenceScratch::new();
            m.reserve_scratch(rows, &mut scratch);
            let reserved = addresses(&scratch);
            assert_eq!(reserved.len(), 6 + 4);
            // Narrow first, wide later; few rows first, all of them later; gathers and an
            // identity map; a first step at the last column (the widest slab) and the
            // largest domain.
            let identity: Vec<u32> = (0..rows as u32).collect();
            for (col, parents) in [
                (0, None),
                (1, Some(&[0u32, 0][..])),
                (3, Some(&[0, 1, 0, 1, 0, 1][..])),
                (3, Some(&identity[..6])),
                (n - 1, None),
                (2, None),
                (2, Some(&identity[..])),
            ] {
                let batch = parents.map_or(rows, <[u32]>::len);
                let batch = if col == 0 { 1 } else { batch };
                let tokens = vec![0u32; batch * n];
                m.conditional_probs_step_in(&tokens, col, parents, &mut scratch, lanes);
                assert_eq!(
                    addresses(&scratch),
                    reserved,
                    "{lanes} lanes: step (batch {batch}, col {col}) reallocated"
                );
            }
            // A second reservation within the first is free.
            m.reserve_scratch(rows, &mut scratch);
            assert_eq!(addresses(&scratch), reserved);
        }
    }

    /// Mirror of `reserved_scratch_never_reallocates` for training, at every lane count:
    /// once a scratch has seen a full batch, no later step — a ragged batch, then a full
    /// one again — moves or grows any of its buffers.
    #[test]
    fn train_scratch_never_reallocates() {
        for lanes in LANES {
            let mut m = make(vec![4, 3, 40, 5], 4);
            let n = m.num_columns();
            let mut adam = Adam::for_params(AdamConfig::default(), &m.params());
            let mut scratch = TrainScratch::new();
            let buffers = |s: &TrainScratch| -> Vec<(*const f32, usize)> {
                let rows = s.rows.iter().flat_map(|r| {
                    [&r.x, &r.ctx, &r.dh, &r.dh_branch, &r.dx]
                        .into_iter()
                        .chain(&r.hiddens)
                        .chain(r.block_acts.iter().flat_map(|(a, b)| [a, b]))
                        .chain(&r.block_grads)
                });
                let heads = s
                    .heads
                    .iter()
                    .flat_map(|h| [&h.ctx, &h.logits, &h.dlogits, &h.wt]);
                let targets = s.heads.iter().map(|h| &h.targets);
                rows.chain(heads)
                    .chain(&s.wts)
                    .chain([&s.dctx])
                    .map(|m| (m.data().as_ptr(), m.capacity()))
                    .chain(targets.map(|t| (t.as_ptr().cast(), t.capacity())))
                    .chain([(s.losses.as_ptr(), s.losses.capacity())])
                    .collect()
            };
            let mut after_first = Vec::new();
            for (step, batch) in (0..50).map(|step| (step, [128usize, 37, 128][step % 3])) {
                let tokens: Vec<u32> = (0..batch * n)
                    .map(|i| ((i / n * 3 + i % n + step) % m.domain(i % n)) as u32)
                    .collect();
                m.forward_backward_in(&tokens, &tokens, &mut scratch, lanes);
                adam.step(&mut m.params_mut());
                if step == 0 {
                    after_first = buffers(&scratch);
                }
                assert_eq!(
                    buffers(&scratch),
                    after_first,
                    "{lanes} lanes, step {step} (batch {batch})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "autoregressive order")]
    fn step_rejects_a_column_behind_the_carried_prefix() {
        let m = make(vec![4, 3, 5], 8);
        let mut scratch = InferenceScratch::new();
        m.conditional_probs_into(&[0, 1, 2], 2, &mut scratch);
        m.conditional_probs_step(&[0, 1, 2], 1, Some(&[0]), &mut scratch);
    }

    /// A carry left by one model cannot be continued by another of the same width: not
    /// with another block count (the carried layers differ), not with another degree
    /// period (the carried units' degrees differ).  A step from the empty prefix may switch.
    #[test]
    fn step_rejects_a_prefix_of_another_model() {
        let model = |columns: usize, num_blocks: usize| {
            ResMade::new(MadeConfig {
                domains: vec![4; columns],
                d_emb: 6,
                d_hidden: 24,
                num_blocks,
                seed: 8,
            })
        };
        let carrier = model(3, 1);
        for other in [model(3, 2), model(4, 1)] {
            let mut scratch = InferenceScratch::new();
            carrier.conditional_probs_into(&[0, 1, 2], 1, &mut scratch);
            let tokens = vec![0u32; other.num_columns()];
            let continued = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                other.conditional_probs_step(&tokens, 2, Some(&[0]), &mut scratch);
            }));
            let message = continued.expect_err("continued another model's prefix");
            let message = message.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("belongs to another model"), "{message}");
            other.conditional_probs_step(&tokens, 2, None, &mut scratch);
            other.conditional_probs_step(&tokens, 2, Some(&[0]), &mut scratch);
        }
    }

    #[test]
    fn masked_weight_check_names_the_layer() {
        let mut m = make(vec![4, 3, 5], 9);
        assert_eq!(m.check_masked_weights(), Ok(()));
        // Unit 0 has degree 0; input unit of column 1 may not reach it.
        let d = m.config().d_emb;
        m.input_layer.inner.weight.value.set(d, 0, 0.5);
        let err = m.check_masked_weights().unwrap_err();
        assert!(err.contains("input layer") && err.contains("0.5"), "{err}");
        m.input_layer.inner.weight.value.set(d, 0, -0.0); // a zero of either sign passes
        assert_eq!(m.check_masked_weights(), Ok(()));
        // Hidden unit 1 (degree 1) may not feed hidden unit 0 (degree 0).
        m.blocks[0].1.inner.weight.value.set(1, 0, 1e-30);
        let err = m.check_masked_weights().unwrap_err();
        assert!(err.contains("second layer of block 0"), "{err}");
        m.blocks[0].1.inner.weight.value.set(1, 0, 0.0);
        // Column 0's context sees no hidden unit at all.
        m.output_layer.inner.weight.value.set(3, 0, f32::NAN);
        let err = m.check_masked_weights().unwrap_err();
        assert!(err.contains("output layer"), "{err}");
        m.output_layer.inner.weight.value.set(3, 0, 0.0);
        // An unmasked weight may be anything finite: unit 0 feeds itself.
        m.blocks[0].0.inner.weight.value.set(0, 0, f32::INFINITY);
        let err = m.check_masked_weights().unwrap_err();
        assert!(
            err.contains("first layer of block 0") && err.contains("not finite"),
            "{err}"
        );
    }

    #[test]
    fn embed_flat_matches_row_embedding() {
        let m = make(vec![4, 3, 5], 6);
        let flat = [1u32, 2, 0, 3, 0, 4, 4, 3, 5]; // three rows, incl. MASKs
        let mut x = Matrix::zeros(0, 0);
        m.embed_flat_into(&flat, &mut x);
        let d = m.config.d_emb;
        assert_eq!((x.rows(), x.cols()), (3, 3 * d));
        for (i, &token) in flat.iter().enumerate() {
            let (b, c) = (i / 3, i % 3);
            let mut expected = vec![0.0; d];
            m.embeddings[c].lookup(token, &mut expected);
            assert_eq!(&x.row(b)[c * d..(c + 1) * d], &expected[..]);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the column count")]
    fn embed_flat_rejects_ragged_buffers() {
        let m = make(vec![4, 3], 1);
        let mut x = Matrix::zeros(0, 0);
        m.embed_flat_into(&[0u32, 1, 2], &mut x);
    }
}
