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

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use crate::kernel;
use crate::layers::{relu, relu_backward, seeded_rng, Embedding, MaskedLinear, Param};
use crate::loss::{softmax_cross_entropy, softmax_rows, softmax_rows_into};
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

    /// The training forward's trunk (hidden stack → per-column context vectors) over the
    /// embedded batch `s.x`, every activation the backward pass needs kept in `s`.
    fn forward_trunk(&self, s: &mut TrainScratch) {
        let batch = s.x.rows();
        let h_dim = self.config.d_hidden;
        s.hiddens
            .resize_with(self.blocks.len() + 1, Matrix::default);
        s.block_acts
            .resize_with(self.blocks.len(), Default::default);
        s.hiddens[0].resize(batch, h_dim);
        self.input_layer.forward(&s.x, &mut s.hiddens[0]);
        relu(&mut s.hiddens[0]);
        for (i, (w1, w2)) in self.blocks.iter().enumerate() {
            let (before, after) = s.hiddens.split_at_mut(i + 1);
            let (h_prev, h_next) = (&before[i], &mut after[0]);
            let (a, b) = &mut s.block_acts[i];
            a.resize(batch, h_dim);
            w1.forward(h_prev, a);
            relu(a);
            b.resize(batch, h_dim);
            w2.forward(a, b);
            relu(b);
            h_next.resize(batch, h_dim);
            for ((o, p), v) in h_next
                .data_mut()
                .iter_mut()
                .zip(h_prev.data())
                .zip(b.data())
            {
                *o = p + v;
            }
        }
        s.ctx.resize(batch, self.num_columns() * self.config.d_emb);
        self.output_layer
            .forward(s.hiddens.last().expect("non-empty"), &mut s.ctx);
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
    /// Every activation and gradient lives in `scratch`, which adapts to the batch it is
    /// given: once it has seen the largest batch, a step allocates nothing.  The six
    /// matrix products run on the register-blocked kernels of [`crate::tensor`], each of
    /// which keeps the per-element accumulation order of the naive loop it replaced — a
    /// trained weight does not depend on the blocking (`trained_weights_are_pinned*`).
    pub fn forward_backward(
        &mut self,
        inputs: &[u32],
        targets: &[u32],
        scratch: &mut TrainScratch,
    ) -> f32 {
        assert_eq!(inputs.len(), targets.len());
        assert!(!inputs.is_empty(), "cannot train on an empty batch");
        assert!(
            self.input_layer.inner.weight.grad.rows() > 0,
            "this model's gradient buffers were released; it can only be evaluated"
        );
        let n = self.num_columns();
        let d = self.config.d_emb;
        let h_dim = self.config.d_hidden;

        self.embed_flat_into(inputs, &mut scratch.x);
        let batch = scratch.x.rows();
        self.forward_trunk(scratch);

        // Per-column heads: loss, dlogits, then gradients into embeddings/biases/ctx.
        //   logits[b][v] = ctx_col[b] · E[v] + bias[v]
        //   dctx_col[b]  = Σ_v dlogits[b][v] · E[v]          (dlogits · E[..domain])
        //   dE[v]       += Σ_b dlogits[b][v] · ctx_col[b]    (dlogitsᵀ · ctx_col)
        //   dbias[v]    += Σ_b dlogits[b][v]
        // `E[..domain]` leaves out the table's last row: MASK is never a target.
        let mut total_loss = 0.0f32;
        let TrainScratch {
            ctx,
            dctx,
            head_ctx,
            head_dctx,
            logits,
            dlogits,
            target_col,
            wt,
            ..
        } = scratch;
        dctx.resize(batch, n * d);
        head_ctx.resize(batch, d);
        head_dctx.resize(batch, d);
        for col in 0..n {
            let domain = self.config.domains[col];
            let Param { value: emb, grad } = &mut self.embeddings[col].table;
            let emb = &emb.data()[..domain * d];
            for b in 0..batch {
                head_ctx
                    .row_mut(b)
                    .copy_from_slice(&ctx.row(b)[col * d..(col + 1) * d]);
            }
            transpose_into(domain, d, emb, wt);
            logits.resize(batch, domain);
            matmul_blocked(head_ctx, wt, logits);
            add_bias(logits, self.output_bias[col].value.row(0));
            target_col.clear();
            target_col.extend(targets.iter().skip(col).step_by(n));
            dlogits.resize(batch, domain);
            total_loss += softmax_cross_entropy(logits, target_col, dlogits);

            column_sums_accumulate(dlogits, self.output_bias[col].grad.row_mut(0));
            gemm_narrow(batch, domain, d, dlogits.data(), emb, head_dctx.data_mut());
            for b in 0..batch {
                dctx.row_mut(b)[col * d..(col + 1) * d].copy_from_slice(head_dctx.row(b));
            }
            gemm_tn_acc(
                batch,
                domain,
                d,
                dlogits.data(),
                head_ctx.data(),
                None,
                grad.data_mut(),
            );
        }

        // Output layer backward.
        let TrainScratch {
            x,
            hiddens,
            block_acts,
            dctx,
            dh,
            db,
            da,
            dh_branch,
            dx,
            wt,
            ..
        } = scratch;
        dh.resize(batch, h_dim);
        self.output_layer
            .backward(hiddens.last().expect("non-empty"), dctx, dh, wt);

        // Residual blocks backward (reverse order).
        for (i, (w1, w2)) in self.blocks.iter_mut().enumerate().rev() {
            let (a, b_act) = &block_acts[i];
            // dh splits into the identity path (stays dh) and the branch path through b.
            db.resize(batch, h_dim);
            db.data_mut().copy_from_slice(dh.data());
            relu_backward(b_act, db);
            da.resize(batch, h_dim);
            w2.backward(a, db, da, wt);
            relu_backward(a, da);
            dh_branch.resize(batch, h_dim);
            w1.backward(&hiddens[i], da, dh_branch, wt);
            for (o, v) in dh.data_mut().iter_mut().zip(dh_branch.data()) {
                *o += v;
            }
        }

        // Input layer backward.
        relu_backward(&hiddens[0], dh);
        dx.resize(batch, n * d);
        self.input_layer.backward(x, dh, dx, wt);

        // Embedding (input side) gradients.
        for (b, row) in inputs.chunks_exact(n).enumerate() {
            let dx_row = dx.row(b);
            for (c, &token) in row.iter().enumerate() {
                self.embeddings[c].accumulate_grad(token, &dx_row[c * d..(c + 1) * d]);
            }
        }

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
        self.embed_columns_into(tokens, 0, self.num_columns(), x);
    }

    /// Embeds columns `lo..hi` of a flat `batch × num_columns` token buffer into the
    /// `batch × (hi − lo)·d_emb` slab `x` (resized; allocation reused across calls).
    /// Tokens outside `lo..hi` are not read.
    fn embed_columns_into(&self, tokens: &[u32], lo: usize, hi: usize, x: &mut Matrix) {
        let n = self.num_columns();
        let d = self.config.d_emb;
        assert_eq!(
            tokens.len() % n,
            0,
            "flat token buffer length must be a multiple of the column count"
        );
        let batch = tokens.len() / n;
        x.resize(batch, (hi - lo) * d);
        for b in 0..batch {
            let row_tokens = &tokens[b * n + lo..b * n + hi];
            let out_row = x.row_mut(b);
            for (c, &token) in row_tokens.iter().enumerate() {
                self.embeddings[lo + c].lookup(token, &mut out_row[c * d..(c + 1) * d]);
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
            add_bias(&mut out, layer.inner.bias.value.row(0));
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
    /// zero allocations in steady state — and the returned reference points into
    /// `scratch.probs`.  One [`ResMade::conditional_probs_step`] from an empty prefix on the
    /// exact tier.
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
        self.step::<ScalarKernels>(tokens, col, None, scratch)
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
    /// `>= col` are never read.
    ///
    /// `fast_kernels` picks the tier: `false` runs the scalar kernels, `true` dispatches
    /// every GEMM and the softmax normalisation through [`crate::kernel`] to the widest
    /// instruction set the CPU supports.  Where dispatch resolves to the portable kernels
    /// (the `simd` feature off) the two are bit-identical — pinned by
    /// `conditional_probs_into_fast_bit_identical_without_simd`; with SIMD selected, the
    /// reassociated reductions drift by last ulps and callers own the accuracy story (the
    /// serving layer's q-error-delta gate).  One chain of steps must stay on one model and
    /// one tier.
    pub fn conditional_probs_step<'s>(
        &self,
        tokens: &[u32],
        col: usize,
        parents: Option<&[u32]>,
        fast_kernels: bool,
        scratch: &'s mut InferenceScratch,
    ) -> &'s Matrix {
        if fast_kernels {
            self.step::<DispatchedKernels>(tokens, col, parents, scratch)
        } else {
            self.step::<ScalarKernels>(tokens, col, parents, scratch)
        }
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

    /// The one inference forward behind both tiers, generic over the kernel set so each
    /// instantiation compiles to direct calls into its kernel module.
    ///
    /// The whole trunk is **prefix-incremental**.  Hidden unit `u` has the degree `u % P`
    /// (`P` = [`ResMade::degree_period`]), and MADE's masks make a unit of degree `k`, in
    /// every layer, a function of columns `<= k` alone.  The scratch carries, per row of
    /// the last step, the input layer's pre-bias sums `z` over columns `< z_cols` and, in
    /// each residual block's first activation `a` and output `h`, the units of degree
    /// `< z_cols`.  A step for `col`:
    ///
    /// 1. gathers each row's carry from its parent row — all of `z`, the units of degree
    ///    `< z_cols` of the carried layers — and gathers nothing when `parents` is the
    ///    identity;
    /// 2. adds columns `z_cols..col` onto `z` ([`matmul_blocked_acc`]; columns `>= col`
    ///    meet structurally-zero weights on every path into column `col`) and takes
    ///    `h₀ = relu(z + b)`;
    /// 3. layer by layer, computes only the units of degree in `z_cols..col` — one short
    ///    run per period, widened to [`UNIT_ALIGN`] — from the live inner units (degree
    ///    `< col`, [`ResMade::live_units`]) straight into the carried matrix
    ///    ([`matmul_units_live`]), then their bias, ReLU and residual add;
    /// 4. computes **only** column `col`'s `d_emb`-wide context slice, from the live units
    ///    of the last layer ([`matmul_col_range_live`]), the logit head as one blocked GEMM
    ///    against the embedding table ([`gemm_nt`]), and the softmax.
    ///
    /// Units of degree `>= col` hold unspecified values (partial sums, or stale) that no
    /// kernel reads: every inner walk stays inside the live set.
    ///
    /// The exact tier stays bit-identical to [`ResMade::conditional_probs_reference`]:
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
    fn step<'s, K: KernelSet>(
        &self,
        tokens: &[u32],
        col: usize,
        parents: Option<&[u32]>,
        scratch: &'s mut InferenceScratch,
    ) -> &'s Matrix {
        let n = self.num_columns();
        assert!(col < n);
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

        let InferenceScratch {
            x,
            z,
            z_cols: carried_cols,
            carried,
            spare,
            embedded_columns,
            block_terms,
            ctx,
            logits,
            probs,
            ..
        } = scratch;

        // z += x[:, z_cols..col] · W_in[z_cols·d .. col·d, :], then h₀ = relu(z + b).
        self.embed_columns_into(tokens, z_cols, col, x);
        (K::MATMUL_BLOCKED_ACC)(x, &self.input_layer.inner.weight.value, z_cols * d, z);
        *carried_cols = col;
        *embedded_columns = batch * (col - z_cols);
        spare.resize(batch, h_dim);
        let bias = self.input_layer.inner.bias.value.row(0);
        for (h_row, z_row) in spare
            .data_mut()
            .chunks_exact_mut(h_dim)
            .zip(z.data().chunks_exact(h_dim))
        {
            for ((h, &z), &b) in h_row.iter_mut().zip(z_row).zip(bias) {
                *h = relu_value(z + b);
            }
        }
        let h0: &Matrix = spare;

        // The residual blocks, new units only.
        let live = self.live_units(col);
        let new_units = || self.new_units(z_cols, col);
        let inner: usize = live.runs(h_dim).map(|run| run.len()).sum();
        let computed: usize = new_units().map(|run| run.len()).sum();
        *block_terms = (2 * self.blocks.len() * batch * inner * computed) as u64;
        let carried = &mut carried[..2 * self.blocks.len()];
        for (i, (w1, w2)) in self.blocks.iter().enumerate() {
            let (below, this) = carried.split_at_mut(2 * i);
            let h_in = below.last().unwrap_or(h0);
            let (a, h_out) = this.split_at_mut(1);
            let (a, h_out) = (&mut a[0], &mut h_out[0]);
            for run in new_units() {
                (K::MATMUL_UNITS_LIVE)(h_in, &w1.inner.weight.value, run.clone(), live, a);
                bias_relu(a, run, w1.inner.bias.value.row(0));
            }
            for run in new_units() {
                (K::MATMUL_UNITS_LIVE)(a, &w2.inner.weight.value, run.clone(), live, h_out);
                residual(h_in, run, w2.inner.bias.value.row(0), h_out);
            }
        }

        ctx.resize(batch, d);
        (K::MATMUL_COL_RANGE_LIVE)(
            carried.last().unwrap_or(h0),
            &self.output_layer.inner.weight.value,
            col * d,
            (col + 1) * d,
            live,
            ctx,
        );
        add_bias(
            ctx,
            &self.output_layer.inner.bias.value.row(0)[col * d..(col + 1) * d],
        );
        logits.resize(batch, domain);
        let emb = &self.embeddings[col].table.value;
        (K::GEMM_NT)(
            batch,
            domain,
            d,
            ctx.data(),
            &emb.data()[..domain * d],
            logits.data_mut(),
        );
        add_bias(logits, self.output_bias[col].value.row(0));
        (K::SOFTMAX_ROWS_INTO)(logits, probs);
        probs
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

/// The five kernels of the inference forward, as compile-time constants: each tier's
/// instantiation of [`ResMade::step`] calls its kernel module directly, so the exact tier
/// executes only `tensor::*` / `loss::*` calls.
#[expect(
    clippy::type_complexity,
    reason = "the signatures are the kernels' own; aliasing each would only rename them once more"
)]
trait KernelSet {
    const MATMUL_BLOCKED_ACC: fn(&Matrix, &Matrix, usize, &mut Matrix);
    const MATMUL_UNITS_LIVE: fn(&Matrix, &Matrix, Range<usize>, LiveUnits, &mut Matrix);
    const MATMUL_COL_RANGE_LIVE: fn(&Matrix, &Matrix, usize, usize, LiveUnits, &mut Matrix);
    const GEMM_NT: fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    const SOFTMAX_ROWS_INTO: fn(&Matrix, &mut Matrix);
}

/// Exact tier: the scalar kernels of [`crate::tensor`] and [`crate::loss`].
struct ScalarKernels;

impl KernelSet for ScalarKernels {
    const MATMUL_BLOCKED_ACC: fn(&Matrix, &Matrix, usize, &mut Matrix) = matmul_blocked_acc;
    const MATMUL_UNITS_LIVE: fn(&Matrix, &Matrix, Range<usize>, LiveUnits, &mut Matrix) =
        matmul_units_live;
    const MATMUL_COL_RANGE_LIVE: fn(&Matrix, &Matrix, usize, usize, LiveUnits, &mut Matrix) =
        matmul_col_range_live;
    const GEMM_NT: fn(usize, usize, usize, &[f32], &[f32], &mut [f32]) = gemm_nt;
    const SOFTMAX_ROWS_INTO: fn(&Matrix, &mut Matrix) = softmax_rows_into;
}

/// Fast tier: the architecture-dispatched kernels of [`crate::kernel`].
struct DispatchedKernels;

impl KernelSet for DispatchedKernels {
    const MATMUL_BLOCKED_ACC: fn(&Matrix, &Matrix, usize, &mut Matrix) = kernel::matmul_blocked_acc;
    const MATMUL_UNITS_LIVE: fn(&Matrix, &Matrix, Range<usize>, LiveUnits, &mut Matrix) =
        kernel::matmul_units_live;
    const MATMUL_COL_RANGE_LIVE: fn(&Matrix, &Matrix, usize, usize, LiveUnits, &mut Matrix) =
        kernel::matmul_col_range_live;
    const GEMM_NT: fn(usize, usize, usize, &[f32], &[f32], &mut [f32]) = kernel::gemm_nt;
    const SOFTMAX_ROWS_INTO: fn(&Matrix, &mut Matrix) = kernel::softmax_rows_into;
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

/// `m[r][u] = relu(m[r][u] + bias[u])` for the units `units` of every row.
fn bias_relu(m: &mut Matrix, units: Range<usize>, bias: &[f32]) {
    let width = m.cols();
    for row in m.data_mut().chunks_exact_mut(width) {
        for (v, &b) in row[units.clone()].iter_mut().zip(&bias[units.clone()]) {
            *v = relu_value(*v + b);
        }
    }
}

/// A residual block's output over the units `units` of every row: `out[r][u] = h[r][u] +
/// relu(out[r][u] + bias[u])`, where `h` is the block's input and `out` holds the pre-bias
/// sums of its second layer.
fn residual(h: &Matrix, units: Range<usize>, bias: &[f32], out: &mut Matrix) {
    let width = out.cols();
    for (row, h_row) in out
        .data_mut()
        .chunks_exact_mut(width)
        .zip(h.data().chunks_exact(width))
    {
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

/// Reusable buffers — and the carried prefix — of the zero-allocation inference forward
/// pass ([`ResMade::conditional_probs_step`]).
///
/// Create one per serving thread and reuse it across forward passes, sub-columns and
/// queries; every buffer is resized in place (allocations only grow, never shrink), so
/// steady-state inference performs no heap allocation at all
/// ([`ResMade::reserve_scratch`] sizes them all at once).  The scratch is not tied to
/// a model: a step from the empty prefix adapts to whatever shapes it needs and
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
    /// Context slice of the queried column (`batch × d_emb`).
    ctx: Matrix,
    /// Logits of the queried column (`batch × domain`).
    logits: Matrix,
    /// Softmax probabilities returned to the caller.
    probs: Matrix,
    /// Test hook: after the gather, NaN-fill every carried unit the step did not carry
    /// over, so a read of one surfaces in its result.
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
}

/// Every buffer of one training step ([`ResMade::forward_backward`]): activations,
/// gradients, the per-column head matrices and the one transposed-weight buffer.
///
/// The trainer owns one and passes it to every step — never the model, which is cloned
/// into every serving core.  Buffers are resized in place and only ever grow, so after the
/// first full batch a step allocates nothing, a ragged last batch included; the per-column
/// buffers are shared by the columns and end up sized for the largest domain, the
/// transposed-weight buffer for the largest layer.  Not tied to a model: a step adapts it
/// to whatever shapes it needs.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    /// Embedded inputs (`batch × n·d_emb`).
    x: Matrix,
    /// `hiddens[0]` is the post-ReLU input-layer activation; `hiddens[i+1]` the output of
    /// residual block `i` (`batch × d_hidden` each).
    hiddens: Vec<Matrix>,
    /// `(a, b)` activations inside each residual block.
    block_acts: Vec<(Matrix, Matrix)>,
    /// Per-column context vectors (`batch × n·d_emb`) and their gradient.
    ctx: Matrix,
    dctx: Matrix,
    /// One column's slice of `ctx` / `dctx`, gathered compact (`batch × d_emb`).
    head_ctx: Matrix,
    head_dctx: Matrix,
    /// One column's logits and their gradient (`batch × domain`).
    logits: Matrix,
    dlogits: Matrix,
    /// One column of the targets.
    target_col: Vec<u32>,
    /// Gradients flowing down the hidden stack (`batch × d_hidden` each): the residual
    /// stream, and inside a block its `b`, its `a` and its contribution to the stream.
    dh: Matrix,
    db: Matrix,
    da: Matrix,
    dh_branch: Matrix,
    /// Gradient of the embedded inputs (`batch × n·d_emb`).
    dx: Matrix,
    /// The transpose of whichever weight the step is multiplying by: each layer's `Wᵀ`
    /// for `dx = dy · Wᵀ`, each column's `E[..domain]ᵀ` for its logits.
    wt: Matrix,
}

impl TrainScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
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

    /// Training is pinned to the bit: a fixed tiny model, fixed token rows (inputs carry
    /// MASK tokens the way wildcard skipping leaves them), five `forward_backward` + Adam
    /// steps, and the FNV-1a of the serialised weights.  The constant predates the
    /// [`MadeMask`] rule (gradients were then multiplied by dense 0/1 matrices), so it also
    /// pins that the rule moved no bit; training is scalar, so both `simd` legs share it.
    #[test]
    fn trained_weights_are_pinned() {
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
            m.forward_backward(&inputs, &targets, &mut scratch);
            adam.step(&mut m.params_mut());
        }
        assert_eq!(m.check_masked_weights(), Ok(()));
        let bytes = crate::serialize::model_to_bytes(&m);
        assert_eq!(crate::artifact::fnv1a64(&bytes), 0xdc58_f21b_ad79_f0e8);
    }

    /// The same pin where the kernels are wide: `d_hidden` 96 (three 32-wide blocks),
    /// batches 37 → 128 → 37 (ragged row tiles, a scratch that grows and shrinks), a
    /// 300-value domain, and degree periods 7, 26 (JOB-light's) and 60 (JOB-M's) — shorter
    /// and longer than a register tile.  Recorded from the allocating, naive-kernel
    /// `forward_backward` this crate had before [`TrainScratch`].
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
            let mut m = ResMade::new(MadeConfig {
                domains,
                d_emb: 12,
                d_hidden: 96,
                num_blocks: 2,
                seed: 31,
            });
            let mut adam = Adam::for_params(AdamConfig::default(), &m.params());
            let mut scratch = TrainScratch::new();
            for (step, batch) in [37usize, 128, 37].into_iter().enumerate() {
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
                m.forward_backward(&inputs, &targets, &mut scratch);
                adam.step(&mut m.params_mut());
            }
            assert_eq!(m.check_masked_weights(), Ok(()));
            let bytes = crate::serialize::model_to_bytes(&m);
            assert_eq!(
                crate::artifact::fnv1a64(&bytes),
                pinned,
                "{n} columns: {:#x}",
                crate::artifact::fnv1a64(&bytes)
            );
        }
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
        let mut scratch = TrainScratch::new();
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
            m.embed_flat_into(&tokens, &mut scratch.x);
            m.forward_trunk(&mut scratch);
            let reference = m.reference_ctx(&tokens);
            assert_eq!(
                (scratch.ctx.rows(), scratch.ctx.cols()),
                (batch, n * m.config.d_emb)
            );
            for (i, (a, b)) in reference.data().iter().zip(scratch.ctx.data()).enumerate() {
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
        for n in [27usize, 61] {
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
                m.forward_backward(&tokens, &tokens, &mut scratch);
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

    /// With the `simd` feature off, the fast-tier forward resolves to the portable
    /// kernels and must reproduce the exact tier bit-for-bit — the model-level half of
    /// the two-tier determinism contract's "fast mode is still deterministic per build"
    /// guarantee.
    #[cfg(not(feature = "simd"))]
    #[test]
    fn conditional_probs_into_fast_bit_identical_without_simd() {
        let m = ResMade::new(MadeConfig {
            domains: vec![4, 9, 3, 17, 5],
            d_emb: 6,
            d_hidden: 24,
            num_blocks: 2,
            seed: 13,
        });
        let mut exact = InferenceScratch::new();
        let mut fast = InferenceScratch::new();
        for batch in [1usize, 7, 13] {
            let flat: Vec<u32> = (0..batch)
                .flat_map(|b| {
                    (0..m.num_columns())
                        .map(|c| ((b * 17 + c * 5) % m.domain(c)) as u32)
                        .collect::<Vec<_>>()
                })
                .collect();
            for col in 0..m.num_columns() {
                let reference = m.conditional_probs_into(&flat, col, &mut exact).clone();
                let dispatched = m.conditional_probs_step(&flat, col, None, true, &mut fast);
                for (i, (a, b)) in reference.data().iter().zip(dispatched.data()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "col {col} element {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Whatever ISA the fast tier dispatches to, its conditional distributions must stay
    /// numerically indistinguishable from the exact tier at f32 working precision (only
    /// reassociated reductions separate the tiers).
    #[test]
    fn conditional_probs_into_fast_matches_exact_numerically() {
        let m = ResMade::new(MadeConfig {
            domains: vec![6, 11, 4, 23],
            d_emb: 8,
            d_hidden: 40,
            num_blocks: 2,
            seed: 29,
        });
        let mut exact = InferenceScratch::new();
        let mut fast = InferenceScratch::new();
        for batch in [1usize, 9, 33] {
            let flat: Vec<u32> = (0..batch)
                .flat_map(|b| {
                    (0..m.num_columns())
                        .map(|c| {
                            if (b + c) % 4 == 0 {
                                m.mask_token(c)
                            } else {
                                ((b * 13 + c * 3) % m.domain(c)) as u32
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            for col in 0..m.num_columns() {
                let reference = m.conditional_probs_into(&flat, col, &mut exact).clone();
                let dispatched = m.conditional_probs_step(&flat, col, None, true, &mut fast);
                assert_eq!(
                    (dispatched.rows(), dispatched.cols()),
                    (batch, m.domain(col))
                );
                for r in 0..batch {
                    let s: f32 = dispatched.row(r).iter().sum();
                    assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
                }
                for (i, (a, b)) in reference.data().iter().zip(dispatched.data()).enumerate() {
                    assert!((a - b).abs() <= 1e-5, "col {col} element {i}: {a} vs {b}");
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

    /// One step of `m` on `scratch`, checked bit for bit against the seed forward.  With
    /// `parents`, row `r` continues `rows[parents[r]]` (the last step's token rows, which
    /// conditioned `base_col`); without, `batch` rows start from the empty prefix
    /// (`base_col` 0).  Newly covered columns get tokens from `next` (the last value of a
    /// domain is MASK), columns `>= col` garbage that would panic if it were looked up.
    /// The scratch poisons every carried unit the step did not carry over.  Returns the
    /// step's token rows.
    fn checked_step(
        m: &ResMade,
        scratch: &mut InferenceScratch,
        (rows, base_col): (&[Vec<u32>], usize),
        parents: Option<&[u32]>,
        batch: usize,
        col: usize,
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
        let stepped = m.conditional_probs_step(&flat, col, parents, false, scratch);
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
        let what = format!("n {n} {base_col} → {col} parents {parents:?}");
        assert_eq!(
            (stepped.rows(), stepped.cols()),
            (batch, m.domain(col)),
            "{what}"
        );
        for (i, (a, b)) in reference.data().iter().zip(stepped.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
        assert_eq!(scratch.embedded_columns(), batch * (col - base_col));
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
    /// not carry over is NaN — and would surface if read.
    #[test]
    fn prefix_steps_match_reference_bitwise_along_random_walks() {
        let mut next = lcg(0x57E9);
        let cycled = |n: usize| (0..n).map(|c| [3usize, 5, 2, 7, 4][c % 5]).collect();
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
                    &mut next,
                );
                prev_col = col;
            }
        }
    }

    /// The parent maps the sampler produces, each spelled out, at JOB-light's degree period
    /// (26: four period copies in a 96-unit layer) and JOB-M's (60): the identity (classes
    /// that did not split — nothing is gathered), a non-monotone map with duplicates (an
    /// early class died and a later one split), a shrinking batch, and an identity prefix of
    /// a shorter batch.
    #[test]
    fn prefix_steps_match_reference_bitwise_under_explicit_parent_maps() {
        let mut next = lcg(0x9A7E);
        for n in [27usize, 61] {
            let m = biased(
                (0..n).map(|c| [3usize, 5, 2, 7, 4][c % 5]).collect(),
                96,
                &mut next,
            );
            let mut scratch = InferenceScratch::new();
            let maps: [&[u32]; 5] = [&[0, 1, 2, 3], &[2, 0, 0, 1], &[3, 1], &[0], &[0, 0, 0]];
            let mut rows = checked_step(&m, &mut scratch, (&[], 0), None, 4, n / 5, &mut next);
            let mut col = n / 5;
            for (i, parents) in maps.into_iter().enumerate() {
                let to = (col + [3, 0, 7, 1, 20][i]).min(n - 1);
                rows = checked_step(
                    &m,
                    &mut scratch,
                    (&rows, col),
                    Some(parents),
                    0,
                    to,
                    &mut next,
                );
                col = to;
            }
        }
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
        let rows = 6;
        let mut scratch = InferenceScratch::new();
        m.reserve_scratch(rows, &mut scratch);
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
        let reserved = addresses(&scratch);
        assert_eq!(reserved.len(), 6 + 4);
        // Narrow first, wide later; few rows first, all of them later; gathers and an
        // identity map; a first step at the last column (the widest slab) and the largest
        // domain.
        let identity: Vec<u32> = (0..rows as u32).collect();
        for (col, parents) in [
            (0, None),
            (1, Some(&[0u32, 0][..])),
            (3, Some(&[0, 1, 0, 1, 0, 1][..])),
            (3, Some(&identity[..])),
            (n - 1, None),
            (2, None),
        ] {
            let batch = parents.map_or(rows, <[u32]>::len);
            let batch = if col == 0 { 1 } else { batch };
            let tokens = vec![0u32; batch * n];
            m.conditional_probs_step(&tokens, col, parents, false, &mut scratch);
            assert_eq!(
                addresses(&scratch),
                reserved,
                "step (batch {batch}, col {col}) reallocated"
            );
        }
        // A second reservation within the first is free.
        m.reserve_scratch(rows, &mut scratch);
        assert_eq!(addresses(&scratch), reserved);
    }

    /// Mirror of `reserved_scratch_never_reallocates` for training: once a scratch has seen
    /// a full batch, no later step — a ragged batch, then a full one again — moves or grows
    /// any of its buffers.
    #[test]
    fn train_scratch_never_reallocates() {
        let mut m = make(vec![4, 3, 40, 5], 4);
        let n = m.num_columns();
        let mut adam = Adam::for_params(AdamConfig::default(), &m.params());
        let mut scratch = TrainScratch::new();
        let buffers = |s: &TrainScratch| -> Vec<(*const f32, usize)> {
            let matrices = [
                &s.x,
                &s.ctx,
                &s.dctx,
                &s.head_ctx,
                &s.head_dctx,
                &s.logits,
                &s.dlogits,
                &s.dh,
                &s.db,
                &s.da,
                &s.dh_branch,
                &s.dx,
                &s.wt,
            ];
            let acts = s.block_acts.iter().flat_map(|(a, b)| [a, b]);
            matrices
                .into_iter()
                .chain(&s.hiddens)
                .chain(acts)
                .map(|m| (m.data().as_ptr(), m.capacity()))
                .chain([(s.target_col.as_ptr().cast(), s.target_col.capacity())])
                .collect()
        };
        let mut after_first = Vec::new();
        for (step, batch) in (0..50).map(|step| (step, [128usize, 37, 128][step % 3])) {
            let tokens: Vec<u32> = (0..batch * n)
                .map(|i| ((i / n * 3 + i % n + step) % m.domain(i % n)) as u32)
                .collect();
            m.forward_backward(&tokens, &tokens, &mut scratch);
            adam.step(&mut m.params_mut());
            if step == 0 {
                after_first = buffers(&scratch);
            }
            assert_eq!(
                buffers(&scratch),
                after_first,
                "step {step} (batch {batch})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "autoregressive order")]
    fn step_rejects_a_column_behind_the_carried_prefix() {
        let m = make(vec![4, 3, 5], 8);
        let mut scratch = InferenceScratch::new();
        m.conditional_probs_into(&[0, 1, 2], 2, &mut scratch);
        m.conditional_probs_step(&[0, 1, 2], 1, Some(&[0]), false, &mut scratch);
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
                other.conditional_probs_step(&tokens, 2, Some(&[0]), false, &mut scratch);
            }));
            let message = continued.expect_err("continued another model's prefix");
            let message = message.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("belongs to another model"), "{message}");
            other.conditional_probs_step(&tokens, 2, None, false, &mut scratch);
            other.conditional_probs_step(&tokens, 2, Some(&[0]), false, &mut scratch);
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
