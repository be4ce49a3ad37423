//! Probabilistic inference: progressive sampling with schema subsetting (paper §3.2, §6).
//!
//! A query is turned into constraints over the wide full-join layout:
//!
//! * every filter becomes a valid region over the original column's dictionary codes,
//! * every **joined** table contributes the indicator constraint `1_T = 1`,
//! * every **omitted** table contributes a fanout column that must be *drawn* (not
//!   constrained) and divided out of the estimate (Eq. 9 of the paper).
//!
//! Progressive sampling then walks the model's sub-columns in autoregressive order.  For a
//! constrained column it multiplies the running weight by the in-region probability mass
//! and draws an in-region value to condition later columns on; unconstrained columns stay
//! at the MASK token (wildcard skipping), so only a handful of forward passes per query are
//! needed.  The final estimate is `|J| · mean(weight / fanout_product)`.
//!
//! # The inference fast path
//!
//! The hot loop is engineered around a reusable [`SamplerScratch`] so that steady-state
//! estimation performs no heap allocation:
//!
//! * sample tokens live in one flat `num_samples × n_model` buffer (no `Vec<Vec<u32>>`),
//! * model forwards write into a reused [`nc_nn::InferenceScratch`] via
//!   [`nc_nn::ResMade::conditional_probs_step`] (blocked GEMM kernels, single-column
//!   output head),
//! * the whole trunk is **prefix-incremental**: the scratch carries each forwarded row's
//!   input-layer pre-bias sums and every hidden unit whose degree is below the last
//!   forward's column, a class created by refinement names the row of the class it split
//!   from as its parent, and a forward embeds and multiplies only the columns drawn (or
//!   skipped as wildcards) since the previous forward and computes only the hidden units
//!   those columns reach,
//! * dead samples (weight 0) are compacted out after every wide column, so later columns
//!   run smaller forward batches,
//! * identical samples are **deduplicated**: a sample's token row is a pure function of
//!   its draw history, so the loop tracks row-equality classes incrementally (two samples
//!   stay in one class iff they have drawn the same digits so far) and forwards one
//!   representative row per class.  All samples start in a single class, and
//!   point-constraint columns (indicators, equality filters) never split classes, so most
//!   forward batches collapse to a handful of rows,
//! * in-region draws build a prefix-sum CDF once per row and binary-search it,
//! * the digit prefix needed by [`crate::Factorization::digit_range`] is a slice of the
//!   token buffer (sub-columns of a wide column are contiguous in model order).
//!
//! **Determinism contract:** for a fixed `(model, query, seed)` the fast path returns
//! *exactly* the estimate the original code returned.  Dead samples never consumed RNG
//! draws, compaction and dedup preserve sample order and row contents, the CDF
//! accumulates probabilities in the same order the linear scans did, and the blocked
//! kernels are bit-identical to the naive ones.  (One caveat: CDF binary search and the
//! linear scans' chained subtraction can round a ticket that lands within a few ULPs of
//! a region boundary to different codes — see `cdf_draw_masked` — so the contract is
//! pinned by fixed-seed tests over realized draws rather than proven universally.)  The
//! original path is kept as [`ProgressiveSampler::estimate_reference`] and the contract
//! is enforced by unit, integration and benchmark checks.

use rand::rngs::StdRng;
use rand::Rng;

use nc_nn::{InferenceScratch, ResMade};
use nc_schema::{JoinSchema, Query, SubsetPlan};
use nc_storage::Value;

use crate::encoding::EncodedLayout;

/// Why a query cannot be estimated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// The query failed [`Query::validate`] against the schema (unknown table,
    /// disconnected join graph, filter on an unjoined table, ...).
    InvalidQuery(String),
    /// A filter references a column the wide layout does not model (e.g. a raw join key
    /// when the estimator was built with `model_join_keys = false`).
    UnknownColumn {
        /// Table of the offending filter.
        table: String,
        /// Column of the offending filter.
        column: String,
    },
    /// A zero progressive-sample budget was requested.  A 0-sample Monte-Carlo estimate
    /// is undefined, so it is reported rather than silently replaced by 1 sample,
    /// mirroring the `train_tuples(0)` fix of PR 2.
    InvalidSampleCount,
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::InvalidQuery(msg) => write!(f, "{msg}"),
            EstimateError::UnknownColumn { table, column } => {
                write!(f, "filter references unknown column {table}.{column}")
            }
            EstimateError::InvalidSampleCount => {
                write!(f, "progressive-sample budget must be at least 1")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

/// Valid-region constraint attached to one wide column during inference.
#[derive(Debug, Clone, PartialEq)]
enum Constraint {
    /// Unconstrained: the column stays at the MASK token and is skipped entirely.
    Wildcard,
    /// Allowed set of original codes (used for unfactorized columns; supports `IN`).
    Mask(Vec<bool>),
    /// Allowed inclusive range of original codes (used for factorized columns).
    Range(u32, u32),
    /// The column must be drawn from the model and its decoded value divided out of the
    /// estimate (fanout columns of omitted tables).
    FanoutDraw,
    /// A filter matched nothing; the whole query has (near-)zero cardinality.
    Empty,
}

/// Reusable buffers of the progressive-sampling hot loop.
///
/// One scratch per serving thread; reuse it across queries via
/// [`ProgressiveSampler::try_estimate_with_scratch`].  All buffers grow on first use and are
/// then reused, so steady-state estimation allocates nothing; the ones whose size follows
/// the number of sample classes are reserved for the estimate's whole sample budget up
/// front, so a scratch's allocations do not depend on the order queries arrive in.
#[derive(Debug, Default)]
pub struct SamplerScratch {
    /// Model forward-pass buffers.
    nn: InferenceScratch,
    /// Flat `alive × n_model` token buffer (row-compacted as samples die).
    tokens: Vec<u32>,
    /// The all-MASK token row every sample starts from.
    mask_row: Vec<u32>,
    /// Per-sample running weights (compacted alongside `tokens`).
    weights: Vec<f64>,
    /// Per-sample fanout divisors (compacted alongside `tokens`).
    fanout_div: Vec<f64>,
    /// Prefix-sum CDF of the current draw region.
    cdf: Vec<f64>,
    /// Code indices allowed by the current `Mask` constraint.
    masked_idx: Vec<u32>,
    /// Row-equality class of each live sample (samples with identical draw histories —
    /// hence identical token rows — share a class).
    classes: Vec<u32>,
    /// One representative token row per class: the forward batch.
    class_tokens: Vec<u32>,
    /// Whether a representative row has been gathered for each class yet.
    class_seen: Vec<bool>,
    /// `(old class, drawn digit) → new class` refinement map.
    class_map: std::collections::HashMap<(u32, u32), u32>,
    /// Class renumbering used when compaction leaves id gaps.
    renumber: Vec<u32>,
    /// For each class, the row of the previous forward batch it descends from (whose
    /// carried prefix its next forward continues).
    class_parent: Vec<u32>,
    /// `class_parent` being rebuilt under compaction's renumbering.
    class_parent_next: Vec<u32>,
    /// What the last estimate's forwards cost.
    counters: ForwardCounters,
}

/// Work counters of one estimate's model forwards (plain counts, no clock).
///
/// `columns_embedded / rows_forwarded` is the mean number of columns a forwarded row had
/// to embed and multiply through the input layer; a forward that carried no prefix would
/// pay the model's full column count for every row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardCounters {
    /// Model forwards (one per constrained sub-column reached by a live sample).
    pub forwards: u64,
    /// Rows over all forwards (one per row-equality class).
    pub rows_forwarded: u64,
    /// Token embeddings looked up over all forwards.
    pub columns_embedded: u64,
    /// Product terms the residual blocks' new-unit kernels walked over all forwards: per
    /// block layer, rows × hidden units computed × live inner units read, zero activations
    /// included ([`nc_nn::InferenceScratch::block_terms`]).  A forward blind to the masks
    /// and to the carried prefix walks `rows_forwarded × 2·num_blocks·d_hidden²`.
    pub block_terms: u64,
}

impl SamplerScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SamplerScratch::default()
    }

    /// Forward-pass counters of the last estimate run on this scratch (all zero when it
    /// was answered without sampling).
    pub fn last_estimate(&self) -> ForwardCounters {
        self.counters
    }
}

/// Progressive-sampling estimator over a trained model.
pub struct ProgressiveSampler<'a> {
    model: &'a ResMade,
    encoded: &'a EncodedLayout,
    schema: &'a JoinSchema,
    full_join_rows: f64,
}

impl<'a> ProgressiveSampler<'a> {
    /// Creates an inference engine over a trained model.
    pub fn new(
        model: &'a ResMade,
        encoded: &'a EncodedLayout,
        schema: &'a JoinSchema,
        full_join_rows: u128,
    ) -> Self {
        ProgressiveSampler {
            model,
            encoded,
            schema,
            full_join_rows: full_join_rows as f64,
        }
    }

    /// Estimates the cardinality of `query` using `num_samples` progressive samples —
    /// the one fast-path entry point; every caller supplies the scratch buffers (zero
    /// allocations in steady state).
    ///
    /// The returned estimate is lower-bounded by 1 row, mirroring the paper's Q-error
    /// convention.  A zero sample budget is [`EstimateError::InvalidSampleCount`]: a
    /// 0-sample estimate is not an estimate, and silently substituting one sample hid
    /// caller bugs.
    pub fn try_estimate_with_scratch(
        &self,
        query: &Query,
        num_samples: usize,
        rng: &mut StdRng,
        scratch: &mut SamplerScratch,
    ) -> Result<f64, EstimateError> {
        scratch.counters = ForwardCounters::default();
        if num_samples == 0 {
            return Err(EstimateError::InvalidSampleCount);
        }
        query
            .validate(self.schema)
            .map_err(|e| EstimateError::InvalidQuery(format!("invalid query {query}: {e}")))?;
        let constraints = match self.build_constraints(query)? {
            Some(c) => c,
            None => return Ok(1.0), // a filter literal matched nothing
        };
        let selectivity = self.selectivity(&constraints, num_samples, rng, scratch);
        Ok((self.full_join_rows * selectivity).max(1.0))
    }

    /// The pre-fast-path estimation code, kept verbatim as the determinism baseline: a
    /// test oracle with no production caller.  The `inference_fastpath` integration test
    /// asserts the fast path returns bit-identical estimates.
    pub fn estimate_reference(&self, query: &Query, num_samples: usize, rng: &mut StdRng) -> f64 {
        query
            .validate(self.schema)
            .unwrap_or_else(|e| panic!("invalid query {query}: {e}"));
        let constraints = match self
            .build_constraints(query)
            .unwrap_or_else(|e| panic!("{e}"))
        {
            Some(c) => c,
            None => return 1.0,
        };
        let selectivity = self.selectivity_reference(&constraints, num_samples.max(1), rng);
        (self.full_join_rows * selectivity).max(1.0)
    }

    /// Builds per-wide-column constraints; `Ok(None)` means some filter is unsatisfiable.
    fn build_constraints(&self, query: &Query) -> Result<Option<Vec<Constraint>>, EstimateError> {
        let layout = self.encoded.layout();
        let mut constraints = vec![Constraint::Wildcard; layout.len()];

        // 1. Filters.
        for filter in &query.filters {
            let idx = layout
                .index_of(&filter.table, &filter.column)
                .ok_or_else(|| EstimateError::UnknownColumn {
                    table: filter.table.clone(),
                    column: filter.column.clone(),
                })?;
            let dict = self.encoded.dictionary(idx);
            let matching = dict.codes_matching(|v| filter.predicate.matches(v));
            if matching.is_empty() {
                return Ok(None);
            }
            let fact = self.encoded.factorization(idx);
            let new = if fact.is_factorized() {
                // Range predicates produce contiguous codes because the dictionary is
                // order-preserving; for safety the contiguous hull is used otherwise.
                Constraint::Range(matching[0], *matching.last().expect("non-empty"))
            } else {
                let mut mask = vec![false; dict.domain_size()];
                for c in &matching {
                    mask[*c as usize] = true;
                }
                Constraint::Mask(mask)
            };
            constraints[idx] = intersect(&constraints[idx], &new);
            if constraints[idx] == Constraint::Empty {
                return Ok(None);
            }
        }

        // 2. Indicator constraints for joined tables.
        let plan = SubsetPlan::build(self.schema, query);
        for table in &plan.joined_tables {
            let idx = layout
                .indicator_index(table)
                .expect("every schema table has an indicator column");
            let code = self
                .encoded
                .dictionary(idx)
                .encode(&Value::Int(1))
                .expect("indicator 1");
            constraints[idx] = Constraint::Range(code, code);
        }

        // 3. Fanout draws for omitted tables.
        for (_, key) in plan.downscales() {
            let idx = layout
                .fanout_index(key)
                .expect("every join key has a fanout column");
            constraints[idx] = Constraint::FanoutDraw;
        }

        Ok(Some(constraints))
    }

    /// Monte-Carlo selectivity of the constraint set under the learned distribution.
    ///
    /// Zero-allocation hot loop; see the module docs for the fast-path design and the
    /// determinism argument.
    fn selectivity(
        &self,
        constraints: &[Constraint],
        num_samples: usize,
        rng: &mut StdRng,
        scratch: &mut SamplerScratch,
    ) -> f64 {
        let n_model = self.encoded.num_model_columns();
        let SamplerScratch {
            nn,
            tokens,
            mask_row,
            weights,
            fanout_div,
            cdf,
            masked_idx,
            classes,
            class_tokens,
            class_seen,
            class_map,
            renumber,
            class_parent,
            class_parent_next,
            counters,
        } = scratch;

        // No forward batch exceeds one row per sample.  Sizing the buffers whose length
        // follows the class count here, once, keeps what a scratch allocates independent
        // of the order queries arrive in (see `ResMade::reserve_scratch`).
        self.model.reserve_scratch(num_samples, nn);
        class_tokens.reserve_exact((num_samples * n_model).saturating_sub(class_tokens.len()));

        // Every progressive sample starts as the all-wildcard tuple.
        mask_row.clear();
        mask_row.extend((0..n_model).map(|j| self.model.mask_token(j)));
        tokens.clear();
        for _ in 0..num_samples {
            tokens.extend_from_slice(mask_row);
        }
        weights.clear();
        weights.resize(num_samples, 1.0f64);
        fanout_div.clear();
        fanout_div.resize(num_samples, 1.0f64);
        // Rows `0..alive` of the buffers hold the surviving samples, in their original
        // relative order (so the RNG consumption order matches the uncompacted loop:
        // dead samples never drew anything to begin with).
        let mut alive = num_samples;
        // All samples start with identical (all-MASK) rows: one equality class.  A
        // sample's row is a pure function of its draw history, so classes refine exactly
        // when drawn digits differ; the forward batch is one representative per class.
        classes.clear();
        classes.resize(num_samples, 0u32);
        let mut n_classes = 1usize;
        // The first forward starts from the empty prefix (whatever an earlier estimate,
        // or another model, left in `nn` is overwritten); every later one continues the
        // rows named by `class_parent`.
        let mut forwarded = false;

        for (wide_idx, constraint) in constraints.iter().enumerate() {
            if matches!(constraint, Constraint::Wildcard) {
                continue;
            }
            if alive == 0 {
                // Every sample is dead; no further column can consume RNG draws.
                break;
            }
            let fact = self.encoded.factorization(wide_idx);
            let subcols = self.encoded.subcolumns_of(wide_idx);
            let sub0 = subcols[0];
            if let Constraint::Mask(mask) = constraint {
                masked_idx.clear();
                masked_idx.extend(
                    mask.iter()
                        .enumerate()
                        .filter(|(_, m)| **m)
                        .map(|(i, _)| i as u32),
                );
            }

            for (sub_idx, &model_col) in subcols.iter().enumerate() {
                // Sub-columns of one wide column are contiguous in model order; the
                // digit prefix for `digit_range` is then a slice of the token row.
                debug_assert_eq!(model_col, sub0 + sub_idx);

                // Gather one representative token row per class.  Dead samples are
                // skipped: a sample that died mid-column has no digit for the position
                // its classmates drew, so its row has diverged from the class.  (A class
                // whose members all died keeps a zero row and is simply never read.)
                class_tokens.clear();
                class_tokens.resize(n_classes * n_model, 0u32);
                class_seen.clear();
                class_seen.resize(n_classes, false);
                for s in 0..alive {
                    if weights[s] == 0.0 {
                        continue;
                    }
                    let c = classes[s] as usize;
                    if !class_seen[c] {
                        class_seen[c] = true;
                        class_tokens[c * n_model..(c + 1) * n_model]
                            .copy_from_slice(&tokens[s * n_model..(s + 1) * n_model]);
                    }
                }
                // The ONLY model-forward call site of the hot loop.
                let probs = self.model.conditional_probs_step(
                    &class_tokens[..n_classes * n_model],
                    model_col,
                    forwarded.then(|| &class_parent[..n_classes]),
                    nn,
                );
                forwarded = true;
                counters.forwards += 1;
                counters.rows_forwarded += n_classes as u64;
                let domain = self.model.domain(model_col);
                for s in 0..alive {
                    if weights[s] == 0.0 {
                        // Died at an earlier sub-column of this wide column; consumes no
                        // draws (compaction only happens between wide columns).
                        continue;
                    }
                    let row = probs.row(classes[s] as usize);
                    let (mass, digit) = match constraint {
                        Constraint::Mask(_) => cdf_draw_masked(row, masked_idx, cdf, rng),
                        Constraint::Range(lo, hi) => {
                            let prefix = &tokens[s * n_model + sub0..s * n_model + model_col];
                            let (dlo, dhi) = fact.digit_range(*lo, *hi, prefix, sub_idx);
                            cdf_draw_range(row, dlo as usize, dhi as usize, cdf, rng)
                        }
                        Constraint::FanoutDraw => {
                            // Unconstrained draw from the model's conditional.
                            let (_, digit) = cdf_draw_range(row, 0, domain - 1, cdf, rng);
                            (1.0, digit)
                        }
                        Constraint::Wildcard | Constraint::Empty => unreachable!(),
                    };
                    if mass <= 0.0 {
                        weights[s] = 0.0;
                        continue;
                    }
                    if !matches!(constraint, Constraint::FanoutDraw) {
                        weights[s] *= mass;
                    }
                    tokens[s * n_model + model_col] = digit;
                }
                counters.columns_embedded += nn.embedded_columns() as u64;
                counters.block_terms += nn.block_terms();

                // Refine classes by the digit just drawn: samples remain classmates iff
                // they were classmates and drew the same digit.  Dead samples keep stale
                // ids; they are skipped everywhere until compaction drops them.
                // A new class continues the forward row of the class it split from.
                class_map.clear();
                class_parent.clear();
                for s in 0..alive {
                    if weights[s] == 0.0 {
                        continue;
                    }
                    let key = (classes[s], tokens[s * n_model + model_col]);
                    let id = *class_map.entry(key).or_insert_with(|| {
                        class_parent.push(classes[s]);
                        class_parent.len() as u32 - 1
                    });
                    classes[s] = id;
                }
                if class_parent.is_empty() {
                    // Every sample died: the one placeholder row is never read.
                    class_parent.push(0);
                }
                n_classes = class_parent.len();
            }

            if matches!(constraint, Constraint::FanoutDraw) {
                for s in 0..alive {
                    if weights[s] == 0.0 {
                        continue;
                    }
                    let digits = &tokens[s * n_model + sub0..s * n_model + sub0 + subcols.len()];
                    let value = self.encoded.decode_wide(wide_idx, digits);
                    fanout_div[s] *= fanout_multiplier(&value);
                }
            }

            // Compact dead samples out so the next wide column runs a smaller forward
            // batch, renumbering classes densely (each class's parent row moves with it).
            // Relative order is preserved, keeping the RNG stream identical.
            renumber.clear();
            renumber.resize(n_classes, u32::MAX);
            class_parent_next.clear();
            let mut live = 0;
            for s in 0..alive {
                if weights[s] > 0.0 {
                    let c = classes[s] as usize;
                    if renumber[c] == u32::MAX {
                        renumber[c] = class_parent_next.len() as u32;
                        class_parent_next.push(class_parent[c]);
                    }
                    classes[live] = renumber[c];
                    if live != s {
                        tokens.copy_within(s * n_model..(s + 1) * n_model, live * n_model);
                        weights[live] = weights[s];
                        fanout_div[live] = fanout_div[s];
                    }
                    live += 1;
                }
            }
            alive = live;
            std::mem::swap(class_parent, class_parent_next);
            n_classes = class_parent.len();
        }

        // Dead samples contribute exactly +0.0 to the sum, so summing only the survivors
        // (still in original order) is bit-identical to the uncompacted sum.
        let total: f64 = weights[..alive]
            .iter()
            .zip(&fanout_div[..alive])
            .map(|(w, f)| w / f)
            .sum();
        total / num_samples as f64
    }

    /// The pre-fast-path selectivity loop, verbatim: per-sample `Vec` tokens, full-batch
    /// forwards, per-draw `prefix` allocation, linear-scan draws.
    fn selectivity_reference(
        &self,
        constraints: &[Constraint],
        num_samples: usize,
        rng: &mut StdRng,
    ) -> f64 {
        let n_model = self.encoded.num_model_columns();
        let mut tokens: Vec<Vec<u32>> = (0..num_samples)
            .map(|_| (0..n_model).map(|j| self.model.mask_token(j)).collect())
            .collect();
        let mut weights = vec![1.0f64; num_samples];
        let mut fanout_div = vec![1.0f64; num_samples];

        for (wide_idx, constraint) in constraints.iter().enumerate() {
            if matches!(constraint, Constraint::Wildcard) {
                continue;
            }
            let fact = self.encoded.factorization(wide_idx);
            let subcols = self.encoded.subcolumns_of(wide_idx);

            for (sub_idx, &model_col) in subcols.iter().enumerate() {
                let probs = self.model.conditional_probs_reference(&tokens, model_col);
                let domain = self.model.domain(model_col);
                for s in 0..num_samples {
                    if weights[s] == 0.0 {
                        continue;
                    }
                    let row = probs.row(s);
                    let prefix: Vec<u32> =
                        subcols[..sub_idx].iter().map(|&j| tokens[s][j]).collect();
                    let (mass, digit) = match constraint {
                        Constraint::Mask(mask) => draw_masked(row, mask, rng),
                        Constraint::Range(lo, hi) => {
                            let (dlo, dhi) = fact.digit_range(*lo, *hi, &prefix, sub_idx);
                            draw_range(row, dlo as usize, dhi as usize, rng)
                        }
                        Constraint::FanoutDraw => {
                            let (_, digit) = draw_range(row, 0, domain - 1, rng);
                            (1.0, digit)
                        }
                        Constraint::Wildcard | Constraint::Empty => unreachable!(),
                    };
                    if mass <= 0.0 {
                        weights[s] = 0.0;
                        continue;
                    }
                    if !matches!(constraint, Constraint::FanoutDraw) {
                        weights[s] *= mass;
                    }
                    tokens[s][model_col] = digit;
                }
            }

            if matches!(constraint, Constraint::FanoutDraw) {
                for s in 0..num_samples {
                    if weights[s] == 0.0 {
                        continue;
                    }
                    let digits: Vec<u32> = subcols.iter().map(|&j| tokens[s][j]).collect();
                    let value = self.encoded.decode_wide(wide_idx, &digits);
                    fanout_div[s] *= fanout_multiplier(&value);
                }
            }
        }

        let total: f64 = weights.iter().zip(&fanout_div).map(|(w, f)| w / f).sum();
        total / num_samples as f64
    }
}

/// The downscaling factor a drawn fanout-column value contributes (Eq. 9 of the paper).
///
/// Fanout dictionaries are built from integer occurrence counts plus the NULL code, so a
/// model draw decodes to either `Value::Int` or — when the model puts (untrained,
/// near-zero) mass on the NULL token — `Value::Null`, which divides by 1 like the ⊥-row
/// convention.  Any *other* value type means the wide index passed here was not a fanout
/// column, i.e. an encoding-layout bug; the old `as_int().unwrap_or(1)` silently coerced
/// that to fanout 1 and masked the bug, so it is now a debug assertion (with the same
/// neutral fallback in release builds, where aborting an estimate would be worse than a
/// conservative answer).
fn fanout_multiplier(value: &Value) -> f64 {
    match value {
        Value::Null => 1.0,
        other => match other.as_int() {
            Some(f) => f.max(1) as f64,
            None => {
                debug_assert!(
                    false,
                    "fanout column decoded to non-integer {other:?}; the wide index does \
                     not refer to a fanout column"
                );
                1.0
            }
        },
    }
}

/// Intersects two constraints on the same wide column.
fn intersect(a: &Constraint, b: &Constraint) -> Constraint {
    match (a, b) {
        (Constraint::Wildcard, other) | (other, Constraint::Wildcard) => other.clone(),
        (Constraint::Mask(x), Constraint::Mask(y)) => {
            let merged: Vec<bool> = x.iter().zip(y).map(|(p, q)| *p && *q).collect();
            if merged.iter().any(|m| *m) {
                Constraint::Mask(merged)
            } else {
                Constraint::Empty
            }
        }
        (Constraint::Range(a_lo, a_hi), Constraint::Range(b_lo, b_hi)) => {
            let lo = *a_lo.max(b_lo);
            let hi = *a_hi.min(b_hi);
            if lo <= hi {
                Constraint::Range(lo, hi)
            } else {
                Constraint::Empty
            }
        }
        // Mixed kinds cannot occur (the kind is decided per column by its factorization),
        // but degrade gracefully to the more restrictive operand.
        (Constraint::Empty, _) | (_, Constraint::Empty) => Constraint::Empty,
        (x, _) => x.clone(),
    }
}

/// In-mask probability mass and a sampled in-mask code, from one probability row.
///
/// Linear-scan reference implementation; [`cdf_draw_masked`] is the fast path and must
/// consume the same RNG draw and return the same `(mass, code)`.
fn draw_masked(probs: &[f32], mask: &[bool], rng: &mut StdRng) -> (f64, u32) {
    let mut mass = 0.0f64;
    for (p, m) in probs.iter().zip(mask) {
        if *m {
            mass += f64::from(*p);
        }
    }
    if mass <= 0.0 {
        let fallback = mask.iter().position(|m| *m).unwrap_or(0);
        return (0.0, fallback as u32);
    }
    let mut ticket = rng.random::<f64>() * mass;
    for (i, (p, m)) in probs.iter().zip(mask).enumerate() {
        if *m {
            ticket -= f64::from(*p);
            if ticket <= 0.0 {
                return (mass, i as u32);
            }
        }
    }
    let last = mask.iter().rposition(|m| *m).unwrap_or(0);
    (mass, last as u32)
}

/// In-range probability mass and a sampled in-range code (linear-scan reference for
/// [`cdf_draw_range`]).
fn draw_range(probs: &[f32], lo: usize, hi: usize, rng: &mut StdRng) -> (f64, u32) {
    let hi = hi.min(probs.len().saturating_sub(1));
    if lo > hi {
        return (0.0, lo as u32);
    }
    let slice = &probs[lo..=hi];
    let mass: f64 = slice.iter().map(|p| f64::from(*p)).sum();
    if mass <= 0.0 {
        return (0.0, lo as u32);
    }
    let mut ticket = rng.random::<f64>() * mass;
    for (i, p) in slice.iter().enumerate() {
        ticket -= f64::from(*p);
        if ticket <= 0.0 {
            return (mass, (lo + i) as u32);
        }
    }
    (mass, hi as u32)
}

/// [`draw_masked`] via a prefix-sum CDF over the allowed indices plus one binary search.
///
/// The CDF accumulates `f64::from(probs[i])` over `masked_idx` in ascending order —
/// exactly the accumulation order of the linear scan — so the total **mass** (which
/// enters the estimate) is bit-identical.  The selected code matches the scan's "first
/// index where the remaining ticket drops to ≤ 0" rule via `cdf[i] ≥ ticket` ⇔
/// `ticket − Σ₀..ᵢ ≤ 0`.  That equivalence is exact in real arithmetic but not in IEEE
/// arithmetic: the scan's chained `fl(…fl(ticket − p₀)… − pᵢ)` and the CDF's
/// `fl(p₀ + … + pᵢ)` round differently, so a ticket landing within a few ULPs of a
/// boundary can in principle resolve to a different code (probability on the order of
/// 1e-15 per draw).  The determinism contract is therefore pinned by fixed-seed tests
/// over the *realized* draw sequences (`cdf_draws_equal_linear_scans_in_lockstep` and the
/// `inference_fastpath` integration test), not by a claim of universal tie-breaking
/// equality.
fn cdf_draw_masked(
    probs: &[f32],
    masked_idx: &[u32],
    cdf: &mut Vec<f64>,
    rng: &mut StdRng,
) -> (f64, u32) {
    debug_assert!(masked_idx
        .last()
        .is_none_or(|&i| (i as usize) < probs.len()));
    cdf.clear();
    let mut acc = 0.0f64;
    for &i in masked_idx {
        acc += f64::from(probs[i as usize]);
        cdf.push(acc);
    }
    let mass = acc;
    if mass <= 0.0 {
        return (0.0, masked_idx.first().copied().unwrap_or(0));
    }
    let ticket = rng.random::<f64>() * mass;
    let pos = cdf
        .partition_point(|&c| c < ticket)
        .min(masked_idx.len() - 1);
    (mass, masked_idx[pos])
}

/// [`draw_range`] via a prefix-sum CDF plus one binary search (same equivalence argument
/// as [`cdf_draw_masked`]).
fn cdf_draw_range(
    probs: &[f32],
    lo: usize,
    hi: usize,
    cdf: &mut Vec<f64>,
    rng: &mut StdRng,
) -> (f64, u32) {
    let hi = hi.min(probs.len().saturating_sub(1));
    if lo > hi {
        return (0.0, lo as u32);
    }
    cdf.clear();
    let mut acc = 0.0f64;
    for p in &probs[lo..=hi] {
        acc += f64::from(*p);
        cdf.push(acc);
    }
    let mass = acc;
    if mass <= 0.0 {
        return (0.0, lo as u32);
    }
    let ticket = rng.random::<f64>() * mass;
    let pos = cdf.partition_point(|&c| c < ticket).min(cdf.len() - 1);
    (mass, (lo + pos) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fanout_multiplier_handles_int_null_and_floor() {
        assert_eq!(fanout_multiplier(&Value::Int(7)), 7.0);
        // Fanouts below 1 (impossible in a well-formed dictionary, but cheap to floor)
        // must never *inflate* the estimate through division.
        assert_eq!(fanout_multiplier(&Value::Int(0)), 1.0);
        assert_eq!(fanout_multiplier(&Value::Int(-3)), 1.0);
        // The NULL token is reachable: FanoutDraw samples the model's full conditional,
        // which includes the (untrained) NULL code.  It divides by 1, like ⊥ rows.
        assert_eq!(fanout_multiplier(&Value::Null), 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-integer")]
    fn fanout_multiplier_rejects_non_integer_values() {
        // Regression: `as_int().unwrap_or(1)` used to coerce a string — i.e. a wide index
        // that is not a fanout column at all — to fanout 1, masking encoding bugs.
        fanout_multiplier(&Value::from("oops"));
    }

    #[test]
    fn intersect_rules() {
        let w = Constraint::Wildcard;
        let r = Constraint::Range(2, 5);
        assert_eq!(intersect(&w, &r), r);
        assert_eq!(intersect(&r, &w), r);
        assert_eq!(
            intersect(&Constraint::Range(2, 5), &Constraint::Range(4, 9)),
            Constraint::Range(4, 5)
        );
        assert_eq!(
            intersect(&Constraint::Range(2, 3), &Constraint::Range(5, 9)),
            Constraint::Empty
        );
        let m1 = Constraint::Mask(vec![false, true, true]);
        let m2 = Constraint::Mask(vec![false, true, false]);
        assert_eq!(
            intersect(&m1, &m2),
            Constraint::Mask(vec![false, true, false])
        );
        let m3 = Constraint::Mask(vec![true, false, false]);
        assert_eq!(intersect(&m1, &m3), Constraint::Empty);
        assert_eq!(intersect(&Constraint::Empty, &m1), Constraint::Empty);
    }

    #[test]
    fn draw_helpers_respect_regions() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = vec![0.1f32, 0.2, 0.3, 0.4];
        for _ in 0..200 {
            let (mass, code) = draw_range(&probs, 1, 2, &mut rng);
            assert!((mass - 0.5).abs() < 1e-6);
            assert!(code == 1 || code == 2);
            let (mass, code) = draw_masked(&probs, &[true, false, false, true], &mut rng);
            assert!((mass - 0.5).abs() < 1e-6);
            assert!(code == 0 || code == 3);
        }
        // Degenerate cases.
        let (mass, _) = draw_range(&probs, 3, 1, &mut rng);
        assert_eq!(mass, 0.0);
        let (mass, code) = draw_masked(&[0.0, 0.0], &[false, true], &mut rng);
        assert_eq!(mass, 0.0);
        assert_eq!(code, 1);
    }

    /// Deterministic pseudo-random probability row; includes exact zeros so draws hit
    /// zero-mass prefixes and suffixes.
    fn lcg_probs(len: usize, seed: &mut u64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (*seed >> 40) & 0x7 == 0 {
                    0.0
                } else {
                    ((*seed >> 33) as f32) / (1u64 << 32) as f32
                }
            })
            .collect()
    }

    #[test]
    fn cdf_draws_equal_linear_scans_in_lockstep() {
        // Two RNGs seeded identically: the CDF draws must return the same (mass, code)
        // AND consume exactly one f64 per live draw, keeping the streams in lockstep.
        let mut seed = 0xC0FFEE_u64;
        for trial in 0..300u64 {
            let len = 2 + (trial as usize % 37);
            let probs = lcg_probs(len, &mut seed);
            let lo = (trial as usize * 7) % len;
            let hi = lo + (trial as usize * 13) % (len - lo).max(1);
            let mask: Vec<bool> = (0..len)
                .map(|i| !(i as u64 + trial).is_multiple_of(3))
                .collect();
            let masked_idx: Vec<u32> = mask
                .iter()
                .enumerate()
                .filter(|(_, m)| **m)
                .map(|(i, _)| i as u32)
                .collect();

            let mut rng_a = StdRng::seed_from_u64(trial);
            let mut rng_b = StdRng::seed_from_u64(trial);
            let mut cdf = Vec::new();
            for _ in 0..4 {
                let lin = draw_range(&probs, lo, hi, &mut rng_a);
                let fast = cdf_draw_range(&probs, lo, hi, &mut cdf, &mut rng_b);
                assert_eq!(
                    lin.0.to_bits(),
                    fast.0.to_bits(),
                    "range mass, trial {trial}"
                );
                assert_eq!(lin.1, fast.1, "range code, trial {trial}");
                let lin = draw_masked(&probs, &mask, &mut rng_a);
                let fast = cdf_draw_masked(&probs, &masked_idx, &mut cdf, &mut rng_b);
                assert_eq!(
                    lin.0.to_bits(),
                    fast.0.to_bits(),
                    "mask mass, trial {trial}"
                );
                assert_eq!(lin.1, fast.1, "mask code, trial {trial}");
            }
            // Streams still aligned after all draws.
            assert_eq!(
                rng_a.random::<f64>(),
                rng_b.random::<f64>(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn cdf_draw_boundaries_and_zero_mass_fallbacks() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cdf = Vec::new();
        let probs = vec![0.0f32, 0.25, 0.0, 0.75, 0.0];

        // Mass correctness at range boundaries, including clamping past the end.
        let (mass, code) = cdf_draw_range(&probs, 1, 3, &mut cdf, &mut rng);
        assert_eq!(mass, 1.0);
        assert!(
            code == 1 || code == 3,
            "zero-probability codes are never drawn"
        );
        let (mass, _) = cdf_draw_range(&probs, 3, 99, &mut cdf, &mut rng);
        assert!((mass - 0.75).abs() < 1e-12);
        // Inverted and zero-mass ranges consume no RNG draws and fall back to `lo`.
        let mut rng_probe = rng.clone();
        assert_eq!(cdf_draw_range(&probs, 4, 2, &mut cdf, &mut rng), (0.0, 4));
        assert_eq!(cdf_draw_range(&probs, 4, 4, &mut cdf, &mut rng), (0.0, 4));
        assert_eq!(cdf_draw_range(&probs, 2, 2, &mut cdf, &mut rng), (0.0, 2));
        assert_eq!(rng.random::<f64>(), rng_probe.random::<f64>());

        // Masked boundaries: mass only over allowed indices; zero-mass masks fall back to
        // the first allowed index without consuming a draw.
        let (mass, code) = cdf_draw_masked(&probs, &[1, 3], &mut cdf, &mut rng);
        assert_eq!(mass, 1.0);
        assert!(code == 1 || code == 3);
        let mut rng_probe = rng.clone();
        assert_eq!(
            cdf_draw_masked(&probs, &[0, 2, 4], &mut cdf, &mut rng),
            (0.0, 0)
        );
        assert_eq!(cdf_draw_masked(&probs, &[], &mut cdf, &mut rng), (0.0, 0));
        assert_eq!(rng.random::<f64>(), rng_probe.random::<f64>());
    }

    #[test]
    fn estimate_error_display() {
        let e = EstimateError::UnknownColumn {
            table: "t".into(),
            column: "c".into(),
        };
        assert_eq!(e.to_string(), "filter references unknown column t.c");
        let e = EstimateError::InvalidQuery("invalid query q: boom".into());
        assert!(e.to_string().contains("boom"));
        assert!(EstimateError::InvalidSampleCount
            .to_string()
            .contains("at least 1"));
    }
}
