//! Dense `f32` matrices and the matrix kernels used by the model.
//!
//! The matrices are row-major `Vec<f32>`s.  The GEMM kernels use an `i-k-j` loop order so
//! the inner loop walks both operands contiguously, which LLVM auto-vectorises; this is
//! plenty for the model sizes involved (a few hundred units per layer).
//!
//! Every kernel here gives each output element **one chain of f32 additions in ascending
//! inner index** from `+0.0` (or from `out`), whatever its register blocking.  The naive
//! loops and training's row kernels (`matmul_blocked`, `gemm_tn_acc`) skip a zero left
//! factor; every live-unit product runs on one register tile (`units_tile`) that adds it,
//! and an added `±0.0 · w` with a finite `w` changes no bit, since a chain from `+0.0` is
//! never `−0.0` under round-to-nearest.  So a blocked kernel is bit-equal to the naive loop
//! it stands in for, and inference and training results do not depend on which one ran.

use std::ops::Range;

/// A dense row-major `f32` matrix (`0 × 0` by default).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row-major data.  Panics if the length does not match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Elements the allocation holds without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Sets every element to zero (reuses the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Asks for capacity so that a later [`Matrix::resize`] up to `rows × cols` does not
    /// reallocate.  Shape and contents are untouched, and so are the reserved pages until
    /// a resize uses them.  Best effort: if the allocator refuses, the buffer keeps
    /// growing on demand as it did before.
    pub fn reserve(&mut self, rows: usize, cols: usize) {
        let additional = rows.saturating_mul(cols).saturating_sub(self.data.len());
        let _ = self.data.try_reserve_exact(additional);
    }

    /// Reshapes to `rows × cols`, reusing the existing allocation when it is large
    /// enough.  This is what lets the inference scratch buffers survive across calls with
    /// varying batch sizes without ever re-allocating.
    ///
    /// **Contents are unspecified after a resize** (stale values may remain; only newly
    /// grown capacity is zero).  Every kernel that writes a whole resized buffer
    /// (`matmul_blocked`, `gemm_nt`, the column slices of `matmul_col_range_live` and
    /// `gemm_narrow`, embedding lookups, row-wise softmax) overwrites it fully, which is
    /// what makes skipping the memset safe; the runs kernels write only their runs, and
    /// `matmul_runs_acc` resumes them — use [`Matrix::fill_zero`] first if zeroes are needed.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let len = rows * cols;
        if len <= self.data.len() {
            self.data.truncate(len);
        } else {
            self.data.resize(len, 0.0);
        }
    }
}

/// `out = a (m×k) · b (k×n)`, overwriting `out` (m×n): the naive loop, skipping zero `a`
/// entries, that every kernel here is pinned against.
pub fn matmul(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!(out.rows, a.rows);
    assert_eq!(out.cols, b.cols);
    out.fill_zero();
    let (m, k, n) = (a.rows, a.cols, b.cols);
    for i in 0..m {
        let a_row = &a.data[i * k..(i + 1) * k];
        let out_row = &mut out.data[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b.data[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * b_pj;
            }
        }
    }
}

/// Which units of a MADE hidden layer one step of the inference forward has to look at.
///
/// Hidden unit `u` carries the degree `u % period`; the unit is **live** when its degree
/// is below `degrees`.  A step for column `col` passes `degrees = col`: the output mask
/// lets only units of degree `< col` into that column's context, and the hidden mask lets
/// a unit hear only from units of degree `<=` its own, so every weight a restricted kernel
/// leaves out is a masked, exactly-zero entry.  Units outside the live set are never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveUnits {
    period: usize,
    degrees: usize,
}

impl LiveUnits {
    /// One degree, and it is live: every unit is read and hears from every unit.  The
    /// dense kernels are the restricted ones at this value.
    pub const ALL: LiveUnits = LiveUnits {
        period: 1,
        degrees: 1,
    };

    /// Units of degree `u % period` below `degrees` (`degrees <= period`, `period >= 1`).
    pub fn new(period: usize, degrees: usize) -> Self {
        assert!(
            period >= 1 && degrees <= period,
            "live degrees {degrees} outside the period {period}"
        );
        LiveUnits { period, degrees }
    }

    /// Whether `unit` is in the live set.
    pub fn contains(self, unit: usize) -> bool {
        unit % self.period < self.degrees
    }

    /// The live units below `k`, as ascending runs of indices.
    pub(crate) fn runs(self, k: usize) -> impl Iterator<Item = Range<usize>> {
        let (stride, len) = if self.degrees >= self.period {
            (k.max(1), k)
        } else {
            (self.period, self.degrees)
        };
        (0..k)
            .step_by(stride)
            .map(move |start| start..(start + len).min(k))
    }

    /// The units below `k` live here but not under the first `before` degrees — those of
    /// degree in `before..degrees`, one run per period — each run widened outward to
    /// multiples of `align` (clamped to `k`), and runs that then touch merged.  A widened
    /// run also covers units of degree `< before` or `>= degrees`.
    pub(crate) fn added_since(
        self,
        before: usize,
        k: usize,
        align: usize,
    ) -> impl Iterator<Item = Range<usize>> {
        assert!(before <= self.degrees && align >= 1);
        let degrees = self.degrees;
        let mut widened = (0..k)
            .step_by(self.period)
            .filter_map(move |q| {
                let (start, end) = (q + before, (q + degrees).min(k));
                (start < end).then(|| start / align * align..(end.div_ceil(align) * align).min(k))
            })
            .peekable();
        std::iter::from_fn(move || {
            let mut run = widened.next()?;
            while let Some(next) = widened.next_if(|next| next.start <= run.end) {
                run.end = next.end;
            }
            Some(run)
        })
    }
}

/// The connectivity mask of one masked layer of a MADE (paper §3.4), as a rule evaluated
/// on demand instead of a dense 0/1 matrix.
///
/// With `P` = `period`, hidden unit `u` carries the round-robin degree `deg(u) = u % P`
/// — it may depend on columns `<= deg(u)` and feed columns `> deg(u)` — and embedded
/// input unit or context unit `u` belongs to column `u / d_emb`.  The layers of one model
/// share one `period` (`ResMade::degree_period`), and so does the [`LiveUnits`] of each of
/// its steps.  Composed input → hidden^k → output, the three cases let column `c'` into
/// column `c`'s context iff `c' < c`: the autoregressive property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MadeMask {
    /// Embedded input `i` → hidden `o`: allowed iff `deg(o) >= i / d_emb`.
    Input {
        /// Degree period `P` of the hidden units.
        period: usize,
        /// Input units per column.
        d_emb: usize,
    },
    /// Hidden `i` → hidden `o`: allowed iff `deg(o) >= deg(i)`.
    Hidden {
        /// Degree period `P` of the hidden units.
        period: usize,
    },
    /// Hidden `i` → context unit `o`: allowed iff `deg(i) < o / d_emb` (strict, so column
    /// 0's context hears from no unit at all).
    Output {
        /// Degree period `P` of the hidden units.
        period: usize,
        /// Context units per column.
        d_emb: usize,
    },
}

impl MadeMask {
    /// The output units input unit `i` must **not** reach — the one place the three
    /// cases are spelled.  Each is a degree set over the output units: those of degree
    /// below `i`'s column, of degree below `deg(i)`, and — a row of context units being a
    /// single period — the units below column `deg(i) + 1`.
    fn forbidden(self, i: usize) -> LiveUnits {
        match self {
            MadeMask::Input { period, d_emb } => LiveUnits::new(period, (i / d_emb).min(period)),
            MadeMask::Hidden { period } => LiveUnits::new(period, i % period),
            MadeMask::Output { period, d_emb } => {
                LiveUnits::new(usize::MAX, (i % period + 1) * d_emb)
            }
        }
    }

    /// Whether input unit `i` may connect to output unit `o`.
    pub fn allows(self, i: usize, o: usize) -> bool {
        !self.forbidden(i).contains(o)
    }

    /// Whether the rule forbids **every** entry of the `rows × cols` tile of a weight
    /// matrix (both ranges non-empty) — a tile whose gradient need not be computed.  A
    /// closed form over the extreme degrees and columns of the two ranges: a few `%` per
    /// tile, none per entry.
    pub(crate) fn forbids_tile(self, rows: Range<usize>, cols: Range<usize>) -> bool {
        // (lowest, highest) degree among the hidden units of a range.
        let degrees = |units: &Range<usize>, period: usize| {
            let first = units.start % period;
            if first + units.len() > period {
                (0, period - 1)
            } else {
                (first, first + units.len() - 1)
            }
        };
        match self {
            MadeMask::Input { period, d_emb } => degrees(&cols, period).1 < rows.start / d_emb,
            MadeMask::Hidden { period } => degrees(&cols, period).1 < degrees(&rows, period).0,
            MadeMask::Output { period, d_emb } => {
                degrees(&rows, period).0 >= (cols.end - 1) / d_emb
            }
        }
    }

    /// The entries of row `i` of an `· × width` weight matrix the rule forbids, as
    /// ascending runs: whole-row passes cost one `%` per row, none per entry.
    pub(crate) fn forbidden_runs(
        self,
        i: usize,
        width: usize,
    ) -> impl Iterator<Item = Range<usize>> {
        self.forbidden(i).runs(width)
    }
}

/// `out = a (m×k) · b (k×n)`, bit-identical to [`matmul`] but register-blocked.
///
/// The kernel processes `NR` output columns at a time so each `a[i][p]` load is amortised
/// over `NR` independent accumulator chains.  Every output element still accumulates its
/// products in ascending-`p` order with the same skip of zero `a` entries as the naive
/// kernel, so the result is **bit-for-bit equal** to [`matmul`] — a property the inference
/// determinism contract relies on and `blocked_kernels_match_naive_bitwise` pins.
pub fn matmul_blocked(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!(out.rows, a.rows);
    assert_eq!(out.cols, b.cols);
    blocked_rows(a.cols, b.cols, &a.data, &b.data, &mut out.data);
}

/// The register-blocked row kernel behind [`matmul_blocked`]: `a` holds rows of `k`, `out`
/// rows of `n`, and `b` `k` rows of width `n`.
fn blocked_rows(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if n == 0 {
        return;
    }
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        // 32 output columns per block = 4–8 independent SIMD accumulator chains, enough to
        // hide FMA latency; what is left of the row (a tied head's `domain % 32` logits)
        // goes in ever narrower blocks rather than one column at a time.
        let mut j = 0;
        while j + 32 <= n {
            row_block::<32>(n, j, a_row, b, out_row);
            j += 32;
        }
        if j + 16 <= n {
            row_block::<16>(n, j, a_row, b, out_row);
            j += 16;
        }
        if j + 8 <= n {
            row_block::<8>(n, j, a_row, b, out_row);
            j += 8;
        }
        if j + 4 <= n {
            row_block::<4>(n, j, a_row, b, out_row);
            j += 4;
        }
        while j < n {
            row_block::<1>(n, j, a_row, b, out_row);
            j += 1;
        }
    }
}

/// Output columns `j..j + NR` of one row of [`blocked_rows`]: each column its own
/// ascending-`p` chain from `+0.0`, skipping zero `a` entries.
#[inline(always)]
fn row_block<const NR: usize>(n: usize, j: usize, a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    let mut acc = [0.0f32; NR];
    for (p, &a_ip) in a_row.iter().enumerate() {
        if a_ip == 0.0 {
            continue;
        }
        let b_row = &b[p * n + j..p * n + j + NR];
        for (c, &b_pj) in acc.iter_mut().zip(b_row) {
            *c += a_ip * b_pj;
        }
    }
    out_row[j..j + NR].copy_from_slice(&acc);
}

/// `out = a · b[:, lo..hi]` — the column slice `lo..hi` of [`matmul`]'s result, without
/// computing the other columns.
///
/// The inference path uses this for the output layer: a progressive-sampling forward pass
/// only ever reads the context vector of **one** model column, so computing all
/// `n_cols · d_emb` outputs (as training must) wastes a factor `n_cols` of the output-layer
/// GEMM.  Accumulation order per element matches [`matmul`] exactly (ascending `p` from
/// `+0.0`; zero `a` entries are added, not skipped, which moves no bit while `b` is
/// finite), so the slice is bit-for-bit the one the full product would yield.
///
/// The slice is narrow (`d_emb` columns), so one row offers too few independent chains
/// to hide the add latency: the kernel cuts the slice into single-atom register tiles of
/// 16, 12 (one tile for a `d_emb` of 12), 8, 4 and 1 columns by four `a` rows.
pub fn matmul_col_range(a: &Matrix, b: &Matrix, lo: usize, hi: usize, out: &mut Matrix) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!((out.rows, out.cols), (a.rows, hi.saturating_sub(lo)));
    matmul_col_range_live(&a.data, b, lo, hi, LiveUnits::ALL, &mut out.data);
}

/// [`matmul_col_range`] out of a MADE hidden layer, over slices: `out (m×(hi − lo)) = a
/// (m×k) · b[.., lo..hi]`, where only the `live` inner units are walked, in ascending
/// order, and `a` outside them is never read.  Bit-equal to [`matmul_col_range`] when
/// `b[p][lo..hi]` is zero for every `p` outside the live set and `a` and `b` are finite.
pub fn matmul_col_range_live(
    a: &[f32],
    b: &Matrix,
    lo: usize,
    hi: usize,
    live: LiveUnits,
    out: &mut [f32],
) {
    assert!(lo <= hi && hi <= b.cols, "column slice out of bounds");
    col_range_tiles::<4>(b.rows, b.cols, lo..hi, a, &b.data, live, out);
}

/// Slice-level `out (m×n) = a (m×k) · b (k×n)` for a **narrow** `n` (a few registers
/// wide), on the [`matmul_col_range`] tiles: per element an ascending-`p` chain from
/// `+0.0` over every `p`, bit-equal to [`matmul`] — which skips `a == 0.0` — while `b` is
/// finite.
///
/// Training uses it for the tied head's `dctx_col = dlogits · E[..domain]`.  Like
/// [`gemm_nt`] it takes slices so `b` can be a *prefix* of a taller matrix: only the first
/// `k` rows of `b` are read.
pub fn gemm_narrow(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k, "a too short for m×k");
    assert!(b.len() >= k * n, "b too short for k×n");
    assert!(out.len() >= m * n, "out too short for m×n");
    // Two rows at a time: `k` is long here (a domain), and a `2 × 12` tile keeps every
    // accumulator and a whole row of `b` in registers.
    let (a, out) = (&a[..m * k], &mut out[..m * n]);
    col_range_tiles::<2>(k, n, 0..n, a, b, LiveUnits::ALL, out);
}

/// Every row of the column slice `out = a · b[.., cols]`, with `a` rows `k` and `b` rows `n`
/// apart: the slice cut into single-atom tiles of 16, 12, 8, 4 and 1 columns, each over the
/// rows `R` at a time.
fn col_range_tiles<const R: usize>(
    k: usize,
    n: usize,
    cols: Range<usize>,
    a: &[f32],
    b: &[f32],
    live: LiveUnits,
    out: &mut [f32],
) {
    let (lo, w) = (cols.start, cols.len());
    let mut j = 0;
    while j + 16 <= w {
        units_all_rows::<false, R, 1, 16>(k, n, [lo + j], a, b, live, out, w, lo);
        j += 16;
    }
    if j + 12 <= w {
        units_all_rows::<false, R, 1, 12>(k, n, [lo + j], a, b, live, out, w, lo);
        j += 12;
    }
    if j + 8 <= w {
        units_all_rows::<false, R, 1, 8>(k, n, [lo + j], a, b, live, out, w, lo);
        j += 8;
    }
    if j + 4 <= w {
        units_all_rows::<false, R, 1, 4>(k, n, [lo + j], a, b, live, out, w, lo);
        j += 4;
    }
    while j < w {
        units_all_rows::<false, R, 1, 1>(k, n, [lo + j], a, b, live, out, w, lo);
        j += 1;
    }
}

/// Output columns per atom of the runs kernels: one SIMD register of `f32`.
const ATOM: usize = 4;

/// Atoms per register tile of the runs kernels.
const TILE_ATOMS: usize = 4;

/// `out[:, u] = a · b[:, u]` for every unit `u` of the ascending, disjoint `runs`, over
/// the `live` inner units only, written straight into an `out` as wide as `b`; every other
/// column of `out` is left as it was and `a` outside the live set is never read.  The
/// incremental trunk computes a step's new hidden units with it — all of the step's runs,
/// one per degree period — into the layer matrix it carries.
///
/// Per element the chain is every live `p` in ascending order from `+0.0`, zero `a`
/// entries included: bit-equal to [`matmul`]'s, which skips them, while `b` is finite and
/// zero wherever the live set leaves out a unit the full product would add
/// (`runs_kernel_matches_naive_matmul_bitwise`).
pub fn matmul_runs_live(
    a: &[f32],
    b: &Matrix,
    runs: impl IntoIterator<Item = Range<usize>>,
    live: LiveUnits,
    out: &mut [f32],
) {
    runs_tiles::<false>(b.rows, b.cols, a, &b.data, runs, live, out);
}

/// `out[:, u] += a · b[rows, u]` for every unit `u` of the ascending, disjoint `runs`, with
/// `a` holding rows of `rows.len()` and `out` rows as wide as `b`: [`matmul_runs_live`]
/// over the row slab `rows` of `b`, at every inner unit, resuming each element's chain from
/// the value already in `out` instead of from `+0.0`.  Every other column of `out` is left
/// as it was.
///
/// The inference forward extends the input layer's pre-bias sums with it by the newly
/// embedded columns only (`a` = the new column slab, `rows` = its input units), into every
/// hidden unit those columns reach, in one call.  A chain stored to `out` after the terms
/// of rows `0..s` and resumed over `s..k` performs exactly the adds of one chain over
/// `0..k` (`accumulating_kernel_resumes_chains_bitwise`).
pub fn matmul_runs_acc(
    a: &[f32],
    b: &Matrix,
    rows: Range<usize>,
    runs: impl IntoIterator<Item = Range<usize>>,
    out: &mut [f32],
) {
    assert!(
        rows.start <= rows.end && rows.end <= b.rows,
        "row slab out of bounds of the right operand"
    );
    let n = b.cols;
    let slab = &b.data[rows.start * n..rows.end * n];
    runs_tiles::<true>(rows.len(), n, a, slab, runs, LiveUnits::ALL, out);
}

/// The runs kernels over a `b` of `k` rows `n` wide, from `+0.0` or (`ACC`) from `out`.
///
/// The runs are cut into atoms of four columns (a run's last atom may be narrower), and
/// each register tile holds two rows × four atoms, so the tile's one walk over the live
/// units serves four period copies at once; the 1–3 atoms left over share one narrower
/// tile.
fn runs_tiles<const ACC: bool>(
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    runs: impl IntoIterator<Item = Range<usize>>,
    live: LiveUnits,
    out: &mut [f32],
) {
    let atoms = runs.into_iter().flat_map(|run| {
        assert!(run.end <= n, "unit run out of bounds");
        run.clone()
            .step_by(ATOM)
            .map(move |start| (start, (run.end - start).min(ATOM)))
    });
    // Full atoms in tiles of `TILE_ATOMS`; a narrower atom (a run cut short by the width
    // of `b`) goes column by column.
    let mut tile = [0; TILE_ATOMS];
    let mut filled = 0;
    for (start, width) in atoms {
        if width < ATOM {
            for col in start..start + width {
                units_all_rows::<ACC, 2, 1, 1>(k, n, [col], a, b, live, out, n, 0);
            }
            continue;
        }
        tile[filled] = start;
        filled += 1;
        if filled == TILE_ATOMS {
            units_all_rows::<ACC, 2, TILE_ATOMS, ATOM>(k, n, tile, a, b, live, out, n, 0);
            filled = 0;
        }
    }
    // The atoms left over still share one walk, in a tile as wide as they are.
    match tile[..filled] {
        [] => {}
        [o] => units_all_rows::<ACC, 2, 1, ATOM>(k, n, [o], a, b, live, out, n, 0),
        [o, p] => units_all_rows::<ACC, 2, 2, ATOM>(k, n, [o, p], a, b, live, out, n, 0),
        [o, p, q] => {
            units_all_rows::<ACC, 2, 3, ATOM>(k, n, [o, p, q], a, b, live, out, n, 0);
        }
        _ => unreachable!("a full tile is computed as it fills"),
    }
}

/// Every row of a live-unit product on the `A` atoms of width `W` that start at `atoms`,
/// `R` rows at a time and the rows left over one by one: `a` rows `k` apart, `b` rows `n`
/// apart, `out` rows `os` apart with atom `o` at its column `o − lo` (`os > 0`).
#[expect(
    clippy::too_many_arguments,
    reason = "a register-tile kernel takes its shape, operands and strides unbundled"
)]
fn units_all_rows<const ACC: bool, const R: usize, const A: usize, const W: usize>(
    k: usize,
    n: usize,
    atoms: [usize; A],
    a: &[f32],
    b: &[f32],
    live: LiveUnits,
    out: &mut [f32],
    os: usize,
    lo: usize,
) {
    assert_eq!(
        a.len() * os,
        out.len() * k,
        "a and out must hold the same rows"
    );
    let m = out.len() / os;
    let mut i = 0;
    while i + R <= m {
        let out = &mut out[i * os..];
        units_tile::<ACC, R, A, W>(k, n, atoms, &a[i * k..], b, live, out, os, lo);
        i += R;
    }
    while i < m {
        let out = &mut out[i * os..];
        units_tile::<ACC, 1, A, W>(k, n, atoms, &a[i * k..], b, live, out, os, lo);
        i += 1;
    }
}

/// The one register tile behind every live-unit product: `out[r][o − lo..][..W] = Σ_p
/// a[r][p] · b[p][o..o + W]` over the live `p`, for each of the `R` rows and each atom
/// start `o`, with `a` rows `k`, `b` rows `n` and `out` rows `os` apart.  Each element is
/// its own ascending-`p` chain from `+0.0` or, with `ACC`, from `out`.  No branch on the
/// value of `a`: every live term is added.
#[expect(
    clippy::too_many_arguments,
    reason = "a register-tile kernel takes its shape, operands and strides unbundled"
)]
fn units_tile<const ACC: bool, const R: usize, const A: usize, const W: usize>(
    k: usize,
    n: usize,
    atoms: [usize; A],
    a: &[f32],
    b: &[f32],
    live: LiveUnits,
    out: &mut [f32],
    os: usize,
    lo: usize,
) {
    assert!(
        atoms.iter().all(|&o| lo <= o && o + W <= n),
        "atom out of bounds"
    );
    let mut acc = [[[0.0f32; W]; A]; R];
    if ACC {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            for (acc_atom, &o) in acc_r.iter_mut().zip(&atoms) {
                let at = r * os + o - lo;
                acc_atom.copy_from_slice(&out[at..at + W]);
            }
        }
    }
    for run in live.runs(k) {
        let a_run: [&[f32]; R] = std::array::from_fn(|r| &a[r * k + run.start..r * k + run.end]);
        for (i, b_row) in b[run.start * n..run.end * n].chunks_exact(n).enumerate() {
            for (acc_r, a_r) in acc.iter_mut().zip(a_run) {
                let a_rp = a_r[i];
                for (acc_atom, &o) in acc_r.iter_mut().zip(&atoms) {
                    for (c, &b_pj) in acc_atom.iter_mut().zip(&b_row[o..o + W]) {
                        *c += a_rp * b_pj;
                    }
                }
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (acc_atom, &o) in acc_r.iter().zip(&atoms) {
            let at = r * os + o - lo;
            out[at..at + W].copy_from_slice(acc_atom);
        }
    }
}

/// Slice-level `out (m×n) = a (m×k) · bᵀ (n×k)` kernel, register-blocked over `NR` rows of
/// `b` at a time.
///
/// This backs the weight-tied logit heads: `a` is the batch of per-column context vectors,
/// `b` the first `n` rows of the column's embedding table.  Taking slices (rather than
/// [`Matrix`]) lets callers use a *prefix* of a taller matrix as `b` — the embedding table
/// has `domain + 1` rows but logits only cover `domain` values.  Each output element is a
/// plain ascending-`k` dot product, so results are bit-for-bit equal to the naive `a · bᵀ`
/// loop.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k, "a too short for m×k");
    assert!(b.len() >= n * k, "b too short for n×k");
    assert!(out.len() >= m * n, "out too short for m×n");
    const NR: usize = 4;
    for i in 0..m {
        let a_row = &a[i * k..i * k + k];
        let out_row = &mut out[i * n..i * n + n];
        let mut j = 0;
        while j + NR <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut acc = [0.0f32; NR];
            for (p, &a_ip) in a_row.iter().enumerate() {
                acc[0] += a_ip * b0[p];
                acc[1] += a_ip * b1[p];
                acc[2] += a_ip * b2[p];
                acc[3] += a_ip * b3[p];
            }
            out_row[j..j + NR].copy_from_slice(&acc);
            j += NR;
        }
        while j < n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            out_row[j] = acc;
            j += 1;
        }
    }
}

/// `out = a (m×k) · bᵀ (n×k)`, overwriting `out` (m×n): the naive loop [`gemm_nt`] is
/// pinned against.
#[cfg(test)]
pub(crate) fn matmul_transpose_b(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols, b.cols,
        "inner dimensions must agree (b is transposed)"
    );
    assert_eq!(out.rows, a.rows);
    assert_eq!(out.cols, b.rows);
    let (m, k, n) = (a.rows, a.cols, b.rows);
    for i in 0..m {
        let a_row = &a.data[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b.data[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            out.data[i * n + j] = acc;
        }
    }
}

/// `out (cols×rows) = srcᵀ` for a row-major `rows × cols` slice (`out` is resized; its
/// allocation is reused).
///
/// Training transposes a weight once per step so that `dx = dy · Wᵀ` and the tied head's
/// `ctx · E[..domain]ᵀ` run on the row kernel of [`matmul_blocked`], which wants the inner
/// index down the rows of its right operand; `src` may be a prefix of a taller matrix.
pub fn transpose_into(rows: usize, cols: usize, src: &[f32], out: &mut Matrix) {
    assert!(src.len() >= rows * cols, "src too short for rows×cols");
    out.resize(cols, rows);
    for (r, src_row) in src.chunks_exact(cols.max(1)).take(rows).enumerate() {
        for (c, &v) in src_row.iter().enumerate() {
            out.data[c * rows + r] = v;
        }
    }
}

/// Slice-level `out (m×n) += aᵀ · b` with `a` stored `k×m` and `b` stored `k×n` — the
/// weight gradient `dW += xᵀ · dy` (`k` = batch) and the tied head's `dE[..domain] +=
/// dlogitsᵀ · ctx_col`.
///
/// Each output element resumes its accumulator from `out` and adds its `k` products in
/// ascending `p`, skipping `a[p][i] == 0.0` — exactly the chain of the naive loop (`for p
/// { for i { out[i][..] += a[p][i] · b[p][..] } }`), so the result is bit-equal to it and
/// two calls over the halves of a batch equal one call over the whole.  The naive loop
/// makes `k` read-modify-write passes over `out`; this one holds a `2 × 16` tile of it in
/// registers while the batch runs innermost.  Only the first `m` rows of `out` are
/// touched, so `out` can be a prefix of a taller matrix (the embedding table's MASK row).
///
/// With `mask = Some(rule)`, `out` being the gradient of a weight under that rule, a tile
/// the rule forbids entirely is left as it was: a masked layer discards those entries
/// anyway.  Every other entry, allowed or not, gets the bits `mask = None` gives it.
pub fn gemm_tn_acc(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    mask: Option<MadeMask>,
    out: &mut [f32],
) {
    gemm_tn_acc_rows(k, m, n, a, b, mask, 0..m, out);
}

/// The output rows `rows` of [`gemm_tn_acc`], into an `out` that holds those rows only
/// (row `i` of the product is row `i − rows.start` of `out`).  Every element gets the bits
/// the whole product gives it, so callers that own disjoint row ranges of one gradient
/// compute it together.
#[expect(
    clippy::too_many_arguments,
    reason = "a register-tile kernel takes its shape, operands and strides unbundled"
)]
pub fn gemm_tn_acc_rows(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    mask: Option<MadeMask>,
    rows: Range<usize>,
    out: &mut [f32],
) {
    assert!(a.len() >= k * m, "a too short for k×m");
    assert!(b.len() >= k * n, "b too short for k×n");
    assert!(rows.end <= m, "output rows out of bounds");
    assert!(out.len() >= rows.len() * n, "out too short for its rows");
    let mut i = rows.start;
    while i + 2 <= rows.end {
        tn_rows::<2>(k, m, n, i, a, b, mask, &mut out[(i - rows.start) * n..]);
        i += 2;
    }
    if i < rows.end {
        tn_rows::<1>(k, m, n, i, a, b, mask, &mut out[(i - rows.start) * n..]);
    }
}

/// Rows `i..i + R` of [`gemm_tn_acc`], into an `out` that starts at row `i`: walks the `n`
/// output columns in register tiles of 16, 12, 8, 4 and 1.
#[expect(
    clippy::too_many_arguments,
    reason = "a register-tile kernel takes its shape, operands and strides unbundled"
)]
fn tn_rows<const R: usize>(
    k: usize,
    m: usize,
    n: usize,
    i: usize,
    a: &[f32],
    b: &[f32],
    mask: Option<MadeMask>,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + 16 <= n {
        tn_tile::<R, 16>(k, m, n, i, j, a, b, mask, out);
        j += 16;
    }
    if j + 12 <= n {
        tn_tile::<R, 12>(k, m, n, i, j, a, b, mask, out);
        j += 12;
    }
    if j + 8 <= n {
        tn_tile::<R, 8>(k, m, n, i, j, a, b, mask, out);
        j += 8;
    }
    if j + 4 <= n {
        tn_tile::<R, 4>(k, m, n, i, j, a, b, mask, out);
        j += 4;
    }
    while j < n {
        tn_tile::<R, 1>(k, m, n, i, j, a, b, mask, out);
        j += 1;
    }
}

/// The `R × W` register tile of [`gemm_tn_acc`] at `(i, j)`: `out[r][j..j + W] +=
/// Σ_p a[p][i + r] · b[p][j..j + W]` (`out` starts at row `i`), with `a` rows `m` apart and
/// `b` and `out` rows `n` apart — unless `mask` forbids the whole tile.  Each element is its own ascending-`p`
/// chain resumed from `out`; a zero `a[p][i + r]` leaves row `r`'s accumulators untouched.
#[expect(
    clippy::too_many_arguments,
    reason = "a register-tile kernel takes its shape, operands and strides unbundled"
)]
fn tn_tile<const R: usize, const W: usize>(
    k: usize,
    m: usize,
    n: usize,
    i: usize,
    j: usize,
    a: &[f32],
    b: &[f32],
    mask: Option<MadeMask>,
    out: &mut [f32],
) {
    if mask.is_some_and(|mask| mask.forbids_tile(i..i + R, j..j + W)) {
        return;
    }
    let out = &mut out[j..];
    let mut acc = [[0.0f32; W]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&out[r * n..r * n + W]);
    }
    for p in 0..k {
        let b_row = &b[p * n + j..p * n + j + W];
        for (acc_r, &a_pr) in acc.iter_mut().zip(&a[p * m + i..p * m + i + R]) {
            if a_pr == 0.0 {
                continue;
            }
            for (c, &b_pj) in acc_r.iter_mut().zip(b_row) {
                *c += a_pr * b_pj;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[r * n..r * n + W].copy_from_slice(acc_r);
    }
}

/// Adds a bias row vector to every row of the row-major rows `m` (as wide as `bias`).
pub fn add_bias(m: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        return;
    }
    assert_eq!(m.len() % bias.len(), 0, "rows must be as wide as the bias");
    for row in m.chunks_exact_mut(bias.len()) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Column-wise sums of the columns `cols` of `m` accumulated into `out` (one element per
/// column of the range; used for bias gradients), each an ascending-row chain.
pub fn column_sums_accumulate(m: &Matrix, cols: Range<usize>, out: &mut [f32]) {
    assert!(cols.end <= m.cols, "column range out of bounds");
    assert_eq!(cols.len(), out.len());
    for r in 0..m.rows {
        for (o, v) in out.iter_mut().zip(&m.row(r)[cols.clone()]) {
            *o += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of the tests' generator (no RNG dependency in this crate's tests).
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed
    }

    /// Deterministic pseudo-random matrix.
    fn lcg_matrix(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                lcg(seed);
                // Map to roughly [-1, 1], with exact zeros sprinkled in to exercise the
                // zero-skip branches.
                let v = ((*seed >> 33) as f32 / (1u64 << 31) as f32) - 1.0;
                if (*seed >> 20) & 0xF == 0 {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// `+0.0` or `−0.0`, evenly.
    fn signed_zero(seed: &mut u64) -> f32 {
        if lcg(seed) >> 63 == 0 {
            0.0
        } else {
            -0.0
        }
    }

    /// [`lcg_matrix`] with ≈ 40 % of the entries an exact zero — the share of a ReLU
    /// activation the zero-skip branches of the training kernels meet.
    fn lcg_matrix_sparse(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        let mut m = lcg_matrix(rows, cols, seed);
        for v in m.data_mut() {
            if (lcg(seed) >> 33) % 5 < 2 {
                *v = 0.0;
            }
        }
        m
    }

    fn approx_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-5)
    }

    #[test]
    fn basic_accessors() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        m.row_mut(0)[0] = 1.0;
        assert_eq!(m.data()[0], 1.0);
        m.fill_zero();
        assert!(m.data().iter().all(|v| *v == 0.0));
        m.data_mut()[0] = 2.0;
        assert_eq!(m.get(0, 0), 2.0);
    }

    #[test]
    fn matmul_small_known_result() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        let mut out = Matrix::zeros(2, 2);
        matmul(&a, &b, &mut out);
        assert!(approx_eq(out.data(), &[19., 22., 43., 50.]));
        // A second product overwrites the first.
        matmul(&a, &b, &mut out);
        assert!(approx_eq(out.data(), &[19., 22., 43., 50.]));
    }

    #[test]
    fn matmul_transpose_variants_agree_with_plain() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut expected = Matrix::zeros(2, 2);
        matmul(&a, &b, &mut expected);

        // a · bᵀ with b stored transposed (2×3).
        let bt = Matrix::from_vec(2, 3, vec![7., 9., 11., 8., 10., 12.]);
        let mut out = Matrix::zeros(2, 2);
        matmul_transpose_b(&a, &bt, &mut out);
        assert!(approx_eq(out.data(), expected.data()));

        // aᵀ · b with a stored transposed (3×2): (aᵀ)ᵀ·b = a·b.
        let at = Matrix::from_vec(3, 2, vec![1., 4., 2., 5., 3., 6.]);
        let mut out = Matrix::zeros(2, 2);
        gemm_tn_acc(3, 2, 2, at.data(), b.data(), None, out.data_mut());
        assert!(approx_eq(out.data(), expected.data()));

        // The explicit transpose training multiplies by: bᵀ transposed back is b.
        let mut b_again = Matrix::zeros(0, 0);
        transpose_into(2, 3, bt.data(), &mut b_again);
        assert_eq!(b_again, b);
    }

    #[test]
    fn bias_and_column_sums() {
        let mut m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        add_bias(m.data_mut(), &[10., 20.]);
        assert!(approx_eq(m.data(), &[11., 22., 13., 24.]));
        let mut sums = vec![0.0; 2];
        column_sums_accumulate(&m, 0..2, &mut sums);
        assert!(approx_eq(&sums, &[24., 46.]));
        column_sums_accumulate(&m, 1..2, &mut sums[1..]);
        assert!(approx_eq(&sums, &[24., 92.]));
    }

    fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn resize_reuses_allocation_without_memset() {
        let mut m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let capacity = m.data().as_ptr();
        // Same or smaller element count: no reallocation, contents unspecified (stale).
        m.resize(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        m.resize(1, 4);
        assert_eq!((m.rows(), m.cols()), (1, 4));
        assert_eq!(m.data().as_ptr(), capacity, "no reallocation on shrink");
        // Growth zero-fills only the new tail; the caller owns full overwrites.
        m.resize(2, 4);
        assert_eq!(&m.data()[4..], &[0.0; 4]);
        m.fill_zero();
        assert!(m.data().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn blocked_kernels_match_naive_bitwise() {
        // The inference fast path substitutes the blocked kernels for the naive ones; the
        // determinism contract therefore needs bit-for-bit (not approximate) agreement,
        // across shapes that exercise full blocks, remainders, and degenerate dims.
        let mut seed = 0x5EED_u64;
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 5),
            (3, 16, 8),
            (4, 24, 30),
            (5, 32, 97),
            (17, 6, 4),
            (2, 180, 33),
        ] {
            let a = lcg_matrix(m, k, &mut seed);
            let b = lcg_matrix(k, n, &mut seed);
            let mut naive = Matrix::zeros(m, n);
            matmul(&a, &b, &mut naive);
            let mut blocked = Matrix::zeros(m, n);
            blocked.data_mut().iter_mut().for_each(|v| *v = f32::NAN); // must be overwritten
            matmul_blocked(&a, &b, &mut blocked);
            assert_bitwise_eq(&naive, &blocked, &format!("matmul {m}x{k}x{n}"));

            // Column-slice kernel equals the corresponding slice of the full product.
            let lo = n / 3;
            let hi = (2 * n / 3).max(lo);
            let mut sliced = Matrix::zeros(m, hi - lo);
            matmul_col_range(&a, &b, lo, hi, &mut sliced);
            for i in 0..m {
                for (jj, j) in (lo..hi).enumerate() {
                    assert_eq!(
                        sliced.get(i, jj).to_bits(),
                        naive.get(i, j).to_bits(),
                        "matmul_col_range {m}x{k}x{n} [{lo}..{hi}] at ({i},{j})"
                    );
                }
            }
            // ... and written in place, the same columns of the full product.
            let mut wide = Matrix::zeros(m, n);
            wide.data_mut().fill(f32::NAN);
            matmul_runs_live(
                a.data(),
                &b,
                std::iter::once(lo..hi),
                LiveUnits::ALL,
                wide.data_mut(),
            );
            for i in 0..m {
                for (jj, j) in (lo..hi).enumerate() {
                    assert_eq!(wide.get(i, j).to_bits(), sliced.get(i, jj).to_bits());
                }
                assert!(wide.row(i)[..lo]
                    .iter()
                    .chain(&wide.row(i)[hi..])
                    .all(|v| v.is_nan()));
            }

            // Aᵀ-style head kernel: a (m×k) · bᵀ (n×k).
            let bt = lcg_matrix(n, k, &mut seed);
            let mut nt_naive = Matrix::zeros(m, n);
            matmul_transpose_b(&a, &bt, &mut nt_naive);
            let mut nt_blocked = Matrix::zeros(m, n);
            gemm_nt(m, n, k, a.data(), bt.data(), nt_blocked.data_mut());
            assert_bitwise_eq(&nt_naive, &nt_blocked, &format!("gemm_nt {m}x{k}x{n}"));
        }
    }

    /// The three products training adds to the inference kernels, each against the naive
    /// loop it replaced, bit for bit: every tail shape of the register tiles, ≈ 40 % exact
    /// zeros in the left operand, accumulators resumed through `out`, and the right
    /// operand (or the output) given as a prefix of a taller matrix whose last row — the
    /// embedding table's MASK row — must be neither read nor written.
    #[test]
    fn training_kernels_match_naive_bitwise() {
        const DIMS: [usize; 10] = [1, 3, 4, 5, 12, 31, 32, 33, 96, 324];
        let mut seed = 0x7EA1_u64;
        let with_mask_row = |m: &Matrix, fill: f32| {
            let mut taller = m.data().to_vec();
            taller.extend(std::iter::repeat_n(fill, m.cols()));
            taller
        };
        for &m in &DIMS {
            for &n in &DIMS {
                for &k in &DIMS {
                    let what = format!("{m}x{k}x{n}");

                    // dW += xᵀ · dy (batch = k innermost), x = `a` stored k×m.
                    let a = lcg_matrix_sparse(k, m, &mut seed);
                    let b = lcg_matrix(k, n, &mut seed);
                    let start = lcg_matrix(m, n, &mut seed);
                    let mut naive = start.clone();
                    for p in 0..k {
                        for (i, &a_pi) in a.row(p).iter().enumerate() {
                            if a_pi == 0.0 {
                                continue;
                            }
                            for (o, &b_pj) in naive.row_mut(i).iter_mut().zip(b.row(p)) {
                                *o += a_pi * b_pj;
                            }
                        }
                    }
                    let mut tiled = with_mask_row(&start, 7.5);
                    let half = k / 2;
                    gemm_tn_acc(half, m, n, a.data(), b.data(), None, &mut tiled);
                    gemm_tn_acc(
                        k - half,
                        m,
                        n,
                        &a.data()[half * m..],
                        &b.data()[half * n..],
                        None,
                        &mut tiled,
                    );
                    assert!(
                        tiled[m * n..].iter().all(|&v| v == 7.5),
                        "tn {what}: MASK row"
                    );
                    tiled.truncate(m * n);
                    let tiled = Matrix::from_vec(m, n, tiled);
                    assert_bitwise_eq(&naive, &tiled, &format!("gemm_tn_acc {what}"));
                    // ... and as two output-row ranges (the first may end mid-tile), each
                    // into a buffer that holds its own rows only.
                    let cut = m / 3;
                    let mut parts = start.data().to_vec();
                    let (top, bottom) = parts.split_at_mut(cut * n);
                    gemm_tn_acc_rows(k, m, n, a.data(), b.data(), None, 0..cut, top);
                    gemm_tn_acc_rows(k, m, n, a.data(), b.data(), None, cut..m, bottom);
                    let parts = Matrix::from_vec(m, n, parts);
                    assert_bitwise_eq(&naive, &parts, &format!("gemm_tn_acc_rows {what}"));

                    // dctx_col = dlogits · E[..k]: the narrow tiles over a prefix of `b`.
                    let a = lcg_matrix_sparse(m, k, &mut seed);
                    let b = lcg_matrix(k, n, &mut seed);
                    let mut naive = Matrix::zeros(m, n);
                    matmul(&a, &b, &mut naive);
                    let mut narrow = Matrix::zeros(m, n);
                    narrow.data_mut().fill(f32::NAN); // must be overwritten
                    gemm_narrow(
                        m,
                        k,
                        n,
                        a.data(),
                        &with_mask_row(&b, f32::NAN),
                        narrow.data_mut(),
                    );
                    assert_bitwise_eq(&naive, &narrow, &format!("gemm_narrow {what}"));

                    // dx = dy · Wᵀ and logits = ctx · E[..n]ᵀ: the row kernel over an
                    // explicit transpose of a prefix, against the plain dot products.
                    let bt = lcg_matrix(n, k, &mut seed);
                    let mut naive = Matrix::zeros(m, n);
                    matmul_transpose_b(&a, &bt, &mut naive);
                    let mut wt = Matrix::zeros(0, 0);
                    transpose_into(n, k, &with_mask_row(&bt, f32::NAN), &mut wt);
                    let mut blocked = Matrix::zeros(m, n);
                    blocked.data_mut().fill(f32::NAN);
                    matmul_blocked(&a, &wt, &mut blocked);
                    assert_bitwise_eq(&naive, &blocked, &format!("transposed {what}"));
                }
            }
        }
    }

    #[test]
    fn accumulating_kernel_resumes_chains_bitwise() {
        // Point (1) of the prefix-accumulator bit-identity argument: a chain from `+0.0`
        // that adds every term, stored to `out` after `s` terms and resumed, is the naive
        // zero-skipping chain of one full product — over all columns, over a column range,
        // and over ragged period runs (`n` 33 under a period of 10: three runs of 7 or of 5
        // units, each a whole atom and a narrower one), with signed zeros in `a` and `−0.0`
        // among the weights.  Every column outside the runs is left alone.
        const UNTOUCHED: f32 = 7.5;
        const PERIOD: usize = 10;
        let mut seed = 0xACC_u64;
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 16, 8),
            (5, 36, 97),
            (4, 24, 32),
            (2, 180, 33),
            (9, 20, 33),
            (7, 33, 33),
        ] {
            let mut a = lcg_matrix(m, k, &mut seed);
            for v in a.data_mut() {
                if (lcg(&mut seed) >> 33) % 20 < 11 {
                    *v = signed_zero(&mut seed);
                }
            }
            let mut b = lcg_matrix(k, n, &mut seed);
            for v in b.data_mut().iter_mut().filter(|v| **v == 0.0) {
                *v = -0.0;
            }
            let mut whole = Matrix::zeros(m, n);
            matmul(&a, &b, &mut whole);
            let period_runs = |before: usize, align: usize| -> Vec<Range<usize>> {
                let p = PERIOD.min(n);
                LiveUnits::new(p, p)
                    .added_since(before.min(p), n, align)
                    .collect()
            };
            let one = |run: Range<usize>| std::iter::once(run).collect();
            let layouts: [Vec<Range<usize>>; 6] = [
                one(0..n),
                one(n / 4..n),
                one(1.min(n)..(n / 2 + 5).min(n)),
                period_runs(3, 1),
                period_runs(5, 1),
                period_runs(2, 4),
            ];
            for s in [0, k / 3, k] {
                let slab = |lo: usize, hi: usize| {
                    let data = (0..m).flat_map(|i| a.row(i)[lo..hi].to_vec()).collect();
                    Matrix::from_vec(m, hi - lo, data)
                };
                let (first, second) = (slab(0, s), slab(s, k));
                for runs in &layouts {
                    let what = format!("acc {m}x{k}x{n} split {s} runs {runs:?}");
                    let in_runs = |j: usize| runs.iter().any(|run| run.contains(&j));
                    let mut out = Matrix::zeros(m, n);
                    for i in 0..m {
                        for (j, v) in out.row_mut(i).iter_mut().enumerate() {
                            if !in_runs(j) {
                                *v = UNTOUCHED;
                            }
                        }
                    }
                    matmul_runs_acc(first.data(), &b, 0..s, runs.clone(), out.data_mut());
                    matmul_runs_acc(second.data(), &b, s..k, runs.clone(), out.data_mut());
                    for i in 0..m {
                        for j in 0..n {
                            let (got, want) = (out.get(i, j), whole.get(i, j));
                            if in_runs(j) {
                                assert_eq!(got.to_bits(), want.to_bits(), "{what} ({i}, {j})");
                            } else {
                                assert_eq!(got, UNTOUCHED, "{what} ({i}, {j})");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The restricted kernels against their own dense instantiation, bit for bit, on
    /// MADE-masked weights, for every column of every `(d_hidden, period)` layout and 1–9
    /// rows: the restricted call gets an `a` whose every entry outside the live set is NaN,
    /// so one read of a dead unit shows up in a result.  The unit kernel runs over all the
    /// runs a step for the column computes (its units new since an earlier column, widened)
    /// in one call, against its dense instantiation over the same runs — the same register
    /// tiles — and must leave every other column of `out` as it was.  The column slice runs
    /// at every width 1–33 (each tile width and leftover) from an `lo > 0`, against the
    /// naive zero-skipping [`matmul`] over the activations with the dead units zeroed, on a
    /// right operand that is NaN outside the slice.
    #[test]
    fn live_kernels_match_dense_bitwise_and_never_read_dead_units() {
        const UNTOUCHED: f32 = 7.5;
        const D_EMB: usize = 13; // one 8-, one 4- and one 1-wide tile of the column slice
        const WIDTHS: std::ops::RangeInclusive<usize> = 1..=33;
        // The slice of width `w` starts at column `1 + w % 4`: never 0, and at every
        // offset from a 4-column boundary.
        let slice = |w: usize| (1 + w % 4)..(1 + w % 4 + w);
        let mut seed = 0x11FE_u64;
        for (d_hidden, period) in [(96usize, 60usize), (96, 26), (40, 7), (33, 50), (8, 1)] {
            let mut wide = lcg_matrix(d_hidden, 4 + *WIDTHS.end(), &mut seed);
            for v in wide.data_mut().iter_mut().filter(|v| **v == 0.0) {
                *v = signed_zero(&mut seed);
            }
            // Per width, the weights with every column outside its slice NaN.
            let fenced: Vec<Matrix> = WIDTHS
                .map(|w| {
                    let mut b = wide.clone();
                    for h in 0..d_hidden {
                        for (o, v) in b.row_mut(h).iter_mut().enumerate() {
                            if !slice(w).contains(&o) {
                                *v = f32::NAN;
                            }
                        }
                    }
                    b
                })
                .collect();
            let columns = period + 1;
            let mut hidden = lcg_matrix(d_hidden, d_hidden, &mut seed);
            let mut output = lcg_matrix(d_hidden, columns * D_EMB, &mut seed);
            let (hidden_rule, output_rule) = (
                MadeMask::Hidden { period },
                MadeMask::Output {
                    period,
                    d_emb: D_EMB,
                },
            );
            for h in 0..d_hidden {
                for run in hidden_rule.forbidden_runs(h, d_hidden) {
                    hidden.row_mut(h)[run].fill(0.0);
                }
                for run in output_rule.forbidden_runs(h, columns * D_EMB) {
                    output.row_mut(h)[run].fill(0.0);
                }
            }
            for rows in 1usize..=9 {
                let a = lcg_matrix(rows, d_hidden, &mut seed);
                for col in 0..columns {
                    let what = format!("d_hidden {d_hidden} period {period} rows {rows} col {col}");
                    let live = LiveUnits::new(period, col);
                    let (mut poisoned, mut zeroed) = (a.clone(), a.clone());
                    for r in 0..rows {
                        for u in (0..d_hidden).filter(|&u| !live.contains(u)) {
                            poisoned.row_mut(r)[u] = f32::NAN;
                            zeroed.row_mut(r)[u] = 0.0;
                        }
                    }
                    for (before, align) in [(col.saturating_sub(1), 1), (col / 2, 4), (0, 8)] {
                        let runs: Vec<Range<usize>> =
                            live.added_since(before, d_hidden, align).collect();
                        let what = format!("{what}: runs {runs:?}");
                        let mut dense = Matrix::zeros(rows, d_hidden);
                        dense.data_mut().fill(UNTOUCHED);
                        let mut restricted = dense.clone();
                        let all = LiveUnits::ALL;
                        matmul_runs_live(a.data(), &hidden, runs.clone(), all, dense.data_mut());
                        matmul_runs_live(
                            poisoned.data(),
                            &hidden,
                            runs.clone(),
                            live,
                            restricted.data_mut(),
                        );
                        for r in 0..rows {
                            for u in 0..d_hidden {
                                let (got, want) = (restricted.get(r, u), dense.get(r, u));
                                if !runs.iter().any(|run| run.contains(&u)) {
                                    assert_eq!(got, UNTOUCHED, "{what}: unit ({r}, {u})");
                                } else if live.contains(u) {
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "{what}: hidden unit ({r}, {u})"
                                    );
                                } else {
                                    assert!(!got.is_nan(), "{what}: dead read at ({r}, {u})");
                                }
                            }
                        }
                    }

                    let (lo, hi) = (col * D_EMB, (col + 1) * D_EMB);
                    let mut dense_ctx = Matrix::zeros(rows, D_EMB);
                    matmul_col_range_live(
                        a.data(),
                        &output,
                        lo,
                        hi,
                        LiveUnits::ALL,
                        dense_ctx.data_mut(),
                    );
                    let mut ctx = Matrix::zeros(rows, D_EMB);
                    ctx.data_mut().iter_mut().for_each(|v| *v = f32::NAN); // must be overwritten
                    matmul_col_range_live(poisoned.data(), &output, lo, hi, live, ctx.data_mut());
                    for (i, (x, y)) in dense_ctx.data().iter().zip(ctx.data()).enumerate() {
                        assert_eq!(x.to_bits(), y.to_bits(), "{what}: context element {i}");
                    }

                    let mut naive = Matrix::zeros(rows, wide.cols());
                    matmul(&zeroed, &wide, &mut naive);
                    for (w, b) in WIDTHS.zip(&fenced) {
                        let cols = slice(w);
                        let mut got = Matrix::zeros(rows, w);
                        got.data_mut().fill(f32::NAN); // must be overwritten
                        matmul_col_range_live(
                            poisoned.data(),
                            b,
                            cols.start,
                            cols.end,
                            live,
                            got.data_mut(),
                        );
                        for r in 0..rows {
                            for (j, o) in cols.clone().enumerate() {
                                assert_eq!(
                                    got.get(r, j).to_bits(),
                                    naive.get(r, o).to_bits(),
                                    "{what}: slice {cols:?} at ({r}, {o})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`matmul_runs_live`] against the naive zero-skipping [`matmul`] loop, bit for bit,
    /// on the inputs where adding a zero term instead of skipping it could show: ≈ 55 %
    /// of the activations exact zeros of both signs, `−0.0` among the weights (masked and
    /// allowed), 1–9 rows, and run layouts whose atoms are not all full (`d_hidden` 33
    /// under a period of 50).  For every column and the runs a step for it computes, in one
    /// call, with NaN in every dead inner unit: each unit of the runs equals `matmul` over
    /// the activations with the dead units zeroed, each live one also `matmul` over all of
    /// them, and every other unit keeps its sentinel.
    #[test]
    fn runs_kernel_matches_naive_matmul_bitwise() {
        const UNTOUCHED: f32 = 7.5;
        let mut seed = 0x2E20_u64;
        for (d_hidden, period) in [(33usize, 50usize), (96, 26), (96, 60), (40, 7), (8, 1)] {
            let mut hidden = lcg_matrix(d_hidden, d_hidden, &mut seed);
            let rule = MadeMask::Hidden { period };
            for h in 0..d_hidden {
                for v in hidden.row_mut(h).iter_mut().filter(|v| **v == 0.0) {
                    *v = signed_zero(&mut seed);
                }
                for run in rule.forbidden_runs(h, d_hidden) {
                    for v in &mut hidden.row_mut(h)[run] {
                        *v = signed_zero(&mut seed);
                    }
                }
            }
            for rows in 1usize..=9 {
                let mut a = lcg_matrix(rows, d_hidden, &mut seed);
                for v in a.data_mut() {
                    if (lcg(&mut seed) >> 33) % 20 < 11 {
                        *v = signed_zero(&mut seed);
                    }
                }
                let mut full = Matrix::zeros(rows, d_hidden);
                matmul(&a, &hidden, &mut full);
                for col in 0..=period {
                    let what = format!("d_hidden {d_hidden} period {period} rows {rows} col {col}");
                    let live = LiveUnits::new(period, col);
                    let (mut poisoned, mut zeroed) = (a.clone(), a.clone());
                    for r in 0..rows {
                        for u in (0..d_hidden).filter(|&u| !live.contains(u)) {
                            poisoned.row_mut(r)[u] = f32::NAN;
                            zeroed.row_mut(r)[u] = 0.0;
                        }
                    }
                    let mut naive = Matrix::zeros(rows, d_hidden);
                    matmul(&zeroed, &hidden, &mut naive);
                    for (before, align) in [(col.saturating_sub(1), 4), (col / 2, 4), (0, 1)] {
                        let runs: Vec<Range<usize>> =
                            live.added_since(before, d_hidden, align).collect();
                        let what = format!("{what}: runs {runs:?}");
                        let mut out = Matrix::zeros(rows, d_hidden);
                        out.data_mut().fill(UNTOUCHED);
                        matmul_runs_live(
                            poisoned.data(),
                            &hidden,
                            runs.clone(),
                            live,
                            out.data_mut(),
                        );
                        for r in 0..rows {
                            for u in 0..d_hidden {
                                let got = out.get(r, u).to_bits();
                                if !runs.iter().any(|run| run.contains(&u)) {
                                    assert_eq!(got, UNTOUCHED.to_bits(), "{what}: unit ({r}, {u})");
                                    continue;
                                }
                                let want = naive.get(r, u).to_bits();
                                assert_eq!(got, want, "{what}: unit ({r}, {u})");
                                if live.contains(u) {
                                    let want = full.get(r, u).to_bits();
                                    assert_eq!(got, want, "{what}: live unit ({r}, {u})");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn live_units_runs_agree_with_the_degree_definition() {
        // `runs` and `added_since` are closed forms; check them against the definition they
        // abbreviate, for every alignment a step might widen its runs to.
        for period in [1usize, 2, 7, 26, 31, 32, 33, 60] {
            for degrees in 0..=period {
                let live = LiveUnits::new(period, degrees);
                for k in [0usize, 1, period, 2 * period + 5, 96] {
                    let walked: Vec<usize> = live.runs(k).flatten().collect();
                    let expected: Vec<usize> = (0..k).filter(|p| p % period < degrees).collect();
                    assert_eq!(walked, expected, "period {period} degrees {degrees} k {k}");
                    for before in 0..=degrees {
                        for align in [1usize, 4, 8, 16] {
                            let what =
                                format!("period {period} {before}..{degrees} k {k} @{align}");
                            let runs: Vec<Range<usize>> =
                                live.added_since(before, k, align).collect();
                            // Ascending, disjoint, not touching, within `0..k`.
                            assert!(runs.iter().all(|r| r.start < r.end && r.end <= k), "{what}");
                            assert!(runs.windows(2).all(|w| w[0].end < w[1].start), "{what}");
                            // Every new unit is covered; every unit covered is new or lies
                            // in an `align`-block holding a new one.
                            let new = |u: usize| (before..degrees).contains(&(u % period));
                            let covered = |u: usize| runs.iter().any(|r| r.contains(&u));
                            for u in 0..k {
                                let block = u / align * align..((u / align + 1) * align).min(k);
                                assert_eq!(covered(u), block.clone().any(new), "{what}: {u}");
                            }
                        }
                    }
                }
            }
        }
        assert!((0..100).all(|u| LiveUnits::ALL.contains(u)));
    }

    #[test]
    fn made_mask_agrees_with_the_degree_rule_entry_by_entry() {
        // The three cases as the paper states them over unit degrees, against the rule's
        // one spelling (`forbidden`) read both ways: per entry and as per-row runs.
        type Want = fn(usize, usize, usize, usize) -> bool;
        for (period, d_emb, d_hidden) in [
            (1usize, 3usize, 8usize),
            (4, 5, 14),
            (26, 2, 40),
            (60, 1, 33),
        ] {
            let width = (period + 1) * d_emb;
            let cases: [(MadeMask, usize, usize, Want); 3] = [
                (
                    MadeMask::Input { period, d_emb },
                    width,
                    d_hidden,
                    |i, o, p, d| o % p >= i / d,
                ),
                (
                    MadeMask::Hidden { period },
                    d_hidden,
                    d_hidden,
                    |i, o, p, _| o % p >= i % p,
                ),
                (
                    MadeMask::Output { period, d_emb },
                    d_hidden,
                    width,
                    |i, o, p, d| i % p < o / d,
                ),
            ];
            for (mask, in_dim, out_dim, want) in cases {
                for i in 0..in_dim {
                    let forbidden: Vec<usize> = mask.forbidden_runs(i, out_dim).flatten().collect();
                    let expected: Vec<usize> = (0..out_dim)
                        .filter(|&o| !want(i, o, period, d_emb))
                        .collect();
                    assert_eq!(forbidden, expected, "{mask:?} row {i}");
                    for o in 0..out_dim {
                        assert_eq!(
                            mask.allows(i, o),
                            want(i, o, period, d_emb),
                            "{mask:?} ({i}, {o})"
                        );
                    }
                }
                // The tile form, for every tile shape and position `gemm_tn_acc` asks about.
                for (r, w) in [(1usize, 1usize), (2, 1), (2, 4), (1, 8), (2, 12), (2, 16)] {
                    for i in 0..(in_dim + 1).saturating_sub(r) {
                        for j in 0..(out_dim + 1).saturating_sub(w) {
                            let all_forbidden =
                                (i..i + r).all(|i| (j..j + w).all(|o| !mask.allows(i, o)));
                            assert_eq!(
                                mask.forbids_tile(i..i + r, j..j + w),
                                all_forbidden,
                                "{mask:?} tile {r}x{w} at ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// [`gemm_tn_acc`] under a rule against itself without one, for the three kinds of
    /// mask and a degree period shorter (JOB-light's 26) and longer (JOB-M's 60) than a
    /// register tile: an allowed entry gets the same bits, a forbidden one the same bits
    /// or none at all — and a good share of them none, or the rule bought nothing.
    #[test]
    fn masked_weight_gradient_skips_only_forbidden_entries() {
        const D_EMB: usize = 12;
        let mut seed = 0x5C1F_u64;
        for period in [26usize, 60] {
            let width = (period + 1) * D_EMB;
            for (mask, m, n) in [
                (
                    MadeMask::Input {
                        period,
                        d_emb: D_EMB,
                    },
                    width,
                    96usize,
                ),
                (MadeMask::Hidden { period }, 96, 96),
                (
                    MadeMask::Output {
                        period,
                        d_emb: D_EMB,
                    },
                    96,
                    width,
                ),
            ] {
                let k = 9;
                let a = lcg_matrix_sparse(k, m, &mut seed);
                let b = lcg_matrix(k, n, &mut seed);
                let start = lcg_matrix(m, n, &mut seed);
                let mut dense = start.clone();
                gemm_tn_acc(k, m, n, a.data(), b.data(), None, dense.data_mut());
                let mut masked = start.clone();
                gemm_tn_acc(k, m, n, a.data(), b.data(), Some(mask), masked.data_mut());
                let mut skipped = 0;
                for i in 0..m {
                    for o in 0..n {
                        let got = masked.get(i, o).to_bits();
                        let untouched = got == start.get(i, o).to_bits();
                        assert!(
                            got == dense.get(i, o).to_bits() || (untouched && !mask.allows(i, o)),
                            "{mask:?} ({i}, {o})"
                        );
                        skipped += usize::from(untouched);
                    }
                }
                assert!(skipped * 10 > m * n, "{mask:?}: {skipped} of {}", m * n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "row slab out of bounds")]
    fn accumulating_kernel_rejects_slab_past_the_operand() {
        let a = Matrix::zeros(1, 3);
        let b = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(1, 2);
        matmul_runs_acc(a.data(), &b, 2..5, std::iter::once(0..2), out.data_mut());
    }

    #[test]
    fn gemm_nt_accepts_prefix_of_taller_b() {
        // The logit head passes the first `domain` rows of a `(domain+1)`-row embedding
        // table; gemm_nt must only read the prefix it was told about.
        let mut seed = 99u64;
        let a = lcg_matrix(3, 6, &mut seed);
        let table = lcg_matrix(5, 6, &mut seed); // 5 rows, use only first 4
        let mut out = vec![0.0f32; 3 * 4];
        gemm_nt(3, 4, 6, a.data(), &table.data()[..4 * 6], &mut out);
        let mut expected = Matrix::zeros(3, 5);
        matmul_transpose_b(&a, &table, &mut expected);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(out[i * 4 + j].to_bits(), expected.get(i, j).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(2, 3);
        matmul(&a, &b, &mut out);
    }
}
