//! Architecture-dispatched kernels for the **fast** inference tier.
//!
//! The exact tier ([`crate::made::ResMade::conditional_probs_into`]) calls the scalar
//! kernels in [`crate::tensor`] directly and is pinned bit-for-bit against the training
//! path.  The fast tier ([`crate::made::ResMade::conditional_probs_step`] with
//! `fast_kernels` set) routes the same GEMM shapes — plus the softmax normalisation —
//! through this module, which picks the widest implementation the running CPU supports:
//!
//! | kernel            | portable fallback        | x86_64 (`simd`)   | aarch64 (`simd`) |
//! |-------------------|--------------------------|-------------------|------------------|
//! | `matmul_blocked`  | scalar blocked (tensor)  | AVX2 + FMA, 4-row × 16-col broadcast-FMA tiles | NEON, 4-lane |
//! | `matmul_blocked_acc`| scalar blocked (tensor) | the `matmul_blocked` tiles, accumulators loaded from `out` | NEON, same |
//! | `matmul_col_range`| scalar blocked (tensor)  | AVX2 + FMA        | NEON             |
//! | `matmul_col_range_live`, `matmul_units_live` | the same kernels over a step's live inner units, the second written in place (tensor) | the same tiles, live inner runs walked | NEON, same |
//! | `gemm_nt`         | scalar blocked (tensor)  | AVX2 + FMA horizontal dot | NEON |
//! | `softmax_rows_into`| scalar (loss)           | AVX2 max/scale, scalar `exp` | NEON |
//!
//! Dispatch is decided **once** per process: with the `simd` feature enabled on x86_64,
//! the first call probes `avx2`+`fma` via `is_x86_feature_detected!` and caches the
//! verdict in an atomic; on aarch64 NEON is part of the baseline ISA, so no probe is
//! needed.  Without the feature the portable fallback is selected at compile time.
//!
//! **Determinism contract (two-tier):** the portable fallback *is* the [`crate::tensor`] /
//! [`crate::loss`] kernel set, so with `simd` *off* the fast tier is still bit-identical
//! to the exact tier (pinned by the `dispatched_kernels_bit_identical_without_simd`
//! test).  The SIMD paths reassociate the f32 reductions (8 or 4 partial sums per chain)
//! and therefore do **not** promise bit-identity — fast-tier estimates are instead gated
//! by the q-error-delta bound (`neurocard::QERROR_DELTA_BOUND`, asserted by that crate's
//! tests on both legs of the feature).  See `docs/kernels.md`.
//!
//! All `core::arch` use in the workspace lives in this one file: the workspace denies
//! `unsafe_code`, and this module alone expects it, under `simd` (`docs/lints.md`).

use std::ops::Range;

use crate::loss;
use crate::tensor::{self, LiveUnits, Matrix};

/// Instruction set chosen by [`isa`] for the fast-tier kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The exact-tier scalar kernels themselves.
    Portable,
    /// 256-bit AVX2 with fused multiply-add (x86_64, runtime-detected).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2Fma,
    /// 128-bit NEON (aarch64 baseline, no probe needed).
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    Neon,
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn isa() -> Isa {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = not probed yet, 1 = portable, 2 = AVX2+FMA.  Probing twice under a race is
    // harmless (the verdict is a pure function of the CPU), so Relaxed suffices.
    static PROBED: AtomicU8 = AtomicU8::new(0);
    match PROBED.load(Ordering::Relaxed) {
        1 => Isa::Portable,
        2 => Isa::Avx2Fma,
        _ => {
            let isa = if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                Isa::Avx2Fma
            } else {
                Isa::Portable
            };
            PROBED.store(if isa == Isa::Avx2Fma { 2 } else { 1 }, Ordering::Relaxed);
            isa
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
fn isa() -> Isa {
    Isa::Neon
}

#[cfg(not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn isa() -> Isa {
    Isa::Portable
}

/// Human-readable name of the implementation the fast tier will run on this machine —
/// recorded by `bench/nc_benchmark` so its record says what was measured.
pub fn isa_name() -> &'static str {
    match isa() {
        Isa::Portable => "portable",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2Fma => "avx2+fma",
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        Isa::Neon => "neon",
    }
}

/// Fast-tier `out = a (m×k) · b (k×n)`; same shape contract as
/// [`crate::tensor::matmul_blocked`].
pub fn matmul_blocked(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(out.rows(), a.rows());
    assert_eq!(out.cols(), b.cols());
    let n = b.cols();
    if !simd_rows::<false>(a, b.data(), n, 0..n, LiveUnits::ALL, out.data_mut(), n) {
        tensor::matmul_blocked(a, b, out);
    }
}

/// Fast-tier `out += a · b[row0..row0 + a.cols(), :]`; same shape contract as
/// [`crate::tensor::matmul_blocked_acc`].
pub fn matmul_blocked_acc(a: &Matrix, b: &Matrix, row0: usize, out: &mut Matrix) {
    assert!(
        row0 + a.cols() <= b.rows(),
        "row slab out of bounds of the right operand"
    );
    assert_eq!(out.rows(), a.rows());
    assert_eq!(out.cols(), b.cols());
    let (n, slab) = (b.cols(), &b.data()[row0 * b.cols()..]);
    if !simd_rows::<true>(a, slab, n, 0..n, LiveUnits::ALL, out.data_mut(), n) {
        tensor::matmul_blocked_acc(a, b, row0, out);
    }
}

/// Fast-tier `out = a · b[:, lo..hi]`; same shape contract as
/// [`crate::tensor::matmul_col_range`].
pub fn matmul_col_range(a: &Matrix, b: &Matrix, lo: usize, hi: usize, out: &mut Matrix) {
    matmul_col_range_live(a, b, lo, hi, LiveUnits::ALL, out);
}

/// Fast-tier [`crate::tensor::matmul_col_range_live`]; same contract.
pub fn matmul_col_range_live(
    a: &Matrix,
    b: &Matrix,
    lo: usize,
    hi: usize,
    live: LiveUnits,
    out: &mut Matrix,
) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert!(lo <= hi && hi <= b.cols(), "column slice out of bounds");
    assert_eq!(out.rows(), a.rows());
    assert_eq!(out.cols(), hi - lo);
    if !simd_rows::<false>(a, b.data(), b.cols(), lo..hi, live, out.data_mut(), hi - lo) {
        tensor::matmul_col_range_live(a, b, lo, hi, live, out);
    }
}

/// Fast-tier [`crate::tensor::matmul_units_live`]; same contract.
pub fn matmul_units_live(
    a: &Matrix,
    b: &Matrix,
    units: Range<usize>,
    live: LiveUnits,
    out: &mut Matrix,
) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert!(units.end <= b.cols(), "unit range out of bounds");
    assert_eq!(out.rows(), a.rows());
    assert_eq!(out.cols(), b.cols());
    if units.is_empty() || a.rows() == 0 {
        return;
    }
    let (n, from) = (b.cols(), units.start);
    if !simd_rows::<false>(
        a,
        b.data(),
        n,
        units.clone(),
        live,
        &mut out.data_mut()[from..],
        n,
    ) {
        tensor::matmul_units_live(a, b, units, live, out);
    }
}

/// The SIMD row kernel dispatch picked: for every row `r` of `a` and `j < cols.len()`,
/// `out[r·os + j]` (`ACC`: `+=`, else `=`) `Σ_p a[r][p] · b[p·bn + cols.start + j]` over the
/// `live` inner units — or `false`, with nothing computed, when dispatch resolved to the
/// portable kernels, whose `tensor` counterpart the caller then runs.  Checks every bound
/// the kernels' pointer arithmetic relies on.
#[cfg_attr(
    not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))),
    expect(
        unused_variables,
        reason = "without a SIMD module every call resolves to the portable kernels"
    )
)]
fn simd_rows<const ACC: bool>(
    a: &Matrix,
    b: &[f32],
    bn: usize,
    cols: Range<usize>,
    live: LiveUnits,
    out: &mut [f32],
    os: usize,
) -> bool {
    let (m, k) = (a.rows(), a.cols());
    assert!(
        cols.end <= bn && cols.len() <= os,
        "column range out of bounds"
    );
    assert!(b.len() >= k * bn, "b too short for k×bn");
    assert!(
        m == 0 || out.len() >= (m - 1) * os + cols.len(),
        "out too short"
    );
    match isa() {
        Isa::Portable => false,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2Fma => {
            // SAFETY: `isa()` returned Avx2Fma, so the CPU was probed for avx2+fma; the
            // asserts above are the rest of `matmul_rows`'s contract.
            unsafe { avx2::matmul_rows::<ACC>(m, k, bn, a.data(), b, cols, live, out, os) };
            true
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        Isa::Neon => {
            // SAFETY: NEON is part of the aarch64 baseline ISA; the asserts above are the
            // rest of `matmul_rows`'s contract.
            unsafe { neon::matmul_rows::<ACC>(m, k, bn, a.data(), b, cols, live, out, os) };
            true
        }
    }
}

/// Fast-tier `out (m×n) = a (m×k) · bᵀ (n×k)`; same shape contract as
/// [`crate::tensor::gemm_nt`].
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k, "a too short for m×k");
    assert!(b.len() >= n * k, "b too short for n×k");
    assert!(out.len() >= m * n, "out too short for m×n");
    match isa() {
        Isa::Portable => tensor::gemm_nt(m, n, k, a, b, out),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `isa()` returned Avx2Fma, so the CPU was probed for avx2+fma.
        Isa::Avx2Fma => unsafe { avx2::gemm_nt(m, n, k, a, b, out) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        // SAFETY: NEON is part of the aarch64 baseline ISA.
        Isa::Neon => unsafe { neon::gemm_nt(m, n, k, a, b, out) },
    }
}

/// Fast-tier row-wise softmax; same contract as [`crate::loss::softmax_rows_into`]
/// (resizes `out`, fully overwrites it).
pub fn softmax_rows_into(logits: &Matrix, out: &mut Matrix) {
    match isa() {
        Isa::Portable => loss::softmax_rows_into(logits, out),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `isa()` returned Avx2Fma, so the CPU was probed for avx2+fma.
        Isa::Avx2Fma => unsafe {
            out.resize(logits.rows(), logits.cols());
            for r in 0..logits.rows() {
                avx2::softmax_row(logits.row(r), out.row_mut(r));
            }
        },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        // SAFETY: NEON is part of the aarch64 baseline ISA.
        Isa::Neon => unsafe {
            out.resize(logits.rows(), logits.cols());
            for r in 0..logits.rows() {
                neon::softmax_row(logits.row(r), out.row_mut(r));
            }
        },
    }
}

/// AVX2 + FMA implementations (x86_64, runtime-gated).
///
/// Every function is `unsafe` because it compiles with `target_feature(enable =
/// "avx2,fma")`; callers must have verified support via [`isa`].  Slice bounds are the
/// same invariants the dispatch wrappers assert, so all pointer arithmetic stays inside
/// the slices.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use core::arch::x86_64::{
        __m256, _mm256_broadcast_ss, _mm256_castps256_ps128, _mm256_extractf128_ps,
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_max_ps,
        _mm_max_ss, _mm_movehdup_ps, _mm_movehl_ps,
    };

    use std::ops::Range;

    use crate::tensor::LiveUnits;

    /// Horizontal sum of the 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let shuf = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, shuf))
    }

    /// Horizontal max of the 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hmax(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let m = _mm_max_ps(lo, hi);
        let shuf = _mm_movehdup_ps(m);
        let m = _mm_max_ps(m, shuf);
        let shuf = _mm_movehl_ps(shuf, m);
        _mm_cvtss_f32(_mm_max_ss(m, shuf))
    }

    /// Initial value of an 8-lane accumulator whose result is stored at `dst`: what is
    /// already there when accumulating, zero otherwise.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn start<const ACC: bool>(dst: *const f32) -> __m256 {
        if ACC {
            _mm256_loadu_ps(dst)
        } else {
            _mm256_setzero_ps()
        }
    }

    /// `out[:, 0..w] = a (m×k) · b[:, cols]` where `b` is `k×bn` row-major, `w` is
    /// `cols.len()` and `out` rows are `os` apart.  Serves `matmul_blocked` (`cols =
    /// 0..bn`), `matmul_col_range_live`, `matmul_units_live` (`out` starting at a column of
    /// a wider matrix) and — with `ACC`, which starts every accumulator at `out` instead of
    /// zero — `matmul_blocked_acc`.
    ///
    /// Register blocking: 4 `a` rows × 16 output columns per micro-tile — 8 independent
    /// FMA accumulator chains (enough to cover FMA latency at 2/cycle) sharing every
    /// 2-register `b` panel load, which also cuts `b` traffic 4× versus row-at-a-time.
    /// The inner loop is branch-free: at these matrix sizes the occasional zero in `a`
    /// (post-ReLU activations) costs less as a wasted FMA than as a data-dependent
    /// branch in the hot loop.
    ///
    /// Only `live` inner units are walked, in ascending runs.  Every output element is one
    /// ascending chain of FMAs, and an FMA with a zero weight returns its accumulator, so
    /// leaving out masked weights changes no bit.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and FMA; `a` holds `m` rows of `k`, `b` holds `k` rows of
    /// `bn` with `cols.end <= bn`, and `out` holds `(m − 1)·os + cols.len()` elements.
    #[expect(
        clippy::too_many_arguments,
        reason = "a register-tile kernel takes its shape, operands and strides unbundled"
    )]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_rows<const ACC: bool>(
        m: usize,
        k: usize,
        bn: usize,
        a: &[f32],
        b: &[f32],
        cols: Range<usize>,
        live: LiveUnits,
        out: &mut [f32],
        os: usize,
    ) {
        let (lo, w) = (cols.start, cols.len());
        let mut i = 0;
        while i + 4 <= m {
            let a0 = a.as_ptr().add(i * k);
            let a1 = a.as_ptr().add((i + 1) * k);
            let a2 = a.as_ptr().add((i + 2) * k);
            let a3 = a.as_ptr().add((i + 3) * k);
            let o = out.as_mut_ptr().add(i * os);
            let mut j = 0;
            while j + 16 <= w {
                let mut c00 = start::<ACC>(o.add(j));
                let mut c01 = start::<ACC>(o.add(j + 8));
                let mut c10 = start::<ACC>(o.add(os + j));
                let mut c11 = start::<ACC>(o.add(os + j + 8));
                let mut c20 = start::<ACC>(o.add(2 * os + j));
                let mut c21 = start::<ACC>(o.add(2 * os + j + 8));
                let mut c30 = start::<ACC>(o.add(3 * os + j));
                let mut c31 = start::<ACC>(o.add(3 * os + j + 8));
                for run in live.runs(k) {
                    for p in run {
                        let base = b.as_ptr().add(p * bn + lo + j);
                        let b0 = _mm256_loadu_ps(base);
                        let b1 = _mm256_loadu_ps(base.add(8));
                        let va = _mm256_broadcast_ss(&*a0.add(p));
                        c00 = _mm256_fmadd_ps(va, b0, c00);
                        c01 = _mm256_fmadd_ps(va, b1, c01);
                        let va = _mm256_broadcast_ss(&*a1.add(p));
                        c10 = _mm256_fmadd_ps(va, b0, c10);
                        c11 = _mm256_fmadd_ps(va, b1, c11);
                        let va = _mm256_broadcast_ss(&*a2.add(p));
                        c20 = _mm256_fmadd_ps(va, b0, c20);
                        c21 = _mm256_fmadd_ps(va, b1, c21);
                        let va = _mm256_broadcast_ss(&*a3.add(p));
                        c30 = _mm256_fmadd_ps(va, b0, c30);
                        c31 = _mm256_fmadd_ps(va, b1, c31);
                    }
                }
                _mm256_storeu_ps(o.add(j), c00);
                _mm256_storeu_ps(o.add(j + 8), c01);
                _mm256_storeu_ps(o.add(os + j), c10);
                _mm256_storeu_ps(o.add(os + j + 8), c11);
                _mm256_storeu_ps(o.add(2 * os + j), c20);
                _mm256_storeu_ps(o.add(2 * os + j + 8), c21);
                _mm256_storeu_ps(o.add(3 * os + j), c30);
                _mm256_storeu_ps(o.add(3 * os + j + 8), c31);
                j += 16;
            }
            while j + 8 <= w {
                let mut c0 = start::<ACC>(o.add(j));
                let mut c1 = start::<ACC>(o.add(os + j));
                let mut c2 = start::<ACC>(o.add(2 * os + j));
                let mut c3 = start::<ACC>(o.add(3 * os + j));
                for run in live.runs(k) {
                    for p in run {
                        let vb = _mm256_loadu_ps(b.as_ptr().add(p * bn + lo + j));
                        c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a0.add(p)), vb, c0);
                        c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a1.add(p)), vb, c1);
                        c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a2.add(p)), vb, c2);
                        c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a3.add(p)), vb, c3);
                    }
                }
                _mm256_storeu_ps(o.add(j), c0);
                _mm256_storeu_ps(o.add(os + j), c1);
                _mm256_storeu_ps(o.add(2 * os + j), c2);
                _mm256_storeu_ps(o.add(3 * os + j), c3);
                j += 8;
            }
            while j < w {
                for r in 0..4 {
                    let ar = a.as_ptr().add((i + r) * k);
                    let mut acc = if ACC { *o.add(r * os + j) } else { 0.0f32 };
                    for run in live.runs(k) {
                        for p in run {
                            acc += *ar.add(p) * b[p * bn + lo + j];
                        }
                    }
                    *o.add(r * os + j) = acc;
                }
                j += 1;
            }
            i += 4;
        }
        // Remainder rows, one at a time.
        while i < m {
            let a_row = &a[i * k..i * k + k];
            let out_row = &mut out[i * os..i * os + w];
            let mut j = 0;
            while j + 16 <= w {
                let mut c0 = start::<ACC>(out_row.as_ptr().add(j));
                let mut c1 = start::<ACC>(out_row.as_ptr().add(j + 8));
                for run in live.runs(k) {
                    for p in run {
                        let base = b.as_ptr().add(p * bn + lo + j);
                        let va = _mm256_broadcast_ss(&a_row[p]);
                        c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base), c0);
                        c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(8)), c1);
                    }
                }
                _mm256_storeu_ps(out_row.as_mut_ptr().add(j), c0);
                _mm256_storeu_ps(out_row.as_mut_ptr().add(j + 8), c1);
                j += 16;
            }
            while j + 8 <= w {
                let mut c = start::<ACC>(out_row.as_ptr().add(j));
                for run in live.runs(k) {
                    for p in run {
                        c = _mm256_fmadd_ps(
                            _mm256_broadcast_ss(&a_row[p]),
                            _mm256_loadu_ps(b.as_ptr().add(p * bn + lo + j)),
                            c,
                        );
                    }
                }
                _mm256_storeu_ps(out_row.as_mut_ptr().add(j), c);
                j += 8;
            }
            while j < w {
                let mut acc = if ACC { out_row[j] } else { 0.0f32 };
                for run in live.runs(k) {
                    for p in run {
                        acc += a_row[p] * b[p * bn + lo + j];
                    }
                }
                out_row[j] = acc;
                j += 1;
            }
            i += 1;
        }
    }

    /// `out (m×n) = a (m×k) · bᵀ (n×k)`: 8-wide FMA dot products, four `b` rows per pass
    /// so each `a` load is reused.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..i * k + k];
            let out_row = &mut out[i * n..i * n + n];
            let mut j = 0;
            while j + 4 <= n {
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                let mut acc2 = _mm256_setzero_ps();
                let mut acc3 = _mm256_setzero_ps();
                let b0 = b.as_ptr().add(j * k);
                let b1 = b.as_ptr().add((j + 1) * k);
                let b2 = b.as_ptr().add((j + 2) * k);
                let b3 = b.as_ptr().add((j + 3) * k);
                let mut p = 0;
                while p + 8 <= k {
                    let va = _mm256_loadu_ps(a_row.as_ptr().add(p));
                    acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b0.add(p)), acc0);
                    acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b1.add(p)), acc1);
                    acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b2.add(p)), acc2);
                    acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b3.add(p)), acc3);
                    p += 8;
                }
                let mut s = [hsum(acc0), hsum(acc1), hsum(acc2), hsum(acc3)];
                while p < k {
                    let av = a_row[p];
                    s[0] += av * *b0.add(p);
                    s[1] += av * *b1.add(p);
                    s[2] += av * *b2.add(p);
                    s[3] += av * *b3.add(p);
                    p += 1;
                }
                out_row[j..j + 4].copy_from_slice(&s);
                j += 4;
            }
            while j < n {
                let b_row = b.as_ptr().add(j * k);
                let mut acc = _mm256_setzero_ps();
                let mut p = 0;
                while p + 8 <= k {
                    acc = _mm256_fmadd_ps(
                        _mm256_loadu_ps(a_row.as_ptr().add(p)),
                        _mm256_loadu_ps(b_row.add(p)),
                        acc,
                    );
                    p += 8;
                }
                let mut s = hsum(acc);
                while p < k {
                    s += a_row[p] * *b_row.add(p);
                    p += 1;
                }
                out_row[j] = s;
                j += 1;
            }
        }
    }

    /// One softmax row: vectorised max reduction, scalar `exp` (accuracy — a polynomial
    /// `exp` would add its own error on top of the reassociated reductions), vectorised
    /// `1/sum` scale.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn softmax_row(row: &[f32], out: &mut [f32]) {
        let n = row.len();
        let mut max = f32::NEG_INFINITY;
        let mut p = 0;
        if n >= 8 {
            let mut vmax = _mm256_loadu_ps(row.as_ptr());
            p = 8;
            while p + 8 <= n {
                vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row.as_ptr().add(p)));
                p += 8;
            }
            max = hmax(vmax);
        }
        while p < n {
            max = max.max(row[p]);
            p += 1;
        }
        let mut sum = 0.0f32;
        for (o, &v) in out.iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        if sum > 0.0 {
            let inv = 1.0 / sum;
            let vinv = _mm256_set1_ps(inv);
            let mut p = 0;
            while p + 8 <= n {
                let v = _mm256_loadu_ps(out.as_ptr().add(p));
                _mm256_storeu_ps(out.as_mut_ptr().add(p), _mm256_mul_ps(v, vinv));
                p += 8;
            }
            while p < n {
                out[p] *= inv;
                p += 1;
            }
        }
    }
}

/// NEON implementations (aarch64; part of the baseline ISA, so no runtime probe).
///
/// `unsafe` for the same reason as the AVX2 module: `target_feature` + raw pointer loads
/// whose bounds the dispatch wrappers assert.
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    use core::arch::aarch64::{
        float32x4_t, vaddvq_f32, vdupq_n_f32, vfmaq_f32, vld1q_f32, vmaxnmvq_f32, vmaxq_f32,
        vmulq_f32, vst1q_f32,
    };

    use std::ops::Range;

    use crate::tensor::LiveUnits;

    /// Initial value of a 4-lane accumulator whose result is stored at `dst`: what is
    /// already there when accumulating, zero otherwise.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn start<const ACC: bool>(dst: *const f32) -> float32x4_t {
        if ACC {
            vld1q_f32(dst)
        } else {
            vdupq_n_f32(0.0)
        }
    }

    /// See `avx2::matmul_rows`; one row at a time, 4-lane panels instead of 8, zero `a`
    /// entries skipped.
    ///
    /// # Safety
    ///
    /// As `avx2::matmul_rows`, NEON in place of AVX2 and FMA.
    #[expect(
        clippy::too_many_arguments,
        reason = "a register-tile kernel takes its shape, operands and strides unbundled"
    )]
    #[target_feature(enable = "neon")]
    pub unsafe fn matmul_rows<const ACC: bool>(
        m: usize,
        k: usize,
        bn: usize,
        a: &[f32],
        b: &[f32],
        cols: Range<usize>,
        live: LiveUnits,
        out: &mut [f32],
        os: usize,
    ) {
        let (lo, w) = (cols.start, cols.len());
        for i in 0..m {
            let a_row = &a[i * k..i * k + k];
            let out_row = &mut out[i * os..i * os + w];
            let mut j = 0;
            while j + 16 <= w {
                let dst = out_row.as_mut_ptr().add(j);
                let mut acc0 = start::<ACC>(dst);
                let mut acc1 = start::<ACC>(dst.add(4));
                let mut acc2 = start::<ACC>(dst.add(8));
                let mut acc3 = start::<ACC>(dst.add(12));
                for run in live.runs(k) {
                    for p in run {
                        let a_ip = a_row[p];
                        if a_ip == 0.0 {
                            continue;
                        }
                        let va = vdupq_n_f32(a_ip);
                        let base = b.as_ptr().add(p * bn + lo + j);
                        acc0 = vfmaq_f32(acc0, va, vld1q_f32(base));
                        acc1 = vfmaq_f32(acc1, va, vld1q_f32(base.add(4)));
                        acc2 = vfmaq_f32(acc2, va, vld1q_f32(base.add(8)));
                        acc3 = vfmaq_f32(acc3, va, vld1q_f32(base.add(12)));
                    }
                }
                vst1q_f32(dst, acc0);
                vst1q_f32(dst.add(4), acc1);
                vst1q_f32(dst.add(8), acc2);
                vst1q_f32(dst.add(12), acc3);
                j += 16;
            }
            while j + 4 <= w {
                let mut acc = start::<ACC>(out_row.as_ptr().add(j));
                for run in live.runs(k) {
                    for p in run {
                        let a_ip = a_row[p];
                        if a_ip == 0.0 {
                            continue;
                        }
                        acc = vfmaq_f32(
                            acc,
                            vdupq_n_f32(a_ip),
                            vld1q_f32(b.as_ptr().add(p * bn + lo + j)),
                        );
                    }
                }
                vst1q_f32(out_row.as_mut_ptr().add(j), acc);
                j += 4;
            }
            while j < w {
                let mut acc = if ACC { out_row[j] } else { 0.0f32 };
                for run in live.runs(k) {
                    for p in run {
                        let a_ip = a_row[p];
                        if a_ip == 0.0 {
                            continue;
                        }
                        acc += a_ip * b[p * bn + lo + j];
                    }
                }
                out_row[j] = acc;
                j += 1;
            }
        }
    }

    /// See `avx2::gemm_nt`; 4-wide FMA dot products.
    #[target_feature(enable = "neon")]
    pub unsafe fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..i * k + k];
            let out_row = &mut out[i * n..i * n + n];
            let mut j = 0;
            while j + 4 <= n {
                let mut acc0 = vdupq_n_f32(0.0);
                let mut acc1 = vdupq_n_f32(0.0);
                let mut acc2 = vdupq_n_f32(0.0);
                let mut acc3 = vdupq_n_f32(0.0);
                let b0 = b.as_ptr().add(j * k);
                let b1 = b.as_ptr().add((j + 1) * k);
                let b2 = b.as_ptr().add((j + 2) * k);
                let b3 = b.as_ptr().add((j + 3) * k);
                let mut p = 0;
                while p + 4 <= k {
                    let va = vld1q_f32(a_row.as_ptr().add(p));
                    acc0 = vfmaq_f32(acc0, va, vld1q_f32(b0.add(p)));
                    acc1 = vfmaq_f32(acc1, va, vld1q_f32(b1.add(p)));
                    acc2 = vfmaq_f32(acc2, va, vld1q_f32(b2.add(p)));
                    acc3 = vfmaq_f32(acc3, va, vld1q_f32(b3.add(p)));
                    p += 4;
                }
                let mut s = [
                    vaddvq_f32(acc0),
                    vaddvq_f32(acc1),
                    vaddvq_f32(acc2),
                    vaddvq_f32(acc3),
                ];
                while p < k {
                    let av = a_row[p];
                    s[0] += av * *b0.add(p);
                    s[1] += av * *b1.add(p);
                    s[2] += av * *b2.add(p);
                    s[3] += av * *b3.add(p);
                    p += 1;
                }
                out_row[j..j + 4].copy_from_slice(&s);
                j += 4;
            }
            while j < n {
                let b_row = b.as_ptr().add(j * k);
                let mut acc = vdupq_n_f32(0.0);
                let mut p = 0;
                while p + 4 <= k {
                    acc = vfmaq_f32(
                        acc,
                        vld1q_f32(a_row.as_ptr().add(p)),
                        vld1q_f32(b_row.add(p)),
                    );
                    p += 4;
                }
                let mut s = vaddvq_f32(acc);
                while p < k {
                    s += a_row[p] * *b_row.add(p);
                    p += 1;
                }
                out_row[j] = s;
                j += 1;
            }
        }
    }

    /// See `avx2::softmax_row`.
    #[target_feature(enable = "neon")]
    pub unsafe fn softmax_row(row: &[f32], out: &mut [f32]) {
        let n = row.len();
        let mut max = f32::NEG_INFINITY;
        let mut p = 0;
        if n >= 4 {
            let mut vmax = vld1q_f32(row.as_ptr());
            p = 4;
            while p + 4 <= n {
                vmax = vmaxq_f32(vmax, vld1q_f32(row.as_ptr().add(p)));
                p += 4;
            }
            max = vmaxnmvq_f32(vmax);
        }
        while p < n {
            max = max.max(row[p]);
            p += 1;
        }
        let mut sum = 0.0f32;
        for (o, &v) in out.iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        if sum > 0.0 {
            let inv = 1.0 / sum;
            let vinv = vdupq_n_f32(inv);
            let mut p = 0;
            while p + 4 <= n {
                vst1q_f32(
                    out.as_mut_ptr().add(p),
                    vmulq_f32(vld1q_f32(out.as_ptr().add(p)), vinv),
                );
                p += 4;
            }
            while p < n {
                out[p] *= inv;
                p += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::testing::{assert_live_kernels_match_dense, lcg_matrix};

    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 5),
        (3, 16, 8),
        (4, 24, 30),
        (5, 32, 97),
        (17, 6, 4),
        (2, 180, 33),
        (6, 64, 64),
    ];

    #[test]
    fn isa_name_is_stable() {
        let name = isa_name();
        assert!(["portable", "avx2+fma", "neon"].contains(&name));
        // The probe is cached: a second call must agree.
        assert_eq!(isa_name(), name);
    }

    /// With `simd` off, every dispatched kernel resolves to the portable fallback and
    /// must agree with the exact-tier kernels bit-for-bit.
    #[cfg(not(feature = "simd"))]
    #[test]
    fn dispatched_kernels_bit_identical_without_simd() {
        assert_eq!(isa_name(), "portable");
        let mut seed = 0xD15A_u64;
        for &(m, k, n) in SHAPES {
            let a = lcg_matrix(m, k, &mut seed);
            let b = lcg_matrix(k, n, &mut seed);
            let mut reference = Matrix::zeros(m, n);
            tensor::matmul_blocked(&a, &b, &mut reference);
            let mut fast = Matrix::zeros(m, n);
            matmul_blocked(&a, &b, &mut fast);
            for (x, y) in reference.data().iter().zip(fast.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }

            let lo = n / 3;
            let hi = (2 * n / 3).max(lo);
            let mut ref_slice = Matrix::zeros(m, hi - lo);
            tensor::matmul_col_range(&a, &b, lo, hi, &mut ref_slice);
            let mut fast_slice = Matrix::zeros(m, hi - lo);
            matmul_col_range(&a, &b, lo, hi, &mut fast_slice);
            for (x, y) in ref_slice.data().iter().zip(fast_slice.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }

            let bt = lcg_matrix(n, k, &mut seed);
            let mut ref_nt = vec![0.0f32; m * n];
            tensor::gemm_nt(m, n, k, a.data(), bt.data(), &mut ref_nt);
            let mut fast_nt = vec![0.0f32; m * n];
            gemm_nt(m, n, k, a.data(), bt.data(), &mut fast_nt);
            for (x, y) in ref_nt.iter().zip(&fast_nt) {
                assert_eq!(x.to_bits(), y.to_bits());
            }

            let logits = lcg_matrix(m, n, &mut seed);
            let mut ref_sm = Matrix::zeros(0, 0);
            loss::softmax_rows_into(&logits, &mut ref_sm);
            let mut fast_sm = Matrix::zeros(0, 0);
            softmax_rows_into(&logits, &mut fast_sm);
            for (x, y) in ref_sm.data().iter().zip(fast_sm.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Whatever ISA dispatch picks, results must agree with the exact-tier kernels to
    /// tight relative tolerance — SIMD reassociation moves only the last few ulps at
    /// these reduction lengths.
    #[test]
    fn dispatched_kernels_match_reference_numerically() {
        fn assert_close(x: f32, y: f32, what: &str) {
            let tol = 1e-5 * x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= tol, "{what}: {x} vs {y}");
        }
        let mut seed = 0xACC0_u64;
        for &(m, k, n) in SHAPES {
            let a = lcg_matrix(m, k, &mut seed);
            let b = lcg_matrix(k, n, &mut seed);
            let mut reference = Matrix::zeros(m, n);
            tensor::matmul_blocked(&a, &b, &mut reference);
            let mut fast = Matrix::zeros(m, n);
            fast.data_mut().iter_mut().for_each(|v| *v = f32::NAN); // must be overwritten
            matmul_blocked(&a, &b, &mut fast);
            for (x, y) in reference.data().iter().zip(fast.data()) {
                assert_close(*x, *y, &format!("matmul_blocked {m}x{k}x{n}"));
            }

            let lo = n / 3;
            let hi = (2 * n / 3).max(lo);
            let mut ref_slice = Matrix::zeros(m, hi - lo);
            tensor::matmul_col_range(&a, &b, lo, hi, &mut ref_slice);
            let mut fast_slice = Matrix::zeros(m, hi - lo);
            matmul_col_range(&a, &b, lo, hi, &mut fast_slice);
            for (x, y) in ref_slice.data().iter().zip(fast_slice.data()) {
                assert_close(*x, *y, &format!("matmul_col_range {m}x{k}x{n}"));
            }

            let bt = lcg_matrix(n, k, &mut seed);
            let mut ref_nt = vec![0.0f32; m * n];
            tensor::gemm_nt(m, n, k, a.data(), bt.data(), &mut ref_nt);
            let mut fast_nt = vec![f32::NAN; m * n];
            gemm_nt(m, n, k, a.data(), bt.data(), &mut fast_nt);
            for (x, y) in ref_nt.iter().zip(&fast_nt) {
                assert_close(*x, *y, &format!("gemm_nt {m}x{k}x{n}"));
            }

            let logits = lcg_matrix(m, n, &mut seed);
            let mut ref_sm = Matrix::zeros(0, 0);
            loss::softmax_rows_into(&logits, &mut ref_sm);
            let mut fast_sm = Matrix::from_vec(1, 2, vec![9.0; 2]); // stale shape: must resize
            softmax_rows_into(&logits, &mut fast_sm);
            assert_eq!((fast_sm.rows(), fast_sm.cols()), (m, n));
            for r in 0..m {
                let s: f32 = fast_sm.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "softmax row {r} sums to {s}");
            }
            for (x, y) in ref_sm.data().iter().zip(fast_sm.data()) {
                assert_close(*x, *y, &format!("softmax {m}x{n}"));
            }
        }
    }

    /// Whatever ISA dispatch picks, leaving out masked weights changes no bit: the scalar
    /// kernels skip `±0.0` terms, and an FMA with a zero weight returns its accumulator.
    #[test]
    fn dispatched_live_kernels_match_dense_bitwise() {
        assert_live_kernels_match_dense(matmul_units_live, matmul_col_range_live);
    }

    /// The accumulating kernel extends whatever `out` holds by a row slab of `b`: close to
    /// the exact-tier kernel under any ISA, and the very same bits when dispatch resolves
    /// to the portable fallback.
    #[test]
    fn dispatched_acc_kernel_matches_tensor() {
        let mut seed = 0xACC1_u64;
        for &(m, k, n) in SHAPES {
            let b = lcg_matrix(k + 3, n, &mut seed);
            for (row0, width) in [(0, k), (3, k), (1, 0)] {
                let a = lcg_matrix(m, width, &mut seed);
                let mut reference = lcg_matrix(m, n, &mut seed);
                let mut fast = reference.clone();
                tensor::matmul_blocked_acc(&a, &b, row0, &mut reference);
                matmul_blocked_acc(&a, &b, row0, &mut fast);
                for (x, y) in reference.data().iter().zip(fast.data()) {
                    let tol = 1e-5 * x.abs().max(y.abs()).max(1.0);
                    assert!(
                        (x - y).abs() <= tol,
                        "acc {m}x{width}x{n}@{row0}: {x} vs {y}"
                    );
                    #[cfg(not(feature = "simd"))]
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    /// `gemm_nt` must only read the `n×k` prefix of `b` (the logit head passes the first
    /// `domain` rows of a `domain+1`-row embedding table).
    #[test]
    fn gemm_nt_accepts_prefix_of_taller_b() {
        let mut seed = 77u64;
        let a = lcg_matrix(3, 19, &mut seed);
        let table = lcg_matrix(6, 19, &mut seed);
        let mut expected = vec![0.0f32; 3 * 5];
        tensor::gemm_nt(3, 5, 19, a.data(), &table.data()[..5 * 19], &mut expected);
        let mut out = vec![0.0f32; 3 * 5];
        gemm_nt(3, 5, 19, a.data(), &table.data()[..5 * 19], &mut out);
        for (x, y) in expected.iter().zip(&out) {
            let tol = 1e-5 * x.abs().max(1.0);
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(2, 3);
        matmul_blocked(&a, &b, &mut out);
    }
}
