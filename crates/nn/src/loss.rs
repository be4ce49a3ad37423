//! Softmax cross-entropy, the maximum-likelihood training objective (paper §3.2).

use crate::tensor::Matrix;

/// Computes the mean softmax cross-entropy loss of a batch of logits against integer
/// targets, and writes the gradient with respect to the logits into `dlogits`.
///
/// * `logits`: `batch × domain`
/// * `targets[b]`: the true class of row `b`
/// * `dlogits`: same shape as `logits`; overwritten with `∂loss/∂logits` (already divided by
///   the batch size, so it can be fed straight into the backward pass).
///
/// Returns the mean negative log-likelihood in nats.
pub fn softmax_cross_entropy(logits: &Matrix, targets: &[u32], dlogits: &mut Matrix) -> f32 {
    let scale = 1.0 / logits.rows().max(1) as f32;
    let mut total_loss = 0.0f64;
    softmax_cross_entropy_rows(logits, targets, scale, &mut total_loss, dlogits);
    (total_loss * f64::from(scale)) as f32
}

/// [`softmax_cross_entropy`] over a chunk of the rows of a larger batch: `scale` is one
/// over the whole batch's size, and each row's negative log-likelihood is added to
/// `total_loss`, which the caller carries from chunk to chunk in row order and finally
/// multiplies by `scale` — the one f64 chain the whole batch in one call would add.
pub(crate) fn softmax_cross_entropy_rows(
    logits: &Matrix,
    targets: &[u32],
    scale: f32,
    total_loss: &mut f64,
    dlogits: &mut Matrix,
) {
    assert_eq!(logits.rows(), targets.len());
    assert_eq!(logits.rows(), dlogits.rows());
    assert_eq!(logits.cols(), dlogits.cols());
    let batch = logits.rows();
    let domain = logits.cols();
    #[expect(
        clippy::needless_range_loop,
        reason = "`b` walks three parallel buffers (logits, targets, dlogits), not `targets` alone"
    )]
    for b in 0..batch {
        let row = logits.row(b);
        let target = targets[b] as usize;
        assert!(target < domain, "target {target} outside domain {domain}");
        // Numerically stable log-softmax.
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum_exp = 0.0f32;
        for &v in row {
            sum_exp += (v - max).exp();
        }
        let log_z = max + sum_exp.ln();
        *total_loss += f64::from(log_z - row[target]);
        let drow = dlogits.row_mut(b);
        for (j, d) in drow.iter_mut().enumerate() {
            let p = (row[j] - log_z).exp();
            *d = scale * (p - if j == target { 1.0 } else { 0.0 });
        }
    }
}

/// Row-wise softmax probabilities (used at inference time by progressive sampling).
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    softmax_rows_into(logits, &mut out);
    out
}

/// [`softmax_rows`] into a caller-owned buffer (resized to match), so the inference hot
/// path can reuse one probability matrix across forward passes.
pub fn softmax_rows_into(logits: &Matrix, out: &mut Matrix) {
    out.resize(logits.rows(), logits.cols());
    softmax_rows_slice(logits.cols(), logits.data(), out.data_mut());
}

/// [`softmax_rows_into`] over row-major rows of `width` logits, into an `out` as long.
pub(crate) fn softmax_rows_slice(width: usize, logits: &[f32], out: &mut [f32]) {
    if width == 0 {
        return;
    }
    for (row, out_row) in logits.chunks_exact(width).zip(out.chunks_exact_mut(width)) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in out_row.iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        if sum > 0.0 {
            for o in out_row.iter_mut() {
                *o /= sum;
            }
        }
    }
}

/// Element `code` of [`softmax_rows_slice`] over the one row `logits`, computed without
/// writing the row: the same max, the same exponentials summed in the same order, the
/// same division — so the same bits.
pub(crate) fn softmax_at(logits: &[f32], code: usize) -> f32 {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let sum = logits.iter().fold(0.0f32, |sum, &v| sum + (v - max).exp());
    let p = (logits[code] - max).exp();
    if sum > 0.0 {
        p / sum
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_at_is_an_element_of_softmax_rows_bitwise() {
        let rows: [&[f32]; 4] = [
            &[0.2, -0.4, 1.0, 7.5, -3.25],
            &[-1e30, 0.0, 1e-7],
            &[88.0, 88.0, -88.0, 3.0],
            &[0.5],
        ];
        for row in rows {
            let mut all = vec![0.0f32; row.len()];
            softmax_rows_slice(row.len(), row, &mut all);
            for (code, p) in all.iter().enumerate() {
                assert_eq!(
                    softmax_at(row, code).to_bits(),
                    p.to_bits(),
                    "{row:?} {code}"
                );
            }
        }
    }

    #[test]
    fn uniform_logits_give_log_domain_loss() {
        let logits = Matrix::zeros(4, 8);
        let targets = vec![0u32, 3, 5, 7];
        let mut d = Matrix::zeros(4, 8);
        let loss = softmax_cross_entropy(&logits, &targets, &mut d);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero and the target entry is negative.
        for (b, &target) in targets.iter().enumerate() {
            let s: f32 = d.row(b).iter().sum();
            assert!(s.abs() < 1e-5);
            assert!(d.get(b, target as usize) < 0.0);
        }
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Matrix::zeros(1, 3);
        logits.set(0, 1, 10.0);
        let mut d = Matrix::zeros(1, 3);
        let loss = softmax_cross_entropy(&logits, &[1], &mut d);
        assert!(loss < 1e-3);
        let wrong = softmax_cross_entropy(&logits, &[0], &mut d);
        assert!(wrong > 5.0);
    }

    #[test]
    fn gradient_matches_numerical_estimate() {
        let logits = Matrix::from_vec(1, 3, vec![0.2, -0.4, 1.0]);
        let targets = [2u32];
        let mut d = Matrix::zeros(1, 3);
        let base = softmax_cross_entropy(&logits, &targets, &mut d);
        let eps = 1e-3;
        for j in 0..3 {
            let mut perturbed = logits.clone();
            perturbed.set(0, j, perturbed.get(0, j) + eps);
            let mut scratch = Matrix::zeros(1, 3);
            let l2 = softmax_cross_entropy(&perturbed, &targets, &mut scratch);
            let numeric = (l2 - base) / eps;
            assert!(
                (numeric - d.get(0, j)).abs() < 1e-2,
                "j={j}: numeric {numeric} vs analytic {}",
                d.get(0, j)
            );
        }
    }

    #[test]
    fn softmax_rows_normalises() {
        let logits = Matrix::from_vec(2, 3, vec![0.0, 1.0, 2.0, -1.0, -1.0, -1.0]);
        let p = softmax_rows(&logits);
        for b in 0..2 {
            let s: f32 = p.row(b).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(p.get(0, 2) > p.get(0, 0));
        assert!((p.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_rows_into_matches_and_reuses_buffer() {
        let logits = Matrix::from_vec(2, 3, vec![0.0, 1.0, 2.0, -1.0, 0.5, -1.0]);
        let fresh = softmax_rows(&logits);
        // A stale, wrongly-shaped buffer must be resized and fully overwritten.
        let mut reused = Matrix::from_vec(1, 5, vec![9.0; 5]);
        softmax_rows_into(&logits, &mut reused);
        assert_eq!(fresh, reused);
        // And bit-identical on a second reuse.
        softmax_rows_into(&logits, &mut reused);
        for (a, b) in fresh.data().iter().zip(reused.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn row_chunks_continue_one_loss_chain() {
        let data = (0..7 * 5)
            .map(|i| ((i * 37 % 11) as f32 - 5.0) * 0.7)
            .collect();
        let logits = Matrix::from_vec(7, 5, data);
        let targets = [0u32, 4, 2, 2, 1, 3, 0];
        let mut whole = Matrix::zeros(7, 5);
        let loss = softmax_cross_entropy(&logits, &targets, &mut whole);
        let scale = 1.0 / 7.0;
        let mut total = 0.0f64;
        for rows in [0..3usize, 3..3, 3..7] {
            let chunk = Matrix::from_vec(
                rows.len(),
                5,
                logits.data()[rows.start * 5..rows.end * 5].to_vec(),
            );
            let mut d = Matrix::zeros(rows.len(), 5);
            softmax_cross_entropy_rows(&chunk, &targets[rows.clone()], scale, &mut total, &mut d);
            assert_eq!(d.data(), &whole.data()[rows.start * 5..rows.end * 5]);
        }
        assert_eq!(
            ((total * f64::from(scale)) as f32).to_bits(),
            loss.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn bad_target_panics() {
        let logits = Matrix::zeros(1, 2);
        let mut d = Matrix::zeros(1, 2);
        softmax_cross_entropy(&logits, &[5], &mut d);
    }
}
