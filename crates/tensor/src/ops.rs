//! Free-standing vector operations shared by aggregators and models.
//!
//! These mirror the element-wise primitives the accelerator's MP units and
//! aggregation stages execute. They are plain functions (no trait dispatch)
//! so the hot simulation loops stay branch-predictable.
//!
//! `dot` dispatches between an [`F32x8`] SIMD body and the retained
//! scalar reference path in [`scalar`] (see [`crate::simd`] for the
//! determinism contract): it reassociates into a fixed lane-accumulator
//! tree and is pinned to the scalar result within 1e-6 by the property
//! tests. The element-wise kernels (`add_assign`, `max_assign`,
//! `min_assign`, `scale`, `axpy`, `relu`) are plain loops on both paths:
//! LLVM vectorizes them under x86-64-v3, and hand-written lane bodies
//! measured no faster.

use crate::simd::{scalar_kernels, F32x8, LANES};

/// The retained scalar reference path for every dispatching kernel.
///
/// These are the pre-SIMD loops, kept callable so the vectorized bodies
/// can be golden-tested against them and so `force_scalar` builds (and
/// the `--scalar-kernels` runtime toggle) reproduce historical numbers
/// exactly.
pub mod scalar {
    /// Scalar sequential dot product. See [`super::dot`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }
}

/// Adds `src` into `dst` element-wise (`dst += src`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Element-wise maximum into `dst` (`dst = max(dst, src)`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "max_assign length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.max(*s);
    }
}

/// Element-wise minimum into `dst` (`dst = min(dst, src)`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn min_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "min_assign length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.min(*s);
    }
}

/// Scales every element of `xs` by `k`.
pub fn scale(xs: &mut [f32], k: f32) {
    for x in xs {
        *x *= k;
    }
}

/// `dst += k * src` (axpy).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(dst: &mut [f32], k: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += k * s;
    }
}

/// Dot product.
///
/// The SIMD path accumulates into two lane vectors (even/odd 8-chunks)
/// and reduces through a fixed pairwise tree — deterministic, but
/// reassociated relative to [`scalar::dot`]; the property tests pin the
/// two paths together within 1e-6.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    if scalar_kernels() {
        return scalar::dot(a, b);
    }
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc0 = F32x8::ZERO;
    let mut acc1 = F32x8::ZERO;
    let mut i = 0;
    // Two independent accumulators hide the add latency; the chunk ->
    // accumulator assignment depends only on the length, keeping the
    // reduction order fixed for a given input size.
    while i + 2 * LANES <= a.len() {
        acc0 = F32x8::load(&a[i..]).fma(F32x8::load(&b[i..]), acc0);
        acc1 = F32x8::load(&a[i + LANES..]).fma(F32x8::load(&b[i + LANES..]), acc1);
        i += 2 * LANES;
    }
    if i + LANES <= a.len() {
        acc0 = F32x8::load(&a[i..]).fma(F32x8::load(&b[i..]), acc0);
        i += LANES;
    }
    if i < a.len() {
        // Masked tail: dead lanes contribute the sum identity 0.0.
        acc1 = F32x8::load_or(&a[i..], 0.0).fma(F32x8::load_or(&b[i..], 0.0), acc1);
    }
    (acc0 + acc1).horizontal_sum()
}

/// In-place ReLU: `xs[i] = max(xs[i], 0)`.
///
/// Bit-identical to [`crate::Activation::Relu`] applied element-wise.
pub fn relu(xs: &mut [f32]) {
    for x in xs {
        *x = x.max(0.0);
    }
}

/// Element-wise sum of two slices into a fresh vector.
///
/// Allocates; hot paths should use [`add_assign`] into a scratch slice.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// In-place numerically-stable softmax.
///
/// An empty slice is left unchanged. A row whose maximum is not finite
/// (any NaN or `+inf` element, or all elements `-inf`) has no
/// well-defined softmax in `f32`; such rows are returned **unchanged**
/// (deterministically) rather than silently divided by a `0.0`/NaN sum,
/// and a debug assertion fires so model bugs surface in development.
pub fn softmax(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    // `f32::max` returns the non-NaN operand, so the max alone cannot
    // detect a NaN element — track it alongside the reduction.
    let mut max = f32::NEG_INFINITY;
    let mut saw_nan = false;
    for &x in xs.iter() {
        saw_nan |= x.is_nan();
        max = max.max(x);
    }
    if saw_nan || !max.is_finite() {
        debug_assert!(
            false,
            "softmax over a non-finite row (max = {max}); row left unchanged"
        );
        return;
    }
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    // With a finite max, exp(0) = 1 is among the terms, so sum >= 1.
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// Concatenates slices into one vector.
///
/// Allocates; hot paths should write segments into a scratch slice.
pub fn concat(parts: &[&[f32]]) -> Vec<f32> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

/// Mean of the rows in `rows` (each of length `dim`); zeros if `rows` is
/// empty.
pub fn mean_of_rows<'a, I>(rows: I, dim: usize) -> Vec<f32>
where
    I: IntoIterator<Item = &'a [f32]>,
{
    let mut acc = vec![0.0; dim];
    let mut n = 0usize;
    for row in rows {
        add_assign(&mut acc, row);
        n += 1;
    }
    if n > 0 {
        scale(&mut acc, 1.0 / n as f32);
    }
    acc
}

/// L2 norm.
pub fn norm(xs: &[f32]) -> f32 {
    dot(xs, xs).sqrt()
}

/// Maximum absolute element-wise difference between two slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums() {
        let mut d = vec![1.0, 2.0];
        add_assign(&mut d, &[3.0, 4.0]);
        assert_eq!(d, vec![4.0, 6.0]);
    }

    #[test]
    fn max_min_assign() {
        let mut mx = vec![1.0, 5.0];
        max_assign(&mut mx, &[3.0, 2.0]);
        assert_eq!(mx, vec![3.0, 5.0]);
        let mut mn = vec![1.0, 5.0];
        min_assign(&mut mn, &[3.0, 2.0]);
        assert_eq!(mn, vec![1.0, 2.0]);
    }

    #[test]
    fn axpy_and_dot() {
        let mut d = vec![1.0, 1.0];
        axpy(&mut d, 2.0, &[1.0, -1.0]);
        assert_eq!(d, vec![3.0, -1.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn relu_clamps_in_place() {
        let mut xs: Vec<f32> = (0..13).map(|i| i as f32 - 6.0).collect();
        relu(&mut xs);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(*x, (i as f32 - 6.0).max(0.0));
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = [1.0, 2.0, 3.0];
        softmax(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[0] < xs[1] && xs[1] < xs[2]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = [1000.0, 1001.0];
        softmax(&mut a);
        let mut b = [0.0, 1.0];
        softmax(&mut b);
        assert!((a[0] - b[0]).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut xs: [f32; 0] = [];
        softmax(&mut xs);
    }

    #[test]
    fn softmax_tolerates_partial_neg_infinity() {
        // A -inf logit with a finite max is fine: it just gets weight 0.
        let mut xs = [f32::NEG_INFINITY, 0.0, 1.0];
        softmax(&mut xs);
        assert_eq!(xs[0], 0.0);
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite row")]
    fn softmax_non_finite_row_asserts_in_debug() {
        let mut xs = [f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax(&mut xs);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn softmax_non_finite_row_is_left_unchanged() {
        let mut all_neg_inf = [f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax(&mut all_neg_inf);
        assert!(all_neg_inf.iter().all(|x| *x == f32::NEG_INFINITY));
        let mut with_nan = [1.0, f32::NAN, 2.0];
        softmax(&mut with_nan);
        assert_eq!(with_nan[0], 1.0);
        assert!(with_nan[1].is_nan());
        assert_eq!(with_nan[2], 2.0);
    }

    #[test]
    fn mean_of_rows_averages() {
        let rows: Vec<&[f32]> = vec![&[1.0, 2.0], &[3.0, 4.0]];
        assert_eq!(mean_of_rows(rows, 2), vec![2.0, 3.0]);
    }

    #[test]
    fn mean_of_no_rows_is_zero() {
        let rows: Vec<&[f32]> = vec![];
        assert_eq!(mean_of_rows(rows, 3), vec![0.0; 3]);
    }

    #[test]
    fn concat_preserves_order() {
        assert_eq!(concat(&[&[1.0], &[2.0, 3.0]]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn norm_is_euclidean() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn max_abs_diff_finds_largest_gap() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 0.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
