//! Explicit-width SIMD lane layer on stable Rust.
//!
//! [`F32x8`] is a `[f32; 8]` wrapper whose element-wise operations are
//! written as fixed-trip-count loops so LLVM compiles them to packed
//! vector instructions at `opt-level >= 2` — no intrinsics, no `unsafe`,
//! no third-party dependency, and therefore no portability cliff: on a
//! target without 256-bit registers the same code lowers to two 128-bit
//! ops or stays scalar, with identical results.
//!
//! # Tail-masking convention
//!
//! Kernels process `LANES`-sized chunks with `F32x8` and finish the
//! remainder one of two ways:
//!
//! * **discarded dead lanes** — the output tiles of
//!   [`crate::Linear::forward`] run the leftover `< LANES` outputs
//!   through a full lane vector (the weight buffer ends in `LANES`
//!   zeros, so its loads stay in bounds) and store back only the live
//!   lanes, each of which computes the same expression as the scalar
//!   path, so results are bit-identical to it;
//! * **masked load** — reductions (`dot`) widen the tail with
//!   [`F32x8::load_or`], padding dead lanes with the reduction's
//!   identity (`0.0` for sums) so the fixed lane-reduction tree sees a
//!   full vector.
//!
//! The element-wise kernels of [`crate::ops`] have no lane body: LLVM
//! vectorizes their plain loops, which measured at least as fast.
//!
//! # Determinism
//!
//! `fma` here is deliberately *unfused* (`a * b + c` as two rounded
//! operations). `f32::mul_add` would change rounding versus the scalar
//! path and, on targets without a hardware FMA, fall back to a slow
//! libm call. Reductions use a fixed accumulator layout and a fixed
//! pairwise reduction tree, so every kernel is deterministic across
//! runs and platforms — reassociation relative to the scalar path is
//! the only difference, and it is pinned to 1e-6 by the property tests.
//!
//! # Kernel-path selection
//!
//! The scalar reference path stays selectable two ways:
//!
//! * compile time — the `force_scalar` cargo feature routes every
//!   dispatching kernel to [`crate::ops::scalar`];
//! * run time — [`set_scalar_kernels`] flips a process-wide switch
//!   (used by `repro --scalar-kernels` and the differential tests).
//!
//! [`kernel_path`] reports which path the next kernel call will take,
//! so benchmark output can attribute numbers to a code path.

use std::sync::atomic::{AtomicBool, Ordering};

/// Lane width of [`F32x8`]; also the [`FeatureArena`] stride quantum.
///
/// [`FeatureArena`]: ../../flowgnn_graph/struct.FeatureArena.html
pub const LANES: usize = 8;

/// Process-wide runtime override selecting the scalar kernel path.
static RUNTIME_SCALAR: AtomicBool = AtomicBool::new(false);

/// Selects the scalar kernel path at run time (`true`) or the SIMD path
/// (`false`, the default). Has no effect under the `force_scalar`
/// feature, which pins the scalar path at compile time.
///
/// The switch is process-wide; flip it before spawning worker threads
/// (the `repro` binary sets it once while parsing arguments).
pub fn set_scalar_kernels(scalar: bool) {
    RUNTIME_SCALAR.store(scalar, Ordering::Relaxed);
}

/// Whether dispatching kernels currently take the scalar path.
#[inline]
pub fn scalar_kernels() -> bool {
    cfg!(feature = "force_scalar") || RUNTIME_SCALAR.load(Ordering::Relaxed)
}

/// Name of the kernel path the next dispatching call will take:
/// `"simd"` or `"scalar"`. Recorded in benchmark headers so every
/// reported number is attributable to a code path.
pub fn kernel_path() -> &'static str {
    if scalar_kernels() {
        "scalar"
    } else {
        "simd"
    }
}

/// Eight `f32` lanes with element-wise arithmetic.
///
/// See the module docs for the autovectorization and determinism
/// contract. All operations are plain safe Rust over the backing array.
///
/// # Example
///
/// ```
/// use flowgnn_tensor::simd::F32x8;
///
/// let a = F32x8::splat(2.0);
/// let b = F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
/// assert_eq!(a.fma(b, F32x8::ZERO).horizontal_sum(), 2.0 * 36.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32x8([f32; LANES]);

impl F32x8 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0.0; LANES]);

    /// Broadcasts `v` into every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Loads the first [`LANES`] elements of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < LANES`.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let mut lanes = [0.0; LANES];
        lanes.copy_from_slice(&src[..LANES]);
        Self(lanes)
    }

    /// Masked tail load: the first `src.len()` lanes come from `src`,
    /// the rest are `fill` (the reduction identity — see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() > LANES`.
    #[inline(always)]
    pub fn load_or(src: &[f32], fill: f32) -> Self {
        let mut lanes = [fill; LANES];
        lanes[..src.len()].copy_from_slice(src);
        Self(lanes)
    }

    /// Stores all lanes into the first [`LANES`] elements of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < LANES`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// Lane-wise *unfused* multiply-add `self * b + c` (two rounded
    /// ops, matching the scalar path — see module docs).
    #[inline(always)]
    pub fn fma(self, b: Self, c: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] * b.0[i] + c.0[i]))
    }

    /// Sum of all lanes via a fixed pairwise tree
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — deterministic
    /// regardless of how the vector was produced.
    #[inline(always)]
    pub fn horizontal_sum(self) -> f32 {
        let l = self.0;
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }

    /// The backing lane array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; LANES] {
        self.0
    }
}

/// Lane-wise addition.
impl std::ops::Add for F32x8 {
    type Output = Self;

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
}

impl From<[f32; LANES]> for F32x8 {
    fn from(lanes: [f32; LANES]) -> Self {
        Self(lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f32; 8] = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0];
    const B: [f32; 8] = [0.5, 0.5, -0.5, -0.5, 2.0, 2.0, -2.0, -2.0];

    #[test]
    fn lanewise_ops_match_scalar() {
        let (a, b) = (F32x8::from(A), F32x8::from(B));
        for i in 0..LANES {
            assert_eq!((a + b).to_array()[i], A[i] + B[i]);
            assert_eq!(a.fma(b, a).to_array()[i], A[i] * B[i] + A[i]);
        }
    }

    #[test]
    fn horizontal_sum_reduces_all_lanes() {
        assert_eq!(F32x8::from(A).horizontal_sum(), -4.0);
    }

    #[test]
    fn masked_load_fills_dead_lanes() {
        let v = F32x8::load_or(&[1.0, 2.0, 3.0], 0.0);
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(F32x8::load_or(&[], 7.0).to_array(), [7.0; 8]);
    }

    #[test]
    fn load_store_round_trip() {
        let mut buf = [0.0; 10];
        F32x8::load(&A).store(&mut buf);
        assert_eq!(&buf[..8], &A);
        assert_eq!(&buf[8..], &[0.0, 0.0]);
    }

    #[test]
    fn splat_broadcasts() {
        assert_eq!(F32x8::splat(3.5).to_array(), [3.5; 8]);
    }

    #[test]
    fn kernel_path_names_are_stable() {
        // Don't flip the runtime switch here (other tests in this
        // process compute through the dispatching kernels); just check
        // the reported name is one of the two contract strings.
        assert!(matches!(kernel_path(), "simd" | "scalar"));
        if cfg!(feature = "force_scalar") {
            assert_eq!(kernel_path(), "scalar");
        }
    }
}
