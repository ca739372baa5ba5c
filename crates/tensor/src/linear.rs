//! Fully-connected (linear) layer.

use crate::simd::{self, F32x8, LANES};
use crate::{Activation, Matrix, WeightInit};

/// A fully-connected layer `y = act(W·x + b)`.
///
/// This is the workhorse of every node transformation in the paper's models
/// (GCN's linear transform, GIN's MLP layers, GAT's per-head projections,
/// PNA's towers, output heads). The weight matrix is stored `out × in`
/// row-major; [`Linear::forward_input_stationary`] mirrors the accelerator's
/// NT-unit schedule, in which each fetched *input* element updates the whole
/// output vector — the two orders produce different floating-point rounding,
/// so the simulator and the reference both use the input-stationary order to
/// keep cross-checks exact.
///
/// # Example
///
/// ```
/// use flowgnn_tensor::{Linear, Activation};
///
/// let layer = Linear::seeded(8, 4, Activation::Relu, 1);
/// let y = layer.forward(&vec![0.25; 8]);
/// assert_eq!(y.len(), 4);
/// assert!(y.iter().all(|&v| v >= 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Matrix,
    // Transposed copy (`in × out`, row-major, then `LANES` zeros) kept
    // alongside the canonical `out × in` matrix: the input-stationary
    // SIMD path streams one *contiguous* transposed row per nonzero input
    // instead of a strided column walk. The trailing zeros let the last
    // output tile of any row load a full lane vector.
    wt: Vec<f32>,
    bias: Vec<f32>,
    activation: Activation,
}

impl Linear {
    /// Creates a layer from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.rows()`.
    pub fn new(weight: Matrix, bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(
            bias.len(),
            weight.rows(),
            "bias length {} does not match {} output rows",
            bias.len(),
            weight.rows()
        );
        let mut wt = weight.transposed().into_vec();
        wt.resize(wt.len() + LANES, 0.0);
        Self {
            weight,
            wt,
            bias,
            activation,
        }
    }

    /// Creates a layer with Glorot-uniform weights from a seed.
    pub fn seeded(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        let mut init = WeightInit::new(seed);
        Self::from_init(in_dim, out_dim, activation, &mut init)
    }

    /// Creates a layer drawing parameters from an existing initialiser
    /// stream (used when a whole model shares one seed).
    pub fn from_init(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: &mut WeightInit,
    ) -> Self {
        // Draw order (matrix, then bias) is pinned by the weight goldens.
        let weight = init.matrix(out_dim, in_dim);
        let bias = init.bias(out_dim);
        Self::new(weight, bias, activation)
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix (`out × in`).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Number of multiply–accumulate operations per forward pass.
    ///
    /// Used by the baseline platform models and the resource estimator.
    pub fn macs(&self) -> u64 {
        (self.in_dim() as u64) * (self.out_dim() as u64)
    }

    /// Forward pass returning a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.forward_into(x, &mut out);
        out
    }

    /// Forward pass into a caller-provided buffer (resized to `out_dim`).
    ///
    /// Uses the input-stationary accumulation order (see type docs).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward_into(&self, x: &[f32], out: &mut Vec<f32>) {
        self.forward_input_stationary(x, out);
        self.activation.apply_slice(out);
    }

    /// The raw input-stationary accumulation *without* activation:
    /// `out = b; for each input element i: out += x[i] * W[:, i]`.
    ///
    /// This is exactly the loop the accelerator's NT unit executes
    /// (`P_apply` input elements per cycle); exposing it lets the simulator
    /// share the arithmetic while accounting cycles itself.
    ///
    /// The SIMD path runs the same schedule output-tiled, so the output
    /// never round-trips through memory per input. It first packs the
    /// nonzero inputs once, as `(x_i, offset of transposed row i)` in
    /// ascending `i` (up to 64 per pass, in a stack buffer). Then each
    /// output tile of 32 elements — 8-wide tiles, and one more 8-wide
    /// tile with discarded dead lanes for the tail — is loaded into
    /// registers, takes
    /// `acc += x_i * Wᵀ[i][tile]` for every packed input, and is stored
    /// once. Per output element the sum is still the bias, then the
    /// nonzero inputs in ascending order, each an unfused multiply and a
    /// rounded add, so both kernel paths are **bit-identical**,
    /// zero-skipping and signed zeros included.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward_input_stationary(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            x.len(),
            self.in_dim(),
            "input length {} does not match layer input dim {}",
            x.len(),
            self.in_dim()
        );
        out.clear();
        out.extend_from_slice(&self.bias);
        if simd::scalar_kernels() {
            // Retained reference path: strided column walk over the
            // canonical out × in matrix, exactly the pre-SIMD loop.
            for (i, xi) in x.iter().enumerate() {
                if *xi == 0.0 {
                    continue; // skip zero inputs; result identical, cheaper in sim
                }
                for (o, row) in out.iter_mut().zip(self.weight.iter_rows()) {
                    *o += xi * row[i];
                }
            }
            return;
        }
        let o = out.as_mut_slice();
        let mut packed = [(0.0f32, 0usize); PACKED];
        let mut n = 0;
        for (i, xi) in x.iter().enumerate() {
            if *xi == 0.0 {
                continue; // skip zero inputs; result identical, cheaper in sim
            }
            packed[n] = (*xi, i * o.len());
            n += 1;
            if n == PACKED {
                accumulate_tiles(o, &self.wt, &packed);
                n = 0;
            }
        }
        accumulate_tiles(o, &self.wt, &packed[..n]);
    }
}

/// Output elements per register tile of the SIMD `Linear` path: four
/// [`F32x8`] accumulators, which stay in registers across every packed
/// input of a pass.
const TILE: usize = 4 * LANES;

/// Nonzero inputs packed per pass of the SIMD `Linear` path. The buffer
/// is a stack array; a wider input runs as several passes, each of which
/// reloads and re-stores the output once, so no width allocates.
const PACKED: usize = 64;

/// `o[j] += x * wt[off + j]` for every packed `(x, off)` in order, one
/// output tile at a time: 32-wide register tiles, then 8-wide ones. The
/// last `< 8` outputs run as one more 8-wide tile through a stack copy:
/// its dead lanes read past the end of each weight row (into the next
/// row, or the trailing zeros of `wt`) and are never stored back. Each
/// tile is loaded and stored once per pass.
fn accumulate_tiles(o: &mut [f32], wt: &[f32], packed: &[(f32, usize)]) {
    if packed.is_empty() {
        return;
    }
    let mut t = 0;
    while t + TILE <= o.len() {
        accumulate_tile::<4>(&mut o[t..t + TILE], wt, packed, t);
        t += TILE;
    }
    while t + LANES <= o.len() {
        accumulate_tile::<1>(&mut o[t..t + LANES], wt, packed, t);
        t += LANES;
    }
    let live = o.len() - t;
    if live > 0 {
        let mut tail = [0.0f32; LANES];
        tail[..live].copy_from_slice(&o[t..]);
        accumulate_tile::<1>(&mut tail, wt, packed, t);
        o[t..].copy_from_slice(&tail[..live]);
    }
}

/// One register tile: `N` lane vectors of outputs, which start at column
/// `t` of every transposed weight row.
#[inline(always)]
fn accumulate_tile<const N: usize>(
    tile: &mut [f32],
    wt: &[f32],
    packed: &[(f32, usize)],
    t: usize,
) {
    let mut acc: [F32x8; N] = std::array::from_fn(|v| F32x8::load(&tile[v * LANES..]));
    for &(xi, off) in packed {
        let k = F32x8::splat(xi);
        let row = &wt[off + t..off + t + N * LANES];
        for (v, a) in acc.iter_mut().enumerate() {
            *a = F32x8::load(&row[v * LANES..]).fma(k, *a);
        }
    }
    for (v, a) in acc.iter().enumerate() {
        a.store(&mut tile[v * LANES..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Linear {
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        Linear::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
            vec![0.5, -0.5],
            Activation::Identity,
        )
    }

    #[test]
    fn forward_matches_manual() {
        let y = tiny().forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn input_stationary_matches_matvec_order() {
        let layer = Linear::seeded(17, 9, Activation::Identity, 11);
        let x: Vec<f32> = (0..17).map(|i| (i as f32 * 0.37).sin()).collect();
        let expected: Vec<f32> = layer
            .weight()
            .matvec(&x)
            .iter()
            .zip(layer.bias())
            .map(|(v, b)| v + b)
            .collect();
        let got = layer.forward(&x);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-4, "{g} vs {e}");
        }
    }

    #[test]
    fn activation_is_applied() {
        let layer = Linear::new(Matrix::from_rows(&[&[1.0]]), vec![0.0], Activation::Relu);
        assert_eq!(layer.forward(&[-5.0]), vec![0.0]);
    }

    #[test]
    fn zero_input_elements_are_skippable() {
        let layer = tiny();
        let dense = layer.forward(&[0.0, 2.0]);
        assert_eq!(dense, vec![4.5, 7.5]);
    }

    #[test]
    fn macs_counts_products() {
        assert_eq!(Linear::seeded(100, 100, Activation::Relu, 0).macs(), 10_000);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_input_length_panics() {
        tiny().forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn mismatched_bias_panics() {
        Linear::new(Matrix::zeros(2, 2), vec![0.0], Activation::Identity);
    }

    #[test]
    fn forward_into_reuses_buffer() {
        let layer = tiny();
        let mut buf = vec![9.0; 17];
        layer.forward_into(&[1.0, 1.0], &mut buf);
        assert_eq!(buf, vec![3.5, 6.5]);
    }
}
