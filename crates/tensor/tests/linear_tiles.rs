//! The register-tiled SIMD `Linear` kernel against the scalar kernel
//! path, bit for bit, over random shapes and inputs.
//!
//! This binary holds a single test because it flips the process-wide
//! kernel switch: no other test may run inside its scalar window.

use flowgnn_rng::Rng;
use flowgnn_tensor::simd::set_scalar_kernels;
use flowgnn_tensor::{Activation, Linear, Matrix};

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// An input in which each element is a zero with probability
/// `zero_density`; half of those zeros are `-0.0`.
fn input(rng: &mut Rng, len: usize, zero_density: f64) -> Vec<f32> {
    (0..len)
        .map(|_| match (rng.gen_bool(zero_density), rng.gen_bool(0.5)) {
            (true, true) => -0.0,
            (true, false) => 0.0,
            (false, _) => rng.gen_range(-2.0f32..=2.0),
        })
        .collect()
}

/// A layer with random weights and a bias holding a `-0.0` entry, which
/// survives as `-0.0` only while no nonzero input reaches it.
fn layer(rng: &mut Rng, in_dim: usize, out_dim: usize, activation: Activation) -> Linear {
    let weight = Matrix::from_vec(
        out_dim,
        in_dim,
        (0..out_dim * in_dim)
            .map(|_| rng.gen_range(-1.0f32..=1.0))
            .collect(),
    );
    let mut bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-1.0f32..=1.0)).collect();
    let j = rng.gen_range(0..out_dim);
    bias[j] = -0.0;
    Linear::new(weight, bias, activation)
}

#[test]
fn tiled_linear_is_bit_identical_to_the_scalar_path() {
    let mut rng = Rng::seed_from_u64(0x711E5);
    // Every residue of out_dim modulo the 32-wide register tile (and so
    // modulo the 8-wide lane tile), once below 32 (`out_dim < 8` among
    // them) and once above, plus fully random shapes. in_dim reaches
    // 300, so dense inputs overflow the stack buffer of packed nonzero
    // inputs and run as several packing passes.
    let mut shapes: Vec<(usize, usize)> = Vec::new();
    for r in 1..=32usize {
        shapes.push((rng.gen_range(1..=300), r));
        shapes.push((
            rng.gen_range(1..=300),
            32 * rng.gen_range(1..=8usize) + r % 32,
        ));
    }
    for _ in 0..32 {
        shapes.push((rng.gen_range(1..=300), rng.gen_range(1..=300)));
    }
    shapes.push((300, 300));

    let mut cases = Vec::new();
    for (in_dim, out_dim) in shapes {
        for activation in [Activation::Identity, Activation::Relu] {
            let layer = layer(&mut rng, in_dim, out_dim, activation);
            for zero_density in [0.0, 0.5, 1.0] {
                let x = input(&mut rng, in_dim, zero_density);
                cases.push((layer.clone(), x, zero_density));
            }
        }
    }

    let simd: Vec<Vec<f32>> = cases.iter().map(|(l, x, _)| l.forward(x)).collect();
    set_scalar_kernels(true);
    let scalar: Vec<Vec<f32>> = cases.iter().map(|(l, x, _)| l.forward(x)).collect();
    set_scalar_kernels(false);

    for ((layer, _, zero_density), (s, r)) in cases.iter().zip(simd.iter().zip(&scalar)) {
        assert_eq!(
            bits(s),
            bits(r),
            "linear {}->{} {} zero density {zero_density}",
            layer.in_dim(),
            layer.out_dim(),
            layer.activation()
        );
    }
    // The all-zero inputs leave the `-0.0` bias entry untouched.
    let untouched = cases
        .iter()
        .zip(&simd)
        .filter(|((l, _, d), _)| *d == 1.0 && l.activation() == Activation::Identity)
        .all(|((l, _, _), y)| bits(y) == bits(l.bias()));
    assert!(
        untouched,
        "an all-zero input must return the bias bit for bit"
    );
}
