//! Properties of the in-tree `tanh`, the single implementation behind
//! `Prim::Tanh`, `gelu` and `gelu_grad`. Bitwise properties use
//! `to_bits`, so `-0.0` and `0.0` are distinct here.

use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
use raxpp_ir::{tanh, Tensor};

/// The stated accuracy bound against `f64` tanh rounded to `f32`.
const MAX_ULP: u32 = 4;

/// Every `stride`-th non-negative finite `f32` bit pattern, ascending.
fn sweep(stride: usize) -> impl Iterator<Item = f32> {
    (0..f32::INFINITY.to_bits())
        .step_by(stride)
        .map(f32::from_bits)
}

/// `2·window+1` consecutive floats centred on `x` (all non-negative).
fn around(x: f32, window: u32) -> impl Iterator<Item = f32> {
    let b = x.to_bits();
    (b.saturating_sub(window)..=b + window).map(f32::from_bits)
}

/// Distance in units in the last place between two finite floats of
/// the same sign.
fn ulps(a: f32, b: f32) -> u32 {
    a.to_bits().abs_diff(b.to_bits())
}

fn reference(x: f32) -> f32 {
    (x as f64).tanh() as f32
}

/// Inputs where the implementation changes regime, each swept ulp by
/// ulp: the linear cut-off, the `2^n` steps of the range reduction
/// (`2|x|·log₂e` integral), the saturation clamp, the first input
/// whose tanh rounds to 1, and the subnormal/normal boundary.
fn seams() -> Vec<f32> {
    let mut s = vec![1.0 / 4096.0, 9.1, 9.011, f32::MIN_POSITIVE, 0.5, 1.0];
    s.extend((1..=26).map(|n| n as f32 / (2.0 * std::f32::consts::LOG2_E)));
    s
}

#[test]
fn odd_bitwise() {
    for x in sweep(4099).chain(seams().into_iter().flat_map(|s| around(s, 64))) {
        assert_eq!(
            tanh(-x).to_bits(),
            (-tanh(x)).to_bits(),
            "tanh(-x) != -tanh(x) at x = {x:e}"
        );
    }
}

#[test]
fn bounded_and_monotone() {
    // Dense strided sweep over every binade, then ulp-by-ulp windows
    // across each seam, where a composed approximation is most likely
    // to step backwards.
    let mut prev = f32::NEG_INFINITY;
    for x in sweep(257) {
        let t = tanh(x);
        assert!(t.abs() <= 1.0, "|tanh({x:e})| = {t} > 1");
        assert!(t >= prev, "tanh decreases at {x:e}: {t} < {prev}");
        prev = t;
    }
    for seam in seams() {
        let mut prev = f32::NEG_INFINITY;
        for x in around(seam, 4096) {
            let t = tanh(x);
            assert!(t.abs() <= 1.0);
            assert!(t >= prev, "tanh decreases at {x:e} near {seam:e}");
            prev = t;
        }
    }
}

#[test]
fn special_values() {
    assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert!(tanh(f32::NAN).is_nan());
    assert!(tanh(-f32::NAN).is_nan());
    assert_eq!(tanh(f32::INFINITY), 1.0);
    assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
    assert_eq!(tanh(f32::MAX), 1.0);
    let tiny = f32::from_bits(1);
    assert_eq!(tanh(tiny), tiny, "subnormals are their own tanh");
}

#[test]
fn within_stated_ulp_bound() {
    let mut worst = (0, 0.0f32);
    for x in sweep(257).chain(seams().into_iter().flat_map(|s| around(s, 4096))) {
        let u = ulps(tanh(x), reference(x));
        if u > worst.0 {
            worst = (u, x);
        }
    }
    assert!(
        worst.0 <= MAX_ULP,
        "tanh is {} ulp off at {:e} (bound {MAX_ULP})",
        worst.0,
        worst.1
    );
}

/// The bound and monotonicity over every non-negative `f32` (odd
/// symmetry covers the rest). About 30 s in a release build:
/// `cargo test --release -p raxpp-ir --test tanh -- --ignored`.
#[test]
#[ignore = "exhaustive over 2^31 inputs; run in release"]
fn exhaustive_bound_and_monotone() {
    let mut prev = f32::NEG_INFINITY;
    for x in sweep(1) {
        let t = tanh(x);
        assert!(t >= prev, "tanh decreases at {x:e}");
        let u = ulps(t, reference(x));
        assert!(u <= MAX_ULP, "tanh is {u} ulp off at {x:e}");
        prev = t;
    }
}

#[test]
fn vectorised_map_matches_scalar_calls() {
    // 1021 elements: a prime, so every vector width leaves a ragged tail.
    let mut rng = StdRng::seed_from_u64(0x7A4);
    let mut data: Vec<f32> = (0..1021)
        .map(|i| match i % 5 {
            0 => rng.gen_range(-1e-3f32..1e-3),
            1 => rng.gen_range(-12.0f32..12.0),
            _ => rng.gen_range(-3.0f32..3.0),
        })
        .collect();
    data[..6].copy_from_slice(&[0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1e-40, -1e-40]);
    // An opaque function pointer keeps the reference loop scalar.
    let scalar: fn(f32) -> f32 = std::hint::black_box(tanh);
    let want: Vec<u32> = data.iter().map(|&x| scalar(x).to_bits()).collect();
    let t = Tensor::from_vec([data.len()], data).unwrap();

    let mapped = t.map(tanh);
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&mapped), want, "map");

    let (in_place, reused) = t.map_into(tanh);
    assert!(reused, "the only handle's buffer is rewritten in place");
    assert_eq!(bits(&in_place), want, "map_into");
}
