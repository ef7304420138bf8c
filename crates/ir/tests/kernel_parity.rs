//! Kernel-parity suite: the blocked/parallel matmul, batched matmul,
//! and transpose kernels must be **bit-identical** to the seed repo's
//! naive serial kernels on every shape — including edge tiles, unit
//! dimensions, empty tensors, and any thread count. Bit-identity (not
//! `allclose`) is the contract that makes pipelined training
//! reproducible against the single-device reference.

use raxpp_ir::kernels::{MR, PAR_MIN_MACS};
use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
use raxpp_ir::{set_num_threads, Tensor};

/// A tensor with a mix of magnitudes, exact zeros, and negatives —
/// zeros exercise the naive kernel's zero-skip fast path, whose only
/// effect may be `-0.0` vs `0.0` (equal under f32 `==`).
fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let numel: usize = shape.iter().product();
    let data: Vec<f32> = (0..numel)
        .map(|_| match rng.gen_range(0u64..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-3.0f32..3.0),
        })
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Shapes chosen to hit every code path of the blocked kernels (tiles
/// are `MR`×`NR` = 6×64): full register tiles, ragged edge tiles in
/// both dimensions, unit dims, and empty tensors. All of these run
/// serially (below `PAR_MIN_MACS`).
const MATMUL_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 7, 1),
    (1, 1, 17),
    (4, 16, 16),   // one ragged tile: 4 of 6 rows, 16 of 64 columns (one whole zmm)
    (5, 3, 17),    // ragged in m and n: 17 columns = one zmm + one masked lane
    (7, 13, 31),   // all-odd: a full-height tile over a 1-row edge
    (12, 32, 128), // whole 6×64 tiles only (2×2 of them)
    (3, 1, 5),     // k = 1: single-term reductions
    (33, 29, 47),  // edge tiles on every boundary
    (128, 64, 96), // multi-panel, still serial: 786,432 MACs
    (0, 4, 4),     // empty m
    (4, 0, 4),     // empty k: output must be all zeros
    (4, 4, 0),     // empty n
];

/// Shapes above `PAR_MIN_MACS`, so `matmul` splits rows across threads
/// whenever the host has more than one core. Their ragged `m` puts
/// every 2-thread chunk boundary off a multiple of `MR`, so a tile
/// straddles each boundary in the single-threaded run but not in the
/// split one.
const THREADED_MATMUL_SHAPES: &[(usize, usize, usize)] = &[
    (137, 89, 96),  // chunks of 69 rows; one full and one 32-column panel
    (205, 71, 130), // chunks of 103 rows; a 2-column edge panel
    (1000, 40, 30), // chunks of 500 rows; every panel is a masked edge
];

#[test]
fn matmul_blocked_matches_naive_bitwise() {
    for &(m, k, n) in THREADED_MATMUL_SHAPES {
        assert!(m * k * n >= PAR_MIN_MACS, "({m},{k},{n}) runs serially");
        assert!(
            !m.div_ceil(2).is_multiple_of(MR),
            "({m},{k},{n}) splits on a tile"
        );
    }
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for &(m, k, n) in MATMUL_SHAPES.iter().chain(THREADED_MATMUL_SHAPES) {
        let a = rand_tensor(&[m, k], &mut rng);
        let b = rand_tensor(&[k, n], &mut rng);
        let want = a.matmul_naive(&b).unwrap();
        for threads in [1, 2, 3, 4, 7] {
            set_num_threads(threads);
            let got = a.matmul(&b).unwrap();
            assert_eq!(got.shape(), want.shape(), "({m},{k},{n}) x{threads}");
            assert_eq!(
                got.data(),
                want.data(),
                "matmul ({m},{k},{n}) diverges at {threads} threads"
            );
        }
    }
    set_num_threads(1);
}

#[test]
fn batch_matmul_blocked_matches_naive_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xB47C4);
    let cases: &[(usize, usize, usize, usize)] = &[
        (1, 1, 1, 1),
        (2, 3, 5, 7),
        (3, 4, 16, 16),
        (5, 7, 13, 11),
        (0, 4, 4, 4), // empty batch
        (4, 0, 3, 3), // empty m inside each batch
        (2, 3, 0, 3), // empty k
        (8, 16, 8, 24),
        // Above PAR_MIN_MACS: 201 rows split 101/100 at two threads, a
        // boundary inside the second batch slice and off a multiple of MR.
        (3, 67, 91, 70),
    ];
    let (batch, m, k, n) = cases[cases.len() - 1];
    assert!(batch * m * k * n >= PAR_MIN_MACS);
    assert!(!(batch * m).div_ceil(2).is_multiple_of(MR));
    for &(batch, m, k, n) in cases {
        let a = rand_tensor(&[batch, m, k], &mut rng);
        let b = rand_tensor(&[batch, k, n], &mut rng);
        let want = a.batch_matmul_naive(&b).unwrap();
        for threads in [1, 2, 3, 4, 7] {
            set_num_threads(threads);
            let got = a.batch_matmul(&b).unwrap();
            assert_eq!(got.shape(), want.shape());
            assert_eq!(
                got.data(),
                want.data(),
                "batch_matmul ({batch},{m},{k},{n}) diverges at {threads} threads"
            );
        }
    }
    set_num_threads(1);
}

#[test]
fn transpose_blocked_matches_naive_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x7A2A);
    let cases: &[&[usize]] = &[
        &[1, 1],
        &[1, 9],
        &[9, 1],
        &[32, 32], // exactly one tile
        &[33, 31], // ragged tiles
        &[7, 129],
        &[2, 3, 5],    // batched
        &[4, 33, 17],  // batched ragged
        &[0, 3],       // empty
        &[3, 0],       // empty columns
        &[2, 0, 5],    // empty inside batch
        &[6, 512, 96], // above the parallel threshold
    ];
    for &shape in cases {
        let t = rand_tensor(shape, &mut rng);
        let want = t.transpose_naive().unwrap();
        for threads in [1, 2, 5] {
            set_num_threads(threads);
            let got = t.transpose().unwrap();
            assert_eq!(got.shape(), want.shape());
            assert_eq!(
                got.data(),
                want.data(),
                "transpose {shape:?} diverges at {threads} threads"
            );
        }
    }
    set_num_threads(1);
}

/// Double-transpose is the identity, bit-for-bit, regardless of tiling.
#[test]
fn transpose_roundtrip_is_identity() {
    let mut rng = StdRng::seed_from_u64(0x1D);
    set_num_threads(4);
    for &shape in &[[37usize, 53], [64, 64], [1, 200]] {
        let t = rand_tensor(&shape, &mut rng);
        let back = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.data(), t.data());
    }
    set_num_threads(1);
}
