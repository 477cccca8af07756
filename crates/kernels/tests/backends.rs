//! Cross-backend bitwise equivalence.
//!
//! Every [`KernelBackend`] must produce **bit-identical** output — not
//! merely numerically close — for every kernel, on every input: the
//! factors a run produces must not depend on which backend computed
//! them. These properties drive all backends over the same inputs and
//! compare raw `f64` bits, so even `-0.0` vs `+0.0` or differing NaN
//! payloads would fail.
//!
//! The proptests draw shapes at random; the `sweep_*` tests below them walk
//! a fixed set — every tile dimension next to a ladder rung, a panel
//! boundary or the small-tile rule, every transpose pair and coefficient,
//! with special values planted where they are read — so that no rung or
//! edge depends on the draw.

use proptest::prelude::*;
use sbc_kernels::reference::{bits_eq, random_spd_tile, SplitMix64};
use sbc_kernels::{KernelBackend, Kernels, Tile, Trans};

const ALL: [KernelBackend; 2] = [KernelBackend::Naive, KernelBackend::Blocked];

/// A random tile, optionally salted with exact zeros (and negative
/// zeros) so the `s != 0.0` skip paths of the naive kernels — and the
/// panel fallbacks replicating them — are exercised.
fn tile_with_zeros(b: usize, seed: u64, plant_zeros: bool) -> Tile {
    let mut rng = SplitMix64::new(seed);
    let mut t = Tile::from_fn(b, |_, _| rng.next_signed());
    if plant_zeros {
        for k in 0..b {
            t.set(k, (k * 3) % b, 0.0);
            t.set((k * 5) % b, k, -0.0);
        }
    }
    t
}

/// alpha/beta from the exact set the runtime actually uses.
fn coeff(i: usize) -> f64 {
    [0.0, 1.0, -1.0][i]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_bitwise_equal_across_backends(
        seed in any::<u64>(),
        b in 1usize..48,
        ta in prop::bool::ANY,
        tb in prop::bool::ANY,
        alpha_i in 0usize..3,
        beta_i in 0usize..3,
        plant_zeros in prop::bool::ANY,
    ) {
        let a = tile_with_zeros(b, seed, plant_zeros);
        let bt = tile_with_zeros(b, seed ^ 1, plant_zeros);
        let mut rng = SplitMix64::new(seed ^ 2);
        let c0 = Tile::from_fn(b, |_, _| rng.next_signed());
        let ta = if ta { Trans::Yes } else { Trans::No };
        let tb = if tb { Trans::Yes } else { Trans::No };

        let mut expect = c0.clone();
        KernelBackend::Naive.gemm(ta, tb, coeff(alpha_i), &a, &bt, coeff(beta_i), &mut expect);
        for k in ALL {
            let mut c = c0.clone();
            k.gemm(ta, tb, coeff(alpha_i), &a, &bt, coeff(beta_i), &mut c);
            prop_assert!(bits_eq(&expect, &c), "gemm {ta:?}/{tb:?} b={b} differs on {k}");
        }
    }

    #[test]
    fn syrk_bitwise_equal_across_backends(
        seed in any::<u64>(),
        b in 1usize..48,
        trans in prop::bool::ANY,
        alpha_i in 0usize..3,
        beta_i in 0usize..3,
        plant_zeros in prop::bool::ANY,
    ) {
        let a = tile_with_zeros(b, seed, plant_zeros);
        let mut rng = SplitMix64::new(seed ^ 3);
        let c0 = Tile::from_fn(b, |_, _| rng.next_signed());
        let trans = if trans { Trans::Yes } else { Trans::No };

        let mut expect = c0.clone();
        KernelBackend::Naive.syrk(trans, coeff(alpha_i), &a, coeff(beta_i), &mut expect);
        for k in ALL {
            let mut c = c0.clone();
            k.syrk(trans, coeff(alpha_i), &a, coeff(beta_i), &mut c);
            prop_assert!(bits_eq(&expect, &c), "syrk {trans:?} b={b} differs on {k}");
        }
    }

    #[test]
    fn trsm_bitwise_equal_across_backends(
        seed in any::<u64>(),
        b in 1usize..48,
        alpha_i in 0usize..3,
        plant_zeros in prop::bool::ANY,
    ) {
        // a well-conditioned lower triangle: random below, dominant diagonal
        let mut rng = SplitMix64::new(seed);
        let mut l = Tile::from_fn(b, |i, j| if i >= j { rng.next_signed() } else { 0.0 });
        for i in 0..b {
            l.set(i, i, 2.0 + l.get(i, i).abs());
        }
        if plant_zeros {
            for k in 1..b {
                l.set(k, (k * 3) % k, 0.0);
            }
        }
        let rhs = tile_with_zeros(b, seed ^ 4, plant_zeros);

        let mut expect = rhs.clone();
        KernelBackend::Naive.trsm_right_lower_trans(coeff(alpha_i), &l, &mut expect);
        for k in ALL {
            let mut x = rhs.clone();
            k.trsm_right_lower_trans(coeff(alpha_i), &l, &mut x);
            prop_assert!(bits_eq(&expect, &x), "trsm b={b} differs on {k}");
        }
    }

    #[test]
    fn potrf_bitwise_equal_across_backends(seed in any::<u64>(), b in 1usize..72) {
        let a0 = random_spd_tile(b, seed);
        let mut expect = a0.clone();
        KernelBackend::Naive.potrf(&mut expect).unwrap();
        for k in ALL {
            let mut a = a0.clone();
            prop_assert!(k.potrf(&mut a).is_ok());
            prop_assert!(bits_eq(&expect, &a), "potrf b={b} differs on {k}");
        }
    }

    #[test]
    fn potrf_failure_bitwise_equal_across_backends(
        seed in any::<u64>(),
        b in 2usize..72,
        frac in 0.0f64..1.0,
    ) {
        // plant a non-positive pivot somewhere and require the identical
        // error *and* the identical partially-factorized tile
        let mut a0 = random_spd_tile(b, seed);
        let bad = ((b as f64 * frac) as usize).min(b - 1);
        a0.set(bad, bad, -1.0);
        let mut expect = a0.clone();
        let expect_err = KernelBackend::Naive.potrf(&mut expect);
        prop_assert!(expect_err.is_err());
        for k in ALL {
            let mut a = a0.clone();
            let err = k.potrf(&mut a);
            prop_assert_eq!(&err, &expect_err, "potrf error b={} differs on {}", b, k);
            prop_assert!(bits_eq(&expect, &a), "potrf failure state b={b} differs on {k}");
        }
    }
}

// ---------------------------------------------------- deterministic sweep

/// Every dimension up to 40 and the neighbours of 48, 64, 96 and 128:
/// each rung of the row ladder alone and in every combination, zero to
/// three ragged columns, one and several staged scale blocks.
fn sweep_dims() -> impl Iterator<Item = usize> {
    (1..=40).chain([47, 48, 63, 64, 65, 95, 96, 127, 128, 129])
}

const COEFFS: [f64; 3] = [0.0, 1.0, -1.0];
const TRANS: [Trans; 2] = [Trans::No, Trans::Yes];

/// Every `(alpha, beta)` from the set the runtime uses.
fn coeff_pairs() -> impl Iterator<Item = (f64, f64)> {
    COEFFS
        .into_iter()
        .flat_map(|alpha| COEFFS.map(|beta| (alpha, beta)))
}

/// The NaN this machine's arithmetic produces. Every NaN that arises or
/// propagates during a kernel then carries one bit pattern, so comparing
/// NaN bits tests the kernels and not which operand of a commutative
/// instruction the compiler happened to put first.
fn nan() -> f64 {
    std::hint::black_box(f64::INFINITY) - std::hint::black_box(f64::INFINITY)
}

fn specials() -> [f64; 5] {
    [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, nan()]
}

/// A random tile with each special value planted at two places that move
/// with `salt`: sparse enough that most panels keep an all-nonzero scale
/// stream (and run the microtiles with `inf`/NaN in it) and most outputs
/// stay finite, dense enough that across the dimensions swept every path
/// meets every value.
fn planted_tile(b: usize, seed: u64, salt: usize) -> Tile {
    let mut rng = SplitMix64::new(seed);
    let mut t = Tile::from_fn(b, |_, _| rng.next_signed());
    for (n, v) in specials().into_iter().enumerate() {
        let (i, j) = ((3 * n + salt) % b, (7 * n + 2 * salt + 1) % b);
        t.set(i, j, v);
        t.set(b - 1 - i, (b / 2 + j) % b, v);
    }
    t
}

/// Overwrites the strictly upper triangle with special values. The
/// triangular kernels must neither write it nor let it reach the lower
/// triangle — and it is exactly what a microtile's discarded lanes load.
fn poison_strict_upper(t: &mut Tile) {
    let s = specials();
    for j in 1..t.dim() {
        for i in 0..j {
            t.set(i, j, s[(i + 2 * j) % s.len()]);
        }
    }
}

fn assert_bits_eq(expect: &Tile, got: &Tile, what: std::fmt::Arguments) {
    assert!(bits_eq(expect, got), "{what} differs from Naive");
}

#[test]
fn sweep_gemm_is_bit_identical() {
    for b in sweep_dims() {
        let a = planted_tile(b, 1, b);
        let bt = planted_tile(b, 2, b + 1);
        let c0 = planted_tile(b, 3, b + 2);
        for (ta, tb) in TRANS.into_iter().flat_map(|ta| TRANS.map(|tb| (ta, tb))) {
            for (alpha, beta) in coeff_pairs() {
                let mut expect = c0.clone();
                KernelBackend::Naive.gemm(ta, tb, alpha, &a, &bt, beta, &mut expect);
                let mut c = c0.clone();
                KernelBackend::Blocked.gemm(ta, tb, alpha, &a, &bt, beta, &mut c);
                assert_bits_eq(
                    &expect,
                    &c,
                    format_args!("gemm {ta:?}/{tb:?} alpha={alpha} beta={beta} b={b}"),
                );
            }
        }
    }
}

#[test]
fn sweep_syrk_is_bit_identical() {
    for b in sweep_dims() {
        // rows 0 and 1 are above the diagonal of almost every column: the
        // rows a trapezoid's discarded lanes read
        let mut a = planted_tile(b, 4, b);
        a.set(0, b / 3, f64::NEG_INFINITY);
        a.set(1 % b, b / 2, nan());
        let mut c0 = planted_tile(b, 5, b + 1);
        poison_strict_upper(&mut c0);
        for trans in TRANS {
            for (alpha, beta) in coeff_pairs() {
                let mut expect = c0.clone();
                KernelBackend::Naive.syrk(trans, alpha, &a, beta, &mut expect);
                let mut c = c0.clone();
                KernelBackend::Blocked.syrk(trans, alpha, &a, beta, &mut c);
                assert_bits_eq(
                    &expect,
                    &c,
                    format_args!("syrk {trans:?} alpha={alpha} beta={beta} b={b}"),
                );
            }
        }
    }
}

#[test]
fn sweep_trsm_is_bit_identical() {
    for b in sweep_dims() {
        // planted multipliers below the diagonal, a dominant finite
        // diagonal, poison above it
        let mut l = planted_tile(b, 6, b);
        for i in 0..b {
            l.set(i, i, 2.0 + (i % 3) as f64);
        }
        poison_strict_upper(&mut l);
        let rhs = planted_tile(b, 7, b + 1);
        for alpha in COEFFS {
            let mut expect = rhs.clone();
            KernelBackend::Naive.trsm_right_lower_trans(alpha, &l, &mut expect);
            let mut x = rhs.clone();
            KernelBackend::Blocked.trsm_right_lower_trans(alpha, &l, &mut x);
            assert_bits_eq(&expect, &x, format_args!("trsm alpha={alpha} b={b}"));
        }
    }
}

#[test]
fn sweep_potrf_is_bit_identical_failures_included() {
    for b in sweep_dims() {
        let mut spd = random_spd_tile(b, b as u64);
        poison_strict_upper(&mut spd);
        // the first, a middle and the last column of a four-column panel in
        // the middle of the tile, and the tile's own first and last column
        let p = b / 8 * 4;
        let pivots = [0, p, p + 1, p + 3, b - 1].map(|k| k.min(b - 1));
        let mut cases = vec![("clean".to_string(), spd.clone())];
        for k in pivots {
            let mut a = spd.clone();
            a.set(k, k, -1.0);
            cases.push((format!("bad pivot {k}"), a));
        }
        if b > 2 {
            // an exact zero among the multipliers (the skip path), and an
            // infinity that turns the last pivot into -inf on the way
            let mut a = spd.clone();
            a.set(b / 2, 0, 0.0);
            cases.push(("zero multiplier".to_string(), a.clone()));
            a.set(b - 1, 0, f64::INFINITY);
            cases.push(("infinite entry".to_string(), a));
        }
        for (what, a0) in cases {
            let mut expect = a0.clone();
            let expect_err = KernelBackend::Naive.potrf(&mut expect);
            let mut a = a0.clone();
            let err = KernelBackend::Blocked.potrf(&mut a);
            assert_eq!(err, expect_err, "potrf {what} b={b}");
            assert_eq!(err.is_err(), what != "clean" && what != "zero multiplier");
            assert_bits_eq(&expect, &a, format_args!("potrf {what} b={b}"));
        }
    }
}
