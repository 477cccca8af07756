//! Cross-backend bitwise equivalence.
//!
//! Every [`KernelBackend`] must produce **bit-identical** output — not
//! merely numerically close — for every kernel, on every input: the
//! factors a run produces must not depend on which backend computed
//! them. These properties drive all backends over the same inputs and
//! compare raw `f64` bits, so even `-0.0` vs `+0.0` or differing NaN
//! payloads would fail.

use proptest::prelude::*;
use sbc_kernels::reference::{random_spd_tile, SplitMix64};
use sbc_kernels::{KernelBackend, Kernels, Tile, Trans};

const ALL: [KernelBackend; 2] = [KernelBackend::Naive, KernelBackend::Blocked];

fn bits_eq(a: &Tile, b: &Tile) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

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
