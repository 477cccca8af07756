//! Naive reference implementations and deterministic test-tile generators.
//!
//! Everything here is O(b^3) triple loops written for obviousness, used by
//! unit and property tests to validate the optimized kernels. The generators
//! use an embedded SplitMix64 so tests are reproducible without external
//! crates.

use crate::{Tile, Trans};

/// Minimal SplitMix64 PRNG: deterministic, seedable, good enough for test
/// data and matrix generation.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform f64 in [-1, 1).
    pub fn next_signed(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

/// Naive `C := alpha * op(A) * op(B) + beta * C`.
pub fn ref_gemm(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Tile,
    b: &Tile,
    beta: f64,
    c: &mut Tile,
) {
    let n = c.dim();
    let opa = |i: usize, k: usize| match transa {
        Trans::No => a.get(i, k),
        Trans::Yes => a.get(k, i),
    };
    let opb = |k: usize, j: usize| match transb {
        Trans::No => b.get(k, j),
        Trans::Yes => b.get(j, k),
    };
    for j in 0..n {
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += opa(i, k) * opb(k, j);
            }
            let v = alpha * s + beta * c.get(i, j);
            c.set(i, j, v);
        }
    }
}

/// Dense random tile with entries in [-1, 1).
pub(crate) fn random_tile(b: usize, seed: u64) -> Tile {
    let mut rng = SplitMix64::new(seed ^ 0xABCD_EF01_2345_6789);
    Tile::from_fn(b, |_, _| rng.next_signed())
}

/// True when the two tiles hold the same bits: `-0.0` is not `0.0` and a
/// NaN equals only its own bit pattern. The comparison every
/// backend-equivalence test makes.
pub fn bits_eq(a: &Tile, b: &Tile) -> bool {
    a.dim() == b.dim()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Random well-conditioned lower-triangular tile: entries in [-1, 1) below
/// the diagonal, diagonal shifted away from zero. The strictly upper part
/// holds garbage values so kernels that must ignore it get exercised.
pub fn random_lower_tile(b: usize, seed: u64) -> Tile {
    let mut rng = SplitMix64::new(seed ^ 0x1357_9BDF_2468_ACE0);
    Tile::from_fn(b, |i, j| {
        if i == j {
            2.0 + rng.next_f64() // in [2, 3): safely away from zero
        } else if i > j {
            rng.next_signed() * 0.5
        } else {
            f64::NAN // poison: must never be read by lower-triangular kernels
        }
    })
}

/// Random symmetric positive definite tile: `M M^T + b * I`, symmetric,
/// diagonally dominant enough to be safely SPD.
pub fn random_spd_tile(b: usize, seed: u64) -> Tile {
    let m = random_tile(b, seed);
    let mut a = Tile::from_fn(b, |i, j| if i == j { b as f64 } else { 0.0 });
    // a += m * m^T, full (symmetric by construction)
    for i in 0..b {
        for j in 0..b {
            let mut s = 0.0;
            for k in 0..b {
                s += m.get(i, k) * m.get(j, k);
            }
            let v = a.get(i, j) + s;
            a.set(i, j, v);
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_f64_in_range() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn spd_tile_is_symmetric() {
        let a = random_spd_tile(10, 1);
        for i in 0..10 {
            for j in 0..10 {
                assert!((a.get(i, j) - a.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lower_tile_poisons_upper() {
        let l = random_lower_tile(5, 0);
        assert!(l.get(0, 4).is_nan());
        assert!(l.get(3, 3) >= 2.0);
    }
}
