//! Seeded random generation of SPD tiled matrices and right-hand sides.
//!
//! Matches the paper's experimental setup (Section V-A): "a random symmetric
//! positive definite matrix A is generated (along with a matrix B as
//! right-hand-side for POSV)". We generate `A = R + R^T + 2n * I` elementwise
//! with `R` uniform in [-1, 1): symmetric, and strictly diagonally dominant,
//! hence SPD. Generation is per-tile and seeded per tile coordinate so that
//! distributed runtimes can generate tiles independently on their owner node
//! and still agree bit-for-bit with the sequential reference.
//!
//! Each tile is one [`SplitMix64`] stream, drawn in storage order (a
//! diagonal tile draws only its lower triangle, column by column, and
//! mirrors it). `SplitMix64` is the definition of every value; the
//! generators compute it in its counter form instead — word `k` of a stream
//! seeded `s` is `mix(s + (k + 1)·γ)`, independent of every other word — so
//! a run of words is one loop without a carried dependency. That loop is
//! compiled twice, portable and for AVX-512DQ (64-bit multiplies and
//! integer-to-float conversions eight at a time), and the wider one is
//! taken where the CPU has it. A tile's buffer comes from
//! [`Tile::from_fill`], so a recycled one is not zeroed before it is
//! written. The tests hold every value to the scalar generator, bit for
//! bit.

use crate::storage::{SymmetricTiledMatrix, TiledPanel};
use sbc_kernels::reference::SplitMix64;
use sbc_kernels::Tile;

/// SplitMix64's state increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes a global seed with a tile coordinate to get a per-tile stream.
fn tile_seed(seed: u64, i: usize, j: usize) -> u64 {
    let mut h = SplitMix64::new(
        seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    h.next_u64()
}

/// [`SplitMix64::next_signed`] of the generator whose state has just
/// become `state`. Its `2 · (m / 2⁵³) − 1` is `m / 2⁵² − 1` here: `m` has
/// 53 bits, so both scalings by a power of two are exact and only the
/// subtraction rounds, as it does there.
#[inline(always)]
fn signed_at(state: u64) -> f64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0
}

/// Writes to `out` the next `out.len()` values [`SplitMix64::next_signed`]
/// draws from a generator in state `state`.
fn fill_signed(state: u64, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if wide::available() {
        // SAFETY: `available` has just confirmed that this CPU has the
        // features `wide::fill` is compiled for.
        unsafe { wide::fill(state, out) };
        return;
    }
    fill_portable(state, out);
}

/// The one loop of [`fill_signed`]: the state is an induction variable and
/// every word is mixed from it alone.
#[inline(always)]
fn fill_portable(state: u64, out: &mut [f64]) {
    let mut s = state;
    for w in out {
        s = s.wrapping_add(GAMMA);
        *w = signed_at(s);
    }
}

#[cfg(target_arch = "x86_64")]
mod wide {
    pub(super) fn available() -> bool {
        // the detection macro caches its answer internally
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    /// [`super::fill_portable`] compiled for AVX-512DQ. Safe to write but
    /// `unsafe` to call from code not compiled for these features: the
    /// caller must have checked [`available`].
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn fill(state: u64, out: &mut [f64]) {
        super::fill_portable(state, out);
    }
}

/// Columns of a diagonal tile mirrored per block: two `MIRROR`-square
/// blocks of `f64` stay in the L1 cache while one is transposed into the
/// other.
const MIRROR: usize = 32;

/// Fills the column-major `b x b` diagonal tile `data` from the stream of
/// state `state`: column `c`'s rows `c..b` are one run of stream words (the
/// diagonal shifted by `shift`), and the strict upper triangle mirrors the
/// lower one, block by block.
fn fill_symmetric(state: u64, b: usize, shift: f64, data: &mut [f64]) {
    let mut drawn = 0u64;
    for c in 0..b {
        let run = &mut data[c * b + c..(c + 1) * b];
        fill_signed(state.wrapping_add(drawn.wrapping_mul(GAMMA)), run);
        run[0] += shift;
        drawn += (b - c) as u64;
    }
    for c0 in (0..b).step_by(MIRROR) {
        for r0 in (c0..b).step_by(MIRROR) {
            for c in c0..b.min(c0 + MIRROR) {
                for r in r0.max(c + 1)..b.min(r0 + MIRROR) {
                    data[r * b + c] = data[c * b + r];
                }
            }
        }
    }
}

/// Generates one tile `(i, j)` (with `j <= i`) of the random SPD matrix of
/// order `n = nt * b` with the given seed.
///
/// Public so the distributed runtime can create exactly the tiles a node
/// owns, without materializing the whole matrix anywhere.
pub fn spd_tile(seed: u64, nt: usize, b: usize, i: usize, j: usize) -> Tile {
    assert!(j <= i && i < nt);
    let n = (nt * b) as f64;
    let state = tile_seed(seed, i, j);
    if i == j {
        // diagonal tile: symmetric random + dominant diagonal
        Tile::from_fill(b, |data| fill_symmetric(state, b, 2.0 * n, data))
    } else {
        Tile::from_fill(b, |data| fill_signed(state, data))
    }
}

/// Generates a random SPD [`SymmetricTiledMatrix`] of `nt x nt` tiles of
/// dimension `b`.
pub fn random_spd(seed: u64, nt: usize, b: usize) -> SymmetricTiledMatrix {
    SymmetricTiledMatrix::from_tile_fn(nt, b, |i, j| spd_tile(seed, nt, b, i, j))
}

/// Generates one tile `(i, j)` (any position) of a random diagonally
/// dominant general matrix of order `n = nt * b`: uniform in [-1, 1) off
/// the diagonal, diagonal shifted by `2n`. Dominance guarantees LU without
/// pivoting succeeds. Lower tiles agree with [`spd_tile`]'s construction
/// philosophy but the matrix is *not* symmetric.
pub fn general_tile(seed: u64, nt: usize, b: usize, i: usize, j: usize) -> Tile {
    assert!(i < nt && j < nt);
    let n = (nt * b) as f64;
    let state = tile_seed(seed ^ 0x6E6E, i, j);
    Tile::from_fill(b, |data| {
        fill_signed(state, data);
        if i == j {
            for d in 0..b {
                data[d * b + d] += 2.0 * n;
            }
        }
    })
}

/// Generates a random diagonally dominant general (non-symmetric)
/// [`FullTiledMatrix`](crate::FullTiledMatrix) for the LU substrate.
pub fn random_general(seed: u64, nt: usize, b: usize) -> crate::storage::FullTiledMatrix {
    crate::storage::FullTiledMatrix::from_tile_fn(nt, b, |i, j| general_tile(seed, nt, b, i, j))
}

/// Generates one tile of the random right-hand-side panel.
pub fn rhs_tile(seed: u64, b: usize, i: usize) -> Tile {
    let state = tile_seed(seed ^ 0xB5, i, usize::MAX >> 1);
    Tile::from_fill(b, |data| fill_signed(state, data))
}

/// Generates a random `nt x 1`-tile right-hand-side panel.
pub fn random_panel(seed: u64, nt: usize, b: usize) -> TiledPanel {
    TiledPanel::from_tile_fn(nt, b, |i| rhs_tile(seed, b, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = random_spd(42, 4, 3);
        let b = random_spd(42, 4, 3);
        for (i, j) in a.tile_coords() {
            assert!(a.tile(i, j).max_abs_diff(b.tile(i, j)) == 0.0);
        }
        let c = random_spd(43, 4, 3);
        assert!(a.tile(1, 0).max_abs_diff(c.tile(1, 0)) > 0.0);
    }

    #[test]
    fn per_tile_generation_matches_whole_matrix() {
        let a = random_spd(7, 5, 4);
        for (i, j) in a.tile_coords() {
            let t = spd_tile(7, 5, 4, i, j);
            assert!(a.tile(i, j).max_abs_diff(&t) == 0.0);
        }
    }

    #[test]
    fn diagonal_tiles_are_symmetric_and_dominant() {
        let nt = 3;
        let b = 4;
        let a = random_spd(1, nt, b);
        let n = (nt * b) as f64;
        for k in 0..nt {
            let t = a.tile(k, k);
            for r in 0..b {
                for c in 0..b {
                    assert_eq!(t.get(r, c), t.get(c, r));
                }
                assert!(t.get(r, r) > 2.0 * n - 1.0);
            }
        }
    }

    #[test]
    fn generated_matrix_is_positive_definite() {
        // Gershgorin: diagonal 2n +/- 1 dominates row sums < n.
        // Empirically verify via Cholesky of the dense expansion for small n.
        let nt = 3;
        let b = 3;
        let a = random_spd(5, nt, b);
        let n = nt * b;
        // dense in-place Cholesky
        let mut d = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                d[c * n + r] = a.element(r, c);
            }
        }
        for k in 0..n {
            let piv = d[k * n + k];
            assert!(piv > 0.0, "pivot {k} not positive");
            let piv = piv.sqrt();
            for r in k..n {
                d[k * n + r] /= piv;
            }
            for c in k + 1..n {
                let s = d[k * n + c];
                for r in c..n {
                    d[c * n + r] -= s * d[k * n + r];
                }
            }
        }
    }

    #[test]
    fn rhs_panel_deterministic_and_per_tile() {
        let p = random_panel(9, 6, 2);
        for i in 0..6 {
            assert!(p.tile(i).max_abs_diff(&rhs_tile(9, 2, i)) == 0.0);
        }
    }
}

#[cfg(test)]
mod digests {
    use super::*;

    const DIMS: [usize; 9] = [1, 3, 4, 7, 16, 32, 64, 100, 128];
    const NTS: [usize; 3] = [1, 3, 12];
    const SEEDS: [u64; 4] = [0, 1, 42, u64::MAX];

    /// FNV-1a over the bits of every word of every tile `tiles` yields.
    fn digest(tiles: impl Iterator<Item = Tile>) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for t in tiles {
            for v in t.as_slice() {
                for byte in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
        h
    }

    /// Every tile each generator makes at dimension `b`: all seeds, all
    /// `nt`, every `(i, j)` it takes.
    fn all(b: usize) -> [u64; 3] {
        let cases = || {
            SEEDS
                .into_iter()
                .flat_map(|s| NTS.into_iter().map(move |nt| (s, nt)))
        };
        [
            digest(cases().flat_map(|(s, nt)| {
                (0..nt).flat_map(move |i| (0..=i).map(move |j| spd_tile(s, nt, b, i, j)))
            })),
            digest(cases().flat_map(|(s, nt)| {
                (0..nt).flat_map(move |i| (0..nt).map(move |j| general_tile(s, nt, b, i, j)))
            })),
            digest(cases().flat_map(|(s, nt)| (0..nt).map(move |i| rhs_tile(s, b, i)))),
        ]
    }

    /// The digests of the generators as they were before the counter
    /// form: a changed stream, at any dimension, seed or tile, moves one.
    #[test]
    fn every_generated_bit_is_pinned() {
        const PINNED: [(usize, [u64; 3]); 9] = [
            (
                1,
                [0xadec0d1f3ff9c2af, 0x407324cbb32cc419, 0x85e30e1b54471bfb],
            ),
            (
                3,
                [0xed15544468a85162, 0x3e33f3c8af1bf4d7, 0xac480d16979ea385],
            ),
            (
                4,
                [0x38e3c10676eae08e, 0x74c8fdfc1894ee5b, 0xbaa67b34cf579d37],
            ),
            (
                7,
                [0xcba905306ee2d930, 0xe7fb8f1a4b66d26a, 0xf8f35f06de2752d6],
            ),
            (
                16,
                [0xd1b1c644a3a61b07, 0x96680355486a85da, 0x8976260c72f56aa0],
            ),
            (
                32,
                [0x37a7f79a5419c865, 0x933cfce27e19ad3c, 0x6741d65551039e18],
            ),
            (
                64,
                [0x76c5152bd94a5fe5, 0x877b5b1633fc69d6, 0x7964dae57d83871e],
            ),
            (
                100,
                [0xe9c0209ea7f99bdf, 0x8865a76cd7f3b7e4, 0x11e82ada66011d6b],
            ),
            (
                128,
                [0xfd032ca662f89f51, 0xce762dbc6cb8812c, 0xbda5965cc6a5bcfd],
            ),
        ];
        for (b, want) in PINNED {
            assert_eq!(DIMS.iter().filter(|&&d| d == b).count(), 1);
            let got = all(b);
            for (k, name) in ["spd_tile", "general_tile", "rhs_tile"].iter().enumerate() {
                assert_eq!(got[k], want[k], "{name} at b = {b}: {:#018x}", got[k]);
            }
        }
    }

    /// `SplitMix64` drawn one value at a time: the definition.
    fn scalar(state: u64, len: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(state);
        (0..len).map(|_| rng.next_signed().to_bits()).collect()
    }

    /// The fill, whichever loop the CPU takes and the portable one, equals
    /// repeated `next_signed` at every length up to 300 — across the vector
    /// width, its remainders and states that wrap past `u64::MAX` inside
    /// the run — into a buffer of stale values.
    #[test]
    fn the_fill_is_the_scalar_generator() {
        // γ exceeds half of 2⁶⁴, so the state wraps every other step or so;
        // `-γ` wraps to zero on the first
        for state in [0, 1, 42, u64::MAX - 5, u64::MAX, GAMMA.wrapping_neg()] {
            for len in 0..=300 {
                let want = scalar(state, len);
                let mut out = vec![f64::NAN; len];
                fill_signed(state, &mut out);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "state {state:#x} len {len}");
                out.fill(f64::NAN);
                fill_portable(state, &mut out);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "portable, state {state:#x} len {len}");
            }
        }
    }

    /// A diagonal tile is the scalar stream laid down row by row of its
    /// lower triangle, whatever its dimension relative to the mirror's
    /// blocks, and the same values above the diagonal.
    #[test]
    fn a_diagonal_tile_is_the_scalar_stream_mirrored() {
        for b in [0, 1, 2, 31, 32, 33, 64, 65, 100] {
            let mut rng = SplitMix64::new(9);
            let mut data = vec![f64::NAN; b * b];
            fill_symmetric(9, b, 5.0, &mut data);
            for c in 0..b {
                for r in c..b {
                    let v = rng.next_signed() + if r == c { 5.0 } else { 0.0 };
                    assert_eq!(data[c * b + r].to_bits(), v.to_bits(), "b {b} ({r}, {c})");
                    assert_eq!(data[r * b + c].to_bits(), v.to_bits(), "b {b} ({c}, {r})");
                }
            }
        }
    }
}
