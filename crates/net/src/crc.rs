//! CRC-32/ISO-HDLC — the checksum in every frame's trailer (IEEE 802.3
//! polynomial, reflected `0xEDB88320`, initial value and final xor
//! `0xFFFFFFFF`: what zlib's `crc32` and PNG compute).
//!
//! Every tile that crosses a socket is checksummed twice — by the sending
//! worker and by the receiving reader thread — so this function sets the
//! speed of the whole codec. One value, two ways to compute it:
//!
//! * **slicing-by-16**, portable: sixteen 256-entry tables built in a
//!   `const` block (16 KB of `.rodata`) turn sixteen input bytes into
//!   sixteen *independent* lookups per step instead of a sixteen-deep
//!   dependency chain; about 1.9 GB/s on the benchmark host against
//!   0.35 GB/s for the one-table byte loop it replaced. It also finishes the
//!   last `len % 16` bytes of every buffer one at a time;
//! * **carry-less-multiply folding** on `x86_64` CPUs that have `PCLMULQDQ`
//!   (checked at run time, no build option): four 128-bit lanes are folded
//!   forward 64 bytes per step and reduced to 32 bits once at the end —
//!   Gopal et al., *Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction* (Intel, 2009); about 24 GB/s on the same host.
//!   Taken for buffers of at least 64 bytes.
//!
//! The algorithm is an implementation detail and may change again; the
//! *value* may not — frames written by any version of this crate must
//! verify under any other. The tests hold both paths to the byte-at-a-time
//! definition at every short length and alignment and on random buffers.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]` is the
/// CRC state after byte `i` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data`, as zlib computes it: carry-less-multiply folding where
/// the CPU has it and the buffer is long enough, slicing-by-16 otherwise and
/// for the tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A CRC-32 taken over several pieces in order: the value [`crc32`] gives
/// for their concatenation, without concatenating them. The frame writer
/// and reader chain it over a frame's fixed fields and its tiles' words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    /// The CRC of nothing yet.
    pub(crate) fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Continues the CRC over `data`.
    pub(crate) fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul::available() {
            let whole_lanes = data.len() & !15;
            // SAFETY: `available()` has just confirmed that this CPU has the
            // features `fold` is compiled for.
            let c = unsafe { clmul::fold(self.0, &data[..whole_lanes]) };
            self.0 = sliced(c, &data[whole_lanes..]);
            return;
        }
        self.0 = sliced(self.0, data);
    }

    /// The CRC of everything passed to [`Crc32::update`].
    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One byte-at-a-time step of the raw (un-inverted) CRC state.
#[inline]
fn step(c: u32, byte: u8) -> u32 {
    TABLES[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// Advances the raw CRC state `c` over `data`, sixteen bytes per step and
/// the last `len % 16` one at a time.
fn sliced(mut c: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        // the running state is xored into the first four bytes; byte `i`
        // then has `15 - i` bytes after it in the block
        let state = c.to_le_bytes();
        c = 0;
        for (i, &byte) in block.iter().enumerate() {
            let byte = if i < 4 { byte ^ state[i] } else { byte };
            c ^= TABLES[15 - i][byte as usize];
        }
    }
    for &byte in blocks.remainder() {
        c = step(c, byte);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::*;

    /// The shortest buffer [`fold`] takes: its four lanes.
    pub(super) const MIN_LEN: usize = 64;

    // Folding constants of the reflected IEEE polynomial (Gopal et al.; the
    // same values zlib and the Linux kernel use): x^(512±32), x^(128±32)
    // and x^64 mod P, then P itself and µ = ⌊x^64 / P⌋ for the Barrett
    // reduction.
    const K1: i64 = 0x01_5444_2bd4;
    const K2: i64 = 0x01_c6e4_1596;
    const K3: i64 = 0x01_7519_97d0;
    const K4: i64 = 0x00_ccaa_009e;
    const K5: i64 = 0x01_63cd_6124;
    const POLY: i64 = 0x01_db71_0641;
    const MU: i64 = 0x01_f701_1641;

    pub(super) fn available() -> bool {
        // the detection macro caches its answer internally
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(lane: &[u8]) -> __m128i {
        let (lo, hi) = lane.split_at(8);
        _mm_set_epi64x(
            i64::from_le_bytes(hi.try_into().expect("a 16-byte lane")),
            i64::from_le_bytes(lo.try_into().expect("a 16-byte lane")),
        )
    }

    /// Moves `acc` forward over the distance `k` encodes and adds `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw CRC state `c` over `data`, whose length must be a
    /// multiple of 16 and at least [`MIN_LEN`].
    ///
    /// Safe to *write* — every load goes through a bounds-checked slice —
    /// but `unsafe` to *call* from code not compiled for these features:
    /// the caller must have checked [`available`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(c: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN && data.len().is_multiple_of(16));
        let (first, rest) = data.split_at(MIN_LEN);
        let mut lanes = [
            _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(c as i32)),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        let k = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (lane, next) in lanes.iter_mut().zip(block.chunks_exact(16)) {
                *lane = fold_into(*lane, k, load(next));
            }
        }
        // four lanes into one, then whatever whole lanes are left
        let k = _mm_set_epi64x(K4, K3);
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = fold_into(acc, k, lane);
        }
        for next in blocks.remainder().chunks_exact(16) {
            acc = fold_into(acc, k, load(next));
        }
        // 128 → 64 bits
        let low_words = _mm_setr_epi32(!0, 0, !0, 0);
        let acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k, 0x10));
        let acc = _mm_xor_si128(
            _mm_srli_si128(acc, 4),
            _mm_clmulepi64_si128(_mm_and_si128(acc, low_words), _mm_set_epi64x(0, K5), 0x00),
        );
        // Barrett reduction, 64 → 32 bits
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t = _mm_clmulepi64_si128(_mm_and_si128(acc, low_words), poly_mu, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low_words), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, t), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `n` pseudo-random bytes (splitmix64 of `seed`).
    fn bytes_of(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z >> 56) as u8
            })
            .collect()
    }

    /// The definition: one table, one byte at a time (`crc32` itself until
    /// PR 12). The oracle for both fast paths.
    fn bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |c, &byte| step(c, byte))
    }

    /// [`crc32`] with the portable path forced, whatever the CPU has.
    fn portable(data: &[u8]) -> u32 {
        !sliced(!0, data)
    }

    #[test]
    fn matches_the_ieee_reference_vector() {
        // the classic check value of CRC-32/ISO-HDLC
        for f in [crc32, portable, bytewise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
        }
    }

    #[test]
    fn both_paths_match_bytewise_at_every_short_length_and_alignment() {
        // every length across the 16-byte steps of the sliced loop and the
        // 64-byte blocks, single lanes and tail of the folding one, at every
        // alignment of the start within a lane
        let buf = bytes_of(208 + 16, 0xC0FFEE);
        for offset in 0..16 {
            for len in 0..=208 {
                let data = &buf[offset..offset + len];
                let expect = bytewise(data);
                assert_eq!(portable(data), expect, "sliced, offset {offset} len {len}");
                assert_eq!(crc32(data), expect, "dispatch, offset {offset} len {len}");
            }
        }
    }

    /// Chained over any split of a buffer, whatever path each piece takes,
    /// the CRC is the one-shot CRC of the whole.
    #[test]
    fn a_chained_crc_is_the_crc_of_the_concatenation() {
        let buf = bytes_of(600, 0xFEED);
        for first in [0, 1, 15, 63, 64, 65, 200, 600] {
            for second in [0, 3, 64, 130] {
                let second = (first + second).min(buf.len());
                let mut crc = Crc32::new();
                crc.update(&buf[..first]);
                crc.update(&buf[first..second]);
                crc.update(&buf[second..]);
                assert_eq!(crc.finish(), bytewise(&buf), "split at {first}, {second}");
            }
        }
    }

    proptest! {
        #[test]
        fn both_paths_match_bytewise_on_random_buffers(
            len in 0usize..=300_000,
            offset in 0usize..16,
            seed in any::<u64>(),
        ) {
            let buf = bytes_of(offset + len, seed);
            let data = &buf[offset..];
            let expect = bytewise(data);
            prop_assert_eq!(portable(data), expect);
            prop_assert_eq!(crc32(data), expect);
        }
    }
}
