//! Cache-blocked, register-tiled kernels, bit-identical to the naive ones.
//!
//! Every kernel here applies **exactly the same floating-point operations
//! in exactly the same order to every output element** as its naive
//! counterpart — the blocking only changes *which registers hold the
//! partial results* and *how operand columns are reused across
//! iterations*, both of which are invisible to IEEE-754 arithmetic
//! (spilling an `f64` to memory and reloading it is exact). That gives
//! the speed of register tiling while keeping factors, residuals and the
//! seed-addressed reproducibility of the whole stack byte-identical
//! across backends.
//!
//! The four kernels of POTRF — `gemm` No/·, `syrk` No,
//! `trsm_right_lower_trans` and `potrf`'s own update of a column panel by
//! the finished columns — are one update, `C[i,j] ±= Σ_k s(k,j) · X[i,k]`
//! in ascending `k`, and share one implementation of it:
//!
//! * **Column panels** — [`NR`] destination columns are updated together
//!   per sweep over the source columns, cutting source traffic by `NR`.
//!   The panel's scale stream `s(k, j0..j0+NR)` is staged [`KB`] values of
//!   `k` at a time; the same pass finds exact zeros.
//! * **Register microtiles** — within a panel, `R` rows of the four
//!   columns accumulate in four `[f64; R]`, which the compiler keeps in
//!   vector registers (portable autovectorization; no intrinsics).
//! * **A ladder on every edge** — `R` is [`MR`], [`MR2`] or [`MR4`],
//!   one body instantiated three times. A row range is covered from its
//!   end by full microtiles and the remainder by the narrowest rung that
//!   holds it; that rung may overlap rows that are already done or, for
//!   the triangular kernels, rows above the diagonal. Those lanes are
//!   computed and **discarded**: lanes are independent, so a discarded
//!   lane cannot change a kept one, and every kept element still sees
//!   its naive `k` order. No row is ever handled one element at a time.
//! * **Trapezoids at full rate** — SYRK and the POTRF update write rows
//!   `j..n` of column `j`; a panel runs the rectangle from its first
//!   diagonal row down and discards the `NR·(NR-1)/2` lanes above the
//!   diagonal, so they cost half a GEMM, not a whole one.
//! * **Small tiles** — below [`SMALL`] every entry point calls the
//!   `naive_*` function itself: nothing to stage, no ISA dispatch.
//!
//! The `s != 0.0` sparsity skips of the naive kernels are respected: a
//! staged block of scales that contains an exact zero is applied with the
//! branchy naive-order column loop instead of the branch-free microtiles,
//! so the skip semantics stay bit-identical (the distinction matters for
//! `-0.0` and non-finite inputs, where `x + 0.0` or `0.0 * inf` would
//! change the result).
//!
//! ## Run-time ISA selection
//!
//! The hot loops are *portable Rust*, but they are compiled three times
//! on `x86_64` — for the baseline target, under
//! `#[target_feature(enable = "avx2")]`, and under
//! `#[target_feature(enable = "avx512f")]` — and the widest version the
//! running CPU supports is picked per call (the `multiversion!` macro
//! below; the same body autovectorizes to SSE2 / AVX2 / AVX-512 without
//! a single intrinsic). Floating-point semantics are unaffected: wider
//! lanes still perform the identical exactly-rounded mul/add per
//! element, and Rust never contracts `a * b + c` into an FMA. The unit
//! tests below run every version the CPU supports, not only the widest.

use std::ops::Range;

use crate::gemm::{naive_gemm, Trans};
use crate::potrf::naive_potrf;
use crate::syrk::naive_syrk;
use crate::trsm::naive_trsm_right_lower_trans;
use crate::{KernelError, Tile};

/// Rows per full register microtile, and the ladder's two narrower rungs.
const MR: usize = 32;
const MR2: usize = MR / 2;
const MR4: usize = MR / 4;
/// Destination columns updated together by one panel sweep.
const NR: usize = 4;
/// Scale values staged per destination column and pass over the rows.
const KB: usize = 64;
/// Tiles of a smaller dimension run the reference loops. The ledger fixes
/// the two sides — b = 4 (`potrf-tasks`) must reach the very `naive_*`
/// functions, b = 32 / 64 / 128 (the other three workloads) must not — and
/// the kernel table in CHANGES.md the value between them: at b = 8 staging
/// a panel and picking an ISA version still cost TRSM and POTRF more than
/// their microtiles save; from b = 16 up no kernel is slower than `Naive`.
const SMALL: usize = MR2;

/// The small-tile rule, decided by the code from the size of its input.
#[inline(always)]
fn small(t: &Tile) -> bool {
    t.dim() < SMALL
}

/// Compiles the function body for the baseline ISA and, on `x86_64`, also
/// under AVX2 and AVX-512F code generation; the public wrapper dispatches
/// to the widest version the CPU supports. The body itself stays portable
/// — `#[target_feature]` only widens what the autovectorizer may emit.
///
/// The versions live in a module named after the function. Under
/// `#[cfg(test)]` it also has `versions()`: every version this CPU can
/// run, by name, so that the tests execute all of them (read-only: which
/// one a call uses is not something anyone can set).
macro_rules! multiversion {
    ($(#[$meta:meta])* $vis:vis fn $name:ident / $impl_name:ident
        ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block) => {
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        fn $impl_name($($arg: $ty),*) $(-> $ret)? $body

        $(#[$meta])*
        #[allow(clippy::too_many_arguments)]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the feature was just detected at run time
                    return unsafe { $name::wide512($($arg),*) };
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the feature was just detected at run time
                    return unsafe { $name::wide256($($arg),*) };
                }
            }
            $impl_name($($arg),*)
        }

        #[allow(clippy::too_many_arguments)]
        mod $name {
            use super::*;

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            pub(super) unsafe fn wide512($($arg: $ty),*) $(-> $ret)? {
                $impl_name($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn wide256($($arg: $ty),*) $(-> $ret)? {
                $impl_name($($arg),*)
            }

            #[cfg(test)]
            pub(super) fn versions() -> Vec<(&'static str, fn($($ty),*) $(-> $ret)?)> {
                let mut v: Vec<(&'static str, fn($($ty),*) $(-> $ret)?)> =
                    vec![("baseline", $impl_name)];
                #[cfg(target_arch = "x86_64")]
                {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: the feature was just detected at run time
                        v.push(("avx2", |$($arg),*| unsafe { wide256($($arg),*) }));
                    }
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        // SAFETY: the feature was just detected at run time
                        v.push(("avx512f", |$($arg),*| unsafe { wide512($($arg),*) }));
                    }
                }
                v
            }
        }
    };
}

// ------------------------------------------------- the shared axpy update

/// The scale stream of one column panel over one block of `k`:
/// `s[kk][t]` multiplies source column `k0 + kk` into panel column `t`.
type Scales = [[f64; NR]; KB];

/// `acc[m] ±= s * x[m]`: a separately rounded product and sum per lane.
#[inline(always)]
fn lanes<const R: usize, const SUB: bool>(acc: &mut [f64; R], s: f64, x: &[f64; R]) {
    for m in 0..R {
        if SUB {
            acc[m] -= s * x[m];
        } else {
            acc[m] += s * x[m];
        }
    }
}

/// One register microtile: rows `i0..i0 + R` of the four columns of
/// `panel`, `acc[t][m] ±= s[kk][t] * X[i0 + m, k0 + kk]` for ascending
/// `kk`. Branch-free — the caller has verified that no scale is zero, so
/// per output element the operation sequence is the naive one. Column `t`
/// is written back for rows `from[t]..to` only; the other lanes were
/// computed from whatever those rows hold and are dropped.
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn microtile<const R: usize, const SUB: bool>(
    src: &[f64],
    n: usize,
    k0: usize,
    s: &[[f64; NR]],
    panel: &mut [f64],
    i0: usize,
    from: [usize; NR],
    to: usize,
) {
    let (c0, rest) = panel.split_at_mut(n);
    let (c1, rest) = rest.split_at_mut(n);
    let (c2, c3) = rest.split_at_mut(n);
    // four named accumulators, not `[[f64; R]; NR]`: the compiler keeps
    // these in vector registers and spills the nested array
    let mut acc0: [f64; R] = c0[i0..i0 + R].try_into().unwrap();
    let mut acc1: [f64; R] = c1[i0..i0 + R].try_into().unwrap();
    let mut acc2: [f64; R] = c2[i0..i0 + R].try_into().unwrap();
    let mut acc3: [f64; R] = c3[i0..i0 + R].try_into().unwrap();
    for (kk, sk) in s.iter().enumerate() {
        let x: &[f64; R] = src[(k0 + kk) * n + i0..][..R].try_into().unwrap();
        lanes::<R, SUB>(&mut acc0, sk[0], x);
        lanes::<R, SUB>(&mut acc1, sk[1], x);
        lanes::<R, SUB>(&mut acc2, sk[2], x);
        lanes::<R, SUB>(&mut acc3, sk[3], x);
    }
    for (t, (col, acc)) in [(c0, &acc0), (c1, &acc1), (c2, &acc2), (c3, &acc3)]
        .into_iter()
        .enumerate()
    {
        let lo = from[t].clamp(i0, to);
        col[lo..to].copy_from_slice(&acc[lo - i0..to - i0]);
    }
}

/// Covers rows `from[0]..n` of a panel (`from` ascends) with microtiles,
/// from the end: full [`MR`]-row tiles while they fit, then the narrowest
/// rung that holds what is left. A rung that would start above row 0 is
/// placed at row 0 and keeps only the rows not yet done.
#[inline(always)]
fn ladder<const SUB: bool>(
    src: &[f64],
    n: usize,
    k0: usize,
    s: &[[f64; NR]],
    panel: &mut [f64],
    from: [usize; NR],
) {
    debug_assert!(
        n >= MR2,
        "the ladder's middle rung must fit inside the tile"
    );
    let mut hi = n;
    while hi > from[0] {
        let left = hi - from[0];
        let r = if left <= MR4 {
            MR4
        } else if left <= MR2 || n < MR {
            MR2
        } else {
            MR
        };
        let i0 = hi.saturating_sub(r);
        match r {
            MR => microtile::<MR, SUB>(src, n, k0, s, panel, i0, from, hi),
            MR2 => microtile::<MR2, SUB>(src, n, k0, s, panel, i0, from, hi),
            _ => microtile::<MR4, SUB>(src, n, k0, s, panel, i0, from, hi),
        }
        hi = i0;
    }
}

/// One destination column in the exact naive order, including the
/// `s != 0.0` skips: `col[i] ±= scale(k) * X[i,k]` for rows `from..n`,
/// ascending `k`. What a block of scales containing a zero falls back to,
/// and what the up to three columns past the last full panel run.
#[inline(always)]
fn column_update<const SUB: bool>(
    src: &[f64],
    n: usize,
    ks: Range<usize>,
    scale: impl Fn(usize) -> f64,
    col: &mut [f64],
    from: usize,
) {
    for k in ks {
        let s = scale(k);
        if s != 0.0 {
            let x = &src[k * n..(k + 1) * n];
            for i in from..n {
                if SUB {
                    col[i] -= s * x[i];
                } else {
                    col[i] += s * x[i];
                }
            }
        }
    }
}

/// `panel[i, t] ±= Σ_{k in ks} scale(k, t) · X[i, k]` for rows
/// `from[t]..n` of the columns of `panel`, ascending `k` per element.
/// `X` is `src`, `n` rows per column; `buf` is scratch. A panel narrower
/// than [`NR`] — the up to three columns past the last full one — runs
/// column by column.
#[inline(always)]
fn panel_update<const SUB: bool>(
    src: &[f64],
    n: usize,
    ks: Range<usize>,
    scale: impl Fn(usize, usize) -> f64,
    panel: &mut [f64],
    from: [usize; NR],
    buf: &mut Scales,
) {
    if panel.len() < NR * n {
        for (t, col) in panel.chunks_exact_mut(n).enumerate() {
            column_update::<SUB>(src, n, ks.clone(), |k| scale(k, t), col, from[t]);
        }
        return;
    }
    let mut k0 = ks.start;
    while k0 < ks.end {
        let s = &mut buf[..(ks.end - k0).min(KB)];
        let mut nonzero = true;
        for (kk, sk) in s.iter_mut().enumerate() {
            for (t, v) in sk.iter_mut().enumerate() {
                *v = scale(k0 + kk, t);
                nonzero &= *v != 0.0;
            }
        }
        if nonzero {
            ladder::<SUB>(src, n, k0, s, panel, from);
        } else {
            // a zero in the scale stream: naive-order skip semantics
            for (t, col) in panel.chunks_exact_mut(n).enumerate() {
                column_update::<SUB>(src, n, k0..k0 + s.len(), |k| s[k - k0][t], col, from[t]);
            }
        }
        k0 += s.len();
    }
}

/// [`panel_update`] over every column of `dst`, which holds columns
/// `jstart..n` of the destination: `C[i,j] ±= Σ_{k in ks} scale(k, j) ·
/// X[i,k]`. `lower` restricts column `j` to rows `j..n`.
#[inline(always)]
fn sweep<const SUB: bool>(
    src: &[f64],
    n: usize,
    ks: Range<usize>,
    scale: impl Fn(usize, usize) -> f64,
    dst: &mut [f64],
    jstart: usize,
    lower: bool,
) {
    let mut buf = [[0.0; NR]; KB];
    for (p, panel) in dst.chunks_mut(NR * n).enumerate() {
        let j0 = jstart + p * NR;
        let from = std::array::from_fn(|t| if lower { j0 + t } else { 0 });
        panel_update::<SUB>(
            src,
            n,
            ks.clone(),
            |k, t| scale(k, j0 + t),
            panel,
            from,
            &mut buf,
        );
    }
}

// ------------------------------------------------------------------- GEMM

/// Blocked `C := alpha * op(A) * op(B) + beta * C`; bit-identical to
/// [`crate::gemm::naive_gemm`].
#[inline]
pub(crate) fn gemm(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Tile,
    b: &Tile,
    beta: f64,
    c: &mut Tile,
) {
    if small(c) {
        return naive_gemm(transa, transb, alpha, a, b, beta, c);
    }
    gemm_blocked(transa, transb, alpha, a, b, beta, c);
}

fn gemm_blocked(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Tile,
    b: &Tile,
    beta: f64,
    c: &mut Tile,
) {
    let n = c.dim();
    assert_eq!(a.dim(), n, "gemm: A dimension mismatch");
    assert_eq!(b.dim(), n, "gemm: B dimension mismatch");

    if beta != 1.0 {
        for x in c.as_mut_slice() {
            *x *= beta;
        }
    }
    if alpha == 0.0 {
        return;
    }

    match (transa, transb) {
        (Trans::No, _) => gemm_axpy_blocked(transb, alpha, a, b, c),
        (Trans::Yes, Trans::No) => gemm_dot_blocked(alpha, a, b, c),
        (Trans::Yes, Trans::Yes) => gemm_tt_blocked(alpha, a, b, c),
    }
}

multiversion! {
    /// The `transa = No` forms: `C[:,j] += sum_k s(k,j) * A[:,k]` with
    /// `s(k,j) = alpha * B[k,j]` (`transb = No`) or `alpha * B[j,k]`
    /// (`transb = Yes`).
    fn gemm_axpy_blocked / gemm_axpy_blocked_impl(
        transb: Trans, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile
    ) {
        let n = c.dim();
        let scale = |k: usize, j: usize| match transb {
            Trans::No => alpha * b.get(k, j),
            Trans::Yes => alpha * b.get(j, k),
        };
        sweep::<false>(a.as_slice(), n, 0..n, scale, c.as_mut_slice(), 0, false);
    }
}

/// Replicates the exact four-stripe reduction of the naive dot kernel:
/// per stripe `acc[s] += x[4c+s] * y[4c+s]`, then the scalar tail, then
/// the left-associated `acc0 + acc1 + acc2 + acc3 + rest` sum.
#[inline(always)]
fn dot4(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0_f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
    }
    let mut rest = 0.0;
    for i in chunks * 4..x.len() {
        rest += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + rest
}

multiversion! {
    /// `transa = Yes, transb = No`: `C[i,j] += alpha * dot(A[:,i],
    /// B[:,j])`, blocked over groups of four `j` so each `A` column is
    /// streamed once per group instead of once per output element; each
    /// individual dot is the exact naive four-stripe reduction.
    fn gemm_dot_blocked / gemm_dot_blocked_impl(
        alpha: f64, a: &Tile, b: &Tile, c: &mut Tile
    ) {
        let n = c.dim();
        let c = c.as_mut_slice();
        let mut j0 = 0;
        while j0 + NR <= n {
            let (y0, y1, y2, y3) = (b.col(j0), b.col(j0 + 1), b.col(j0 + 2), b.col(j0 + 3));
            for i in 0..n {
                let x = a.col(i);
                let d0 = dot4(x, y0);
                let d1 = dot4(x, y1);
                let d2 = dot4(x, y2);
                let d3 = dot4(x, y3);
                c[j0 * n + i] += alpha * d0;
                c[(j0 + 1) * n + i] += alpha * d1;
                c[(j0 + 2) * n + i] += alpha * d2;
                c[(j0 + 3) * n + i] += alpha * d3;
            }
            j0 += NR;
        }
        for j in j0..n {
            let y = b.col(j);
            for i in 0..n {
                c[j * n + i] += alpha * dot4(a.col(i), y);
            }
        }
    }
}

multiversion! {
    /// `transa = Yes, transb = Yes`: single-chain scalar dots as in the
    /// naive kernel, four `i` side by side sharing the strided walk over
    /// the `B` row.
    fn gemm_tt_blocked / gemm_tt_blocked_impl(
        alpha: f64, a: &Tile, b: &Tile, c: &mut Tile
    ) {
        let n = c.dim();
        for j in 0..n {
            let cj = c.col_mut(j);
            let mut i0 = 0;
            while i0 + NR <= n {
                let (x0, x1, x2, x3) = (a.col(i0), a.col(i0 + 1), a.col(i0 + 2), a.col(i0 + 3));
                let mut d = [0.0_f64; 4];
                #[allow(clippy::needless_range_loop)]
                for k in 0..n {
                    let bv = b.get(j, k);
                    d[0] += x0[k] * bv;
                    d[1] += x1[k] * bv;
                    d[2] += x2[k] * bv;
                    d[3] += x3[k] * bv;
                }
                for (t, dt) in d.into_iter().enumerate() {
                    cj[i0 + t] += alpha * dt;
                }
                i0 += NR;
            }
            for (i, cij) in cj.iter_mut().enumerate().skip(i0) {
                let mut d = 0.0;
                for (k, xk) in a.col(i).iter().enumerate() {
                    d += xk * b.get(j, k);
                }
                *cij += alpha * d;
            }
        }
    }
}

// ------------------------------------------------------------------- SYRK

/// Blocked symmetric rank-k update of the lower triangle; bit-identical
/// to [`crate::syrk::naive_syrk`].
#[inline]
pub(crate) fn syrk(trans: Trans, alpha: f64, a: &Tile, beta: f64, c: &mut Tile) {
    if small(c) {
        return naive_syrk(trans, alpha, a, beta, c);
    }
    syrk_blocked(trans, alpha, a, beta, c);
}

fn syrk_blocked(trans: Trans, alpha: f64, a: &Tile, beta: f64, c: &mut Tile) {
    let n = c.dim();
    assert_eq!(a.dim(), n, "syrk: A dimension mismatch");

    if beta != 1.0 {
        for j in 0..n {
            for x in &mut c.col_mut(j)[j..] {
                *x *= beta;
            }
        }
    }
    if alpha == 0.0 {
        return;
    }

    match trans {
        Trans::No => syrk_axpy_blocked(alpha, a, c),
        Trans::Yes => syrk_dot_blocked(alpha, a, c),
    }
}

multiversion! {
    /// `trans = No`: the GEMM sweep restricted to the lower trapezoid. The
    /// scale stream is row `j` of `A` itself, `s(k,j) = alpha * A[j,k]`.
    fn syrk_axpy_blocked / syrk_axpy_blocked_impl(alpha: f64, a: &Tile, c: &mut Tile) {
        let n = c.dim();
        let scale = |k: usize, j: usize| alpha * a.get(j, k);
        sweep::<false>(a.as_slice(), n, 0..n, scale, c.as_mut_slice(), 0, true);
    }
}

multiversion! {
    /// `trans = Yes`: single-chain scalar dots as in the naive kernel,
    /// four rows `i` side by side sharing the `A[:,j]` stream.
    fn syrk_dot_blocked / syrk_dot_blocked_impl(alpha: f64, a: &Tile, c: &mut Tile) {
        let n = c.dim();
        for j in 0..n {
            let (aj, cj) = (a.col(j), c.col_mut(j));
            let mut i = j;
            while i + NR <= n {
                let (x0, x1, x2, x3) = (a.col(i), a.col(i + 1), a.col(i + 2), a.col(i + 3));
                let mut d = [0.0_f64; 4];
                #[allow(clippy::needless_range_loop)]
                for k in 0..n {
                    let y = aj[k];
                    d[0] += x0[k] * y;
                    d[1] += x1[k] * y;
                    d[2] += x2[k] * y;
                    d[3] += x3[k] * y;
                }
                for (t, dt) in d.into_iter().enumerate() {
                    cj[i + t] += alpha * dt;
                }
                i += NR;
            }
            for (ii, cij) in cj.iter_mut().enumerate().skip(i) {
                let mut d = 0.0;
                let x = a.col(ii);
                for k in 0..n {
                    d += x[k] * aj[k];
                }
                *cij += alpha * d;
            }
        }
    }
}

// ------------------------------------------------------------------- TRSM

/// Blocked `B := alpha * B * L^{-T}`; bit-identical to
/// [`crate::trsm::naive_trsm_right_lower_trans`].
#[inline]
pub(crate) fn trsm_right_lower_trans(alpha: f64, l: &Tile, b: &mut Tile) {
    if small(b) {
        return naive_trsm_right_lower_trans(alpha, l, b);
    }
    trsm_blocked(alpha, l, b);
}

multiversion! {
    /// Forward sweep over panels of [`NR`] columns: the `k < j0` part of
    /// `X[:,j] -= L[j,k] * X[:,k]` is a GEMM-shaped update from the
    /// finished columns; the in-panel triangle and the divisions run in
    /// naive order.
    fn trsm_blocked / trsm_blocked_impl(alpha: f64, l: &Tile, b: &mut Tile) {
        let n = b.dim();
        assert_eq!(l.dim(), n, "trsm: L dimension mismatch");
        if alpha != 1.0 {
            for x in b.as_mut_slice() {
                *x *= alpha;
            }
        }
        let mut buf = [[0.0; NR]; KB];
        for j0 in (0..n).step_by(NR) {
            let (done, rest) = b.as_mut_slice().split_at_mut(j0 * n);
            let panel = &mut rest[..NR.min(n - j0) * n];
            panel_update::<true>(done, n, 0..j0, |k, t| l.get(j0 + t, k), panel, [0; NR], &mut buf);
            for t in 0..panel.len() / n {
                let (prev, xj) = panel[..(t + 1) * n].split_at_mut(t * n);
                column_update::<true>(prev, n, 0..t, |k| l.get(j0 + t, j0 + k), xj, 0);
                let d = l.get(j0 + t, j0 + t);
                for x in xj {
                    *x /= d;
                }
            }
        }
    }
}

// ------------------------------------------------------------------ POTRF

/// Blocked in-tile Cholesky; bit-identical to
/// [`crate::potrf::naive_potrf`] — including the partially-factorized
/// state left behind when a pivot fails.
#[inline]
pub(crate) fn potrf(a: &mut Tile) -> Result<(), KernelError> {
    if small(a) {
        return naive_potrf(a);
    }
    potrf_blocked(a)
}

multiversion! {
    /// Left-looking over panels of [`NR`] columns: a panel first receives
    /// the updates of *all* finished columns as one SYRK-shaped
    /// [`panel_update`] (ascending `k`, so every element still sees the
    /// naive update order), then is factored in naive right-looking
    /// order. The naive kernel has, when a pivot fails, already applied
    /// the completed pivots to every later column; here the columns right
    /// of the panel have seen none of them, so they are brought up to
    /// date before the error is returned — the identical partial state.
    fn potrf_blocked / potrf_blocked_impl(a: &mut Tile) -> Result<(), KernelError> {
        let n = a.dim();
        let mut buf = [[0.0; NR]; KB];
        for j0 in (0..n).step_by(NR) {
            let (done, rest) = a.as_mut_slice().split_at_mut(j0 * n);
            let panel = &mut rest[..NR.min(n - j0) * n];
            let from = std::array::from_fn(|t| j0 + t);
            panel_update::<true>(done, n, 0..j0, |k, t| done[k * n + j0 + t], panel, from, &mut buf);
            for t in 0..panel.len() / n {
                let k = j0 + t;
                let (ck, later) = panel[t * n..].split_at_mut(n);
                let akk = ck[k];
                if akk <= 0.0 || !akk.is_finite() {
                    let (done, rest) = a.as_mut_slice().split_at_mut((j0 + NR).min(n) * n);
                    sweep::<true>(done, n, 0..k, |k, j| done[k * n + j], rest, j0 + NR, true);
                    return Err(KernelError::NotPositiveDefinite(k));
                }
                let pivot = akk.sqrt();
                ck[k] = pivot;
                for v in &mut ck[k + 1..] {
                    *v /= pivot;
                }
                for (j, cj) in (k + 1..).zip(later.chunks_exact_mut(n)) {
                    let s = ck[j];
                    if s != 0.0 {
                        for i in j..n {
                            cj[i] -= s * ck[i];
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{bits_eq, random_lower_tile, random_spd_tile, random_tile};

    // exhaustive bitwise checks live in tests/backends.rs, which can only
    // reach the version `multiversion!` picks for this CPU; these run every
    // version the CPU supports, each against the naive kernel

    /// Dimensions from [`SMALL`] up that put every rung of the ladder, a
    /// rung clamped to row 0, ragged trailing columns and a second
    /// [`KB`] block into play.
    const DIMS: [usize; 12] = [16, 17, 19, 23, 24, 31, 32, 33, 40, 47, 65, 70];

    fn assert_bits_eq(expect: &Tile, got: &Tile, what: &str) {
        assert!(bits_eq(expect, got), "{what} differs from the naive kernel");
    }

    /// Exact zeros and negative zeros, so panels fall back to the
    /// naive-order skip loop.
    fn with_zeros(mut t: Tile) -> Tile {
        let n = t.dim();
        for k in 0..n {
            t.set(k, (k * 3) % n, 0.0);
            t.set((k * 5) % n, k, -0.0);
        }
        t
    }

    #[test]
    fn the_running_cpu_has_at_least_the_baseline_version() {
        let names: Vec<_> = potrf_blocked::versions().iter().map(|v| v.0).collect();
        assert_eq!(names[0], "baseline");
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            names.contains(&"avx512f"),
            std::arch::is_x86_feature_detected!("avx512f")
        );
    }

    #[test]
    fn every_gemm_version_matches_naive_bitwise() {
        for n in DIMS {
            let a = random_tile(n, 1);
            for (b, alpha) in [
                (random_tile(n, 2), -1.0),
                (with_zeros(random_tile(n, 5)), 2.0),
            ] {
                let c0 = random_tile(n, 3);
                for tb in [Trans::No, Trans::Yes] {
                    let mut expect = c0.clone();
                    naive_gemm(Trans::No, tb, alpha, &a, &b, 1.0, &mut expect);
                    for (isa, f) in gemm_axpy_blocked::versions() {
                        let mut c = c0.clone();
                        f(tb, alpha, &a, &b, &mut c);
                        assert_bits_eq(&expect, &c, &format!("gemm No/{tb:?} n={n} {isa}"));
                    }
                }
                let dots = [
                    (Trans::No, gemm_dot_blocked::versions()),
                    (Trans::Yes, gemm_tt_blocked::versions()),
                ];
                for (tb, versions) in dots {
                    let mut expect = c0.clone();
                    naive_gemm(Trans::Yes, tb, alpha, &a, &b, 1.0, &mut expect);
                    for (isa, f) in versions {
                        let mut c = c0.clone();
                        f(alpha, &a, &b, &mut c);
                        assert_bits_eq(&expect, &c, &format!("gemm Yes/{tb:?} n={n} {isa}"));
                    }
                }
            }
        }
    }

    #[test]
    fn every_syrk_version_matches_naive_bitwise() {
        for n in DIMS {
            for a in [random_tile(n, 7), with_zeros(random_tile(n, 6))] {
                let c0 = random_tile(n, 8);
                let forms = [
                    (Trans::No, syrk_axpy_blocked::versions()),
                    (Trans::Yes, syrk_dot_blocked::versions()),
                ];
                for (trans, versions) in forms {
                    let mut expect = c0.clone();
                    naive_syrk(trans, -1.0, &a, 1.0, &mut expect);
                    for (isa, f) in versions {
                        let mut c = c0.clone();
                        f(-1.0, &a, &mut c);
                        assert_bits_eq(&expect, &c, &format!("syrk {trans:?} n={n} {isa}"));
                    }
                }
            }
        }
    }

    #[test]
    fn every_trsm_version_matches_naive_bitwise() {
        for n in DIMS {
            let mut sparse = random_lower_tile(n, 9);
            for k in 1..n {
                sparse.set(k, (k * 3) % k, 0.0);
            }
            for (l, alpha) in [(random_lower_tile(n, 9), 1.0), (sparse, -1.0)] {
                let b0 = random_tile(n, 10);
                let mut expect = b0.clone();
                naive_trsm_right_lower_trans(alpha, &l, &mut expect);
                for (isa, f) in trsm_blocked::versions() {
                    let mut b = b0.clone();
                    f(alpha, &l, &mut b);
                    assert_bits_eq(&expect, &b, &format!("trsm n={n} {isa}"));
                }
            }
        }
    }

    #[test]
    fn every_potrf_version_matches_naive_bitwise_failures_included() {
        for n in DIMS {
            // no bad pivot, then one on the first, a middle and the last
            // column of a panel and on the last column of the tile: the
            // identical error and the identical partial factorization
            for bad in [None, Some(0), Some(NR + 1), Some(2 * NR - 1), Some(n - 1)] {
                let mut a0 = random_spd_tile(n, 11);
                if let Some(k) = bad {
                    a0.set(k, k, -3.0);
                }
                let mut expect = a0.clone();
                let expect_err = naive_potrf(&mut expect);
                assert_eq!(expect_err.is_err(), bad.is_some());
                for (isa, f) in potrf_blocked::versions() {
                    let mut a = a0.clone();
                    assert_eq!(f(&mut a), expect_err, "potrf n={n} bad={bad:?} {isa}");
                    assert_bits_eq(&expect, &a, &format!("potrf n={n} bad={bad:?} {isa}"));
                }
            }
        }
    }

    #[test]
    fn entry_points_match_naive_on_both_sides_of_the_small_tile_rule() {
        for n in [1, 2, 5, SMALL - 1, SMALL, SMALL + 1, 40] {
            let (a, b, c0) = (random_tile(n, 1), random_tile(n, 2), random_tile(n, 3));
            let (mut c1, mut c2) = (c0.clone(), c0.clone());
            naive_gemm(Trans::No, Trans::Yes, -1.0, &a, &b, 0.5, &mut c1);
            gemm(Trans::No, Trans::Yes, -1.0, &a, &b, 0.5, &mut c2);
            assert_bits_eq(&c1, &c2, &format!("gemm n={n}"));
            naive_syrk(Trans::No, -1.0, &a, 0.5, &mut c1);
            syrk(Trans::No, -1.0, &a, 0.5, &mut c2);
            assert_bits_eq(&c1, &c2, &format!("syrk n={n}"));
            let l = random_lower_tile(n, 4);
            naive_trsm_right_lower_trans(-1.0, &l, &mut c1);
            trsm_right_lower_trans(-1.0, &l, &mut c2);
            assert_bits_eq(&c1, &c2, &format!("trsm n={n}"));
            let (mut s1, mut s2) = (random_spd_tile(n, 5), random_spd_tile(n, 5));
            assert_eq!(naive_potrf(&mut s1), potrf(&mut s2));
            assert_bits_eq(&s1, &s2, &format!("potrf n={n}"));
        }
    }
}
