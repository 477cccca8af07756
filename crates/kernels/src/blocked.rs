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
//! Three ingredients, shared by GEMM / SYRK / TRSM / POTRF:
//!
//! * **Column panels** — the axpy-form updates (`gemm` No/·, `syrk` No,
//!   the trailing updates of `potrf`) process [`NR`] destination columns
//!   per sweep over the source operand, cutting source traffic by `NR`.
//! * **Register microtiles** — within a panel, [`MR`] rows accumulate in
//!   a `[f64; MR]` the compiler keeps in vector registers
//!   (`chunks_exact`-style portable autovectorization; no intrinsics).
//! * **Naive-order edges** — dimensions that are not multiples of
//!   [`MR`]/[`NR`] fall back to scalar loops that walk the identical
//!   `k`-ascending order, so ragged tiles are handled without any
//!   special-case numerics.
//!
//! The `s != 0.0` sparsity skips of the naive kernels are respected by a
//! cheap pre-scan: a panel whose scale stream contains an exact zero is
//! processed with the branchy naive-order column loop instead of the
//! branch-free microkernel, so the skip semantics stay bit-identical
//! (the distinction matters for `-0.0` and non-finite inputs, where
//! `x + 0.0` or `0.0 * inf` would change the result).
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
//! element, and Rust never contracts `a * b + c` into an FMA.

use crate::gemm::Trans;
use crate::{KernelError, Tile};

/// Rows per register microtile.
const MR: usize = 32;
/// Destination columns updated together by one panel sweep.
const NR: usize = 4;
/// Panel width of the blocked Cholesky factorization.
const PW: usize = 32;

/// Compiles the function body for the baseline ISA and, on `x86_64`, also
/// under AVX2 and AVX-512F code generation; the public wrapper dispatches
/// to the widest version the CPU supports. The body itself stays portable
/// — `#[target_feature]` only widens what the autovectorizer may emit.
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
                #[target_feature(enable = "avx512f")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn wide512($($arg: $ty),*) $(-> $ret)? {
                    $impl_name($($arg),*)
                }
                #[target_feature(enable = "avx2")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn wide256($($arg: $ty),*) $(-> $ret)? {
                    $impl_name($($arg),*)
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the feature was just detected at run time
                    return unsafe { wide512($($arg),*) };
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the feature was just detected at run time
                    return unsafe { wide256($($arg),*) };
                }
            }
            $impl_name($($arg),*)
        }
    };
}

/// Blocked `C := alpha * op(A) * op(B) + beta * C`; bit-identical to
/// [`crate::gemm::naive_gemm`].
pub(crate) fn gemm(
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

/// The scale applied to `A[:,k]` when updating destination column `j`:
/// `alpha * B[k,j]` (`transb = No`) or `alpha * B[j,k]` (`transb = Yes`).
#[inline(always)]
fn s_val(transb: Trans, alpha: f64, b: &Tile, j: usize, k: usize) -> f64 {
    match transb {
        Trans::No => alpha * b.get(k, j),
        Trans::Yes => alpha * b.get(j, k),
    }
}

multiversion! {
    /// The `transa = No` forms: `C[:,j] += sum_k s(k,j) * A[:,k]`.
    fn gemm_axpy_blocked / gemm_axpy_blocked_impl(
        transb: Trans, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile
    ) {
        let n = c.dim();
        let mut j0 = 0;
        while j0 + NR <= n {
            if panel_all_nonzero(n, transb, alpha, b, j0) {
                let (c0, c1, c2, c3) = four_cols_mut(c, j0);
                axpy_panel4(n, 0, transb, alpha, a, b, j0, c0, c1, c2, c3);
            } else {
                // a zero in the scale stream: naive-order skip semantics
                for t in 0..NR {
                    axpy_col_rows(n, 0, transb, alpha, a, b, j0 + t, c.col_mut(j0 + t));
                }
            }
            j0 += NR;
        }
        for j in j0..n {
            axpy_col_rows(n, 0, transb, alpha, a, b, j, c.col_mut(j));
        }
    }
}

/// True when no scale value of panel `j0..j0+NR` is an exact zero, i.e.
/// the branch-free microkernel computes the identical operation sequence.
#[inline(always)]
fn panel_all_nonzero(n: usize, transb: Trans, alpha: f64, b: &Tile, j0: usize) -> bool {
    for k in 0..n {
        for t in 0..NR {
            if s_val(transb, alpha, b, j0 + t, k) == 0.0 {
                return false;
            }
        }
    }
    true
}

/// Register microkernel shared by the axpy-form updates: accumulates
/// `col_t[i] += s(k, j0+t) * A[i,k]` over all `k` for rows `row0..n` of
/// four destination columns, [`MR`] rows at a time. Branch-free: the
/// caller has verified that no scale value is zero, so per output element
/// the operation sequence is the naive one (ascending `k`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn axpy_panel4(
    n: usize,
    row0: usize,
    transb: Trans,
    alpha: f64,
    a: &Tile,
    b: &Tile,
    j0: usize,
    c0: &mut [f64],
    c1: &mut [f64],
    c2: &mut [f64],
    c3: &mut [f64],
) {
    let mut i0 = row0;
    while i0 + MR <= n {
        let mut acc0: [f64; MR] = c0[i0..i0 + MR].try_into().unwrap();
        let mut acc1: [f64; MR] = c1[i0..i0 + MR].try_into().unwrap();
        let mut acc2: [f64; MR] = c2[i0..i0 + MR].try_into().unwrap();
        let mut acc3: [f64; MR] = c3[i0..i0 + MR].try_into().unwrap();
        for k in 0..n {
            let s0 = s_val(transb, alpha, b, j0, k);
            let s1 = s_val(transb, alpha, b, j0 + 1, k);
            let s2 = s_val(transb, alpha, b, j0 + 2, k);
            let s3 = s_val(transb, alpha, b, j0 + 3, k);
            let av = &a.col(k)[i0..i0 + MR];
            for m in 0..MR {
                acc0[m] += s0 * av[m];
            }
            for m in 0..MR {
                acc1[m] += s1 * av[m];
            }
            for m in 0..MR {
                acc2[m] += s2 * av[m];
            }
            for m in 0..MR {
                acc3[m] += s3 * av[m];
            }
        }
        c0[i0..i0 + MR].copy_from_slice(&acc0);
        c1[i0..i0 + MR].copy_from_slice(&acc1);
        c2[i0..i0 + MR].copy_from_slice(&acc2);
        c3[i0..i0 + MR].copy_from_slice(&acc3);
        i0 += MR;
    }
    // ragged rows: scalar accumulation in the identical k order
    for i in i0..n {
        let mut v0 = c0[i];
        let mut v1 = c1[i];
        let mut v2 = c2[i];
        let mut v3 = c3[i];
        for k in 0..n {
            let av = a.col(k)[i];
            v0 += s_val(transb, alpha, b, j0, k) * av;
            v1 += s_val(transb, alpha, b, j0 + 1, k) * av;
            v2 += s_val(transb, alpha, b, j0 + 2, k) * av;
            v3 += s_val(transb, alpha, b, j0 + 3, k) * av;
        }
        c0[i] = v0;
        c1[i] = v1;
        c2[i] = v2;
        c3[i] = v3;
    }
}

/// One destination column in the exact naive order (including the
/// `s != 0.0` skips), rows `row0..n`: the fallback for panels containing
/// zero scales and for ragged trailing columns.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn axpy_col_rows(
    n: usize,
    row0: usize,
    transb: Trans,
    alpha: f64,
    a: &Tile,
    b: &Tile,
    j: usize,
    ccol: &mut [f64],
) {
    for k in 0..n {
        let s = s_val(transb, alpha, b, j, k);
        if s != 0.0 {
            let acol = a.col(k);
            for i in row0..n {
                ccol[i] += s * acol[i];
            }
        }
    }
}

/// Borrows four consecutive columns of a tile mutably.
fn four_cols_mut(t: &mut Tile, j0: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
    let n = t.dim();
    let panel = &mut t.as_mut_slice()[j0 * n..(j0 + 4) * n];
    let (c0, rest) = panel.split_at_mut(n);
    let (c1, rest) = rest.split_at_mut(n);
    let (c2, c3) = rest.split_at_mut(n);
    (c0, c1, c2, c3)
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
        let mut j0 = 0;
        while j0 + NR <= n {
            let (y0, y1, y2, y3) = (b.col(j0), b.col(j0 + 1), b.col(j0 + 2), b.col(j0 + 3));
            for i in 0..n {
                let x = a.col(i);
                let d0 = dot4(x, y0);
                let d1 = dot4(x, y1);
                let d2 = dot4(x, y2);
                let d3 = dot4(x, y3);
                c.set(i, j0, c.get(i, j0) + alpha * d0);
                c.set(i, j0 + 1, c.get(i, j0 + 1) + alpha * d1);
                c.set(i, j0 + 2, c.get(i, j0 + 2) + alpha * d2);
                c.set(i, j0 + 3, c.get(i, j0 + 3) + alpha * d3);
            }
            j0 += NR;
        }
        for j in j0..n {
            let y = b.col(j);
            for i in 0..n {
                let d = dot4(a.col(i), y);
                let v = c.get(i, j) + alpha * d;
                c.set(i, j, v);
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
                    let v = c.get(i0 + t, j) + alpha * dt;
                    c.set(i0 + t, j, v);
                }
                i0 += NR;
            }
            for i in i0..n {
                let mut d = 0.0;
                for (k, xk) in a.col(i).iter().enumerate() {
                    d += xk * b.get(j, k);
                }
                let v = c.get(i, j) + alpha * d;
                c.set(i, j, v);
            }
        }
    }
}

/// Blocked symmetric rank-k update of the lower triangle; bit-identical
/// to [`crate::syrk::naive_syrk`].
pub(crate) fn syrk(trans: Trans, alpha: f64, a: &Tile, beta: f64, c: &mut Tile) {
    let n = c.dim();
    assert_eq!(a.dim(), n, "syrk: A dimension mismatch");

    if beta != 1.0 {
        for j in 0..n {
            for i in j..n {
                let v = beta * c.get(i, j);
                c.set(i, j, v);
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
    /// `trans = No`: the axpy form over panels of four columns. The scale
    /// stream is row `j` of `A` itself (`s = alpha * A[j,k]`), i.e. the
    /// `transb = Yes` shape of the shared microkernel with `B = A`.
    fn syrk_axpy_blocked / syrk_axpy_blocked_impl(alpha: f64, a: &Tile, c: &mut Tile) {
        let n = c.dim();
        let mut j0 = 0;
        while j0 + NR <= n {
            // triangular head rows [j, j0+NR): per-column naive order
            for t in 0..NR {
                let j = j0 + t;
                let ccol = c.col_mut(j);
                for k in 0..n {
                    let s = alpha * a.get(j, k);
                    if s != 0.0 {
                        let acol = a.col(k);
                        for i in j..j0 + NR {
                            ccol[i] += s * acol[i];
                        }
                    }
                }
            }
            // rectangular body rows [j0+NR, n)
            if panel_all_nonzero(n, Trans::Yes, alpha, a, j0) {
                let (c0, c1, c2, c3) = four_cols_mut(c, j0);
                axpy_panel4(n, j0 + NR, Trans::Yes, alpha, a, a, j0, c0, c1, c2, c3);
            } else {
                for t in 0..NR {
                    axpy_col_rows(n, j0 + NR, Trans::Yes, alpha, a, a, j0 + t, c.col_mut(j0 + t));
                }
            }
            j0 += NR;
        }
        for j in j0..n {
            axpy_col_rows(n, j, Trans::Yes, alpha, a, a, j, c.col_mut(j));
        }
    }
}

multiversion! {
    /// `trans = Yes`: single-chain scalar dots as in the naive kernel,
    /// four rows `i` side by side sharing the `A[:,j]` stream.
    fn syrk_dot_blocked / syrk_dot_blocked_impl(alpha: f64, a: &Tile, c: &mut Tile) {
        let n = c.dim();
        for j in 0..n {
            let aj = a.col(j);
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
                    let v = c.get(i + t, j) + alpha * dt;
                    c.set(i + t, j, v);
                }
                i += NR;
            }
            for ii in i..n {
                let mut d = 0.0;
                let x = a.col(ii);
                for k in 0..n {
                    d += x[k] * aj[k];
                }
                let v = c.get(ii, j) + alpha * d;
                c.set(ii, j, v);
            }
        }
    }
}

multiversion! {
    /// Blocked `B := alpha * B * L^{-T}`; bit-identical to
    /// [`crate::trsm::naive_trsm_right_lower_trans`]. The `k < j` axpys
    /// of each column are fused four at a time so `X[:,j]` makes one
    /// pass through the cache per four updates instead of four.
    pub(crate) fn trsm_right_lower_trans / trsm_right_lower_trans_impl(
        alpha: f64, l: &Tile, b: &mut Tile
    ) {
        let n = b.dim();
        assert_eq!(l.dim(), n, "trsm: L dimension mismatch");
        if alpha != 1.0 {
            for x in b.as_mut_slice() {
                *x *= alpha;
            }
        }
        for j in 0..n {
            {
                let data = b.as_mut_slice();
                let (lo, hi) = data.split_at_mut(j * n);
                let xj = &mut hi[..n];
                let mut pending: [(usize, f64); 4] = [(0, 0.0); 4];
                let mut np = 0;
                for k in 0..j {
                    let s = l.get(j, k);
                    if s != 0.0 {
                        pending[np] = (k, s);
                        np += 1;
                        if np == 4 {
                            fused_sub4(n, 0, xj, lo, &pending);
                            np = 0;
                        }
                    }
                }
                for &(k, s) in &pending[..np] {
                    let x = &lo[k * n..k * n + n];
                    for i in 0..n {
                        xj[i] -= s * x[i];
                    }
                }
            }
            let d = l.get(j, j);
            for x in b.col_mut(j) {
                *x /= d;
            }
        }
    }
}

/// Applies four fused axpys `dst[i] -= s_t * col_t[i]` for rows
/// `row0..n`, in pending order (ascending `k`): per destination element
/// the subtraction sequence is identical to applying them one by one.
#[inline(always)]
fn fused_sub4(n: usize, row0: usize, dst: &mut [f64], cols: &[f64], pending: &[(usize, f64); 4]) {
    let (k0, s0) = pending[0];
    let (k1, s1) = pending[1];
    let (k2, s2) = pending[2];
    let (k3, s3) = pending[3];
    let x0 = &cols[k0 * n..k0 * n + n];
    let x1 = &cols[k1 * n..k1 * n + n];
    let x2 = &cols[k2 * n..k2 * n + n];
    let x3 = &cols[k3 * n..k3 * n + n];
    for i in row0..n {
        let mut v = dst[i];
        v -= s0 * x0[i];
        v -= s1 * x1[i];
        v -= s2 * x2[i];
        v -= s3 * x3[i];
        dst[i] = v;
    }
}

multiversion! {
    /// Blocked in-tile Cholesky; bit-identical to
    /// [`crate::potrf::naive_potrf`] — including the
    /// partially-factorized state left behind when a pivot fails.
    ///
    /// Right-looking with a panel twist: columns are factored in panels
    /// of [`PW`]; the rank-`PW` update of the columns right of a panel
    /// is deferred until the panel is done and then applied with fused
    /// axpys (ascending `k`, so every trailing element still sees the
    /// naive update order). On a pivot failure the deferred updates of
    /// the completed pivots are flushed first, reproducing the naive
    /// kernel's partial state exactly.
    pub(crate) fn potrf / potrf_impl(a: &mut Tile) -> Result<(), KernelError> {
        let n = a.dim();
        let mut p = 0;
        while p < n {
            let pe = (p + PW).min(n);
            // factor the panel; within-panel trailing updates happen
            // immediately, updates to columns >= pe are deferred
            for k in p..pe {
                let akk = a.get(k, k);
                if akk <= 0.0 || !akk.is_finite() {
                    // reproduce the naive partial state: columns right of
                    // the panel are still owed the updates of pivots p..k
                    trailing_update(a, p, k, pe);
                    return Err(KernelError::NotPositiveDefinite(k));
                }
                let pivot = akk.sqrt();
                a.set(k, k, pivot);
                {
                    let col = a.col_mut(k);
                    for v in &mut col[k + 1..n] {
                        *v /= pivot;
                    }
                }
                for j in k + 1..pe {
                    let s = a.get(j, k);
                    if s != 0.0 {
                        let data = a.as_mut_slice();
                        let (lo, hi) = data.split_at_mut(j * n);
                        let ck = &lo[k * n..k * n + n];
                        let cj = &mut hi[..n];
                        for i in j..n {
                            cj[i] -= s * ck[i];
                        }
                    }
                }
            }
            trailing_update(a, p, pe, pe);
            p = pe;
        }
        Ok(())
    }
}

/// Applies the deferred rank-`(kend - kstart)` update of pivots
/// `kstart..kend` to every column `j >= jstart`, rows `j..n`, fusing up
/// to four pivot columns per pass. The multipliers `a[j,k]` live in the
/// finished panel columns, which receive no further writes, so reading
/// them up front is exact.
#[inline(always)]
fn trailing_update(a: &mut Tile, kstart: usize, kend: usize, jstart: usize) {
    let n = a.dim();
    for j in jstart..n {
        let data = a.as_mut_slice();
        let (lo, hi) = data.split_at_mut(j * n);
        let cj = &mut hi[..n];
        let mut pending: [(usize, f64); 4] = [(0, 0.0); 4];
        let mut np = 0;
        for k in kstart..kend {
            let s = lo[k * n + j];
            if s != 0.0 {
                pending[np] = (k, s);
                np += 1;
                if np == 4 {
                    fused_sub4(n, j, cj, lo, &pending);
                    np = 0;
                }
            }
        }
        for &(k, s) in &pending[..np] {
            let ck = &lo[k * n..k * n + n];
            for i in j..n {
                cj[i] -= s * ck[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive_gemm;
    use crate::potrf::naive_potrf;
    use crate::reference::{random_lower_tile, random_spd_tile, random_tile};
    use crate::syrk::naive_syrk;
    use crate::trsm::naive_trsm_right_lower_trans;

    // exhaustive bitwise checks live in tests/backends.rs; these are the
    // fast in-module smoke checks

    #[test]
    fn gemm_all_trans_bitwise_matches_naive() {
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 16, 23, 40, 64] {
            let a = random_tile(n, 1);
            let b = random_tile(n, 2);
            for ta in [Trans::No, Trans::Yes] {
                for tb in [Trans::No, Trans::Yes] {
                    let mut c1 = random_tile(n, 3);
                    let mut c2 = c1.clone();
                    naive_gemm(ta, tb, -1.0, &a, &b, 1.0, &mut c1);
                    gemm(ta, tb, -1.0, &a, &b, 1.0, &mut c2);
                    assert!(
                        c1.max_abs_diff(&c2) == 0.0,
                        "gemm {ta:?}/{tb:?} n={n} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_with_zeros_in_b_matches_naive() {
        // the s != 0.0 skip path must be replicated exactly
        for n in [4, 6, 9, 40] {
            let a = random_tile(n, 4);
            let mut b = random_tile(n, 5);
            for k in 0..n {
                b.set(k, k % n, 0.0);
                b.set(k % 2, k, -0.0);
            }
            for tb in [Trans::No, Trans::Yes] {
                let mut c1 = random_tile(n, 6);
                let mut c2 = c1.clone();
                naive_gemm(Trans::No, tb, 2.0, &a, &b, 0.5, &mut c1);
                gemm(Trans::No, tb, 2.0, &a, &b, 0.5, &mut c2);
                assert!(c1.max_abs_diff(&c2) == 0.0, "n={n} tb={tb:?}");
            }
        }
    }

    #[test]
    fn syrk_bitwise_matches_naive() {
        for n in [1, 3, 4, 5, 8, 11, 17, 40, 64] {
            let a = random_tile(n, 7);
            for t in [Trans::No, Trans::Yes] {
                let mut c1 = random_tile(n, 8);
                let mut c2 = c1.clone();
                naive_syrk(t, -1.0, &a, 1.0, &mut c1);
                syrk(t, -1.0, &a, 1.0, &mut c2);
                assert!(c1.max_abs_diff(&c2) == 0.0, "syrk {t:?} n={n} differs");
            }
        }
    }

    #[test]
    fn trsm_bitwise_matches_naive() {
        for n in [1, 2, 5, 8, 13, 19, 40, 64] {
            let l = random_lower_tile(n, 9);
            let b0 = random_tile(n, 10);
            let mut b1 = b0.clone();
            let mut b2 = b0.clone();
            naive_trsm_right_lower_trans(1.0, &l, &mut b1);
            trsm_right_lower_trans(1.0, &l, &mut b2);
            assert!(b1.max_abs_diff(&b2) == 0.0, "trsm n={n} differs");
        }
    }

    #[test]
    fn potrf_bitwise_matches_naive() {
        for n in [1, 2, 7, 31, 32, 33, 70] {
            let a0 = random_spd_tile(n, 11);
            let mut a1 = a0.clone();
            let mut a2 = a0.clone();
            naive_potrf(&mut a1).unwrap();
            potrf(&mut a2).unwrap();
            assert!(a1.max_abs_diff(&a2) == 0.0, "potrf n={n} differs");
        }
    }

    #[test]
    fn potrf_failure_state_matches_naive() {
        // a pivot that fails mid-panel must leave the identical partial
        // factorization behind
        for n in [5, 40] {
            let mut a0 = random_spd_tile(n, 12);
            a0.set(n / 2, n / 2, -3.0);
            let mut a1 = a0.clone();
            let mut a2 = a0.clone();
            let e1 = naive_potrf(&mut a1);
            let e2 = potrf(&mut a2);
            assert_eq!(e1, e2);
            assert!(e1.is_err());
            assert!(a1.max_abs_diff(&a2) == 0.0, "failure state n={n} differs");
        }
    }
}
