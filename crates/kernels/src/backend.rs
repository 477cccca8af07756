//! Pluggable kernel backends: one dispatch surface, two engines.
//!
//! [`KernelBackend`] selects *how* the tile kernels execute without changing
//! *what* they compute: every backend is **bit-identical** to [`Naive`] —
//! the same floating-point operations are applied to every output element in
//! the same order, so factors, residuals and the analytic byte accounting
//! the paper's experiments rest on are unchanged by the backend choice.
//!
//! * [`Blocked`] — the default: cache-blocked, register-tiled
//!   GEMM/SYRK/TRSM/POTRF written as portable code the compiler
//!   autovectorizes. All four run one column-panel microkernel; ragged
//!   edges and the triangular kernels' diagonals are covered by a ladder
//!   of narrower microtiles whose surplus lanes are discarded, so no row is
//!   ever walked one element at a time, and tiles too small for a microtile
//!   go straight to the [`Naive`] loops — it is never the slower tier. On
//!   `x86_64` its hot loops are also compiled under AVX2 and AVX-512F code
//!   generation and the widest version the running CPU supports is picked
//!   by feature detection — from what the code observes, not from an
//!   option. Separate multiply and add everywhere, never FMA, which rounds
//!   once instead of twice and would break bit-identity.
//! * [`Naive`] — the reference loop nests (unit-stride axpys and dots): what
//!   the bitwise suites compare against, and what serves the ten kernels
//!   outside POTRF under either backend.
//!
//! [`Naive`]: KernelBackend::Naive
//! [`Blocked`]: KernelBackend::Blocked
//!
//! ## Selection precedence
//!
//! The runtime crates resolve the backend as **env > builder > default**:
//! the `SBC_KERNELS` environment variable (`naive` / `blocked`)
//! overrides whatever the builder requested ([`KernelBackend::resolve`]),
//! and the default is [`KernelBackend::Blocked`]. A value that names
//! neither is reported once on stderr and otherwise ignored.

use crate::{blocked, KernelError, Tile, Trans};

/// Which engine executes the tile kernels. See the module docs; all
/// variants compute bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelBackend {
    /// Reference loop nests: what every backend is bit-identical to.
    Naive,
    /// Cache-blocked, register-tiled portable kernels (the default).
    #[default]
    Blocked,
}

/// Environment variable overriding the backend choice (`naive` /
/// `blocked`); see [`KernelBackend::resolve`].
pub const KERNELS_ENV: &str = "SBC_KERNELS";

impl KernelBackend {
    /// Parses a CLI/env-style backend name.
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Some(KernelBackend::Naive),
            "blocked" => Some(KernelBackend::Blocked),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelBackend::Naive => "naive",
            KernelBackend::Blocked => "blocked",
        }
    }

    /// The backend requested by the [`KERNELS_ENV`] environment variable,
    /// if set to a recognized name. Any other value is reported on stderr —
    /// once per process: every `Run` resolves its backend — and ignored, so
    /// a stale or mistyped name cannot silently select the other tier.
    pub fn from_env() -> Option<KernelBackend> {
        let value = std::env::var_os(KERNELS_ENV)?;
        let value = value.to_string_lossy();
        let parsed = Self::parse(&value);
        if parsed.is_none() {
            static REPORTED: std::sync::Once = std::sync::Once::new();
            REPORTED.call_once(|| eprintln!("{}", Self::unrecognized(&value)));
        }
        parsed
    }

    /// What [`KernelBackend::from_env`] says about a value that names no
    /// backend.
    fn unrecognized(value: &str) -> String {
        format!(
            "warning: ignoring {KERNELS_ENV}={value:?}: not a kernel backend \
             (accepted: `{}`, `{}`)",
            KernelBackend::Naive,
            KernelBackend::Blocked
        )
    }

    /// Applies the selection precedence **env > builder > default**:
    /// returns the [`KERNELS_ENV`] override when present, else `requested`.
    pub fn resolve(requested: KernelBackend) -> KernelBackend {
        Self::from_env().unwrap_or(requested)
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tile-kernel dispatch surface: every kernel the runtime executes, as
/// methods. Implemented by [`KernelBackend`] (enum dispatch); usable as a
/// trait object where dynamic choice is preferred.
///
/// Semantics, panics and error behavior of each method match the naive
/// reference implementations in the per-operation modules exactly —
/// including bitwise results.
pub trait Kernels {
    /// `C := alpha * op(A) * op(B) + beta * C`; see [`crate::gemm`].
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        transa: Trans,
        transb: Trans,
        alpha: f64,
        a: &Tile,
        b: &Tile,
        beta: f64,
        c: &mut Tile,
    );

    /// Symmetric rank-k update of the lower triangle; see [`crate::syrk`].
    fn syrk(&self, trans: Trans, alpha: f64, a: &Tile, beta: f64, c: &mut Tile);

    /// In-tile Cholesky factorization; see [`crate::potrf`].
    fn potrf(&self, a: &mut Tile) -> Result<(), KernelError>;

    /// `B := alpha * B * L^{-T}`; see [`crate::trsm`].
    fn trsm_right_lower_trans(&self, alpha: f64, l: &Tile, b: &mut Tile);

    /// `B := alpha * B * L^{-1}`; see [`crate::trsm`].
    fn trsm_right_lower(&self, alpha: f64, l: &Tile, b: &mut Tile);

    /// `B := alpha * L^{-1} * B`; see [`crate::trsm`].
    fn trsm_left_lower(&self, alpha: f64, l: &Tile, b: &mut Tile);

    /// `B := alpha * L^{-T} * B`; see [`crate::trsm`].
    fn trsm_left_lower_trans(&self, alpha: f64, l: &Tile, b: &mut Tile);

    /// `B := L^{-1} * B` with unit diagonal; see
    /// [`crate::trsm`].
    fn trsm_left_unit_lower(&self, l: &Tile, b: &mut Tile);

    /// `B := B * U^{-1}`; see [`crate::trsm`].
    fn trsm_right_upper(&self, u: &Tile, b: &mut Tile);

    /// In-tile lower-triangular inversion; see [`crate::trtri`].
    fn trtri(&self, a: &mut Tile) -> Result<(), KernelError>;

    /// In-tile `L^T * L` product; see [`crate::lauum`].
    fn lauum(&self, a: &mut Tile);

    /// In-tile unpivoted LU; see [`crate::getrf`].
    fn getrf(&self, a: &mut Tile) -> Result<(), KernelError>;

    /// `B := L * B`; see [`crate::trmm`].
    fn trmm_left_lower(&self, l: &Tile, b: &mut Tile);

    /// `B := L^T * B`; see [`crate::trmm`].
    fn trmm_left_lower_trans(&self, l: &Tile, b: &mut Tile);
}

impl Kernels for KernelBackend {
    fn gemm(
        &self,
        transa: Trans,
        transb: Trans,
        alpha: f64,
        a: &Tile,
        b: &Tile,
        beta: f64,
        c: &mut Tile,
    ) {
        match self {
            KernelBackend::Naive => crate::gemm::naive_gemm(transa, transb, alpha, a, b, beta, c),
            KernelBackend::Blocked => blocked::gemm(transa, transb, alpha, a, b, beta, c),
        }
    }

    fn syrk(&self, trans: Trans, alpha: f64, a: &Tile, beta: f64, c: &mut Tile) {
        match self {
            KernelBackend::Naive => crate::syrk::naive_syrk(trans, alpha, a, beta, c),
            KernelBackend::Blocked => blocked::syrk(trans, alpha, a, beta, c),
        }
    }

    fn potrf(&self, a: &mut Tile) -> Result<(), KernelError> {
        match self {
            KernelBackend::Naive => crate::potrf::naive_potrf(a),
            KernelBackend::Blocked => blocked::potrf(a),
        }
    }

    fn trsm_right_lower_trans(&self, alpha: f64, l: &Tile, b: &mut Tile) {
        match self {
            KernelBackend::Naive => crate::trsm::naive_trsm_right_lower_trans(alpha, l, b),
            KernelBackend::Blocked => blocked::trsm_right_lower_trans(alpha, l, b),
        }
    }

    fn trsm_right_lower(&self, alpha: f64, l: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_right_lower(alpha, l, b);
    }

    fn trsm_left_lower(&self, alpha: f64, l: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_left_lower(alpha, l, b);
    }

    fn trsm_left_lower_trans(&self, alpha: f64, l: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_left_lower_trans(alpha, l, b);
    }

    fn trsm_left_unit_lower(&self, l: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_left_unit_lower(l, b);
    }

    fn trsm_right_upper(&self, u: &Tile, b: &mut Tile) {
        crate::trsm::naive_trsm_right_upper(u, b);
    }

    fn trtri(&self, a: &mut Tile) -> Result<(), KernelError> {
        crate::trtri::naive_trtri(a)
    }

    fn lauum(&self, a: &mut Tile) {
        crate::lauum::naive_lauum(a);
    }

    fn getrf(&self, a: &mut Tile) -> Result<(), KernelError> {
        crate::getrf::naive_getrf(a)
    }

    fn trmm_left_lower(&self, l: &Tile, b: &mut Tile) {
        crate::trmm::naive_trmm_left_lower(l, b);
    }

    fn trmm_left_lower_trans(&self, l: &Tile, b: &mut Tile) {
        crate::trmm::naive_trmm_left_lower_trans(l, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for b in [KernelBackend::Naive, KernelBackend::Blocked] {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
        }
        assert_eq!(
            KernelBackend::parse("BLOCKED"),
            Some(KernelBackend::Blocked)
        );
        for gone in ["mkl", "arch", "simd"] {
            assert_eq!(KernelBackend::parse(gone), None);
        }
    }

    #[test]
    fn default_is_blocked() {
        assert_eq!(KernelBackend::default(), KernelBackend::Blocked);
    }

    #[test]
    fn an_unrecognized_env_value_is_named_with_the_accepted_ones() {
        // the parse and the wording, without touching the process
        // environment other tests run under
        for stale in ["arch", "niave", ""] {
            assert_eq!(KernelBackend::parse(stale), None);
            let report = KernelBackend::unrecognized(stale);
            assert!(report.contains(KERNELS_ENV) && report.contains(&format!("{stale:?}")));
            assert!(report.contains("`naive`") && report.contains("`blocked`"));
        }
    }

    #[test]
    fn trait_object_dispatch_works() {
        let k: &dyn Kernels = &KernelBackend::Blocked;
        let mut t = Tile::identity(5);
        k.potrf(&mut t).unwrap();
        assert!(t.max_abs_diff(&Tile::identity(5)) == 0.0);
    }
}
