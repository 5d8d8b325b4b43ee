"""Dense-matrix substrate: factorizations, generalized inverses, projectors,
range tests, and PSD pencil maximization.

Everything is stored as a plain numpy array in complex128; real input is
embedded.  Numerical rank follows one convention throughout the toolkit:
singular values (or eigenvalues of PSD matrices) at or below ``RANK_TOL``
times the largest one are treated as zero.  ``one_blas_thread`` runs a
block of this linear algebra on one OpenBLAS thread.
"""

from __future__ import annotations

import ctypes
import importlib
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    IllConditionedSplit,
    NonFinite,
    NotHermitian,
    NotPSD,
    NotSquare,
    OracleMismatch,
)

RANK_TOL = 1e-10
# a min-eigenvalue PSD test passes down to -_PSD_SLACK * ||Sw||
_PSD_SLACK = 1e-13

__all__ = [
    "RANK_TOL",
    "EigenResult",
    "Subspace",
    "as_matrix",
    "hermitian_part",
    "operator_norm",
    "quadratic_forms",
    "hermitian_eig",
    "pinv",
    "drazin",
    "range_basis",
    "projector",
    "range_inclusion",
    "max_psd_scale",
    "one_blas_thread",
    "pencil",
]


_OPENBLAS_CONTROLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


def _openblas_pools() -> tuple:
    """The (get, set) thread-count controls of each OpenBLAS that NumPy and
    SciPy link, found by ``dlsym`` on their LAPACK extension modules, one
    pair per library; empty under any other BLAS."""
    pools = {}
    for module in ("numpy.linalg._umath_linalg", "scipy.linalg._flapack"):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, AttributeError, OSError, TypeError):
            continue
        for get_name, set_name in _OPENBLAS_CONTROLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.setdefault(ctypes.cast(get, ctypes.c_void_p).value, (get, put))
                break
    return tuple(pools.values())


_BLAS_POOLS = _openblas_pools()


@contextmanager
def one_blas_thread():
    """Run the body with every OpenBLAS pool of NumPy and SciPy at one
    thread, and give the caller back its counts on exit, also when an
    exception passes through.

    Framekit's operators are at most 32x32, where a second thread cannot
    speed a BLAS call up and its workers spin after each threaded call, so
    it only adds CPU time.  A pool already at one is left alone, so a
    nested entry changes nothing; with any other BLAS this does nothing.
    """
    restore = []
    try:
        for get, put in _BLAS_POOLS:
            count = get()
            if count != 1:
                restore.append((put, count))
                put(1)
        yield
    finally:
        for put, count in restore:
            put(count)


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFinite("matrix has non-finite entries")
    return m


def hermitian_part(m) -> np.ndarray:
    m = as_matrix(m)
    return (m + m.conj().T) / 2.0


def operator_norm(m) -> float:
    """Largest singular value; 0.0 for an empty matrix."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def quadratic_forms(form: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Re <c, F c> for every column c of ``cols``, by one matrix product;
    a stack of forms gives one row per form."""
    return np.einsum("ij,...ij->...j", cols.conj(), form @ cols).real


@dataclass(frozen=True)
class EigenResult:
    """Spectral data of a Hermitian matrix: ascending eigenvalues and a
    matching unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _checked_hermitian(m, name: str) -> np.ndarray:
    """The Hermitian part of ``m`` after the checks of hermitian_eig.

    An exactly Hermitian input is returned as is; it equals its Hermitian
    part bit for bit.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"{name} must be square, got {m.shape}")
    adjoint = m.conj().T
    if not (m == adjoint).all():
        if operator_norm(m - adjoint) > 1e-10 * operator_norm(m):
            raise NotHermitian(f"{name} is not Hermitian within tolerance")
        m = (m + adjoint) / 2.0
    return m


def hermitian_eig(m, *, name: str = "matrix") -> EigenResult:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotSquare on a rectangular input and NotHermitian when the
    symmetry residual exceeds ``1e-10 * ||M||``; ``name`` labels the matrix in
    both messages.  An exactly Hermitian input has residual zero, so its two
    norms are skipped.
    """
    w, v = np.linalg.eigh(_checked_hermitian(m, name))
    return EigenResult(w, v)


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse by SVD truncation.

    Singular values at or below ``RANK_TOL`` times the largest are dropped.
    The zero matrix maps to the zero matrix of transposed shape.
    """
    m = as_matrix(m)
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s[0] <= 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    keep = s > RANK_TOL * s[0]
    u, s, vh = u[:, keep], s[keep], vh[keep]
    return (vh.conj().T / s) @ u.conj().T


def _nilpotency_index(strict_upper: np.ndarray) -> int:
    """Smallest k >= 1 with N^k = 0 for a strictly upper triangular N.

    Each multiplication shifts the nonzero band up one diagonal, so powers
    reach an exact zero matrix in at most size(N) steps.
    """
    k = 1
    p = strict_upper
    while p.size and np.any(p):
        p = p @ strict_upper
        k += 1
    return k


def drazin(m, tol: float = RANK_TOL) -> tuple[np.ndarray, int]:
    """Drazin inverse via core-nilpotent splitting, with the index.

    Eigenvalues of magnitude above ``tol * ||M||`` form the invertible core;
    the rest are treated as the nilpotent part.  The result inverts the core
    and is zero on the nilpotent part.  Raises IllConditionedSplit when the
    spectral gap around the cut radius is below ``10 * tol`` relative to
    ``||M||``.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if n != m.shape[1]:
        raise NotSquare(f"expected square matrix, got {m.shape}")
    scale = operator_norm(m)
    if scale == 0.0:
        return np.zeros_like(m), 1
    cutoff = tol * scale
    t, z, sdim = scipy.linalg.schur(
        m, output="complex", sort=lambda lam: abs(lam) > cutoff
    )
    moduli = np.abs(np.diag(t))
    if 0 < sdim < n:
        gap = (moduli[:sdim].min() - moduli[sdim:].max()) / scale
        if gap < 10.0 * tol:
            raise IllConditionedSplit(
                f"spectral gap {gap:.3e} below {10.0 * tol:.3e} at the cut radius"
            )
    eye_core = np.eye(sdim, dtype=np.complex128)
    if sdim == n:
        inv_t = scipy.linalg.solve_triangular(t, eye_core)
        return z @ inv_t @ z.conj().T, 1
    t22 = t[sdim:, sdim:]
    index = _nilpotency_index(np.triu(t22, 1))
    if sdim == 0:
        return np.zeros_like(m), index
    t11 = t[:sdim, :sdim]
    t12 = t[:sdim, sdim:]
    # X solves T11 X - X T22 = -T12, decoupling the two invariant blocks.
    x = scipy.linalg.solve_sylvester(t11, -t22, -t12)
    inv_core = scipy.linalg.solve_triangular(t11, eye_core)
    s_t = np.zeros((n, n), dtype=np.complex128)
    s_t[:sdim, :sdim] = inv_core
    s_t[:sdim, sdim:] = -inv_core @ x
    return z @ s_t @ z.conj().T, index


@dataclass(frozen=True)
class Subspace:
    """A subspace given by an orthonormal column basis.

    ``basis`` has shape (ambient_dim, dim); dim may be zero for the trivial
    subspace.  Immutable after construction.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        if b.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis rows {b.shape[0]} != ambient dim {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise DimensionMismatch("more basis columns than ambient dimensions")
        if b.shape[1]:
            drift = b.conj().T @ b - np.eye(b.shape[1])
            # the Frobenius norm bounds the spectral norm from above, so a
            # drift under half the tolerance is accepted without an SVD
            if (np.linalg.norm(drift) > 0.5e-12
                    and operator_norm(drift) > 1e-12):
                raise ValueError("basis columns are not orthonormal")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @classmethod
    def _of(cls, ambient_dim: int, basis: np.ndarray) -> "Subspace":
        """A subspace on a basis that framekit has built orthonormal (by QR,
        SVD or a unit vector) or the decoder has checked, stored as
        __post_init__ stores it, a C-ordered read-only complex128 copy, but
        not checked again."""
        b = np.asarray(basis, dtype=np.complex128).copy()
        b.setflags(write=False)
        s = object.__new__(cls)
        object.__setattr__(s, "ambient_dim", ambient_dim)
        object.__setattr__(s, "basis", b)
        return s

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._of(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))


def range_basis(m, *, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the numerical column space of ``m``.

    Singular values at or below ``RANK_TOL * scale`` are dropped, ``scale``
    defaulting to the largest singular value of ``m``.  Pass an operator's
    norm to judge the rank of an operator-image against the operator, so
    that the image of an annihilated subspace stays trivial.
    """
    m = as_matrix(m)
    if m.shape[1] == 0 or scale == 0.0:
        return Subspace.zero(m.shape[0])
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if scale is None:
        if s.size == 0 or s[0] <= 0.0:
            return Subspace.zero(m.shape[0])
        scale = s[0]
    keep = s > RANK_TOL * scale
    return Subspace._of(m.shape[0], u[:, keep])


def projector(w: Subspace) -> np.ndarray:
    """Orthogonal projection onto the subspace."""
    return w.basis @ w.basis.conj().T


def range_inclusion(s, t) -> tuple[bool, float]:
    """Whether range(S) <= range(T), to 1e-10 ||S||, and the residual
    ||S - T T^+ S|| that decides it.  The floor scales with S, so a
    tiny S that leaves range(T) is not included."""
    s = as_matrix(s)
    t = as_matrix(t)
    if s.shape[0] != t.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: {s.shape[0]} vs {t.shape[0]}"
        )
    residual = operator_norm(s - (t @ pinv(t)) @ s)
    return residual <= 1e-10 * operator_norm(s), residual


def _require_psd(w: np.ndarray, name: str) -> None:
    """Raise NotPSD unless the ascending spectrum ``w`` is PSD within 1e-10."""
    bound = max(abs(w[0]), abs(w[-1])) if w.size else 0.0
    if w.size and w[0] < -1e-10 * bound:
        raise NotPSD(f"{name} has eigenvalue {w[0]:.3e}")


def _certify_psd_scale(sw: np.ndarray, g: np.ndarray, a: float,
                       sw_norm: float, g_max: float) -> None:
    """Raise OracleMismatch unless ``a`` is the largest scale with Sw - a G
    PSD, to 1e-8 relative, for Hermitian Sw (norm ``sw_norm``) and PSD G
    (top eigenvalue ``g_max``).

    The test ok(t) := lambda_min(Sw - t G) >= -_PSD_SLACK ||Sw|| is
    monotone in t because G is PSD.  So ok(a - d) together with
    not ok(a + d), d = 1e-8 max(a, ||Sw|| / lambda_max(G)), pins the
    threshold to within d of ``a``.  Both d and the slack scale with the
    forms.  The lower test is skipped when a - d <= 0, since the threshold
    is never below 0.  The tests run as one eigvalsh of the stacked forms,
    which gives each form the eigenvalues of a call of its own, bit for bit.
    """
    slack = _PSD_SLACK * sw_norm
    delta = 1e-8 * max(a, sw_norm / g_max)
    scales = (a + delta, a - delta) if a - delta > 0.0 else (a + delta,)
    ok = np.linalg.eigvalsh(np.stack([sw - t * g for t in scales]))[:, 0] >= -slack
    if ok[0] or not ok[1:].all():
        raise OracleMismatch(
            f"closed form {a:.12e} is not the PSD threshold to within {delta:.3e}"
        )


def pencil(left_form: np.ndarray, left_max_of: Callable[[], float],
           right_eig: EigenResult, *, kernel_top: bool = True,
           left_psd: bool = False) -> tuple[float, list[np.ndarray]]:
    """The largest ratio <f, L f> / <f, R f>, L = ``left_form`` with top
    eigenvalue ``left_max_of()`` and R the form ``right_eig`` decomposes,
    and the witness candidates for it.

    The candidates are the top vector of L on the numerical kernel of R,
    built only when ``kernel_top`` (it costs an eigensolve that a caller of
    the ratio alone discards), and the top vector of the pencil L g = mu R g
    compressed to range(R).  The ratio is that pencil's top eigenvalue,
    clipped at 0; it is 0 when lambda_max(L) <= 0, and inf when R = 0 or L
    leaks out of range(R).  A caller whose L is PSD as computed, such as
    the Hermitian part of X X*, passes ``left_psd``: its lambda_max(L) is at
    most 0 only when L = 0, where the clipped eigenvalue is 0 already, so
    ``left_max_of`` is called only when R is zero or has a kernel.
    """
    w, v = right_eig.eigenvalues, right_eig.eigenvectors
    keep = w > RANK_TOL * max(float(w[-1]), 0.0)

    def top(b):  # top eigenvalue and vector of L compressed by the basis b
        mu, vecs = np.linalg.eigh(hermitian_part(b.conj().T @ left_form @ b))
        return float(mu[-1]), b @ vecs[:, -1]

    tops = [top(v[:, ~keep])[1]] if kernel_top and not keep.all() else []
    if not keep.any():
        return (0.0 if left_max_of() <= 0.0 else math.inf), tops
    mu, vec = top(v[:, keep] / np.sqrt(w[keep]))
    tops.append(vec)
    if left_psd and keep.all():
        return max(mu, 0.0), tops
    left_max = left_max_of()
    if left_max <= 0.0:
        return 0.0, tops
    if not keep.all():
        # at full rank range(L) <= range(R) always holds: the leak is rounding
        vr = v[:, keep]
        if operator_norm(left_form - vr @ (vr.conj().T @ left_form)) > RANK_TOL * left_max:
            return math.inf, tops
    return max(mu, 0.0), tops


def max_psd_scale(sw, g, *, sw_eig: EigenResult | None = None) -> float:
    """sup { a >= 0 : Sw - a G is PSD } for Hermitian PSD Sw and G.

    Computed as 1 / the pencil ratio of (G, Sw), then certified by two
    min-eigenvalue tests in one eigensolve; a scale off the PSD threshold
    by more than 1e-8 (relative) raises OracleMismatch.  Returns 0 when range(G) is not
    inside range(Sw), and +inf when G = 0 (the constraint is vacuous).
    ``sw_eig``, when given, must be ``hermitian_eig(sw)``, such as a
    family's cached ``fusion_eig``; it saves recomputing it.
    """
    if sw_eig is None:
        sw_eig = hermitian_eig(sw, name="Sw")
    sw_w = sw_eig.eigenvalues
    _require_psd(sw_w, "Sw")
    gh = _checked_hermitian(g, "G")
    g_w = np.linalg.eigvalsh(gh)
    _require_psd(g_w, "G")
    g_max = float(g_w[-1]) if g_w.size else 0.0
    if g_max <= 0.0:
        return math.inf
    ratio = pencil(gh, lambda: g_max, sw_eig, kernel_top=False)[0]
    scale = 1.0 / ratio if ratio > 0.0 else math.inf
    if 0.0 < scale < math.inf:
        _certify_psd_scale(hermitian_part(sw), gh, scale,
                           max(abs(sw_w[0]), abs(sw_w[-1])), g_max)
    return scale
