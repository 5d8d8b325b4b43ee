"""Independent oracles for the tests.

Each one answers a question the checker answers too, by another route:
Douglas' range inclusion with its certificates, the largest PSD scale by
bisection, and the analysis/reconstruction pair of a fusion frame.  They
build on framekit's numerical substrate (numerics, frame_core, errors)
but never on its checkers, so no checker serves as its own oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from framekit.errors import DimensionMismatch, NonFinite
from framekit.frame_core import (
    WeightedSubspaceFamily,
    fusion_bounds,
    fusion_synthesis_matrix,
)
from framekit.numerics import (
    _PSD_SLACK,
    Subspace,
    as_matrix,
    hermitian_part,
    max_psd_scale,
    operator_norm,
    pinv,
    range_basis,
    range_inclusion,
)

# psd_scale_bisection reports inf once doubling the scale still passes
# after this many doublings
_MAX_DOUBLINGS = 200


def from_span(vectors) -> Subspace:
    """Orthonormalize a spanning set (columns) into a Subspace."""
    return range_basis(as_matrix(vectors))


@dataclass(frozen=True)
class DouglasReport:
    """Outcome of the range-inclusion / majorization / factorization test.

    When ``range_included`` is false, ``alpha`` and ``factor`` are None.
    ``alpha`` is the least constant with S S* <= alpha T T*; ``factor`` is
    the L with S = T L obtained from the pseudoinverse.
    """

    range_included: bool
    alpha: float | None
    factor: np.ndarray | None
    residual: float


def douglas_check(s, t) -> DouglasReport:
    """Test range(S) <= range(T) by range_inclusion, and produce the
    equivalent certificates."""
    included, residual = range_inclusion(s, t)
    if not included:
        return DouglasReport(False, None, None, residual)
    s = as_matrix(s)
    t = as_matrix(t)
    factor = pinv(t) @ s
    ss = hermitian_part(s @ s.conj().T)
    tt = hermitian_part(t @ t.conj().T)
    best = max_psd_scale(tt, ss)
    if math.isinf(best):
        alpha = 0.0  # S = 0: every alpha works, take the infimum
    elif best == 0.0:
        alpha = math.inf  # unreachable once inclusion holds; defensive
    else:
        alpha = 1.0 / best
    return DouglasReport(True, alpha, factor, residual)


def psd_scale_bisection(sw, g) -> float:
    """Largest a with Sw - a G PSD, found purely by min-eigenvalue tests.

    Independent of the pencil in max_psd_scale; serves as its oracle.
    Returns inf when no finite a fails the test (G numerically zero).
    """
    sw = hermitian_part(sw)
    g = hermitian_part(g)
    if operator_norm(g) == 0.0:
        return math.inf
    slack = _PSD_SLACK * operator_norm(sw)

    def ok(a: float) -> bool:
        return float(np.linalg.eigvalsh(sw - a * g)[0]) >= -slack

    if not ok(0.0):
        return 0.0
    hi = 1.0
    doublings = 0
    while ok(hi):
        hi *= 2.0
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            return math.inf
    lo = 0.0
    for _ in range(300):
        if hi - lo <= 1e-13 * hi:
            break
        mid = (lo + hi) / 2.0
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def as_vector(a, dim: int) -> np.ndarray:
    """Coerce to a finite complex128 vector of length ``dim``."""
    v = np.asarray(a, dtype=np.complex128).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise NonFinite("vector has non-finite entries")
    if v.size != dim:
        raise DimensionMismatch(f"expected length {dim}, got {v.size}")
    return v


def fusion_analysis(family: WeightedSubspaceFamily, f) -> np.ndarray:
    """Coefficients T* f of the analysis map, member by member in basis
    coordinates: block i is v_i times the coordinates of P_{W_i} f."""
    return fusion_synthesis_matrix(family).conj().T @ as_vector(f, family.ambient_dim)


def reconstruct(family: WeightedSubspaceFamily, coeffs) -> np.ndarray:
    """Invert the analysis map: f = S_W^{-1} T c for c = T* f.

    Requires the family to be a fusion frame (positive relative lower
    bound); raises ValueError otherwise.
    """
    bounds = fusion_bounds(family)
    if not bounds.is_frame():
        raise ValueError(
            f"fusion bounds ({bounds.lower:.3e}, {bounds.upper:.3e}) are degenerate"
        )
    t = fusion_synthesis_matrix(family)
    return np.linalg.solve(family.fusion_operator, t @ as_vector(coeffs, t.shape[1]))
