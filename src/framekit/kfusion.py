"""K-relative optimal frame bounds.

A family {(W_i, v_i)} is a K-fusion frame when there are constants
0 < A <= B with A ||K* f||^2 <= sum_i v_i^2 ||P_{W_i} f||^2 <= B ||f||^2
for every f.  The optimal A is the largest a with a K K* <= S_W in the PSD
order; it is positive exactly when range(K) sits inside range(S_W), so
``k_lower_bound(family, k) > 0`` decides membership.  For
K = 0 the lower inequality is vacuous and the optimal A is +inf by
convention.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .frame_core import FrameBounds, WeightedSubspaceFamily, fusion_bounds
from .numerics import as_matrix, hermitian_part, max_psd_scale

__all__ = [
    "k_operator",
    "k_lower_bound",
    "k_bounds",
]


def k_operator(k, n: int) -> np.ndarray:
    """``k`` as a finite complex128 matrix; DimensionMismatch unless it is
    square on the n-dimensional ambient space."""
    k = as_matrix(k)
    if k.shape != (n, n):
        raise DimensionMismatch(f"operator shape {k.shape} != ({n}, {n})")
    return k


def k_lower_bound(family: WeightedSubspaceFamily, k) -> float:
    """Optimal K-relative lower bound: largest a with a K K* <= S_W.

    Returns +inf for K = 0 (vacuous inequality) and exactly 0.0 when
    range(K) is not contained in range(S_W).
    """
    k = k_operator(k, family.ambient_dim)
    gram = hermitian_part(k @ k.conj().T)
    return max_psd_scale(family.fusion_operator, gram,
                         sw_eig=family.fusion_eig)


def k_bounds(family: WeightedSubspaceFamily, k) -> FrameBounds:
    """The optimal pair: the K-relative lower bound and the family's upper
    frame bound."""
    return FrameBounds(k_lower_bound(family, k), fusion_bounds(family).upper)
