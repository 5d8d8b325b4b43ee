"""K-relative frame verification.

A family {(W_i, v_i)} is a K-fusion frame when there are constants
0 < A <= B with A ||K* f||^2 <= sum_i v_i^2 ||P_{W_i} f||^2 <= B ||f||^2
for every f.  The optimal A is the largest a with a K K* <= S_W in the PSD
order; it is positive exactly when range(K) sits inside range(S_W).  For
K = 0 the lower inequality is vacuous and the optimal A is +inf by
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from ._rng import random_unit_vectors
from .frame_core import FrameBounds, WeightedSubspaceFamily, fusion_bounds, fusion_operator
from .numerics import (
    as_matrix,
    hermitian_part,
    max_psd_scale,
    operator_norm,
    projector,
    quadratic_forms,
    range_basis,
)

__all__ = [
    "KFusionVerdict",
    "SampleReport",
    "k_operator",
    "k_lower_bound",
    "k_bounds",
    "verify_k_fusion",
    "decide",
]


def k_operator(k, n: int) -> np.ndarray:
    """``k`` as a finite complex128 matrix; DimensionMismatch unless it is
    square on the n-dimensional ambient space."""
    k = as_matrix(k)
    if k.shape != (n, n):
        raise DimensionMismatch(f"operator shape {k.shape} != ({n}, {n})")
    return k


@dataclass(frozen=True)
class KFusionVerdict:
    is_k_fusion: bool
    bounds: FrameBounds
    witness: np.ndarray | None


@dataclass(frozen=True)
class SampleReport:
    """Worst margins of the two defining inequalities over an evaluation set
    of unit vectors (seeded randoms plus eigenvectors of both quadratic
    forms).  Nonnegative margins mean the claimed bounds held everywhere."""

    n_evaluated: int
    seed: int
    worst_lower_margin: float
    worst_upper_margin: float


def k_lower_bound(family: WeightedSubspaceFamily, k) -> float:
    """Optimal K-relative lower bound: largest a with a K K* <= S_W.

    Returns +inf for K = 0 (vacuous inequality) and exactly 0.0 when
    range(K) is not contained in range(S_W).
    """
    k = k_operator(k, family.ambient_dim)
    gram = hermitian_part(k @ k.conj().T)
    return max_psd_scale(fusion_operator(family), gram,
                         sw_eig=family.fusion_eig)


def k_bounds(family: WeightedSubspaceFamily, k) -> FrameBounds:
    """The optimal pair: the K-relative lower bound and the family's upper
    frame bound."""
    return FrameBounds(k_lower_bound(family, k), fusion_bounds(family).upper,
                       "optimal")


def verify_k_fusion(family: WeightedSubspaceFamily, k, lower: float,
                    upper: float, n_samples: int = 100,
                    seed: int = 0) -> SampleReport:
    """Spot-check claimed bounds on unit vectors.

    The evaluation set is the eigenvectors of S_W and of K K* plus
    ``n_samples`` seeded random unit vectors.  A lower bound of +inf is
    treated as the vacuous sentinel (its term contributes zero).
    """
    n = family.ambient_dim
    k = k_operator(k, n)
    sw = fusion_operator(family)
    gram = hermitian_part(k @ k.conj().T)
    pieces = [family.fusion_eig.eigenvectors, np.linalg.eigh(gram)[1]]
    complex_probe = bool(
        np.abs(sw.imag).max() > 0 or np.abs(gram.imag).max() > 0
    )
    if n_samples > 0:
        pieces.append(random_unit_vectors(seed, n, n_samples, complex_probe).T)
    cols = np.hstack(pieces)
    energy = quadratic_forms(sw, cols)
    k_energy = quadratic_forms(gram, cols)
    if math.isinf(lower):
        lower_margin = energy
    else:
        lower_margin = energy - lower * k_energy
    upper_margin = upper - energy  # columns are unit vectors
    return SampleReport(
        n_evaluated=cols.shape[1],
        seed=seed,
        worst_lower_margin=float(lower_margin.min()),
        worst_upper_margin=float(upper_margin.min()),
    )


def decide(family: WeightedSubspaceFamily, k) -> KFusionVerdict:
    """Decide K-fusion membership and report the optimal bound pair.

    On failure with K != 0 the witness is a unit vector in the null space of
    S_W carrying K*-energy, so the lower inequality fails there for every
    positive claimed bound.
    """
    k = k_operator(k, family.ambient_dim)
    bounds = k_bounds(family, k)
    is_member = bounds.lower > 0.0  # +inf sentinel included
    witness = None
    if not is_member and operator_norm(k) > 0.0:
        p = projector(range_basis(fusion_operator(family)))
        comp = np.eye(family.ambient_dim) - p
        gram = hermitian_part(k @ k.conj().T)
        outside = hermitian_part(comp @ gram @ comp)
        _, vecs = np.linalg.eigh(outside)
        witness = vecs[:, -1]
    return KFusionVerdict(is_member, bounds, witness)
