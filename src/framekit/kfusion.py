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
    "KFusionInstance",
    "KFusionVerdict",
    "SampleReport",
    "k_lower_bound",
    "verify_k_fusion",
    "decide",
]


@dataclass(frozen=True)
class KFusionInstance:
    """A weighted subspace family paired with a square operator on the
    same ambient space."""

    family: WeightedSubspaceFamily
    operator: np.ndarray

    def __post_init__(self):
        k = as_matrix(self.operator)
        n = self.family.ambient_dim
        if k.shape != (n, n):
            raise DimensionMismatch(
                f"operator shape {k.shape} != ({n}, {n})"
            )
        k = k.copy()
        k.setflags(write=False)
        object.__setattr__(self, "operator", k)


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


def k_lower_bound(inst: KFusionInstance) -> float:
    """Optimal K-relative lower bound: largest a with a K K* <= S_W.

    Returns +inf for K = 0 (vacuous inequality) and exactly 0.0 when
    range(K) is not contained in range(S_W).
    """
    family = inst.family
    gram = hermitian_part(inst.operator @ inst.operator.conj().T)
    return max_psd_scale(fusion_operator(family), gram,
                         sw_eig=family.fusion_eig)


def verify_k_fusion(inst: KFusionInstance, lower: float, upper: float,
                    n_samples: int = 100, seed: int = 0) -> SampleReport:
    """Spot-check claimed bounds on unit vectors.

    The evaluation set is the eigenvectors of S_W and of K K* plus
    ``n_samples`` seeded random unit vectors.  A lower bound of +inf is
    treated as the vacuous sentinel (its term contributes zero).
    """
    n = inst.family.ambient_dim
    sw = fusion_operator(inst.family)
    gram = hermitian_part(inst.operator @ inst.operator.conj().T)
    pieces = [inst.family.fusion_eig.eigenvectors, np.linalg.eigh(gram)[1]]
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


def decide(inst: KFusionInstance) -> KFusionVerdict:
    """Decide K-fusion membership and report the optimal bound pair.

    On failure with K != 0 the witness is a unit vector in the null space of
    S_W carrying K*-energy, so the lower inequality fails there for every
    positive claimed bound.
    """
    bound = k_lower_bound(inst)
    upper = fusion_bounds(inst.family).upper
    is_member = bound > 0.0  # +inf sentinel included
    witness = None
    if not is_member and operator_norm(inst.operator) > 0.0:
        sw = fusion_operator(inst.family)
        p = projector(range_basis(sw))
        comp = np.eye(inst.family.ambient_dim) - p
        gram = hermitian_part(inst.operator @ inst.operator.conj().T)
        outside = hermitian_part(comp @ gram @ comp)
        _, vecs = np.linalg.eigh(outside)
        witness = vecs[:, -1]
    return KFusionVerdict(is_member, FrameBounds(bound, upper, "optimal"), witness)
