"""Weighted subspace families in finite dimensions.

A weighted subspace family pairs closed subspaces with positive weights.
Its synthesis matrix T stacks the weighted member bases; the fusion
operator S_W = T T* = sum_i v_i^2 P_{W_i}, cached on the family as
``fusion_operator`` with its eigendecomposition ``fusion_eig``, and its
extreme eigenvalues are the optimal frame bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numerics import (
    RANK_TOL,
    EigenResult,
    Subspace,
    hermitian_eig,
    hermitian_part,
)

__all__ = [
    "WeightedSubspaceFamily",
    "FrameBounds",
    "fusion_bounds",
    "fusion_synthesis_matrix",
]


@dataclass(frozen=True)
class WeightedSubspaceFamily:
    """Pairs (W_i, v_i) of subspaces with positive weights, shared ambient."""

    ambient_dim: int
    members: tuple[tuple[Subspace, float], ...]

    def __post_init__(self):
        members = tuple((s, float(w)) for s, w in self.members)
        if not members:
            raise ValueError("a family needs at least one member")
        for s, w in members:
            if s.ambient_dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"member ambient dim {s.ambient_dim} != {self.ambient_dim}"
                )
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError(f"weights must be positive and finite, got {w}")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.members)

    @functools.cached_property
    def fusion_operator(self) -> np.ndarray:
        """sum_i v_i^2 P_{W_i}, built once per family and read-only."""
        n = self.ambient_dim
        op = np.zeros((n, n), dtype=np.complex128)
        for s, w in self.members:
            if s.dim:
                op += (w * w) * (s.basis @ s.basis.conj().T)
        op = hermitian_part(op)
        op.setflags(write=False)
        return op

    @functools.cached_property
    def fusion_eig(self) -> EigenResult:
        """Eigendecomposition of the fusion operator by hermitian_eig,
        computed once and read-only."""
        eig = hermitian_eig(self.fusion_operator, name="Sw")
        eig.eigenvalues.setflags(write=False)
        eig.eigenvectors.setflags(write=False)
        return eig


@dataclass(frozen=True)
class FrameBounds:
    """A lower/upper bound pair.

    ``kind`` records provenance: "optimal" means extreme eigenvalues of the
    relevant pencil, "predicted" means a theorem's formula.  A lower bound of
    +inf is the sentinel for a vacuous lower inequality (zero operator on the
    left-hand side).  Operator-relative lower bounds can legitimately exceed
    the plain upper bound, so no ordering is enforced here; the producers of
    plain frame bounds assert it.
    """

    lower: float
    upper: float
    kind: str = "optimal"

    def __post_init__(self):
        if self.kind not in ("optimal", "predicted"):
            raise ValueError(f"unknown bounds kind {self.kind!r}")
        if self.lower < 0.0 or self.upper < 0.0:
            raise ValueError("bounds must be nonnegative")

    def is_frame(self) -> bool:
        if math.isinf(self.lower):
            return True
        return self.upper > 0.0 and self.lower > RANK_TOL * self.upper


def fusion_bounds(family: WeightedSubspaceFamily) -> FrameBounds:
    """Optimal fusion frame bounds of the family, from the eigenvalues of
    its cached fusion_eig."""
    w = family.fusion_eig.eigenvalues
    lo, hi = max(float(w[0]), 0.0), max(float(w[-1]), 0.0)
    assert lo <= hi * (1.0 + 1e-12)
    return FrameBounds(lo, hi, "optimal")


def fusion_synthesis_matrix(family: WeightedSubspaceFamily) -> np.ndarray:
    """Matrix of the synthesis map: weighted bases stacked column-wise.

    Satisfies T T* = family.fusion_operator; its columns are v_i times the
    orthonormal basis columns of W_i, in member order.
    """
    return np.hstack([w * s.basis for s, w in family.members])
