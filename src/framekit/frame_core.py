"""Frames and weighted subspace families in finite dimensions.

A vector frame is a finite spanning-or-not family of vectors; a weighted
subspace family pairs closed subspaces with positive weights.  The fusion
operator of a family {(W_i, v_i)} is sum_i v_i^2 P_{W_i}; its extreme
eigenvalues are the optimal frame bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BlockOutsideSubspace,
    DeficientLocalFrame,
    DimensionMismatch,
    LocalVectorOutsideSubspace,
    NotAFusionFrame,
)
from .numerics import (
    RANK_TOL,
    EigenResult,
    Subspace,
    as_matrix,
    as_vector,
    hermitian_eig,
    hermitian_part,
)

__all__ = [
    "VectorFrame",
    "WeightedSubspaceFamily",
    "BlockVector",
    "FrameBounds",
    "frame_operator",
    "frame_bounds",
    "fusion_operator",
    "fusion_bounds",
    "fusion_synthesis_matrix",
    "fusion_analysis",
    "fusion_synthesis",
    "reconstruct",
    "lift_local_frames",
]


@dataclass(frozen=True)
class VectorFrame:
    """A finite list of vectors in a common ambient space, stored as rows."""

    ambient_dim: int
    vectors: np.ndarray

    def __post_init__(self):
        v = as_matrix(self.vectors)
        if v.shape[0] == 0:
            raise ValueError("a vector frame needs at least one vector")
        if v.shape[1] != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {v.shape[1]} != ambient dim {self.ambient_dim}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return self.vectors.shape[0]


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
    def subspaces(self) -> tuple[Subspace, ...]:
        return tuple(s for s, _ in self.members)

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

    @functools.cached_property
    def fusion_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the fusion operator, computed once and
        read-only.  Kept on eigvalsh, apart from fusion_eig: eigh's
        eigenvalues differ from it in the last bits, and the optimal fusion
        bounds are read from these."""
        w = np.linalg.eigvalsh(self.fusion_operator)
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class BlockVector:
    """One coefficient vector per family member, in ambient coordinates."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(as_vector(b) for b in self.blocks)
        for b in blocks:
            b.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def norm(self) -> float:
        return math.sqrt(sum(float(np.vdot(b, b).real) for b in self.blocks))


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

    def is_frame(self, rel_tol: float = RANK_TOL) -> bool:
        if math.isinf(self.lower):
            return True
        return self.upper > 0.0 and self.lower > rel_tol * self.upper


def frame_operator(frame: VectorFrame) -> np.ndarray:
    """sum_i f_i f_i^* as a Hermitian PSD matrix."""
    synthesis = frame.vectors.T
    return hermitian_part(synthesis @ synthesis.conj().T)


def _psd_extremes(w: np.ndarray) -> tuple[float, float]:
    """Extreme values of an ascending PSD spectrum, clipped at zero."""
    return max(float(w[0]), 0.0), max(float(w[-1]), 0.0)


def frame_bounds(frame: VectorFrame) -> FrameBounds:
    """Optimal frame bounds: extreme eigenvalues of the frame operator."""
    lo, hi = _psd_extremes(np.linalg.eigvalsh(frame_operator(frame)))
    assert lo <= hi * (1.0 + 1e-12)
    return FrameBounds(lo, hi, "optimal")


def fusion_operator(family: WeightedSubspaceFamily) -> np.ndarray:
    """sum_i v_i^2 P_{W_i} as a read-only Hermitian PSD matrix, cached on
    the family."""
    return family.fusion_operator


def fusion_bounds(family: WeightedSubspaceFamily) -> FrameBounds:
    """Optimal fusion frame bounds of the family, from its cached spectrum."""
    lo, hi = _psd_extremes(family.fusion_spectrum)
    assert lo <= hi * (1.0 + 1e-12)
    return FrameBounds(lo, hi, "optimal")


def fusion_synthesis_matrix(family: WeightedSubspaceFamily) -> np.ndarray:
    """Matrix of the synthesis map: weighted bases stacked column-wise.

    Satisfies T T* = fusion_operator(family); its columns are v_i times the
    orthonormal basis columns of W_i, in member order.
    """
    cols = [w * s.basis for s, w in family.members]
    return np.hstack(cols) if cols else np.zeros(
        (family.ambient_dim, 0), dtype=np.complex128
    )


def fusion_analysis(family: WeightedSubspaceFamily, f) -> BlockVector:
    """Blocks v_i P_{W_i} f of the analysis map, ambient coordinates."""
    f = as_vector(f, family.ambient_dim)
    blocks = []
    for s, w in family.members:
        if s.dim:
            blocks.append(w * (s.basis @ (s.basis.conj().T @ f)))
        else:
            blocks.append(np.zeros(family.ambient_dim, dtype=np.complex128))
    return BlockVector(tuple(blocks))


def fusion_synthesis(family: WeightedSubspaceFamily, g: BlockVector) -> np.ndarray:
    """sum_i v_i g_i for blocks g_i lying in the respective subspaces."""
    if len(g) != len(family):
        raise DimensionMismatch(
            f"{len(g)} blocks for {len(family)} members"
        )
    out = np.zeros(family.ambient_dim, dtype=np.complex128)
    for (s, w), block in zip(family.members, g.blocks):
        if block.size != family.ambient_dim:
            raise DimensionMismatch(
                f"block length {block.size} != ambient dim {family.ambient_dim}"
            )
        if s.dim:
            inside = s.basis @ (s.basis.conj().T @ block)
        else:
            inside = np.zeros_like(block)
        drift = float(np.linalg.norm(inside - block))
        if drift > 1e-10 * max(1.0, float(np.linalg.norm(block))):
            raise BlockOutsideSubspace(
                f"block drifts {drift:.3e} outside its subspace"
            )
        out += w * block
    return out


def reconstruct(family: WeightedSubspaceFamily, measurements: BlockVector) -> np.ndarray:
    """Invert the analysis map: f from the blocks v_i P_{W_i} f.

    Requires the family to be a fusion frame (positive relative lower bound);
    raises NotAFusionFrame otherwise.
    """
    bounds = fusion_bounds(family)
    if not bounds.is_frame():
        raise NotAFusionFrame(
            f"fusion bounds ({bounds.lower:.3e}, {bounds.upper:.3e}) are degenerate"
        )
    rhs = fusion_synthesis(family, measurements)
    return np.linalg.solve(fusion_operator(family), rhs)


def lift_local_frames(family: WeightedSubspaceFamily,
                      local_frames: Sequence[VectorFrame]) -> VectorFrame:
    """Merge per-subspace frames into one global frame {v_i f_ij}.

    Each local frame must consist of vectors inside its subspace (in ambient
    coordinates) and must span that subspace with a positive lower bound.
    """
    if len(local_frames) != len(family):
        raise DimensionMismatch(
            f"{len(local_frames)} local frames for {len(family)} members"
        )
    rows = []
    for idx, ((s, w), local) in enumerate(zip(family.members, local_frames)):
        if local.ambient_dim != family.ambient_dim:
            raise DimensionMismatch(
                f"local frame {idx} ambient dim {local.ambient_dim} != "
                f"{family.ambient_dim}"
            )
        vecs = local.vectors
        if s.dim == 0:
            if float(np.abs(vecs).max()) > 1e-10:
                raise LocalVectorOutsideSubspace(
                    f"member {idx}: nonzero vectors in a zero subspace"
                )
            continue
        coords = s.basis.conj().T @ vecs.T  # (dim_i, m_i)
        inside = s.basis @ coords
        drift = vecs.T - inside
        norms = np.linalg.norm(vecs, axis=1)
        bad = np.linalg.norm(drift, axis=0) > 1e-10 * np.maximum(1.0, norms)
        if np.any(bad):
            raise LocalVectorOutsideSubspace(
                f"member {idx}: vector {int(np.flatnonzero(bad)[0])} leaves W_i"
            )
        local_gram = hermitian_part(coords @ coords.conj().T)
        spectrum = np.linalg.eigvalsh(local_gram)
        if spectrum[0] <= RANK_TOL * max(spectrum[-1], 0.0) or spectrum[-1] <= 0.0:
            raise DeficientLocalFrame(
                f"member {idx}: local frame does not span its subspace"
            )
        rows.append(w * vecs)
    if not rows:
        raise DeficientLocalFrame("no nontrivial members to lift")
    return VectorFrame(family.ambient_dim, np.vstack(rows))
