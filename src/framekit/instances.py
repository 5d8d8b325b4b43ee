"""Deterministic instance generators with certified constants.

Every generator derives all randomness from a single seed, so the same
seed always reproduces the same instance bit for bit.  Perturbation
constants shipped with an instance are certified by construction: each
scenario docstring states the closed-form argument, and constants that
come from a parameter sweep are inflated by 1% so the sweep resolution
cannot undercut them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._rng import child_seed, gaussian_matrix, make_rng
from .errors import InvalidConfig
from .frame_core import (
    WeightedSubspaceFamily,
    fusion_operator,
    fusion_synthesis_matrix,
)
from .kfusion import KFusionInstance, k_lower_bound
from .numerics import Subspace, operator_norm, pinv, projector
from .theorems import (
    LambdaKind,
    PerturbationConstants,
    TheoremReport,
    check_drazin,
    check_erasure,
    check_image_under_k,
    check_operator_perturbation,
    check_projection_perturbation,
    check_quadratic_perturbation,
    check_synthesis_perturbation,
)

THEOREM_IDS = (
    "thm3.1",
    "lem3.2",
    "thm3.4",
    "lem4.1",
    "thm4.4.1",
    "thm4.4.2",
    "thm4.4.3",
    "prop4.5",
    "thm4.6",
    "thm4.7",
)

SCENARIOS: Mapping[str, tuple[str, ...]] = {
    "thm3.1": ("dressed_subset",),
    "lem3.2": ("drazin_core", "invertible"),
    "thm3.4": ("duplicated_axes",),
    "lem4.1": ("scale_down", "scale_up", "additive", "to_identity"),
    "thm4.4.1": ("identical", "weight_shift", "rotation", "weight_shift_with_k"),
    "thm4.4.2": ("identical", "weight_shift", "rotation"),
    "thm4.4.3": ("identical", "weight_shift", "rotation"),
    "prop4.5": ("weight_shift", "rotation"),
    "thm4.6": ("scaled_synthesis", "scaled_synthesis_b", "parseval_exact"),
    "thm4.7": ("shifted_synthesis",),
}

SPOILERS: Mapping[str, str] = {
    "thm3.1": "non_idempotent",
    "lem3.2": "nilpotent",
    "thm3.4": "erasure_overload",
    "lem4.1": "false_constants",
    "thm4.4.1": "inadmissible_b",
    "thm4.4.2": "inadmissible_a",
    "thm4.4.3": "false_constants",
    "prop4.5": "budget_half",
    "thm4.6": "understated",
    "thm4.7": "inadmissible_a",
}

# instance fields each checker reads beyond ``members``, as field paths
REQUIRED_FIELDS: Mapping[str, tuple[str, ...]] = {
    "thm3.1": ("operators.K",),
    "lem3.2": ("operators.K",),
    "thm3.4": ("operators.K",),
    "lem4.1": ("operators.K1", "operators.K2", "constants"),
    "thm4.4.1": ("members_v", "constants"),
    "thm4.4.2": ("members_v", "operators.K", "constants"),
    "thm4.4.3": ("members_v", "constants"),
    "prop4.5": ("members_v", "operators.K", "quadratic_bound"),
    "thm4.6": ("operators.K", "constants"),
    "thm4.7": ("operators.K", "constants"),
}

# sweep step and safety inflation for grid-certified constants; with ratio
# functions 2-Lipschitz in the sweep parameter these guarantee
# true <= certified <= 1.01 * true whenever true >= 0.1
SWEEP_STEP = 1e-3
SWEEP_INFLATION = 1.01

__all__ = [
    "GenSpec",
    "Instance",
    "PerturbedPair",
    "REQUIRED_FIELDS",
    "SCENARIOS",
    "SPOILERS",
    "THEOREM_IDS",
    "build_instance",
    "check_instance",
    "default_suite_entries",
    "gen_operator",
    "gen_operator_pair",
    "gen_perturbed_pair",
    "random_invertible",
    "random_subspace",
    "random_unitary",
    "spanning_family",
    "spoiler_suite_entries",
]


@dataclass(frozen=True)
class GenSpec:
    """Seeded recipe for one instance."""

    seed: int
    dim: int
    scenario: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not (2 <= self.dim <= 32):
            raise InvalidConfig(f"dim {self.dim} out of the supported range [2, 32]")


@dataclass(frozen=True)
class PerturbedPair:
    """Two paired families with certified perturbation data.

    ``constants`` certifies the blockwise norm inequality with the a-term
    alone; ``c_constant`` certifies the same deviation against a plain or
    unitary-image norm; ``quadratic_bound`` certifies the absolute
    quadratic-form deviation budget.
    """

    source: WeightedSubspaceFamily
    target: WeightedSubspaceFamily
    constants: PerturbationConstants
    c_constant: float
    quadratic_bound: float


@dataclass(frozen=True)
class Instance:
    """A self-contained checker input, ready to serialize or verify."""

    dim: int
    scalar: str
    family: WeightedSubspaceFamily
    family_v: WeightedSubspaceFamily | None = None
    operators: Mapping[str, np.ndarray] = field(default_factory=dict)
    constants: PerturbationConstants | None = None
    quadratic_bound: float | None = None
    erased: tuple[int, ...] = ()
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.scalar not in ("real", "complex"):
            raise InvalidConfig(f"scalar kind {self.scalar!r} unknown")
        frozen = {}
        for name, op in self.operators.items():
            m = np.array(op, dtype=np.complex128)
            m.setflags(write=False)
            frozen[name] = m
        object.__setattr__(self, "operators", frozen)
        object.__setattr__(self, "erased", tuple(int(i) for i in self.erased))
        object.__setattr__(self, "meta", dict(self.meta))


def _log_uniform(rng, lo: float, hi: float, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def random_unitary(rng, n: int, complex_scalars: bool) -> np.ndarray:
    """Haar-ish unitary (orthogonal for real scalars) via phase-fixed QR."""
    q, r = np.linalg.qr(gaussian_matrix(rng, n, n, complex_scalars))
    d = np.diagonal(r).copy()
    d[np.abs(d) == 0.0] = 1.0
    return q * (d / np.abs(d))


def random_invertible(rng, n: int, complex_scalars: bool,
                      sigma_lo: float = 0.5, sigma_hi: float = 2.0) -> np.ndarray:
    """Invertible matrix with singular values in [sigma_lo, sigma_hi]."""
    u = random_unitary(rng, n, complex_scalars)
    v = random_unitary(rng, n, complex_scalars)
    return (u * _log_uniform(rng, sigma_lo, sigma_hi, n)) @ v.conj().T


def random_subspace(rng, ambient: int, dim: int, complex_scalars: bool) -> Subspace:
    q, _ = np.linalg.qr(gaussian_matrix(rng, ambient, dim, complex_scalars))
    return Subspace(ambient, q[:, :dim])


def _axis(dim: int, j: int) -> Subspace:
    e = np.zeros((dim, 1), dtype=np.complex128)
    e[j, 0] = 1.0
    return Subspace(dim, e)


def _partition_subsets(rng, n: int, max_block: int = 3) -> list[list[int]]:
    order = [int(i) for i in rng.permutation(n)]
    subsets = []
    i = 0
    while i < n:
        size = int(rng.integers(1, min(max_block, n - i) + 1))
        subsets.append(sorted(order[i:i + size]))
        i += size
    return subsets


def spanning_family(rng, dim: int, complex_scalars: bool, extra: int = 2,
                    weight_lo: float = 0.7, weight_hi: float = 1.6
                    ) -> WeightedSubspaceFamily:
    """Family whose union spans: a dressed coordinate partition plus extras."""
    u = random_unitary(rng, dim, complex_scalars)
    members = []
    for subset in _partition_subsets(rng, dim):
        w = float(_log_uniform(rng, weight_lo, weight_hi))
        members.append((Subspace(dim, u[:, subset]), w))
    for _ in range(extra):
        d = int(rng.integers(1, min(3, dim) + 1))
        w = float(_log_uniform(rng, weight_lo, weight_hi))
        members.append((random_subspace(rng, dim, d, complex_scalars), w))
    return WeightedSubspaceFamily(dim, tuple(members))


def gen_operator(rng, dim: int, kind: str, complex_scalars: bool,
                 index: int = 2) -> np.ndarray:
    """Operators with a known structural property, conjugation-dressed."""
    if kind == "invertible":
        return random_invertible(rng, dim, complex_scalars)
    if kind == "unitary":
        return random_unitary(rng, dim, complex_scalars)
    if kind == "orthogonal_projection":
        d = int(rng.integers(1, dim))
        u = random_unitary(rng, dim, complex_scalars)
        return u[:, :d] @ u[:, :d].conj().T
    if kind == "drazin_index":
        if not (1 <= index < dim):
            raise InvalidConfig(f"drazin index {index} needs 1 <= index < dim")
        core = random_invertible(rng, dim - index, complex_scalars)
        block = np.zeros((dim, dim), dtype=np.complex128)
        block[: dim - index, : dim - index] = core
        block[dim - index:, dim - index:] = np.eye(index, index, 1)
        v = random_invertible(rng, dim, complex_scalars)
        return v @ block @ np.linalg.inv(v)
    if kind == "nilpotent":
        # single short Jordan block: higher indices scatter their zero
        # eigenvalues too far for any spectral split to recognize them
        span = min(3, dim)
        block = np.zeros((dim, dim), dtype=np.complex128)
        block[:span, :span] = np.eye(span, span, 1)
        v = random_invertible(rng, dim, complex_scalars)
        return v @ block @ np.linalg.inv(v)
    raise InvalidConfig(f"operator kind {kind!r} unknown")


def gen_operator_pair(rng, dim: int, scenario: str, complex_scalars: bool
                      ) -> tuple[np.ndarray, np.ndarray, PerturbationConstants]:
    """Operator pairs with closed-form certified constants.

    scale by t <= 1:  ||(K1-K2)*f|| = (1-t)||K1*f||            -> a = 1-t
    scale by t > 1:   ||(K1-K2)*f|| = ((t-1)/t) ||K2*f||       -> b = (t-1)/t
    additive K1(I+G): ||(K1-K2)*f|| = ||G*K1*f|| <= ||G|| ||K1*f||
    to identity I+E:  ||(K1-K2)*f|| = ||E*f||    <= ||E|| ||f||
    """
    k1 = random_invertible(rng, dim, complex_scalars)
    if scenario == "scale_down":
        t = float(_log_uniform(rng, 0.3, 0.9))
        return k1, t * k1, PerturbationConstants(1.0 - t, 0.0)
    if scenario == "scale_up":
        t = float(_log_uniform(rng, 1.2, 3.0))
        return k1, t * k1, PerturbationConstants(0.0, (t - 1.0) / t)
    if scenario == "additive":
        g = gaussian_matrix(rng, dim, dim, complex_scalars)
        eta = float(_log_uniform(rng, 0.05, 0.5))
        g *= eta / operator_norm(g)
        return k1, k1 @ (np.eye(dim) + g), PerturbationConstants(eta, 0.0)
    if scenario == "to_identity":
        e = gaussian_matrix(rng, dim, dim, complex_scalars)
        eta = float(_log_uniform(rng, 0.05, 0.5))
        e *= eta / operator_norm(e)
        return np.eye(dim) + e, np.eye(dim, dtype=np.complex128), \
            PerturbationConstants(0.0, eta)
    if scenario == "false_constants":
        return k1, 0.5 * k1, PerturbationConstants(0.0, 0.0)
    raise InvalidConfig(f"operator pair scenario {scenario!r} unknown")


def _sweep_max(values: np.ndarray) -> float:
    return float(values.max()) * SWEEP_INFLATION


def _rotation_certificates(theta: float) -> tuple[float, float]:
    """Sweep-certified norm and quadratic constants for one rotated axis.

    Every rotated plane uses the same angle, so certifying a single 2-d
    block certifies them all.  The true values are sin(theta) for both.
    """
    c, s = math.cos(theta), math.sin(theta)
    d = np.array([[1.0 - c * c, -c * s], [-c * s, -s * s]])
    phi = np.arange(0.0, 2.0 * math.pi, SWEEP_STEP)
    f = np.vstack([np.cos(phi), np.sin(phi)])
    df = d @ f
    norm_cert = _sweep_max(np.sqrt(np.einsum("ij,ij->j", df, df)))
    quad_cert = _sweep_max(np.abs(np.einsum("ij,ij->j", f, df)))
    return norm_cert, quad_cert


def gen_perturbed_pair(rng, dim: int, scenario: str, complex_scalars: bool,
                       max_frac: float = 0.3) -> PerturbedPair:
    """Paired families with certified blockwise constants.

    identical:     zero deviation, all constants zero.
    weight_shift:  same subspaces, v_i = w_i sqrt(1 - frac_i); the a-term
                   is max_i (1 - sqrt(1 - frac_i)), exact per member, and
                   the quadratic budget is the top eigenvalue of the
                   summed deviation form.
    rotation:      real only; coordinate axes with unit weights, the even
                   axis of each disjoint plane rotated by a shared angle;
                   constants certified by a sweep over each plane.
    """
    if scenario == "identical":
        fam = spanning_family(rng, dim, complex_scalars)
        return PerturbedPair(fam, fam, PerturbationConstants(0.0, 0.0), 0.0, 0.0)
    if scenario == "weight_shift":
        fam = spanning_family(rng, dim, complex_scalars)
        fracs = rng.uniform(0.05, max_frac, len(fam))
        return _weight_shift_pair(fam, fracs)
    if scenario == "rotation":
        theta = float(rng.uniform(0.15, 0.6))
        members_w = []
        members_v = []
        for j in range(dim):
            members_w.append((_axis(dim, j), 1.0))
            if j % 2 == 0 and j + 1 < dim:
                vec = np.zeros((dim, 1), dtype=np.complex128)
                vec[j, 0] = math.cos(theta)
                vec[j + 1, 0] = math.sin(theta)
                members_v.append((Subspace(dim, vec), 1.0))
            else:
                members_v.append((_axis(dim, j), 1.0))
        norm_cert, quad_cert = _rotation_certificates(theta)
        return PerturbedPair(
            WeightedSubspaceFamily(dim, tuple(members_w)),
            WeightedSubspaceFamily(dim, tuple(members_v)),
            PerturbationConstants(norm_cert, 0.0),
            norm_cert,
            quad_cert,
        )
    raise InvalidConfig(f"pair scenario {scenario!r} unknown")


def _weight_shift_pair(fam: WeightedSubspaceFamily,
                       fracs: np.ndarray) -> PerturbedPair:
    keep = np.sqrt(1.0 - fracs)
    members_v = tuple(
        (s, w * float(keep[i])) for i, (s, w) in enumerate(fam.members)
    )
    vv = WeightedSubspaceFamily(fam.ambient_dim, members_v)
    a = float((1.0 - keep).max())
    budget = sum(
        (w * w) * float(fracs[i]) * projector(s)
        for i, (s, w) in enumerate(fam.members)
    )
    quad = max(float(np.linalg.eigvalsh(budget)[-1]), 0.0)
    upper = float(np.linalg.eigvalsh(fusion_operator(fam))[-1])
    return PerturbedPair(
        fam, vv, PerturbationConstants(a, 0.0), a * math.sqrt(upper), quad
    )


def _meta(theorem: str, spec: GenSpec, expect: str) -> dict:
    return {
        "theorem": theorem,
        "seed": spec.seed,
        "scenario": spec.scenario,
        "expect": expect,
    }


def _scalar_kind(spec: GenSpec) -> bool:
    forced = spec.params.get("scalar")
    if forced is not None:
        if forced not in ("real", "complex"):
            raise InvalidConfig(f"scalar kind {forced!r} unknown")
        return forced == "complex"
    return bool(spec.seed % 2)


def _gen_image(spec: GenSpec, rng) -> Instance:
    cx = _scalar_kind(spec)
    n = spec.dim
    u = random_unitary(rng, n, cx)
    subsets = _partition_subsets(rng, n)
    members = tuple(
        (Subspace(n, u[:, s]), float(_log_uniform(rng, 0.5, 2.0)))
        for s in subsets
    )
    n_covered = int(rng.integers(1, len(subsets) + 1))
    covered = sorted({j for s in subsets[:n_covered] for j in s})
    k = u[:, covered] @ u[:, covered].conj().T
    if spec.scenario == "non_idempotent":
        k = 1.5 * k
        expect = "hypothesis_failed"
    elif spec.scenario == "dressed_subset":
        expect = "pass"
    else:
        raise InvalidConfig(f"scenario {spec.scenario!r} unknown for thm3.1")
    return Instance(
        dim=n, scalar="complex" if cx else "real",
        family=WeightedSubspaceFamily(n, members),
        operators={"K": k}, meta=_meta("thm3.1", spec, expect),
    )


def _gen_drazin(spec: GenSpec, rng) -> Instance:
    cx = _scalar_kind(spec)
    n = spec.dim
    fam = spanning_family(rng, n, cx)
    if spec.scenario == "drazin_core":
        index = int(spec.params.get("index", 1 + spec.seed % 3))
        index = max(1, min(index, n - 1))
        k = gen_operator(rng, n, "drazin_index", cx, index=index)
        expect = "pass"
    elif spec.scenario == "invertible":
        k = gen_operator(rng, n, "invertible", cx)
        expect = "pass"
    elif spec.scenario == "nilpotent":
        k = gen_operator(rng, n, "nilpotent", cx)
        expect = "hypothesis_failed"
    else:
        raise InvalidConfig(f"scenario {spec.scenario!r} unknown for lem3.2")
    return Instance(
        dim=n, scalar="complex" if cx else "real", family=fam,
        operators={"K": k}, meta=_meta("lem3.2", spec, expect),
    )


def _gen_erasure(spec: GenSpec, rng) -> Instance:
    cx = _scalar_kind(spec)
    n = spec.dim
    if spec.scenario == "erasure_overload":
        # erasing a full axis of a Parseval family leaves no margin
        members = tuple((_axis(n, j), 1.0) for j in range(n))
        fam = WeightedSubspaceFamily(n, members)
        return Instance(
            dim=n, scalar="real", family=fam,
            operators={"K": np.eye(n, dtype=np.complex128)},
            erased=(0,), meta=_meta("thm3.4", spec, "hypothesis_failed"),
        )
    if spec.scenario != "duplicated_axes":
        raise InvalidConfig(f"scenario {spec.scenario!r} unknown for thm3.4")
    members = []
    for j in range(n):
        for _ in range(2):
            members.append((_axis(n, j), float(_log_uniform(rng, 1.0, 1.6))))
    base = WeightedSubspaceFamily(n, tuple(members))
    k = random_invertible(rng, n, cx)
    # size the erased member so its mass stays well under the lower bound
    lower = k_lower_bound(KFusionInstance(base, k))
    dag_norm = operator_norm(pinv(k))
    w_extra = math.sqrt(0.3 * lower) / dag_norm
    extra = random_subspace(rng, n, 1, cx)
    fam = WeightedSubspaceFamily(n, tuple(members) + ((extra, w_extra),))
    return Instance(
        dim=n, scalar="complex" if cx else "real", family=fam,
        operators={"K": k}, erased=(len(members),),
        meta=_meta("thm3.4", spec, "pass"),
    )


def _gen_operator_pert(spec: GenSpec, rng) -> Instance:
    cx = _scalar_kind(spec)
    n = spec.dim
    fam = spanning_family(rng, n, cx)
    k1, k2, constants = gen_operator_pair(rng, n, spec.scenario, cx)
    expect = "hypothesis_failed" if spec.scenario == "false_constants" else "pass"
    return Instance(
        dim=n, scalar="complex" if cx else "real", family=fam,
        operators={"K1": k1, "K2": k2}, constants=constants,
        meta=_meta("lem4.1", spec, expect),
    )


def _pair_scenario(spec: GenSpec) -> str:
    if spec.scenario in ("weight_shift_with_k",):
        return "weight_shift"
    if spec.scenario in ("inadmissible_a", "inadmissible_b"):
        return "rotation" if spec.scenario == "inadmissible_a" else "weight_shift"
    if spec.scenario in ("false_constants", "budget_half"):
        return "weight_shift"
    return spec.scenario


def _gen_pair_instance(theorem: str, spec: GenSpec, rng) -> Instance:
    base_scenario = _pair_scenario(spec)
    cx = _scalar_kind(spec) and base_scenario != "rotation"
    n = spec.dim
    pair = gen_perturbed_pair(rng, n, base_scenario, cx)
    scalar = "complex" if cx else "real"
    operators: dict[str, np.ndarray] = {}
    constants = pair.constants
    quad = None
    expect = "pass"

    if theorem == "thm4.4.1":
        if spec.scenario == "weight_shift_with_k":
            mix = random_invertible(rng, n, cx)
            operators["K"] = fusion_operator(pair.target) @ mix
        if spec.scenario == "inadmissible_b":
            constants = PerturbationConstants(pair.constants.a, 1.5, 0.0)
            expect = "hypothesis_failed"
    elif theorem == "thm4.4.2":
        operators["K"] = random_unitary(rng, n, cx)
        if base_scenario == "rotation":
            constants = PerturbationConstants(0.0, 0.0, pair.c_constant)
        if spec.scenario == "inadmissible_a":
            constants = PerturbationConstants(1.2, 0.0, 0.0)
            expect = "hypothesis_failed"
    elif theorem == "thm4.4.3":
        if spec.scenario == "false_constants":
            constants = PerturbationConstants(0.0, 0.0, 0.0)
            expect = "hypothesis_failed"
    elif theorem == "prop4.5":
        operators["K"] = random_unitary(rng, n, cx)
        if base_scenario == "weight_shift":
            pair = _shrink_budget(pair, operators["K"])
        quad = pair.quadratic_bound
        if spec.scenario == "budget_half":
            # claim half the certified budget against a Parseval family
            members = tuple((_axis(n, j), 1.0) for j in range(n))
            fam = WeightedSubspaceFamily(n, members)
            fracs = rng.uniform(0.05, 0.3, n)
            pair = _weight_shift_pair(fam, fracs)
            operators["K"] = np.eye(n, dtype=np.complex128)
            quad = pair.quadratic_bound / 2.0
            scalar = "real"
            expect = "hypothesis_failed"
        constants = None
    else:
        raise InvalidConfig(f"theorem {theorem!r} is not a pair theorem")

    return Instance(
        dim=n, scalar=scalar, family=pair.source, family_v=pair.target,
        operators=operators, constants=constants, quadratic_bound=quad,
        meta=_meta(theorem, spec, expect),
    )


def _shrink_budget(pair: PerturbedPair, k: np.ndarray) -> PerturbedPair:
    """Halve the weight shift until the quadratic budget clears the bound."""
    lower = k_lower_bound(KFusionInstance(pair.source, k))
    fam = pair.source
    weights = np.array(fam.weights)
    target = np.array(pair.target.weights)
    fracs = 1.0 - (target / weights) ** 2
    out = pair
    for _ in range(60):
        if out.quadratic_bound < 0.5 * lower:
            return out
        fracs = fracs / 2.0
        out = _weight_shift_pair(fam, fracs)
    return out


def _erasure_split(rng, dim: int, cx: bool) -> tuple[WeightedSubspaceFamily, tuple[int, ...]]:
    """Spanning family plus trailing members marked for erasure."""
    kept = spanning_family(rng, dim, cx, extra=0)
    n_extra = int(rng.integers(1, 3))
    extras = tuple(
        (random_subspace(rng, dim, int(rng.integers(1, min(3, dim) + 1)), cx),
         float(_log_uniform(rng, 0.7, 1.6)))
        for _ in range(n_extra)
    )
    fam = WeightedSubspaceFamily(dim, kept.members + extras)
    erased = tuple(range(len(kept), len(fam)))
    return fam, erased


def _gen_synthesis(theorem: str, spec: GenSpec, rng) -> Instance:
    cx = _scalar_kind(spec)
    n = spec.dim
    if spec.scenario == "parseval_exact":
        members = [(_axis(n, j), 1.0) for j in range(n)]
        extras = [
            (_axis(n, int(rng.integers(0, n))), float(_log_uniform(rng, 0.5, 1.5)))
            for _ in range(2)
        ]
        fam = WeightedSubspaceFamily(n, tuple(members + extras))
        erased = tuple(range(n, n + 2))
        return Instance(
            dim=n, scalar="real", family=fam,
            operators={"K": np.eye(n, dtype=np.complex128)},
            constants=PerturbationConstants(0.0, 0.0, 0.0), erased=erased,
            meta=_meta("thm4.6", spec, "pass"),
        )
    fam, erased = _erasure_split(rng, n, cx)
    reduced = WeightedSubspaceFamily(
        n, tuple(m for i, m in enumerate(fam.members) if i not in set(erased))
    )
    s_red = fusion_operator(reduced)
    t_norm = operator_norm(fusion_synthesis_matrix(reduced))
    eps = float(_log_uniform(rng, 0.1, 0.8))
    if theorem == "thm4.6":
        k = (1.0 + eps) * s_red
        if spec.scenario == "scaled_synthesis":
            constants = PerturbationConstants(eps / (1.0 + eps), 0.0)
            expect = "pass"
        elif spec.scenario == "scaled_synthesis_b":
            constants = PerturbationConstants(0.0, eps * t_norm)
            expect = "pass"
        elif spec.scenario == "understated":
            eps = max(eps, 0.4)
            k = (1.0 + eps) * s_red
            constants = PerturbationConstants(eps / (2.0 * (1.0 + eps)), 0.0)
            expect = "hypothesis_failed"
        else:
            raise InvalidConfig(f"scenario {spec.scenario!r} unknown for thm4.6")
        return Instance(
            dim=n, scalar="complex" if cx else "real", family=fam,
            operators={"K": k}, constants=constants, erased=erased,
            meta=_meta("thm4.6", spec, expect),
        )
    if theorem == "thm4.7":
        gamma = float(_log_uniform(rng, 0.05, 0.3))
        k = (1.0 + eps) * s_red + gamma * np.eye(n)
        constants = PerturbationConstants(0.0, eps * t_norm, gamma)
        expect = "pass"
        if spec.scenario == "inadmissible_a":
            constants = PerturbationConstants(1.2, eps * t_norm, gamma)
            expect = "hypothesis_failed"
        elif spec.scenario != "shifted_synthesis":
            raise InvalidConfig(f"scenario {spec.scenario!r} unknown for thm4.7")
        return Instance(
            dim=n, scalar="complex" if cx else "real", family=fam,
            operators={"K": k}, constants=constants, erased=erased,
            meta=_meta("thm4.7", spec, expect),
        )
    raise InvalidConfig(f"theorem {theorem!r} is not a synthesis theorem")


def build_instance(theorem_id: str, spec: GenSpec) -> Instance:
    """Materialize one seeded instance for a checker."""
    rng = make_rng(spec.seed)
    if theorem_id == "thm3.1":
        return _gen_image(spec, rng)
    if theorem_id == "lem3.2":
        return _gen_drazin(spec, rng)
    if theorem_id == "thm3.4":
        return _gen_erasure(spec, rng)
    if theorem_id == "lem4.1":
        return _gen_operator_pert(spec, rng)
    if theorem_id in ("thm4.4.1", "thm4.4.2", "thm4.4.3", "prop4.5"):
        return _gen_pair_instance(theorem_id, spec, rng)
    if theorem_id in ("thm4.6", "thm4.7"):
        return _gen_synthesis(theorem_id, spec, rng)
    raise InvalidConfig(f"theorem id {theorem_id!r} unknown")


def check_instance(inst: Instance, tol: float = 1e-9) -> TheoremReport:
    """Dispatch an instance to its checker."""
    tid = inst.meta.get("theorem")
    seed = int(inst.meta.get("seed", 0))
    ops = inst.operators
    if tid == "thm3.1":
        return check_image_under_k(KFusionInstance(inst.family, ops["K"]), tol, seed)
    if tid == "lem3.2":
        return check_drazin(KFusionInstance(inst.family, ops["K"]), tol, seed)
    if tid == "thm3.4":
        return check_erasure(
            KFusionInstance(inst.family, ops["K"]), inst.erased, tol, seed
        )
    if tid == "lem4.1":
        return check_operator_perturbation(
            inst.family, ops["K1"], ops["K2"], inst.constants, tol, seed
        )
    if tid in ("thm4.4.1", "thm4.4.2", "thm4.4.3"):
        kind = {
            "thm4.4.1": LambdaKind.ZERO,
            "thm4.4.2": LambdaKind.K_STAR_NORM,
            "thm4.4.3": LambdaKind.PLAIN_NORM,
        }[tid]
        return check_projection_perturbation(
            inst.family, inst.family_v, inst.constants, kind,
            k=ops.get("K"), tol=tol, seed=seed,
        )
    if tid == "prop4.5":
        return check_quadratic_perturbation(
            inst.family, inst.family_v, ops["K"], inst.quadratic_bound, tol, seed
        )
    if tid == "thm4.6":
        return check_synthesis_perturbation(
            inst.family, inst.erased, ops["K"], inst.constants, tol,
            closed_range_variant=False, seed=seed,
        )
    if tid == "thm4.7":
        return check_synthesis_perturbation(
            inst.family, inst.erased, ops["K"], inst.constants, tol,
            closed_range_variant=True, seed=seed,
        )
    raise InvalidConfig(f"theorem id {tid!r} unknown")


_SUITE_DIMS = (2, 3, 4, 5, 6, 8, 10, 12, 16)


def default_suite_entries(n_per_theorem: int = 20,
                          base_seed: int = 20260814) -> tuple[Instance, ...]:
    """The standard regression sweep: every theorem, mixed dims and scalars."""
    out = []
    for t_index, tid in enumerate(THEOREM_IDS):
        cycle = SCENARIOS[tid]
        for j in range(n_per_theorem):
            seed = child_seed(base_seed, t_index * 100003 + j)
            dim = _SUITE_DIMS[(j + t_index) % len(_SUITE_DIMS)]
            scenario = cycle[j % len(cycle)]
            out.append(build_instance(tid, GenSpec(seed, dim, scenario)))
    return tuple(out)


def spoiler_suite_entries(base_seed: int = 918273645) -> tuple[Instance, ...]:
    """One deliberately broken instance per theorem; all must be rejected."""
    out = []
    for t_index, tid in enumerate(THEOREM_IDS):
        seed = child_seed(base_seed, t_index)
        dim = _SUITE_DIMS[t_index % len(_SUITE_DIMS)]
        out.append(build_instance(tid, GenSpec(seed, dim, SPOILERS[tid])))
    return tuple(out)
