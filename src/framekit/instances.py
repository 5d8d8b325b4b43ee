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
from typing import Callable, Mapping

import numpy as np

from ._rng import child_seed, gaussian_matrix, make_rng
from .errors import InvalidConfig
from .frame_core import WeightedSubspaceFamily, fusion_bounds
from .kfusion import k_lower_bound
from .numerics import Subspace, one_blas_thread, operator_norm, pinv, projector
from .theorems import (
    PerturbationConstants,
    TheoremReport,
    check_drazin,
    check_erasure,
    check_image_under_k,
    check_operator_perturbation,
    check_projection_k_star,
    check_projection_plain,
    check_projection_zero,
    check_quadratic_perturbation,
    check_synthesis_closed_range,
    check_synthesis_perturbation,
)

# sweep step and safety inflation for grid-certified constants; with ratio
# functions 2-Lipschitz in the sweep parameter these guarantee
# true <= certified <= 1.01 * true whenever true >= 0.1
SWEEP_STEP = 1e-3
SWEEP_INFLATION = 1.01

__all__ = [
    "GenSpec",
    "Instance",
    "PerturbedPair",
    "REGISTRY",
    "THEOREM_IDS",
    "TheoremEntry",
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


def random_invertible(rng, n: int, complex_scalars: bool) -> np.ndarray:
    """Invertible matrix with singular values in [0.5, 2]."""
    u = random_unitary(rng, n, complex_scalars)
    v = random_unitary(rng, n, complex_scalars)
    return (u * _log_uniform(rng, 0.5, 2.0, n)) @ v.conj().T


def random_subspace(rng, ambient: int, dim: int, complex_scalars: bool) -> Subspace:
    q, _ = np.linalg.qr(gaussian_matrix(rng, ambient, dim, complex_scalars))
    return Subspace._of(ambient, q[:, :dim])


def _axis(dim: int, j: int) -> Subspace:
    e = np.zeros((dim, 1), dtype=np.complex128)
    e[j, 0] = 1.0
    return Subspace._of(dim, e)


def _partition_subsets(rng, n: int) -> list[list[int]]:
    """A random partition of range(n) into sorted blocks of 1 to 3."""
    order = [int(i) for i in rng.permutation(n)]
    subsets = []
    i = 0
    while i < n:
        size = int(rng.integers(1, min(3, n - i) + 1))
        subsets.append(sorted(order[i:i + size]))
        i += size
    return subsets


def spanning_family(rng, dim: int, complex_scalars: bool, extra: int = 2
                    ) -> WeightedSubspaceFamily:
    """Family whose union spans: a dressed coordinate partition plus extras,
    weights log-uniform in [0.7, 1.6]."""
    u = random_unitary(rng, dim, complex_scalars)
    members = []
    for subset in _partition_subsets(rng, dim):
        w = float(_log_uniform(rng, 0.7, 1.6))
        members.append((Subspace._of(dim, u[:, subset]), w))
    for _ in range(extra):
        d = int(rng.integers(1, min(3, dim) + 1))
        w = float(_log_uniform(rng, 0.7, 1.6))
        members.append((random_subspace(rng, dim, d, complex_scalars), w))
    return WeightedSubspaceFamily(dim, tuple(members))


def gen_operator(rng, dim: int, kind: str, complex_scalars: bool,
                 index: int = 2) -> np.ndarray:
    """Operators with a known structural property, conjugation-dressed."""
    if kind == "invertible":
        return random_invertible(rng, dim, complex_scalars)
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


def _sweep_circle() -> np.ndarray:
    """The unit vectors (cos phi, sin phi), phi at every SWEEP_STEP of the
    circle, as the columns of a read-only array."""
    phi = np.arange(0.0, 2.0 * math.pi, SWEEP_STEP)
    circle = np.vstack([np.cos(phi), np.sin(phi)])
    circle.setflags(write=False)
    return circle


_SWEEP_CIRCLE = _sweep_circle()


def _sweep_max(values: np.ndarray) -> float:
    return float(values.max()) * SWEEP_INFLATION


def _rotation_certificates(theta: float) -> tuple[float, float]:
    """Sweep-certified norm and quadratic constants for one rotated axis.

    Every rotated plane uses the same angle, so certifying a single 2-d
    block certifies them all.  The true values are sin(theta) for both.
    """
    c, s = math.cos(theta), math.sin(theta)
    d = np.array([[1.0 - c * c, -c * s], [-c * s, -s * s]])
    f = _SWEEP_CIRCLE
    df = d @ f
    norm_cert = _sweep_max(np.sqrt(np.einsum("ij,ij->j", df, df)))
    quad_cert = _sweep_max(np.abs(np.einsum("ij,ij->j", f, df)))
    return norm_cert, quad_cert


def gen_perturbed_pair(rng, dim: int, scenario: str, complex_scalars: bool
                       ) -> PerturbedPair:
    """Paired families with certified blockwise constants.

    identical:     zero deviation, all constants zero.
    weight_shift:  same subspaces, v_i = w_i sqrt(1 - frac_i), frac_i
                   uniform in [0.05, 0.3]; the a-term
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
        fracs = rng.uniform(0.05, 0.3, len(fam))
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
                members_v.append((Subspace._of(dim, vec), 1.0))
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
    return PerturbedPair(fam, vv, PerturbationConstants(a, 0.0),
                         a * math.sqrt(fusion_bounds(fam).upper), quad)


def _scalar_kind(spec: GenSpec) -> bool:
    forced = spec.params.get("scalar")
    if forced is not None:
        if forced not in ("real", "complex"):
            raise InvalidConfig(f"scalar kind {forced!r} unknown")
        return forced == "complex"
    return bool(spec.seed % 2)


def _scalar_name(cx: bool) -> str:
    return "complex" if cx else "real"


# Each generator below takes a spec whose scenario the registry has already
# admitted for its theorem, draws everything from ``rng``, and returns the
# Instance fields other than ``meta``.

def _gen_image(spec: GenSpec, rng) -> dict:
    cx = _scalar_kind(spec)
    n = spec.dim
    u = random_unitary(rng, n, cx)
    subsets = _partition_subsets(rng, n)
    members = tuple(
        (Subspace._of(n, u[:, s]), float(_log_uniform(rng, 0.5, 2.0)))
        for s in subsets
    )
    n_covered = int(rng.integers(1, len(subsets) + 1))
    covered = sorted({j for s in subsets[:n_covered] for j in s})
    k = u[:, covered] @ u[:, covered].conj().T
    if spec.scenario == "non_idempotent":
        k = 1.5 * k
    return dict(dim=n, scalar=_scalar_name(cx),
                family=WeightedSubspaceFamily(n, members), operators={"K": k})


def _gen_drazin(spec: GenSpec, rng) -> dict:
    cx = _scalar_kind(spec)
    n = spec.dim
    fam = spanning_family(rng, n, cx)
    if spec.scenario == "drazin_core":
        index = int(spec.params.get("index", 1 + spec.seed % 3))
        index = max(1, min(index, n - 1))
        k = gen_operator(rng, n, "drazin_index", cx, index=index)
    else:
        # the other scenarios, invertible and nilpotent, are operator kinds
        k = gen_operator(rng, n, spec.scenario, cx)
    return dict(dim=n, scalar=_scalar_name(cx), family=fam, operators={"K": k})


def _gen_erasure(spec: GenSpec, rng) -> dict:
    cx = _scalar_kind(spec)
    n = spec.dim
    if spec.scenario == "erasure_overload":
        # erasing a full axis of a Parseval family leaves no margin
        members = tuple((_axis(n, j), 1.0) for j in range(n))
        fam = WeightedSubspaceFamily(n, members)
        return dict(dim=n, scalar="real", family=fam,
                    operators={"K": np.eye(n, dtype=np.complex128)}, erased=(0,))
    members = []
    for j in range(n):
        for _ in range(2):
            members.append((_axis(n, j), float(_log_uniform(rng, 1.0, 1.6))))
    base = WeightedSubspaceFamily(n, tuple(members))
    k = random_invertible(rng, n, cx)
    # size the erased member so its mass stays well under the lower bound
    lower = k_lower_bound(base, k)
    dag_norm = operator_norm(pinv(k))
    w_extra = math.sqrt(0.3 * lower) / dag_norm
    extra = random_subspace(rng, n, 1, cx)
    fam = WeightedSubspaceFamily(n, tuple(members) + ((extra, w_extra),))
    return dict(dim=n, scalar=_scalar_name(cx), family=fam,
                operators={"K": k}, erased=(len(members),))


def _gen_operator_pert(spec: GenSpec, rng) -> dict:
    cx = _scalar_kind(spec)
    n = spec.dim
    fam = spanning_family(rng, n, cx)
    k1, k2, constants = gen_operator_pair(rng, n, spec.scenario, cx)
    return dict(dim=n, scalar=_scalar_name(cx), family=fam,
                operators={"K1": k1, "K2": k2}, constants=constants)


_PAIR_BASES = ("identical", "weight_shift", "rotation")


def _draw_pair(spec: GenSpec, rng, dressed: str = "weight_shift"):
    """The scalar kind and perturbed pair a pair-theorem scenario starts from.

    A scenario that is not itself a ``gen_perturbed_pair`` scenario dresses
    the ``dressed`` one.  Rotation pairs are real only.
    """
    base = spec.scenario if spec.scenario in _PAIR_BASES else dressed
    cx = _scalar_kind(spec) and base != "rotation"
    return cx, gen_perturbed_pair(rng, spec.dim, base, cx)


def _pair_fields(pair: PerturbedPair, cx: bool, **fields) -> dict:
    return dict(dim=pair.source.ambient_dim, scalar=_scalar_name(cx),
                family=pair.source, family_v=pair.target, **fields)


def _gen_projection_zero(spec: GenSpec, rng) -> dict:
    cx, pair = _draw_pair(spec, rng)
    operators = {}
    constants = pair.constants
    if spec.scenario == "weight_shift_with_k":
        mix = random_invertible(rng, spec.dim, cx)
        operators["K"] = pair.target.fusion_operator @ mix
    elif spec.scenario == "inadmissible_b":
        constants = PerturbationConstants(pair.constants.a, 1.5, 0.0)
    return _pair_fields(pair, cx, operators=operators, constants=constants)


def _gen_projection_k_star(spec: GenSpec, rng) -> dict:
    cx, pair = _draw_pair(spec, rng, dressed="rotation")
    k = random_unitary(rng, spec.dim, cx)
    constants = pair.constants
    if spec.scenario == "inadmissible_a":
        constants = PerturbationConstants(1.2, 0.0, 0.0)
    elif spec.scenario == "rotation":
        constants = PerturbationConstants(0.0, 0.0, pair.c_constant)
    return _pair_fields(pair, cx, operators={"K": k}, constants=constants)


def _gen_projection_plain(spec: GenSpec, rng) -> dict:
    cx, pair = _draw_pair(spec, rng)
    constants = pair.constants
    if spec.scenario == "false_constants":
        constants = PerturbationConstants(0.0, 0.0, 0.0)
    return _pair_fields(pair, cx, constants=constants)


def _gen_quadratic(spec: GenSpec, rng) -> dict:
    cx, pair = _draw_pair(spec, rng)
    n = spec.dim
    k = random_unitary(rng, n, cx)
    if spec.scenario == "weight_shift":
        pair = _shrink_budget(pair, k)
    quad = pair.quadratic_bound
    if spec.scenario == "budget_half":
        # claim half the certified budget against a Parseval family
        members = tuple((_axis(n, j), 1.0) for j in range(n))
        fam = WeightedSubspaceFamily(n, members)
        fracs = rng.uniform(0.05, 0.3, n)
        pair = _weight_shift_pair(fam, fracs)
        k = np.eye(n, dtype=np.complex128)
        quad = pair.quadratic_bound / 2.0
        cx = False
    return _pair_fields(pair, cx, operators={"K": k}, quadratic_bound=quad)


def _shrink_budget(pair: PerturbedPair, k: np.ndarray) -> PerturbedPair:
    """Halve the weight shift until the quadratic budget clears the bound."""
    lower = k_lower_bound(pair.source, k)
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


def _reduced_synthesis(rng, dim: int, cx: bool):
    """An erasure split, the kept members' frame operator and synthesis
    norm, and a scale ``eps`` drawn for the operator built from them."""
    fam, erased = _erasure_split(rng, dim, cx)
    reduced = WeightedSubspaceFamily(
        dim, tuple(m for i, m in enumerate(fam.members) if i not in set(erased))
    )
    s_red = reduced.fusion_operator
    t_norm = math.sqrt(fusion_bounds(reduced).upper)
    eps = float(_log_uniform(rng, 0.1, 0.8))
    return fam, erased, s_red, t_norm, eps


def _gen_synthesis(spec: GenSpec, rng) -> dict:
    cx = _scalar_kind(spec)
    n = spec.dim
    if spec.scenario == "parseval_exact":
        members = [(_axis(n, j), 1.0) for j in range(n)]
        extras = [
            (_axis(n, int(rng.integers(0, n))), float(_log_uniform(rng, 0.5, 1.5)))
            for _ in range(2)
        ]
        return dict(dim=n, scalar="real",
                    family=WeightedSubspaceFamily(n, tuple(members + extras)),
                    operators={"K": np.eye(n, dtype=np.complex128)},
                    constants=PerturbationConstants(0.0, 0.0, 0.0),
                    erased=tuple(range(n, n + 2)))
    fam, erased, s_red, t_norm, eps = _reduced_synthesis(rng, n, cx)
    if spec.scenario == "scaled_synthesis":
        constants = PerturbationConstants(eps / (1.0 + eps), 0.0)
    elif spec.scenario == "scaled_synthesis_b":
        constants = PerturbationConstants(0.0, eps * t_norm)
    else:  # understated
        eps = max(eps, 0.4)
        constants = PerturbationConstants(eps / (2.0 * (1.0 + eps)), 0.0)
    return dict(dim=n, scalar=_scalar_name(cx), family=fam,
                operators={"K": (1.0 + eps) * s_red}, constants=constants,
                erased=erased)


def _gen_shifted_synthesis(spec: GenSpec, rng) -> dict:
    cx = _scalar_kind(spec)
    n = spec.dim
    fam, erased, s_red, t_norm, eps = _reduced_synthesis(rng, n, cx)
    gamma = float(_log_uniform(rng, 0.05, 0.3))
    a = 1.2 if spec.scenario == "inadmissible_a" else 0.0
    return dict(dim=n, scalar=_scalar_name(cx), family=fam,
                operators={"K": (1.0 + eps) * s_red + gamma * np.eye(n)},
                constants=PerturbationConstants(a, eps * t_norm, gamma),
                erased=erased)


@dataclass(frozen=True)
class TheoremEntry:
    """One statement of the paper, as framekit generates and checks it.

    ``scenarios`` is the pass-scenario cycle the suite walks and
    ``spoiler`` the one scenario built to be rejected.  ``generate(spec,
    rng)`` returns the Instance fields other than ``meta``, and
    ``check(inst, tol)`` runs the theorem's checker.  ``required``
    lists the instance fields the checker reads beyond ``members``, as
    field paths.
    """

    scenarios: tuple[str, ...]
    spoiler: str
    generate: Callable[[GenSpec, np.random.Generator], dict]
    check: Callable[[Instance, float], TheoremReport]
    required: tuple[str, ...]


# The checkers are public and may be swapped on this module (by a tracer,
# say), so the adapters look them up by their module-global names when they
# run and never bind them here.  The generators are private and are stored
# as they are.

REGISTRY: Mapping[str, TheoremEntry] = {
    "thm3.1": TheoremEntry(
        ("dressed_subset",), "non_idempotent", _gen_image,
        lambda inst, tol: check_image_under_k(inst.family, inst.operators["K"], tol),
        ("operators.K",),
    ),
    "lem3.2": TheoremEntry(
        ("drazin_core", "invertible"), "nilpotent", _gen_drazin,
        lambda inst, tol: check_drazin(inst.family, inst.operators["K"], tol),
        ("operators.K",),
    ),
    "thm3.4": TheoremEntry(
        ("duplicated_axes",), "erasure_overload", _gen_erasure,
        lambda inst, tol: check_erasure(
            inst.family, inst.operators["K"], inst.erased, tol),
        ("operators.K",),
    ),
    "lem4.1": TheoremEntry(
        ("scale_down", "scale_up", "additive", "to_identity"), "false_constants",
        _gen_operator_pert,
        lambda inst, tol: check_operator_perturbation(
            inst.family, inst.operators["K1"], inst.operators["K2"],
            inst.constants, tol),
        ("operators.K1", "operators.K2", "constants"),
    ),
    "thm4.4.1": TheoremEntry(
        _PAIR_BASES + ("weight_shift_with_k",), "inadmissible_b",
        _gen_projection_zero,
        lambda inst, tol: check_projection_zero(
            inst.family, inst.family_v, inst.constants, inst.operators.get("K"), tol),
        ("members_v", "constants"),
    ),
    "thm4.4.2": TheoremEntry(
        _PAIR_BASES, "inadmissible_a", _gen_projection_k_star,
        lambda inst, tol: check_projection_k_star(
            inst.family, inst.family_v, inst.operators["K"], inst.constants, tol),
        ("members_v", "operators.K", "constants"),
    ),
    "thm4.4.3": TheoremEntry(
        _PAIR_BASES, "false_constants", _gen_projection_plain,
        lambda inst, tol: check_projection_plain(
            inst.family, inst.family_v, inst.constants, tol),
        ("members_v", "constants"),
    ),
    "prop4.5": TheoremEntry(
        ("weight_shift", "rotation"), "budget_half", _gen_quadratic,
        lambda inst, tol: check_quadratic_perturbation(
            inst.family, inst.family_v, inst.operators["K"], inst.quadratic_bound, tol),
        ("members_v", "operators.K", "quadratic_bound"),
    ),
    "thm4.6": TheoremEntry(
        ("scaled_synthesis", "scaled_synthesis_b", "parseval_exact"), "understated",
        _gen_synthesis,
        lambda inst, tol: check_synthesis_perturbation(
            inst.family, inst.erased, inst.operators["K"], inst.constants, tol),
        ("operators.K", "constants"),
    ),
    "thm4.7": TheoremEntry(
        ("shifted_synthesis",), "inadmissible_a", _gen_shifted_synthesis,
        lambda inst, tol: check_synthesis_closed_range(
            inst.family, inst.erased, inst.operators["K"], inst.constants, tol),
        ("operators.K", "constants"),
    ),
}

THEOREM_IDS = tuple(REGISTRY)


def build_instance(theorem_id: str, spec: GenSpec) -> Instance:
    """Materialize one seeded instance for a checker.

    The scenario must be one of the theorem's pass scenarios or its
    spoiler; the spoiler is the one expected to be rejected.  Generation
    runs on one OpenBLAS thread (``one_blas_thread``).
    """
    entry = REGISTRY.get(theorem_id)
    if entry is None:
        raise InvalidConfig(f"theorem id {theorem_id!r} unknown")
    allowed = entry.scenarios + (entry.spoiler,)
    if spec.scenario not in allowed:
        raise InvalidConfig(
            f"scenario {spec.scenario!r} unknown for {theorem_id}; "
            f"expected one of {', '.join(allowed)}"
        )
    with one_blas_thread():
        fields = entry.generate(spec, make_rng(spec.seed))
    expect = "hypothesis_failed" if spec.scenario == entry.spoiler else "pass"
    meta = {"theorem": theorem_id, "seed": spec.seed,
            "scenario": spec.scenario, "expect": expect}
    return Instance(**fields, meta=meta)


def check_instance(inst: Instance, tol: float = 1e-9) -> TheoremReport:
    """Run the checker of the instance's theorem.

    ``meta.theorem`` must be a registered id: the decoder refuses any
    other, and ``build_instance`` only stamps registered ones.  The check
    runs on one OpenBLAS thread (``one_blas_thread``).
    """
    entry = REGISTRY[inst.meta["theorem"]]
    with one_blas_thread():
        return entry.check(inst, tol)


_SUITE_DIMS = (2, 3, 4, 5, 6, 8, 10, 12, 16)


def default_suite_entries(n_per_theorem: int = 20,
                          base_seed: int = 20260814) -> tuple[Instance, ...]:
    """The standard regression sweep: every theorem, mixed dims and scalars."""
    out = []
    for t_index, (tid, entry) in enumerate(REGISTRY.items()):
        cycle = entry.scenarios
        for j in range(n_per_theorem):
            seed = child_seed(base_seed, t_index * 100003 + j)
            dim = _SUITE_DIMS[(j + t_index) % len(_SUITE_DIMS)]
            scenario = cycle[j % len(cycle)]
            out.append(build_instance(tid, GenSpec(seed, dim, scenario)))
    return tuple(out)


def spoiler_suite_entries(base_seed: int = 918273645) -> tuple[Instance, ...]:
    """One deliberately broken instance per theorem; all must be rejected."""
    out = []
    for t_index, (tid, entry) in enumerate(REGISTRY.items()):
        seed = child_seed(base_seed, t_index)
        dim = _SUITE_DIMS[t_index % len(_SUITE_DIMS)]
        out.append(build_instance(tid, GenSpec(seed, dim, entry.spoiler)))
    return tuple(out)
