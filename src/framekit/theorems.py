"""Bound-transfer checkers.

There is one checker per theorem id.  Each takes the statement's plain
operands (families, operators, constants), verifies the stated hypothesis
numerically (raising HypothesisFailed or AdmissibilityFailed when it does
not hold), evaluates the predicted bound formulas, computes the actual
optimal bounds of the conclusion instance, and reports whether the
prediction brackets reality:

    predicted.lower <= actual.lower * (1 + 1e-8)
    actual.upper    <= predicted.upper * (1 + 1e-8)

The perturbation hypotheses (lem4.1, thm4.4.*, thm4.6, thm4.7) are
pointwise inequalities sqrt<f, L f> <= sum_j c_j sqrt<f, R_j f> between
PSD forms.  With at most one nonzero constant c the inequality holds for
every f exactly when L <= c^2 R (Douglas' majorization lemma), and the
optimal constant 1/sqrt(max_psd_scale(R, L)) decides it: the report's
notes say ``hypothesis_certificate: "exact"``.  A rejection then carries
a witness vector's violation as its residual.  Otherwise, and in the
narrow band where neither the certificate nor a witness decides, the
inequality is checked on a grid: every eigenvector of every form on
either side, plus 500 seeded random unit vectors, and the certificate is
"sampled".  prop4.5 is always grid-checked.  Reports carry the seed used,
so any run can be replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AdmissibilityFailed,
    DimensionMismatch,
    HypothesisFailed,
    OracleMismatch,
    ZeroDrazin,
)
from ._rng import random_unit_vectors
from .frame_core import (
    FrameBounds,
    WeightedSubspaceFamily,
    fusion_bounds,
    fusion_operator,
    fusion_synthesis_matrix,
)
from .kfusion import k_bounds, k_operator
from .numerics import (
    RANK_TOL,
    _certify_psd_scale,
    _closed_psd_scale,
    drazin,
    hermitian_eig,
    hermitian_part,
    max_psd_scale,
    operator_norm,
    pinv,
    projector,
    quadratic_forms,
    range_basis,
    range_inclusion,
)

BRACKET_SLACK = 1e-8
DEFAULT_TOL = 1e-9
GRID_SAMPLES = 500

__all__ = [
    "BRACKET_SLACK",
    "DEFAULT_TOL",
    "PerturbationConstants",
    "TheoremReport",
    "check_image_under_k",
    "check_drazin",
    "check_erasure",
    "check_operator_perturbation",
    "check_projection_zero",
    "check_projection_k_star",
    "check_projection_plain",
    "check_quadratic_perturbation",
    "check_synthesis_perturbation",
    "check_synthesis_closed_range",
]


@dataclass(frozen=True)
class PerturbationConstants:
    """Nonnegative constants (a, b, c) certifying a perturbation inequality."""

    a: float
    b: float
    c: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"constant {name}={value} must be finite and >= 0")


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one checker run.

    ``passed`` is true when the hypotheses held and both predicted bounds
    bracket the actual optimal ones within the relative slack.  Multi-part
    checkers carry sub-reports in ``parts``; the top-level verdict is the
    conjunction.
    """

    theorem_id: str
    hypotheses_ok: bool
    residuals: Mapping[str, float]
    predicted: FrameBounds
    actual: FrameBounds
    passed: bool
    lower_margin: float
    upper_margin: float
    seed: int = 0
    notes: Mapping[str, object] = field(default_factory=dict)
    parts: tuple["TheoremReport", ...] = ()


def _slack_margin(x: float, y: float) -> float:
    """y * (1 + slack) - x, with inf <= inf treated as a pass; x <= y within
    the slack exactly when this is >= 0."""
    if math.isinf(x) and math.isinf(y):
        return math.inf
    if math.isinf(y):
        return math.inf
    if math.isinf(x):
        return -math.inf
    return y * (1.0 + BRACKET_SLACK) - x


def _bracket_report(theorem_id: str, predicted: FrameBounds, actual: FrameBounds,
                    residuals: Mapping[str, float], seed: int,
                    notes: Mapping[str, object] | None = None,
                    extra_ok: bool = True,
                    parts: tuple[TheoremReport, ...] = ()) -> TheoremReport:
    lower_margin = _slack_margin(predicted.lower, actual.lower)
    upper_margin = _slack_margin(actual.upper, predicted.upper)
    parts_ok = all(p.passed for p in parts)
    return TheoremReport(
        theorem_id=theorem_id,
        hypotheses_ok=True,
        residuals=dict(residuals),
        predicted=predicted,
        actual=actual,
        passed=bool(lower_margin >= 0.0 and upper_margin >= 0.0 and extra_ok
                    and parts_ok),
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        seed=seed,
        notes=dict(notes or {}),
        parts=parts,
    )


def _has_imag(*arrays) -> bool:
    return any(a.size and float(np.abs(a.imag).max()) > 0.0 for a in arrays)


def _grid(dim: int, forms: Sequence[np.ndarray | WeightedSubspaceFamily],
          seed: int, complex_probe: bool) -> np.ndarray:
    """Unit-vector columns: eigenvectors of each form plus GRID_SAMPLES
    seeded random unit vectors.

    A family stands for its fusion operator and gives its cached
    eigenvectors; the Hermitian matrices share one stacked eigh call.
    """
    stacked = np.stack([f for f in forms if isinstance(f, np.ndarray)])
    vectors = iter(np.linalg.eigh(stacked)[1])
    pieces = [next(vectors) if isinstance(f, np.ndarray)
              else f.fusion_eig.eigenvectors for f in forms]
    pieces.append(random_unit_vectors(seed, dim, GRID_SAMPLES, complex_probe).T)
    return np.hstack(pieces)


def _col_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(np.einsum("ij,ij->j", m.conj(), m).real, 0.0))


def _form_values(form: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.maximum(quadratic_forms(form, cols), 0.0)


def _require_k_fusion(family: WeightedSubspaceFamily, k: np.ndarray,
                      label: str) -> FrameBounds:
    """k_bounds(family, k); HypothesisFailed when the lower bound is zero."""
    bounds = k_bounds(family, k)
    if bounds.lower == 0.0:
        raise HypothesisFailed(f"{label} is not a K-fusion frame for the given operator")
    return bounds


def _div(num: float, den: float) -> float:
    """num / den with the vacuous-sentinel conventions (inf/x, x/0)."""
    if math.isinf(num):
        return math.inf
    if den == 0.0:
        return math.inf
    return num / den


def check_image_under_k(family: WeightedSubspaceFamily, k,
                        tol: float = DEFAULT_TOL, seed: int = 0) -> TheoremReport:
    """Bounds transfer to the image family {(closure(K W_i), v_i)}.

    Hypotheses: K is idempotent, the family is a K-fusion frame, and the
    pseudoinverse maps each image subspace back into its source.  Predicted
    bounds: A / ||K||^2 and B ||Kdag||^2 ||K||^2.  Idempotency is judged
    against ``tol * ||K||``: a nonzero idempotent has norm at least 1, and
    an absolute test would accept any operator of norm below ``tol``.
    """
    n = family.ambient_dim
    k = k_operator(k, n)
    k_norm = operator_norm(k)
    idem_residual = operator_norm(k @ k - k)
    if idem_residual > tol * k_norm:
        raise HypothesisFailed("operator is not idempotent", idem_residual)
    k_dag = pinv(k)
    dag_norm = operator_norm(k_dag)
    eye = np.eye(n)
    containment = 0.0
    image_members = []
    for s, w in family.members:
        # judge image rank against the operator scale, not the product's
        # own top singular value, so annihilated members stay trivial
        image = range_basis(k @ s.basis, scale=k_norm) if s.dim else s
        if image.dim:
            comp = eye - projector(s)
            containment = max(
                containment,
                operator_norm(comp @ (k_dag @ image.basis)),
            )
        image_members.append((image, w))
    if containment > tol * max(1.0, dag_norm):
        raise HypothesisFailed(
            "pseudoinverse does not map image subspaces into their sources",
            containment,
        )
    bounds = _require_k_fusion(family, k, "the family")
    predicted = FrameBounds(
        _div(bounds.lower, k_norm * k_norm),
        bounds.upper * dag_norm * dag_norm * k_norm * k_norm,
        "predicted",
    )
    actual = k_bounds(WeightedSubspaceFamily(n, tuple(image_members)), k)
    residuals = {
        "idempotency": idem_residual,
        "image_containment": containment,
    }
    return _bracket_report("thm3.1", predicted, actual, residuals, seed)


def check_drazin(family: WeightedSubspaceFamily, k, tol: float = DEFAULT_TOL,
                 seed: int = 0) -> TheoremReport:
    """Bounds for the compositions S K S, S K and K S, S the Drazin inverse.

    Predicted lower bounds: A/||S||^4 for S K S and A/||S||^2 for both S K
    and K S; the upper bound B of the family serves all three.  Raises
    ZeroDrazin when the operator is nilpotent.

    The invertible core is split from the nilpotent spectrum at the
    relative radius 1e-4.  It is far coarser than a rank tolerance on
    purpose: a Jordan block of index k scatters its zero eigenvalues by
    roughly eps**(1/k), about 1e-5 at k = 3, so a split radius of 1e-4
    resolves indices up to 3 while leaving a wide margin to any core
    eigenvalue of ordinary size.
    """
    k = k_operator(k, family.ambient_dim)
    s, index = drazin(k, tol=1e-4)
    s_norm = operator_norm(s)
    if s_norm == 0.0:
        raise ZeroDrazin("Drazin inverse is zero; the derived bounds are vacuous")
    k_norm = operator_norm(k)
    power = np.linalg.matrix_power(k, index)
    res_inner = operator_norm(s @ k @ s - s)
    res_commute = operator_norm(s @ k - k @ s)
    res_power = operator_norm(k @ s @ power - power)
    identity_tol = 1e-8 * max(1.0, k_norm**index)
    worst = max(res_inner, res_commute, res_power)
    if worst > identity_tol:
        raise HypothesisFailed("Drazin identities fail beyond tolerance", worst)
    bounds = _require_k_fusion(family, k, "the family")
    compositions = (
        ("sks", s @ k @ s, _div(bounds.lower, s_norm**4)),
        ("sk", s @ k, _div(bounds.lower, s_norm**2)),
        ("ks", k @ s, _div(bounds.lower, s_norm**2)),
    )
    residuals = {
        "inner_identity": res_inner,
        "commutation": res_commute,
        "power_identity": res_power,
    }
    parts = tuple(
        _bracket_report(f"lem3.2:{name}",
                        FrameBounds(predicted_lower, bounds.upper, "predicted"),
                        k_bounds(family, op), {}, seed)
        for name, op, predicted_lower in compositions
    )
    head = parts[0]
    return TheoremReport(
        theorem_id="lem3.2",
        hypotheses_ok=True,
        residuals=residuals,
        predicted=head.predicted,
        actual=head.actual,
        passed=all(p.passed for p in parts),
        lower_margin=min(p.lower_margin for p in parts),
        upper_margin=min(p.upper_margin for p in parts),
        seed=seed,
        notes={"drazin_index": index, "s_norm": s_norm},
        parts=parts,
    )


def _split_members(family: WeightedSubspaceFamily,
                   erased: Sequence[int]) -> tuple[tuple[int, ...], WeightedSubspaceFamily]:
    n = len(family)
    dropped = sorted(set(int(i) for i in erased))
    if any(i < 0 or i >= n for i in dropped):
        raise ValueError(f"erased indices out of range for {n} members")
    if len(dropped) >= n:
        raise ValueError("erased set must be a strict subset of the members")
    kept = tuple(
        member for i, member in enumerate(family.members) if i not in set(dropped)
    )
    return tuple(dropped), WeightedSubspaceFamily(family.ambient_dim, kept)


def _compressed_pencil(reduced: WeightedSubspaceFamily,
                       k: np.ndarray) -> FrameBounds:
    """Optimal bounds of the reduced family relative to K on range(K)."""
    q = range_basis(k)
    if q.dim == 0:
        return FrameBounds(math.inf, 0.0, "optimal")
    qb = q.basis
    s_red = fusion_operator(reduced)
    gram = hermitian_part(k @ k.conj().T)
    s_c = hermitian_part(qb.conj().T @ s_red @ qb)
    g_c = hermitian_part(qb.conj().T @ gram @ qb)
    return FrameBounds(max_psd_scale(s_c, g_c),
                       max(float(np.linalg.eigvalsh(s_c)[-1]), 0.0), "optimal")


def check_erasure(family: WeightedSubspaceFamily, k, erased: Sequence[int],
                  tol: float = DEFAULT_TOL, seed: int = 0) -> TheoremReport:
    """Bounds surviving member erasure, restricted to range(K).

    With C the erased weight mass sum of v_i^2, the reduced family obeys
    (A - C ||Kdag||^2) ||K* f||^2 <= energy <= B ||f||^2 on range(K),
    provided A - C ||Kdag||^2 > 0; a difference at or below ``tol * A``
    is rounding, and rejected with the shortfall ``tol * A - difference``
    as its residual.
    """
    k = k_operator(k, family.ambient_dim)
    dropped, reduced = _split_members(family, erased)
    bounds = _require_k_fusion(family, k, "the family")
    dag_norm = operator_norm(pinv(k))
    mass = sum(w * w for i, (_, w) in enumerate(family.members) if i in set(dropped))
    if math.isinf(bounds.lower):
        predicted_lower = math.inf
    else:
        predicted_lower = bounds.lower - mass * dag_norm * dag_norm
        if predicted_lower <= tol * bounds.lower:
            raise HypothesisFailed(
                "erased weight mass wipes out the lower bound",
                tol * bounds.lower - predicted_lower,
            )
    predicted = FrameBounds(predicted_lower, bounds.upper, "predicted")
    residuals = {"erased_mass": mass}
    notes = {"erased": list(dropped)}
    return _bracket_report("thm3.4", predicted, _compressed_pencil(reduced, k),
                           residuals, seed, notes)


def _verify_pointwise(lhs: np.ndarray, rhs: np.ndarray, tol: float,
                      clause: str) -> float:
    worst = float((lhs - rhs).max())
    if worst > tol:
        raise HypothesisFailed(clause, worst)
    return worst


Side = np.ndarray | WeightedSubspaceFamily


def _side_factor(side: Side) -> np.ndarray:
    """X whose ||X* f|| is the side's norm; a family gives its synthesis
    matrix T, with ||T* f||^2 = <f, S_W f>."""
    if isinstance(side, WeightedSubspaceFamily):
        return fusion_synthesis_matrix(side)
    return side


def _side_form(side: Side) -> np.ndarray:
    """The PSD form X X* of a side: S_W for a family."""
    if isinstance(side, WeightedSubspaceFamily):
        return fusion_operator(side)
    return hermitian_part(side @ side.conj().T)


def _side_norms(side: Side, cols: np.ndarray) -> np.ndarray:
    return _col_norms(_side_factor(side).conj().T @ cols)


def _pencil_witness(left: np.ndarray, left_form: np.ndarray, side: Side,
                    right_eig, c: float) -> float:
    """Largest violation ||X* f|| - c ||Y* f|| over two unit candidates:
    the top vector of the pencil X X* g = mu Y Y* g compressed to
    range(Y Y*), and the top vector of X X* on the numerical kernel of
    Y Y*, where X X* leaks out of that range.  ``left_form`` is X X*."""
    w, v = right_eig.eigenvalues, right_eig.eigenvectors
    keep = w > RANK_TOL * max(float(w[-1]), 0.0)
    bases = [v[:, ~keep], v[:, keep] / np.sqrt(w[keep])]
    candidates = [
        b @ np.linalg.eigh(hermitian_part(b.conj().T @ left_form @ b))[1][:, -1]
        for b in bases if b.shape[1]
    ]
    cols = np.stack(candidates, axis=1)
    cols = cols / _col_norms(cols)
    return float((_side_norms(left, cols) - c * _side_norms(side, cols)).max())


def _exact_hypothesis(left: np.ndarray, terms: Sequence[tuple[float, Side]],
                      tol: float, clause: str) -> float | None:
    """Decide ||X* f|| <= sum_j c_j ||Y_j* f|| for all f, X = ``left``,
    when at most one c_j is nonzero; None when it cannot.

    With L = X X* and R = Y Y*: with no nonzero term the largest violation
    over unit f is sqrt(lambda_max(L)), attained at L's top eigenvector.
    With one, c_opt = 1/sqrt(max_psd_scale(R, L)) is the least constant
    that holds (Douglas), so the violation is at most (c_opt - c)
    sqrt(lambda_max(R)): at most ``tol`` accepts and returns that bound.
    Otherwise a witness violating by more than ``tol`` rejects, and no
    witness leaves the decision to the grid.  The closed form of c_opt is
    certified only when it would accept: a constant that is not accepted
    goes to the witness whether or not its certificate holds.
    """
    active = [(c, side) for c, side in terms if c != 0.0]
    if len(active) > 1:
        return None
    left_form = _side_form(left)
    if not active:
        top = math.sqrt(max(float(np.linalg.eigvalsh(left_form)[-1]), 0.0))
        if top > tol:
            raise HypothesisFailed(clause, top)
        return top
    c, side = active[0]
    right = _side_form(side)
    right_eig = (side.fusion_eig if isinstance(side, WeightedSubspaceFamily)
                 else hermitian_eig(right))
    scale, left_h = _closed_psd_scale(right_eig, left_form)
    if scale > 0.0:
        w = right_eig.eigenvalues
        bound = (1.0 / math.sqrt(scale) - c) * math.sqrt(max(float(w[-1]), 0.0))
        if bound <= tol:
            try:
                if math.isfinite(scale):
                    # R is a Hermitian part already, as max_psd_scale passes it
                    _certify_psd_scale(right, left_h, scale,
                                       max(abs(w[0]), abs(w[-1])))
                return bound
            except OracleMismatch:
                pass  # no certified constant: only a witness can decide
    violation = _pencil_witness(left, left_form, side, right_eig, c)
    if violation > tol:
        raise HypothesisFailed(clause, violation)
    return None


def _check_hypothesis(left: np.ndarray, terms: Sequence[tuple[float, Side]],
                      tol: float, clause: str, seed: int) -> tuple[float, str]:
    """Check ||X* f|| <= sum_j c_j ||Y_j* f|| for all f, X = ``left``.

    ``terms`` pairs each constant with its factor Y_j, or with a family,
    which stands for its synthesis matrix.  Returns the residual, the
    largest violation (certified or sampled), and the certificate kind,
    "exact" or "sampled"; raises HypothesisFailed with ``clause`` when the
    inequality fails beyond ``tol``.
    """
    exact = _exact_hypothesis(left, terms, tol, clause)
    if exact is not None:
        return exact, "exact"
    sides = [side for _, side in terms]
    forms = [side if isinstance(side, WeightedSubspaceFamily) else _side_form(side)
             for side in sides]
    cols = _grid(left.shape[0], [_side_form(left)] + forms, seed,
                 _has_imag(left, *map(_side_factor, sides)))
    rhs = sum(c * _side_norms(side, cols) for c, side in terms if c)
    return _verify_pointwise(_side_norms(left, cols), rhs, tol, clause), "sampled"


def check_operator_perturbation(family: WeightedSubspaceFamily, k1, k2,
                                constants: PerturbationConstants,
                                tol: float = DEFAULT_TOL,
                                seed: int = 0) -> TheoremReport:
    """Stability of the lower bound under a relative operator perturbation.

    Hypothesis: ||(K1* - K2*) f|| <= a ||K1* f|| + b ||K2* f|| with b < 1,
    exactly decided as D D* <= a^2 K1 K1* (D = K1 - K2) when b = 0, or the
    same with K2 when a = 0; grid-checked when both are nonzero.
    Predicted: the family is a K2-fusion frame with lower bound
    A ((1-b)/(1+a))^2 and unchanged upper bound.  When both a and b are
    below one the reverse transfer is checked as a sub-report.
    """
    n = family.ambient_dim
    k1 = k_operator(k1, n)
    k2 = k_operator(k2, n)
    a, b = constants.a, constants.b
    if constants.c != 0.0:
        raise AdmissibilityFailed("this hypothesis has no c-term")
    if b >= 1.0:
        raise AdmissibilityFailed(f"b = {b} must be below 1")
    violation, certificate = _check_hypothesis(
        k1 - k2, [(a, k1), (b, k2)], tol,
        "perturbation inequality fails on the grid", seed,
    )
    source = _require_k_fusion(family, k1, "the family")
    lower1, upper = source.lower, source.upper
    actual = k_bounds(family, k2)
    lower2 = actual.lower
    factor = ((1.0 - b) / (1.0 + a)) ** 2
    predicted = FrameBounds(
        math.inf if math.isinf(lower1) else lower1 * factor, upper, "predicted"
    )
    parts: tuple[TheoremReport, ...] = ()
    notes: dict[str, object] = {
        "k2_is_identity": bool(operator_norm(k2 - np.eye(n)) <= 1e-12),
        "hypothesis_certificate": certificate,
    }
    if a < 1.0 and lower2 > 0.0:
        reverse_factor = ((1.0 - a) / (1.0 + b)) ** 2
        predicted_rev = FrameBounds(
            math.inf if math.isinf(lower2) else lower2 * reverse_factor,
            upper,
            "predicted",
        )
        parts = (
            _bracket_report("lem4.1:reverse", predicted_rev, source, {}, seed),
        )
        notes["reverse_checked"] = True
    residuals = {"hypothesis_violation": violation}
    return _bracket_report(
        "lem4.1", predicted, actual, residuals, seed, notes, parts=parts
    )


def _member_diffs(ww: WeightedSubspaceFamily,
                  vv: WeightedSubspaceFamily) -> list[np.ndarray]:
    return [
        w * projector(sw) - v * projector(sv)
        for (sw, w), (sv, v) in zip(ww.members, vv.members)
    ]


def _member_energies(family: WeightedSubspaceFamily,
                     cols: np.ndarray) -> np.ndarray:
    """Rows v_i^2 ||P_{W_i} f||^2 per member: the analysis product T* f,
    squared and summed per member by a 0/1 membership product."""
    coeffs = fusion_synthesis_matrix(family).conj().T @ cols
    owner = np.repeat(np.arange(len(family)), [s.dim for s in family.subspaces])
    member = owner == np.arange(len(family))[:, None]
    return member @ (coeffs.real ** 2 + coeffs.imag ** 2)


def _paired(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily) -> None:
    """DimensionMismatch unless the families pair members one-to-one in
    one ambient space."""
    if len(ww) != len(vv):
        raise DimensionMismatch("families must pair members one-to-one")
    if ww.ambient_dim != vv.ambient_dim:
        raise DimensionMismatch("families live in different ambient spaces")


def _blockwise_hypothesis(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily,
                          constants: PerturbationConstants,
                          c_side: np.ndarray | None, tol: float,
                          seed: int) -> tuple[dict, dict]:
    """Residuals and notes of the Thm 4.4 hypothesis

        sqrt(sum_i ||(w_i P_i - v_i Q_i) f||^2)
            <= a sqrt<f, S_W f> + b sqrt<f, S_V f> + c ||Y* f||,

    Y = ``c_side``, with no c-term when it is None.  With one nonzero
    constant it is decided exactly as a PSD pencil test against S_W, S_V
    or Y Y*; with more it is grid-checked.
    """
    terms: list[tuple[float, Side]] = [(constants.a, ww), (constants.b, vv)]
    if c_side is not None:
        terms.append((constants.c, c_side))
    # the d_i are Hermitian: ||d_i f|| = ||d_i* f||
    violation, certificate = _check_hypothesis(
        np.hstack(_member_diffs(ww, vv)), terms, tol,
        "blockwise perturbation inequality fails on the grid", seed,
    )
    return ({"hypothesis_violation": violation},
            {"hypothesis_certificate": certificate})


def check_projection_zero(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily,
                          constants: PerturbationConstants, k=None,
                          tol: float = DEFAULT_TOL,
                          seed: int = 0) -> TheoremReport:
    """Thm 4.4 without a c-term: existence of target bounds.

    Hypothesis: sqrt(sum_i ||(w_i P_i - v_i Q_i) f||^2) <= a sqrt<f, S_W f>
    + b sqrt<f, S_V f> with b < 1.  Predicted: for any K with range(K)
    inside the range of the target synthesis map (K defaults to S_V), the
    target is a K-fusion frame with upper bound B ((1+a)/(1-b))^2.
    """
    _paired(ww, vv)
    target_k = fusion_operator(vv) if k is None else k_operator(k, ww.ambient_dim)
    a, b = constants.a, constants.b
    if constants.c != 0.0:
        raise AdmissibilityFailed("this hypothesis has no c-term")
    if b >= 1.0:
        raise AdmissibilityFailed(f"b = {b} must be below 1")
    residuals, notes = _blockwise_hypothesis(ww, vv, constants, None, tol, seed)
    included, escape = range_inclusion(target_k, fusion_synthesis_matrix(vv))
    if not included:
        raise AdmissibilityFailed(
            "operator range escapes the target synthesis range", escape,
        )
    upper_w = fusion_bounds(ww).upper
    predicted = FrameBounds(
        0.0, upper_w * ((1.0 + a) / (1.0 - b)) ** 2, "predicted"
    )
    actual = k_bounds(vv, target_k)
    notes |= {
        "existence_required": True,
        "flagged_upper_constant": True,
        "alternative_upper": math.sqrt(upper_w) * ((1.0 + a) / (1.0 - b)) ** 2,
    }
    return _bracket_report(
        "thm4.4.1", predicted, actual, residuals, seed, notes,
        extra_ok=actual.lower > 0.0,
    )


def check_projection_k_star(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily,
                            k, constants: PerturbationConstants,
                            tol: float = DEFAULT_TOL,
                            seed: int = 0) -> TheoremReport:
    """Thm 4.4 with the c-term c ||K* f||: K-relative bounds on both sides.

    The hypothesis is that of check_projection_zero plus the c-term.
    Admissible when a, b < 1 and c/(1-a) < sqrt(A).  Predicted:
    (((1-a) sqrt(A) - c)/(1+b))^2 and (((1+a) sqrt(B) + c ||K||)/(1-b))^2.
    """
    _paired(ww, vv)
    k = k_operator(k, ww.ambient_dim)
    a, b, c = constants.a, constants.b, constants.c
    if a >= 1.0 or b >= 1.0:
        raise AdmissibilityFailed(f"a = {a} and b = {b} must both be below 1")
    residuals, notes = _blockwise_hypothesis(ww, vv, constants, k, tol, seed)
    bounds_w = _require_k_fusion(ww, k, "the source family")
    root_a = math.sqrt(bounds_w.lower)  # inf for the vacuous sentinel
    if c / (1.0 - a) >= root_a:
        raise AdmissibilityFailed(
            f"c/(1-a) = {c / (1.0 - a):.6e} must stay below sqrt(A)"
        )
    predicted = FrameBounds(
        ((root_a * (1.0 - a) - c) / (1.0 + b)) ** 2,
        (((1.0 + a) * math.sqrt(bounds_w.upper) + c * operator_norm(k))
         / (1.0 - b)) ** 2,
        "predicted",
    )
    return _bracket_report("thm4.4.2", predicted, k_bounds(vv, k), residuals,
                           seed, notes)


def check_projection_plain(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily,
                           constants: PerturbationConstants,
                           tol: float = DEFAULT_TOL,
                           seed: int = 0) -> TheoremReport:
    """Thm 4.4 with the c-term c ||f||: plain fusion bounds on both sides.

    The hypothesis is that of check_projection_zero plus the c-term.
    Admissible when b < 1 and a sqrt(B) + c < sqrt(A).  Predicted:
    ((sqrt(A) - c - a sqrt(B))/(1+b))^2 and (((1+a) sqrt(B) + c)/(1-b))^2.
    """
    _paired(ww, vv)
    a, b, c = constants.a, constants.b, constants.c
    if b >= 1.0:
        raise AdmissibilityFailed(f"b = {b} must be below 1")
    residuals, notes = _blockwise_hypothesis(
        ww, vv, constants, np.eye(ww.ambient_dim, dtype=np.complex128), tol, seed)
    bounds_w = fusion_bounds(ww)
    lower_w, upper_w = bounds_w.lower, bounds_w.upper
    if not bounds_w.is_frame():
        raise HypothesisFailed("the source family is not a fusion frame")
    if a * math.sqrt(upper_w) + c >= math.sqrt(lower_w):
        raise AdmissibilityFailed(
            "a sqrt(B) + c must stay below sqrt(A) for the transfer"
        )
    predicted = FrameBounds(
        ((math.sqrt(lower_w) - c - a * math.sqrt(upper_w)) / (1.0 + b)) ** 2,
        (((1.0 + a) * math.sqrt(upper_w) + c) / (1.0 - b)) ** 2,
        "predicted",
    )
    return _bracket_report("thm4.4.3", predicted, fusion_bounds(vv), residuals,
                           seed, notes)


def check_quadratic_perturbation(ww: WeightedSubspaceFamily,
                                 vv: WeightedSubspaceFamily,
                                 k, r: float,
                                 tol: float = DEFAULT_TOL,
                                 seed: int = 0) -> TheoremReport:
    """Bound transfer controlled by a quadratic-form deviation budget.

    Hypothesis: sum_i |<f, (w_i^2 P_i - v_i^2 Q_i) f>| <= R ||K* f||^2 with
    0 < R < A.  Predicted bounds: (A - R, B + R ||K||).  The upper constant
    follows the source statement; the Cauchy-Schwarz route gives
    B + R ||K||^2, recorded in the notes.
    """
    _paired(ww, vv)
    n = ww.ambient_dim
    k_mat = k_operator(k, n)
    r = float(r)
    if not (r > 0.0):
        raise HypothesisFailed(f"deviation budget R = {r} must be positive")
    bounds_w = _require_k_fusion(ww, k_mat, "the source family")
    lower_w, upper_w = bounds_w.lower, bounds_w.upper
    if not math.isinf(lower_w) and r >= lower_w:
        raise HypothesisFailed(
            f"deviation budget R = {r:.6e} reaches the lower bound {lower_w:.6e}"
        )
    member_forms = []
    for (sw, w), (sv, v) in zip(ww.members, vv.members):
        member_forms.append(
            hermitian_part((w * w) * projector(sw) - (v * v) * projector(sv))
        )
    gram = hermitian_part(k_mat @ k_mat.conj().T)
    forms = [gram] + member_forms
    cols = _grid(n, [ww, vv] + forms, seed,
                 _has_imag(fusion_operator(ww), fusion_operator(vv), *forms))
    lhs = np.abs(_member_energies(ww, cols) - _member_energies(vv, cols)).sum(axis=0)
    rhs = r * _form_values(gram, cols)
    violation = _verify_pointwise(
        lhs, rhs, tol, "quadratic deviation inequality fails on the grid"
    )
    residuals = {"hypothesis_violation": violation}
    # with sign-definite member deviations the hypothesis is exactly a PSD
    # test; run it when applicable as a sharper certificate
    signs = []
    for d, spec in zip(member_forms, np.linalg.eigvalsh(np.stack(member_forms))):
        scale = max(abs(float(spec[0])), abs(float(spec[-1])), 1.0)
        if spec[0] >= -tol * scale:
            signs.append(1.0)
        elif spec[-1] <= tol * scale:
            signs.append(-1.0)
        else:
            signs = []
            break
    if signs:
        d_abs = sum(s * d for s, d in zip(signs, member_forms))
        gap = float(np.linalg.eigvalsh(hermitian_part(r * gram - d_abs))[0])
        residuals["psd_certificate_gap"] = gap
        if gap < -tol * max(1.0, r * operator_norm(gram)):
            raise HypothesisFailed(
                "exact PSD certificate fails for the deviation budget", -gap
            )
    k_norm = operator_norm(k_mat)
    predicted = FrameBounds(
        math.inf if math.isinf(lower_w) else lower_w - r,
        upper_w + r * k_norm,
        "predicted",
    )
    notes = {"cauchy_schwarz_upper": upper_w + r * k_norm * k_norm}
    return _bracket_report("prop4.5", predicted, k_bounds(vv, k_mat), residuals,
                           seed, notes)


def _synthesis_hypothesis(ww: WeightedSubspaceFamily, erased: Sequence[int],
                          k: np.ndarray, constants: PerturbationConstants,
                          tol: float, seed: int
                          ) -> tuple[WeightedSubspaceFamily, float, dict, dict]:
    """The reduced family, its synthesis norm ||T||, and the residuals and
    notes of the Thm 4.6/4.7 hypothesis

        ||(K* - T T*) f|| <= a ||K* f|| + b ||T* f|| + c ||f||,

    T the synthesis map of the family minus the erased members.  With one
    nonzero constant it is decided exactly as a PSD pencil test against
    K K*, T T* or I; with more it is grid-checked.
    """
    n = ww.ambient_dim
    _, reduced = _split_members(ww, erased)
    t_norm = operator_norm(fusion_synthesis_matrix(reduced))
    deviation = k.conj().T - fusion_operator(reduced)
    violation, certificate = _check_hypothesis(
        deviation.conj().T,
        [(constants.a, k), (constants.b, reduced),
         (constants.c, np.eye(n, dtype=np.complex128))],
        tol, "synthesis deviation inequality fails on the grid", seed,
    )
    return (reduced, t_norm, {"hypothesis_violation": violation},
            {"hypothesis_certificate": certificate})


def check_synthesis_perturbation(ww: WeightedSubspaceFamily,
                                 erased: Sequence[int],
                                 k,
                                 constants: PerturbationConstants,
                                 tol: float = DEFAULT_TOL,
                                 seed: int = 0) -> TheoremReport:
    """Thm 4.6: a reduced family whose Gram synthesis approximates K*.

    Hypothesis, T the synthesis map of the family minus the erased
    members: ||(K* - T T*) f|| <= a ||K* f|| + b ||T* f|| with a < 1.
    Predicted: the reduced family is a K-fusion frame on the whole space
    with lower bound ((1-a)/(b+||T||))^2 and the full family's upper bound.
    """
    k = k_operator(k, ww.ambient_dim)
    a, b = constants.a, constants.b
    if constants.c != 0.0:
        raise AdmissibilityFailed("this hypothesis has no c-term")
    if a >= 1.0:
        raise AdmissibilityFailed(f"a = {a} must be below 1")
    reduced, t_norm, residuals, notes = _synthesis_hypothesis(
        ww, erased, k, constants, tol, seed)
    ratio = _div(1.0 - a, b + t_norm)
    predicted = FrameBounds(ratio * ratio, fusion_bounds(ww).upper, "predicted")
    return _bracket_report("thm4.6", predicted, k_bounds(reduced, k), residuals,
                           seed, notes)


def check_synthesis_closed_range(ww: WeightedSubspaceFamily,
                                 erased: Sequence[int],
                                 k,
                                 constants: PerturbationConstants,
                                 tol: float = DEFAULT_TOL,
                                 seed: int = 0) -> TheoremReport:
    """Thm 4.7: the Thm 4.6 hypothesis with a c-term, for K of closed range.

    Admissible when a + c ||Kdag|| < 1.  Predicted: bounds on range(K) with
    lower ((1-a-c||Kdag||)/(b+||T||))^2 and the full family's upper bound;
    the unsquared ratio is recorded in the notes alongside.
    """
    k = k_operator(k, ww.ambient_dim)
    a, b, c = constants.a, constants.b, constants.c
    dag_norm = operator_norm(pinv(k))
    drag = a + c * dag_norm
    if drag >= 1.0:
        raise AdmissibilityFailed(
            f"a + c ||Kdag|| = {drag:.6e} must stay below 1"
        )
    reduced, t_norm, residuals, notes = _synthesis_hypothesis(
        ww, erased, k, constants, tol, seed)
    ratio = _div(1.0 - a - c * dag_norm, b + t_norm)
    predicted = FrameBounds(ratio * ratio, fusion_bounds(ww).upper, "predicted")
    notes |= {"unsquared_lower": ratio, "squared_lower": ratio * ratio}
    return _bracket_report("thm4.7", predicted, _compressed_pencil(reduced, k),
                           residuals, seed, notes)
