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
PSD forms, and prop4.5's is a quadratic budget.  Each is decided by a
certificate or refuted by a witness vector, or else HypothesisUndecided
is raised (see _check_hypothesis and _quadratic_hypothesis).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    AdmissibilityFailed,
    DimensionMismatch,
    HypothesisFailed,
    HypothesisUndecided,
    OracleMismatch,
    ZeroDrazin,
)
from .frame_core import (
    FrameBounds,
    WeightedSubspaceFamily,
    fusion_bounds,
    fusion_synthesis_matrix,
)
from .kfusion import k_bounds, k_operator
from .numerics import (
    RANK_TOL,
    _certify_psd_scale,
    drazin,
    hermitian_eig,
    hermitian_part,
    max_psd_scale,
    operator_norm,
    pencil,
    pinv,
    projector,
    quadratic_forms,
    range_basis,
    range_inclusion,
)

BRACKET_SLACK = 1e-8
DEFAULT_TOL = 1e-9
# _two_term_hypothesis tests the pencil bound raised by _LEVEL_MARGIN, takes
# a root of det P(s) as real when |Im| <= _ROOT_IMAG, and moves s at most
# _LEVEL_ROUNDS times.
_LEVEL_MARGIN = 1e-12
_ROOT_IMAG = 1e-3
_LEVEL_ROUNDS = 8
_UNDECIDED = "hypothesis undecided: neither a certificate nor a witness decides it"

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

    ``passed`` is true when both predicted bounds bracket the actual optimal
    ones within the relative slack; a failed hypothesis raises instead.  Multi-part
    checkers carry sub-reports in ``parts``; the top-level verdict is the
    conjunction.
    """

    theorem_id: str
    residuals: Mapping[str, float]
    predicted: FrameBounds
    actual: FrameBounds
    passed: bool
    lower_margin: float
    upper_margin: float
    notes: Mapping[str, object] = field(default_factory=dict)
    parts: tuple["TheoremReport", ...] = ()


def _slack_margin(x: float, y: float) -> float:
    """y * (1 + slack) - x, with inf <= inf treated as a pass; x <= y within
    the slack exactly when this is >= 0."""
    if math.isinf(y):
        return math.inf
    if math.isinf(x):
        return -math.inf
    return y * (1.0 + BRACKET_SLACK) - x


def _bracket_report(theorem_id: str, predicted: FrameBounds, actual: FrameBounds,
                    residuals: Mapping[str, float],
                    notes: Mapping[str, object] | None = None,
                    parts: tuple[TheoremReport, ...] = ()) -> TheoremReport:
    lower_margin = _slack_margin(predicted.lower, actual.lower)
    upper_margin = _slack_margin(actual.upper, predicted.upper)
    parts_ok = all(p.passed for p in parts)
    return TheoremReport(
        theorem_id=theorem_id,
        residuals=dict(residuals),
        predicted=predicted,
        actual=actual,
        passed=bool(lower_margin >= 0.0 and upper_margin >= 0.0 and parts_ok),
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        notes=dict(notes or {}),
        parts=parts,
    )


def _col_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(np.einsum("ij,ij->j", m.conj(), m).real, 0.0))


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
                        tol: float = DEFAULT_TOL) -> TheoremReport:
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
    return _bracket_report("thm3.1", predicted, actual, residuals)


def check_drazin(family: WeightedSubspaceFamily, k,
                 tol: float = DEFAULT_TOL) -> TheoremReport:
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
                        k_bounds(family, op), {})
        for name, op, predicted_lower in compositions
    )
    head = parts[0]
    return TheoremReport(
        theorem_id="lem3.2",
        residuals=residuals,
        predicted=head.predicted,
        actual=head.actual,
        passed=all(p.passed for p in parts),
        lower_margin=min(p.lower_margin for p in parts),
        upper_margin=min(p.upper_margin for p in parts),
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
    s_red = reduced.fusion_operator
    gram = hermitian_part(k @ k.conj().T)
    s_c = hermitian_part(qb.conj().T @ s_red @ qb)
    g_c = hermitian_part(qb.conj().T @ gram @ qb)
    s_eig = hermitian_eig(s_c)
    return FrameBounds(max_psd_scale(s_c, g_c, sw_eig=s_eig),
                       max(float(s_eig.eigenvalues[-1]), 0.0), "optimal")


def check_erasure(family: WeightedSubspaceFamily, k, erased: Sequence[int],
                  tol: float = DEFAULT_TOL) -> TheoremReport:
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
                           residuals, notes)


Side = np.ndarray | WeightedSubspaceFamily


def _side_form(side: Side) -> np.ndarray:
    """The PSD form X X* of a side: S_W for a family."""
    if isinstance(side, WeightedSubspaceFamily):
        return side.fusion_operator
    return hermitian_part(side @ side.conj().T)


def _side_norms(side: Side, cols: np.ndarray) -> np.ndarray:
    """||X* f|| for each column f; a family stands for its synthesis matrix
    T, with ||T* f||^2 = <f, S_W f>."""
    if isinstance(side, WeightedSubspaceFamily):
        side = fusion_synthesis_matrix(side)
    return _col_norms(side.conj().T @ cols)


def _refute(left: np.ndarray, active: Sequence[tuple[float, Side]],
            candidates: list[np.ndarray], tol: float, clause: str) -> NoReturn:
    """Raise HypothesisFailed with ``clause`` when a candidate, normalized,
    violates ||X* f|| <= sum_j c_j ||Y_j* f|| by more than ``tol``, and
    HypothesisUndecided when none does."""
    cols = np.stack(candidates, axis=1)
    cols = cols / _col_norms(cols)
    rhs = sum(c * _side_norms(side, cols) for c, side in active)
    violation = float((_side_norms(left, cols) - rhs).max())
    if violation > tol:
        raise HypothesisFailed(clause, violation)
    raise HypothesisUndecided(_UNDECIDED)


def _one_term_hypothesis(left: np.ndarray, left_form: np.ndarray,
                         left_max: Callable[[], float], c: float, side: Side,
                         tol: float, clause: str) -> float:
    """Decide ||X* f|| <= c ||Y* f|| with c > 0, L = ``left_form`` = X X*
    with top eigenvalue ``left_max()``.

    With R = Y Y*, c_opt = sqrt of the pencil ratio of (L, R) is the least
    constant that holds (Douglas), so the violation is at most (c_opt - c)
    sqrt(lambda_max(R)): at most ``tol`` accepts and returns that bound.
    1/c_opt^2 is certified only when it would accept; a constant that is
    not accepted goes to the pencil's witness whether or not its
    certificate holds.  So lambda_max(L) is read by the certificate and,
    when R is zero or has a kernel, by the pencil, and by nothing else.
    """
    right = _side_form(side)
    right_eig = (side.fusion_eig if isinstance(side, WeightedSubspaceFamily)
                 else hermitian_eig(right))
    ratio, tops = pencil(left_form, left_max, right_eig, left_psd=True)
    w = right_eig.eigenvalues
    if ratio < math.inf:
        bound = (math.sqrt(ratio) - c) * math.sqrt(max(float(w[-1]), 0.0))
        if bound <= tol:
            scale = 1.0 / ratio if ratio > 0.0 else math.inf
            try:
                if scale < math.inf:
                    # R is a Hermitian part already, as max_psd_scale passes it
                    _certify_psd_scale(right, left_form, scale,
                                       max(abs(w[0]), abs(w[-1])), left_max())
                return bound
            except OracleMismatch:
                pass  # no certified constant: only a witness can decide
    _refute(left, [(c, side)], tops, tol, clause)


def _two_term_hypothesis(left: np.ndarray, left_form: np.ndarray,
                         active: Sequence[tuple[float, Side]], tol: float,
                         clause: str) -> float:
    """Decide ||X* f|| <= sum_j c_j ||Y_j* f|| with two or more c_j > 0,
    L = ``left_form`` = X X*, by a level-set certificate.

    With Q1 = c_1^2 Y_1 Y_1* and the later terms merged into Q2 = sum_j
    c_j^2 Y_j Y_j* (a stronger inequality, as sqrt(sum c_j^2 y_j^2) <=
    sum c_j y_j), Cauchy-Schwarz makes it L <= M(s) = Q1/s + Q2/(1-s) for
    every s in (0, 1).  gamma, the largest pencil ratio of (L, M(s)) at s
    and at the limits s -> 0, 1 (the pencils (L, Q2) on ker Q1 and (L, Q1)
    on ker Q2), raised by _LEVEL_MARGIN, bounds them all when P(s) =
    gamma((1-s) Q1 + s Q2) - s(1-s) L is PSD on (0, 1).  The real roots of
    det P, eigenvalues of a 2n x 2n companion pencil, cut (0, 1) where
    lambda_min(P) may change sign, so one midpoint per piece decides it
    (Boyd and Balakrishnan, Systems & Control Letters 15, 1990).  The
    violation is then at most (sqrt(gamma) - 1)(sqrt(lambda_max(Q1)) +
    sqrt(lambda_max(Q2))), accepted at most ``tol``; a negative midpoint
    moves s there for the next round.  The witness is the last pencil's
    candidates and those of (L, Q1) and (L, Q2).
    """
    (c1, side1), rest = active[0], active[1:]
    left_w, left_v = np.linalg.eigh(left_form)

    def left_max():
        return float(left_w[-1])

    q1 = c1 * c1 * _side_form(side1)
    q2 = sum(c * c * _side_form(side) for c, side in rest)
    eigs = (hermitian_eig(q1), hermitian_eig(q2))
    ends = []
    for eig, other in zip(eigs, (q2, q1)):
        w, v = eig.eigenvalues, eig.eigenvectors
        ker = v[:, w <= RANK_TOL * max(float(w[-1]), 0.0)]
        if ker.shape[1]:
            left_ker = hermitian_part(ker.conj().T @ left_form @ ker)
            ends.append(pencil(
                left_ker, lambda: float(np.linalg.eigvalsh(left_ker)[-1]),
                hermitian_eig(hermitian_part(ker.conj().T @ other @ ker)),
                kernel_top=False)[0])

    def pencil_at(s):  # (L, M(s)); an s rounded onto an end of (0, 1) moves inside
        s = min(max(s, 2.0**-53), 1.0 - 2.0**-53)
        return pencil(left_form, left_max, hermitian_eig(q1 / s + q2 / (1.0 - s)))

    # start where L's top vector f meets the Cauchy-Schwarz equality; an f
    # in ker Q1 or ker Q2 would start at an end, where M(s) is singular to
    # working precision and the pencil calls L leaking
    y1, y2 = np.sqrt(np.maximum(quadratic_forms(
        np.stack([q1, q2]), left_v[:, -1:])[:, 0], 0.0))
    s = float(y1 / (y1 + y2)) if y1 > 0.0 and y2 > 0.0 else 0.5
    gamma, tops = pencil_at(s)
    gamma = max([gamma, *ends])
    eye = np.eye(len(left_form))
    for _ in range(_LEVEL_ROUNDS):
        if math.isinf(gamma):
            break
        level = gamma * (1.0 + _LEVEL_MARGIN)
        coeffs = np.stack([level * q1, level * (q2 - q1) - left_form, left_form])
        # scaled to the companion's identity blocks, or QZ loses roots
        a0, a1, a2 = coeffs / (np.abs(coeffs).max() or 1.0)
        try:
            roots = scipy.linalg.eigvals(np.block([[0 * eye, eye], [-a0, -a1]]),
                                         np.block([[eye, 0 * eye], [0 * eye, a2]]))
        except ValueError:  # QZ did not converge (LinAlgError), or a0 overflowed
            break
        roots = roots[np.isfinite(roots) & (np.abs(roots.imag) <= _ROOT_IMAG)].real
        cuts = np.sort(np.r_[0.0, 1.0, roots[(roots > 0.0) & (roots < 1.0)]])
        mids = (cuts[:-1] + cuts[1:]) / 2.0
        t = mids[:, None, None]  # P in its factored form, accurate near an end
        lowest = np.linalg.eigvalsh(level * ((1.0 - t) * q1 + t * q2)
                                    - (t * (1.0 - t)) * left_form)[:, 0]
        if lowest.min() >= 0.0:
            bound = (math.sqrt(level) - 1.0) * sum(
                math.sqrt(max(float(e.eigenvalues[-1]), 0.0)) for e in eigs)
            if bound <= tol:
                return bound
            break
        s = float(mids[np.argmin(lowest)])
        ratio, tops = pencil_at(s)
        gamma = max(gamma, ratio)
    candidates = tops + [top for eig in eigs
                         for top in pencil(left_form, left_max, eig)[1]]
    _refute(left, active, candidates, tol, clause)


def _check_hypothesis(left: np.ndarray, terms: Sequence[tuple[float, Side]],
                      tol: float, clause: str) -> float:
    """Decide ||X* f|| <= sum_j c_j ||Y_j* f|| for all f, X = ``left``.

    ``terms`` pairs each constant with its factor Y_j, or with a family
    for its synthesis matrix.  Returns a certified bound, at most ``tol``,
    on the violation at every unit f.  Raises HypothesisFailed with
    ``clause`` when a witness violates it by more than ``tol``, and
    HypothesisUndecided when neither a certificate nor a witness decides.
    """
    active = [(c, side) for c, side in terms if c != 0.0]
    left_form = _side_form(left)
    if len(active) > 1:
        return _two_term_hypothesis(left, left_form, active, tol, clause)
    # solved on first use: a one-term rejection at full rank never reads it
    left_max = functools.cache(lambda: float(np.linalg.eigvalsh(left_form)[-1]))
    if not active:
        top = math.sqrt(max(left_max(), 0.0))
        if top > tol:
            raise HypothesisFailed(clause, top)
        return top
    return _one_term_hypothesis(left, left_form, left_max, *active[0], tol, clause)


def check_operator_perturbation(family: WeightedSubspaceFamily, k1, k2,
                                constants: PerturbationConstants,
                                tol: float = DEFAULT_TOL) -> TheoremReport:
    """Stability of the lower bound under a relative operator perturbation.

    Hypothesis: ||(K1* - K2*) f|| <= a ||K1* f|| + b ||K2* f|| with b < 1,
    decided as D D* <= a^2 K1 K1* (D = K1 - K2) when b = 0, the same with
    K2 when a = 0, and by the level-set certificate when both are nonzero.
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
    violation = _check_hypothesis(
        k1 - k2, [(a, k1), (b, k2)], tol,
        "perturbation inequality fails at a witness vector",
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
    if a < 1.0 and lower2 > 0.0:
        reverse_factor = ((1.0 - a) / (1.0 + b)) ** 2
        predicted_rev = FrameBounds(
            math.inf if math.isinf(lower2) else lower2 * reverse_factor,
            upper,
            "predicted",
        )
        parts = (
            _bracket_report("lem4.1:reverse", predicted_rev, source, {}),
        )
    return _bracket_report("lem4.1", predicted, actual,
                           {"hypothesis_violation": violation}, parts=parts)


def _member_diffs(ww: WeightedSubspaceFamily,
                  vv: WeightedSubspaceFamily) -> list[np.ndarray]:
    return [
        w * projector(sw) - v * projector(sv)
        for (sw, w), (sv, v) in zip(ww.members, vv.members)
    ]


def _quadratic_hypothesis(forms: np.ndarray, gram: np.ndarray, r: float,
                          tol: float) -> float:
    """Decide sum_i |<f, D_i f>| <= R <f, G f> for all f, D_i the stacked
    ``forms`` and G = ``gram``; the outcomes of _check_hypothesis.

    Since |<f, D f>| <= <f, |D| f>, sum_i |D_i| <= R G proves it: when
    lambda_min of R G - sum_i |D_i| is at least -tol, its negation bounds
    the violation at every unit f.  Otherwise a sign ascent from that
    eigenvalue's vector f looks for a witness: sigma_i = sign <f, D_i f>
    (0 counts as +1), then f the top vector of sum_i sigma_i D_i - R G, at
    most m + 1 times.  With every D_i sign-definite the first f attains
    the violation, so only indefinite D_i can leave it undecided.
    """
    clause = "quadratic deviation inequality fails at a witness vector"
    w, v = np.linalg.eigh(forms)
    abs_sum = ((v * np.abs(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)).sum(axis=0)
    gap, vectors = np.linalg.eigh(hermitian_part(r * gram - abs_sum))
    if -gap[0] <= tol:
        return float(-gap[0])
    f = vectors[:, :1]
    for _ in range(len(forms) + 2):  # the start and m + 1 ascent steps
        values = quadratic_forms(forms, f)
        violation = float((np.abs(values).sum(axis=0)
                           - r * quadratic_forms(gram, f)).max())
        if violation > tol:
            raise HypothesisFailed(clause, violation)
        signs = np.where(values[:, 0] >= 0.0, 1.0, -1.0)
        f = np.linalg.eigh(hermitian_part(
            np.tensordot(signs, forms, axes=1) - r * gram))[1][:, -1:]
    raise HypothesisUndecided(_UNDECIDED)


def _paired(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily) -> None:
    """DimensionMismatch unless the families pair members one-to-one in
    one ambient space."""
    if len(ww) != len(vv):
        raise DimensionMismatch("families must pair members one-to-one")
    if ww.ambient_dim != vv.ambient_dim:
        raise DimensionMismatch("families live in different ambient spaces")


def _blockwise_hypothesis(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily,
                          constants: PerturbationConstants,
                          c_side: np.ndarray | None, tol: float) -> dict:
    """Residuals of the Thm 4.4 hypothesis

        sqrt(sum_i ||(w_i P_i - v_i Q_i) f||^2)
            <= a sqrt<f, S_W f> + b sqrt<f, S_V f> + c ||Y* f||,

    Y = ``c_side``, or None when there is no c-term (and so c = 0).  With
    one nonzero constant it is decided as a PSD pencil test against S_W,
    S_V or Y Y*; with more by the level-set certificate.
    """
    terms = [(constants.a, ww), (constants.b, vv), (constants.c, c_side)]
    # the d_i are Hermitian: ||d_i f|| = ||d_i* f||
    return {"hypothesis_violation": _check_hypothesis(
        np.hstack(_member_diffs(ww, vv)), terms, tol,
        "blockwise perturbation inequality fails at a witness vector")}


def check_projection_zero(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily,
                          constants: PerturbationConstants, k=None,
                          tol: float = DEFAULT_TOL) -> TheoremReport:
    """Thm 4.4 without a c-term: existence of target bounds.

    Hypothesis: sqrt(sum_i ||(w_i P_i - v_i Q_i) f||^2) <= a sqrt<f, S_W f>
    + b sqrt<f, S_V f> with b < 1.  Predicted: for any K with range(K)
    inside the range of the target synthesis map (K defaults to S_V), the
    target is a K-fusion frame with upper bound B ((1+a)/(1-b))^2.
    """
    _paired(ww, vv)
    target_k = vv.fusion_operator if k is None else k_operator(k, ww.ambient_dim)
    a, b = constants.a, constants.b
    if constants.c != 0.0:
        raise AdmissibilityFailed("this hypothesis has no c-term")
    if b >= 1.0:
        raise AdmissibilityFailed(f"b = {b} must be below 1")
    residuals = _blockwise_hypothesis(ww, vv, constants, None, tol)
    included, escape = range_inclusion(target_k, fusion_synthesis_matrix(vv))
    if not included:
        raise AdmissibilityFailed(
            "operator range escapes the target synthesis range", escape,
        )
    upper_w = fusion_bounds(ww).upper
    predicted = FrameBounds(
        0.0, upper_w * ((1.0 + a) / (1.0 - b)) ** 2, "predicted"
    )
    actual = _require_k_fusion(vv, target_k, "the target family")
    notes = {"alternative_upper": math.sqrt(upper_w) * ((1.0 + a) / (1.0 - b)) ** 2}
    return _bracket_report("thm4.4.1", predicted, actual, residuals, notes)


def check_projection_k_star(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily,
                            k, constants: PerturbationConstants,
                            tol: float = DEFAULT_TOL) -> TheoremReport:
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
    residuals = _blockwise_hypothesis(ww, vv, constants, k, tol)
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
    return _bracket_report("thm4.4.2", predicted, k_bounds(vv, k), residuals)


def check_projection_plain(ww: WeightedSubspaceFamily, vv: WeightedSubspaceFamily,
                           constants: PerturbationConstants,
                           tol: float = DEFAULT_TOL) -> TheoremReport:
    """Thm 4.4 with the c-term c ||f||: plain fusion bounds on both sides.

    The hypothesis is that of check_projection_zero plus the c-term.
    Admissible when b < 1 and a sqrt(B) + c < sqrt(A).  Predicted:
    ((sqrt(A) - c - a sqrt(B))/(1+b))^2 and (((1+a) sqrt(B) + c)/(1-b))^2.
    """
    _paired(ww, vv)
    a, b, c = constants.a, constants.b, constants.c
    if b >= 1.0:
        raise AdmissibilityFailed(f"b = {b} must be below 1")
    residuals = _blockwise_hypothesis(
        ww, vv, constants, np.eye(ww.ambient_dim, dtype=np.complex128), tol)
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
    return _bracket_report("thm4.4.3", predicted, fusion_bounds(vv), residuals)


def check_quadratic_perturbation(ww: WeightedSubspaceFamily,
                                 vv: WeightedSubspaceFamily,
                                 k, r: float,
                                 tol: float = DEFAULT_TOL) -> TheoremReport:
    """Bound transfer controlled by a quadratic-form deviation budget.

    Hypothesis: sum_i |<f, (w_i^2 P_i - v_i^2 Q_i) f>| <= R ||K* f||^2 with
    0 < R < A, decided by the certificate sum_i |D_i| <= R K K* or a
    witness (see _quadratic_hypothesis).  Predicted bounds: (A - R, B + R ||K||).  The
    upper constant follows the source statement; the Cauchy-Schwarz route
    gives B + R ||K||^2, recorded in the notes.
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
    forms = np.stack([
        hermitian_part((w * w) * projector(sw) - (v * v) * projector(sv))
        for (sw, w), (sv, v) in zip(ww.members, vv.members)
    ])
    violation = _quadratic_hypothesis(
        forms, hermitian_part(k_mat @ k_mat.conj().T), r, tol)
    k_norm = operator_norm(k_mat)
    predicted = FrameBounds(
        math.inf if math.isinf(lower_w) else lower_w - r,
        upper_w + r * k_norm,
        "predicted",
    )
    notes = {"cauchy_schwarz_upper": upper_w + r * k_norm * k_norm}
    return _bracket_report("prop4.5", predicted, k_bounds(vv, k_mat),
                           {"hypothesis_violation": violation}, notes)


def _synthesis_hypothesis(ww: WeightedSubspaceFamily, erased: Sequence[int],
                          k: np.ndarray, constants: PerturbationConstants,
                          tol: float) -> tuple[WeightedSubspaceFamily, float, dict]:
    """The reduced family, its synthesis norm ||T||, and the residuals of
    the Thm 4.6/4.7 hypothesis

        ||(K* - T T*) f|| <= a ||K* f|| + b ||T* f|| + c ||f||,

    T the synthesis map of the family minus the erased members.  With one
    nonzero constant it is decided as a PSD pencil test against K K*, T T*
    or I; with more by the level-set certificate.
    """
    n = ww.ambient_dim
    _, reduced = _split_members(ww, erased)
    t_norm = math.sqrt(fusion_bounds(reduced).upper)
    deviation = k.conj().T - reduced.fusion_operator
    violation = _check_hypothesis(
        deviation.conj().T,
        [(constants.a, k), (constants.b, reduced),
         (constants.c, np.eye(n, dtype=np.complex128))],
        tol, "synthesis deviation inequality fails at a witness vector",
    )
    return reduced, t_norm, {"hypothesis_violation": violation}


def check_synthesis_perturbation(ww: WeightedSubspaceFamily,
                                 erased: Sequence[int],
                                 k,
                                 constants: PerturbationConstants,
                                 tol: float = DEFAULT_TOL) -> TheoremReport:
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
    reduced, t_norm, residuals = _synthesis_hypothesis(
        ww, erased, k, constants, tol)
    ratio = _div(1.0 - a, b + t_norm)
    predicted = FrameBounds(ratio * ratio, fusion_bounds(ww).upper, "predicted")
    return _bracket_report("thm4.6", predicted, k_bounds(reduced, k), residuals)


def check_synthesis_closed_range(ww: WeightedSubspaceFamily,
                                 erased: Sequence[int],
                                 k,
                                 constants: PerturbationConstants,
                                 tol: float = DEFAULT_TOL) -> TheoremReport:
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
    reduced, t_norm, residuals = _synthesis_hypothesis(
        ww, erased, k, constants, tol)
    ratio = _div(1.0 - a - c * dag_norm, b + t_norm)
    predicted = FrameBounds(ratio * ratio, fusion_bounds(ww).upper, "predicted")
    notes = {"unsquared_lower": ratio}
    return _bracket_report("thm4.7", predicted, _compressed_pencil(reduced, k),
                           residuals, notes)
