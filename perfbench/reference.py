"""Reference computations the benchmark checks framekit's outputs against.

Nothing here imports framekit.  Instances arrive as the plain JSON objects
of the `framekit/instance-v1` format (decoded with the standard library),
and every bound is computed with NumPy/SciPy directly:

* the fusion operator  S = sum_i w_i^2 B_i B_i^*  of a family whose members
  have orthonormal basis columns B_i, and its optimal bounds, the extreme
  eigenvalues of S;
* the optimal K-relative lower bound, the largest a with a K K^* <= S,
  read off the generalized eigenproblem  K K^* x = mu S x  as 1 / mu_max;
* a witness vector that refutes a `lem4.1` perturbation constant.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# relative eigenvalue floor below which S is treated as singular
DEFINITE_TOL = 1e-12


def decode_matrix(rows, complex_scalars: bool) -> np.ndarray:
    """Matrix from instance-v1 rows; complex entries are [re, im] pairs."""
    a = np.array(rows, dtype=float)
    if complex_scalars:
        return a[..., 0] + 1j * a[..., 1]
    return a.astype(complex)


def decode_family(members, complex_scalars: bool) -> list[tuple[np.ndarray, float]]:
    """(basis, weight) pairs; the file stores basis vectors as rows."""
    return [
        (decode_matrix(m["basis"], complex_scalars).T, float(m["weight"]))
        for m in members
    ]


def fusion_operator(family) -> np.ndarray:
    n = family[0][0].shape[0]
    s = np.zeros((n, n), dtype=complex)
    for basis, weight in family:
        s += weight * weight * (basis @ basis.conj().T)
    return (s + s.conj().T) / 2.0


def fusion_bounds(s: np.ndarray) -> tuple[float, float]:
    """Optimal (lower, upper) frame bounds: the extreme eigenvalues of S."""
    w = scipy.linalg.eigvalsh(s)
    return max(float(w[0]), 0.0), max(float(w[-1]), 0.0)


def k_lower_bound(s: np.ndarray, k: np.ndarray) -> float:
    """Largest a with a K K^* <= S, for a positive definite S.

    With S definite the pencil (K K^*, S) is symmetric-definite, and
    S - a K K^* >= 0 holds exactly while a * mu_max <= 1.  Returns +inf
    for K = 0, where the inequality is vacuous.
    """
    w = scipy.linalg.eigvalsh(s)
    if w[0] <= DEFINITE_TOL * w[-1]:
        raise ValueError("the reference pencil needs a positive definite S")
    g = k @ k.conj().T
    g = (g + g.conj().T) / 2.0
    mu = float(scipy.linalg.eigh(g, s, eigvals_only=True)[-1])
    return math.inf if mu <= 0.0 else 1.0 / mu


def conclusion_bounds(obj: dict) -> tuple[float, float] | None:
    """Optimal (lower, upper) bounds of an instance's conclusion family.

    Defined for the statements whose conclusion family can be formed from
    the instance alone; None for `thm3.1` (image family) and `lem3.2`
    (Drazin compositions).
    """
    tid = obj["meta"]["theorem"]
    cx = obj["scalar"] == "complex"
    ops = {name: decode_matrix(m, cx) for name, m in obj["operators"].items()}
    family = decode_family(obj["members"], cx)
    if tid == "lem4.1":
        s = fusion_operator(family)
        return k_lower_bound(s, ops["K2"]), fusion_bounds(s)[1]
    if tid in ("thm4.4.1", "thm4.4.2", "thm4.4.3", "prop4.5"):
        s_v = fusion_operator(decode_family(obj["members_v"], cx))
        if tid == "thm4.4.3":
            return fusion_bounds(s_v)
        # thm4.4.1 without an operator targets K = S_V
        k = ops.get("K", s_v)
        return k_lower_bound(s_v, k), fusion_bounds(s_v)[1]
    if tid in ("thm3.4", "thm4.6", "thm4.7"):
        # every generated operator here is invertible, so the restriction
        # to range(K) is the whole space
        erased = set(obj["erased"])
        kept = [m for i, m in enumerate(family) if i not in erased]
        s_red = fusion_operator(kept)
        return k_lower_bound(s_red, ops["K"]), fusion_bounds(s_red)[1]
    return None


def perturbation_gap(k1, k2, a: float, b: float, f: np.ndarray) -> float:
    """||(K1 - K2)^* f|| - (a ||K1^* f|| + b ||K2^* f||); positive refutes."""
    lhs = np.linalg.norm((k1 - k2).conj().T @ f)
    rhs = a * np.linalg.norm(k1.conj().T @ f) + b * np.linalg.norm(k2.conj().T @ f)
    return float(lhs - rhs)


def additive_witness(k1: np.ndarray, k2: np.ndarray) -> tuple[np.ndarray, float]:
    """Witness f = K1^{-*} u1 and ||G|| for K2 = K1 (I + G).

    u1 is the top left singular vector of G = K1^{-1} K2 - I.  Then
    K1^* f = u1 and (K1 - K2)^* f = -G^* u1, of norm ||G||, so any constant
    a < ||G|| (with b = 0) fails at f by ||G|| - a.
    """
    n = k1.shape[0]
    g = np.linalg.solve(k1, k2) - np.eye(n)
    u, sv, _ = np.linalg.svd(g)
    f = np.linalg.solve(k1.conj().T, u[:, 0])
    return f, float(sv[0])


def values_agree(x: float, y: float, rel: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rel * max(abs(x), abs(y))


def brackets(predicted: tuple[float, float], actual: tuple[float, float],
             slack: float = 1e-8) -> bool:
    """predicted.lower <= actual.lower and actual.upper <= predicted.upper,
    each within the relative slack the checkers allow."""

    def leq(x: float, y: float) -> bool:
        if math.isinf(y):
            return x <= y
        return x <= y * (1.0 + slack)

    return leq(predicted[0], actual[0]) and leq(actual[1], predicted[1])
