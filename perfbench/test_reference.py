"""Tests of the reference computations on hand-computable cases.

    python3 -m pytest perfbench/test_reference.py -q
"""

import math

import numpy as np
import pytest

import reference


def axis(n, j):
    e = np.zeros((n, 1), dtype=complex)
    e[j, 0] = 1.0
    return e


def test_augmented_parseval_erasure_leaves_identity():
    # acceptance pinpoint 1: erasing the spare member of {e1, e2, (e1, 1/2)}
    # leaves S = I, so lower and upper bound are both exactly 1
    family = [(axis(2, 0), 1.0), (axis(2, 1), 1.0), (axis(2, 0), 0.5)]
    s_red = reference.fusion_operator(family[:2])
    assert reference.k_lower_bound(s_red, np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    assert reference.fusion_bounds(s_red) == pytest.approx((1.0, 1.0), abs=1e-12)
    s_full = reference.fusion_operator(family)
    assert reference.fusion_bounds(s_full) == pytest.approx((1.0, 1.25), abs=1e-12)


def test_weighted_axes_bounds():
    # acceptance pinpoint 2: weights 1 and 2 on the axes give (A, B) = (1, 4)
    s = reference.fusion_operator([(axis(2, 0), 1.0), (axis(2, 1), 2.0)])
    assert reference.fusion_bounds(s) == pytest.approx((1.0, 4.0), abs=1e-12)


def test_halved_operator_lower_bound():
    # acceptance pinpoint 3: S = I and K = I/2 give the largest a with
    # a/4 <= 1, so a = 4
    s = reference.fusion_operator([(axis(2, 0), 1.0), (axis(2, 1), 1.0)])
    assert reference.k_lower_bound(s, 0.5 * np.eye(2)) == pytest.approx(4.0, abs=1e-12)


def test_pencil_matches_hand_value_off_diagonal():
    # S = diag(1, 4), K K^* = [[1, 1], [1, 1]]: S - a K K^* >= 0 iff
    # (1 - a)(4 - a) - a^2 >= 0 with a <= 1, i.e. a <= 4/5
    s = reference.fusion_operator([(axis(2, 0), 1.0), (axis(2, 1), 2.0)])
    k = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert reference.k_lower_bound(s, k) == pytest.approx(0.8, rel=1e-12)


def test_zero_operator_is_vacuous():
    s = np.eye(3, dtype=complex)
    assert math.isinf(reference.k_lower_bound(s, np.zeros((3, 3))))


def test_singular_family_is_refused():
    s = reference.fusion_operator([(axis(2, 0), 1.0)])
    with pytest.raises(ValueError):
        reference.k_lower_bound(s, np.eye(2))


def test_additive_witness_refutes_understated_constant():
    # K1 = I, G = diag(0.5, 0.1): the witness is e1, where the perturbation
    # has norm 0.5, so a = 0.4 fails there by 0.1 and a = 0.5 holds
    k1 = np.eye(2, dtype=complex)
    k2 = k1 @ (np.eye(2) + np.diag([0.5, 0.1]))
    f, g_norm = reference.additive_witness(k1, k2)
    assert g_norm == pytest.approx(0.5, rel=1e-12)
    assert abs(abs(f[0]) - 1.0) < 1e-12 and abs(f[1]) < 1e-12
    assert reference.perturbation_gap(k1, k2, 0.4, 0.0, f) == pytest.approx(0.1, rel=1e-9)
    assert reference.perturbation_gap(k1, k2, 0.5, 0.0, f) <= 1e-12


def test_additive_witness_with_general_k1():
    rng = np.random.default_rng(3)
    k1 = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    g = 0.1 * rng.standard_normal((4, 4))
    k2 = k1 @ (np.eye(4) + g)
    f, g_norm = reference.additive_witness(k1, k2)
    assert g_norm == pytest.approx(np.linalg.norm(g, 2), rel=1e-10)
    gap = reference.perturbation_gap(k1, k2, 0.8 * g_norm, 0.0, f)
    assert gap == pytest.approx(0.2 * g_norm, rel=1e-8)


def test_brackets_handles_vacuous_bounds():
    assert reference.brackets((1.0, 5.0), (1.0, 5.0))
    assert reference.brackets((math.inf, 2.0), (math.inf, 1.0))
    assert not reference.brackets((math.inf, 2.0), (3.0, 1.0))
    assert not reference.brackets((1.0, 2.0), (0.5, 1.0))
    assert not reference.brackets((0.5, 2.0), (1.0, 2.1))


def test_decode_matrix_reads_complex_pairs():
    m = reference.decode_matrix([[[1.0, 2.0], [0.0, -1.0]]], True)
    assert m.tolist() == [[1 + 2j, -1j]]
    assert reference.decode_matrix([[1.0, 2.0]], False).tolist() == [[1 + 0j, 2 + 0j]]
