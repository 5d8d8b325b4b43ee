"""Tests for K-relative frame decisions: optimal lower bound, membership,
and the sampled verification report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit._rng import gaussian_matrix, make_rng
from framekit.frame_core import WeightedSubspaceFamily, fusion_bounds, fusion_operator
from framekit.kfusion import decide, k_lower_bound, verify_k_fusion
from framekit.numerics import Subspace, douglas_check, operator_norm


def axis_subspace(ambient, index):
    e = np.zeros((ambient, 1))
    e[index, 0] = 1.0
    return Subspace.from_span(e)


def weighted_axes(weights):
    n = len(weights)
    return WeightedSubspaceFamily(
        n, tuple((axis_subspace(n, i), w) for i, w in enumerate(weights))
    )


def random_family(seed, ambient, n_members, complex_scalars=False):
    rng = make_rng(seed)
    members = []
    for _ in range(n_members):
        dim = int(rng.integers(1, ambient + 1))
        q, _ = np.linalg.qr(gaussian_matrix(rng, ambient, dim, complex_scalars))
        members.append((Subspace(ambient, q[:, :dim]), float(rng.uniform(0.5, 2.0))))
    return WeightedSubspaceFamily(ambient, tuple(members))


class TestKLowerBound:
    def test_diagonal_hand_oracle(self):
        # S_W = diag(4, 9), K K* = diag(1, 1): largest a is min eigenvalue 4
        family = weighted_axes([2.0, 3.0])
        assert k_lower_bound(family, np.eye(2)) == pytest.approx(4.0, rel=1e-12)

    def test_partial_operator(self):
        # K = P_{e1}: only the first diagonal entry of S_W matters
        family = weighted_axes([2.0, 3.0])
        assert k_lower_bound(family, np.diag([1.0, 0.0])) == pytest.approx(
            4.0, rel=1e-12)

    def test_zero_operator_is_vacuous(self):
        assert math.isinf(k_lower_bound(weighted_axes([1.0, 1.0]), np.zeros((2, 2))))

    def test_range_leak_gives_exact_zero(self):
        # S_W lives on e1 only; K reaches e2
        family = WeightedSubspaceFamily(2, ((axis_subspace(2, 0), 1.0),))
        assert k_lower_bound(family, np.eye(2)) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.25, 4.0),
    )
    def test_scaling_law(self, seed, scale):
        family = random_family(seed, 4, 3)
        k = gaussian_matrix(make_rng(seed + 7), 4, 4, False)
        base = k_lower_bound(family, k)
        scaled = k_lower_bound(family, scale * k)
        assert scaled == pytest.approx(base / scale**2, rel=1e-8)

    def test_fusion_frame_bound_floor(self):
        # a K K* <= S_W certainly holds for a = lambda_min(S_W) / ||K||^2
        for seed in range(6):
            family = random_family(200 + seed, 4, 4, seed % 2 == 0)
            bounds = fusion_bounds(family)
            if not bounds.is_frame():
                continue
            k = gaussian_matrix(make_rng(seed), 4, 4, seed % 2 == 0)
            floor = bounds.lower / operator_norm(k) ** 2
            got = k_lower_bound(family, k)
            assert got >= floor * (1.0 - 1e-10)


class TestDecide:
    def test_membership_matches_douglas(self):
        for seed in range(10):
            ambient = 3 + seed % 3
            family = random_family(300 + seed, ambient, 2, seed % 2 == 0)
            k = gaussian_matrix(make_rng(seed), ambient, ambient, seed % 2 == 0)
            if seed % 3 == 0:
                # force a range leak: kill the family along one axis
                sw = fusion_operator(family)
                vals, vecs = np.linalg.eigh(sw)
                family = WeightedSubspaceFamily(
                    ambient,
                    ((Subspace.from_span(vecs[:, 1:]), 1.0),),
                )
            verdict = decide(family, k)
            sw = fusion_operator(family)
            douglas = douglas_check(k, sw)
            assert verdict.is_k_fusion == douglas.range_included
            assert (verdict.bounds.lower > 0.0) == douglas.range_included

    def test_witness_lies_in_null_space(self):
        # dim-3 family spanning only e1, e2; K = I leaks along e3
        family = WeightedSubspaceFamily(
            3, ((axis_subspace(3, 0), 1.0), (axis_subspace(3, 1), 1.0))
        )
        verdict = decide(family, np.eye(3))
        assert not verdict.is_k_fusion
        assert verdict.bounds.lower == 0.0
        w = verdict.witness
        assert w is not None
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        # witness carries no fusion energy but full K*-energy
        sw = fusion_operator(family)
        assert float((w.conj() @ sw @ w).real) < 1e-12
        assert abs(w[2]) == pytest.approx(1.0, abs=1e-10)

    def test_member_has_no_witness(self):
        verdict = decide(weighted_axes([1.0, 1.0]), np.eye(2))
        assert verdict.is_k_fusion
        assert verdict.witness is None

    def test_zero_operator_member_without_witness(self):
        verdict = decide(weighted_axes([1.0, 1.0]), np.zeros((2, 2)))
        assert verdict.is_k_fusion
        assert math.isinf(verdict.bounds.lower)
        assert verdict.witness is None


class TestVerify:
    def test_optimal_bounds_hold_on_samples(self):
        for seed in range(6):
            family = random_family(400 + seed, 5, 3, seed % 2 == 0)
            k = gaussian_matrix(make_rng(seed), 5, 5, seed % 2 == 0)
            verdict = decide(family, k)
            report = verify_k_fusion(
                family,
                k,
                verdict.bounds.lower,
                verdict.bounds.upper,
                n_samples=200,
                seed=seed,
            )
            assert report.worst_lower_margin >= -1e-9
            assert report.worst_upper_margin >= -1e-9
            assert report.n_evaluated == 200 + 2 * 5

    def test_overstated_lower_bound_flagged(self):
        family = weighted_axes([2.0, 3.0])
        report = verify_k_fusion(family, np.eye(2), 4.5, 9.0, n_samples=50, seed=1)
        # e1 has S_W-energy 4 < 4.5: eigenvector probe catches it
        assert report.worst_lower_margin < -0.4

    def test_infinite_lower_is_vacuous(self):
        report = verify_k_fusion(weighted_axes([1.0, 1.0]), np.zeros((2, 2)),
                                 math.inf, 1.0, n_samples=20, seed=0)
        assert report.worst_lower_margin >= 0.0
        assert report.worst_upper_margin >= -1e-12

    def test_shape_mismatch_rejected(self):
        from framekit.errors import DimensionMismatch

        family = weighted_axes([1.0, 1.0])
        for call in (k_lower_bound, decide,
                     lambda fam, k: verify_k_fusion(fam, k, 1.0, 1.0)):
            with pytest.raises(DimensionMismatch):
                call(family, np.eye(3))


def count_fusion_eighs(monkeypatch, family):
    """Count np.linalg.eigh calls made on the family's fusion operator."""
    sw = fusion_operator(family)
    calls = []
    eigh = np.linalg.eigh

    def counted(m, *args, **kwargs):
        if np.array_equal(m, sw):
            calls.append(m)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestFusionEigReuse:
    def test_bounds_and_verification_share_one_eigensolve(self, monkeypatch):
        family = random_family(8, 6, 5, complex_scalars=True)
        calls = count_fusion_eighs(monkeypatch, family)
        rng = make_rng(9)
        for _ in range(4):
            k = gaussian_matrix(rng, 6, 6, True)
            lower = k_lower_bound(family, k)
        verify_k_fusion(family, k, lower, fusion_bounds(family).upper, seed=3)
        assert len(calls) == 1

    def test_drazin_check_eigendecomposes_the_family_once(self, monkeypatch):
        from framekit.instances import GenSpec, build_instance, check_instance

        inst = build_instance("lem3.2", GenSpec(11, 8, "drazin_core"))
        calls = count_fusion_eighs(monkeypatch, inst.family)
        assert check_instance(inst).passed
        assert len(calls) == 1
