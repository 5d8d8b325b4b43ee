"""Tests for K-relative frame bounds: the optimal lower bound, and
membership decided by its sign."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit._rng import gaussian_matrix, make_rng
from framekit.frame_core import (
    FrameBounds,
    WeightedSubspaceFamily,
    fusion_bounds,
)
from framekit.errors import DimensionMismatch
from framekit.kfusion import k_bounds, k_lower_bound
from framekit.numerics import Subspace, operator_norm
from oracles import douglas_check, from_span


def axis_subspace(ambient, index):
    e = np.zeros((ambient, 1))
    e[index, 0] = 1.0
    return from_span(e)


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

    def test_shape_mismatch_rejected(self):
        family = weighted_axes([1.0, 1.0])
        for call in (k_lower_bound, k_bounds):
            with pytest.raises(DimensionMismatch):
                call(family, np.eye(3))


class TestDecide:
    def test_membership_matches_douglas(self):
        for seed in range(10):
            ambient = 3 + seed % 3
            family = random_family(300 + seed, ambient, 2, seed % 2 == 0)
            k = gaussian_matrix(make_rng(seed), ambient, ambient, seed % 2 == 0)
            if seed % 3 == 0:
                # force a range leak: kill the family along one axis
                sw = family.fusion_operator
                vals, vecs = np.linalg.eigh(sw)
                family = WeightedSubspaceFamily(
                    ambient,
                    ((from_span(vecs[:, 1:]), 1.0),),
                )
            douglas = douglas_check(k, family.fusion_operator)
            assert (k_lower_bound(family, k) > 0.0) == douglas.range_included


def count_fusion_eighs(monkeypatch, family):
    """Record "eigh" or "eigvalsh" for each np.linalg call of that name
    made on the family's fusion operator."""
    sw = family.fusion_operator
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(m, *args, _name=name, _solve=getattr(np.linalg, name),
                    **kwargs):
            if np.array_equal(m, sw):
                calls.append(_name)
            return _solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestFusionEigReuse:
    def test_bounds_share_one_eigensolve(self, monkeypatch):
        family = random_family(8, 6, 5, complex_scalars=True)
        calls = count_fusion_eighs(monkeypatch, family)
        rng = make_rng(9)
        for _ in range(4):
            k_bounds(family, gaussian_matrix(rng, 6, 6, True))
        assert len(calls) == 1

    def test_bounds_read_one_eigh_of_the_fusion_operator(self, monkeypatch):
        family = random_family(8, 6, 5, complex_scalars=True)
        k = gaussian_matrix(make_rng(9), 6, 6, True)
        calls = count_fusion_eighs(monkeypatch, family)
        bounds = fusion_bounds(family)
        lower = k_lower_bound(family, k)
        assert k_bounds(family, k) == FrameBounds(lower, bounds.upper, "optimal")
        assert calls == ["eigh"]

    def test_drazin_check_eigendecomposes_the_family_once(self, monkeypatch):
        from framekit.instances import GenSpec, build_instance, check_instance

        inst = build_instance("lem3.2", GenSpec(11, 8, "drazin_core"))
        calls = count_fusion_eighs(monkeypatch, inst.family)
        assert check_instance(inst).passed
        assert len(calls) == 1
