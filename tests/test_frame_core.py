"""Tests for weighted subspace families, their fusion operator and bounds,
and the analysis/reconstruction pair on the synthesis matrix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit._rng import gaussian_matrix, make_rng
from framekit.errors import DimensionMismatch
from framekit.frame_core import (
    FrameBounds,
    WeightedSubspaceFamily,
    fusion_bounds,
    fusion_synthesis_matrix,
)
from framekit.numerics import Subspace
from oracles import from_span, fusion_analysis, reconstruct


def axis_subspace(ambient, index):
    e = np.zeros((ambient, 1))
    e[index, 0] = 1.0
    return from_span(e)


def random_family(seed, ambient, n_members, complex_scalars=False):
    rng = make_rng(seed)
    members = []
    for _ in range(n_members):
        dim = int(rng.integers(1, ambient + 1))
        q, _ = np.linalg.qr(gaussian_matrix(rng, ambient, dim, complex_scalars))
        weight = float(rng.uniform(0.5, 2.0))
        members.append((Subspace(ambient, q[:, :dim]), weight))
    return WeightedSubspaceFamily(ambient, tuple(members))


class TestFrameBounds:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FrameBounds(1.0, 2.0, "guessed")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FrameBounds(-0.1, 2.0)

    def test_infinite_lower_counts_as_frame(self):
        # +inf lower bound is the vacuous-inequality sentinel
        assert FrameBounds(math.inf, 2.0).is_frame()


class TestFusionOperator:
    def test_orthogonal_axes_with_weights(self):
        family = WeightedSubspaceFamily(
            2, ((axis_subspace(2, 0), 2.0), (axis_subspace(2, 1), 3.0))
        )
        np.testing.assert_allclose(
            family.fusion_operator, np.diag([4.0, 9.0]), atol=1e-15
        )
        bounds = fusion_bounds(family)
        assert bounds.lower == pytest.approx(4.0)
        assert bounds.upper == pytest.approx(9.0)

    def test_synthesis_matrix_factorizes_operator(self):
        family = random_family(7, 5, 4, complex_scalars=True)
        t = fusion_synthesis_matrix(family)
        np.testing.assert_allclose(
            t @ t.conj().T, family.fusion_operator, atol=1e-12
        )

    def test_overlapping_members_add(self):
        w = from_span(np.array([[1.0], [0.0]]))
        family = WeightedSubspaceFamily(2, ((w, 1.0), (w, 1.0)))
        np.testing.assert_allclose(
            family.fusion_operator, np.diag([2.0, 0.0]), atol=1e-15
        )

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightedSubspaceFamily(2, ((axis_subspace(2, 0), 0.0),))

    def test_member_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            WeightedSubspaceFamily(3, ((axis_subspace(2, 0), 1.0),))

    def test_built_once_per_family(self):
        family = random_family(3, 4, 3)
        assert family.fusion_operator is family.fusion_operator

    def test_cached_operator_is_read_only(self):
        op = random_family(4, 3, 2, complex_scalars=True).fusion_operator
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
        with pytest.raises(ValueError):
            op += 1.0

    def test_spectrum_computed_once_and_read_only(self, monkeypatch):
        # the bounds read fusion_eig's eigenvalues: one eigh, no eigvalsh
        family = random_family(5, 4, 3, complex_scalars=True)
        calls = []
        eigh = np.linalg.eigh
        for name in ("eigh", "eigvalsh"):
            def counted(m, *args, _name=name, _solve=getattr(np.linalg, name),
                        **kwargs):
                calls.append(_name)
                return _solve(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        first, second = fusion_bounds(family), fusion_bounds(family)
        assert calls == ["eigh"] and first == second
        w = family.fusion_eig.eigenvalues
        assert np.array_equal(w, eigh(family.fusion_operator)[0])
        assert (first.lower, first.upper) == (max(w[0], 0.0), w[-1])
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_eigendecomposition_computed_once_and_read_only(self, monkeypatch):
        family = random_family(6, 5, 3, complex_scalars=True)
        calls = []
        eigh = np.linalg.eigh

        def counted(m):
            calls.append(m)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        eig = family.fusion_eig
        assert family.fusion_eig is eig and len(calls) == 1
        w, v = eigh(family.fusion_operator)
        assert np.array_equal(eig.eigenvalues, w)
        assert np.array_equal(eig.eigenvectors, v)
        for part in (eig.eigenvalues, eig.eigenvectors):
            with pytest.raises(ValueError):
                part[0] = 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ambient=st.integers(1, 6),
        n_members=st.integers(1, 5),
        complex_scalars=st.booleans(),
    )
    def test_cached_operator_matches_members(self, seed, ambient, n_members,
                                             complex_scalars):
        family = random_family(seed, ambient, n_members, complex_scalars)
        expected = sum(
            (w * w) * (s.basis @ s.basis.conj().T) for s, w in family.members
        )
        np.testing.assert_allclose(
            family.fusion_operator, expected, rtol=0.0, atol=1e-12
        )


class TestAnalysisSynthesis:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        complex_scalars=st.booleans(),
    )
    def test_analysis_energy_is_the_fusion_form(self, seed, complex_scalars):
        # ||T* f||^2 = <f, T T* f> = <f, S_W f>
        family = random_family(seed, 4, 3, complex_scalars)
        f = gaussian_matrix(make_rng(seed + 1), 4, 1, complex_scalars)[:, 0]
        coeffs = fusion_analysis(family, f)
        energy = float(np.vdot(f, family.fusion_operator @ f).real)
        assert float(np.vdot(coeffs, coeffs).real) == pytest.approx(
            energy, rel=1e-10, abs=1e-12)

    def test_wrong_lengths_rejected(self):
        # a fusion frame of R^2 with one coefficient per axis
        family = WeightedSubspaceFamily(
            2, ((axis_subspace(2, 0), 2.0), (axis_subspace(2, 1), 3.0))
        )
        assert reconstruct(family, [2.0, 3.0]) == pytest.approx([1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            fusion_analysis(family, np.zeros(3))
        with pytest.raises(DimensionMismatch):
            reconstruct(family, np.zeros(3))


class TestReconstruction:
    def test_round_trip_on_random_frames(self):
        for seed in range(8):
            family = random_family(100 + seed, 5, 4, seed % 2 == 0)
            if not fusion_bounds(family).is_frame():
                continue
            f = gaussian_matrix(make_rng(seed), 5, 1, seed % 2 == 0)[:, 0]
            recovered = reconstruct(family, fusion_analysis(family, f))
            err = float(np.linalg.norm(recovered - f))
            assert err <= 1e-10 * (1.0 + float(np.linalg.norm(f)))

    def test_non_frame_rejected(self):
        family = WeightedSubspaceFamily(2, ((axis_subspace(2, 0), 1.0),))
        g = fusion_analysis(family, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            reconstruct(family, g)
