"""Tests for vector frames, weighted subspace families, and the fusion
analysis/synthesis/reconstruction pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit._rng import gaussian_matrix, make_rng, standard_normal
from framekit.errors import (
    BlockOutsideSubspace,
    DeficientLocalFrame,
    DimensionMismatch,
    LocalVectorOutsideSubspace,
    NotAFusionFrame,
)
from framekit.frame_core import (
    BlockVector,
    FrameBounds,
    VectorFrame,
    WeightedSubspaceFamily,
    frame_bounds,
    frame_operator,
    fusion_analysis,
    fusion_bounds,
    fusion_operator,
    fusion_synthesis,
    fusion_synthesis_matrix,
    lift_local_frames,
    reconstruct,
)
from framekit.numerics import Subspace, operator_norm


def axis_subspace(ambient, index):
    e = np.zeros((ambient, 1))
    e[index, 0] = 1.0
    return Subspace.from_span(e)


def random_family(seed, ambient, n_members, complex_scalars=False):
    rng = make_rng(seed)
    members = []
    for _ in range(n_members):
        dim = int(rng.integers(1, ambient + 1))
        q, _ = np.linalg.qr(gaussian_matrix(rng, ambient, dim, complex_scalars))
        weight = float(rng.uniform(0.5, 2.0))
        members.append((Subspace(ambient, q[:, :dim]), weight))
    return WeightedSubspaceFamily(ambient, tuple(members))


class TestVectorFrame:
    def test_mercedes_like_bounds(self):
        # {e1, e2, e1+e2}: frame operator [[2,1],[1,2]], spectrum {1, 3}
        frame = VectorFrame(2, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        bounds = frame_bounds(frame)
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper == pytest.approx(3.0, abs=1e-12)
        assert bounds.is_frame()

    def test_parseval_axes(self):
        frame = VectorFrame(3, np.eye(3))
        np.testing.assert_allclose(frame_operator(frame), np.eye(3), atol=1e-15)
        bounds = frame_bounds(frame)
        assert bounds.lower == pytest.approx(1.0)
        assert bounds.upper == pytest.approx(1.0)

    def test_deficient_frame_detected(self):
        frame = VectorFrame(3, np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        assert not frame_bounds(frame).is_frame()

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            VectorFrame(3, np.eye(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VectorFrame(3, np.zeros((0, 3)))


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
            fusion_operator(family), np.diag([4.0, 9.0]), atol=1e-15
        )
        bounds = fusion_bounds(family)
        assert bounds.lower == pytest.approx(4.0)
        assert bounds.upper == pytest.approx(9.0)

    def test_synthesis_matrix_factorizes_operator(self):
        family = random_family(7, 5, 4, complex_scalars=True)
        t = fusion_synthesis_matrix(family)
        np.testing.assert_allclose(
            t @ t.conj().T, fusion_operator(family), atol=1e-12
        )

    def test_overlapping_members_add(self):
        w = Subspace.from_span(np.array([[1.0], [0.0]]))
        family = WeightedSubspaceFamily(2, ((w, 1.0), (w, 1.0)))
        np.testing.assert_allclose(
            fusion_operator(family), np.diag([2.0, 0.0]), atol=1e-15
        )

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightedSubspaceFamily(2, ((axis_subspace(2, 0), 0.0),))

    def test_member_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            WeightedSubspaceFamily(3, ((axis_subspace(2, 0), 1.0),))

    def test_built_once_per_family(self):
        family = random_family(3, 4, 3)
        assert fusion_operator(family) is fusion_operator(family)

    def test_cached_operator_is_read_only(self):
        op = fusion_operator(random_family(4, 3, 2, complex_scalars=True))
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
        with pytest.raises(ValueError):
            op += 1.0

    def test_spectrum_computed_once_and_read_only(self, monkeypatch):
        family = random_family(5, 4, 3, complex_scalars=True)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m):
            calls.append(m)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        first, second = fusion_bounds(family), fusion_bounds(family)
        assert len(calls) == 1 and first == second
        w = family.fusion_spectrum
        assert np.array_equal(w, eigvalsh(fusion_operator(family)))
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
        w, v = eigh(fusion_operator(family))
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
            fusion_operator(family), expected, rtol=0.0, atol=1e-12
        )


class TestAnalysisSynthesis:
    def test_analysis_blocks_live_in_subspaces(self):
        family = random_family(11, 4, 3)
        f = standard_normal(make_rng(5), 4)
        g = fusion_analysis(family, f)
        for (s, w), block in zip(family.members, g.blocks):
            inside = s.basis @ (s.basis.conj().T @ block)
            np.testing.assert_allclose(block, inside, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        complex_scalars=st.booleans(),
    )
    def test_synthesis_adjoint_to_analysis(self, seed, complex_scalars):
        family = random_family(seed, 4, 3, complex_scalars)
        rng = make_rng(seed + 1)
        f = gaussian_matrix(rng, 4, 1, complex_scalars)[:, 0]
        # arbitrary admissible blocks: project random vectors into each W_i
        blocks = []
        for s, _ in family.members:
            raw = gaussian_matrix(rng, 4, 1, complex_scalars)[:, 0]
            blocks.append(s.basis @ (s.basis.conj().T @ raw))
        g = BlockVector(tuple(blocks))
        lhs = complex(np.vdot(fusion_synthesis(family, g), f))
        rhs = sum(
            complex(np.vdot(block, w * (s.basis @ (s.basis.conj().T @ f))))
            for (s, w), block in zip(family.members, g.blocks)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_synthesis_rejects_block_outside_subspace(self):
        family = WeightedSubspaceFamily(2, ((axis_subspace(2, 0), 1.0),))
        stray = BlockVector((np.array([0.0, 1.0]),))
        with pytest.raises(BlockOutsideSubspace):
            fusion_synthesis(family, stray)

    def test_synthesis_rejects_wrong_block_count(self):
        family = WeightedSubspaceFamily(2, ((axis_subspace(2, 0), 1.0),))
        g = BlockVector((np.zeros(2), np.zeros(2)))
        with pytest.raises(DimensionMismatch):
            fusion_synthesis(family, g)

    def test_block_norm(self):
        g = BlockVector((np.array([3.0, 0.0]), np.array([0.0, 4.0])))
        assert g.norm() == pytest.approx(5.0)


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
        with pytest.raises(NotAFusionFrame):
            reconstruct(family, g)


class TestLiftLocalFrames:
    def test_orthonormal_locals_reproduce_fusion_operator(self):
        family = random_family(42, 5, 3)
        locals_ = [
            VectorFrame(5, s.basis.T.conj()) for s, _ in family.members
        ]
        lifted = lift_local_frames(family, locals_)
        np.testing.assert_allclose(
            frame_operator(lifted), fusion_operator(family), atol=1e-12
        )

    def test_redundant_locals_change_operator_but_stay_frames(self):
        w = Subspace.from_span(np.array([[1.0], [0.0]]))
        family = WeightedSubspaceFamily(2, ((w, 2.0),))
        local = VectorFrame(2, np.array([[1.0, 0.0], [1.0, 0.0]]))
        lifted = lift_local_frames(family, [local])
        # two copies of 2*e1: operator diag(8, 0)
        np.testing.assert_allclose(
            frame_operator(lifted), np.diag([8.0, 0.0]), atol=1e-15
        )

    def test_vector_outside_subspace_rejected(self):
        w = Subspace.from_span(np.array([[1.0], [0.0]]))
        family = WeightedSubspaceFamily(2, ((w, 1.0),))
        local = VectorFrame(2, np.array([[1.0, 0.5]]))
        with pytest.raises(LocalVectorOutsideSubspace):
            lift_local_frames(family, [local])

    def test_non_spanning_local_rejected(self):
        w = Subspace.from_span(np.eye(2))
        family = WeightedSubspaceFamily(2, ((w, 1.0),))
        local = VectorFrame(2, np.array([[1.0, 0.0]]))
        with pytest.raises(DeficientLocalFrame):
            lift_local_frames(family, [local])

    def test_count_mismatch_rejected(self):
        family = random_family(3, 4, 2)
        with pytest.raises(DimensionMismatch):
            lift_local_frames(family, [])
