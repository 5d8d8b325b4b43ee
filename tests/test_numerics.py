"""Tests for the numerical substrate: pseudoinverse, Drazin, Douglas,
optimal PSD scaling, and the projection commutation lemma."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit._rng import gaussian_matrix, make_rng
from framekit.errors import (
    DimensionMismatch,
    IllConditionedSplit,
    NonFinite,
    NotHermitian,
    OracleMismatch,
    NotPSD,
    NotSquare,
)
from framekit.numerics import (
    Subspace,
    _certify_psd_scale,
    as_matrix,
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
from oracles import douglas_check, from_span, psd_scale_bisection


def random_matrix(seed, rows, cols, complex_scalars=False, rank=None):
    rng = make_rng(seed)
    if rank is None:
        return gaussian_matrix(rng, rows, cols, complex_scalars)
    left = gaussian_matrix(rng, rows, rank, complex_scalars)
    right = gaussian_matrix(rng, rank, cols, complex_scalars)
    return left @ right


class TestPinv:
    def test_diagonal_example(self):
        got = pinv(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-15)

    def test_rectangular_transposes_shape(self):
        m = random_matrix(3, 5, 2)
        assert pinv(m).shape == (2, 5)

    def test_zero_matrix(self):
        assert not pinv(np.zeros((3, 4))).any()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 7),
        cols=st.integers(1, 7),
        complex_scalars=st.booleans(),
    )
    def test_penrose_identities(self, seed, rows, cols, complex_scalars):
        rank = min(rows, cols)
        if seed % 3 == 0 and rank > 1:
            rank -= 1
        m = random_matrix(seed, rows, cols, complex_scalars, rank=rank)
        d = pinv(m)
        scale = max(1.0, operator_norm(m)) * max(1.0, operator_norm(d))
        tol = 1e-10 * scale
        assert operator_norm(m @ d @ m - m) <= tol
        assert operator_norm(d @ m @ d - d) <= tol
        md = m @ d
        dm = d @ m
        assert operator_norm(md - md.conj().T) <= tol
        assert operator_norm(dm - dm.conj().T) <= tol

    def test_truncates_small_singular_values(self):
        m = np.diag([1.0, 1e-14])
        got = pinv(m)
        np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-12)


class TestDrazin:
    def test_invertible_gives_inverse(self):
        m = np.array([[2.0, 1.0], [0.0, 3.0]])
        s, index = drazin(m)
        assert index == 1
        np.testing.assert_allclose(s, np.linalg.inv(m), atol=1e-14)

    def test_idempotent_is_its_own_inverse(self):
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        s, index = drazin(m)
        assert index == 1
        np.testing.assert_allclose(s, m, atol=1e-13)

    def test_jordan_block_vanishes(self):
        s, index = drazin(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert index == 2
        assert not s.any()

    def test_zero_matrix(self):
        s, index = drazin(np.zeros((3, 3)))
        assert index == 1
        assert not s.any()

    def test_core_nilpotent_block(self):
        m = np.array([
            [2.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
        ])
        s, index = drazin(m)
        assert index == 2
        np.testing.assert_allclose(s, np.diag([0.5, 0.0, 0.0]), atol=1e-13)

    def test_coupled_block_satisfies_identities(self):
        # invertible core coupled into a nilpotent tail
        m = np.array([
            [1.5, 1.0, -2.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
        ])
        s, index = drazin(m)
        assert index == 2
        np.testing.assert_allclose(s @ m, m @ s, atol=1e-12)
        np.testing.assert_allclose(s @ m @ s, s, atol=1e-12)
        power = np.linalg.matrix_power(m, index)
        np.testing.assert_allclose(m @ s @ power, power, atol=1e-12)

    def test_ill_conditioned_split_raises(self):
        m = np.diag([1.0, 1.5e-10, 0.5e-10])
        with pytest.raises(IllConditionedSplit):
            drazin(m, tol=1e-10)

    def test_conjugated_known_index(self):
        rng = make_rng(99)
        block = np.zeros((5, 5), dtype=np.complex128)
        block[:2, :2] = np.array([[1.2, 0.3], [0.0, -0.8]])
        block[2:, 2:] = np.eye(3, 3, 1)
        g = gaussian_matrix(rng, 5, 5, False)
        v = np.eye(5) + 0.1 * g / operator_norm(g)
        m = v @ block @ np.linalg.inv(v)
        s, index = drazin(m, tol=1e-4)
        assert index == 3
        np.testing.assert_allclose(s @ m, m @ s, atol=1e-9)
        np.testing.assert_allclose(s @ m @ s, s, atol=1e-9)

    def test_rejects_rectangular(self):
        with pytest.raises(NotSquare):
            drazin(np.ones((2, 3)))


class TestDouglas:
    def test_factorization_found_when_included(self):
        rng = make_rng(5)
        t = gaussian_matrix(rng, 4, 3, False)
        ell = gaussian_matrix(rng, 3, 2, False)
        s = t @ ell
        report = douglas_check(s, t)
        assert report.range_included
        assert math.isfinite(report.alpha)
        np.testing.assert_allclose(t @ report.factor, s, atol=1e-10)

    def test_excluded_range_detected(self):
        t = np.array([[1.0], [0.0]])
        s = np.array([[0.0], [1.0]])
        report = douglas_check(s, t)
        assert not report.range_included
        assert report.alpha is None
        assert report.factor is None
        assert report.residual > 0.5

    def test_zero_map_trivially_included(self):
        report = douglas_check(np.zeros((3, 2)), np.eye(3))
        assert report.range_included
        assert report.alpha == 0.0

    def test_alpha_bounds_the_quadratic_form(self):
        rng = make_rng(17)
        t = gaussian_matrix(rng, 4, 4, True)
        s = t @ gaussian_matrix(rng, 4, 2, True)
        report = douglas_check(s, t)
        gap = hermitian_part(
            report.alpha * (t @ t.conj().T) - s @ s.conj().T
        )
        assert float(np.linalg.eigvalsh(gap)[0]) >= -1e-9 * report.alpha

    def test_row_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            douglas_check(np.ones((3, 1)), np.ones((4, 1)))


class TestMaxPsdScale:
    def test_hand_oracle(self):
        assert max_psd_scale(np.eye(2), np.diag([4.0, 0.0])) == pytest.approx(0.25)

    def test_zero_form_is_unbounded(self):
        assert math.isinf(max_psd_scale(np.eye(3), np.zeros((3, 3))))

    def test_empty_forms_are_unbounded(self):
        assert math.isinf(max_psd_scale(np.zeros((0, 0)), np.zeros((0, 0))))

    def test_range_leak_gives_zero(self):
        sw = np.diag([1.0, 0.0])
        g = np.diag([0.0, 1.0])
        assert max_psd_scale(sw, g) == 0.0

    @pytest.mark.parametrize("complex_scalars", [False, True])
    def test_full_rank_sw_runs_no_svd(self, monkeypatch, complex_scalars):
        # at full rank range(G) <= range(Sw) holds, so no leak is measured
        sw, g = psd_pencil(31, 16, complex_scalars, g_rank=4)
        calls = count_svds(monkeypatch)
        assert 0.0 < max_psd_scale(sw, g) < math.inf
        assert calls == []

    @pytest.mark.parametrize("complex_scalars", [False, True])
    def test_dense_leak_from_rank_deficient_sw_gives_zero(self, complex_scalars):
        sw, _ = psd_pencil(32, 8, complex_scalars, sw_rank=5)
        c = random_matrix(33, 8, 2, complex_scalars)
        assert max_psd_scale(sw, hermitian_part(c @ c.conj().T)) == 0.0

    def test_agrees_with_bisection_on_singular_pencils(self):
        sw = np.diag([3.0, 1.0, 0.0])
        g = np.diag([1.0, 2.0, 0.0])
        closed = max_psd_scale(sw, g)
        assert closed == pytest.approx(0.5)
        bis = psd_scale_bisection(sw, g)
        assert abs(closed - bis) <= 1e-8 * max(1.0, closed, bis)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            max_psd_scale(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            max_psd_scale(np.diag([1.0, -1.0]), np.eye(2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
    def test_result_is_maximal(self, seed, dim):
        rng = make_rng(seed)
        b = gaussian_matrix(rng, dim, dim, seed % 2 == 1)
        sw = hermitian_part(b @ b.conj().T)
        c = gaussian_matrix(rng, dim, max(1, dim - 1), seed % 2 == 1)
        g = hermitian_part(c @ c.conj().T)
        a = max_psd_scale(sw, g)
        if math.isinf(a):
            return
        slack = 1e-9 * max(1.0, operator_norm(sw))
        feasible = hermitian_part(sw - a * g)
        assert float(np.linalg.eigvalsh(feasible)[0]) >= -slack
        if a > 0.0:
            pushed = hermitian_part(sw - (a * (1.0 + 1e-6)) * g)
            assert float(np.linalg.eigvalsh(pushed)[0]) < slack


def psd_pencil(seed, dim, complex_scalars, sw_rank=None, g_rank=1):
    """Hermitian PSD Sw (rank ``sw_rank``, full by default) and G with
    range(G) inside range(Sw), so the optimal scale is finite and positive."""
    rng = make_rng(seed)
    b = gaussian_matrix(rng, dim, sw_rank or dim, complex_scalars)
    c = b @ gaussian_matrix(rng, b.shape[1], g_rank, complex_scalars)
    return hermitian_part(b @ b.conj().T), hermitian_part(c @ c.conj().T)


PENCILS = [
    pytest.param(seed, dim, cx, rank, id=f"{kind}-{'complex' if cx else 'real'}-{dim}")
    for kind, rank in (("regular", None), ("singular", 3))
    for cx in (False, True)
    for seed, dim in ((11, 4), (12, 8), (13, 16))
]


def certify(sw, g, a):
    _certify_psd_scale(sw, g, a, operator_norm(sw), float(np.linalg.eigvalsh(g)[-1]))


class TestCertifyPsdScale:
    @pytest.mark.parametrize("seed, dim, complex_scalars, sw_rank", PENCILS)
    def test_accepts_optimum_and_rejects_it_moved(self, seed, dim,
                                                  complex_scalars, sw_rank):
        sw, g = psd_pencil(seed, dim, complex_scalars, sw_rank, g_rank=2)
        # rescale G so the optimum is 5: a 1e-6 move is then 100 times
        # the certificate's 1e-8 resolution
        g = hermitian_part(g * (max_psd_scale(sw, g) / 5.0))
        best = psd_scale_bisection(sw, g)
        assert best == pytest.approx(5.0, rel=1e-9)
        certify(sw, g, best)
        for moved in (best * (1.0 + 1e-6), best * (1.0 - 1e-6)):
            with pytest.raises(OracleMismatch):
                certify(sw, g, moved)

    def test_tiny_optimum_skips_the_lower_test(self):
        # optimum 3e-9 lies below the resolution delta = 1e-8: the bisection
        # agrees with any value within delta, and so does the certificate
        sw = np.diag([3e-9, 1.0])
        g = np.diag([1.0, 0.0])
        best = max_psd_scale(sw, g)
        assert best == pytest.approx(3e-9, rel=1e-12)
        for claimed in (best, best * (1.0 + 1e-6), best * (1.0 - 1e-6), 9e-9):
            certify(sw, g, claimed)
        with pytest.raises(OracleMismatch):
            certify(sw, g, best + 2e-8)

    def test_max_psd_scale_raises_on_a_wrong_closed_form(self, monkeypatch):
        sw, g = psd_pencil(21, 6, True, g_rank=2)
        g = hermitian_part(g * max_psd_scale(sw, g))  # optimum 1
        eigh = np.linalg.eigh
        calls = []

        def skewed(m, *args, **kwargs):
            w, v = eigh(m, *args, **kwargs)
            calls.append(m.shape)
            # the first eigh call decomposes Sw, the second the pencil
            # compressed to range(Sw), whose top eigenvalue is the ratio
            return (w * (1.0 + 1e-6) if len(calls) == 2 else w), v

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(OracleMismatch):
            max_psd_scale(sw, g)
        assert calls == [(6, 6), (6, 6)]

    def test_eigensolve_count_is_constant(self, monkeypatch):
        sw, g = psd_pencil(5, 16, True, g_rank=4)
        counts = {"n": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                counts["n"] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        per_call = []
        for scale in (1e-6, 1.0, 1e6):
            counts["n"] = 0
            assert math.isfinite(max_psd_scale(sw, hermitian_part(scale * g)))
            per_call.append(counts["n"])
        # hermitian_eig(Sw), eigvalsh(G), the pencil on range(Sw) and one
        # stacked eigvalsh for both certificate tests
        assert per_call == [4] * 3

    def test_both_tests_share_one_stacked_eigensolve(self, monkeypatch):
        sw, g = psd_pencil(5, 16, True, g_rank=4)
        tiny_sw, tiny_g = np.diag([3e-9, 1.0]), np.diag([1.0, 0.0])
        # (Sw, G, optimum, ||Sw||, lambda_max(G)) before eigvalsh is recorded
        cases = [(m, h, max_psd_scale(m, h), operator_norm(m),
                  float(np.linalg.eigvalsh(h)[-1]))
                 for m, h in ((hermitian_part(sw), g), (tiny_sw, tiny_g))]
        solve = np.linalg.eigvalsh
        shapes = []

        def recorded(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        for case in cases:
            _certify_psd_scale(*case)
        # the optimum 3e-9 lies below delta = 1e-8, so the lower test is
        # skipped and the one call holds the upper form alone
        assert shapes == [(2, 16, 16), (1, 2, 2)]

    def test_max_psd_scale_builds_no_kernel_candidate(self, monkeypatch):
        # Sw has a kernel, so pencil() returns the top vector of G on it as
        # well; max_psd_scale reads the ratio alone and skips that eigh
        sw, g = np.diag([2.0, 1.0, 0.0]), np.diag([1.0, 0.0, 0.0])
        assert len(pencil(g, lambda: 1.0, hermitian_eig(sw))[1]) == 2
        eigh = np.linalg.eigh
        shapes = []

        def recorded(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        assert max_psd_scale(sw, g) == pytest.approx(2.0, rel=1e-12)
        # hermitian_eig(Sw) and the pencil compressed to range(Sw)
        assert shapes == [(3, 3), (2, 2)]


class TestQuadraticForms:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 32),
        n_cols=st.integers(1, 40),
        complex_scalars=st.booleans(),
    )
    def test_matches_the_three_operand_einsum(self, seed, dim, n_cols,
                                              complex_scalars):
        form = random_matrix(seed, dim, dim, complex_scalars)
        form = form + form.conj().T
        cols = random_matrix(seed + 1, dim, n_cols, complex_scalars)
        expected = np.einsum("ik,ij,jk->k", cols.conj(), form, cols).real
        got = quadratic_forms(form, cols)
        bound = 1e-12 * operator_norm(form) * np.sum(np.abs(cols) ** 2, axis=0)
        assert got.shape == (n_cols,)
        assert np.all(np.abs(got - expected) <= bound)
        # a stack of forms gives one row per form
        stacked = quadratic_forms(np.stack([form, -2.0 * form]), cols)
        assert stacked.shape == (2, n_cols)
        assert np.all(np.abs(stacked - [expected, -2.0 * expected]) <= 2.0 * bound)


class TestHermitianEig:
    def test_sorted_ascending(self):
        res = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_uses_hermitian_part_within_tolerance(self):
        m = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
        res = hermitian_eig(m)
        np.testing.assert_allclose(res.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_errors_name_the_argument(self):
        with pytest.raises(NotSquare, match="Sw"):
            max_psd_scale(np.ones((2, 3)), np.eye(2))
        with pytest.raises(NotHermitian, match="G"):
            max_psd_scale(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(NotPSD, match="G"):
            max_psd_scale(np.eye(2), np.diag([1.0, -1.0]))


def count_svds(monkeypatch):
    """Patch np.linalg.svd to record each call; returns the record."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestSubspace:
    def test_projector_idempotent(self):
        w = from_span(np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]]))
        p = projector(w)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)

    def test_range_basis_detects_rank(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert range_basis(m).dim == 1

    def test_range_basis_judges_rank_against_a_given_scale(self):
        tiny = 1e-12 * np.eye(3)[:, :2]
        # on its own scale a tiny image has full rank; against an operator
        # of norm 1 it is rounding noise
        assert range_basis(tiny).dim == 2
        assert range_basis(tiny, scale=1.0).dim == 0
        assert range_basis(np.eye(3), scale=0.0).dim == 0
        assert range_basis(np.zeros((3, 0)), scale=1.0).dim == 0
        # 1e-10 is kept against 0.5 but dropped against its own scale 2
        assert range_basis(np.diag([2.0, 1e-10, 0.0]), scale=0.5).dim == 2
        assert range_basis(np.diag([2.0, 1e-10, 0.0])).dim == 1

    @pytest.mark.parametrize("s, included, residual", [
        (np.array([[0.0], [1e-11]]), False, 1e-11),  # wholly outside span e1
        (np.zeros((2, 1)), True, 0.0),
    ])
    def test_range_inclusion_floor_scales_with_s(self, s, included, residual):
        # an absolute floor of 1e-10 called any S of norm below it included
        e1 = np.eye(2)[:, :1]
        assert range_inclusion(s, e1) == (included, pytest.approx(residual, rel=1e-12))

    def test_rejects_skewed_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    @staticmethod
    def drifted_basis(drift):
        # B*B - I = diag(drift, 0, 0): Frobenius and spectral norm both drift
        b = np.eye(6)[:, :3]
        b[:, 0] *= math.sqrt(1.0 + drift)
        return b

    @pytest.mark.parametrize("drift", [0.45e-12, 0.9e-12])
    def test_accepts_drift_up_to_the_tolerance(self, drift):
        assert Subspace(6, self.drifted_basis(drift)).dim == 3

    def test_rejects_drift_just_over_the_tolerance(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(6, self.drifted_basis(1.1e-12))

    @pytest.mark.parametrize("drift,svds", [(0.45e-12, 0), (0.9e-12, 1)])
    def test_svd_only_above_the_frobenius_threshold(self, monkeypatch,
                                                    drift, svds):
        calls = count_svds(monkeypatch)
        Subspace(6, self.drifted_basis(drift))
        assert len(calls) == svds

    @pytest.mark.parametrize("complex_scalars", [False, True])
    def test_orthonormal_basis_needs_no_svd(self, monkeypatch, complex_scalars):
        q, _ = np.linalg.qr(
            random_matrix(17, 32, 32, complex_scalars=complex_scalars)
        )
        calls = count_svds(monkeypatch)
        assert Subspace(32, q).dim == 32
        assert calls == []

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("coerce, value", [
        (as_matrix, np.array([[np.inf, 0.0], [0.0, 1.0]])),
        (as_matrix, np.array([[1.0, np.nan]])),
    ])
    def test_nonfinite_is_a_framekit_error(self, coerce, value):
        # the CLI maps every FramekitError to exit 3 without a traceback
        with pytest.raises(NonFinite, match="non-finite entries"):
            coerce(value)
