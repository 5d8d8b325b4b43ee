"""Tests for the bound-transfer checkers.

Each checker gets a small fixture whose predicted and actual bounds were
worked out by hand, followed by rejection tests for broken hypotheses and
a few randomized bracketing sweeps with certified constants.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_suite_bytes import near_miss

import framekit.numerics
import framekit.theorems
from framekit._rng import gaussian_matrix, make_rng, random_unit_vectors
from framekit.errors import (
    AdmissibilityFailed,
    DimensionMismatch,
    HypothesisFailed,
    OracleMismatch,
    ZeroDrazin,
)
from framekit.frame_core import WeightedSubspaceFamily, fusion_bounds, fusion_operator
from framekit.instances import GenSpec, build_instance, check_instance
from framekit.kfusion import k_lower_bound
from framekit.numerics import (
    Subspace,
    hermitian_eig,
    hermitian_part,
    projector,
    psd_scale_bisection,
    quadratic_forms,
)
from framekit.theorems import (
    GRID_SAMPLES,
    PerturbationConstants,
    _exact_hypothesis,
    _grid,
    _member_diffs,
    _member_energies,
    _side_norms,
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


def axis_subspace(ambient, index):
    e = np.zeros((ambient, 1))
    e[index, 0] = 1.0
    return Subspace.from_span(e)


def weighted_axes(weights, ambient=None):
    n = ambient or len(weights)
    return WeightedSubspaceFamily(
        n, tuple((axis_subspace(n, i % n), w) for i, w in enumerate(weights))
    )


def random_spanning_family(seed, ambient, extra=2, complex_scalars=False):
    rng = make_rng(seed)
    members = []
    for _ in range(ambient + extra):
        dim = int(rng.integers(1, ambient))
        q, _ = np.linalg.qr(gaussian_matrix(rng, ambient, dim, complex_scalars))
        members.append((Subspace(ambient, q[:, :dim]), float(rng.uniform(0.7, 1.6))))
    return WeightedSubspaceFamily(ambient, tuple(members))


class TestImageUnderK:
    def fixture(self):
        return weighted_axes([2.0, 3.0]), np.diag([1.0, 0.0])

    def test_hand_oracle(self):
        # S_W = diag(4,9); K = P_e1 annihilates the second member, so the
        # image family is {(e1, 2), (0, 3)} with optimal K-bounds (4, 4)
        report = check_image_under_k(*self.fixture(), seed=3)
        assert report.passed
        assert report.theorem_id == "thm3.1"
        assert report.seed == 3
        assert report.predicted.lower == pytest.approx(4.0, rel=1e-12)
        assert report.predicted.upper == pytest.approx(9.0, rel=1e-12)
        assert report.actual.lower == pytest.approx(4.0, rel=1e-12)
        assert report.actual.upper == pytest.approx(4.0, rel=1e-12)
        assert report.residuals["idempotency"] <= 1e-15
        assert report.residuals["image_containment"] <= 1e-12

    def test_identity_operator_is_exact(self):
        family = random_spanning_family(5, 4)
        report = check_image_under_k(family, np.eye(4))
        assert report.passed
        assert report.predicted.lower == pytest.approx(report.actual.lower)

    def test_non_idempotent_rejected(self):
        with pytest.raises(HypothesisFailed):
            check_image_under_k(weighted_axes([1.0, 1.0]), 1.5 * np.diag([1.0, 0.0]))

    def test_range_leak_rejected(self):
        # family misses e2 entirely, K = I reaches it
        family = WeightedSubspaceFamily(2, ((axis_subspace(2, 0), 1.0),))
        with pytest.raises(HypothesisFailed):
            check_image_under_k(family, np.eye(2))


class TestDrazinCompositions:
    def test_hand_oracle(self):
        # S_W = I; K = diag(2,0) has Drazin inverse diag(1/2,0), index 1.
        # A_K = 1/4, ||S|| = 1/2: predicted lowers 4, 1, 1 all exact.
        family = weighted_axes([1.0, 1.0])
        report = check_drazin(family, np.diag([2.0, 0.0]))
        assert report.passed
        assert report.theorem_id == "lem3.2"
        assert report.notes["drazin_index"] == 1
        assert report.notes["s_norm"] == pytest.approx(0.5, rel=1e-12)
        ids = [p.theorem_id for p in report.parts]
        assert ids == ["lem3.2:sks", "lem3.2:sk", "lem3.2:ks"]
        expect = {"lem3.2:sks": 4.0, "lem3.2:sk": 1.0, "lem3.2:ks": 1.0}
        for part in report.parts:
            assert part.passed
            assert part.predicted.lower == pytest.approx(
                expect[part.theorem_id], rel=1e-10
            )
            assert part.actual.lower == pytest.approx(
                expect[part.theorem_id], rel=1e-10
            )
            assert part.predicted.upper == pytest.approx(1.0)
        assert max(report.residuals.values()) <= 1e-12

    def test_invertible_operator(self):
        family = random_spanning_family(9, 4)
        k = gaussian_matrix(make_rng(2), 4, 4, False)
        k += 3.0 * np.eye(4)  # keep it comfortably invertible
        report = check_drazin(family, k)
        assert report.passed
        assert report.notes["drazin_index"] == 1

    def test_index_two_block(self):
        # K = diag(2) + J_2: core {2}, nilpotent Jordan block of index 2
        k = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        family = weighted_axes([1.0, 1.0, 1.0])
        report = check_drazin(family, k)
        assert report.passed
        assert report.notes["drazin_index"] == 2

    def test_nilpotent_rejected(self):
        family = weighted_axes([1.0, 1.0])
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ZeroDrazin):
            check_drazin(family, nil)


class TestErasure:
    def fixture(self):
        members = (
            (axis_subspace(2, 0), 1.0),
            (axis_subspace(2, 0), 1.0),
            (axis_subspace(2, 1), 1.0),
            (axis_subspace(2, 1), 1.0),
            (axis_subspace(2, 0), 0.5),
        )
        return WeightedSubspaceFamily(2, members), np.eye(2)

    def test_hand_oracle(self):
        # S_W = diag(2.25, 2), erase the weight-0.5 copy: predicted lower
        # 2 - 0.25 = 1.75, reduced operator diag(2, 2)
        report = check_erasure(*self.fixture(), erased=[4])
        assert report.passed
        assert report.theorem_id == "thm3.4"
        assert report.predicted.lower == pytest.approx(1.75, rel=1e-12)
        assert report.predicted.upper == pytest.approx(2.25, rel=1e-12)
        assert report.actual.lower == pytest.approx(2.0, rel=1e-12)
        assert report.actual.upper == pytest.approx(2.0, rel=1e-12)
        assert report.residuals["erased_mass"] == pytest.approx(0.25)
        assert report.notes["erased"] == [4]

    def test_overloaded_erasure_rejected(self):
        # Parseval axes: erasing any member wipes out the whole margin
        with pytest.raises(HypothesisFailed):
            check_erasure(weighted_axes([1.0, 1.0]), np.eye(2), erased=[0])

    def test_erasing_everything_rejected(self):
        with pytest.raises(ValueError):
            check_erasure(*self.fixture(), erased=[0, 1, 2, 3, 4])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            check_erasure(*self.fixture(), erased=[7])


class TestOperatorPerturbation:
    def test_half_scale_hand_oracle(self):
        # K2 = K1/2 on a Parseval family: a = 1/2, factor (1/(3/2))^2 = 4/9,
        # actual lower 1/(1/2)^2 = 4
        family = weighted_axes([1.0, 1.0])
        report = check_operator_perturbation(
            family, np.eye(2), 0.5 * np.eye(2), PerturbationConstants(0.5, 0.0)
        )
        assert report.passed
        assert report.theorem_id == "lem4.1"
        assert report.predicted.lower == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert report.actual.lower == pytest.approx(4.0, rel=1e-12)
        assert report.predicted.upper == pytest.approx(1.0)
        # reverse transfer: factor (1/2)^2 applied to 4 gives exactly A = 1
        assert len(report.parts) == 1
        reverse = report.parts[0]
        assert reverse.theorem_id == "lem4.1:reverse"
        assert reverse.predicted.lower == pytest.approx(1.0, rel=1e-12)
        assert reverse.actual.lower == pytest.approx(1.0, rel=1e-12)
        assert report.notes["reverse_checked"] is True
        assert report.notes["k2_is_identity"] is False

    def test_scale_sweep_brackets(self):
        family = random_spanning_family(21, 4)
        k1 = gaussian_matrix(make_rng(8), 4, 4, False) + 2.0 * np.eye(4)
        for t in (0.4, 0.7, 1.0):
            report = check_operator_perturbation(
                family, k1, t * k1, PerturbationConstants(1.0 - t, 0.0), seed=t
            )
            assert report.passed, f"t={t}"
            assert report.lower_margin >= 0.0
            assert report.upper_margin >= 0.0

    def test_zero_operators_are_vacuous(self):
        family = weighted_axes([1.0, 2.0])
        z = np.zeros((2, 2))
        report = check_operator_perturbation(
            family, z, z, PerturbationConstants(0.0, 0.0)
        )
        assert report.passed
        assert math.isinf(report.predicted.lower)
        assert math.isinf(report.actual.lower)
        assert math.isinf(report.lower_margin)

    def test_false_constants_rejected(self):
        family = weighted_axes([1.0, 1.0])
        with pytest.raises(HypothesisFailed):
            check_operator_perturbation(
                family, np.eye(2), 0.5 * np.eye(2), PerturbationConstants(0.0, 0.0)
            )

    def test_b_at_one_rejected(self):
        family = weighted_axes([1.0, 1.0])
        with pytest.raises(AdmissibilityFailed):
            check_operator_perturbation(
                family, np.eye(2), np.eye(2), PerturbationConstants(0.0, 1.0)
            )

    def test_c_term_rejected(self):
        family = weighted_axes([1.0, 1.0])
        with pytest.raises(AdmissibilityFailed):
            check_operator_perturbation(
                family, np.eye(2), np.eye(2), PerturbationConstants(0.0, 0.0, 0.1)
            )


class TestProjectionPerturbation:
    def test_existence_variant_identical_families(self):
        family = weighted_axes([1.0, 2.0])
        report = check_projection_zero(family, family, PerturbationConstants(0.0, 0.0))
        assert report.passed
        assert report.theorem_id == "thm4.4.1"
        assert report.predicted.lower == 0.0
        # K defaults to S_V itself; a positive lower bound must exist
        assert report.actual.lower > 0.0
        assert report.notes["flagged_upper_constant"] is True
        assert report.notes["alternative_upper"] == pytest.approx(
            math.sqrt(4.0), rel=1e-12
        )

    def test_existence_variant_range_escape_rejected(self):
        # identical families keep the deviation at zero, but the target
        # synthesis only spans e1 and K = I escapes it
        family = WeightedSubspaceFamily(2, ((axis_subspace(2, 0), 1.0),))
        with pytest.raises(AdmissibilityFailed):
            check_projection_zero(
                family, family, PerturbationConstants(0.0, 0.0), k=np.eye(2),
            )

    def test_relative_variant_identical_families_exact(self):
        family = weighted_axes([1.0, 2.0])
        k = np.array([[1.0, 1.0], [0.0, 1.0]])
        base = k_lower_bound(family, k)
        report = check_projection_k_star(
            family, family, k, PerturbationConstants(0.0, 0.0)
        )
        assert report.passed
        assert report.theorem_id == "thm4.4.2"
        assert report.predicted.lower == pytest.approx(base, rel=1e-10)
        assert report.actual.lower == pytest.approx(base, rel=1e-10)
        assert report.predicted.upper == pytest.approx(4.0, rel=1e-10)

    def test_relative_variant_a_at_one_rejected(self):
        family = weighted_axes([1.0, 1.0])
        with pytest.raises(AdmissibilityFailed):
            check_projection_k_star(
                family, family, np.eye(2), PerturbationConstants(1.2, 0.0)
            )

    def test_relative_variant_c_eats_lower_bound(self):
        family = weighted_axes([1.0, 1.0])
        with pytest.raises(AdmissibilityFailed):
            check_projection_k_star(
                family, family, np.eye(2), PerturbationConstants(0.0, 0.0, 1.5)
            )

    def test_plain_variant_identical_families_exact(self):
        family = weighted_axes([1.0, 2.0])
        report = check_projection_plain(family, family, PerturbationConstants(0.0, 0.0))
        assert report.passed
        assert report.theorem_id == "thm4.4.3"
        assert report.predicted.lower == pytest.approx(1.0, rel=1e-12)
        assert report.predicted.upper == pytest.approx(4.0, rel=1e-12)
        assert report.actual.lower == pytest.approx(1.0, rel=1e-12)
        assert report.actual.upper == pytest.approx(4.0, rel=1e-12)

    def test_plain_variant_weight_scaling_brackets(self):
        ww = random_spanning_family(33, 4)
        for t in (0.92, 0.97):
            vv = WeightedSubspaceFamily(
                4, tuple((s, t * w) for s, w in ww.members)
            )
            report = check_projection_plain(ww, vv, PerturbationConstants(1.0 - t, 0.0))
            assert report.passed, f"t={t}"
            bounds = fusion_bounds(ww)
            assert report.actual.lower == pytest.approx(
                t * t * bounds.lower, rel=1e-10
            )

    def test_plain_variant_false_constants_rejected(self):
        ww = weighted_axes([1.0, 1.0])
        vv = WeightedSubspaceFamily(
            2, tuple((s, 0.5 * w) for s, w in ww.members)
        )
        with pytest.raises(HypothesisFailed):
            check_projection_plain(ww, vv, PerturbationConstants(0.0, 0.0))

    def test_plain_variant_transfer_overdrawn(self):
        # a sqrt(B) + c >= sqrt(A) leaves no lower bound to transfer
        family = weighted_axes([1.0, 1.0])
        with pytest.raises(AdmissibilityFailed):
            check_projection_plain(
                family, family, PerturbationConstants(0.9, 0.0, 0.3)
            )

    def test_member_count_mismatch_rejected(self):
        ww = weighted_axes([1.0, 1.0])
        vv = WeightedSubspaceFamily(2, ((axis_subspace(2, 0), 1.0),))
        with pytest.raises(DimensionMismatch):
            check_projection_plain(ww, vv, PerturbationConstants(0.0, 0.0))


class TestQuadraticPerturbation:
    def test_hand_oracle(self):
        # shift the first weight from 1 to sqrt(0.8): deviation form is
        # 0.2 P_e1, budget R = 0.2 against K = I is exactly tight
        ww = weighted_axes([1.0, 1.0])
        vv = WeightedSubspaceFamily(
            2, ((axis_subspace(2, 0), math.sqrt(0.8)), (axis_subspace(2, 1), 1.0))
        )
        report = check_quadratic_perturbation(ww, vv, np.eye(2), r=0.2)
        assert report.passed
        assert report.theorem_id == "prop4.5"
        assert report.predicted.lower == pytest.approx(0.8, rel=1e-12)
        assert report.predicted.upper == pytest.approx(1.2, rel=1e-12)
        assert report.actual.lower == pytest.approx(0.8, rel=1e-12)
        assert report.actual.upper == pytest.approx(1.0, rel=1e-12)
        assert report.notes["cauchy_schwarz_upper"] == pytest.approx(1.2)
        assert report.residuals["psd_certificate_gap"] >= -1e-12

    def test_budget_must_be_positive(self):
        ww = weighted_axes([1.0, 1.0])
        with pytest.raises(HypothesisFailed):
            check_quadratic_perturbation(ww, ww, np.eye(2), r=0.0)

    def test_budget_reaching_lower_bound_rejected(self):
        ww = weighted_axes([1.0, 1.0])
        with pytest.raises(HypothesisFailed):
            check_quadratic_perturbation(ww, ww, np.eye(2), r=1.0)

    def test_understated_budget_rejected(self):
        ww = weighted_axes([1.0, 1.0])
        vv = WeightedSubspaceFamily(
            2, ((axis_subspace(2, 0), math.sqrt(0.5)), (axis_subspace(2, 1), 1.0))
        )
        # true deviation is 0.5 P_e1; claiming R = 0.25 understates it
        with pytest.raises(HypothesisFailed):
            check_quadratic_perturbation(ww, vv, np.eye(2), r=0.25)

    def test_zero_operator_is_vacuous(self):
        ww = weighted_axes([1.0, 2.0])
        report = check_quadratic_perturbation(ww, ww, np.zeros((2, 2)), r=0.3)
        assert report.passed
        assert math.isinf(report.predicted.lower)
        assert math.isinf(report.actual.lower)


class TestSynthesisPerturbation:
    def parseval_with_spare(self):
        members = (
            (axis_subspace(2, 0), 1.0),
            (axis_subspace(2, 1), 1.0),
            (axis_subspace(2, 0), 0.5),
        )
        return WeightedSubspaceFamily(2, members)

    def test_plain_variant_parseval_exact(self):
        # after erasing the spare member the reduced operator is exactly I,
        # so with K = I the ratio (1-0)/(0+1) hits the optimal bound
        ww = self.parseval_with_spare()
        report = check_synthesis_perturbation(
            ww, erased=[2], k=np.eye(2), constants=PerturbationConstants(0.0, 0.0)
        )
        assert report.passed
        assert report.theorem_id == "thm4.6"
        assert report.predicted.lower == pytest.approx(1.0, rel=1e-12)
        assert report.actual.lower == pytest.approx(1.0, rel=1e-12)
        assert report.predicted.upper == pytest.approx(1.25, rel=1e-12)
        assert report.actual.upper == pytest.approx(1.0, rel=1e-12)

    def test_closed_range_hand_oracle(self):
        # K = 1.5 I against the reduced identity: deviation 0.5||f||, and
        # 1 - c/1.5 = 2/3 squared meets the compressed bound 1/2.25
        ww = self.parseval_with_spare()
        report = check_synthesis_closed_range(
            ww, erased=[2], k=1.5 * np.eye(2),
            constants=PerturbationConstants(0.0, 0.0, 0.5),
        )
        assert report.passed
        assert report.theorem_id == "thm4.7"
        assert report.predicted.lower == pytest.approx(4.0 / 9.0, rel=1e-10)
        assert report.actual.lower == pytest.approx(4.0 / 9.0, rel=1e-10)
        assert report.notes["unsquared_lower"] == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert report.notes["squared_lower"] == pytest.approx(4.0 / 9.0, rel=1e-10)

    def test_plain_variant_scaled_operator_brackets(self):
        ww = random_spanning_family(55, 4)
        from framekit.frame_core import fusion_operator

        s_full = fusion_operator(ww)
        for eps in (0.1, 0.5):
            # K* = (1+eps) S with nothing erased: a = eps/(1+eps) certifies
            k = (1.0 + eps) * s_full.conj().T
            report = check_synthesis_perturbation(
                ww, erased=[], k=k,
                constants=PerturbationConstants(eps / (1.0 + eps), 0.0),
            )
            assert report.passed, f"eps={eps}"

    def test_plain_variant_understated_rejected(self):
        ww = self.parseval_with_spare()
        k = 2.0 * np.eye(2)  # deviation ||f||, needs a = 1/2
        with pytest.raises(HypothesisFailed):
            check_synthesis_perturbation(
                ww, erased=[2], k=k, constants=PerturbationConstants(0.1, 0.0)
            )

    def test_plain_variant_c_rejected(self):
        ww = self.parseval_with_spare()
        with pytest.raises(AdmissibilityFailed):
            check_synthesis_perturbation(
                ww, erased=[2], k=np.eye(2),
                constants=PerturbationConstants(0.0, 0.0, 0.1),
            )

    def test_closed_range_drag_at_one_rejected(self):
        ww = self.parseval_with_spare()
        with pytest.raises(AdmissibilityFailed):
            check_synthesis_closed_range(
                ww, erased=[2], k=np.eye(2),
                constants=PerturbationConstants(0.6, 0.0, 0.5),
            )


def random_form(rng, dim, rank, complex_scalars):
    """A Hermitian PSD form of the given rank (zero for rank 0)."""
    g = gaussian_matrix(rng, dim, rank, complex_scalars)
    return hermitian_part(g @ g.conj().T)


def paired_families(seed, dim, n_members, complex_scalars):
    """Two families with members of independent dims and weights."""
    rng = make_rng(seed)

    def family():
        members = []
        for _ in range(n_members):
            rank = int(rng.integers(1, dim + 1))
            q, _ = np.linalg.qr(gaussian_matrix(rng, dim, rank, complex_scalars))
            members.append((Subspace(dim, q[:, :rank]), float(rng.uniform(0.5, 2.0))))
        return WeightedSubspaceFamily(dim, tuple(members))

    return family(), family()


class TestGrid:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 32),
        complex_scalars=st.booleans(),
        ranks=st.lists(st.sampled_from(["zero", "deficient", "full"]),
                       min_size=1, max_size=5),
        family_at=st.integers(0, 5),
    )
    def test_stacked_eigh_matches_per_form_calls(self, seed, dim, complex_scalars,
                                                 ranks, family_at):
        rng = make_rng(seed)
        full = {"zero": 0, "deficient": max(dim - 1, 0) // 2, "full": dim}
        forms = [random_form(rng, dim, full[r], complex_scalars) for r in ranks]
        family = paired_families(seed, dim, 2, complex_scalars)[0]
        forms.insert(min(family_at, len(forms)), family)
        cols = _grid(dim, forms, seed, complex_scalars)
        expected = [
            np.linalg.eigh(fusion_operator(f) if f is family else f)[1]
            for f in forms
        ]
        expected.append(random_unit_vectors(seed, dim, GRID_SAMPLES,
                                            complex_scalars).T)
        assert np.array_equal(cols, np.hstack(expected))

    @pytest.mark.parametrize("scenario", ["weight_shift", "rotation", "budget_half"])
    @pytest.mark.parametrize("scalar", ["real", "complex"])
    def test_stacked_member_spectra_match_per_form_calls(self, scenario, scalar):
        # prop4.5's sign test reads every member form's spectrum from one
        # stacked eigvalsh call
        for seed, dim in ((1, 2), (2, 5), (3, 16)):
            inst = build_instance("prop4.5", GenSpec(seed, dim, scenario,
                                                     {"scalar": scalar}))
            forms = [hermitian_part(w * w * projector(sw) - v * v * projector(sv))
                     for (sw, w), (sv, v) in zip(inst.family.members,
                                                 inst.family_v.members)]
            assert np.array_equal(np.linalg.eigvalsh(np.stack(forms)),
                                  [np.linalg.eigvalsh(f) for f in forms])

    def test_identical_families_give_zero_forms(self):
        inst = build_instance("thm4.4.3", GenSpec(5, 12, "identical"))
        grams = [hermitian_part(d @ d.conj().T)
                 for d in _member_diffs(inst.family, inst.family_v)]
        assert not any(np.any(g) for g in grams)
        cols = _grid(12, [inst.family, inst.family_v] + grams, 5, False)
        assert np.array_equal(
            _side_norms(np.hstack(_member_diffs(inst.family, inst.family_v)), cols),
            np.zeros(cols.shape[1]))


class TestGridSides:
    """Each grid side agrees with its per-member formula within 1e-12 of
    the largest value it can take on a unit vector."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 32),
        n_members=st.integers(1, 6),
        complex_scalars=st.booleans(),
    )
    def test_sides_match_per_member_formulas(self, seed, dim, n_members,
                                             complex_scalars):
        ww, vv = paired_families(seed, dim, n_members, complex_scalars)
        cols = random_unit_vectors(seed, dim, 40, complex_scalars).T
        pairs = list(zip(ww.members, vv.members))

        diffs = _member_diffs(ww, vv)
        old_pair = sum(np.sum(np.abs(d @ cols) ** 2, axis=0) for d in diffs)
        scale = sum((w + v) ** 2 for (_, w), (_, v) in pairs)
        np.testing.assert_allclose(_side_norms(np.hstack(diffs), cols) ** 2, old_pair,
                                   rtol=0, atol=1e-12 * scale)

        old_energy = sum(w * w * np.sum(np.abs(s.basis.conj().T @ cols) ** 2, axis=0)
                         for s, w in ww.members)
        np.testing.assert_allclose(_side_norms(ww, cols) ** 2,
                                   old_energy, rtol=0,
                                   atol=1e-12 * sum(w * w for w in ww.weights))

        old_quadratic = sum(
            np.abs(quadratic_forms(
                hermitian_part(w * w * projector(sw) - v * v * projector(sv)), cols))
            for (sw, w), (sv, v) in pairs
        )
        lhs = np.abs(_member_energies(ww, cols) - _member_energies(vv, cols)).sum(axis=0)
        scale = sum(w * w + v * v for (_, w), (_, v) in pairs)
        np.testing.assert_allclose(lhs, old_quadratic, rtol=0, atol=1e-12 * scale)


class TestGridEigensolves:
    def count_eighs(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @pytest.mark.parametrize("theorem, scenario, others", [
        ("thm4.4.3", "rotation", 0),
        # the G of its two k_lower_bound calls is read by eigvalsh, not eigh
        ("prop4.5", "rotation", 0),
    ])
    def test_pair_check_makes_one_grid_eigh_call(self, monkeypatch, theorem,
                                                 scenario, others):
        inst = build_instance(theorem, GenSpec(7, 10, scenario))
        if inst.constants is not None:
            # a second nonzero constant sends thm4.4.3 past the exact
            # one-term test to the grid
            inst = dataclasses.replace(inst, constants=PerturbationConstants(
                inst.constants.a, 0.01))
        inst.family.fusion_eig, inst.family_v.fusion_eig  # fill the caches
        calls = self.count_eighs(monkeypatch)
        assert check_instance(inst).passed
        stacked = [shape for shape in calls if len(shape) == 3]
        assert len(stacked) == 1 and len(calls) == 1 + others

    def test_one_term_pair_check_makes_no_eigh_call(self, monkeypatch):
        inst = build_instance("thm4.4.3", GenSpec(7, 10, "rotation"))
        inst.family.fusion_eig, inst.family_v.fusion_eig  # fill the caches
        calls = self.count_eighs(monkeypatch)
        report = check_instance(inst)
        assert report.passed
        assert report.notes["hypothesis_certificate"] == "exact"
        assert calls == []


def scaled_constants(inst, factor):
    c = inst.constants
    return dataclasses.replace(inst, constants=PerturbationConstants(
        factor * c.a, factor * c.b, factor * c.c))


class TestExactHypothesis:
    """The one-term hypotheses are decided by the PSD pencil test."""

    @pytest.mark.parametrize("factor", [0.8, 0.9])
    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_lem41_near_misses_are_rejected(self, dim, factor):
        # a is the shipped ||G||, G = K1^-1 K2 - I, which D* f = G* K1* f
        # attains: any smaller a is false
        for seed in range(1000, 1040):
            inst = build_instance("lem4.1", GenSpec(seed, dim, "additive"))
            with pytest.raises(HypothesisFailed) as err:
                check_instance(scaled_constants(inst, factor))
            assert err.value.residual > 1e-9
            assert err.value.clause == "perturbation inequality fails on the grid"

    @pytest.mark.parametrize("theorem, scenario", [
        ("lem4.1", "scale_down"),
        ("lem4.1", "scale_up"),
        ("thm4.6", "scaled_synthesis"),
    ])
    def test_tight_scenarios_are_accepted_exactly(self, theorem, scenario):
        for seed in range(20):
            inst = build_instance(theorem, GenSpec(seed, 2 + seed % 15, scenario))
            report = check_instance(inst)
            assert report.passed
            assert report.notes["hypothesis_certificate"] == "exact"
            assert report.residuals["hypothesis_violation"] <= 1e-9

    def test_tight_scenarios_just_below_are_rejected(self):
        for theorem, scenario in [("lem4.1", "scale_down"),
                                  ("lem4.1", "scale_up"),
                                  ("thm4.6", "scaled_synthesis")]:
            inst = build_instance(theorem, GenSpec(4, 12, scenario))
            with pytest.raises(HypothesisFailed):
                check_instance(scaled_constants(inst, 0.99))

    @pytest.mark.parametrize("theorem, scenario, certificate", [
        ("lem4.1", "additive", "exact"),
        ("thm4.4.1", "weight_shift", "exact"),
        ("thm4.4.2", "rotation", "exact"),
        ("thm4.4.3", "identical", "exact"),
        ("thm4.6", "parseval_exact", "exact"),
        ("thm4.7", "shifted_synthesis", "sampled"),  # two nonzero constants
    ])
    def test_certificate_is_reported(self, theorem, scenario, certificate):
        report = check_instance(build_instance(theorem, GenSpec(2, 5, scenario)))
        assert report.passed
        assert report.notes["hypothesis_certificate"] == certificate

    def test_lem41_check_draws_no_random_vectors(self, monkeypatch):
        import framekit.theorems

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return random_unit_vectors(*args, **kwargs)

        monkeypatch.setattr(framekit.theorems, "random_unit_vectors", counted)
        inst = build_instance("lem4.1", GenSpec(1001, 32, "additive"))
        assert check_instance(inst).passed
        assert calls == []

    @pytest.mark.parametrize("s, delta, accepted", [
        (1e4, 1e-11, False),  # violation 1e-7
        (1e-4, 1e-6, True),   # violation 1e-10
    ])
    def test_tol_bounds_the_violation_not_the_constant(self, s, delta, accepted):
        # ||f|| <= c ||s f|| has c_opt = 1/s; c = c_opt - delta violates it
        # by s delta at every unit f
        x, y = np.eye(3), s * np.eye(3)
        c = 1.0 / s - delta
        if accepted:
            assert _exact_hypothesis(x, [(c, y)], 1e-9, "clause") <= 1e-9
        else:
            with pytest.raises(HypothesisFailed) as err:
                _exact_hypothesis(x, [(c, y)], 1e-9, "clause")
            assert err.value.residual == pytest.approx(s * delta, rel=1e-3)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 32),
        complex_scalars=st.booleans(),
        right_rank=st.sampled_from(["zero", "deficient", "full"]),
        left_inside=st.booleans(),
        factor=st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0]),
    )
    def test_exact_rule_agrees_with_a_dense_probe(self, seed, dim, complex_scalars,
                                                  right_rank, left_inside, factor):
        rng = make_rng(seed)
        rank = {"zero": 0, "deficient": max(dim - 1, 0) // 2, "full": dim}[right_rank]
        y = gaussian_matrix(rng, dim, rank, complex_scalars)
        right = hermitian_part(y @ y.conj().T)
        if left_inside:
            # range(L) inside range(R): a finite optimal constant exists
            x = y @ gaussian_matrix(rng, rank, rank, complex_scalars)
        else:
            x = gaussian_matrix(rng, dim, int(rng.integers(1, dim + 1)),
                                complex_scalars)
        left = hermitian_part(x @ x.conj().T)
        if not left_inside and rank < dim:
            c_opt = math.inf  # a generic range(L) leaks out of range(R)
        else:
            # the independent oracle: the bisection threshold of R - t L >= 0
            threshold = psd_scale_bisection(right, left)
            c_opt = 0.0 if math.isinf(threshold) else 1.0 / math.sqrt(threshold)
        c = factor * (c_opt if math.isfinite(c_opt) else 1.0)
        tol = 1e-9
        probe = np.hstack([
            hermitian_eig(left).eigenvectors, hermitian_eig(right).eigenvectors,
            random_unit_vectors(seed, dim, 2000, complex_scalars).T,
        ])
        probed = float((_side_norms(x, probe) - c * _side_norms(y, probe)).max())
        try:
            decided = _exact_hypothesis(x, [(c, y)], tol, "clause")
        except HypothesisFailed as exc:
            assert exc.residual > tol
            # a refutation must be real: c lies below the oracle's constant
            assert c < c_opt * (1.0 + 1e-6)
            return
        # a clearly false hypothesis is refuted, neither accepted nor deferred
        assert c >= 0.99 * c_opt
        if decided is not None:
            assert probed <= tol
            assert decided <= tol
        if c > c_opt * (1.0 + 1e-6):
            assert decided is not None  # clearly true: certified, not deferred


class TestRejectionWork:
    """A rejection skips the work only an acceptance needs: constants are
    tested before any eigensolve, and a pencil constant is certified only
    when it is about to be accepted."""

    def count_eigensolves(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)

            def counted(*args, _name=name, _solve=solve, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def count_certificates(self, monkeypatch, modules, raises=False):
        """Calls of ``_certify_psd_scale`` through each of ``modules``."""
        calls = []
        for module in modules:
            certify = module._certify_psd_scale

            def counted(*args, _certify=certify):
                calls.append(args[2])
                if raises:
                    raise OracleMismatch("refused")
                return _certify(*args)

            monkeypatch.setattr(module, "_certify_psd_scale", counted)
        return calls

    @pytest.mark.parametrize("theorem, spoiler", [
        ("thm4.4.1", "inadmissible_b"),
        ("thm4.4.2", "inadmissible_a"),
    ])
    @pytest.mark.parametrize("dim", [2, 16])
    def test_inadmissible_constants_need_no_eigensolve(self, monkeypatch, theorem,
                                                       spoiler, dim):
        inst = build_instance(theorem, GenSpec(7, dim, spoiler))
        calls = self.count_eigensolves(monkeypatch)
        with pytest.raises(AdmissibilityFailed):
            check_instance(inst)
        assert calls == []

    @pytest.mark.parametrize("dim", [8, 16])
    def test_near_miss_is_refuted_without_a_certificate(self, monkeypatch, dim):
        calls = self.count_certificates(
            monkeypatch, (framekit.numerics, framekit.theorems))
        for seed in range(1000, 1005):
            with pytest.raises(HypothesisFailed):
                check_instance(near_miss(seed, dim))
        assert calls == []

    def test_accepted_one_term_hypothesis_is_certified_once(self, monkeypatch):
        # k_bounds certifies its own bounds through numerics' name
        calls = self.count_certificates(monkeypatch, (framekit.theorems,))
        report = check_instance(build_instance("lem4.1", GenSpec(1001, 8, "additive")))
        assert report.passed
        assert report.notes["hypothesis_certificate"] == "exact"
        assert len(calls) == 1

    def test_refused_certificate_falls_back_to_witness_then_grid(self, monkeypatch):
        calls = self.count_certificates(monkeypatch, (framekit.theorems,),
                                        raises=True)
        reached = []
        for name in ("_pencil_witness", "_grid"):
            step = getattr(framekit.theorems, name)

            def spied(*args, _name=name, _step=step):
                reached.append(_name)
                return _step(*args)

            monkeypatch.setattr(framekit.theorems, name, spied)
        report = check_instance(build_instance("lem4.1", GenSpec(1001, 8, "additive")))
        assert report.passed
        assert report.notes["hypothesis_certificate"] == "sampled"
        assert len(calls) == 1
        assert reached == ["_pencil_witness", "_grid"]
