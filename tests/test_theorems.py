"""Tests for the bound-transfer checkers.

Each checker gets a small fixture whose predicted and actual bounds were
worked out by hand, followed by rejection tests for broken hypotheses and
a few randomized bracketing sweeps with certified constants.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from test_instances import fresh_probe
from test_suite_bytes import near_miss

import framekit.numerics
import framekit.theorems
from framekit._rng import gaussian_matrix, make_rng
from framekit.errors import (
    AdmissibilityFailed,
    DimensionMismatch,
    HypothesisFailed,
    HypothesisUndecided,
    OracleMismatch,
    ZeroDrazin,
)
from framekit.frame_core import WeightedSubspaceFamily, fusion_bounds
from framekit.instances import GenSpec, build_instance, check_instance
from framekit.kfusion import k_lower_bound
from framekit.serialize import report_to_obj
from framekit.numerics import (
    Subspace,
    hermitian_eig,
    hermitian_part,
    projector,
)
from oracles import from_span, psd_scale_bisection
from framekit.theorems import (
    PerturbationConstants,
    _check_hypothesis,
    _member_diffs,
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
    return from_span(e)


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


def record_eigensolves(monkeypatch, names=("eigh", "eigvalsh"), within=None):
    """Patch the np.linalg solvers ``names`` to record (name, matrix) per
    call; with ``within``, the name of a framekit.theorems function, only
    the calls made while that function runs."""
    calls, depth = [], []
    if within is not None:
        inner = getattr(framekit.theorems, within)

        def gated(*args, **kwargs):
            depth.append(1)
            try:
                return inner(*args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(framekit.theorems, within, gated)
    for name in names:
        def counted(m, *args, _name=name, _solve=getattr(np.linalg, name),
                    **kwargs):
            if within is None or depth:
                calls.append((_name, np.array(m)))
            return _solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def solves_of(calls, form):
    """The names of the recorded calls made on ``form``."""
    return [name for name, m in calls
            if m.shape == form.shape and np.array_equal(m, form)]


class TestImageUnderK:
    def fixture(self):
        return weighted_axes([2.0, 3.0]), np.diag([1.0, 0.0])

    def test_hand_oracle(self):
        # S_W = diag(4,9); K = P_e1 annihilates the second member, so the
        # image family is {(e1, 2), (0, 3)} with optimal K-bounds (4, 4)
        report = check_image_under_k(*self.fixture())
        assert report.passed
        assert report.theorem_id == "thm3.1"
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

    def test_compressed_operator_is_decomposed_once(self, monkeypatch):
        # one hermitian_eig of the compressed S serves both bounds
        pencils = []
        scale = framekit.theorems.max_psd_scale

        def spied(sw, g, **kwargs):
            pencils.append(sw)
            return scale(sw, g, **kwargs)

        monkeypatch.setattr(framekit.theorems, "max_psd_scale", spied)
        solved = record_eigensolves(monkeypatch)
        assert check_erasure(*self.fixture(), erased=[4]).passed
        (s_c,) = pencils
        assert solves_of(solved, s_c) == ["eigh"]

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
        assert report.notes == {}

    def test_scale_sweep_brackets(self):
        family = random_spanning_family(21, 4)
        k1 = gaussian_matrix(make_rng(8), 4, 4, False) + 2.0 * np.eye(4)
        for t in (0.4, 0.7, 1.0):
            report = check_operator_perturbation(
                family, k1, t * k1, PerturbationConstants(1.0 - t, 0.0)
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
        assert set(report.notes) == {"alternative_upper"}
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
        assert report.residuals["hypothesis_violation"] <= 1e-12

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

    @staticmethod
    def band_pair(delta):
        # D_1 = delta diag(1, -1) and D_2 = delta [[0, 1], [1, 0]]: the true
        # supremum of |<f, D_1 f>| + |<f, D_2 f>| is sqrt(2) delta, while
        # |D_1| + |D_2| = 2 delta I
        def member(x, y, weight):
            return from_span(np.array([[x], [y]])), weight

        root, h = math.sqrt(delta), math.sqrt(0.5)
        units = (member(1.0, 0.0, 1.0), member(0.0, 1.0, 1.0))
        ww = WeightedSubspaceFamily(
            2, (member(1.0, 0.0, root), member(h, h, root)) + units)
        vv = WeightedSubspaceFamily(
            2, (member(0.0, 1.0, root), member(h, -h, root)) + units)
        return ww, vv

    @pytest.mark.parametrize("factor, outcome", [
        (2.05, "exact"),      # above |D_1| + |D_2|: certified
        (1.7, "undecided"),   # between sqrt(2) and 2: the band
        (1.3, None),          # below sqrt(2): the sign ascent refutes it
    ])
    def test_indefinite_deviations(self, factor, outcome):
        delta = 0.1
        ww, vv = self.band_pair(delta)
        r = factor * delta
        if outcome == "exact":
            report = check_quadratic_perturbation(ww, vv, np.eye(2), r=r)
            assert report.passed
            assert report.residuals["hypothesis_violation"] <= 0.0
            return
        with pytest.raises(HypothesisFailed) as err:
            check_quadratic_perturbation(ww, vv, np.eye(2), r=r)
        if outcome == "undecided":
            assert type(err.value) is HypothesisUndecided
            assert err.value.residual is None
        else:
            assert type(err.value) is HypothesisFailed
            assert err.value.clause == ("quadratic deviation inequality fails "
                                        "at a witness vector")
            assert err.value.residual == pytest.approx(
                (math.sqrt(2) - factor) * delta, rel=1e-9)

    def test_pass_makes_eight_eigensolves_and_draws_nothing(self, monkeypatch):
        # eigh: the stacked member forms, R K K* - sum |D_i|, and one pencil
        # per optimal lower bound; eigvalsh: G and the stacked pair of
        # certificate tests per bound.  The family spectra come from the
        # filled caches.
        inst = build_instance("prop4.5", GenSpec(7, 10, "rotation"))
        inst.family.fusion_eig, inst.family_v.fusion_eig  # fill the caches
        calls = record_eigensolves(monkeypatch)
        assert check_instance(inst).passed
        assert sorted((name, m.ndim) for name, m in calls) == (
            [("eigh", 2)] * 3 + [("eigh", 3)]
            + [("eigvalsh", 2)] * 2 + [("eigvalsh", 3)] * 2)


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
        assert report.notes == {"unsquared_lower": pytest.approx(2.0 / 3.0, rel=1e-10)}

    def test_plain_variant_scaled_operator_brackets(self):
        ww = random_spanning_family(55, 4)
        s_full = ww.fusion_operator
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
    """Stacked and batched forms against the same forms built one by one."""

    @pytest.mark.parametrize("scenario", ["weight_shift", "rotation", "budget_half"])
    @pytest.mark.parametrize("scalar", ["real", "complex"])
    def test_stacked_member_spectra_match_per_form_calls(self, scenario, scalar):
        # prop4.5's certificate sums |D_i| from one stacked eigh call and
        # one batched product; the reference builds each |D_i| on its own
        for seed, dim in ((1, 2), (2, 5), (3, 16)):
            inst = build_instance("prop4.5", GenSpec(seed, dim, scenario,
                                                     {"scalar": scalar}))
            # budget_half claims half its certified budget
            r = inst.quadratic_bound * (2.0 if scenario == "budget_half" else 1.0)
            report = check_instance(dataclasses.replace(inst, quadratic_bound=r))
            abs_sum = 0.0
            for (sw, w), (sv, v) in zip(inst.family.members, inst.family_v.members):
                d = hermitian_part(w * w * projector(sw) - v * v * projector(sv))
                vals, vecs = np.linalg.eigh(d)
                abs_sum = abs_sum + (vecs * np.abs(vals)) @ vecs.conj().T
            k = inst.operators["K"]
            gap = np.linalg.eigvalsh(hermitian_part(r * k @ k.conj().T - abs_sum))[0]
            scale = r * np.linalg.norm(k, 2) ** 2 + np.linalg.norm(abs_sum, 2)
            assert abs(report.residuals["hypothesis_violation"] + gap) <= 1e-12 * scale

    def test_identical_families_give_zero_forms(self):
        inst = build_instance("thm4.4.3", GenSpec(5, 12, "identical"))
        grams = [hermitian_part(d @ d.conj().T)
                 for d in _member_diffs(inst.family, inst.family_v)]
        assert not any(np.any(g) for g in grams)
        cols = fresh_probe(5, 12, 40, False).T
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
        cols = fresh_probe(seed, dim, 40, complex_scalars).T
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


class TestGridEigensolves:
    def count_eighs(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_two_term_check_solves_one_companion_pencil(self, monkeypatch):
        # thm4.7's two nonzero constants b and c go to the level-set
        # certificate, which closes in one round on a generated instance
        inst = build_instance("thm4.7", GenSpec(7, 10, "shifted_synthesis"))
        solves = []
        eigvals = scipy.linalg.eigvals

        def counted(a, b, *args, **kwargs):
            solves.append(a.shape)
            return eigvals(a, b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvals", counted)
        report = check_instance(inst)
        assert report.passed
        assert report.residuals["hypothesis_violation"] <= 1e-9
        assert solves == [(20, 20)]

    def test_two_term_check_decomposes_the_left_form_once(self, monkeypatch):
        # lambda_max(L) and the level set's start vector share one eigh
        inst = build_instance("thm4.7", GenSpec(7, 10, "shifted_synthesis"))
        forms = []
        two_term = framekit.theorems._two_term_hypothesis

        def spied(left, left_form, *args, **kwargs):
            forms.append(left_form)
            return two_term(left, left_form, *args, **kwargs)

        monkeypatch.setattr(framekit.theorems, "_two_term_hypothesis", spied)
        solved = record_eigensolves(monkeypatch)
        assert check_instance(inst).passed
        (left_form,) = forms
        assert solves_of(solved, left_form) == ["eigh"]

    def test_one_term_pair_check_makes_at_most_four_eigensolves(self, monkeypatch):
        # lambda_max(L), one eigh of the pencil on range(S_W) for the ratio
        # and its witness, and the certificate's two min-eigenvalue tests
        inst = build_instance("thm4.4.3", GenSpec(7, 10, "rotation"))
        check_instance(inst)  # fill the family caches
        calls = self.count_eighs(monkeypatch)
        eigvalsh = np.linalg.eigvalsh

        def counted(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert check_instance(inst).passed
        assert len(calls) <= 4


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
            assert err.value.clause == "perturbation inequality fails at a witness vector"

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
            assert report.residuals["hypothesis_violation"] <= 1e-9

    def test_tight_scenarios_just_below_are_rejected(self):
        for theorem, scenario in [("lem4.1", "scale_down"),
                                  ("lem4.1", "scale_up"),
                                  ("thm4.6", "scaled_synthesis")]:
            inst = build_instance(theorem, GenSpec(4, 12, scenario))
            with pytest.raises(HypothesisFailed):
                check_instance(scaled_constants(inst, 0.99))

    @pytest.mark.parametrize("theorem, scenario, decision", [
        ("lem4.1", "additive", "exact"),
        ("thm4.4.1", "weight_shift", "exact"),
        ("thm4.4.2", "rotation", "exact"),
        ("thm4.4.3", "identical", "exact"),
        ("thm4.6", "parseval_exact", "exact"),
        ("thm4.7", "shifted_synthesis", "exact"),  # two nonzero constants
        ("lem4.1", "false_constants", "witness"),
        ("thm4.6", "understated", "witness"),
    ])
    def test_certificate_is_reported(self, theorem, scenario, decision):
        # a pass reports its certified violation bound, a rejection the
        # violation at its witness
        inst = build_instance(theorem, GenSpec(2, 5, scenario))
        if decision == "exact":
            report = check_instance(inst)
            assert report.passed
            assert report.residuals["hypothesis_violation"] <= 1e-9
        else:
            with pytest.raises(HypothesisFailed) as err:
                check_instance(inst)
            assert type(err.value) is HypothesisFailed
            assert err.value.residual > 1e-9

    def test_lem41_check_draws_no_random_vectors(self):
        # two nonzero constants, once checked on seeded random vectors: the
        # report no longer depends on the instance's seed
        inst = build_instance("lem4.1", GenSpec(1001, 32, "additive"))
        inst = dataclasses.replace(inst, constants=PerturbationConstants(
            inst.constants.a, 0.01))
        reports = [report_to_obj(check_instance(dataclasses.replace(
            inst, meta=inst.meta | {"seed": seed}))) for seed in (0, 1001, 2**40)]
        assert reports[0] == reports[1] == reports[2]

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
            assert _check_hypothesis(x, [(c, y)], 1e-9, "clause") <= 1e-9
        else:
            with pytest.raises(HypothesisFailed) as err:
                _check_hypothesis(x, [(c, y)], 1e-9, "clause")
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
            fresh_probe(seed, dim, 2000, complex_scalars).T,
        ])
        probed = float((_side_norms(x, probe) - c * _side_norms(y, probe)).max())
        try:
            decided = _check_hypothesis(x, [(c, y)], tol, "clause")
        except HypothesisUndecided:
            decided = None
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


class TestTwoTermHypothesis:
    """Hypotheses with two or more nonzero constants, decided by the
    level-set certificate, a witness, or neither."""

    @staticmethod
    def decide(x, terms):
        return _check_hypothesis(x, terms, 1e-9, "clause")

    @pytest.mark.parametrize("c1, c2", [(0.3, 0.4), (0.5, 0.5)])
    def test_identity_factors(self, c1, c2):
        # with Y_1 = Y_2 = I the inequality is ||X* f|| <= c_1 + c_2 on unit
        # f: it fails by sqrt(lambda_max(X X*)) - c_1 - c_2 at X X*'s top vector
        x = gaussian_matrix(make_rng(4), 4, 4, True)
        top = float(np.linalg.norm(x, 2))
        with pytest.raises(HypothesisFailed) as err:
            self.decide(x, [(c1, np.eye(4)), (c2, np.eye(4))])
        assert type(err.value) is HypothesisFailed
        assert err.value.residual == pytest.approx(top - c1 - c2, rel=1e-12)
        assert self.decide(x * (0.99 * (c1 + c2) / top),
                           [(c1, np.eye(4)), (c2, np.eye(4))]) <= 0.0

    def test_two_coordinate_forms(self):
        # ||X* f|| <= |f_1| + |f_2| with X = k (1, 1)/sqrt(2) holds exactly
        # when k <= sqrt(2); each right-hand form is singular
        e = np.eye(2)
        terms = [(1.0, e[:, :1]), (1.0, e[:, 1:])]
        x = np.ones((2, 1)) / math.sqrt(2.0)
        assert self.decide(1.4 * x, terms) <= 0.0
        with pytest.raises(HypothesisFailed) as err:
            self.decide(1.5 * x, terms)
        assert type(err.value) is HypothesisFailed
        assert err.value.residual == pytest.approx(1.5 - math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("k, outcome", [
        (1.0, "certified"),  # below sqrt(3/2), where the merged form holds
        (1.5, "undecided"),  # true, but past what the merged form proves
        (2.0, "rejected"),   # above sqrt(3)
    ])
    def test_three_coordinate_forms(self, k, outcome):
        # ||X* f|| <= |f_1| + |f_2| + |f_3|, X = k (1, 1, 1)/sqrt(3), holds
        # exactly when k <= sqrt(3); merging the last two terms into
        # sqrt(f_2^2 + f_3^2) proves it only for k <= sqrt(3/2)
        e = np.eye(3)
        terms = [(1.0, e[:, [j]]) for j in range(3)]
        x = k * np.ones((3, 1)) / math.sqrt(3.0)
        if outcome == "certified":
            assert self.decide(x, terms) <= 0.0
            return
        with pytest.raises(HypothesisFailed) as err:
            self.decide(x, terms)
        if outcome == "undecided":
            assert type(err.value) is HypothesisUndecided
        else:
            assert type(err.value) is HypothesisFailed
            assert err.value.residual > 1e-9

    @pytest.mark.parametrize("x, terms, holds", [
        # ||0.5 f|| <= |f_1| + ||f||: L's top vector lies in ker Q1
        (0.5 * np.eye(3), [(1.0, np.eye(3)[:, :1]), (1.0, np.eye(3))], True),
        # ||diag(.5, .5, 0) f|| <= |f_1| + |f_2|: it lies in ker Q1 or ker Q2
        (np.diag([0.5, 0.5, 0.0]),
         [(1.0, np.eye(3)[:, :1]), (1.0, np.eye(3)[:, 1:2])], True),
        # ||2 f|| <= |f_1| + ||f|| fails at f = e2
        (2.0 * np.eye(3), [(1.0, np.eye(3)[:, :1]), (1.0, np.eye(3))], False),
    ], ids=["half_identity", "coordinate_plane", "double_identity"])
    def test_a_top_vector_in_a_kernel_starts_inside(self, x, terms, holds):
        # the start s = y1/(y1 + y2) would be 0 or 1, where M(s) is singular
        # to working precision and the pencil calls L leaking
        if holds:
            assert self.decide(x, terms) <= 0.0
            return
        with pytest.raises(HypothesisFailed) as err:
            self.decide(x, terms)
        assert type(err.value) is HypothesisFailed
        assert err.value.residual == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-60, 1e-30, 1.0, 1e30, 1e60])
    def test_a_scaled_false_hypothesis_is_never_certified(self, scale):
        # constants 3% under the least that holds, at scales far from one:
        # unless the quadratic is scaled to the companion's identity blocks,
        # QZ drops the roots around the negative piece of lambda_min(P) and
        # the level set passes
        rng = make_rng(0)
        x, y1, y2 = (gaussian_matrix(rng, 4, 4, True) for _ in range(3))
        left, r1, r2 = (m @ m.conj().T for m in (x, y1, y2))
        sigma = max(scipy.linalg.eigh(left, 0.01 * r1 / s + r2 / (1.0 - s),
                                      eigvals_only=True)[-1]
                    for s in np.linspace(0.0, 1.0, 2001)[1:-1])
        c = 0.97 * math.sqrt(sigma)
        with pytest.raises(HypothesisFailed):
            _check_hypothesis(scale * x, [(0.1 * c, scale * y1), (c, scale * y2)],
                              1e-9 * scale, "clause")

    def test_a_failed_qz_leaves_a_true_hypothesis_undecided(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("QZ iteration failed to converge")

        monkeypatch.setattr(scipy.linalg, "eigvals", fail)
        inst = build_instance("thm4.7", GenSpec(7, 10, "shifted_synthesis"))
        with pytest.raises(HypothesisUndecided):
            check_instance(inst)

    def test_a_tiny_second_constant_keeps_a_pass(self):
        # b alone holds with room to spare; c = 1e-9 gamma puts the
        # supremum over s within 1e-8 of s = 1, where P(s) is nearly
        # singular and only its factored form keeps lambda_min's sign
        for seed in range(6):
            for dim in (2, 5, 8):
                inst = build_instance("thm4.7", GenSpec(seed, dim, "shifted_synthesis"))
                c = inst.constants
                inst = dataclasses.replace(inst, constants=PerturbationConstants(
                    0.0, 4.0 * c.b, 1e-9 * c.c))
                assert check_instance(inst).passed, (seed, dim)

    @pytest.mark.parametrize("seed, dim, scalar, a, b", [
        (0, 5, "real", 0.05, 0.5),
        (11, 3, "complex", 0.05, 0.05),
        (9, 16, "real", 0.2, 0.05),
    ])
    def test_lem41_false_passes_are_rejected(self, seed, dim, scalar, a, b):
        # constants a seeded grid of random vectors let through; the
        # hypothesis fails by 0.0018 to 0.041
        inst = build_instance("lem4.1", GenSpec(seed, dim, "additive", {"scalar": scalar}))
        inst = dataclasses.replace(inst, constants=PerturbationConstants(a, b))
        with pytest.raises(HypothesisFailed) as err:
            check_instance(inst)
        assert type(err.value) is HypothesisFailed
        assert err.value.residual > 1e-3
        assert err.value.clause == "perturbation inequality fails at a witness vector"


class TestScaleCovariance:
    @pytest.mark.parametrize("k", [-40, -20, -10, 20, 40])
    def test_projection_zero_keeps_its_verdict_under_weight_scaling(self, k):
        # every weight times 2^k (exact in floating point), and K, which
        # pairs with S_V, times 2^(2k): a and b are dimensionless
        factor = 2.0 ** k

        def scaled(family):
            return WeightedSubspaceFamily(family.ambient_dim, tuple(
                (s, w * factor) for s, w in family.members))

        for scenario in ("identical", "weight_shift", "rotation",
                         "weight_shift_with_k"):
            for seed in range(6):
                for dim in (2, 5, 8):
                    inst = build_instance("thm4.4.1", GenSpec(seed, dim, scenario))
                    moved = dataclasses.replace(
                        inst, family=scaled(inst.family),
                        family_v=scaled(inst.family_v),
                        operators={name: op * (factor * factor)
                                   for name, op in inst.operators.items()})
                    assert check_instance(inst).passed
                    assert check_instance(moved).passed, (scenario, seed, dim)


class TestRejectionWork:
    """A rejection skips the work only an acceptance needs: constants are
    tested before any eigensolve, and a pencil constant is certified only
    when it is about to be accepted."""

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
        calls = record_eigensolves(monkeypatch)
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
        assert check_instance(build_instance("lem4.1", GenSpec(1001, 8, "additive"))).passed
        assert len(calls) == 1

    def test_refused_certificate_falls_back_to_witness_then_undecided(self,
                                                                      monkeypatch):
        # the hypothesis holds, so the witness cannot refute it either
        calls = self.count_certificates(monkeypatch, (framekit.theorems,),
                                        raises=True)
        reached = []
        refute = framekit.theorems._refute

        def spied(*args):
            reached.append(len(args[2]))  # the pencil's witness candidates
            return refute(*args)

        monkeypatch.setattr(framekit.theorems, "_refute", spied)
        with pytest.raises(HypothesisUndecided):
            check_instance(build_instance("lem4.1", GenSpec(1001, 8, "additive")))
        assert len(calls) == 1
        assert reached == [1]


class TestEigensolveBudget:
    """lambda_max(L) is solved only where a decision reads it: by the
    certificate of an accepting constant, and by the pencil when R is zero
    or has a kernel.  A one-term rejection at full rank skips it."""

    def solves_in_hypothesis(self, monkeypatch, run):
        """The np.linalg calls that ``run()`` makes inside _check_hypothesis,
        counted by name, and what ``run()`` returned or raised."""
        names = ("eigh", "eigvalsh", "svd")
        calls = record_eigensolves(monkeypatch, names, within="_check_hypothesis")
        try:
            outcome = run()
        except HypothesisFailed as exc:
            outcome = exc
        solved = [name for name, _ in calls]
        return {name: solved.count(name) for name in names}, outcome

    def check_counted(self, monkeypatch, inst):
        try:
            check_instance(inst)  # fill the family caches
        except HypothesisFailed:
            pass
        return self.solves_in_hypothesis(monkeypatch, lambda: check_instance(inst))

    @pytest.mark.parametrize("make", [
        lambda: near_miss(1000, 8),
        lambda: build_instance("thm4.6", GenSpec(7, 8, "understated")),
    ])
    def test_one_term_rejection_makes_two_eighs(self, monkeypatch, make):
        # hermitian_eig(R) and the pencil compressed to range(R); no
        # eigvalsh of L, since a rejection at full rank never reads it
        solves, outcome = self.check_counted(monkeypatch, make())
        assert type(outcome) is HypothesisFailed
        assert solves == {"eigh": 2, "eigvalsh": 0, "svd": 0}

    @pytest.mark.parametrize("theorem, scenario, eighs", [
        ("lem4.1", "scale_down", 2),
        ("thm4.4.1", "weight_shift", 1),  # R = S_W, decomposed once per family
    ])
    def test_accepting_one_term_keeps_its_solves(self, monkeypatch, theorem,
                                                 scenario, eighs):
        # lambda_max(L) for the certificate's delta, and its stacked test
        solves, outcome = self.check_counted(
            monkeypatch, build_instance(theorem, GenSpec(7, 8, scenario)))
        assert outcome.passed
        assert solves == {"eigh": eighs, "eigvalsh": 2, "svd": 0}

    def test_no_constant_reads_lambda_max_once(self, monkeypatch):
        solves, outcome = self.check_counted(
            monkeypatch, build_instance("lem4.1", GenSpec(7, 8, "false_constants")))
        assert type(outcome) is HypothesisFailed
        assert solves == {"eigh": 0, "eigvalsh": 1, "svd": 0}

    def test_rank_deficient_right_side_runs_the_leak_test(self, monkeypatch):
        rng = make_rng(5)
        y = gaussian_matrix(rng, 8, 5, True)  # R = Y Y* has rank 5
        inside = y @ gaussian_matrix(rng, 5, 8, True)
        leaky = inside + 1e-3 * gaussian_matrix(rng, 8, 8, True)
        c_opt = float(np.linalg.norm(np.linalg.pinv(y) @ inside, 2))  # Douglas
        clause = "fails at a witness vector"

        def decide(x, c):
            return self.solves_in_hypothesis(
                monkeypatch,
                lambda: framekit.theorems._check_hypothesis(x, [(c, y)], 1e-9, clause))

        # each makes hermitian_eig(R), the kernel and the range tops, and
        # the leak test's norm of L - V_r V_r* L against lambda_max(L);
        # an accept reuses that lambda_max in its certificate
        solves, bound = decide(inside, 1.01 * c_opt)
        assert bound <= 1e-9
        assert solves == {"eigh": 3, "eigvalsh": 2, "svd": 1}
        for x, c in ((inside, 0.99 * c_opt), (leaky, 10.0 * c_opt)):
            solves, outcome = decide(x, c)
            assert type(outcome) is HypothesisFailed
            assert solves == {"eigh": 3, "eigvalsh": 1, "svd": 1}

    def test_two_term_end_pencils_build_no_kernel_witness(self, monkeypatch):
        # Q1 = .09 e1 e1* and Q2 = .09 e2 e2* share the kernel e3, so each
        # end pencil has a kernel of its own; it reads only its ratio, so it
        # skips the kernel witness, one 1x1 eigh each.  L's top vector lies in
        # ker Q1, so the level set starts at s = 1/2 and runs one round, one
        # stacked eigvalsh of P at its one midpoint, before the witness
        e = np.eye(3, dtype=np.complex128)
        left = np.diag([0.5, 0.5, 0.0]).astype(np.complex128)
        solves, outcome = self.solves_in_hypothesis(
            monkeypatch, lambda: framekit.theorems._check_hypothesis(
                left, [(0.3, e[:, :1]), (0.3, e[:, 1:2])], 1e-9, "clause"))
        assert type(outcome) is HypothesisFailed
        assert outcome.residual == pytest.approx(0.2, rel=1e-12)  # at f = e1
        assert solves == {"eigh": 14, "eigvalsh": 3, "svd": 5}
