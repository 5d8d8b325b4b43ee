"""Tests for the seeded instance generators: determinism, certified
constants, and the standard suite composition."""

import math

import numpy as np
import pytest

from framekit._rng import gaussian_matrix, make_rng
from framekit.errors import HypothesisFailed, InvalidConfig
from framekit.instances import (
    REGISTRY,
    THEOREM_IDS,
    GenSpec,
    build_instance,
    check_instance,
    default_suite_entries,
    gen_operator,
    gen_operator_pair,
    gen_perturbed_pair,
    random_invertible,
    random_unitary,
    spanning_family,
    spoiler_suite_entries,
)
from framekit.numerics import (
    Subspace,
    drazin,
    operator_norm,
    projector,
    range_basis,
)
from framekit.serialize import dumps_instance
from framekit.theorems import PerturbationConstants


def fresh_probe(seed, dim, count=2000, complex_scalars=True):
    """``count`` seeded random unit vectors in ``dim`` dimensions, one per row."""
    g = gaussian_matrix(make_rng(seed), count, dim, complex_scalars)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        for tid, entry in REGISTRY.items():
            spec = GenSpec(seed=7, dim=5, scenario=entry.scenarios[0])
            a = dumps_instance(build_instance(tid, spec))
            b = dumps_instance(build_instance(tid, spec))
            assert a == b, tid

    def test_different_seeds_differ(self):
        one = build_instance("lem4.1", GenSpec(1, 4, "scale_down"))
        two = build_instance("lem4.1", GenSpec(2, 4, "scale_down"))
        assert dumps_instance(one) != dumps_instance(two)

    def test_dim_out_of_range_rejected(self):
        with pytest.raises(InvalidConfig):
            GenSpec(seed=1, dim=1, scenario="identical")
        with pytest.raises(InvalidConfig):
            GenSpec(seed=1, dim=64, scenario="identical")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(InvalidConfig):
            build_instance("lem4.1", GenSpec(1, 4, "gibberish"))
        with pytest.raises(InvalidConfig):
            build_instance("nope", GenSpec(1, 4, "identical"))

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_foreign_scenarios_rejected(self, tid):
        entry = REGISTRY[tid]
        allowed = entry.scenarios + (entry.spoiler,)
        foreign = {
            scenario
            for other in REGISTRY.values()
            for scenario in other.scenarios + (other.spoiler,)
        } - set(allowed)
        assert foreign
        for scenario in sorted(foreign):
            with pytest.raises(InvalidConfig) as err:
                build_instance(tid, GenSpec(3, 4, scenario))
            message = str(err.value)
            assert repr(scenario) in message and tid in message
            assert all(name in message for name in allowed)

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_meta_names_the_requested_pair(self, tid):
        entry = REGISTRY[tid]
        for scenario in entry.scenarios + (entry.spoiler,):
            inst = build_instance(tid, GenSpec(3, 4, scenario))
            assert inst.meta["theorem"] == tid
            assert inst.meta["scenario"] == scenario
            assert inst.meta["seed"] == 3
            expected = "hypothesis_failed" if scenario == entry.spoiler else "pass"
            assert inst.meta["expect"] == expected


class TestGeneratedOperators:
    def test_unitary_is_unitary(self):
        for seed, cx in ((0, False), (1, True)):
            u = random_unitary(make_rng(seed), 6, cx)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)

    def test_invertible_singular_values_in_band(self):
        m = random_invertible(make_rng(3), 6, True)
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv.min() >= 0.5 * (1.0 - 1e-12)
        assert sv.max() <= 2.0 * (1.0 + 1e-12)

    def test_drazin_index_kinds(self):
        for index in (1, 2, 3):
            for seed in (0, 1):
                k = gen_operator(
                    make_rng(seed), 6, "drazin_index", seed % 2 == 0, index=index
                )
                _, got = drazin(k, tol=1e-4)
                assert got == index, (index, seed)

    def test_nilpotent_kind_has_zero_drazin(self):
        k = gen_operator(make_rng(9), 6, "nilpotent", False)
        s, index = drazin(k, tol=1e-4)
        assert operator_norm(s) == 0.0
        # rounding keeps the off-block entries alive, so the structural
        # index is an upper bound once the nilpotent part has several blocks
        assert 3 <= index <= 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig):
            gen_operator(make_rng(0), 4, "diagonalizable", False)


class TestCertifiedConstants:
    def check_operator_pair(self, k1, k2, constants, probe):
        lhs = np.linalg.norm((k1 - k2).conj().T @ probe.T, axis=0)
        rhs = (
            constants.a * np.linalg.norm(k1.conj().T @ probe.T, axis=0)
            + constants.b * np.linalg.norm(k2.conj().T @ probe.T, axis=0)
        )
        assert float((lhs - rhs).max()) <= 1e-12

    def test_operator_pair_constants_hold(self):
        for scenario in ("scale_down", "scale_up", "additive", "to_identity"):
            for seed in (0, 1, 2):
                cx = seed % 2 == 1
                k1, k2, constants = gen_operator_pair(
                    make_rng(seed), 5, scenario, cx
                )
                self.check_operator_pair(
                    k1, k2, constants, fresh_probe(seed + 100, 5, 2000, cx)
                )

    def blockwise_lhs(self, pair, probe):
        total = np.zeros(probe.shape[0])
        for (sw, w), (sv, v) in zip(pair.source.members, pair.target.members):
            d = w * projector(sw) - v * projector(sv)
            applied = probe @ d.T  # rows become d @ f
            total += np.einsum("ij,ij->i", applied.conj(), applied).real
        return np.sqrt(total)

    def family_energy(self, fam, probe):
        s = fam.fusion_operator
        return np.sqrt(
            np.einsum("ij,jk,ik->i", probe.conj(), s, probe).real.clip(min=0.0)
        )

    def test_weight_shift_constants_hold(self):
        for seed in (3, 4, 5):
            cx = seed % 2 == 0
            pair = gen_perturbed_pair(make_rng(seed), 6, "weight_shift", cx)
            probe = fresh_probe(seed + 50, 6, 2000, cx)
            lhs = self.blockwise_lhs(pair, probe)
            rhs = pair.constants.a * self.family_energy(pair.source, probe)
            assert float((lhs - rhs).max()) <= 1e-10
            # plain-norm constant dominates the same deviation
            assert float((lhs - pair.c_constant).max()) <= 1e-10
            # quadratic budget dominates the summed form deviation
            quad = np.zeros(probe.shape[0])
            for (sw, w), (sv, v) in zip(pair.source.members, pair.target.members):
                d = (w * w) * projector(sw) - (v * v) * projector(sv)
                quad += np.abs(
                    np.einsum("ij,jk,ik->i", probe.conj(), d, probe).real
                )
            assert float((quad - pair.quadratic_bound).max()) <= 1e-10

    def test_rotation_certificate_window(self):
        for seed in (11, 12, 13):
            rng = make_rng(seed)
            theta = float(rng.uniform(0.15, 0.6))  # mirrors the generator draw
            pair = gen_perturbed_pair(make_rng(seed), 6, "rotation", False)
            # the true blockwise constant is the worst member deviation norm
            true = max(
                operator_norm(w * projector(sw) - v * projector(sv))
                for (sw, w), (sv, v) in zip(
                    pair.source.members, pair.target.members
                )
            )
            assert true == pytest.approx(math.sin(theta), abs=1e-12)
            cert = pair.constants.a
            assert true <= cert <= 1.0101 * true
            probe = fresh_probe(seed + 70, 6, 2000, False)
            lhs = self.blockwise_lhs(pair, probe)
            rhs = cert * self.family_energy(pair.source, probe)
            assert float((lhs - rhs).max()) <= 1e-10

    def test_identical_pair_has_zero_constants(self):
        pair = gen_perturbed_pair(make_rng(2), 4, "identical", True)
        assert pair.constants == PerturbationConstants(0.0, 0.0)
        assert pair.c_constant == 0.0
        assert pair.quadratic_bound == 0.0
        assert pair.source is pair.target


class TestScenarioSweep:
    def test_every_pass_scenario_passes(self):
        for tid, entry in REGISTRY.items():
            for scenario in entry.scenarios:
                for seed in (1, 2):
                    inst = build_instance(tid, GenSpec(seed, 6, scenario))
                    assert inst.meta["expect"] == "pass"
                    report = check_instance(inst)
                    assert report.passed, (tid, scenario, seed)

    def test_every_spoiler_rejects(self):
        for tid, entry in REGISTRY.items():
            inst = build_instance(tid, GenSpec(3, 6, entry.spoiler))
            assert inst.meta["expect"] == "hypothesis_failed"
            with pytest.raises(HypothesisFailed):
                check_instance(inst)

    def test_forced_scalar_param(self):
        inst = build_instance(
            "lem3.2", GenSpec(2, 4, "invertible", {"scalar": "real"})
        )
        assert inst.scalar == "real"
        assert float(np.abs(inst.operators["K"].imag).max()) == 0.0


class TestSuiteComposition:
    def test_default_counts_and_expectations(self):
        entries = default_suite_entries(n_per_theorem=3)
        assert len(entries) == 3 * len(THEOREM_IDS)
        per_theorem = {}
        for inst in entries:
            tid = inst.meta["theorem"]
            per_theorem[tid] = per_theorem.get(tid, 0) + 1
            assert inst.meta["expect"] == "pass"
            assert inst.meta["scenario"] in REGISTRY[tid].scenarios
        assert per_theorem == {tid: 3 for tid in THEOREM_IDS}

    def test_default_suite_is_deterministic(self):
        a = [dumps_instance(i) for i in default_suite_entries(2)]
        b = [dumps_instance(i) for i in default_suite_entries(2)]
        assert a == b

    def test_spoiler_suite_covers_every_theorem(self):
        entries = spoiler_suite_entries()
        assert len(entries) == len(THEOREM_IDS)
        for inst in entries:
            assert inst.meta["expect"] == "hypothesis_failed"
            assert inst.meta["scenario"] == REGISTRY[inst.meta["theorem"]].spoiler

    def test_spanning_family_spans(self):
        for seed in (0, 1):
            fam = spanning_family(make_rng(seed), 6, seed % 2 == 0)
            spectrum = np.linalg.eigvalsh(fam.fusion_operator)
            assert float(spectrum[0]) > 0.1


class TestTrustedBases:
    """Framekit stores the bases it builds by QR, SVD or a unit vector
    without the public constructor's checks; this holds them to those
    checks and to the layout the constructor stores."""

    def built_subspaces(self):
        for inst in default_suite_entries(20) + spoiler_suite_entries():
            for fam in (inst.family, inst.family_v):
                if fam is not None:
                    yield from (s for s, _ in fam.members)
            if inst.meta["theorem"] == "thm3.1":
                k = inst.operators["K"]
                k_norm = operator_norm(k)
                yield range_basis(k)
                # the member images, as thm3.1's check builds them
                yield from (range_basis(k @ s.basis, scale=k_norm)
                            for s, _ in inst.family.members)

    def test_pass_the_public_checks_in_the_stored_layout(self):
        count = 0
        for s in self.built_subspaces():
            checked = Subspace(s.ambient_dim, s.basis)
            assert np.array_equal(checked.basis, s.basis)
            b = s.basis
            assert b.dtype == np.complex128
            assert b.flags.c_contiguous and not b.flags.writeable
            count += 1
        assert count > 1000
