"""Tests for the wire formats: deterministic emission, float fidelity,
and diagnostic paths on malformed documents."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit import serialize
from framekit.errors import InvalidConfig
from framekit.instances import (
    REGISTRY,
    GenSpec,
    Instance,
    build_instance,
    check_instance,
)
from framekit.frame_core import WeightedSubspaceFamily
from framekit.numerics import Subspace
from oracles import from_span
from framekit.serialize import (
    _bulk_matrix,
    _matrix_from,
    dumps,
    dumps_instance,
    instance_to_obj,
    loads_instance,
    obj_to_instance,
    report_to_obj,
)


def tiny_instance(scalar="real"):
    e1 = np.zeros((2, 1), dtype=np.complex128)
    e1[0, 0] = 1.0
    family = WeightedSubspaceFamily(
        2, ((Subspace(2, e1), 1.0), (from_span(np.eye(2)[:, 1:]), 2.0))
    )
    return Instance(
        dim=2, scalar=scalar, family=family,
        operators={"K": np.eye(2, dtype=np.complex128)},
        meta={"theorem": "thm3.1", "seed": 1, "scenario": "x", "expect": "pass"},
    )


class TestEmission:
    def test_floats_round_trip_exactly(self):
        values = [1.0 / 3.0, 1e-300, 6.02e23, -0.1, 2.0**-52]
        text = dumps(values)
        assert json.loads(text) == values

    def test_infinities_become_strings(self):
        assert dumps(math.inf) == '"inf"\n'
        assert dumps(-math.inf) == '"-inf"\n'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dumps(math.nan)

    def test_bools_stay_bools(self):
        assert dumps({"flag": True, "n": 1}) == '{"flag":true,"n":1}\n'

    def test_key_order_preserved(self):
        assert dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}\n'

    def test_trailing_newline(self):
        assert dumps([]).endswith("\n")


class TestInstanceRoundTrip:
    def test_real_instance(self):
        inst = tiny_instance()
        text = dumps_instance(inst)
        back = loads_instance(text)
        assert dumps_instance(back) == text
        assert back.dim == 2 and back.scalar == "real"
        assert back.meta["theorem"] == "thm3.1"

    def test_complex_entries_are_pairs(self):
        inst = build_instance(
            "lem3.2", GenSpec(3, 4, "invertible", {"scalar": "complex"})
        )
        obj = instance_to_obj(inst)
        entry = obj["operators"]["K"][0][0]
        assert isinstance(entry, list) and len(entry) == 2

    def test_real_instance_with_complex_leak_rejected(self):
        inst = tiny_instance()
        bad = Instance(
            dim=2, scalar="real", family=inst.family,
            operators={"K": np.eye(2) * (1 + 1e-3j)}, meta=inst.meta,
        )
        with pytest.raises(InvalidConfig):
            dumps_instance(bad)

    def test_generated_instances_round_trip_and_recheck(self):
        for tid, scenario in (
            ("thm3.4", "duplicated_axes"),
            ("thm4.4.2", "rotation"),
            ("prop4.5", "weight_shift"),
            ("thm4.7", "shifted_synthesis"),
        ):
            inst = build_instance(tid, GenSpec(11, 5, scenario))
            back = loads_instance(dumps_instance(inst))
            assert dumps_instance(back) == dumps_instance(inst)
            assert check_instance(back).passed, tid


class TestDiagnostics:
    def base_obj(self):
        return json.loads(dumps_instance(tiny_instance()))

    def assert_fails_with(self, obj, fragment):
        with pytest.raises(InvalidConfig) as err:
            obj_to_instance(obj)
        assert fragment in str(err.value)

    def test_wrong_format_tag(self):
        obj = self.base_obj()
        obj["format"] = "framekit/instance-v0"
        self.assert_fails_with(obj, "unsupported format")

    def test_bad_dim(self):
        obj = self.base_obj()
        obj["dim"] = "big"
        self.assert_fails_with(obj, "dim")

    def test_ragged_matrix_reports_row(self):
        obj = self.base_obj()
        obj["operators"]["K"] = [[1.0, 0.0], [0.0]]
        self.assert_fails_with(obj, "operators.K[1]")

    def test_non_numeric_entry_reports_cell(self):
        obj = self.base_obj()
        obj["members"][0]["basis"][0][1] = "zero"
        self.assert_fails_with(obj, "members[0].basis[0][1]")

    def test_skewed_basis_reports_member(self):
        obj = self.base_obj()
        obj["members"][0]["basis"] = [[1.0, 1.0]]
        self.assert_fails_with(obj, "members[0].basis")

    def test_operator_column_mismatch(self):
        obj = self.base_obj()
        obj["operators"]["K"] = [[1.0], [0.0]]
        self.assert_fails_with(obj, "columns")

    def test_erased_wants_integers(self):
        obj = self.base_obj()
        obj["erased"] = [0.5]
        self.assert_fails_with(obj, "erased")

    def test_missing_weight(self):
        obj = self.base_obj()
        del obj["members"][0]["weight"]
        self.assert_fails_with(obj, "members[0].weight")

    def test_not_json(self):
        with pytest.raises(InvalidConfig):
            loads_instance("][")


class TestBasisDiagnostics:
    """The decoder tests a family's bases in one batched pass, yet reports
    the first faulty member by its path, as a test per member would."""

    def wide_obj(self, n=8):
        # the n axes, then the planes (e0, e1) and (e2, e3), in both families
        rows = np.eye(n).tolist()
        members = [{"weight": 1.0, "basis": [row]} for row in rows]
        members += [{"weight": 0.5, "basis": rows[j:j + 2]} for j in (0, 2)]
        return {
            "format": serialize.INSTANCE_FORMAT, "dim": n, "scalar": "real",
            "members": members, "members_v": json.loads(json.dumps(members)),
            "operators": {"K": rows}, "erased": [],
            "meta": {"theorem": "thm3.1", "seed": 1},
        }

    def message(self, obj):
        with pytest.raises(InvalidConfig) as err:
            obj_to_instance(obj)
        return str(err.value)

    def test_the_wide_document_decodes(self):
        inst = obj_to_instance(self.wide_obj())
        assert [s.dim for s, _ in inst.family.members] == [1] * 8 + [2, 2]
        assert len(inst.family_v) == 10

    @pytest.mark.parametrize("key", ["members", "members_v"])
    @pytest.mark.parametrize("k", [0, 5, 7, 8, 9])
    def test_names_the_one_skewed_member(self, key, k):
        obj = self.wide_obj()
        basis = obj[key][k]["basis"]
        basis[0] = [2.0 * x for x in basis[0]]
        assert self.message(obj) == (
            f"{key}[{k}].basis: basis columns are not orthonormal")

    @pytest.mark.parametrize("drift, decodes", [(0.6e-12, True), (1.5e-12, False)])
    def test_spectral_drift_decides_past_the_frobenius_test(self, drift, decodes):
        # B* B - I = drift I on a plane: Frobenius sqrt(2) drift is above
        # the batched test's 0.5e-12, so the spectral drift decides
        obj = self.wide_obj()
        c = math.sqrt(1.0 + drift)
        obj["members"][8]["basis"] = [[c * x for x in row]
                                      for row in obj["members"][8]["basis"]]
        b = np.array(obj["members"][8]["basis"]).T
        frobenius = np.linalg.norm(b.T @ b - np.eye(2))
        assert 0.5e-12 < frobenius and abs(frobenius / math.sqrt(2) - drift) < 1e-15
        if not decodes:
            assert self.message(obj) == (
                "members[8].basis: basis columns are not orthonormal")
            return
        inst = obj_to_instance(obj)
        assert np.array_equal(inst.family.members[8][0].basis, b)

    @pytest.mark.parametrize("later", ["weight", "entry", "sign"])
    def test_an_earlier_skewed_member_is_reported_first(self, later):
        obj = self.wide_obj()
        obj["members"][3]["basis"] = [[1.0, 1.0] + [0.0] * 6]
        if later == "weight":
            obj["members"][6]["weight"] = "heavy"
        elif later == "entry":
            obj["members"][6]["basis"][0][2] = "zero"
        else:
            obj["members"][6]["weight"] = -1.0
        assert self.message(obj) == (
            "members[3].basis: basis columns are not orthonormal")

    def test_a_later_malformed_member_is_reported_after_good_ones(self):
        obj = self.wide_obj()
        obj["members"][6]["weight"] = "heavy"
        assert self.message(obj) == "members[6].weight: expected a real number"


NUMBERS = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-(10**30), 10**30),
    st.sampled_from([-0.0, 2**53 + 1, -(2**63) - 7, 10**30]),
)
JUNK = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(), st.just(10**400),
    st.lists(st.integers(0, 3), max_size=3),
)
MUTATIONS = ("none", "entry", "component", "pair_length", "ragged", "row",
             "width")


@st.composite
def row_lists(draw):
    """A (possibly mutated) JSON row list with its scalar kind and width."""
    cx = draw(st.booleans())
    n_rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def entry():
        return [draw(NUMBERS), draw(NUMBERS)] if cx else draw(NUMBERS)

    obj = [[entry() for _ in range(width)] for _ in range(n_rows)]
    mutation = draw(st.sampled_from(MUTATIONS))
    i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
    if mutation == "entry":
        obj[i][j] = draw(JUNK)
    elif mutation == "component" and cx:
        obj[i][j][draw(st.integers(0, 1))] = draw(JUNK)
    elif mutation == "pair_length" and cx:
        obj[i][j] = obj[i][j][:1] if draw(st.booleans()) else obj[i][j] + [0.0]
    elif mutation == "ragged":
        obj[i] = obj[i][:-1] if draw(st.booleans()) else obj[i] + [entry()]
    elif mutation == "row":
        obj[i] = draw(JUNK)
    elif mutation == "width":
        width += 1
    return obj, cx, width, mutation


def per_entry_only():
    """Turn the bulk path off, leaving the per-entry decoder."""
    return mock.patch.object(serialize, "_bulk_matrix", return_value=None)


def fingerprint(m):
    return m.dtype, m.shape, m.tobytes()


def decoded(obj, cx, cols):
    """What _matrix_from makes of a row list: the array's bytes or the error."""
    try:
        return fingerprint(_matrix_from(obj, cx, "m", cols))
    except (InvalidConfig, OverflowError) as exc:
        return type(exc), str(exc)


def instance_arrays(inst):
    families = [inst.family] + ([inst.family_v] if inst.family_v else [])
    bases = [s.basis for fam in families for s, _ in fam.members]
    return bases + [inst.operators[name] for name in sorted(inst.operators)]


class TestBulkDecoding:
    @settings(max_examples=300, deadline=None)
    @given(case=row_lists())
    def test_agrees_with_the_per_entry_decoder(self, case):
        obj, cx, cols, mutation = case
        if mutation == "none":
            assert _bulk_matrix(obj, cx, cols) is not None
        fast = decoded(obj, cx, cols)
        with per_entry_only():
            assert fast == decoded(obj, cx, cols)

    def test_signed_zeros_survive(self):
        real = _matrix_from([[-0.0, 0.0]], False, "m", 2)
        cplx = _matrix_from([[[-0.0, -0.0], [0.0, -0.0]]], True, "m", 2)
        assert list(np.signbit(real.real[0])) == [True, False]
        assert list(np.signbit(cplx.real[0])) == [True, False]
        assert list(np.signbit(cplx.imag[0])) == [True, True]

    @pytest.mark.parametrize("scalar", ["real", "complex"])
    def test_generated_instances_decode_identically(self, scalar):
        for tid, entry in REGISTRY.items():
            scenario = entry.scenarios[0]
            inst = build_instance(tid, GenSpec(21, 6, scenario, {"scalar": scalar}))
            text = dumps_instance(inst)
            fast = instance_arrays(loads_instance(text))
            with per_entry_only():
                slow = instance_arrays(loads_instance(text))
            assert list(map(fingerprint, fast)) == list(map(fingerprint, slow))


class TestReportEmission:
    def test_nested_parts_serialized(self):
        inst = build_instance("lem3.2", GenSpec(4, 4, "drazin_core"))
        report = check_instance(inst)
        obj = report_to_obj(report)
        assert obj["format"] == "framekit/report-v1"
        assert [p["theorem_id"] for p in obj["parts"]] == [
            "lem3.2:sks", "lem3.2:sk", "lem3.2:ks",
        ]
        # serialization must not choke on any report field
        text = dumps(obj)
        assert json.loads(text)["passed"] is True
