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


SPECIAL_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, 1e300, -1e300,
    math.inf, -math.inf, math.nan])
EMIT_CELLS = st.one_of(
    st.integers(-(10**30), 10**30), st.booleans(),
    st.floats().map(np.float64), st.none(),
)


@st.composite
def emitted_rows(draw):
    """Rows of floats or [float, float] pairs, possibly with a cell of
    another kind, a ragged or empty row, or a pair of length 1 or 3; and
    whether the rows are all finite floats that the bulk format takes."""
    cx = draw(st.booleans())
    n_rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    finite = draw(st.booleans())
    number = (st.floats(allow_nan=False, allow_infinity=False) if finite
              else st.one_of(st.floats(), SPECIAL_FLOATS))

    def cell():
        return [draw(number), draw(number)] if cx else draw(number)

    rows = [[cell() for _ in range(width)] for _ in range(n_rows)]
    mutation = draw(st.sampled_from(
        ("none", "none", "cell", "ragged", "empty", "pair_length")))
    i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
    if mutation == "cell":
        if cx and draw(st.booleans()):
            rows[i][j][draw(st.integers(0, 1))] = draw(EMIT_CELLS)
        else:
            rows[i][j] = draw(EMIT_CELLS)
    elif mutation == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [cell()]
    elif mutation == "empty":
        rows = [[] for _ in rows] if draw(st.booleans()) else []
    elif mutation == "pair_length" and cx:
        rows[i][j] = rows[i][j][:1] if draw(st.booleans()) else rows[i][j] + [0.5]
    return rows, mutation == "none" and finite


def emitted(rows):
    """_emit's text for ``rows``, or the error it raises."""
    try:
        return serialize._emit(rows)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


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

    @staticmethod
    def members_doc(cx):
        """Members in dimension 4: the axis e0, the plane (e1, e2) and the
        axis e3, the last with an integer weight."""
        rows = np.eye(4).tolist()
        if cx:
            rows = [[[x, 0.0] for x in row] for row in rows]
        return [{"weight": 1.0, "basis": [rows[0]]},
                {"weight": 0.5, "basis": rows[1:3]},
                {"weight": 2, "basis": [rows[3]]}]

    @staticmethod
    def family_decoded(members, cx):
        """What _family_from makes of a member list: each basis's bytes,
        its read-only flag and its weight, or the error."""
        try:
            family = serialize._family_from(members, 4, cx, "members")
        except InvalidConfig as exc:
            return type(exc), str(exc)
        return [(fingerprint(s.basis), s.basis.flags.writeable, w)
                for s, w in family.members]

    @staticmethod
    def skew(row):
        return [[2.0 * x for x in v] if isinstance(v, list) else 2.0 * v
                for v in row]

    FAMILY_MUTATIONS = {
        "none": lambda m: None,
        "bool_weight": lambda m: m[1].update(weight=True),
        "string_weight": lambda m: m[1].update(weight="0.5"),
        "null_weight": lambda m: m[1].update(weight=None),
        "huge_int_weight": lambda m: m[1].update(weight=10**400),
        "overflowing_weight": lambda m: m[1].update(weight=json.loads("1e400")),
        "nan_weight": lambda m: m[1].update(weight=math.nan),
        "zero_weight": lambda m: m[1].update(weight=0),
        "negative_weight": lambda m: m[1].update(weight=-0.5),
        "not_an_object": lambda m: m.__setitem__(1, m[1]["basis"]),
        "no_basis": lambda m: m[1].pop("basis"),
        "empty_basis": lambda m: m[1].update(basis=[]),
        "more_vectors_than_dim": lambda m: m[1].update(
            basis=m[1]["basis"] + m[0]["basis"] + m[2]["basis"] + m[1]["basis"][:1]),
        "rows_wider_than_dim": lambda m: [row.append(row[0]) for row in m[1]["basis"]],
        "skew_before_a_good_one": lambda m: m[0].update(
            basis=[TestBulkDecoding.skew(m[0]["basis"][0])]),
        "skew_after_a_good_one": lambda m: m[2].update(
            basis=[TestBulkDecoding.skew(m[2]["basis"][0])]),
    }

    @pytest.mark.parametrize("cx", [False, True])
    @pytest.mark.parametrize("mutation", list(FAMILY_MUTATIONS))
    def test_family_path_agrees_with_the_per_member_decoder(self, cx, mutation):
        members = self.members_doc(cx)
        self.FAMILY_MUTATIONS[mutation](members)
        fast = self.family_decoded(members, cx)
        with mock.patch.object(serialize, "_bulk_members", return_value=None):
            assert fast == self.family_decoded(members, cx)
        # the faults left to _members and the family's constructor pass here
        bulk = mutation in ("none", "more_vectors_than_dim", "zero_weight",
                            "negative_weight") or mutation.startswith("skew")
        assert (serialize._bulk_members(members, 4, cx) is not None) == bulk

    def test_a_well_formed_family_is_one_conversion(self):
        for cx in (False, True):
            with mock.patch.object(serialize, "_bulk_matrix",
                                   wraps=serialize._bulk_matrix) as bulk:
                serialize._family_from(self.members_doc(cx), 4, cx, "members")
            assert bulk.call_count == 1


def emit_calls(inst):
    with mock.patch.object(serialize, "_emit", wraps=serialize._emit) as emit:
        dumps_instance(inst)
    return emit.call_count


class TestBulkEmission:
    def test_matrix_size_adds_no_emit_calls(self):
        # two members, each half the axes, and K = I: a matrix is one call
        def halves(dim):
            e = np.eye(dim, dtype=np.complex128)
            family = WeightedSubspaceFamily(dim, (
                (Subspace(dim, e[:, :dim // 2]), 1.0),
                (Subspace(dim, e[:, dim // 2:]), 2.0)))
            return Instance(dim=dim, scalar="complex", family=family,
                            operators={"K": e},
                            meta={"theorem": "thm3.1", "seed": 1})
        assert emit_calls(halves(32)) == emit_calls(halves(2))

    @settings(max_examples=300, deadline=None)
    @given(case=emitted_rows())
    def test_agrees_with_the_per_value_emitter(self, case):
        rows, bulk = case
        fast = emitted(rows)
        with mock.patch.object(serialize, "_float_rows", return_value=None):
            assert fast == emitted(rows)
        if bulk:
            assert serialize._float_rows(rows) is not None

    def test_negative_zero_prints_as_zero(self):
        assert dumps([[-0.0, 0.0], [1.0, -0.5]]) == "[[0,0],[1,-0.5]]\n"
        assert dumps([[[-0.0, -0.0]]]) == "[[[0,0]]]\n"


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
