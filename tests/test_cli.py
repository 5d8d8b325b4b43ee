"""End-to-end tests for the command line front end: exit codes, file
round-trips, and byte-identical suite reports."""

import contextlib
import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framekit.cli
from framekit.cli import main
from framekit.errors import (
    DimensionMismatch,
    HypothesisFailed,
    IllConditionedSplit,
    NonFinite,
    NotHermitian,
    NotPSD,
    NotSquare,
    OracleMismatch,
)
from framekit.frame_core import WeightedSubspaceFamily
from framekit.instances import (
    REGISTRY,
    GenSpec,
    Instance,
    build_instance,
    check_instance,
)
from framekit.numerics import Subspace
from framekit.serialize import dumps_instance, instance_to_obj, loads_instance
from framekit.theorems import PerturbationConstants


NOT_UTF8 = b"\xff\xfe\x00bad"


def write_instance(tmp_path, theorem, scenario, seed=3, dim=4, name="inst.json"):
    inst = build_instance(theorem, GenSpec(seed, dim, scenario))
    path = tmp_path / name
    path.write_text(dumps_instance(inst))
    return path


class TestGen:
    def test_writes_round_trippable_files(self, tmp_path, capsys):
        code = main([
            "gen", "--theorem", "lem4.1", "--seed", "9", "--dim", "5",
            "--count", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 3
        for line in printed:
            text = (tmp_path / line.split("/")[-1]).read_text()
            # parse and re-serialize: bytes must survive the round trip
            assert dumps_instance(loads_instance(text)) == text

    def test_single_count_uses_seed_directly(self, tmp_path):
        code = main([
            "gen", "--theorem", "thm4.6", "--seed", "5", "--dim", "4",
            "--scenario", "parseval_exact", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "thm4.6_5.json").exists()

    def test_bad_theorem_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--theorem", "thm9.9", "--out", str(tmp_path)])
        assert err.value.code == 3

    @pytest.mark.parametrize("theorem, scenario", [
        ("thm4.7", "parseval_exact"), ("prop4.5", "identical"),
        ("thm4.4.2", "inadmissible_b"), ("thm4.4.3", "inadmissible_a"),
        ("thm4.4.1", "budget_half"), ("thm4.4.1", "false_constants"),
        ("prop4.5", "inadmissible_a"),
    ])
    def test_foreign_scenario_exits_three_and_writes_nothing(
            self, tmp_path, capsys, theorem, scenario):
        code = main([
            "gen", "--theorem", theorem, "--seed", "3", "--scenario", scenario,
            "--out", str(tmp_path),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"scenario {scenario!r} unknown for {theorem}" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_subcommand_prints_help(self, capsys):
        assert main([]) == 3
        assert "COMMAND" in capsys.readouterr().out


def test_one_parser_serves_consecutive_calls(tmp_path, capsys):
    # the parser is built once per process; each call parses afresh, so an
    # option given to one call does not carry over to the next
    path = write_instance(tmp_path, "lem4.1", "additive")
    csv_out = tmp_path / "reports.csv"
    assert main(["check", str(path), "--format", "csv", "--tol", "1e-6",
                 "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("theorem,seed,")
    suite_out = tmp_path / "suite.json"
    assert main(["suite", "--n-per-theorem", "1", "--seed", "5",
                 "--out", str(suite_out)]) == 0
    assert json.loads(suite_out.read_text())["base_seed"] == 5
    json_out = tmp_path / "reports.json"
    assert main(["check", str(path), "--out", str(json_out)]) == 0
    assert json.loads(json_out.read_text())[0]["theorem_id"] == "lem4.1"
    assert framekit.cli._build_parser() is framekit.cli._build_parser()


class TestCheck:
    def test_passing_file_exits_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path, "thm4.6", "parseval_exact")
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "thm4.6" in out and "status=pass" in out

    def test_spoiler_file_exits_two(self, tmp_path, capsys):
        # check reports the raw outcome; the declared expectation is ignored
        path = write_instance(tmp_path, "thm3.1", "non_idempotent")
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr().out
        assert "status=hypothesis_failed" in out
        assert "detail=HypothesisFailed" in out

    def test_bounds_out_of_order_exit_one(self, tmp_path, capsys):
        # prop4.5 with the families swapped, K doubled and R quartered: the
        # paper's upper constant B + R||K|| falls below the actual bound,
        # which the Cauchy-Schwarz form B + R||K||^2 in the notes covers
        inst = build_instance("prop4.5", GenSpec(0, 3, "weight_shift"))
        inst = dataclasses.replace(
            inst, family=inst.family_v, family_v=inst.family,
            operators={"K": 2.0 * inst.operators["K"]},
            quadratic_bound=inst.quadratic_bound / 4.0)
        path, out = tmp_path / "inst.json", tmp_path / "report.json"
        path.write_text(dumps_instance(inst))
        assert main(["check", str(path), "--out", str(out)]) == 1
        assert "status=fail" in capsys.readouterr().out
        (report,) = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["lower_margin"] >= 0.0
        assert report["upper_margin"] == pytest.approx(-0.355, abs=1e-3)
        assert (report["predicted"]["upper"] < report["actual"]["upper"]
                <= report["notes"]["cauchy_schwarz_upper"])

    def test_undecided_hypothesis_exits_two(self, tmp_path, capsys):
        # three nonzero constants: true here, but past what the merged
        # level-set certificate proves, and no witness refutes it
        inst = build_instance("thm4.7", GenSpec(1, 3, "shifted_synthesis",
                                                {"scalar": "real"}))
        c = inst.constants
        inst = dataclasses.replace(inst, constants=PerturbationConstants(0.1, c.b, c.c))
        path = tmp_path / "inst.json"
        path.write_text(dumps_instance(inst))
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr().out
        assert ("status=hypothesis_failed detail=HypothesisUndecided: hypothesis "
                "undecided: neither a certificate nor a witness decides it") in out

    def test_json_report_written(self, tmp_path):
        path = write_instance(tmp_path, "prop4.5", "weight_shift")
        out = tmp_path / "reports.json"
        assert main(["check", str(path), "--out", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 1
        assert reports[0]["format"] == "framekit/report-v1"
        assert reports[0]["theorem_id"] == "prop4.5"
        assert reports[0]["passed"] is True

    def test_csv_report_written(self, tmp_path):
        path = write_instance(tmp_path, "lem3.2", "invertible")
        out = tmp_path / "reports.csv"
        assert main([
            "check", str(path), "--format", "csv", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("theorem,seed,dim,scalar,scenario")
        assert lines[1].startswith("lem3.2")
        assert float(lines[1].split(",")[-1]) > 0.0

    def test_multiple_files_worst_status_wins(self, tmp_path):
        good = write_instance(tmp_path, "thm4.6", "parseval_exact", name="a.json")
        bad = write_instance(tmp_path, "lem3.2", "nilpotent", name="b.json")
        assert main(["check", str(good), str(bad)]) == 2

    def test_unreadable_file_exits_three(self, tmp_path):
        assert main(["check", str(tmp_path / "missing.json")]) == 3

    def test_non_utf8_file_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(NOT_UTF8)
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not UTF-8" in err

    def test_malformed_json_exits_three(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_wrong_schema_exits_three(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"format": "framekit/instance-v1", "dim": "huge"}')
        assert main(["check", str(path)]) == 3

    def check_edited(self, tmp_path, capsys, theorem, scenario, edit):
        path = write_instance(tmp_path, theorem, scenario)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        code = main(["check", str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("theorem, scenario, key", [
        ("thm3.1", "dressed_subset", "members"),
        ("thm4.4.1", "weight_shift", "members_v"),
    ])
    def test_basis_wider_than_dim_names_its_path(self, tmp_path, capsys,
                                                 theorem, scenario, key):
        # four vectors in a dim-3 space: the constructor's DimensionMismatch
        # reaches the user as a config error on the member's basis
        path = write_instance(tmp_path, theorem, scenario, dim=3)
        obj = json.loads(path.read_text())

        def entry(x):
            return [x, 0.0] if obj["scalar"] == "complex" else x

        obj[key][0]["basis"] = [[entry(float(i == j % 3)) for i in range(3)]
                                for j in range(4)]
        path.write_text(json.dumps(obj))
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert (f"config error: {key}[0].basis: more basis columns than "
                "ambient dimensions") in err
        assert "DimensionMismatch" not in err and "Traceback" not in err

    @pytest.mark.parametrize("erased", [[99], [-1], "all"])
    def test_bad_erased_exits_three(self, tmp_path, capsys, erased):
        def edit(obj):
            obj["erased"] = (
                list(range(len(obj["members"]))) if erased == "all" else erased
            )

        code, err = self.check_edited(tmp_path, capsys, "thm3.4",
                                      "duplicated_axes", edit)
        assert code == 3
        assert "config error: erased:" in err and "Traceback" not in err

    @pytest.mark.parametrize("seed", ["abc", 1.5, True, None])
    def test_non_integer_seed_exits_three(self, tmp_path, capsys, seed):
        code, err = self.check_edited(
            tmp_path, capsys, "thm4.6", "parseval_exact",
            lambda obj: obj["meta"].update(seed=seed),
        )
        assert code == 3
        assert "config error: meta.seed:" in err and "Traceback" not in err

    @pytest.mark.parametrize("theorem", ["bogus", None, 7, [], {}])
    def test_bad_meta_theorem_exits_three(self, tmp_path, capsys, theorem):
        def edit(obj):
            if theorem is None:
                del obj["meta"]["theorem"]
            else:
                obj["meta"]["theorem"] = theorem

        code, err = self.check_edited(tmp_path, capsys, "thm4.6",
                                      "parseval_exact", edit)
        assert code == 3
        assert "config error: meta.theorem: expected one of thm3.1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("theorem, scenario, field, edit", [
        ("thm4.6", "parseval_exact", "operators.K",
         lambda obj: obj["operators"].pop("K")),
        ("thm4.6", "parseval_exact", "operators.K",
         lambda obj: obj["operators"].update(K1=obj["operators"]["K"],
                                             K2=obj["operators"].pop("K"))),
        ("lem4.1", "additive", "operators.K2",
         lambda obj: obj["operators"].pop("K2")),
        ("thm4.4.2", "rotation", "members_v", lambda obj: obj.pop("members_v")),
        ("thm4.7", "shifted_synthesis", "constants",
         lambda obj: obj.pop("constants")),
        ("prop4.5", "rotation", "quadratic_bound",
         lambda obj: obj.pop("quadratic_bound")),
    ])
    def test_missing_field_exits_three(self, tmp_path, capsys, theorem,
                                       scenario, field, edit):
        code, err = self.check_edited(tmp_path, capsys, theorem, scenario, edit)
        assert code == 3
        assert f"config error: {field}: missing; {theorem} requires it" in err

    @pytest.mark.parametrize("scalar, value", [
        ("real", 10**400), ("real", float("inf")), ("complex", [1.0, 10**400]),
    ])
    def test_entry_beyond_float_range_exits_three(self, tmp_path, capsys,
                                                  scalar, value):
        inst = build_instance("thm4.6", GenSpec(
            3, 4, "scaled_synthesis", {"scalar": scalar}))
        obj = json.loads(dumps_instance(inst))
        obj["operators"]["K"][0][0] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert "config error: operators.K[0][0]: expected a finite number" in err

    @pytest.mark.parametrize("theorem, scenario, edit", [
        ("thm4.6", "parseval_exact",
         lambda obj: obj["members"][0].update(weight=10**400)),
        ("thm4.6", "parseval_exact", lambda obj: obj["constants"].update(a=10**400)),
        ("prop4.5", "rotation", lambda obj: obj.update(quadratic_bound=10**400)),
    ])
    def test_scalar_beyond_float_range_exits_three(self, tmp_path, capsys,
                                                   theorem, scenario, edit):
        code, err = self.check_edited(tmp_path, capsys, theorem, scenario, edit)
        assert code == 3 and "config error:" in err

    @pytest.mark.parametrize("theorem, scenario, scalar, keys, field", [
        ("thm3.4", "duplicated_axes", "complex", ("operators", "K"),
         "operators.K[0][0]"),
        ("lem4.1", "additive", "complex", ("operators", "K1"),
         "operators.K1[0][0]"),
        ("lem4.1", "additive", "real", ("operators", "K1"), "operators.K1[0][0]"),
        ("thm4.6", "parseval_exact", "real", ("members", 0, "basis"),
         "members[0].basis[0][0]"),
    ])
    def test_entry_above_magnitude_limit_exits_three(self, tmp_path, capsys,
                                                     theorem, scenario, scalar,
                                                     keys, field):
        # finite, but K K* and D D* would overflow
        inst = build_instance(theorem, GenSpec(5, 4, scenario, {"scalar": scalar}))
        obj = json.loads(dumps_instance(inst))
        matrix = obj
        for key in keys:
            matrix = matrix[key]
        matrix[0][0] = [1e200, 0.0] if obj["scalar"] == "complex" else 1e200
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"config error: {field}: magnitude above 1e+100" in err

    def test_weight_above_magnitude_limit_exits_three(self, tmp_path, capsys):
        code, err = self.check_edited(
            tmp_path, capsys, "thm4.6", "scaled_synthesis",
            lambda obj: obj["members"][1].update(weight=1e200),
        )
        assert code == 3
        assert "config error: members[1].weight: magnitude above 1e+100" in err

    @pytest.mark.parametrize("field, value", [
        ("quadratic_bound", float("nan")),
        ("quadratic_bound", float("inf")),
        ("quadratic_bound", float("-inf")),
        ("quadratic_bound", True),
        ("quadratic_bound", "0.1"),
        ("quadratic_bound", 1e200),
        ("members[0].weight", "1.5"),
        ("members[0].weight", True),
        ("members_v[1].weight", float("nan")),
        ("constants.a", True),
        ("constants.b", float("-inf")),
        ("constants.c", "0.1"),
        ("operators.K[0][0]", [True, 0]),
    ])
    def test_one_number_rule(self, tmp_path, capsys, field, value):
        # every number of an instance file, weights, constants and the
        # quadratic budget included, is a finite JSON number of magnitude
        # at most 1e100; complex entries are pairs of them
        def edit(obj):
            *keys, last = [int(k) if k.isdigit() else k
                           for k in re.findall(r"[^.\[\]]+", field)]
            target = obj
            for key in keys:
                target = target[key]
            target[last] = value

        theorem, scenario = (("thm4.6", "parseval_exact")
                             if field.startswith("constants")
                             else ("prop4.5", "weight_shift"))
        code, err = self.check_edited(tmp_path, capsys, theorem, scenario, edit)
        assert code == 3
        assert f"config error: {field}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("theorem, scenario, factor", [
        ("thm4.6", "scaled_synthesis", 1e80),
        ("thm4.7", "shifted_synthesis", 1e80),
        ("thm4.7", "shifted_synthesis", 1e99),
    ])
    def test_overflow_to_non_finite_exits_three(self, tmp_path, capsys,
                                                recwarn, theorem, scenario,
                                                factor):
        # every weight stays under the decoder's 1e100 limit, but the
        # checker's products of them overflow
        inst = build_instance(theorem, GenSpec(1, 3, scenario))
        obj = json.loads(dumps_instance(inst))
        for member in obj["members"]:
            member["weight"] *= factor
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "framekit: NonFinite: matrix has non-finite entries\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("s", [1e-17, 1e-12, 1e-10, 1e-6])
    def test_tiny_non_idempotent_operator_exits_two(self, tmp_path, capsys, s):
        # K = s [[0, 1], [1, 0]] is not idempotent at any s > 0, however
        # small its residual ||K^2 - K|| is
        inst = build_instance("thm3.1", GenSpec(59298, 2, "non_idempotent"))
        obj = json.loads(dumps_instance(inst))
        obj["operators"]["K"] = [[0.0, s], [s, 0.0]]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(HypothesisFailed, match="not idempotent"):
            check_instance(loads_instance(path.read_text()))
        assert main(["check", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("factor", [1.0, 1e10, 1e40])
    def test_scaled_erasure_overload_exits_two(self, tmp_path, capsys, factor):
        # scaling every weight leaves the erased mass equal to the lower
        # bound; only a rounding residue of either sign is left of the
        # difference, and it must not decide the verdict
        for seed in range(5):
            inst = build_instance("thm3.4", GenSpec(seed, 4, "erasure_overload"))
            obj = json.loads(dumps_instance(inst))
            for member in obj["members"]:
                member["weight"] *= factor
            path = tmp_path / f"scaled_{seed}.json"
            path.write_text(json.dumps(obj))
            with pytest.raises(HypothesisFailed) as failed:
                check_instance(loads_instance(path.read_text()))
            # the residual is the shortfall against tol * A, never negative
            assert failed.value.residual >= 0.0
            assert main(["check", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("error", [
        OracleMismatch, NotHermitian, NotPSD, IllConditionedSplit,
        NonFinite, DimensionMismatch, NotSquare,
    ])
    def test_numerical_refusal_exits_three(self, tmp_path, capsys, monkeypatch,
                                           error):
        def refuse(*args, **kwargs):
            raise error("refused")

        monkeypatch.setattr(framekit.cli, "check_instance", refuse)
        path = write_instance(tmp_path, "lem4.1", "additive")
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == f"framekit: {error.__name__}: refused\n"

    @pytest.mark.parametrize("theorem, scenario", [
        ("lem4.1", "additive"),
        ("thm4.4.2", "rotation"),
        ("thm4.6", "scaled_synthesis"),
        ("thm4.7", "shifted_synthesis"),
    ])
    def test_report_carries_the_certified_violation(self, tmp_path, theorem,
                                                    scenario):
        path = write_instance(tmp_path, theorem, scenario)
        out = tmp_path / "reports.json"
        assert main(["check", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())[0]
        assert list(report)[:9] == ["format", "theorem_id", "passed", "predicted",
                                    "actual", "lower_margin", "upper_margin",
                                    "residuals", "notes"]
        assert "hypothesis_certificate" not in report["notes"]
        assert report["residuals"]["hypothesis_violation"] <= 1e-9


def axes(*weights, ambient=2):
    """Members (e_i, w_i) on the first coordinate axes."""
    eye = np.eye(ambient)
    return WeightedSubspaceFamily(ambient, tuple(
        (Subspace(ambient, eye[:, [i]]), w) for i, w in enumerate(weights)))


def precedence_case(theorem, bad, good):
    """Instances of ``theorem`` whose operator hypothesis fails: one with
    the fields ``bad``, which also fail a test that reads only constants,
    and one with the admissible fields ``good``."""
    source, target = axes(1.0, 1.0), axes(1e-3, 1e-3)
    base = {
        "lem4.1": dict(family=source,
                       operators={"K1": np.eye(2), "K2": np.zeros((2, 2))}),
        "thm4.4.1": dict(family=source, family_v=target),
        "thm4.4.2": dict(family=source, family_v=target,
                         operators={"K": np.eye(2)}),
        "thm4.4.3": dict(family=source, family_v=target),
        # the source family misses K's range: it is no K-fusion frame
        "prop4.5": dict(family=axes(1.0), family_v=axes(0.5),
                        operators={"K": np.eye(2)}),
        "thm4.6": dict(family=source, operators={"K": np.zeros((2, 2))}),
        "thm4.7": dict(family=source, operators={"K": np.zeros((2, 2))}),
    }[theorem]
    meta = {"theorem": theorem, "seed": 0}
    return (Instance(2, "real", **base, **bad, meta=meta),
            Instance(2, "real", **base, **good, meta=meta))


PRECEDENCE = [
    ("lem4.1", PerturbationConstants(0.5, 1.5), PerturbationConstants(0.5, 0.0),
     "b = 1.5 must be below 1"),
    ("thm4.4.1", PerturbationConstants(0.0, 1.5), PerturbationConstants(0.0, 0.5),
     "b = 1.5 must be below 1"),
    ("thm4.4.2", PerturbationConstants(0.0, 1.5), PerturbationConstants(0.0, 0.5),
     "a = 0.0 and b = 1.5 must both be below 1"),
    ("thm4.4.3", PerturbationConstants(0.0, 1.5), PerturbationConstants(0.0, 0.5),
     "b = 1.5 must be below 1"),
    ("prop4.5", 0.0, 0.5, "deviation budget R = 0.0 must be positive"),
    ("thm4.6", PerturbationConstants(1.5, 0.0), PerturbationConstants(0.5, 0.0),
     "a = 1.5 must be below 1"),
    ("thm4.7", PerturbationConstants(1.5, 0.0), PerturbationConstants(0.5, 0.0),
     "a + c ||Kdag|| = 1.500000e+00 must stay below 1"),
]


class TestClausePrecedence:
    """A test that reads only the constants runs before any operator work,
    so an instance that fails both reports the constant's clause; the exit
    code is 2 either way."""

    @pytest.mark.parametrize("theorem, bad, good, clause", PRECEDENCE,
                             ids=[case[0] for case in PRECEDENCE])
    def test_constant_clause_comes_first(self, tmp_path, capsys, theorem, bad,
                                         good, clause):
        key = "quadratic_bound" if theorem == "prop4.5" else "constants"
        failing, admissible = precedence_case(theorem, {key: bad}, {key: good})
        with pytest.raises(HypothesisFailed) as operator_failure:
            check_instance(admissible)
        assert operator_failure.value.clause != clause
        with pytest.raises(HypothesisFailed) as constant_failure:
            check_instance(failing)
        assert constant_failure.value.clause == clause
        for name, inst, expected in (
            ("failing.json", failing, clause),
            ("admissible.json", admissible, operator_failure.value.clause),
        ):
            path = tmp_path / name
            path.write_text(dumps_instance(inst))
            assert main(["check", str(path)]) == 2
            assert f": {expected}\n" in capsys.readouterr().out


BAD_CONFIG_VALUES = [
    ("threads", "x"), ("threads", 1.5), ("threads", True),
    ("n_per_theorem", "5"), ("n_per_theorem", False),
    ("base_seed", 7.0), ("base_seed", True),
    ("tol", [1]), ("tol", "1e-9"), ("tol", True), ("tol", 0),
    ("tol", -1e-9), ("tol", float("inf")), ("tol", float("nan")),
    ("tol", 10**400),
    ("include_spoilers", "yes"), ("include_spoilers", 1),
]
# the bad tol values a command line can spell: 0, -1e-9, inf, nan, 10**400
BAD_TOLS = [value for key, value in BAD_CONFIG_VALUES if key == "tol"
            and isinstance(value, (int, float)) and not isinstance(value, bool)]


class TestSuite:
    def run_suite(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = main([
            "suite", "--n-per-theorem", "1", "--out", str(out), *extra,
        ])
        return code, out

    def test_small_sweep_passes(self, tmp_path, capsys):
        code, out = self.run_suite(tmp_path, "suite.json")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["format"] == "framekit/suite-v1"
        assert report["counts"] == {"pass": 10, "fail": 0, "hypothesis_failed": 0}
        assert len(report["results"]) == 10
        assert all("wall_time_s" not in row for row in report["results"])
        stdout = capsys.readouterr().out
        assert "thm3.1: 1/1 pass" in stdout

    def test_json_report_is_byte_identical(self, tmp_path):
        _, first = self.run_suite(tmp_path, "one.json")
        _, second = self.run_suite(tmp_path, "two.json")
        assert first.read_bytes() == second.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        _, one = self.run_suite(tmp_path, "one.json", ("--threads", "1"))
        _, four = self.run_suite(tmp_path, "four.json", ("--threads", "4"))
        assert one.read_bytes() == four.read_bytes()

    def test_spoilers_fold_into_pass(self, tmp_path):
        code, out = self.run_suite(tmp_path, "with_spoilers.json", ("--spoilers",))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["include_spoilers"] is True
        assert report["counts"]["pass"] == 20
        rejected = [
            row for row in report["results"]
            if row["expect"] == "hypothesis_failed"
        ]
        assert len(rejected) == 10
        assert all(row["status"] == "pass" for row in rejected)

    def test_spoiler_rows_carry_the_rejected_clause(self, tmp_path):
        _, out = self.run_suite(tmp_path, "with_spoilers.json", ("--spoilers",))
        rows = json.loads(out.read_text())["results"]
        assert all(list(row) == list(framekit.cli._CSV_COLUMNS[:-1]) for row in rows)
        details = {(row["theorem"], row["scenario"]): row["detail"] for row in rows
                   if row["expect"] == "hypothesis_failed"}
        assert len(details) == 10 and all(details.values())
        assert details["lem4.1", "false_constants"] == (
            "HypothesisFailed: perturbation inequality fails at a witness vector")
        assert details["thm4.4.1", "inadmissible_b"] == (
            "AdmissibilityFailed: b = 1.5 must be below 1")
        assert all(row["detail"] is None for row in rows if row["expect"] == "pass")

    def test_unrejected_negative_control_exits_one(self, tmp_path):
        # at tol 0.6 the thm3.1 spoiler passes its idempotency test, and
        # its bounds are in order: exit 1 comes from the missing rejection
        code, out = self.run_suite(tmp_path, "suite.csv", (
            "--spoilers", "--tol", "0.6", "--format", "csv"))
        assert code == 1
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {row["status"] for row in rows[:-1]} == {"pass", "fail"}
        (row,) = [row for row in rows if row["scenario"] == "non_idempotent"]
        assert row["status"] == "fail"
        assert float(row["lower_margin"]) >= 0.0
        assert float(row["upper_margin"]) >= 0.0
        assert row["detail"] == "expected a hypothesis rejection, none was raised"

    def test_csv_total_row_carries_wall_time(self, tmp_path):
        code, out = self.run_suite(tmp_path, "suite.csv", ("--format", "csv"))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12  # header, 10 rows, TOTAL
        total = lines[-1].split(",")
        assert total[0] == "TOTAL"
        assert float(total[-1]) > 0.0

    def test_csv_rows_carry_wall_time(self, tmp_path):
        code, out = self.run_suite(tmp_path, "suite.csv",
                                   ("--format", "csv", "--spoilers"))
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        times = [float(row["wall_time_s"]) for row in rows]
        assert len(times) == 21 and all(t > 0.0 for t in times)
        assert rows[-1]["theorem"] == "TOTAL"
        assert times[-1] >= sum(times[:-1])

    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_per_theorem": 1, "tol": 1e-9}))
        out = tmp_path / "suite.json"
        assert main(["suite", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n_per_theorem"] == 1

    def test_documented_config_keys_are_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "n_per_theorem": 1, "base_seed": 7, "tol": 1e-9, "threads": 1,
            "include_spoilers": True,
        }))
        out = tmp_path / "suite.json"
        assert main(["suite", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["base_seed"] == 7
        assert report["include_spoilers"] is True
        assert len(report["results"]) == 20

    @pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES)
    def test_config_value_of_wrong_type_exits_three(self, tmp_path, capsys,
                                                    key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_per_theorem": 1, key: value}))
        assert main(["suite", "--config", str(config)]) == 3
        assert f"{key} must be" in capsys.readouterr().err

    def test_config_unknown_key_exits_three(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_per_theorem": 1, "speed": "max"}))
        assert main(["suite", "--config", str(config)]) == 3
        assert "unknown keys" in capsys.readouterr().err

    def test_config_invalid_json_exits_three(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("* not json *")
        assert main(["suite", "--config", str(config)]) == 3

    def test_zero_instances_rejected(self, tmp_path):
        assert main(["suite", "--n-per-theorem", "0"]) == 3

    def test_non_utf8_config_exits_three(self, tmp_path, capsys):
        config = tmp_path / "bin.json"
        config.write_bytes(NOT_UTF8)
        assert main(["suite", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not UTF-8" in err


@pytest.mark.parametrize("tol", BAD_TOLS, ids=lambda tol: str(tol)[:8])
@pytest.mark.parametrize("command", ["check", "suite"])
def test_tol_flag_is_validated_as_the_config_key(tmp_path, capsys, command, tol):
    # the values the config key refuses, given on the command line
    if command == "check":
        operands = [str(write_instance(tmp_path, "thm4.6", "parseval_exact"))]
    else:
        operands = ["--n-per-theorem", "1", "--out", str(tmp_path / "suite.json")]
    assert main([command, f"--tol={tol}", *operands]) == 3
    assert "tol must be" in capsys.readouterr().err


def out_of_order(report) -> bool:
    """Whether a report-v1 object holds bounds out of order: a negative
    margin, a failing part, or thm4.4.1's missing K-lower bound."""
    return (float(report["lower_margin"]) < 0.0
            or float(report["upper_margin"]) < 0.0
            or any(out_of_order(part) for part in report.get("parts", ()))
            or (report["theorem_id"] == "thm4.4.1"
                and float(report["actual"]["lower"]) == 0.0))


# containers are built afresh, since a later mutation may edit them in place
JSON_JUNK = st.one_of(
    st.floats(), st.integers(-10**6, 10**6), st.booleans(), st.none(),
    st.text(max_size=3), st.builds(list), st.builds(dict),
    st.builds(lambda: [[0.0]]),
)


def json_slots(obj):
    """Every (container, key) pair of a JSON document, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from json_slots(value)


@st.composite
def mutated_instances(draw):
    """An instance document of any theorem at dim 2 or 3, with up to three
    slots scaled, replaced by junk or dropped."""
    theorem = draw(st.sampled_from(sorted(REGISTRY)))
    entry = REGISTRY[theorem]
    scenario = draw(st.sampled_from(entry.scenarios + (entry.spoiler,)))
    obj = instance_to_obj(build_instance(
        theorem, GenSpec(draw(st.integers(0, 3)), draw(st.integers(2, 3)), scenario)))
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(list(json_slots(obj))))
        value = container[key]
        action = draw(st.sampled_from(("scale", "replace", "drop")))
        if action == "scale" and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            container[key] = value * draw(st.sampled_from(
                (0.0, -1.0, 0.5, 1.01, 2.0**-40, 2.0**40)))
        elif action == "drop":
            del container[key]
        else:
            container[key] = draw(JSON_JUNK)
    return obj


@st.composite
def mutated_configs(draw):
    """A suite config with small sweeps, one key replaced or added."""
    config = {"n_per_theorem": 1, "base_seed": draw(st.integers(0, 2**40)),
              "tol": 1e-9, "threads": 1, "include_spoilers": draw(st.booleans())}
    key = draw(st.sampled_from(sorted(config) + ["speed"]))
    config[key] = draw(st.one_of(
        JSON_JUNK, st.integers(-1, 2), st.floats(1e-300, 1e300)))
    if key == "n_per_theorem" and isinstance(config[key], int) \
            and not isinstance(config[key], bool):
        config[key] = min(config[key], 2)  # keeps the sweep small
    return config


def run_main(argv) -> tuple[int, str]:
    """main's exit code and everything it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = main(argv)
    return code, printed.getvalue()


class TestFuzz:
    """Mutated inputs end in a documented exit code with no traceback; for
    check, exit 1 only ever means bounds out of order."""

    @settings(max_examples=60, deadline=None)
    @given(obj=mutated_instances())
    def test_mutated_instance_files(self, tmp_path_factory, obj):
        work = tmp_path_factory.mktemp("fuzz")
        path, out = work / "inst.json", work / "reports.json"
        path.write_text(json.dumps(obj))
        code, printed = run_main(["check", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in printed
        if code == 1:
            assert any(out_of_order(report) for report in json.loads(out.read_text()))

    @settings(max_examples=12, deadline=None)
    @given(config=mutated_configs())
    def test_mutated_suite_configs(self, tmp_path_factory, config):
        work = tmp_path_factory.mktemp("fuzz")
        path, out = work / "config.json", work / "suite.json"
        path.write_text(json.dumps(config))
        code, printed = run_main(["suite", "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in printed
        if code == 1:
            # a verdict on a report, never a rejection or an error; suite
            # folds expectations, so a negative control that slipped
            # through fails its row as well
            counts = json.loads(out.read_text())["counts"]
            assert counts["fail"] > 0 and counts["hypothesis_failed"] == 0
