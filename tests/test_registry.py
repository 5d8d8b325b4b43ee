"""The theorem registry: its checker adapters, and the copies of it kept
elsewhere, the benchmark's input tables and the README's theorem table."""

import importlib
import re
import sys
from pathlib import Path

import pytest

from framekit import instances, theorems
from framekit.instances import (
    REGISTRY,
    THEOREM_IDS,
    GenSpec,
    build_instance,
    check_instance,
)

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_inputs_match_the_registry(monkeypatch):
    # the benchmark keeps its own copy of the cycles and spoilers, so that
    # its inputs stay fixed; a registry edit that would move `framekit
    # suite` away from them fails here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    monkeypatch.delitem(sys.modules, "reference", raising=False)
    workloads = importlib.import_module("workloads")
    assert workloads.THEOREMS == THEOREM_IDS
    assert workloads.PASS_CYCLES == {
        tid: entry.scenarios for tid, entry in REGISTRY.items()
    }
    assert workloads.SPOILERS == {
        tid: entry.spoiler for tid, entry in REGISTRY.items()
    }


def readme_theorem_table() -> list[list[tuple[str, ...]]]:
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index(
        "| theorem | pass scenarios | spoiler | required fields |"
    )
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append([tuple(re.findall(r"`([^`]+)`", cell)) for cell in cells])
    return rows


def test_readme_table_matches_the_registry():
    table = [
        [(tid,), entry.scenarios, (entry.spoiler,), entry.required]
        for tid, entry in REGISTRY.items()
    ]
    assert readme_theorem_table() == table


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_checkers_are_looked_up_when_they_run(monkeypatch, tid):
    # a tracer swaps the checkers on the instances module; an adapter that
    # bound a checker when the registry was built would bypass the swap
    inst = build_instance(tid, GenSpec(3, 4, REGISTRY[tid].scenarios[0]))
    called = []
    for name in theorems.__all__:
        if name.startswith("check_"):
            monkeypatch.setattr(
                instances, name,
                lambda *args, _name=name, **kwargs: called.append(_name),
            )
    check_instance(inst)
    assert len(called) == 1


def test_each_theorem_has_its_own_checker(monkeypatch):
    # one public checker per statement: no checker serves two ids through
    # a mode flag, and none is left without an id
    names = [name for name in theorems.__all__ if name.startswith("check_")]
    called = []
    for name in names:
        monkeypatch.setattr(
            instances, name,
            lambda *args, _name=name, **kwargs: called.append(_name),
        )
    served = {}
    for tid, entry in REGISTRY.items():
        called.clear()
        check_instance(build_instance(tid, GenSpec(7, 4, entry.scenarios[0])))
        assert len(called) == 1, tid
        served[tid] = called[0]
    assert len(served) == 10
    assert sorted(served.values()) == sorted(names)
