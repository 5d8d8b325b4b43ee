"""The two entry points, build_instance and check_instance, run on one
OpenBLAS thread and give the caller back its thread counts.

Each test swaps a generator or checker on ``instances.REGISTRY`` for a
probe that reads the pools while the entry point runs.
"""

import dataclasses
from pathlib import Path

import pytest

from framekit import numerics
from framekit.errors import HypothesisFailed
from framekit.instances import REGISTRY, GenSpec, build_instance, check_instance
from framekit.numerics import one_blas_thread

POOLS = numerics._BLAS_POOLS

pytestmark = pytest.mark.skipif(
    not POOLS,
    reason="no OpenBLAS thread control in NumPy's or SciPy's LAPACK module",
)

TID = "lem4.1"


def counts():
    return [get() for get, _ in POOLS]


@pytest.fixture(params=[2, 3])
def caller_count(request):
    """Every pool set to the caller's count; the original counts come back
    after the test."""
    saved = counts()
    for _, put in POOLS:
        put(request.param)
    yield request.param
    for (_, put), count in zip(POOLS, saved):
        put(count)


def swap(monkeypatch, **fields):
    monkeypatch.setitem(REGISTRY, TID, dataclasses.replace(REGISTRY[TID], **fields))


def probe_check(monkeypatch, seen, raises=False):
    def check(inst, tol):
        seen.append(counts())
        if raises:
            raise HypothesisFailed("probe")

    swap(monkeypatch, check=check)


@pytest.fixture
def inst():
    return build_instance(TID, GenSpec(3, 4, REGISTRY[TID].scenarios[0]))


def test_every_loaded_openblas_has_its_pool_found():
    # an oracle apart from the dlsym lookup: the OpenBLAS files mapped into
    # this process (NumPy's and SciPy's wheels each bundle one)
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        pytest.skip("no /proc/self/maps to list the loaded libraries")
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    assert len(POOLS) == len(paths)


def test_check_instance_runs_on_one_thread(monkeypatch, caller_count, inst):
    seen = []
    probe_check(monkeypatch, seen)
    check_instance(inst)
    assert seen == [[1] * len(POOLS)]
    assert counts() == [caller_count] * len(POOLS)


def test_build_instance_runs_on_one_thread(monkeypatch, caller_count):
    seen = []
    generate = REGISTRY[TID].generate

    def probe(spec, rng):
        seen.append(counts())
        return generate(spec, rng)

    swap(monkeypatch, generate=probe)
    build_instance(TID, GenSpec(3, 4, REGISTRY[TID].scenarios[0]))
    assert seen == [[1] * len(POOLS)]
    assert counts() == [caller_count] * len(POOLS)


def test_counts_come_back_after_a_rejection(monkeypatch, caller_count, inst):
    seen = []
    probe_check(monkeypatch, seen, raises=True)
    with pytest.raises(HypothesisFailed, match="probe"):
        check_instance(inst)
    assert seen == [[1] * len(POOLS)]
    assert counts() == [caller_count] * len(POOLS)


def test_nested_entry_changes_nothing(monkeypatch, caller_count, inst):
    seen = []
    probe_check(monkeypatch, seen)
    with one_blas_thread():
        check_instance(inst)
        assert counts() == [1] * len(POOLS)
    assert seen == [[1] * len(POOLS)]
    assert counts() == [caller_count] * len(POOLS)


def test_empty_pool_list_is_a_no_op(monkeypatch, caller_count, inst):
    seen = []
    probe_check(monkeypatch, seen)
    monkeypatch.setattr(numerics, "_BLAS_POOLS", ())
    check_instance(inst)
    assert seen == [[caller_count] * len(POOLS)]
    assert counts() == [caller_count] * len(POOLS)
