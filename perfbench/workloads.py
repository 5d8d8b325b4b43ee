"""The benchmark's workloads: seeded inputs, the operation each input
drives, and the output checks run after the timed loop.

Every workload drives framekit only through `instances.build_instance`,
`instances.check_instance`, `serialize.*` and `cli.main`.  Inputs depend
on the benchmark seed alone, so the same seed reproduces them bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from framekit import cli, instances, serialize
from framekit.errors import HypothesisFailed
from framekit.instances import GenSpec

import reference

THEOREMS = (
    "thm3.1", "lem3.2", "thm3.4", "lem4.1", "thm4.4.1",
    "thm4.4.2", "thm4.4.3", "prop4.5", "thm4.6", "thm4.7",
)

# pass-scenario cycles and spoiler scenarios, as `framekit suite` uses them
PASS_CYCLES = {
    "thm3.1": ("dressed_subset",),
    "lem3.2": ("drazin_core", "invertible"),
    "thm3.4": ("duplicated_axes",),
    "lem4.1": ("scale_down", "scale_up", "additive", "to_identity"),
    "thm4.4.1": ("identical", "weight_shift", "rotation", "weight_shift_with_k"),
    "thm4.4.2": ("identical", "weight_shift", "rotation"),
    "thm4.4.3": ("identical", "weight_shift", "rotation"),
    "prop4.5": ("weight_shift", "rotation"),
    "thm4.6": ("scaled_synthesis", "scaled_synthesis_b", "parseval_exact"),
    "thm4.7": ("shifted_synthesis",),
}
SPOILERS = {
    "thm3.1": "non_idempotent",
    "lem3.2": "nilpotent",
    "thm3.4": "erasure_overload",
    "lem4.1": "false_constants",
    "thm4.4.1": "inadmissible_b",
    "thm4.4.2": "inadmissible_a",
    "thm4.4.3": "false_constants",
    "prop4.5": "budget_half",
    "thm4.6": "understated",
    "thm4.7": "inadmissible_a",
}

SUITE_DIMS = (2, 3, 4, 5, 6, 8, 10, 12, 16)
SUITE_BASE_SEED = 20260814  # `framekit suite` default; the run seed adds to it
SUITE_PER_THEOREM = 20

SPOILER_BASE_SEED = 918273645
SPOILERS_PER_THEOREM = 18
# near misses do not depend on the run seed: the same instances every run,
# so the ones the sampled grid lets through are the same every run
NEAR_MISS_SEEDS = range(1000, 1040)
NEAR_MISS_DIMS = (8, 16, 32)
NEAR_MISS_FACTOR = 0.8

FILE_DIMS = (20, 24, 28, 32)
FILE_BASE_SEED = 55555
# 120 files, so that the p90 over the inputs has at least ten beyond it
FILES_PER_THEOREM = 12

# agreement demanded between framekit's optimal bounds and the reference
REFERENCE_REL = 1e-8


def mix(seed: int, index: int) -> int:
    """Child seed: the splitmix64 mix `framekit suite` derives its seeds with."""
    mask = 0xFFFFFFFFFFFFFFFF
    x = (int(seed) + (index + 1) * 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Item:
    """One operation's input; ``theorem`` tags its spans in a traced run."""

    theorem: str
    data: Any


@dataclass(frozen=True)
class Workload:
    """``run`` is the timed operation; an output for which ``succeeded`` is
    false counts as a failed operation, and ``check`` examines the outputs
    of the operations that succeeded."""

    name: str
    prepare: Callable[[int, Path], list[Item]]
    run: Callable[[Item], Any]
    succeeded: Callable[[Any], bool]
    check: Callable[[list[Item], list[Any]], list[str]]


# ---------------------------------------------------------------- suite

def suite_specs(seed: int) -> list[Item]:
    """The sweep `framekit suite --seed <SUITE_BASE_SEED + seed>
    --n-per-theorem <SUITE_PER_THEOREM>` runs, in the same order."""
    base = SUITE_BASE_SEED + seed
    items = []
    for t_index, tid in enumerate(THEOREMS):
        cycle = PASS_CYCLES[tid]
        for j in range(SUITE_PER_THEOREM):
            spec = GenSpec(
                mix(base, t_index * 100003 + j),
                SUITE_DIMS[(j + t_index) % len(SUITE_DIMS)],
                cycle[j % len(cycle)],
            )
            items.append(Item(tid, spec))
    return items


def _prepare_suite(seed: int, workdir: Path) -> list[Item]:
    return suite_specs(seed)


def _run_suite(item: Item):
    inst = instances.build_instance(item.theorem, item.data)
    return inst, instances.check_instance(inst)


def _suite_succeeded(out) -> bool:
    return isinstance(out, tuple) and out[1].passed


def _report_problems(where: str, report: dict, obj: dict) -> list[str]:
    """Checks on one report, given as a report-v1 object."""
    problems = []
    if report["passed"] is not True:
        problems.append(f"{where}: report does not pass")

    def pair(bounds):
        return float(bounds["lower"]), float(bounds["upper"])

    for part in [report] + report.get("parts", []):
        if not reference.brackets(pair(part["predicted"]), pair(part["actual"])):
            problems.append(f"{where}: {part['theorem_id']} prediction does "
                            "not bracket the actual bounds")
    expected = reference.conclusion_bounds(obj)
    if expected is not None:
        got = pair(report["actual"])
        if not all(reference.values_agree(g, e, REFERENCE_REL)
                   for g, e in zip(got, expected)):
            problems.append(f"{where}: actual bounds {got} differ from the "
                            f"reference {expected}")
    return problems


def _check_suite(items: list[Item], outputs: list) -> list[str]:
    problems = []
    for i, (item, out) in enumerate(zip(items, outputs)):
        if not _suite_succeeded(out):
            continue
        where = f"suite[{i}] {item.theorem} seed={item.data.seed}"
        inst, report = out
        problems += _report_problems(
            where, serialize.report_to_obj(report), serialize.instance_to_obj(inst)
        )
    return problems


# ---------------------------------------------------------------- reject

@dataclass(frozen=True)
class Negative:
    kind: str            # "spoiler" or "near_miss"
    instance: Any
    witness_gap: float   # near misses: violation at the reference witness


def _near_miss(seed: int, dim: int) -> Negative:
    """lem4.1 `additive` instance with a = NEAR_MISS_FACTOR * ||G||."""
    obj = serialize.instance_to_obj(
        instances.build_instance("lem4.1", GenSpec(seed, dim, "additive"))
    )
    cx = obj["scalar"] == "complex"
    k1 = reference.decode_matrix(obj["operators"]["K1"], cx)
    k2 = reference.decode_matrix(obj["operators"]["K2"], cx)
    f, g_norm = reference.additive_witness(k1, k2)
    a = NEAR_MISS_FACTOR * g_norm
    obj["constants"]["a"] = a
    gap = reference.perturbation_gap(k1, k2, a, obj["constants"]["b"], f)
    return Negative("near_miss", serialize.obj_to_instance(obj), gap)


def _prepare_reject(seed: int, workdir: Path) -> list[Item]:
    items = []
    base = SPOILER_BASE_SEED + seed
    for t_index, tid in enumerate(THEOREMS):
        for j in range(SPOILERS_PER_THEOREM):
            spec = GenSpec(
                mix(base, t_index * 100003 + j),
                SUITE_DIMS[(j + t_index) % len(SUITE_DIMS)],
                SPOILERS[tid],
                {"scalar": ("real", "complex")[j % 2]},
            )
            inst = instances.build_instance(tid, spec)
            items.append(Item(tid, Negative("spoiler", inst, math.nan)))
    for dim in NEAR_MISS_DIMS:
        for s in NEAR_MISS_SEEDS:
            items.append(Item("lem4.1", _near_miss(s, dim)))
    return items


def _run_reject(item: Item):
    try:
        return instances.check_instance(item.data.instance)
    except HypothesisFailed as exc:
        # the traceback would keep the checker's arrays alive
        return exc.with_traceback(None)


def _reject_succeeded(out) -> bool:
    return isinstance(out, HypothesisFailed)


def _check_reject(items: list[Item], outputs: list) -> list[str]:
    problems = []
    for i, (item, out) in enumerate(zip(items, outputs)):
        neg = item.data
        where = f"reject[{i}] {item.theorem} {neg.kind}"
        if isinstance(out, HypothesisFailed):
            if not out.clause:
                problems.append(f"{where}: rejection names no clause")
        elif neg.kind == "spoiler" or not hasattr(out, "passed"):
            # the only failure the workload admits is a near miss that slips
            # through the sampled grid: its inputs do not depend on the seed,
            # so its share of the operations is the same in every run
            problems.append(f"{where}: not rejected, got {out!r}")
        if neg.kind == "near_miss" and not neg.witness_gap > 0.0:
            problems.append(f"{where}: witness does not refute the constant "
                            f"(gap {neg.witness_gap:.3e})")
    return problems


# ---------------------------------------------------------------- check-files

@dataclass(frozen=True)
class CheckFile:
    instance: Path
    report: Path
    generated: Any  # the instance the file was written from


def _prepare_files(seed: int, workdir: Path) -> list[Item]:
    out_dir = workdir / "check-files"
    out_dir.mkdir(parents=True, exist_ok=True)
    base = FILE_BASE_SEED + seed
    items = []
    for t_index, tid in enumerate(THEOREMS):
        cycle = PASS_CYCLES[tid]
        for j in range(FILES_PER_THEOREM):
            spec = GenSpec(
                mix(base, t_index * 100003 + j),
                FILE_DIMS[(j + t_index) % len(FILE_DIMS)],
                cycle[j % len(cycle)],
                # blocks of one file per dim, real and complex in turn
                {"scalar": ("real", "complex")[(j // len(FILE_DIMS) + t_index) % 2]},
            )
            stem = f"{len(items):02d}_{tid}"
            path = out_dir / f"{stem}.json"
            inst = instances.build_instance(tid, spec)
            path.write_text(serialize.dumps_instance(inst))
            items.append(Item(tid, CheckFile(path, out_dir / f"{stem}.report.json", inst)))
    return items


def _run_file(item: Item) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["check", str(item.data.instance),
                         "--out", str(item.data.report)])


def _file_succeeded(out) -> bool:
    return out == 0


def _check_files(items: list[Item], outputs: list) -> list[str]:
    problems = []
    for i, (item, code) in enumerate(zip(items, outputs)):
        if not _file_succeeded(code):
            continue
        where = f"check-files[{i}] {item.data.instance.name}"
        text = item.data.instance.read_text()
        decoded = serialize.loads_instance(text)
        if serialize.dumps_instance(decoded) != text:
            problems.append(f"{where}: decode and re-encode changes the bytes")
        if (serialize.instance_to_obj(decoded)
                != serialize.instance_to_obj(item.data.generated)):
            problems.append(f"{where}: the file does not decode to the generated instance")
        try:
            reports = json.loads(item.data.report.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{where}: unreadable report: {exc}")
            continue
        if not (isinstance(reports, list) and len(reports) == 1):
            problems.append(f"{where}: expected one report")
            continue
        problems += _report_problems(where, reports[0], json.loads(text))
    return problems


WORKLOADS = {
    "suite": Workload("suite", _prepare_suite, _run_suite,
                      _suite_succeeded, _check_suite),
    "reject": Workload("reject", _prepare_reject, _run_reject,
                       _reject_succeeded, _check_reject),
    "check-files": Workload("check-files", _prepare_files, _run_file,
                            _file_succeeded, _check_files),
}
