"""Wire formats for instances and reports.

Emission is deterministic: fixed key order, no whitespace variation, and
floats printed with ``%.17g`` so they round-trip to the exact double.
Infinite values are emitted as the strings "inf"/"-inf" and only appear
in reports; every number of an instance file (matrix entries, weights,
constants, the quadratic budget) must be finite and at most ``MAX_ENTRY``
in magnitude, so that products of two matrices (K K*, D D*) and their
pencils stay far inside the float range.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .frame_core import FrameBounds, WeightedSubspaceFamily
from .instances import REGISTRY, Instance
from .numerics import Subspace
from .theorems import PerturbationConstants, TheoremReport

INSTANCE_FORMAT = "framekit/instance-v1"
REPORT_FORMAT = "framekit/report-v1"
SUITE_FORMAT = "framekit/suite-v1"
MAX_ENTRY = 1e100

__all__ = [
    "INSTANCE_FORMAT",
    "REPORT_FORMAT",
    "SUITE_FORMAT",
    "dumps",
    "dumps_instance",
    "instance_to_obj",
    "loads_instance",
    "obj_to_instance",
    "report_to_obj",
]


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            raise ValueError("NaN is not serializable")
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if x == 0.0:
            return "0"  # JSON parses -0 as integer zero; keep round trips stable
        return "%.17g" % x
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, Mapping):
        return "{" + ",".join(
            json.dumps(str(k), ensure_ascii=True) + ":" + _emit(v)
            for k, v in obj.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return _emit(obj) + "\n"


def _entry_to_obj(value: complex, complex_scalars: bool):
    if complex_scalars:
        return [float(value.real), float(value.imag)]
    return float(value.real)


def _matrix_to_obj(m: np.ndarray, complex_scalars: bool) -> list:
    if not complex_scalars and m.size and float(np.abs(m.imag).max()) > 0.0:
        raise InvalidConfig("real instance carries complex matrix entries")
    return [
        [_entry_to_obj(v, complex_scalars) for v in row] for row in m.tolist()
    ]


def _family_to_obj(fam: WeightedSubspaceFamily, complex_scalars: bool) -> list:
    out = []
    for s, w in fam.members:
        out.append({
            "weight": float(w),
            # rows are the orthonormal basis vectors of the member
            "basis": _matrix_to_obj(s.basis.T, complex_scalars),
        })
    return out


def instance_to_obj(inst: Instance) -> dict:
    cx = inst.scalar == "complex"
    obj: dict = {
        "format": INSTANCE_FORMAT,
        "dim": int(inst.dim),
        "scalar": inst.scalar,
        "members": _family_to_obj(inst.family, cx),
    }
    if inst.family_v is not None:
        obj["members_v"] = _family_to_obj(inst.family_v, cx)
    obj["operators"] = {
        name: _matrix_to_obj(inst.operators[name], cx)
        for name in sorted(inst.operators)
    }
    if inst.constants is not None:
        obj["constants"] = {
            "a": inst.constants.a,
            "b": inst.constants.b,
            "c": inst.constants.c,
        }
    if inst.quadratic_bound is not None:
        obj["quadratic_bound"] = float(inst.quadratic_bound)
    obj["erased"] = list(inst.erased)
    meta = dict(inst.meta)
    ordered = {}
    for key in ("theorem", "seed", "scenario", "expect"):
        if key in meta:
            ordered[key] = meta.pop(key)
    for key in sorted(meta):
        ordered[key] = meta[key]
    obj["meta"] = ordered
    return obj


def dumps_instance(inst: Instance) -> str:
    return dumps(instance_to_obj(inst))


def _fail(path: str, why: str) -> InvalidConfig:
    return InvalidConfig(f"{path}: {why}")


def _is_real(obj) -> bool:
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _num_from(obj, complex_scalars: bool, path: str) -> complex:
    """The one number rule: a JSON number (never a bool or a string), or a
    [re, im] pair of them in a complex matrix, finite as a double and at
    most MAX_ENTRY in magnitude; otherwise InvalidConfig naming ``path``."""
    if complex_scalars:
        if (not isinstance(obj, (list, tuple)) or len(obj) != 2
                or not all(map(_is_real, obj))):
            raise _fail(path, "expected a [re, im] pair")
        parts = obj
    else:
        if not _is_real(obj):
            raise _fail(path, "expected a real number")
        parts = (obj, 0.0)
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except OverflowError:
        raise _fail(path, "expected a finite number") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise _fail(path, "expected a finite number")
    if max(abs(value.real), abs(value.imag)) > MAX_ENTRY:
        raise _fail(path, f"magnitude above {MAX_ENTRY:g}")
    return value


def _bulk_matrix(obj: list, complex_scalars: bool,
                 cols: int | None) -> np.ndarray | None:
    """The matrix from one conversion of a well-formed row list, or None.

    None sends the caller to the per-entry decoder, which yields the path
    of the first offending entry.  The entries are type-checked first,
    since np.array would silently accept bools, numeric strings and None;
    the complex result is a view of the (re, im) pairs, so every value,
    signed zeros included, matches the per-entry construction bit for bit.
    """
    if set(map(type, obj)) != {list}:
        return None
    width = len(obj[0]) if cols is None else cols
    if not width or set(map(len, obj)) != {width}:
        return None
    entries = chain.from_iterable(obj)
    if complex_scalars:
        pairs = list(entries)
        if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
            return None
        entries = chain.from_iterable(pairs)
    if not set(map(type, entries)) <= {int, float}:
        return None
    try:
        values = np.array(obj, dtype=np.float64)
    except OverflowError:
        return None
    if complex_scalars:
        return values.view(np.complex128)[..., 0]
    return values.astype(np.complex128)


def _matrix_from(obj, complex_scalars: bool, path: str,
                 cols: int | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise _fail(path, "expected a non-empty list of rows")
    fast = _bulk_matrix(obj, complex_scalars, cols)
    # NaN fails the comparison too, so every refused entry takes the
    # per-entry path for its message
    if fast is not None and (np.abs(fast.view(np.float64)) <= MAX_ENTRY).all():
        return fast
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise _fail(f"{path}[{i}]", "expected a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _fail(f"{path}[{i}]", "ragged rows")
        rows.append([
            _num_from(v, complex_scalars, f"{path}[{i}][{j}]")
            for j, v in enumerate(row)
        ])
    if cols is not None and width != cols:
        raise _fail(path, f"expected {cols} columns, found {width}")
    return np.array(rows, dtype=np.complex128)


def _members(decoded: list, dim: int, path: str) -> list:
    """(Subspace, weight) for each decoded (basis, weight) pair, in order.

    The bases are tested in one batched product per column count: a basis
    with ||B* B - I||_F at most 0.5e-12 has spectral drift under the public
    constructor's 1e-12 and is stored unchecked.  Every other basis, and
    one with more columns than ``dim``, goes through the public
    constructor, whose first error names its member.
    """
    trusted = np.zeros(len(decoded), dtype=bool)
    by_cols = {}
    for i, (basis, _) in enumerate(decoded):
        if basis.shape[1] <= dim:
            by_cols.setdefault(basis.shape[1], []).append(i)
    with np.errstate(all="ignore"):  # an overflowed drift fails the test
        for cols, index in by_cols.items():
            b = np.stack([decoded[i][0] for i in index])
            drift = b.conj().transpose(0, 2, 1) @ b - np.eye(cols)
            trusted[index] = np.linalg.norm(drift, axis=(1, 2)) <= 0.5e-12
    members = []
    for i, ((basis, weight), ok) in enumerate(zip(decoded, trusted)):
        try:
            member = Subspace._of(dim, basis) if ok else Subspace(dim, basis)
        except (ValueError, DimensionMismatch) as exc:
            raise _fail(f"{path}[{i}].basis", str(exc)) from None
        members.append((member, weight))
    return members


def _family_from(obj, dim: int, complex_scalars: bool,
                 path: str) -> WeightedSubspaceFamily:
    if not isinstance(obj, list) or not obj:
        raise _fail(path, "expected a non-empty member list")
    decoded = []
    failure = None
    for i, entry in enumerate(obj):
        try:
            if not isinstance(entry, dict):
                raise _fail(f"{path}[{i}]", "expected an object")
            weight = _num_from(entry.get("weight"), False,
                               f"{path}[{i}].weight").real
            vectors = _matrix_from(entry.get("basis"), complex_scalars,
                                   f"{path}[{i}].basis", cols=dim)
        except InvalidConfig as exc:
            failure = exc
            break
        decoded.append((vectors.T, weight))
    # the members before a malformed one are tested first, so the first
    # error in member order is the one raised
    members = _members(decoded, dim, path)
    if failure is not None:
        raise failure
    try:
        return WeightedSubspaceFamily(dim, tuple(members))
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def obj_to_instance(obj) -> Instance:
    if not isinstance(obj, dict):
        raise InvalidConfig("instance document must be a JSON object")
    if obj.get("format") != INSTANCE_FORMAT:
        raise InvalidConfig(
            f"unsupported format {obj.get('format')!r}; expected {INSTANCE_FORMAT}"
        )
    dim = obj.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise InvalidConfig("dim must be a positive integer")
    scalar = obj.get("scalar")
    if scalar not in ("real", "complex"):
        raise InvalidConfig("scalar must be 'real' or 'complex'")
    cx = scalar == "complex"
    family = _family_from(obj.get("members"), dim, cx, "members")
    family_v = None
    if obj.get("members_v") is not None:
        family_v = _family_from(obj["members_v"], dim, cx, "members_v")
    operators = {}
    ops_obj = obj.get("operators", {})
    if not isinstance(ops_obj, dict):
        raise InvalidConfig("operators must be an object")
    for name, mat in ops_obj.items():
        m = _matrix_from(mat, cx, f"operators.{name}", cols=dim)
        if m.shape[0] != dim:
            raise _fail(f"operators.{name}", f"expected {dim} rows")
        operators[name] = m
    constants = None
    if obj.get("constants") is not None:
        c_obj = obj["constants"]
        if not isinstance(c_obj, dict):
            raise InvalidConfig("constants must be an object")
        values = [_num_from(c_obj.get(name, 0.0), False, f"constants.{name}").real
                  for name in ("a", "b", "c")]
        try:
            constants = PerturbationConstants(*values)
        except ValueError as exc:
            raise InvalidConfig(f"constants: {exc}") from None
    quad = obj.get("quadratic_bound")
    if quad is not None:
        quad = _num_from(quad, False, "quadratic_bound").real
    erased_obj = obj.get("erased", [])
    if not isinstance(erased_obj, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in erased_obj
    ):
        raise InvalidConfig("erased must be a list of integers")
    n_members = len(family)
    for i in erased_obj:
        if not 0 <= i < n_members:
            raise _fail("erased", f"index {i} out of range for {n_members} members")
    if len(set(erased_obj)) >= n_members:
        raise _fail("erased", "must leave at least one member")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise InvalidConfig("meta must be an object")
    seed = meta.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _fail("meta.seed", "expected an integer")
    theorem = meta.get("theorem")
    # a list or dict would not even hash; check_instance trusts this lookup
    entry = REGISTRY.get(theorem) if isinstance(theorem, str) else None
    if entry is None:
        raise _fail("meta.theorem",
                    f"expected one of {', '.join(REGISTRY)}, got {theorem!r}")
    present = {f"operators.{name}" for name in operators}
    present.update(key for key in ("members_v", "constants", "quadratic_bound")
                   if obj.get(key) is not None)
    for path in entry.required:
        if path not in present:
            raise _fail(path, f"missing; {theorem} requires it")
    try:
        return Instance(
            dim=dim, scalar=scalar, family=family, family_v=family_v,
            operators=operators, constants=constants, quadratic_bound=quad,
            erased=tuple(erased_obj), meta=meta,
        )
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None


def loads_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"not valid JSON: {exc}") from None
    return obj_to_instance(obj)


def _bounds_to_obj(b: FrameBounds) -> dict:
    return {"lower": b.lower, "upper": b.upper, "kind": b.kind}


def report_to_obj(report: TheoremReport) -> dict:
    obj = {
        "format": REPORT_FORMAT,
        "theorem_id": report.theorem_id,
        "passed": report.passed,
        "predicted": _bounds_to_obj(report.predicted),
        "actual": _bounds_to_obj(report.actual),
        "lower_margin": report.lower_margin,
        "upper_margin": report.upper_margin,
        "residuals": {k: report.residuals[k] for k in sorted(report.residuals)},
        "notes": {k: report.notes[k] for k in sorted(report.notes)},
    }
    if report.parts:
        obj["parts"] = [report_to_obj(p) for p in report.parts]
    return obj
