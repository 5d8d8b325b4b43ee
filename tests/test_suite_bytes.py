"""The bytes of seeded sweeps and instance files are pinned by their sha256.

A change that moves any verdict, bound or margin of the standard sweep
changes the suite digests.  The spoiler digests cover the negative
controls that `suite --spoilers` appends, and the instance-file digest
covers every generator scenario, spoilers included, at dims up to 32 in
both scalar kinds.  The rejection digest covers what a rejection reports,
its exception type, clause and residual, for a fixed set of negatives.
The digests were recorded with the NumPy and SciPy versions below; other
versions may round differently, so the tests skip there rather than fail.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
import scipy

from framekit.cli import main
from framekit.errors import FramekitError
from framekit.instances import REGISTRY, GenSpec, build_instance, check_instance
from framekit.serialize import dumps_instance

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}
DIGESTS = {
    1: "eb6cc6267db0f7a050d585b3a8145d5b91976c48fb16d3bcf8b5661bbd7999a7",
    2: "96f034d7bbccf25d383e078acaa9a4cb693c35ca1ef0a481ebe1920740146a2c",
    3: "b3906069133f33befe5744ab8406159e3aaa1aad76c2905c08cbeeead836dc5e",
}
SPOILER_DIGESTS = {
    1: "6ad98f02aa49a8d12a7a7ab9ffa0d7db8048936b340e2460377da0b3a7d1c728",
    2: "4b1e000f4a3e524d29d66942efabcbcd91f195c793283600c2c0f2e76da7569a",
    3: "467f5d11628d01e2aaf92994687221052cce3f7680fa0228ea680617f7ed9c73",
}

# every generator scenario per theorem, spoiler last; a fixed list, so the
# pinned bytes do not move when scenarios are added
FILE_SCENARIOS = {
    "thm3.1": ("dressed_subset", "non_idempotent"),
    "lem3.2": ("drazin_core", "invertible", "nilpotent"),
    "thm3.4": ("duplicated_axes", "erasure_overload"),
    "lem4.1": ("scale_down", "scale_up", "additive", "to_identity",
               "false_constants"),
    "thm4.4.1": ("identical", "weight_shift", "rotation", "weight_shift_with_k",
                 "inadmissible_b"),
    "thm4.4.2": ("identical", "weight_shift", "rotation", "inadmissible_a"),
    "thm4.4.3": ("identical", "weight_shift", "rotation", "false_constants"),
    "prop4.5": ("weight_shift", "rotation", "budget_half"),
    "thm4.6": ("scaled_synthesis", "scaled_synthesis_b", "parseval_exact",
               "understated"),
    "thm4.7": ("shifted_synthesis", "inadmissible_a"),
}
FILE_SEEDS = (101, 202)
FILE_DIMS = (2, 5, 16, 32)
FILE_DIGEST = "cc08a417167f1a69fe87f088f8cb051ed7ac4ac26c01ef87750de524f2e1982d"

# each theorem's spoiler at two seeds, one per scalar kind, and three dims,
# then lem4.1 near misses at two dims
REJECTION_SEEDS = ((101, "real"), (202, "complex"))
REJECTION_DIMS = (2, 5, 16)
NEAR_MISS_SEEDS = range(1000, 1010)
NEAR_MISS_DIMS = (8, 16)
REJECTION_DIGEST = "5d36d8c3b40c1076432e7e50939f453bf7cfaf1ec7e257deb8fd57f16e801b5e"

recorded_versions_only = pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"digests were recorded with {RECORDED_WITH}",
)


def near_miss(seed, dim):
    """The lem4.1 `additive` instance with a = 0.8 ||K1^-1 K2 - I||: the
    perturbation K2 = K1 (I + G) needs a >= ||G|| when b = 0, so the
    hypothesis fails by 0.2 ||G|| at a witness."""
    inst = build_instance("lem4.1", GenSpec(seed, dim, "additive"))
    k1, k2 = inst.operators["K1"], inst.operators["K2"]
    g_norm = np.linalg.svd(np.linalg.solve(k1, k2) - np.eye(dim),
                           compute_uv=False)[0]
    return dataclasses.replace(
        inst, constants=dataclasses.replace(inst.constants, a=0.8 * float(g_norm)))


def rejection_negatives():
    for tid, entry in REGISTRY.items():
        for seed, scalar in REJECTION_SEEDS:
            for dim in REJECTION_DIMS:
                yield build_instance(
                    tid, GenSpec(seed, dim, entry.spoiler, {"scalar": scalar}))
    for dim in NEAR_MISS_DIMS:
        for seed in NEAR_MISS_SEEDS:
            yield near_miss(seed, dim)


def suite_digest(tmp_path, offset, *extra):
    out = tmp_path / "suite.json"
    code = main([
        "suite", "--seed", str(20260814 + offset), "--n-per-theorem", "20",
        "--threads", "1", "--out", str(out), *extra,
    ])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@recorded_versions_only
@pytest.mark.parametrize("offset", sorted(DIGESTS))
def test_suite_bytes_match_the_recorded_digest(tmp_path, capsys, offset):
    assert suite_digest(tmp_path, offset) == DIGESTS[offset]
    capsys.readouterr()


@recorded_versions_only
@pytest.mark.parametrize("offset", sorted(SPOILER_DIGESTS))
def test_spoiler_suite_bytes_match_the_recorded_digest(tmp_path, capsys, offset):
    assert suite_digest(tmp_path, offset, "--spoilers") == SPOILER_DIGESTS[offset]
    capsys.readouterr()


@recorded_versions_only
def test_instance_file_bytes_match_the_recorded_digest():
    digest = hashlib.sha256()
    for tid, scenarios in FILE_SCENARIOS.items():
        for scenario in scenarios:
            for seed in FILE_SEEDS:
                for dim in FILE_DIMS:
                    for scalar in ("real", "complex"):
                        spec = GenSpec(seed, dim, scenario, {"scalar": scalar})
                        text = dumps_instance(build_instance(tid, spec))
                        digest.update(text.encode())
    assert digest.hexdigest() == FILE_DIGEST


@recorded_versions_only
def test_rejections_match_the_recorded_digest():
    digest = hashlib.sha256()
    for inst in rejection_negatives():
        with pytest.raises(FramekitError) as rejected:
            check_instance(inst)
        exc = rejected.value
        line = (f"{type(exc).__name__}|{getattr(exc, 'clause', None)}"
                f"|{getattr(exc, 'residual', None)!r}\n")
        digest.update(line.encode())
    assert digest.hexdigest() == REJECTION_DIGEST
