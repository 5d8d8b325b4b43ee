"""Acceptance gate: nine seeded end-to-end checks.

Each test prints one pass/fail line (visible under normal capture) and
asserts the same condition, so the printed transcript matches the pytest
verdict line for line.
"""

import json
import math
import time

import numpy as np

from framekit._rng import child_seed, gaussian_matrix, make_rng
from framekit.cli import main
from framekit.errors import HypothesisFailed
from framekit.frame_core import WeightedSubspaceFamily
from framekit.instances import (
    REGISTRY,
    GenSpec,
    build_instance,
    check_instance,
    default_suite_entries,
    gen_operator,
    spanning_family,
)
from framekit.kfusion import k_lower_bound
from framekit.numerics import (
    drazin,
    max_psd_scale,
    operator_norm,
    pinv,
    projector,
    range_basis,
)
from framekit.serialize import dumps_instance
from framekit.theorems import (
    PerturbationConstants,
    check_operator_perturbation,
    check_projection_plain,
    check_synthesis_perturbation,
)
from oracles import (
    douglas_check,
    from_span,
    fusion_analysis,
    psd_scale_bisection,
    reconstruct,
)


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def conditioned_matrix(seed, rows, cols, complex_scalars, deficient):
    """Random matrix with singular values in [0.25, 4], optionally rank-cut."""
    rng = make_rng(seed)
    k = min(rows, cols)
    u, _ = np.linalg.qr(gaussian_matrix(rng, rows, k, complex_scalars))
    v, _ = np.linalg.qr(gaussian_matrix(rng, cols, k, complex_scalars))
    sv = np.exp(rng.uniform(math.log(0.25), math.log(4.0), k))
    if deficient and k > 1:
        sv[int(rng.integers(0, k)):] = 0.0
    return (u * sv) @ v.conj().T


def test_criterion_1_substrate_identities(capsys):
    started = time.perf_counter()
    failures = 0
    for trial in range(500):
        rng = make_rng(child_seed(101, trial))
        rows = int(rng.integers(2, 17))
        cols = int(rng.integers(2, 17))
        m = conditioned_matrix(
            child_seed(102, trial), rows, cols, trial % 2 == 0, trial % 3 == 0
        )
        tol = 1e-9 * max(1.0, operator_norm(m))
        d = pinv(m)
        residuals = [
            operator_norm(m @ d @ m - m),
            operator_norm(d @ m @ d - d),
            operator_norm((m @ d).conj().T - m @ d),
            operator_norm((d @ m).conj().T - d @ m),
            # the two products are the orthogonal projections onto the
            # column spaces of M and M*
            operator_norm(m @ d - projector(range_basis(m))),
            operator_norm(d @ m - projector(range_basis(m.conj().T))),
        ]
        if max(residuals) > tol:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    announce(
        capsys, 1, ok,
        f"pseudoinverse and projection identities on 500 matrices "
        f"({failures} failures, {elapsed:.1f}s)",
    )
    assert failures == 0
    assert elapsed < 10.0


def triangular_known_index(seed, n, index):
    """Upper triangular matrix with invertible core and a trailing J_index.

    The zero eigenvalues sit exactly on the diagonal, so the spectral split
    is exact and the returned index must match by construction.
    """
    rng = make_rng(seed)
    core = n - index
    t = np.zeros((n, n), dtype=np.complex128)
    t[:core, :core] = np.triu(gaussian_matrix(rng, core, core, False), 1)
    t[np.arange(core), np.arange(core)] = np.exp(
        rng.uniform(math.log(0.5), math.log(2.0), core)
    ) * np.where(rng.integers(0, 2, core) == 0, -1.0, 1.0)
    t[:core, core:] = gaussian_matrix(rng, core, index, False)
    t[core:, core:] = np.eye(index, index, 1)
    return t


def test_criterion_2_drazin_known_index(capsys):
    started = time.perf_counter()
    failures = 0
    for trial in range(200):
        index = 1 + trial % 3
        rng = make_rng(child_seed(201, trial))
        n = int(rng.integers(index + 1, 9))
        if trial < 100:
            m = triangular_known_index(child_seed(202, trial), n, index)
            s, got = drazin(m)
        else:
            m = gen_operator(
                make_rng(child_seed(203, trial)), n, "drazin_index",
                trial % 2 == 0, index=index,
            )
            s, got = drazin(m, tol=1e-4)
        power = np.linalg.matrix_power(m, index)
        tol = 1e-8 * max(1.0, operator_norm(m) ** index)
        worst = max(
            operator_norm(s @ m @ s - s),
            operator_norm(s @ m - m @ s),
            operator_norm(power @ m @ s - power),
        )
        if got != index or worst > tol:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    announce(
        capsys, 2, ok,
        f"core-nilpotent inverse on 200 known-index matrices "
        f"({failures} failures, {elapsed:.1f}s)",
    )
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_3_range_inclusion_three_ways(capsys):
    disagreements = 0
    wrong_verdicts = 0
    for trial in range(200):
        rng = make_rng(child_seed(301, trial))
        cx = trial % 2 == 0
        n = int(rng.integers(2, 9))
        t = conditioned_matrix(child_seed(302, trial), n, n, cx, True)
        included = trial < 100
        if included:
            s = t @ gaussian_matrix(rng, n, n, cx)
        else:
            # spoiler: push unit mass onto a direction orthogonal to range(T)
            comp = np.eye(n) - projector(range_basis(t))
            _, vecs = np.linalg.eigh(comp)
            outside = vecs[:, -1:]
            row = gaussian_matrix(rng, 1, n, cx)
            row /= np.linalg.norm(row)
            s = t @ gaussian_matrix(rng, n, n, cx) + outside @ row
        report = douglas_check(s, t)
        scale = max_psd_scale(t @ t.conj().T, s @ s.conj().T)
        factor_residual = operator_norm(t @ (pinv(t) @ s) - s)
        route_a = report.range_included
        route_b = scale > 0.0
        route_c = factor_residual <= 1e-10 * max(1.0, operator_norm(s))
        if not (route_a == route_b == route_c):
            disagreements += 1
        if route_a != included:
            wrong_verdicts += 1
    ok = disagreements == 0 and wrong_verdicts == 0
    announce(
        capsys, 3, ok,
        f"range inclusion decided three ways on 200 pairs "
        f"({disagreements} disagreements, {wrong_verdicts} wrong verdicts)",
    )
    assert disagreements == 0
    assert wrong_verdicts == 0


def test_criterion_4_reconstruction_round_trip(capsys):
    dims = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32)
    worst = 0.0
    failures = 0
    started = time.perf_counter()
    for trial in range(200):
        dim = dims[trial % len(dims)]
        family = spanning_family(
            make_rng(child_seed(401, trial)), dim, trial % 2 == 0
        )
        rng = make_rng(child_seed(402, trial))
        for _ in range(20):
            f = gaussian_matrix(rng, dim, 1, trial % 2 == 0)[:, 0]
            recovered = reconstruct(family, fusion_analysis(family, f))
            err = float(np.linalg.norm(recovered - f))
            allowed = 1e-10 * (1.0 + float(np.linalg.norm(f)))
            worst = max(worst, err / allowed)
            if err > allowed:
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0
    announce(
        capsys, 4, ok,
        f"4000 reconstructions across 200 spanning families "
        f"({failures} failures, worst {worst:.2e} of budget, {elapsed:.1f}s)",
    )
    assert failures == 0


def test_criterion_5_bound_oracle_agreement(capsys):
    def agree(x, y):
        if math.isinf(x) or math.isinf(y):
            return math.isinf(x) and math.isinf(y)
        return abs(x - y) <= 1e-8 * max(1.0, abs(x), abs(y))

    failures = 0
    for trial in range(400):
        rng = make_rng(child_seed(501, trial))
        dim = int(rng.integers(2, 9))
        family = spanning_family(rng, dim, trial % 2 == 0)
        k = gaussian_matrix(rng, dim, dim, trial % 2 == 0)
        closed = k_lower_bound(family, k)
        oracle = psd_scale_bisection(family.fusion_operator, k @ k.conj().T)
        if not agree(closed, oracle):
            failures += 1
    zero_failures = 0
    for trial in range(50):
        rng = make_rng(child_seed(502, trial))
        dim = int(rng.integers(2, 9))
        family = spanning_family(rng, dim, trial % 2 == 0)
        closed = k_lower_bound(family, np.zeros((dim, dim)))
        oracle = psd_scale_bisection(family.fusion_operator, np.zeros((dim, dim)))
        if not (math.isinf(closed) and math.isinf(oracle)):
            zero_failures += 1
    leak_failures = 0
    for trial in range(50):
        rng = make_rng(child_seed(503, trial))
        dim = int(rng.integers(2, 9))
        # family spans everything except the last coordinate axis
        member = from_span(np.eye(dim)[:, : dim - 1])
        family = WeightedSubspaceFamily(
            dim, ((member, float(rng.uniform(0.5, 2.0))),)
        )
        closed = k_lower_bound(family, np.eye(dim))
        oracle = psd_scale_bisection(family.fusion_operator, np.eye(dim))
        if closed != 0.0 or not agree(closed, oracle):
            leak_failures += 1
    ok = failures == 0 and zero_failures == 0 and leak_failures == 0
    announce(
        capsys, 5, ok,
        f"closed form vs bisection on 500 instances ({failures} generic, "
        f"{zero_failures} zero-operator, {leak_failures} range-leak failures)",
    )
    assert failures == 0
    assert zero_failures == 0
    assert leak_failures == 0


def test_criterion_6_bracketing_suite(capsys):
    started = time.perf_counter()
    entries = default_suite_entries(n_per_theorem=200)
    failures = []
    for inst in entries:
        report = check_instance(inst)
        if not report.passed:
            failures.append(
                (inst.meta["theorem"], inst.meta["scenario"], inst.meta["seed"])
            )
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    announce(
        capsys, 6, ok,
        f"bracketing on {len(entries)} instances, 200 per statement "
        f"({len(failures)} failures, {elapsed:.1f}s single-threaded)",
    )
    assert failures == []
    assert elapsed < 60.0


def test_criterion_7_exactness_pinpoints(capsys):
    def axis(n, j):
        e = np.zeros((n, 1))
        e[j, 0] = 1.0
        return from_span(e)

    deviations = []

    # erasing the spare member of an augmented Parseval family leaves the
    # identity: predicted and actual lower bounds are both exactly 1
    fam = WeightedSubspaceFamily(
        2, ((axis(2, 0), 1.0), (axis(2, 1), 1.0), (axis(2, 0), 0.5))
    )
    report = check_synthesis_perturbation(
        fam, erased=[2], k=np.eye(2), constants=PerturbationConstants(0.0, 0.0)
    )
    deviations.append(abs(report.predicted.lower - 1.0))
    deviations.append(abs(report.actual.lower - 1.0))

    # identical families: the transfer formulas collapse to (A, B) = (1, 4)
    fam = WeightedSubspaceFamily(2, ((axis(2, 0), 1.0), (axis(2, 1), 2.0)))
    report = check_projection_plain(fam, fam, PerturbationConstants(0.0, 0.0))
    deviations.append(abs(report.predicted.lower - 1.0))
    deviations.append(abs(report.predicted.upper - 4.0))
    deviations.append(abs(report.actual.lower - 1.0))
    deviations.append(abs(report.actual.upper - 4.0))

    # halving the operator: predicted lower 4A/9 against actual 4A with A = 1
    fam = WeightedSubspaceFamily(2, ((axis(2, 0), 1.0), (axis(2, 1), 1.0)))
    report = check_operator_perturbation(
        fam, np.eye(2), 0.5 * np.eye(2), PerturbationConstants(0.5, 0.0)
    )
    deviations.append(abs(report.predicted.lower - 4.0 / 9.0))
    deviations.append(abs(report.actual.lower - 4.0))

    worst = max(deviations)
    ok = worst <= 1e-10
    announce(
        capsys, 7, ok,
        f"three hand-computable pinpoints, worst deviation {worst:.2e}",
    )
    assert worst <= 1e-10


def test_criterion_8_negative_controls(capsys, tmp_path):
    silent = []
    for tid, entry in REGISTRY.items():
        inst = build_instance(tid, GenSpec(13, 6, entry.spoiler))
        try:
            check_instance(inst)
            silent.append(tid)
        except HypothesisFailed:
            pass
    # end to end: a spoiler file through the CLI must exit 2
    spoiled = build_instance("thm4.4.2", GenSpec(13, 6, REGISTRY["thm4.4.2"].spoiler))
    path = tmp_path / "spoiler.json"
    path.write_text(dumps_instance(spoiled))
    exit_code = main(["check", str(path)])
    ok = not silent and exit_code == 2
    announce(
        capsys, 8, ok,
        f"{len(REGISTRY)} spoilers rejected, {len(silent)} silent passes, "
        f"CLI exit {exit_code}",
    )
    assert silent == []
    assert exit_code == 2


def test_criterion_9_suite_determinism(capsys, tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    argv = ["suite", "--n-per-theorem", "5", "--spoilers", "--out"]
    code1 = main(argv + [str(first)])
    code2 = main(argv + [str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = identical and code1 == 0 and code2 == 0
    announce(
        capsys, 9, ok,
        f"two suite runs, byte-identical={identical}, exits ({code1}, {code2})",
    )
    assert identical
    assert code1 == 0 and code2 == 0
    report = json.loads(first.read_text())
    assert report["counts"]["fail"] == 0
    assert report["counts"]["hypothesis_failed"] == 0
