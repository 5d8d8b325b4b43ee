"""framekit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 36 --trace 0

Run from the root of a framekit source tree; framekit is imported from its
`src/` directory, and nothing else will do.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones from a traced loop.  Outputs are
checked after the timed loop; the exit code is 1 when a check fails.
See perfbench/README.md for the workloads and what each metric means.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_run"
# set-up is repeated and its median reported, so one slow pass does not
# move setup_s
SETUP_REPEATS = 3
# the traced run compares per-round wall time against an untraced loop of
# the same length; each gets this share of --seconds
TRACE_SHARE = 0.5
# self times of all spans must cover this share of the traced loop
ATTRIBUTED_FLOOR = 0.98

CALLS_AND_MS = (
    "numerics.max_psd_scale", "numerics.psd_scale_bisection",
    "numerics.operator_norm", "numerics.pinv", "numerics.drazin",
    "frame_core.fusion_operator", "kfusion.k_lower_bound",
    "instances.build_instance",
)
CALLS_ONLY = ("frame_core.fusion_bounds", "instances.check_instance", "cli.main")
MS_ONLY = ("serialize.loads_instance", "serialize.dumps")


def import_framekit():
    sys.path.insert(0, str(SRC))
    try:
        import framekit
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import framekit from {SRC}: {exc}")
    if Path(framekit.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: framekit resolved to {framekit.__file__}, "
                         f"not the source tree under {SRC}")


def blas_pools() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    pools = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return pools
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                pools[Path(path).name] = fn()
                break
    return pools


@dataclass
class Loop:
    rounds: int
    attempted: int
    failed: int
    wall_s: float
    round_wall_s: list
    round_cpu_s: list
    latencies_s: list
    outputs: list


def timed_loop(workload, items, seconds: float, tracer=None) -> Loop:
    """Whole rounds over ``items`` until ``seconds`` have passed."""
    outputs = [None] * len(items)
    latencies = []
    round_wall = []
    round_cpu = []
    failed = 0
    clock = time.perf_counter
    t0 = clock()
    deadline = t0 + seconds
    while True:
        round_t0 = clock()
        round_cpu0 = time.process_time()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.tag = item.theorem
                span = tracer.open("bench.op")
            started = clock()
            try:
                out = workload.run(item)
            except Exception as exc:  # recorded as the output and checked
                out = exc
            latencies.append(clock() - started)
            if tracer is not None:
                tracer.close(span)
            outputs[i] = out
            failed += not workload.succeeded(out)
        round_cpu.append(time.process_time() - round_cpu0)
        round_wall.append(clock() - round_t0)
        if clock() >= deadline:
            break
    rounds = len(round_wall)
    return Loop(rounds, rounds * len(items), failed, clock() - t0, round_wall,
                round_cpu, latencies, outputs)


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """Medians over the rounds of the loop, so that a slow spell of a few
    seconds does not move a run's figures.  The latency quantiles are taken
    over the inputs, each input's latency being its median over the rounds:
    a scheduler stall that hits a random operation now and then does not
    reach them, while a percentile of each round's latencies counts every
    stall of that round as tail."""
    n = loop.attempted // loop.rounds
    # latencies are in round order, so input i of every round is [i::n]
    per_input = [statistics.median(loop.latencies_s[i::n]) for i in range(n)]
    deciles = statistics.quantiles(per_input, n=10)
    return {
        "items_per_s": (n / statistics.median(loop.round_wall_s), "1/s"),
        "latency_ms_p50": (statistics.median(per_input) * 1e3, "ms"),
        "latency_ms_p90": (deciles[8] * 1e3, "ms"),
        # CPU of the whole process, BLAS threads included
        "cpu_s": (statistics.median(loop.round_cpu_s), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(stats: dict, rounds: int, setup: dict, loop_s: float,
              overhead_s: float, layers, theorems) -> dict:
    """Per-layer figures per round of the traced loop (setup.* per pass)."""
    calls = stats["calls"]
    total = stats["total_s"]
    out = {}
    for layer in layers:
        out[f"{layer}.self_ms"] = (stats["layer_self_s"].get(layer, 0.0) * 1e3 / rounds, "ms")
    for name in CALLS_AND_MS + CALLS_ONLY:
        out[f"{name}.calls"] = (calls.get(name, 0) / rounds, "count")
    for name in CALLS_AND_MS + MS_ONLY:
        out[f"{name}.ms"] = (total.get(name, 0.0) * 1e3 / rounds, "ms")
    bounds = calls.get("numerics.max_psd_scale", 0)
    checks = calls.get("instances.check_instance", 0)
    out["numerics.eigensolves"] = (stats["eigensolves"] / rounds, "count")
    out["numerics.eigensolves_per_bound"] = (
        stats["bound_eigensolves"] / bounds if bounds else 0.0, "ratio")
    out["frame_core.fusion_operator.calls_per_check"] = (
        calls.get("frame_core.fusion_operator", 0) / checks if checks else 0.0, "ratio")
    out["theorems.rejections"] = (stats["rejections"] / rounds, "count")
    for tid in theorems:
        out[f"theorems.{tid}.ms"] = (total.get(f"theorems.{tid}", 0.0) * 1e3 / rounds, "ms")
    out["trace.loop_ms"] = (loop_s * 1e3 / rounds, "ms")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["setup.build_instance.calls"] = (setup["calls"].get("instances.build_instance", 0), "count")
    out["setup.build_instance.ms"] = (setup["total_s"].get("instances.build_instance", 0.0) * 1e3, "ms")
    return out


def warm_up(workload, items) -> float:
    """Run the first input of each theorem once, so that first-call costs
    (lazy imports, library initialisation) stay out of the timed loop."""
    t0 = time.perf_counter()
    seen = set()
    for item in items:
        if item.theorem not in seen:
            seen.add(item.theorem)
            try:
                workload.run(item)
            except Exception:  # the timed loop records and checks failures
                pass
    return time.perf_counter() - t0


def plain_run(workload, seed: int, seconds: float, import_s: float):
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = workload.prepare(seed, WORKDIR)
        prepare_s.append(time.perf_counter() - t0)
    warm_s = warm_up(workload, items)
    setup_s = import_s + statistics.median(prepare_s) + warm_s
    loop = timed_loop(workload, items, seconds)
    print(f"perfbench: {workload.name} seed={seed} rounds={loop.rounds} "
          f"items/round={len(items)} import={import_s:.3f}s "
          f"prepare={[round(x, 3) for x in prepare_s]} warm-up={warm_s:.3f}s",
          file=sys.stderr)
    return (loop.attempted, loop.failed, workload.check(items, loop.outputs),
            end_to_end(loop, setup_s))


def traced_run(workload, seed: int, seconds: float, theorems):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        items = workload.prepare(seed, WORKDIR)
    finally:
        tracer.uninstall()
    setup_stats = tracer.stats()
    setup_spans = tracer.export()
    tracer.reset()

    warm_up(workload, items)
    plain = timed_loop(workload, items, seconds * TRACE_SHARE)
    tracer.install()
    try:
        traced = timed_loop(workload, items, seconds * TRACE_SHARE, tracer)
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    overhead_s = statistics.median(traced.round_wall_s) - statistics.median(plain.round_wall_s)
    metrics = per_layer(stats, traced.rounds, setup_stats, traced.wall_s,
                        overhead_s, tracing.LAYERS + ("bench",), theorems)

    problems = workload.check(items, traced.outputs)
    attributed = stats["root_s"] / traced.wall_s
    if attributed < ATTRIBUTED_FLOOR:
        problems.append(f"spans cover only {attributed:.1%} of the traced loop")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    trace_path = WORKDIR / f"trace-{workload.name}-{seed}.npz"
    tracing.save(trace_path, setup=setup_spans, loop=tracer.export())
    print(f"perfbench: {workload.name} seed={seed} traced rounds={traced.rounds} "
          f"untraced rounds={plain.rounds} spans={len(tracer.start)} "
          f"attributed={attributed:.4f} trace={trace_path}", file=sys.stderr)
    return (plain.attempted + traced.attempted, plain.failed + traced.failed,
            problems, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_framekit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _STARTED
    print(f"perfbench: BLAS thread pools {blas_pools()}", file=sys.stderr)
    if args.trace:
        attempted, failed, problems, metrics = traced_run(
            workload, args.seed, args.seconds, workloads.THEOREMS)
    else:
        attempted, failed, problems, metrics = plain_run(
            workload, args.seed, args.seconds, import_s)
    for problem in problems[:20]:
        print(f"perfbench: CHECK FAILED {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"perfbench: ... {len(problems) - 20} more failed checks", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
