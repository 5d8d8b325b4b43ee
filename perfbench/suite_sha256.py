"""Print the sha256 of the `framekit/suite-v1` JSON for the `suite`
workload's inputs, computed anew by `framekit suite` on every call.

    python3 perfbench/suite_sha256.py --seed 0

Runs `framekit suite --seed <20260814 + seed> --n-per-theorem 20
--threads 1` in-process, checks that its rows are the workload's inputs
(theorem, seed, dim and scenario, in order), and prints the digest as the
last line.  Equal digests before and after a change show that the suite
bytes did not change.
"""

import argparse
import contextlib
import hashlib
import json
import sys

from run import WORKDIR, import_framekit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    import_framekit()
    from framekit import cli
    import workloads

    WORKDIR.mkdir(parents=True, exist_ok=True)
    out = WORKDIR / f"suite-{args.seed}.json"
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main([
            "suite", "--seed", str(workloads.SUITE_BASE_SEED + args.seed),
            "--n-per-theorem", str(workloads.SUITE_PER_THEOREM),
            "--threads", "1", "--out", str(out),
        ])
    if code != 0:
        print(f"suite_sha256: framekit suite exited {code}", file=sys.stderr)
        return 1
    data = out.read_bytes()
    rows = [(r["theorem"], r["seed"], r["dim"], r["scenario"])
            for r in json.loads(data)["results"]]
    expected = [(it.theorem, it.data.seed, it.data.dim, it.data.scenario)
                for it in workloads.suite_specs(args.seed)]
    if rows != expected:
        print("suite_sha256: the suite rows are not the workload's inputs",
              file=sys.stderr)
        return 1
    print(f"{hashlib.sha256(data).hexdigest()}  suite seed={args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
