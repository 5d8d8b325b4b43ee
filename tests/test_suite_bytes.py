"""The suite-v1 bytes of three seeded sweeps are pinned by their sha256.

A change that moves any verdict, bound or margin of the standard sweep
changes these digests.  The digests were recorded with the NumPy and SciPy
versions below; other versions may round differently, so the test skips
there rather than fail.
"""

import hashlib

import numpy as np
import pytest
import scipy

from framekit.cli import main

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}
DIGESTS = {
    1: "186eead3ab678e647ea9781042eda2596b68ebff625d12257c8bbb749466ea88",
    2: "f7d02dbdbcaee3611b3c89d81c4015daf0c1fd6665996d8c578de85a027065f1",
    3: "13b3069bac024fc7e791b22d3fea5fef54445502fbb1c97c4f6d2cc4d166f28a",
}


@pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"suite digests were recorded with {RECORDED_WITH}",
)
@pytest.mark.parametrize("offset", sorted(DIGESTS))
def test_suite_bytes_match_the_recorded_digest(tmp_path, capsys, offset):
    out = tmp_path / "suite.json"
    code = main([
        "suite", "--seed", str(20260814 + offset), "--n-per-theorem", "20",
        "--threads", "1", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[offset]
