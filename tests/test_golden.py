"""Golden SHA-256 digests of the outputs of three shipped configs.

bulk_small, bulk_acceptance and cutoff compute only integer counts and
tridiagonal spectra, so their bytes do not depend on the BLAS thread count.
Eigen-derived floats can still differ across numpy/scipy builds, so the
digests are compared only in the environment they were recorded in.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy

from ssflab.harness.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FINGERPRINT = {"numpy": "2.4.6", "scipy": "1.17.1"}

# config -> (experiment, raw.csv digest, result.json digest)
GOLDEN = {
    "bulk_acceptance": ("bulk-limit",
                        "9e73665fd217fcbeb6a3fe53c3f22c906612068ac39674186bbfdd8291a393e7",
                        "fa8a9789c90bcd9441fc1d5b25580ea64ebe9f2ca4ab6a6e6b0e5701f68f87ad"),
    "bulk_small": ("bulk-limit",
                   "d830dd26330ae7f6593554bc64f5a34c3bdacaffee9592d21bf8474397094645",
                   "a83dc157153346bd05937275ad55d4f3b1c9f08f41e57a6300691d0496715e37"),
    "cutoff": ("cutoff",
               "5149127c7bcc4aa29c8f8caa3cb6df219592e919e1b6ba9dfdce1857804f8c17",
               "6d06cfce52abf70dfbf9596bffa49494f16b9cfb44534f540fbaff6ecd612aba"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    here = {"numpy": np.__version__, "scipy": scipy.__version__}
    if here != FINGERPRINT:
        pytest.skip(f"digests recorded with {FINGERPRINT}, this environment has {here}")
    experiment, raw_digest, result_digest = GOLDEN[name]
    assert main([experiment, str(CONFIGS / f"{name}.cfg"), "--out", str(tmp_path)]) == 0
    out = tmp_path / experiment
    digest = lambda f: hashlib.sha256((out / f).read_bytes()).hexdigest()
    assert (digest("raw.csv"), digest("result.json")) == (raw_digest, result_digest)
