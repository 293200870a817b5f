"""Golden SHA-256 digests of campaign outputs.

bulk_small, bulk_acceptance and cutoff compute only integer counts and
tridiagonal spectra, so their bytes do not depend on the BLAS thread count.
locality, cluster, kirsch, resolvent and subadditive run dense eigensolves
whose last bits do, so they run in a subprocess with one BLAS thread, at
reduced size (locality and cluster at the size the benchmark runs them).
Eigen-derived floats can still differ across numpy/scipy builds, so the
digests are compared only in the environment they were recorded in.
"""

import hashlib
import os
import subprocess
import sys
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


# locality.cfg and cluster.cfg at benchmark size: two realizations, boxes 8
# and 16, margin 4, constant coupling 1; kirsch.cfg with boxes 8, 16, 32 and
# 7 energies; resolvent.cfg with widths 8, 16 and margin 6; subadditive.cfg
# with boxes 8, 16, 32
PINNED_TEXT = {
    "locality": """experiment = locality
seed = 1
realizations = 2
grid.dimension = 2
grid.spacing = 1.0
distribution.kind = constant
distribution.value = 1
profile.kind = point
profile.amplitude = -1.0
schedule = 8, 16
options.margin = 4
options.bump_lo = -1.0
options.bump_hi = 2.0
""",
    "cluster": """experiment = cluster
seed = 1
realizations = 2
grid.dimension = 2
grid.spacing = 1.0
distribution.kind = constant
distribution.value = 1
profile.kind = point
profile.amplitude = -1.0
schedule = 8, 16
options.box_side = 8
options.margin = 4
options.t = 2.0
options.additivity_sites = 320
options.additivity_block = 48
options.additivity_gap = 32
""",
    "kirsch": """experiment = kirsch
seed = 1
grid.dimension = 2
grid.spacing = 1.0
profile.kind = kirsch_patch
profile.amplitude = 8.0
schedule = 8, 16, 32
energies = 0.263, 1.013, 1.763, 2.513, 3.263, 4.013, 4.763
times = 0.5, 1.0, 2.0
""",
    "resolvent": """experiment = resolvent
seed = 17
realizations = 2
grid.dimension = 2
grid.spacing = 1.0
distribution.kind = bernoulli
distribution.p = 0.5
distribution.values = 0, 1
profile.kind = point
profile.amplitude = -0.4
schedule = 8, 16
options.box_side = 8
options.margin = 6
options.power = 2
options.e_values = 1, 2, 4
options.e_main = 2.0
""",
    "subadditive": """experiment = subadditive
seed = 13
realizations = 2
grid.dimension = 2
grid.spacing = 1.0
distribution.kind = bernoulli
distribution.p = 0.5
distribution.values = 0, 1
profile.kind = point
profile.amplitude = -1.0
schedule = 8, 16, 32
options.margin = 6
options.t = 1.0
""",
}

# experiment -> (raw.csv digest, result.json digest), one BLAS thread
PINNED = {
    "locality": ("acf51f47f4bd83d7f799602c15d743c67fd6dc535864116cf51372cc58082aec",
                 "2e08ebe3c461f54cbbce79423d536bdd47c7f5cff7ee3a90ac75abbb22311609"),
    "cluster": ("bc12b4f9e3525504160fc4c07e29f294a2dee1bc25c3f014796b3d0c0bcc0181",
                "98af525555b783f695ec0f2c41e998cfdd267b85001017c59b06cba7b4637ef2"),
    "kirsch": ("7c194b393c070d872371f92036362d1ba13ba0c977de7a8db5e36bed3b946102",
               "e7ca935645f0a6a0df4f246d1dab952180c71c12a1afc827c8262c2f846c3e00"),
    "resolvent": ("0691c34aeec34ca10031a9767a977f18e627dcbee94d418c5080d5a83eb952ec",
                  "3e7c578f2aced0ea947f9472e8082cc8a8fbe27eaba3c068e621bc3cb59c40f0"),
    "subadditive": ("fcfe97a6399b1e444ae1beee9ba441cb1d3cd7ebdde3c91cd28df2df982ce97a",
                    "dbc27d0861cca439557d788a249a5575270abbaf87055eba2ba3bd09193e1a22"),
}


def test_every_shipped_config_is_pinned():
    # surface and brownian are pinned by acceptance 8 and 7
    stems = {cfg.stem for cfg in CONFIGS.glob("*.cfg")}
    assert stems == set(GOLDEN) | set(PINNED) | {"surface", "brownian"}


@pytest.mark.parametrize("experiment", sorted(PINNED))
def test_golden_digests_one_blas_thread(experiment, tmp_path):
    here = {"numpy": np.__version__, "scipy": scipy.__version__}
    if here != FINGERPRINT:
        pytest.skip(f"digests recorded with {FINGERPRINT}, this environment has {here}")
    cfg = tmp_path / f"{experiment}.cfg"
    cfg.write_text(PINNED_TEXT[experiment])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ssflab.harness.cli", experiment,
                           str(cfg), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out" / experiment
    digest = lambda f: hashlib.sha256((out / f).read_bytes()).hexdigest()
    assert (digest("raw.csv"), digest("result.json")) == PINNED[experiment]
