"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is pinned
here; the campaigns execute exactly the shipped config files, so a passing
suite certifies the same runs the CLI performs.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla

from ssflab import spectral, ssf
from ssflab.experiments import RUNNERS
from ssflab.harness.cli import main as cli_main
from ssflab.harness.config import parse_config
from ssflab.model import IntBox, SingleSiteProfile, assemble_hamiltonian, \
    assemble_potential, build_grid, free_hamiltonian
from ssflab.randomfield import DistributionSpec, sample_couplings
from test_golden import FINGERPRINT

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# SHA-256 of the surface record's to_json(), compared only in the numpy/scipy
# environment of test_golden.FINGERPRINT (BLAS-thread-invariant)
SURFACE_RECORD_SHA256 = "e2a16c402c6ad8cb29c615c69360cb8c4113ac82a8d4c791a459a311ee854784"
# SHA-256 of the brownian record's to_json() in the same environment; the
# record holds no linear algebra, so its bytes do not depend on the BLAS
# thread count
BROWNIAN_RECORD_SHA256 = "80a43ded77ac2593e59f01130d76031caf918d316d13904cc27f43d4cf8d7cef"


def report(num, name, passed, budget, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:>2} [{status}] {name} "
          f"({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {num} over budget: {elapsed:.1f}s"


def run_config(name):
    text = (CONFIGS / f"{name}.cfg").read_text()
    cfg = parse_config(text)
    return RUNNERS[cfg.experiment](cfg)


def alloy_1d(n, seed):
    g = build_grid(1, 1.0, n)
    field = sample_couplings(DistributionSpec("uniform", low=-1.0, high=1.0),
                             IntBox((0,), (n - 1,)), seed)
    pot = assemble_potential(g, SingleSiteProfile.point(-1.0, 1), field)
    return assemble_hamiltonian(g, pot), free_hamiltonian(g)


def test_criterion_01_counting_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(2, 201))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        w = sla.eigvalsh(a)
        scale = float(np.abs(a).sum(axis=1).max())
        lams = []
        while len(lams) < 20:
            lam = rng.uniform(w.min() - 1.0, w.max() + 1.0)
            if np.min(np.abs(w - lam)) > 1e-9 * scale:   # off-spectrum choice
                lams.append(lam)
        for lam in lams:
            if spectral.count_below(a, lam) != int(np.searchsorted(w, lam, side="left")):
                mismatches += 1
    report(1, "counting oracle equivalence", mismatches == 0,
           30.0, time.monotonic() - t0, f"mismatches={mismatches}/4000")


def test_criterion_02_birman_krein_identity():
    t0 = time.monotonic()
    h, h0 = alloy_1d(400, 41)
    supports = [(-2.0, -0.5), (-1.5, 0.5), (-1.0, 1.5), (-0.5, 2.5), (0.5, 3.5)]
    worst = 0.0
    ok = True
    for a, b in supports:
        g = spectral.BumpFunction(a, b)
        res = abs(ssf.birman_krein_residual(h, h0, g))
        tol = 1e-8 * 400 * g.max_abs_derivative()
        worst = max(worst, res / tol)
        ok &= res <= tol
    report(2, "finite-dimensional Birman-Krein", ok,
           60.0, time.monotonic() - t0, f"worst residual/tol={worst:.2e}")


def test_criterion_03_laplace_identity():
    t0 = time.monotonic()
    h, h0 = alloy_1d(300, 42)
    ev_h, ev_h0 = (spectral.eig_all(x)[0] for x in (h, h0))
    worst = 0.0
    ok = True
    for t in (0.5, 1.0, 2.0):
        g = spectral.ExpWeight(t)
        a = ssf.trace_difference(ev_h, ev_h0, g)
        b = ssf.xi_integral(ev_h, ev_h0, g)
        rel = abs(a - b) / max(abs(a), abs(b))
        worst = max(worst, rel)
        ok &= rel <= 1e-8
    report(3, "Laplace-transform identity", ok,
           30.0, time.monotonic() - t0, f"worst rel={worst:.2e}")


def test_criterion_04_bulk_limit():
    t0 = time.monotonic()
    rec = run_config("bulk_acceptance")
    dev = next(c for c in rec.checks if c["name"] == "bulk_deviation")
    var = next(c for c in rec.checks if c["name"] == "variance_endpoints")
    ok = rec.passed and dev["passed"] and var["passed"]
    report(4, "bulk limit = Dirichlet counting density", ok,
           600.0, time.monotonic() - t0,
           f"deviation={dev['value']:.5f} (tol 0.02), "
           f"var {var['tolerance']:.2e} -> {var['value']:.2e}")


def test_criterion_05_locality_slopes():
    t0 = time.monotonic()
    rec = run_config("locality")
    s1 = rec.fits["inside"]["slope"]
    s2 = rec.fits["outside"]["slope"]
    ok = rec.passed and -1.3 <= s1 <= -0.7 and -1.3 <= s2 <= -0.7
    report(5, "sharp-cutoff locality", ok, 600.0, time.monotonic() - t0,
           f"slopes inside={s1:.3f} outside={s2:.3f} in [-1.3, -0.7]")


def test_criterion_06_cluster_scaling_and_additivity():
    t0 = time.monotonic()
    rec = run_config("cluster")
    slope = rec.fits["interface"]["slope"]
    defect = rec.aggregates["additivity_defect"]
    ok = rec.passed and 0.7 <= slope <= 1.3 and defect <= 1.1
    report(6, "cluster interface scaling + 1D additivity", ok,
           600.0, time.monotonic() - t0,
           f"slope={slope:.3f} in [0.7, 1.3]; additivity defect={defect} <= 1.1")


def test_criterion_07_brownian_bounds():
    t0 = time.monotonic()
    rec = run_config("brownian")
    ok = rec.passed
    bad = [r for r in rec.rows if r["p_hat"] + 3 * r["stderr"] > r["bound"]]
    pinned = {"numpy": np.__version__, "scipy": scipy.__version__} == FINGERPRINT
    if pinned:
        ok &= hashlib.sha256(rec.to_json().encode()).hexdigest() == BROWNIAN_RECORD_SHA256
    report(7, "hitting bounds (envelope + 1D law)", ok and not bad,
           300.0, time.monotonic() - t0,
           f"{len(rec.rows)} grid points, envelope violations={len(bad)}, "
           f"record digest {'pinned' if pinned else 'not compared'}")


def test_criterion_08_surface_states():
    t0 = time.monotonic()
    rec = run_config("surface")
    chain = next(c for c in rec.checks if c["name"] == "chain_rule_exact")
    conv = next(c for c in rec.checks if c["name"] == "per_length_convergence")
    ok = rec.passed and chain["passed"] and conv["passed"]
    pinned = {"numpy": np.__version__, "scipy": scipy.__version__} == FINGERPRINT
    if pinned:
        ok &= hashlib.sha256(rec.to_json().encode()).hexdigest() == SURFACE_RECORD_SHA256
    report(8, "surface states per unit length", ok,
           900.0, time.monotonic() - t0,
           f"chain rule exact={chain['passed']}, "
           f"relative change={conv['value']:.4f} <= 0.05, "
           f"record digest {'pinned' if pinned else 'not compared'}")


def test_criterion_09_cutoff_equivalence():
    t0 = time.monotonic()
    rec = run_config("cutoff")
    vals = [v for _, v in rec.series["normdiff_vs_L"]]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    report(9, "sharp vs lattice-sum cutoff", rec.passed and decreasing,
           300.0, time.monotonic() - t0,
           "normalised difference strictly decreasing over L in {32,64,128,256}")


def test_criterion_10_worker_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = CONFIGS / "bulk_small.cfg"
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    rc1 = cli_main(["bulk-limit", str(cfg), "--out", str(out1), "--workers", "1"])
    rc4 = cli_main(["bulk-limit", str(cfg), "--out", str(out4), "--workers", "4"])
    a = (out1 / "bulk-limit" / "raw.csv").read_bytes()
    b = (out4 / "bulk-limit" / "raw.csv").read_bytes()
    report(10, "byte-identical outputs across worker counts",
           rc1 == 0 and rc4 == 0 and a == b,
           120.0, time.monotonic() - t0, f"{len(a)} bytes compared")


def test_criterion_11_kirsch_demonstration():
    t0 = time.monotonic()
    rec = run_config("kirsch")
    dual = next(c for c in rec.checks if c["name"] == "psi_dual_evaluation")
    growth = next(c for c in rec.checks if c["name"] == "phi_growth")
    # growth is a soft check: failure downgrades to a warning with data attached
    if not growth["passed"]:
        print(f"\nWARNING: phi growth only {growth['value']} < 2 at this scale "
              f"(soft check, data recorded)")
    ok = rec.passed and dual["passed"]
    report(11, "pointwise growth vs bounded Laplace transform", ok,
           600.0, time.monotonic() - t0,
           f"dual-evaluation rel error={dual['value']:.2e} <= 1e-8, "
           f"growth={growth['value']} (soft)")
