"""ssflab benchmark: campaign wall time end to end, per-layer time from a trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep

Each workload run starts one fresh process per campaign
(``perfbench/child.py``), which calls ``ssflab.harness.cli.main`` the way the
``ssflab`` command does, with the package taken from ``src/`` of this
checkout and one BLAS/OpenMP thread.  For ``--seconds`` the benchmark
runs the workload at ``--workers`` 1 and 2 in the order ``ORDER`` and
reports for each worker count the sum over the workload's campaigns of
their median times.

Every campaign run must exit 0 within ``CHILD_TIMEOUT_S``, write its
outputs and pass every hard check, and the
SHA-256 of its ``result.json`` and ``raw.csv`` must be the same on every
repetition and at both worker counts; a workload run that breaks any of
this counts as failed.  So does a traced run whose layer spans cover less
than ``COVERAGE_MIN`` of the wall time.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracer.py`` from a traced run at 1 worker (busy ratio from a
traced run at 2 workers), next to an untraced run that gives the overhead.
``--sweep`` runs every ``configs/*.cfg`` once, traced, and prints wall time
and layer shares.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"

# one BLAS/OpenMP thread per process, so --workers 2 uses at most 2 threads
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 60
SWEEP_TIMEOUT_S = 900
# worker counts of successive workload runs: balanced, so a drift in the
# machine's speed weighs on both alike
ORDER = (1, 2, 2, 1)
# GRACE_S after --seconds (counted from the start) no more repetitions
# start and a campaign process gets at most 1 s: a hanging or much slower
# program still ends the benchmark, with a result, within 180 s
GRACE_S = 60
COVERAGE_MIN = 0.95  # ROADMAP gate on the traced share of wall time

# shares printed by --sweep: layer group -> span-name prefixes
GROUPS = (
    ("assembly", ("model.", "randomfield.")),
    ("counting", ("spectral.count_below", "ssf.")),
    ("eigensolve", ("spectral.eig_all",)),
    ("matrix functions", ("spectral.heat_semigroup", "spectral.trace_norm",
                          "spectral.heat_trace")),
    ("monte carlo", ("brownian.",)),
    ("campaign glue", tracer.GLUE),
    ("config and output", ("harness.parse_config", "harness.write_all")),
)


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def _child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_checkout() -> None:
    for need in (ROOT / "src" / "ssflab" / "harness" / "cli.py", ROOT / "configs"):
        if not need.exists():
            raise BenchError(f"missing {need.relative_to(ROOT)}: run from a "
                             "checkout that holds src/ and configs/")


def _warm_up() -> None:
    """Fill the bytecode and file caches once; users pay neither per run.
    A failure here shows again, and is counted, in the campaign runs."""
    try:
        subprocess.run([sys.executable, "-c", "import ssflab.harness.cli"],
                       env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        pass


def run_campaign(workdir: Path, experiment: str, config: Path, workers: int,
                 trace: bool, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """One fresh CLI process; returns its timings, digests and verdict.

    A process that crashes or outlives ``timeout`` (it is killed) gives a
    failed sample whose wall time is its time from spawn to exit."""
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(report)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", experiment, str(config), "--out", str(outdir),
            "--workers", str(workers)]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        error = (f"process exit {proc.returncode}: {proc.stderr[-300:]!r}"
                 if proc.returncode != 0 or not report.exists() else None)
    except subprocess.TimeoutExpired:
        error = f"killed after {timeout} s"
    if error is not None:
        elapsed = time.perf_counter() - t_spawn
        shutil.rmtree(outdir, ignore_errors=True)
        return {"experiment": experiment, "passed": False, "error": error,
                "hard_failures": [], "digest": None, "wall_s": elapsed,
                "setup_s": None, "peak_rss_mb": 0.0, "environment": None,
                "trace": None}
    rep = json.loads(report.read_text())
    if Path(rep["ssflab_src"]) != (ROOT / "src").resolve():
        raise BenchError(f"imported ssflab from {rep['ssflab_src']}, not src/")
    result = outdir / experiment / "result.json"
    raw = outdir / experiment / "raw.csv"
    done = result.exists() and raw.exists()
    record = json.loads(result.read_text()) if done else {}
    hard_failures = [c["name"] for c in record.get("checks", [])
                     if c["kind"] == "hard" and not c["passed"]]
    sample = {
        "experiment": experiment,
        # outputs written, exit code 0, every hard check passed
        "passed": done and rep["rc"] == 0 and not hard_failures,
        "error": f"exit {rep['rc']}" + ("" if done else ", outputs missing"),
        "hard_failures": hard_failures,
        "digest": ({"result.json": _sha256(result), "raw.csv": _sha256(raw)}
                   if done else None),
        "wall_s": rep["main_end"] - rep["main_start"],
        "setup_s": (rep["first_call"] - t_spawn
                    if rep["first_call"] is not None else None),
        "peak_rss_mb": rep["peak_rss_mb"],
        "environment": rep["environment"],
        "trace": rep["trace"],
    }
    shutil.rmtree(outdir, ignore_errors=True)
    return sample


class WorkloadRunner:
    """Runs one workload repeatedly and keeps the correctness ledger."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.deadline = deadline  # perf_counter instant
        self.workdir = RUNS / f"{name}-{seed}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.configs = []
        for i, camp in enumerate(WORKLOADS[name].campaigns):
            path = self.workdir / f"{i}-{camp.config}"
            path.write_text(config_text(ROOT, camp, seed))
            self.configs.append((camp.experiment, path))
        self.reference: dict = {}  # experiment -> first passing digest
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.environment: dict = {}

    def fail(self, problems: list) -> None:
        """Count the current workload run as failed, for these reasons."""
        self.failed += 1
        self.failures.extend(problems)

    def run(self, workers: int, trace: bool = False) -> dict:
        """One workload run: every campaign once, back to back."""
        samples = [run_campaign(self.workdir, exp, cfg, workers, trace,
                                min(CHILD_TIMEOUT_S, max(
                                    1.0, self.deadline - time.perf_counter())))
                   for exp, cfg in self.configs]
        self.environment = next((s["environment"] for s in samples
                                 if s["environment"]), self.environment)
        self.attempted += 1
        problems = []
        for s in samples:
            if not s["passed"]:
                problems.append(f"{s['experiment']}: {s['error']}, "
                                f"hard failures {s['hard_failures']}")
                continue
            ref = self.reference.setdefault(s["experiment"], s["digest"])
            if s["digest"] != ref:
                problems.append(f"{s['experiment']}: digest {s['digest']} "
                                f"differs from {ref} (workers={workers})")
        if problems:
            self.fail(problems)
        return {
            "workers": workers,
            "walls": [s["wall_s"] for s in samples],  # one per campaign
            "setup_s": [s["setup_s"] for s in samples if s["setup_s"] is not None],
            "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
            "stats": (tracer.merge_stats([s["trace"] for s in samples])
                      if trace and all(s["trace"] for s in samples) else None),
        }


def _loop(seconds: float, hard_deadline: float, step, min_steps: int) -> list:
    """Call step() until another call would pass the deadline, at least
    min_steps times unless hard_deadline has passed; returns the list of
    what step() returned."""
    deadline = time.perf_counter() + seconds
    out, took = [], []
    while True:
        t = time.perf_counter()
        out.append(step(len(out)))
        took.append(time.perf_counter() - t)
        now = time.perf_counter()
        if now >= hard_deadline or (len(out) >= min_steps
                                    and now + statistics.median(took) > deadline):
            return out


def _median_wall(runs: list) -> float:
    """Workload wall time: each campaign's median time, summed.

    Per campaign, so that one slow spell spoils one sample of one campaign,
    not a whole workload run."""
    return sum(statistics.median(walls)
               for walls in zip(*(r["walls"] for r in runs)))


def measure_end_to_end(runner: WorkloadRunner, seconds: float) -> dict:
    runs = _loop(seconds, runner.deadline,
                 lambda i: runner.run(ORDER[i % len(ORDER)]), len(ORDER))
    w1 = [r for r in runs if r["workers"] == 1]
    w2 = [r for r in runs if r["workers"] == 2]
    # a run whose processes all failed before their first campaign call
    # leaves no set-up time: its wall time stands in for it
    setups = ([s for r in runs for s in r["setup_s"]]
              or [sum(r["walls"]) for r in runs])
    print(f"# runs: {len(w1)} at 1 worker, {len(w2)} at 2 workers; "
          f"{len(setups)} process set-ups")
    print("# wall_s samples:    " + " ".join(f"{sum(r['walls']):.3f}" for r in w1))
    print("# wall_s_w2 samples: " + " ".join(f"{sum(r['walls']):.3f}" for r in w2))
    print("# setup_s samples:   " + " ".join(f"{s:.3f}" for s in setups))
    for runs_w, label in ((w1, "1 worker"), (w2, "2 workers")):
        print(f"# median per campaign, {label}: " + ", ".join(
            f"{exp} {statistics.median(walls):.3f}" for (exp, _), walls
            in zip(runner.configs, zip(*(r["walls"] for r in runs_w)))))
    return {
        "wall_s": (_median_wall(w1), "s"),
        "wall_s_w2": (_median_wall(w2), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in w1), "MB"),
    }


def measure_per_layer(runner: WorkloadRunner, seconds: float) -> dict:
    plain, traced, traced_w2 = [], [], []

    def rep(i):
        plain.append(runner.run(1))
        traced.append(runner.run(1, trace=True))
        traced_w2.append(runner.run(2, trace=True))
        # a failed process leaves no trace; its run is counted as failed
        empty = tracer.merge_stats([])
        values = tracer.derive_metrics(traced[-1]["stats"] or empty,
                                       traced_w2[-1]["stats"] or empty)
        if traced[-1]["stats"] and values["trace.coverage"] < COVERAGE_MIN:
            runner.fail([f"trace coverage {values['trace.coverage']:.3f} "
                         f"below {COVERAGE_MIN}"])
        return values

    reps = _loop(seconds, runner.deadline, rep, 2)
    units = {m["name"]: m["unit"] for m in tracer.per_layer_spec()}
    print(f"# traced repetitions: {len(reps)}")
    out = {name: (statistics.median(r[name] for r in reps), units[name])
           for name in units if name in reps[0]}
    # taken as wall_s is, from runs interleaved in time
    out["trace.overhead_s"] = (_median_wall(traced) - _median_wall(plain), "s")
    return out


def sweep() -> int:
    """Run every shipped config once, traced, and print time and shares."""
    _check_checkout()
    _warm_up()
    workdir = RUNS / "sweep"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    names = [g for g, _ in GROUPS]
    print("| config | wall s | pass | " + " | ".join(names) + " | untraced |")
    print("|---" * (len(names) + 4) + "|")
    rows = {}
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        experiment = next(line.split("=", 1)[1].strip()
                          for line in cfg.read_text().splitlines()
                          if line.split("=", 1)[0].strip() == "experiment")
        s = run_campaign(workdir, experiment, cfg, 1, True, SWEEP_TIMEOUT_S)
        if not s["passed"]:
            print(f"| {cfg.name} | {s['wall_s']:.2f} | False: {s['error']}, "
                  f"hard failures {s['hard_failures']} |", flush=True)
            rows[cfg.name] = {"wall_s": s["wall_s"], "passed": False}
            continue
        st = s["trace"]
        shares = {g: sum(e["self_s"] for k, e in st["layers"].items()
                         if k.startswith(prefixes)) / st["wall_s"]
                  for g, prefixes in GROUPS}
        untraced = 1.0 - sum(e["self_s"] for e in st["layers"].values()) / st["wall_s"]
        print(f"| {cfg.name} | {s['wall_s']:.2f} | {s['passed']} | "
              + " | ".join(f"{100 * shares[g]:.1f}%" for g in names)
              + f" | {100 * untraced:.1f}% |", flush=True)
        rows[cfg.name] = {"wall_s": s["wall_s"], "passed": s["passed"],
                          "shares": shares, "environment": s["environment"]}
    print(json.dumps({"sweep": rows}))
    return 0 if all(r["passed"] for r in rows.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="run every configs/*.cfg once and print layer shares")
    args = ap.parse_args(argv)
    if args.sweep:
        return sweep()
    if args.workload is None:
        ap.error("--workload is required unless --sweep is given")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    _check_checkout()
    deadline = time.perf_counter() + args.seconds + GRACE_S
    _warm_up()
    runner = WorkloadRunner(args.workload, args.seed, deadline)
    measure = measure_per_layer if args.trace else measure_end_to_end
    metrics = measure(runner, args.seconds)

    print(f"# workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k} {v}" for k, v in runner.environment.items()))
    for exp, digest in runner.reference.items():
        print(f"# digest {exp}: result.json {digest['result.json']} "
              f"raw.csv {digest['raw.csv']}")
    for problem in runner.failures:
        print(f"# FAILED {problem}")
    # reported here and as "failed"/"attempted", not as a metric: a metric
    # must never read 0
    print(f"# fail_ratio {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} runs failed)")
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"# {name:<{width}} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        raise SystemExit(2)
