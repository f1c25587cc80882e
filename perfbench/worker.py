"""Run one qpnls benchmark workload in this process and report it.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \
        --scratch DIR [--setup-only] [--spans FILE]

Set-up (imports of qpnls, numpy and scipy, then the workload's inputs)
runs first, then one timed call, then the check of its outputs (a
workload that times its call in parts checks between the parts).  With
``--spans`` the public functions of the qpnls layers are spanned during the
timed call and the spans are written to FILE.  The last line on stdout is
a JSON object: the call's start on the ``time.monotonic`` clock, wall and
CPU time of the call (and of its parts), peak RSS, the check's failures
and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import tempfile
import time
import traceback

import numpy as np
import scipy

from qpnls import evolve, harness, lattice, potential, solver

import spans


class PipelineDefault:
    """``qpnls all`` on the built-in default config, called in-process,
    writing into a fresh output directory (``stage_evolve`` would reuse a
    ``solution.json`` left by an earlier run)."""

    def __init__(self, seed: int, scratch: str):
        self.out = tempfile.mkdtemp(prefix="pipeline-", dir=scratch)
        self.stage_wall_s: dict = {}

    def run(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            self.code = harness.main(["all", "--out", self.out])

    def check(self) -> list[str]:
        failures = [] if self.code == 0 else [f"exit code {self.code}"]
        with open(os.path.join(self.out, "manifest.json")) as fh:
            stages = json.load(fh)["stages"]
        for name in harness.STAGES:
            status = stages.get(name, {}).get("status")
            if status != "pass":
                failures.append(f"stage {name}: status {status}")
            else:
                self.stage_wall_s[name] = stages[name]["wall_time_s"]
        shutil.rmtree(self.out)
        return failures


class Verify50:
    """The reference solve, then 50,000 RK4 steps against the series."""

    def __init__(self, seed: int, scratch: str):
        self.params = potential.reference_params()

    def run(self) -> None:
        self.sol = solver.run_solver(self.params)
        self.report = evolve.verify(self.sol, T=50.0, dt=1e-3, tail_radius=8)

    def check(self) -> list[str]:
        failures = []
        if not self.sol.converged:
            failures.append("reference solve did not converge")
        if not self.report.within_budget:
            failures.append(f"deviation {self.report.deviation_sup:.3e} "
                            f"over budget {self.report.budget:.3e}")
        if not self.report.norm_drift <= 1e-8:
            failures.append(f"norm drift {self.report.norm_drift:.3e}")
        return failures


class SolveB2:
    """Newton construction with two excited sites (b = 2) up to N_cap = 5."""

    def __init__(self, seed: int, scratch: str):
        self.params = potential.ModelParams(
            V=potential.TrigPoly.cosine(1), alpha=(0.4142135623,),
            theta=(0.17,), epsilon=1e-3, delta=1e-3, p=1,
            sites=((0,), (2,)), a=(1.5, 1.2))

    def run(self) -> None:
        self.sol = solver.run_solver(self.params, N_cap=5)

    def check(self) -> list[str]:
        sol = self.sol
        failures = []
        if not sol.converged:
            failures.append("did not converge")
        if sol.newton_steps != 3:
            failures.append(f"{sol.newton_steps} Newton steps, expected 3")
        if not sol.certificates.residual < 1e-11:
            failures.append(f"residual {sol.certificates.residual:.3e}")
        return failures


class RegionsR4:
    """Elementary regions of size 3 in Z^4, each indexed for b = 1, 2, 3
    and cut into sections; regions are visited in a seed-shuffled order.

    The call times itself in parts (``parts``): the enumeration, then each
    region.  Each region's outputs are checked as soon as it is done, between
    the timed parts, so the run holds one region's outputs at a time rather
    than all 28,119 sections: a heap that grows with the benchmark's own
    bookkeeping would make the garbage collector's cost, and its sensitivity
    to a busy host, part of the timing."""

    def __init__(self, seed: int, scratch: str):
        self.rng = random.Random(seed)
        self.failures: list = []

    def run(self) -> None:
        cpu0, t0 = time.process_time(), time.perf_counter()
        regions = lattice.enumerate_elementary_regions(4, 3)
        order = list(range(len(regions)))
        self.rng.shuffle(order)
        # (wall, cpu) of the enumeration, then of each region in
        # enumeration order, so that parts line up between repetitions.
        parts = [(time.perf_counter() - t0, time.process_time() - cpu0)]
        parts += [None] * len(regions)
        for i in order:
            cpu0, t0 = time.process_time(), time.perf_counter()
            region = regions[i]
            sites = region.sites()
            per_b = []
            for b in (1, 2, 3):
                m = lattice.index_region(region, b).m
                sections = []
                for k in itertools.product(*[
                        range(l, h + 1)
                        for l, h in zip(region.lo[:b], region.hi[:b])]):
                    try:
                        payload = lattice.region_section(region, b, k).payload
                    except lattice.EmptySectionError:
                        sections.append((k, None, 0, True))
                        continue
                    pts = payload.sites()
                    sections.append((k, pts, payload.size(),
                                     bool(payload.contains_array(pts).all())))
                per_b.append((b, m, sections))
            parts[i + 1] = (time.perf_counter() - t0,
                            time.process_time() - cpu0)
            self.failures.extend(check_region(region, sites, per_b))
        self.parts = parts

    def check(self) -> list[str]:
        failures = self.failures
        if len(failures) > 10:
            failures[10:] = [f"... and {len(failures) - 10} more sections"]
        return failures


def check_region(region, sites, per_b) -> list[str]:
    """Every section of one region against the brute-force grouping of its
    sites; calls nothing that is spanned."""
    failures = []
    for b, m, sections in per_b:
        if m != 2 * len(sites):
            failures.append(f"{region}: index_region b={b} has {m} "
                            f"sites, expected {2 * len(sites)}")
        groups: dict = {}
        for y in sites:
            groups.setdefault(y[:b], set()).add(y[b:])
        for k, pts, size, contained in sections:
            truth = groups.get(k, set())
            got = set() if pts is None else set(pts)
            if got != truth or size != len(truth) or not contained:
                failures.append(f"{region}: section b={b} k={k} "
                                "differs from brute force")
    return failures


WORKLOADS = {
    "pipeline_default": PipelineDefault,
    "verify50": Verify50,
    "solve_b2": SolveB2,
    "regions_r4": RegionsR4,
}


def openblas() -> dict:
    """Runtime thread count and build of each OpenBLAS copy loaded here
    (numpy and scipy each bundle one), read through ctypes."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line and ".so" in line})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        owner = os.path.basename(os.path.dirname(path)).replace(".libs", "")
        for suffix in ("64_", ""):
            try:
                get_threads = getattr(
                    lib, "scipy_openblas_get_num_threads" + suffix)
                get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            out[owner] = {"library": os.path.basename(path),
                          "threads": get_threads(),
                          "config": get_config().decode()}
            break
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas(),
        "env_vars": {key: os.environ[key] for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
                     if key in os.environ},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    rec = None
    if args.spans:
        rec = spans.Recorder()
        spans.install(rec)
    call_start = time.monotonic()
    result = {"call_start": call_start}
    if args.setup_only:
        print(json.dumps(result))
        return

    failures = []
    if rec is not None:
        rec.active = True
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        workload.run()
    except Exception:
        failures.append(traceback.format_exc(limit=3))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    # A workload that times its call in parts checks between them, untimed.
    parts = getattr(workload, "parts", None)
    if parts is not None:
        wall = sum(w for w, _ in parts)
        cpu = sum(c for _, c in parts)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rec is not None:
        rec.active = False
    if not failures:
        try:
            failures.extend(workload.check())
        except Exception:
            failures.append(traceback.format_exc(limit=3))

    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_kib / 1024.0,
                  failures=failures, environment=environment())
    if parts is not None:
        result["parts"] = parts
    if rec is not None:
        layers = spans.summarize(rec, wall)
        for name in harness.STAGES:
            layers[f"harness.stage.{name}.wall_s"] = float(
                getattr(workload, "stage_wall_s", {}).get(name, 0.0))
        result.update(layers=layers, self_s=dict(rec.self_s),
                      inclusive_s=dict(rec.inclusive_s))
        rec.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
