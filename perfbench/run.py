"""qpnls benchmark: run a workload in fresh processes and report medians.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root; the library is imported from ``src/``.
Every repetition is a fresh ``worker.py`` process, run one at a time with
the default BLAS thread count, which is recorded but not pinned.  With
``--trace 0`` the run reports the end-to-end metrics (medians over the
repetitions that fit in ``--seconds``); with ``--trace 1`` it alternates an
untraced and a traced repetition and reports the per-layer metrics of the
traced ones.  Every repetition's output is checked; a failed check counts
as a failed operation.  Metrics are printed by name with their unit, full
results go to ``.perfbench_out/``, and the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("pipeline_default", "verify50", "solve_b2", "regions_r4")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
              "setup_s": "s"}
# Set-up timings per run; set-up-only processes make up the count.
MIN_SETUPS = 3
WORKER_TIMEOUT_S = 120

STAGES = ("regions", "dioph", "ldt", "solve", "evolve")
LAYER_METRICS = (spans.metric_names()
                 + [f"harness.stage.{stage}.wall_s" for stage in STAGES]
                 + ["trace.wall_s", "trace.overhead_s"])

# Unit of a per-layer metric, by the end of its name.
LAYER_UNITS = (
    (".self_s", "s"), (".wall_s", "s"), (".overhead_s", "s"),
    (".calls", "count"), (".singular", "count"), (".entries", "count"),
    (".max_m", "count"), (".steps", "count"), (".sites", "count"),
    (".ns_per_entry", "ns"), (".us_per_step", "us"),
    (".green_per_sigma", "calls/sigma"), (".self_share", "%"),
)
# Counts that must repeat exactly between traced repetitions.
EXACT = ("count", "calls/sigma")


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def spawn(workload: str, seed: int, scratch: str, *extra: str) -> dict:
    """One worker process; returns its report plus ``setup_s`` and
    ``process_s``, or ``{"error": ...}`` if it produced no report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scratch", scratch, *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s",
                "process_s": time.monotonic() - start}
    process_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: "
                         + proc.stderr.strip()[-2000:],
                "process_s": process_s}
    report = json.loads(lines[-1])
    report["setup_s"] = report["call_start"] - start
    report["process_s"] = process_s
    return report


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def steal_s() -> float | None:
    """CPU time the hypervisor gave to others so far, summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scratch: str) -> dict:
    """Repetitions until the next would overrun ``seconds``, at least one
    (an untraced and a traced one with ``trace``); then, without ``trace``,
    set-up-only processes until set-up has been timed ``MIN_SETUPS`` times."""
    start = time.monotonic()
    reps, traced, setups = [], [], []
    spans_path = OUT / f"spans-{workload}-seed{seed}.csv"
    while True:
        round_start = time.monotonic()
        reps.append(spawn(workload, seed, scratch))
        if trace:
            traced.append(spawn(workload, seed, scratch,
                                "--spans", str(spans_path)))
        now = time.monotonic()
        if now - start + (now - round_start) > seconds:
            break
    while not trace and len(reps) + len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, scratch, "--setup-only"))
    return {"setups": setups, "reps": reps, "traced": traced,
            "spans": str(spans_path) if trace else None}


def failures_of(runs: list[dict]) -> list[str]:
    out = []
    for i, r in enumerate(runs):
        if "error" in r:
            out.append(f"run {i}: {r['error']}")
        out.extend(f"run {i}: {f}" for f in r.get("failures", []))
    return out


def failed_ops(runs: list[dict]) -> int:
    return sum(1 for r in runs if "error" in r or r["failures"])


def sum_of_part_medians(measured: list[dict]) -> dict:
    """For a workload that times its call in parts: per metric, the sum over
    the parts of each part's median over the repetitions.  A slowdown of the
    host that hits a part in fewer than half of the repetitions drops out,
    as it would from a whole-call median only if it hit fewer than half of
    the calls."""
    parts = [r.get("parts") for r in measured]
    if not parts or None in parts or len({len(p) for p in parts}) > 1:
        return {}
    return {name: sum(statistics.median(rep[i][k] for rep in parts)
                      for i in range(len(parts[0])))
            for k, name in enumerate(("wall_s", "cpu_s"))}


def end_to_end(raw: dict) -> tuple[dict, list[str]]:
    """Medians of the end-to-end metrics (sums of part medians for a
    workload timed in parts), and lines describing the samples."""
    measured = [r for r in raw["reps"] if "error" not in r]
    samples = {name: [r[name] for r in measured]
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [r["setup_s"] for r in raw["setups"] + raw["reps"]
                          if "error" not in r]
    by_parts = sum_of_part_medians(measured)
    metrics, notes = {}, []
    for name, values in samples.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = (by_parts.get(name, med), END_TO_END[name])
        if name in by_parts:
            notes.append(f"  {name:12s} sum of part medians "
                         f"{by_parts[name]:.6g} over "
                         f"{len(measured[0]['parts'])} parts")
        notes.append(f"  {name:12s} n={len(values)} median={med:.6g} "
                     f"q1={q1:.6g} q3={q3:.6g} "
                     f"min={min(values):.6g} max={max(values):.6g}")
    return metrics, notes


def per_layer(raw: dict) -> tuple[dict, list[str], int, list[str]]:
    """Medians of the per-layer metrics over the traced repetitions, the
    tracing overhead, the counts that did not repeat exactly and how many
    traced repetitions they make fail, and lines naming the largest self
    and inclusive times."""
    layered = [r for r in raw["traced"] if "error" not in r]
    untraced = [r for r in raw["reps"] if "error" not in r]
    if not layered or not untraced:
        return {}, [], 0, []
    metrics, unrepeated = {}, []
    for name in layered[0]["layers"]:
        values = [r["layers"][name] for r in layered]
        unit = layer_unit(name)
        if unit not in EXACT:
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) > 1:
            unrepeated.append(f"{name} differs between traced runs: {values}")
        metrics[name] = (values[0], unit)
    exact = [n for n, (_, unit) in metrics.items() if unit in EXACT]
    differing = sum(1 for r in layered[1:] if not r["failures"] and any(
        r["layers"][n] != layered[0]["layers"][n] for n in exact))
    traced_wall = statistics.median(r["wall_s"] for r in layered)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    notes = [f"  traced runs {len(layered)}, untraced runs {len(untraced)}, "
             f"untraced wall_s median {untraced_wall:.6g} s"]
    for kind, key in (("self", "self_s"), ("inclusive", "inclusive_s")):
        times = sorted(((statistics.median(r[key][n] for r in layered), n)
                        for n in layered[0][key]), reverse=True)
        notes.append(f"  largest {kind} times: " + ", ".join(
            f"{n} {v:.4g} s ({100 * v / traced_wall:.1f}%)"
            for v, n in times[:5] if v > 0))
    return metrics, unrepeated, differing, notes


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    steal0 = steal_s()
    try:
        raw = run_workload(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ops = raw["reps"] + raw["traced"]
    problems = failures_of(ops) + failures_of(raw["setups"])
    failed = failed_ops(ops)
    if trace:
        metrics, unrepeated, differing, notes = per_layer(raw)
        problems += unrepeated
        failed += differing
    else:
        metrics, notes = end_to_end(raw)
    env = next((r["environment"] for r in ops if "environment" in r), {})
    env = {**env, "nproc": len(os.sched_getaffinity(0)),
           "git_commit": git_commit(), "seed": seed,
           "cpu_steal_s": None if steal0 is None else steal_s() - steal0}
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    result_path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(result_path, "w") as fh:
        json.dump({"workload": workload, "seconds": seconds, "trace": trace,
                   "environment": env, "result": result, "problems": problems,
                   "samples": raw}, fh, indent=1)

    print(f"workload {workload}  seed {seed}  seconds {seconds}  "
          f"trace {int(trace)}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"operations attempted {len(ops)}  failed {failed}")
    for line in problems:
        print("  FAILED " + line)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    if trace:
        print(f"  spans of the last traced run: {raw['spans']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qpnls" / "__init__.py").is_file():
        print(f"no qpnls sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [report(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    expected = set(LAYER_METRICS if args.trace else END_TO_END)
    if any(set(r["metrics"]) != expected for r in results):
        print("no complete measurement: repetitions failed", file=sys.stderr)
        return 1
    for r in results:
        print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
