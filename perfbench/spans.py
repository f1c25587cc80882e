"""Spans around the public functions of the qpnls layers.

Each spanned function is wrapped where it is called: the wrapper replaces
the function in every ``qpnls`` module that holds a reference to it (so
``solver``'s by-name import of ``assemble_H`` is covered as well as
``linop.assemble_H``), and methods are replaced on their class.  Spans
(name, start, end, parent) are kept in memory while recording and written
out once the run ends.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path) of every spanned function, grouped by layer.
SPANNED = (
    ("lattice", "enumerate_elementary_regions"),
    ("lattice", "Region.sites"),
    ("lattice", "index_region"),
    ("lattice", "region_section"),
    ("lattice", "Region.contains_array"),
    ("potential", "mu"),
    ("linop", "assemble_H"),
    ("linop", "green"),
    ("linop", "operator_norm"),
    ("linop", "sigma_sweep"),
    ("solver", "run_solver"),
    ("solver", "newton_step"),
    ("solver", "evaluate_F"),
    ("solver", "convolution_nonlinearity"),
    ("solver", "linearization_coupling"),
    ("solver", "solve_Q"),
    ("solver", "symmetrize"),
    ("evolve", "verify"),
    ("evolve", "integrate"),
    ("evolve", "reconstruct"),
    ("evolve", "tail_mass"),
)

LAYERS = ("lattice", "potential", "linop", "solver", "evolve")

DERIVED = (
    "linop.green.singular",               # SingularOperatorError from green
    "linop.sigma_sweep.green_per_sigma",  # green calls in sweeps per sigma
    "linop.assemble_H.entries",           # sum of m^2 over assembled operators
    "linop.assemble_H.ns_per_entry",      # assemble_H self time per entry
    "solver.newton_step.max_m",           # largest Newton system
    "evolve.integrate.steps",             # RK4 steps
    "evolve.integrate.us_per_step",       # integrate self time per step
    "lattice.index_region.sites",         # sum of m over indexed regions
)


def metric_names() -> list[str]:
    """Names of the metrics :func:`summarize` returns, in order."""
    names = [f"{module}.{path}.{kind}" for module, path in SPANNED
             for kind in ("calls", "self_s")]
    return names + list(DERIVED) + [f"{layer}.self_share"
                                    for layer in LAYERS + ("unspanned",)]


class Recorder:
    """Span store plus the per-function tallies derived from it."""

    def __init__(self):
        self.active = False
        self.spans: list = []   # (name, start, end, parent index or -1)
        self._stack: list = []  # [span index, name, time covered by children]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.inclusive_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)  # derived counts, by metric name

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), name, 0.0]
        self.spans.append(parent)
        self._stack.append(frame)
        return frame

    def close(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        index, name, covered = frame
        duration = t1 - t0
        self.spans[index] = (name, t0, t1, self.spans[index])
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        self.inclusive_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def write(self, path) -> None:
        """Spans as CSV: index, name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent}\n")


def _observers() -> dict:
    """Derived counts taken from a spanned call's arguments or result."""

    def assemble_H(rec, bound, result):
        rec.counts["linop.assemble_H.entries"] += result.m * result.m
        if rec.parent_name() == "solver.newton_step":
            key = "solver.newton_step.max_m"
            rec.counts[key] = max(rec.counts[key], result.m)

    def sigma_sweep(rec, bound, result):
        rec.counts["linop.sigma_sweep.sigmas"] += len(result.sigmas)

    def integrate(rec, bound, result):
        args = bound.arguments
        steps = int(round(args["T"] / args["dt"]))
        rec.counts["evolve.integrate.steps"] += steps

    def index_region(rec, bound, result):
        rec.counts["lattice.index_region.sites"] += result.m

    return {"linop.assemble_H": assemble_H,
            "linop.sigma_sweep": sigma_sweep,
            "evolve.integrate": integrate,
            "lattice.index_region": index_region}


def _wrap(rec: Recorder, name: str, fn, observe=None):
    signature = inspect.signature(fn) if observe else None

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        frame = rec.open(name)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            rec.close(frame, t0, perf_counter())
        if observe is not None:
            observe(rec, signature.bind(*args, **kwargs), result)
        return result

    return spanned


def install(rec: Recorder) -> None:
    """Replace every spanned function by its wrapper, wherever referenced."""
    observers = _observers()
    qpnls_modules = [m for key, m in list(sys.modules.items())
                     if key == "qpnls" or key.startswith("qpnls.")]
    for module_name, path in SPANNED:
        module = importlib.import_module(f"qpnls.{module_name}")
        name = f"{module_name}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, _wrap(rec, name, getattr(cls, attr),
                                     observers.get(name)))
            continue
        original = getattr(module, path)
        wrapper = _wrap(rec, name, original, observers.get(name))
        for mod in qpnls_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def summarize(rec: Recorder, wall_s: float) -> dict:
    """Per-function calls and self time, derived counts and ratios, and
    each layer's share of the traced wall time."""
    out = {}
    for module_name, path in SPANNED:
        name = f"{module_name}.{path}"
        out[f"{name}.calls"] = rec.calls[name]
        out[f"{name}.self_s"] = rec.self_s[name]
    counts = rec.counts
    out["linop.green.singular"] = counts[
        "linop.green.raised.SingularOperatorError"]
    in_sweep = sum(1 for name, _, _, parent in rec.spans
                   if name == "linop.green" and parent >= 0
                   and rec.spans[parent][0] == "linop.sigma_sweep")
    sigmas = counts["linop.sigma_sweep.sigmas"]
    out["linop.sigma_sweep.green_per_sigma"] = (
        in_sweep / sigmas if sigmas else 0.0)
    entries = counts["linop.assemble_H.entries"]
    out["linop.assemble_H.entries"] = entries
    out["linop.assemble_H.ns_per_entry"] = (
        rec.self_s["linop.assemble_H"] / entries * 1e9 if entries else 0.0)
    out["solver.newton_step.max_m"] = counts["solver.newton_step.max_m"]
    steps = counts["evolve.integrate.steps"]
    out["evolve.integrate.steps"] = steps
    out["evolve.integrate.us_per_step"] = (
        rec.self_s["evolve.integrate"] / steps * 1e6 if steps else 0.0)
    out["lattice.index_region.sites"] = counts["lattice.index_region.sites"]
    spanned = 0.0
    for layer in LAYERS:
        layer_s = sum(s for name, s in rec.self_s.items()
                      if name.startswith(layer + "."))
        spanned += layer_s
        out[f"{layer}.self_share"] = 100.0 * layer_s / wall_s
    out["unspanned.self_share"] = 100.0 * (wall_s - spanned) / wall_s
    return out
