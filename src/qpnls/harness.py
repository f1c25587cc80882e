"""Configuration, persistence, and the command-line entry point.

A run is described by a single JSON config file; dotted-path --set
overrides adjust individual fields.  Every stage writes its outputs and a
manifest atomically, and all outputs are deterministic functions of
(config, seed).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import diophantine, evolve, lattice, linop, potential, solver

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_ACCEPTANCE = 4


DEFAULT_CONFIG = {
    "params": potential.reference_params().to_record(),
    "dioph": {"C1_exp": 8.0, "threshold_exp": 3.0, "L": 4},
    "lde": {"gamma_target": 0.5, "norm_exp": 0.75, "dist_exp": 8.0 / 9.0},
    "solver": {"M": 2, "r_max": 10, "tol": 1e-11, "N_cap": 16},
    "evolve": {"T": 10.0, "dt": 1e-3, "tail_radius": None},
    "regions": {"r": 2, "N": 2},
    "ldt": {"M": 2, "n_range": 2, "sigma_min": -2.0, "sigma_max": 2.0,
            "sigma_points": 41},
    "seed": 20240801,
}


class ConfigError(ValueError):
    pass


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _parse_override_value(raw: str) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_override(config: dict, dotted: str, value: Any) -> None:
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    node[keys[-1]] = value


def load_config(path: Optional[str], overrides: list[str]) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        _deep_update(config, user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        apply_override(config, key, _parse_override_value(raw))
    validate_config(config)
    return config


def _unknown_keys(config: dict, known: dict) -> list[str]:
    """Dotted paths of the keys of config that known does not have."""
    out = []
    for key, value in config.items():
        if key not in known:
            out.append(key)
        elif isinstance(value, dict) and isinstance(known[key], dict):
            out += [f"{key}.{sub}"
                    for sub in _unknown_keys(value, known[key])]
    return out


def _deep_update(base: dict, extra: dict) -> None:
    for key, val in extra.items():
        if key in base and isinstance(base[key], dict) and isinstance(val, dict):
            _deep_update(base[key], val)
        else:
            base[key] = val


def validate_config(config: dict) -> potential.ModelParams:
    try:
        params = potential.ModelParams.from_record(config["params"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    report = potential.validate(params.V)
    if not report.passed:
        raise ConfigError("potential fails validation: "
                          + "; ".join(report.failures))
    seed = config.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed = {seed!r}: expected an integer")
    for section, key, integer, low, strict, optional in _STAGE_FIELDS:
        _check_field(config, section, key, integer, low, strict, optional)
    if config["ldt"]["sigma_min"] > config["ldt"]["sigma_max"]:
        raise ConfigError("ldt.sigma_min must not exceed ldt.sigma_max")
    steps = config["evolve"]["T"] / config["evolve"]["dt"]
    if not math.isfinite(steps) or round(steps) < 1:
        raise ConfigError(f"evolve.T / evolve.dt = {steps:g}: expected a "
                          f"finite number of RK4 steps, at least one")
    return params


# Numeric fields of the stage sections:
# (section, key, integer, lower bound, bound excluded, may be null).
_STAGE_FIELDS = (
    ("regions", "r", True, 1, False, False),
    ("regions", "N", True, 1, False, False),
    ("dioph", "C1_exp", False, 0, True, False),
    ("dioph", "threshold_exp", False, 0, True, True),
    ("dioph", "L", True, 1, False, False),
    ("ldt", "M", True, 1, False, False),
    ("ldt", "n_range", True, 0, False, False),
    ("ldt", "sigma_min", False, None, False, False),
    ("ldt", "sigma_max", False, None, False, False),
    ("ldt", "sigma_points", True, 1, False, False),
    ("lde", "gamma_target", False, 0, True, False),
    ("lde", "norm_exp", False, 0, True, False),
    ("lde", "dist_exp", False, 0, True, False),
    ("solver", "M", True, 1, False, False),
    ("solver", "r_max", True, 0, False, False),
    ("solver", "tol", False, 0, True, False),
    ("solver", "N_cap", True, 1, False, False),
    ("evolve", "T", False, 0, True, False),
    ("evolve", "dt", False, 0, True, False),
    ("evolve", "tail_radius", True, 0, False, True),
)


def _check_field(config: dict, section: str, key: str, integer: bool,
                 low: Optional[float], strict: bool, optional: bool) -> None:
    block = config.get(section)
    if not isinstance(block, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    value = block.get(key)
    if value is None and optional:
        return
    if isinstance(value, float):
        ok = math.isfinite(value) and (value.is_integer() or not integer)
    else:
        ok = isinstance(value, int) and not isinstance(value, bool)
    if ok and low is not None:
        ok = value > low if strict else value >= low
    if not ok:
        kind = "an integer" if integer else "a finite number"
        bound = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ConfigError(f"{section}.{key} = {value!r}: expected {kind}"
                          f"{bound}")


def _dioph_params(config: dict) -> diophantine.DiophParams:
    dc = config["dioph"]
    return diophantine.DiophParams(L=int(dc["L"]), C1_exp=dc["C1_exp"],
                                   threshold_exp=dc.get("threshold_exp"))


def _lde_params(config: dict) -> linop.LDEParams:
    l = config["lde"]
    return linop.LDEParams(gamma_target=l["gamma_target"],
                           norm_exp=l["norm_exp"], dist_exp=l["dist_exp"])


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


# -- stages ------------------------------------------------------------


def stage_regions(config: dict, out: Path) -> dict:
    rc = config["regions"]
    regions = lattice.enumerate_elementary_regions(int(rc["r"]), int(rc["N"]))
    records = [reg.to_record() for reg in regions]
    path = out / "regions.json"
    atomic_write_text(path, json.dumps(
        {"r": rc["r"], "N": rc["N"], "count": len(records),
         "regions": records}, sort_keys=True, indent=2))
    return {"status": "pass", "outputs": [path.name], "count": len(records)}


def stage_dioph(config: dict, out: Path) -> dict:
    params = potential.ModelParams.from_record(config["params"])
    report = diophantine.check_dc_conditions(params, _dioph_params(config))
    rows = [[v[0], json.dumps(v[1]), repr(v[2]), repr(v[3])]
            for v in report.violations]
    _write_csv(out / "dioph_violations.csv",
               ["condition", "witness", "value", "threshold"], rows)
    summary = {
        "passed": report.passed,
        "thresholds": report.thresholds,
        "n_violations": len(report.violations),
        "n_indeterminate": len(report.indeterminate),
        "seed": config["seed"],
    }
    atomic_write_text(out / "dioph_summary.json",
                      json.dumps(summary, sort_keys=True, indent=2))
    return {"status": "pass" if report.passed else "fail",
            "outputs": ["dioph_violations.csv", "dioph_summary.json"],
            "n_violations": len(report.violations)}


def stage_ldt(config: dict, out: Path) -> dict:
    params = potential.ModelParams.from_record(config["params"])
    lc = config["ldt"]
    omega = potential.base_frequencies(params)
    family = linop.lde_region_family(params, int(lc["M"]),
                                     n_range=int(lc["n_range"]))
    grid = np.linspace(float(lc["sigma_min"]), float(lc["sigma_max"]),
                       int(lc["sigma_points"]))
    excl = lattice.frozen_mode_sites(params.sites)
    stats = linop.sigma_sweep(params, omega, family, grid,
                              lde=_lde_params(config), exclude=excl)
    rows = [[repr(float(s)), int(g), int(w)]
            for s, g, w in zip(stats.sigmas, stats.good, stats.worst_region)]
    _write_csv(out / "ldt_sweep.csv", ["sigma", "good", "worst_region"], rows)
    summary = {
        "bad_fraction": stats.bad_fraction,
        "n_bad_intervals": len(stats.bad_intervals),
        "bad_intervals": [list(iv) for iv in stats.bad_intervals],
        "n_regions": len(family),
        "seed": config["seed"],
    }
    atomic_write_text(out / "ldt_summary.json",
                      json.dumps(summary, sort_keys=True, indent=2))
    return {"status": "pass",
            "outputs": ["ldt_sweep.csv", "ldt_summary.json"],
            "bad_fraction": stats.bad_fraction}


def stage_solve(config: dict, out: Path) -> dict:
    params = potential.ModelParams.from_record(config["params"])
    sc = config["solver"]
    sol = solver.run_solver(
        params, M=int(sc["M"]), r_max=int(sc["r_max"]),
        tol=float(sc["tol"]), N_cap=int(sc["N_cap"]))
    record = solver.solution_to_record(sol)
    record["solve_config_hash"] = _solve_config_hash(config)
    atomic_write_text(out / "solution.json", json.dumps(
        record, sort_keys=True, indent=2))
    rows = [[s["r"], s["N"], repr(s["residual"]), repr(s["correction"]),
             json.dumps(list(s["omega"]))] for s in sol.trace.steps]
    _write_csv(out / "newton_trace.csv",
               ["r", "N", "residual", "correction", "omega"], rows)
    return {"status": "pass" if sol.converged else "fail",
            "outputs": ["solution.json", "newton_trace.csv"],
            "newton_steps": sol.newton_steps,
            "residual": sol.certificates.residual}


def _solve_config_hash(config: dict) -> str:
    """Hash of the config sections a solution depends on."""
    return config_hash({"params": config["params"],
                        "solver": config["solver"]})


def stage_evolve(config: dict, out: Path) -> dict:
    """Verify the solution in the output directory, solving first when
    there is no readable one or it was solved from other params/solver
    sections.  An unconverged solution fails, whichever stage wrote it."""
    path = out / "solution.json"
    try:  # absent, not JSON, another config's or not a whole solution
        record = json.loads(path.read_text())
        fresh = record["solve_config_hash"] == _solve_config_hash(config)
        sol = solver.solution_from_record(record) if fresh else None
    except (OSError, KeyError, TypeError, ValueError):
        sol = None
    outputs = []
    if sol is None:
        outputs = stage_solve(config, out)["outputs"]
        sol = solver.solution_from_record(json.loads(path.read_text()))
    if not sol.converged:
        return {"status": "fail", "outputs": outputs,
                "reason": "solution not converged"}
    ec = config["evolve"]
    report = evolve.verify(sol, T=float(ec["T"]), dt=float(ec["dt"]),
                           tail_radius=ec.get("tail_radius"))
    summary = {
        "deviation_sup": report.deviation_sup,
        "budget": report.budget,
        "within_budget": report.within_budget,
        "norm_drift": report.norm_drift,
        "tail_mass_max": report.tail_mass_max,
        "tail_mass_initial": report.tail_mass_initial,
        "tail_radius": report.tail_radius,
        "seed": config["seed"],
    }
    atomic_write_text(out / "evolve_summary.json",
                      json.dumps(summary, sort_keys=True, indent=2))
    return {"status": "pass" if report.within_budget else "fail",
            "outputs": outputs + ["evolve_summary.json"],
            "deviation_sup": report.deviation_sup}


STAGES = {
    "regions": stage_regions,
    "dioph": stage_dioph,
    "ldt": stage_ldt,
    "solve": stage_solve,
    "evolve": stage_evolve,
}


def run(config: dict, command: str, out_dir: str) -> dict:
    """Execute one pipeline stage (or all) and write the manifest."""
    if command != "all" and command not in STAGES:
        raise ConfigError(f"unknown command {command!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = list(STAGES) if command == "all" else [command]
    # No stage reads a key DEFAULT_CONFIG lacks; say so rather than drop it.
    ignored = sorted(_unknown_keys(config, DEFAULT_CONFIG))
    if ignored:
        print(f"warning: ignoring config keys no stage reads: "
              f"{', '.join(ignored)}", file=sys.stderr)
    manifest = {
        "config_hash": config_hash(config),
        "version": VERSION,
        "command": command,
        "ignored_keys": ignored,
        "stages": {},
    }
    for name in names:
        t0 = time.perf_counter()
        try:
            info = STAGES[name](config, out)
        except RuntimeError as exc:
            # Every numerical failure is a RuntimeError: singular operators,
            # Newton divergence, RK4 blow-up.
            info = {"status": "numeric-error", "error": str(exc)}
        info["wall_time_s"] = round(time.perf_counter() - t0, 6)
        manifest["stages"][name] = info
    atomic_write_text(out / "manifest.json",
                      json.dumps(manifest, sort_keys=True, indent=2))
    return manifest


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qpnls",
        description="Quasi-periodic localized lattice states: "
                    "construction and verification pipelines.")
    parser.add_argument("command",
                        choices=sorted(STAGES) + ["all"],
                        help="pipeline stage to run")
    parser.add_argument("--config", default=None,
                        help="JSON config file (defaults used if omitted)")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-path config override, repeatable")
    parser.add_argument("--out", default="qpnls_out",
                        help="output directory")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.set)
    except (ValueError, OSError) as exc:  # ConfigError, bad JSON or bytes
        record = {"error": "validation", "detail": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return EXIT_VALIDATION
    manifest = run(config, args.command, args.out)
    statuses = [s["status"] for s in manifest["stages"].values()]
    print(json.dumps({"config_hash": manifest["config_hash"],
                      "stages": {k: v["status"]
                                 for k, v in manifest["stages"].items()}}))
    if any(s == "numeric-error" for s in statuses):
        return EXIT_NUMERIC
    if any(s == "fail" for s in statuses):
        return EXIT_ACCEPTANCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
