import json
import subprocess
import sys

import pytest

from qpnls import harness, solver
from qpnls.harness import (DEFAULT_CONFIG, EXIT_ACCEPTANCE, EXIT_NUMERIC,
                           EXIT_OK, EXIT_VALIDATION, ConfigError, apply_override,
                           canonical_json, config_hash, load_config, main,
                           run, validate_config)


def light_config():
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["regions"] = {"r": 2, "N": 1}
    cfg["ldt"] = {"M": 1, "n_range": 1, "sigma_min": -1.0, "sigma_max": 1.0,
                  "sigma_points": 5}
    cfg["evolve"] = {"T": 1.0, "dt": 1e-2, "tail_radius": None}
    cfg["solver"]["N_cap"] = 8
    return cfg


class TestConfig:
    def test_default_validates(self):
        params = validate_config(json.loads(json.dumps(DEFAULT_CONFIG)))
        assert params.b == 1

    def test_override_parsing(self):
        cfg = load_config(None, ["solver.N_cap=4", "params.theta=[0.2]"])
        assert cfg["solver"]["N_cap"] == 4
        assert cfg["params"]["theta"] == [0.2]

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["no-equals-sign"])

    def test_invalid_potential_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ['params.V.terms=[{"l":[0],"v":1.0}]'])

    @pytest.mark.parametrize("override", [
        "regions.N=0", "regions.r=1.5", "ldt.sigma_points=0",
        'ldt.M="two"', "ldt.sigma_min=3.0", "lde.norm_exp=0",
        "lde.gamma_target=-1", "lde.gamma_target=null", "solver.N_cap=0", "solver.tol=0",
        "evolve.dt=0", "evolve.T=-1", "evolve.dt=25",
        "evolve.dt=1e-320", "evolve=5", "dioph=5",
        'dioph.threshold_exp="x"', "dioph.L=2.5", "dioph.C1_exp=0",
        "seed.x=1", 'seed="abc"', "seed=1.5", "seed=true"])
    def test_stage_sections_validated(self, override):
        with pytest.raises(ConfigError):
            load_config(None, [override])

    def test_hash_changes_with_fields(self):
        a = json.loads(json.dumps(DEFAULT_CONFIG))
        b = json.loads(json.dumps(DEFAULT_CONFIG))
        assert config_hash(a) == config_hash(b)
        apply_override(b, "params.epsilon", 2e-3)
        assert config_hash(a) != config_hash(b)

    def test_canonical_json_key_order_invariant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1})


class TestStages:
    def test_regions_stage(self, tmp_path):
        manifest = run(light_config(), "regions", str(tmp_path))
        info = manifest["stages"]["regions"]
        assert info["status"] == "pass"
        data = json.loads((tmp_path / "regions.json").read_text())
        assert data["count"] == info["count"] == 5

    def test_solve_stage_decoupled_zero_steps(self, tmp_path):
        cfg = light_config()
        cfg["params"]["epsilon"] = 0.0
        cfg["params"]["delta"] = 0.0
        manifest = run(cfg, "solve", str(tmp_path))
        info = manifest["stages"]["solve"]
        assert info["status"] == "pass"
        assert info["newton_steps"] == 0

    def test_full_pipeline_and_replay(self, tmp_path):
        cfg = light_config()
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        m1 = run(cfg, "all", str(out1))
        m2 = run(cfg, "all", str(out2))
        assert m1["config_hash"] == m2["config_hash"]
        names = sorted(f.name for f in out1.iterdir())
        assert names == sorted(f.name for f in out2.iterdir())
        for name in names:
            if name == "manifest.json":
                continue  # carries wall times
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_evolve_resolves_stale_solution(self, tmp_path):
        # a solution solved from another config is not verified as is
        assert main(["solve", "--set", "params.epsilon=0.01", "--set",
                     "solver.N_cap=8", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["evolve", "--set", "solver.N_cap=8", "--set",
                     "evolve.T=1.0", "--out", str(tmp_path)]) == EXIT_OK
        rec = json.loads((tmp_path / "solution.json").read_text())
        assert rec["params"]["epsilon"] == DEFAULT_CONFIG["params"]["epsilon"]

    @pytest.mark.parametrize("content", [
        "{not json", "[]",
        # this config's hash, but none of a solution's other fields
        json.dumps({"solve_config_hash": harness._solve_config_hash(
            load_config(None, ["solver.N_cap=8", "evolve.T=1.0"]))}),
    ], ids=["not-json", "not-an-object", "incomplete"])
    def test_evolve_resolves_unreadable_solution(self, tmp_path, capsys,
                                                 content):
        # a solution.json that holds no whole solution counts as absent
        path = tmp_path / "solution.json"
        path.write_text(content)
        assert main(["evolve", "--set", "solver.N_cap=8", "--set",
                     "evolve.T=1.0", "--out", str(tmp_path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["stages"] == {"evolve": "pass"}
        assert json.loads(path.read_text())["stop_reason"] == "converged"

    def test_evolve_resolves_complex_solution(self, tmp_path):
        # A plus-layer amplitude with a nonzero imaginary part is no state
        # the solver makes: evolve re-solves rather than verify it.
        cfg = load_config(None, ["solver.N_cap=8", "evolve.T=1.0"])
        assert run(cfg, "solve", str(tmp_path))["stages"]["solve"][
            "status"] == "pass"
        path = tmp_path / "solution.json"
        rec = json.loads(path.read_text())
        row = next(row for row in rec["coeffs"] if row["xi"] == 1)
        row["im"] = 1e-3
        path.write_text(json.dumps(rec, sort_keys=True, indent=2))
        with pytest.raises(ValueError, match="real"):
            solver.solution_from_record(rec)
        info = run(cfg, "evolve", str(tmp_path))["stages"]["evolve"]
        assert info["status"] == "pass"
        assert info["outputs"] == ["solution.json", "newton_trace.csv",
                                   "evolve_summary.json"]
        rows = json.loads(path.read_text())["coeffs"]
        assert all(row["im"] == 0.0 for row in rows)

    def test_solution_json_zero_signs(self, tmp_path):
        # On the default config each plus row is written "im": 0.0 and
        # each minus row, the conjugate mirror, "im": -0.0, as the text
        # of the file spells them.
        assert main(["solve", "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "solution.json").read_text()
        rows = json.loads(text, parse_float=str)["coeffs"]
        ims = {xi: {row["im"] for row in rows if row["xi"] == xi}
               for xi in (1, -1)}
        assert ims == {1: {"0.0"}, -1: {"-0.0"}}
        assert text.count('"im": 0.0') == text.count('"im": -0.0') > 1

    @pytest.mark.parametrize("solve_first", [False, True],
                             ids=["fresh", "after-solve"])
    def test_evolve_fails_unconverged_solution(self, tmp_path, solve_first):
        # Newton on the N = 1 cube only (M = 1) leaves the default case
        # unconverged; evolve fails whichever stage wrote solution.json
        if solve_first:
            assert main(["solve", "--set", "solver.M=1",
                         "--out", str(tmp_path)]) == EXIT_ACCEPTANCE
            rec = json.loads((tmp_path / "solution.json").read_text())
            assert rec["stop_reason"] == "max_steps"
        assert main(["evolve", "--set", "solver.M=1",
                     "--out", str(tmp_path)]) == EXIT_ACCEPTANCE
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        info = manifest["stages"]["evolve"]
        assert info["status"] == "fail"
        assert info["reason"] == "solution not converged"
        assert not (tmp_path / "evolve_summary.json").exists()

    def test_all_solves_once(self, tmp_path, monkeypatch):
        calls = []
        run_solver = solver.run_solver

        def counted(*args, **kwargs):
            calls.append(1)
            return run_solver(*args, **kwargs)

        monkeypatch.setattr(solver, "run_solver", counted)
        manifest = run(light_config(), "all", str(tmp_path))
        assert manifest["stages"]["evolve"]["status"] == "pass"
        assert len(calls) == 1

    def test_gamma_target_changes_sweep(self, tmp_path):
        # at epsilon = 0.3 the decay test binds: 0.6 changes the sweep
        outs = []
        for value in ("0.5", "0.6"):
            out = tmp_path / value
            assert main(["ldt", "--set", "params.epsilon=0.3", "--set",
                         f"lde.gamma_target={value}",
                         "--out", str(out)]) == EXIT_OK
            outs.append(out)
        half, other = outs
        assert ((half / "ldt_sweep.csv").read_bytes()
                != (other / "ldt_sweep.csv").read_bytes())

    def test_unknown_keys_reported(self, tmp_path, capsys):
        assert main(["regions", "--set", "regions.NN=3",
                     "--out", str(tmp_path / "typo")]) == EXIT_OK
        assert "regions.NN" in capsys.readouterr().err
        assert main(["regions", "--out", str(tmp_path / "plain")]) == EXIT_OK
        assert "warning" not in capsys.readouterr().err
        ignored = [json.loads((tmp_path / out / "manifest.json").read_text())
                   ["ignored_keys"] for out in ("typo", "plain")]
        assert ignored == [["regions.NN"], []]
        assert ((tmp_path / "typo" / "regions.json").read_bytes()
                == (tmp_path / "plain" / "regions.json").read_bytes())

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError):
            run(light_config(), "bogus", str(tmp_path))


class TestCli:
    def test_validation_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--set", "params.epsilon=2.0",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize("command, overrides", [
        ("all", ["params.sites=[]", "params.a=[]"]),
        ("dioph", ["params.sites=[]", "params.a=[]",
                   "dioph.threshold_exp=null"]),
        ("solve", ["params.alpha=[NaN]"]),
        ("solve", ["params.theta=[Infinity]"]),
        ("solve", ["params.a=[NaN]"]),
        ("solve", ["params.p=1.5"]),
        ("solve", ["params.p=true"]),
        ("solve", ["params.sites=[[0.9]]"]),
        ("solve", ["params.V.d=1.5"]),
        ("solve", ["params.V.K=true"]),
        ("solve", ["params.V.terms=[{\"l\": [1.5], \"v\": 1.0}]"]),
        ("evolve", ["evolve.dt=25"]),
    ], ids=["no-sites", "no-sites-dioph", "alpha-nan", "theta-inf", "a-nan",
            "p-fraction", "p-bool", "site-fraction", "V-d-fraction",
            "V-K-bool", "term-l-fraction", "dt-above-T"])
    def test_model_params_exit_code(self, tmp_path, capsys, command,
                                    overrides):
        args = [command, "--out", str(tmp_path)]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    def test_section_error_exit_code(self, tmp_path, capsys):
        code = main(["regions", "--set", "regions.N=0",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    @pytest.mark.parametrize("content", [b"[1, 2]", b"\xff\xfe"],
                             ids=["top-level-list", "not-utf8"])
    def test_bad_config_file_exit_code(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        code = main(["regions", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    def test_frequency_solve_failure_exit_code(self, tmp_path, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise RuntimeError("frequency solve did not converge")

        monkeypatch.setattr(solver, "solve_Q", no_convergence)
        code = main(["solve", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["stages"]["solve"]["status"] == "numeric-error"

    def test_divergence_exit_code(self, tmp_path):
        code = main(["solve", "--set", "params.epsilon=0.2",
                     "--set", "params.delta=0.2", "--set", "solver.N_cap=4",
                     "--set", "solver.r_max=6", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["stages"]["solve"]["status"] == "numeric-error"
        assert "grew twice" in manifest["stages"]["solve"]["error"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_amplitude_exit_code(self, tmp_path):
        # (u*v) u overflows at a = 1e150, so the first residual is not
        # finite; the solve stops there instead of factoring it.
        code = main(["all", "--set", "params.a=[1e150]",
                     "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["stages"]["solve"]["status"] == "numeric-error"
        assert "non-finite initial residual" \
            in manifest["stages"]["solve"]["error"]

    @pytest.mark.parametrize("a", ["1e120", "1e150", "1e200"])
    def test_overflow_leaves_stderr_clean(self, tmp_path, a):
        # The solver's finiteness checks report the overflow, exit 3;
        # numpy's warnings about it are silenced.
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "qpnls.harness", "solve",
             "--set", f"params.a=[{a}]", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_NUMERIC
        assert "RuntimeWarning" not in proc.stderr, proc.stderr

    def test_acceptance_exit_code(self, tmp_path):
        # A threshold of (eps + delta)^0.2 is violated by some separations.
        code = main(["dioph", "--set", "dioph.threshold_exp=0.2",
                     "--out", str(tmp_path)])
        assert code == EXIT_ACCEPTANCE
        lines = (tmp_path / "dioph_violations.csv").read_text().splitlines()
        conditions = [line.split(",")[0] for line in lines[1:]]
        assert len(conditions) == 77
        assert conditions.count("i") == 5 and conditions.count("iv") == 72

    def test_solve_command(self, tmp_path, capsys):
        code = main(["solve", "--set", "solver.N_cap=8",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "solution.json").exists()
        assert (tmp_path / "manifest.json").exists()
        out = json.loads(capsys.readouterr().out)
        assert out["stages"]["solve"] == "pass"

    def test_config_file_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"solver": {"N_cap": 8}}))
        code = main(["regions", "--config", str(cfg_path),
                     "--set", "regions.N=1", "--out", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_import_leaves_scipy_signal_out(self):
        # scipy.signal would cost most of the import time of the CLI, and
        # scipy.sparse, through SciPy's array-API layer, most of the rest.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, qpnls.harness; "
             "print('scipy.signal' in sys.modules, "
             "'scipy.sparse' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    @pytest.mark.parametrize("command", ["regions", "solve", "all"])
    def test_command_leaves_linalg_out(self, tmp_path, command):
        # The operators load SciPy's sparse kernels and SuperLU extension
        # by themselves (linop._scipy_extension), since scipy.sparse would
        # load SciPy's array-API layer and scipy.sparse.linalg all of
        # scipy.linalg, and mpmath is imported only for an ill-conditioned
        # Wronskian; no command should pay for any of them.
        args = [command, "--out", str(tmp_path)]
        code = ("import sys, qpnls.harness; "
                f"code = qpnls.harness.main({args!r}); "
                "print(code, 'scipy.sparse' in sys.modules, "
                "'scipy.sparse.linalg' in sys.modules, "
                "'scipy.linalg' in sys.modules, 'mpmath' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False False False False"

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "qpnls.harness", "-h"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "qpnls" in proc.stdout
