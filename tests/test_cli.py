import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mfgsolver as m
from mfgsolver import cli, estimation, gnep, model, numerics
from mfgsolver.errors import SolverFailure

from conftest import chain_model, inject_boundary_violation, non_descent_model
from trajectory_rows import per_trajectory


MALWARE2 = model.builtin_malware(2, (0.2, 1.0, 0.4), q=0.9)


def run(argv):
    return cli.dispatch(argv)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "malware2.json"
    spec = model.builtin_malware(2, (0.2, 1.0, 0.4), q=0.9)
    path.write_text(model.dump_model(spec))
    return path


@pytest.fixture(scope="module")
def eq_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("eq") / "eq.json"
    code = run(["solve-mfe", "--model", "builtin:malware2", "--out", str(out)])
    assert code == 0
    return out


# Runs the argvs of sys.argv[1] (a JSON object) with the CLI in a fresh
# process and prints, as JSON, the OPTIONAL modules that a bare `import
# numpy` loads, and, after the CLI's import and after each run, the exit
# code, the scipy modules loaded and the OPTIONAL modules loaded.
MODULE_PROBE = """
import json, sys
import numpy

OPTIONAL = ("numpy.random", "hashlib")

def loaded():
    return {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            "optional": [m for m in OPTIONAL if m in sys.modules]}

seen = {"numpy": loaded()["optional"]}
from mfgsolver import cli
seen["import"] = {"code": None, **loaded()}
for name, argv in json.loads(sys.argv[1]).items():
    seen[name] = {"code": cli.dispatch(argv), **loaded()}
print(json.dumps(seen))
"""


class TestOptionalModulesStayUnloaded:
    """scipy.linalg's import is the largest part of the package's start-up,
    so the package never imports it. Only the code that needs LAPACK or
    BLAS loads scipy's compiled modules, scipy.linalg._flapack and _fblas
    (numerics.scipy_extension), and nothing else of scipy.linalg: the LU
    direction at KKT dimension numerics.GETRF_MIN_DIM or more and
    solve_linear on a matrix whose pivots it cannot certify load _flapack,
    and --method gd loads _fblas.

    numpy.random and hashlib load only where they run, beyond what numpy
    itself loads (numpy < 2 imports numpy.random, and with it hashlib):
    numpy.random on simulation, hashlib on the digest of an input file."""

    def test_cli_paths_load_only_what_they_run(self, tmp_path):
        d = str(tmp_path)
        chain20 = tmp_path / "chain20.json"
        chain20.write_text(model.dump_model(chain_model(20)))   # KKT dimension 262
        equilibrium = f"{d}/a4/equilibrium.json"
        # The runs share one process, in this order, so each sees the
        # modules that every run before it loaded.
        runs = {
            "a1-pipeline": ["pipeline", "--model", "builtin:malware2", "--sigma", "0.1",
                            "--kappa", "0.001", "--max-iter", "10000", "--step", "0.5",
                            "--out-dir", f"{d}/a1"],
            "a4-pipeline": ["pipeline", "--model", "builtin:malware10", "--step", "0.0025",
                            "--method", "newton", "--out-dir", f"{d}/a4"],
            "solve-mfe": ["solve-mfe", "--model", "builtin:malware2",
                          "--out", f"{d}/mfe/eq.json"],
            # The first run with an input file, whose digest needs hashlib.
            "verify": ["verify", "--model", "builtin:malware10", "--equilibrium",
                       equilibrium, "--out", f"{d}/verify/verify.json"],
            "simulate": ["simulate", "--model", "builtin:malware10", "--equilibrium",
                         equilibrium, "--n-trajectories", "100",
                         "--horizon", "50", "--out", f"{d}/sim/traj.csv"],
            "estimate": ["estimate", "--model", "builtin:malware10", "--trajectories",
                         f"{d}/sim/traj.csv", "--out", f"{d}/est/estimate.json"],
            # The forward LU direction factors with LAPACK dgetrf.
            "lu": ["solve-mfe", "--model", str(chain20), "--out", f"{d}/lu/eq.json"],
            # The constant-step loop steps with BLAS daxpy.
            "gd": ["solve-irl", "--model", "builtin:malware10", "--equilibrium",
                   equilibrium, "--method", "gd", "--irl-max-iter", "1",
                   "--out", f"{d}/gd/irl.json"],
        }
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, json.dumps(runs)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=300)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        with_numpy = set(seen.pop("numpy"))
        assert {name: rec["code"] for name, rec in seen.items()} == {
            "import": None, **dict.fromkeys(runs, 0), "gd": 1}  # NotConverged after one step

        numpy_only = [name for name in seen if name not in ("lu", "gd")]
        assert {name: seen[name]["scipy"] for name in numpy_only} == dict.fromkeys(
            numpy_only, [])

        def linalg_modules(name):
            return [m for m in seen[name]["scipy"] if m.split(".")[:2] == ["scipy", "linalg"]]

        assert linalg_modules("lu") == ["scipy.linalg._flapack"]
        directions = json.loads((tmp_path / "lu" / "manifest.json").read_text())[
            "convergence"]["directions"]
        assert directions["lu"] + directions["lu_cut1"] > 0
        assert linalg_modules("gd") == ["scipy.linalg._fblas", "scipy.linalg._flapack"]

        added = {name: sorted(set(rec["optional"]) - with_numpy)
                 for name, rec in seen.items()}
        no_inputs = ["import", "a1-pipeline", "a4-pipeline", "solve-mfe"]
        assert {name: added[name] for name in no_inputs} == dict.fromkeys(no_inputs, [])
        assert "hashlib" in seen["verify"]["optional"]
        assert "numpy.random" not in added["verify"]
        assert seen["simulate"]["optional"] == ["numpy.random", "hashlib"]


class TestExitCodes:
    def test_missing_model_file(self, tmp_path, capsys):
        code = run(["solve-mfe", "--model", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "eq.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,error", [
        (["--model", "{d}/nope.json"], "MfgError"),
        (["--model", "builtin:nope"], "MfgError"),
        (["--model", "builtin:malware2", "--beta", "1.5"], "ValidationError"),
    ], ids=["missing-file", "unknown-builtin", "beta"])
    def test_model_error_writes_failure_manifest(self, tmp_path, flags, error):
        # --model is loaded inside the manifest's block, as every input is.
        flags = [f.format(d=tmp_path) for f in flags]
        assert run(["solve-mfe", *flags, "--out", str(tmp_path / "eq.json")]) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["convergence"] == {"converged": False, "error": error}

    @pytest.mark.parametrize("command,flag,what", [
        ("solve-mfe", "--model", "model"),
        ("verify", "--equilibrium", "equilibrium"),
        ("simulate", "--equilibrium", "equilibrium"),
        ("solve-irl", "--equilibrium", "equilibrium"),
        ("estimate", "--trajectories", "trajectory"),
    ], ids=["model", "verify-equilibrium", "simulate-equilibrium",
            "solve-irl-equilibrium", "trajectories"])
    def test_directory_input_is_an_input_error(self, tmp_path, capsys, command, flag,
                                               what):
        # A path that exists but is not a readable file. A directory, not a
        # file without read permission, which does not bind the root user.
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "out" / "result.json"
        model_arg = str(folder) if flag == "--model" else "builtin:malware2"
        argv = [command, "--model", model_arg, "--out", str(out)]
        if flag != "--model":
            argv += [flag, str(folder)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {what} file is not a readable file: {folder}\n"
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["convergence"] == {"converged": False, "error": "MfgError"}
        assert manifest["inputs"] == {} and manifest["outputs"] == []

    def test_solve_irl_without_inputs(self, tmp_path):
        code = run(["solve-irl", "--model", "builtin:malware2",
                    "--out", str(tmp_path / "irl.json")])
        assert code == 2

    def test_unknown_builtin(self, tmp_path):
        code = run(["solve-mfe", "--model", "builtin:nope",
                    "--out", str(tmp_path / "eq.json")])
        assert code == 2

    def test_bad_flag(self):
        assert run(["solve-mfe", "--no-such-flag"]) == 2

    def test_non_convergence(self, tmp_path):
        code = run(["solve-mfe", "--model", "builtin:malware2",
                    "--max-iter", "2", "--out", str(tmp_path / "eq.json")])
        assert code == 1
        # The manifest is still written on failure.
        assert (tmp_path / "manifest.json").exists()

    def test_non_descent_is_a_solver_failure(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(model.dump_model(non_descent_model()))
        code = run(["solve-mfe", "--model", str(path),
                    "--out", str(tmp_path / "eq.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "is not negative" in err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        convergence = manifest["convergence"]
        assert convergence["converged"] is False
        assert convergence["error"] == "NonDescent"
        assert str(path) in manifest["inputs"]
        # The failure records where the solve stopped.
        assert f"iteration {convergence['iterations']}:" in err
        assert convergence["h_norm"] > 1e-8
        # One direction per step taken, plus the failing one.
        assert sum(convergence["directions"].values()) == convergence["iterations"] + 1

    @pytest.mark.parametrize("case", ["solve-irl", "estimate", "simulate", "verify",
                                      "solve-irl-equilibrium"])
    def test_input_error_writes_failure_manifest(self, tmp_path, capsys, case):
        # Each input error comes after the output directory exists.
        command = case.removesuffix("-equilibrium")
        out = tmp_path / "out" / "result.json"
        argv = [command, "--model", "builtin:malware2", "--out", str(out)]
        if case == "estimate":
            traj = tmp_path / "traj.csv"
            traj.write_text("trajectory_id,t,state,action\n0,0,5,0\n")
            argv += ["--trajectories", str(traj)]
            expected = ("ValidationError", "state 5 in data row 1")
        elif case == "solve-irl":
            expected = ("MfgError", "needs --equilibrium")
        else:
            # The three readers of an equilibrium file report one error.
            argv += ["--equilibrium", str(tmp_path / "nope.json")]
            expected = ("MfgError", "equilibrium file not found")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.count(expected[1]) == 1
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["convergence"] == {"converged": False, "error": expected[0]}
        # The stage that raised is timed.
        assert list(manifest["stage_seconds"]) == (["read_csv"] if case == "estimate" else [])
        assert manifest["outputs"] == []
        assert not out.exists()

    def test_non_descent_in_pipeline(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(model.dump_model(non_descent_model()))
        assert run(["pipeline", "--model", str(path), "--out-dir", str(tmp_path)]) == 1
        convergence = json.loads((tmp_path / "manifest.json").read_text())["convergence"]
        assert convergence["stage"] == "solve-mfe"
        assert convergence["error"] == "NonDescent"
        assert convergence["iterations"] > 0 and convergence["h_norm"] > 1e-8


class TestMissingOutputDirectory:
    """--out in a directory that does not exist yet creates it."""

    def test_solve_mfe(self, tmp_path):
        out = tmp_path / "new" / "deeper" / "eq.json"
        assert run(["solve-mfe", "--model", "builtin:malware2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["iterations"] == 30
        assert (out.parent / "manifest.json").exists()

    def test_estimate(self, eq_file, tmp_path):
        csv = tmp_path / "trajectories.csv"
        assert run(["simulate", "--model", "builtin:malware2", "--equilibrium", str(eq_file),
                    "--n-trajectories", "3", "--horizon", "20", "--out", str(csv)]) == 0
        out = tmp_path / "new" / "estimate.json"
        assert run(["estimate", "--model", "builtin:malware2",
                    "--trajectories", str(csv), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["mean_field"]) == 2
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert str(out) in manifest["outputs"]


class TestSolverFailures:
    """Every solver failure exits 1 and leaves a manifest naming it."""

    @pytest.mark.parametrize("error", SolverFailure.__subclasses__(),
                             ids=lambda error: error.__name__)
    @pytest.mark.parametrize("argv,solver,stage", [
        (["solve-mfe", "--out", "{d}/eq.json"], "gnep.solve_gnep", None),
        (["solve-irl", "--mean-field", "0.65,0.35",
          "--feature-expectation", "1.75,0.6125,3.0175", "--out", "{d}/irl.json"],
         "irl.solve_irl", None),
        (["pipeline", "--out-dir", "{d}"], "gnep.solve_gnep", "solve-mfe"),
        (["pipeline", "--out-dir", "{d}"], "irl.solve_irl", "solve-irl"),
    ])
    def test_exits_1_with_manifest(self, tmp_path, monkeypatch, capsys,
                                   error, argv, solver, stage):
        def fail(*args, **kwargs):
            raise error("injected failure")

        module, name = solver.split(".")
        monkeypatch.setattr(getattr(cli, module), name, fail)
        argv = [a.format(d=tmp_path) for a in argv]
        code = run(argv[:1] + ["--model", "builtin:malware2"] + argv[1:])
        assert code == 1
        assert "injected failure" in capsys.readouterr().err
        convergence = json.loads((tmp_path / "manifest.json").read_text())["convergence"]
        assert convergence["converged"] is False
        assert convergence["error"] == error.__name__
        assert convergence.get("stage") == stage

    @pytest.mark.parametrize("argv,stage", [
        (["solve-mfe", "--out", "{d}/eq.json"], None),
        (["pipeline", "--out-dir", "{d}"], "solve-mfe"),
    ])
    def test_boundary_violation_records_forward_summary(self, tmp_path, monkeypatch,
                                                        capsys, argv, stage):
        inject_boundary_violation(monkeypatch, iteration=2)
        argv = [a.format(d=tmp_path) for a in argv]
        assert run(argv[:1] + ["--model", "builtin:malware2"] + argv[1:]) == 1
        assert "iteration 2: min v-component" in capsys.readouterr().err
        convergence = json.loads((tmp_path / "manifest.json").read_text())["convergence"]
        assert convergence["error"] == "BoundaryViolation"
        assert convergence.get("stage") == stage
        assert convergence["iterations"] == 2 and convergence["h_norm"] > 0.0
        assert sum(convergence["directions"].values()) == 2
        line_search = convergence["line_search"]
        assert (line_search["trials"] - line_search["interior_failures"]
                - line_search["armijo_failures"]) == 2


class TestSolverFlags:
    """Out-of-range solver flags and malformed lists are input errors: exit
    2 and a failure manifest, not a traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["solve-mfe", "--sigma", "2", "--out", "{d}/eq.json"], "sigma must lie in [0,1)"),
        (["solve-mfe", "--kappa", "0", "--out", "{d}/eq.json"], "kappa must lie in (0,1)"),
        (["solve-mfe", "--max-iter", "-1", "--out", "{d}/eq.json"],
         "max_iter must be non-negative"),
        (["solve-irl", "--equilibrium", "{eq}", "--irl-max-iter", "-1",
          "--out", "{d}/irl.json"], "max_iter must be non-negative"),
        (["solve-irl", "--mean-field", "0.65,0.35", "--feature-expectation",
          "1.75,0.6125,3.0175", "--step", "-1", "--out", "{d}/irl.json"],
         "step must be positive"),
        (["solve-irl", "--mean-field", "0.65,abc", "--feature-expectation",
          "1.75,0.6125,3.0175", "--out", "{d}/irl.json"],
         "--mean-field needs comma-separated numbers"),
        (["pipeline", "--step", "-1", "--out-dir", "{d}"], "step must be positive"),
        (["solve-mfe", "--tol", "-1", "--out", "{d}/eq.json"], "tol must be non-negative"),
        (["solve-mfe", "--tol", "nan", "--out", "{d}/eq.json"], "tol must be non-negative"),
        (["solve-irl", "--equilibrium", "{eq}", "--grad-tol", "-1",
          "--out", "{d}/irl.json"], "grad_tol must be non-negative"),
        (["pipeline", "--settle-tol", "-1", "--out-dir", "{d}"],
         "settle_tol must be non-negative"),
        # Each of these used to run: --tol inf and --grad-tol inf passed the
        # starting point off as converged (exit 0), --step nan diverged.
        (["solve-mfe", "--tol", "inf", "--out", "{d}/eq.json"],
         "tol must be non-negative and finite, got inf"),
        (["solve-irl", "--equilibrium", "{eq}", "--grad-tol", "inf",
          "--out", "{d}/irl.json"], "grad_tol must be non-negative and finite, got inf"),
        (["pipeline", "--settle-tol", "inf", "--out-dir", "{d}"],
         "settle_tol must be non-negative and finite, got inf"),
        (["solve-irl", "--mean-field", "0.65,0.35", "--feature-expectation",
          "1.75,0.6125,3.0175", "--step", "nan", "--out", "{d}/irl.json"],
         "step must be positive and finite, got nan"),
        (["solve-irl", "--mean-field", "0.5,0.3,0.2", "--feature-expectation",
          "1.75,0.6125,3.0175", "--out", "{d}/irl.json"],
         "mu_E has shape (3,), expected (2,)"),
    ], ids=["sigma", "kappa", "max-iter", "irl-max-iter", "step", "mean-field",
            "pipeline-step", "tol", "tol-nan", "grad-tol", "settle-tol", "tol-inf",
            "grad-tol-inf", "settle-tol-inf", "step-nan", "mean-field-length"])
    def test_bad_value_is_an_input_error(self, eq_file, tmp_path, capsys, argv, message):
        argv = [a.format(d=tmp_path, eq=eq_file) for a in argv]
        assert run(argv[:1] + ["--model", "builtin:malware2"] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 1 and "Traceback" not in err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["convergence"] == {"converged": False,
                                           "error": "ValidationError"}
        assert manifest["outputs"] == []
        if argv[0] == "pipeline":
            # Rejected before the forward solve.
            assert manifest["stage_seconds"] == {}


class TestQFlag:
    """--q sets the infection probability of builtin:malware2 alone; with
    any other model it is an input error, not a flag silently dropped."""

    @pytest.mark.parametrize("which", ["file", "malware10"])
    def test_q_elsewhere_is_an_input_error(self, model_file, tmp_path, capsys, which):
        name = str(model_file) if which == "file" else "builtin:malware10"
        assert run(["solve-mfe", "--model", name, "--q", "0.5",
                    "--out", str(tmp_path / "eq.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("--q applies to builtin:malware2 only") == 1
        assert "Traceback" not in err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["convergence"] == {"converged": False,
                                           "error": "ValidationError"}
        assert manifest["outputs"] == [] and not (tmp_path / "eq.json").exists()

    def test_q_sets_malware2(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["solve-mfe", "--model", "builtin:malware2", "--q", "0.5", "--out", "eq.json"])
        spec, path = cli.load_model_arg(args)
        assert path is None
        np.testing.assert_array_equal(
            spec.P0, model.builtin_malware(2, (0.2, 1.0, 0.4), q=0.5).P0)


class TestModelOverrides:
    """--beta and --theta on a model file."""

    @pytest.mark.parametrize("flags,beta,theta", [
        (["--beta", "0.7"], 0.7, MALWARE2.theta),
        (["--theta", "0.3", "1.0", "0.5"], MALWARE2.beta, [0.3, 1.0, 0.5]),
        (["--beta", "0.7", "--theta", "0.3", "1.0", "0.5"], 0.7, [0.3, 1.0, 0.5]),
    ])
    def test_override_gives_the_hand_built_spec(self, model_file, flags, beta, theta):
        args = cli.build_parser().parse_args(
            ["solve-mfe", "--model", str(model_file), "--out", "eq.json"] + flags)
        spec, path = cli.load_model_arg(args)
        assert path == model_file
        expected = model.ModelSpec(
            n_states=2, n_actions=2, feature_dim=3, beta=beta, P0=MALWARE2.P0,
            P1=MALWARE2.P1, F0=MALWARE2.F0, F1=MALWARE2.F1, theta=theta,
            state_labels=MALWARE2.state_labels)
        for f in dataclasses.fields(model.ModelSpec):
            got, want = getattr(spec, f.name), getattr(expected, f.name)
            assert type(got) is type(want), f.name
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, f.name
                np.testing.assert_array_equal(got, want, err_msg=f.name)
            else:
                assert got == want, f.name

    def test_beta_out_of_range_is_an_input_error(self, model_file, tmp_path, capsys):
        assert run(["solve-mfe", "--model", str(model_file), "--beta", "1.5",
                    "--out", str(tmp_path / "eq.json")]) == 2
        assert "beta must lie in (0,1), got 1.5" in capsys.readouterr().err


class TestSimConfig:
    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "seed must be a non-negative integer"),
        (["--n-trajectories", "0"], "at least one trajectory"),
    ])
    def test_bad_value_is_an_input_error(self, eq_file, tmp_path, capsys,
                                         flags, message):
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--model", "builtin:malware2", "--equilibrium",
                    str(eq_file), "--out", str(out)] + flags) == 2
        assert message in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["convergence"] == {"converged": False,
                                           "error": "ValidationError"}
        assert not out.exists()

    def test_pipeline_checks_before_solving(self, tmp_path, capsys):
        assert run(["pipeline", "--model", "builtin:malware2", "--estimate",
                    "--seed", "-1", "--out-dir", str(tmp_path)]) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["convergence"] == {"converged": False,
                                           "error": "ValidationError"}
        assert manifest["outputs"] == []


class TestSolveMfe:
    def test_writes_outputs(self, eq_file):
        doc = json.loads(eq_file.read_text())
        np.testing.assert_allclose(doc["mean_field"], [29 / 45, 16 / 45], atol=1e-6)
        assert doc["h_norm_final"] <= 1e-8
        manifest = json.loads((eq_file.parent / "manifest.json").read_text())
        assert manifest["convergence"]["converged"] is True
        assert str(eq_file) in manifest["outputs"]

    def test_model_file_input(self, model_file, tmp_path):
        out = tmp_path / "eq.json"
        assert run(["solve-mfe", "--model", str(model_file),
                    "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert str(model_file) in manifest["inputs"]

    @pytest.mark.parametrize("block", [7, cli.HASH_BLOCK], ids=["7-bytes", "default"])
    def test_input_digest_is_sha256_of_the_file(self, model_file, tmp_path, monkeypatch,
                                                block):
        # Hashed block by block, the digest is the one of the whole file.
        monkeypatch.setattr(cli, "HASH_BLOCK", block)
        assert run(["solve-mfe", "--model", str(model_file),
                    "--out", str(tmp_path / "eq.json")]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["inputs"] == {
            str(model_file): hashlib.sha256(model_file.read_bytes()).hexdigest()}

    def test_manifest_counts_directions(self, eq_file):
        # malware2's KKT system is far below numerics.LU_MIN_DIM.
        manifest = json.loads((eq_file.parent / "manifest.json").read_text())
        doc = json.loads(eq_file.read_text())
        assert manifest["convergence"]["directions"] == {
            "lu": 0, "lu_cut1": 0, "svd": doc["iterations"]}
        assert "directions" not in doc

    def test_manifest_counts_line_search(self, eq_file):
        manifest = json.loads((eq_file.parent / "manifest.json").read_text())
        line_search = manifest["convergence"]["line_search"]
        # One accepted trial per step; malware2 rejects trials for both causes.
        assert (line_search["trials"] - line_search["interior_failures"]
                - line_search["armijo_failures"]) == manifest["convergence"]["iterations"]
        assert line_search["interior_failures"] > 0 and line_search["armijo_failures"] > 0
        assert "line_search" not in json.loads(eq_file.read_text())

    def test_manifest_counts_block_steps(self, tmp_path, monkeypatch, malware2, eq_file):
        manifest = json.loads((eq_file.parent / "manifest.json").read_text())
        assert manifest["convergence"]["block_steps"] == {"power": 0, "subspace": 0}
        # On the LU path the manifest carries the solve's block steps.
        monkeypatch.setattr(numerics, "LU_MIN_DIM", 0)
        out = tmp_path / "eq.json"
        assert run(["solve-mfe", "--model", "builtin:malware2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        steps = m.solve_gnep(malware2)[1].block_steps
        assert manifest["convergence"]["block_steps"] == steps
        assert steps["power"] > 0 and steps["subspace"] > 0
        assert "block_steps" not in json.loads(out.read_text())

    def test_byte_stable(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            out = d / "eq.json"
            assert run(["solve-mfe", "--model", "builtin:malware2",
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVerify:
    def test_verify_equilibrium(self, eq_file, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--model", "builtin:malware2",
                    "--equilibrium", str(eq_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["optimality_gap"] <= 1e-5
        assert doc["invariance_residual"] <= 1e-6


class TestEquilibriumFileChecks:
    """verify, solve-irl --equilibrium and simulate check an equilibrium
    file against the model before they use it. A bad file is an input
    error: not a wrong answer, a solver failure or a traceback."""

    @pytest.mark.parametrize("command", ["verify", "solve-irl", "simulate"])
    @pytest.mark.parametrize("case,name,error,message", [
        ("negative", "malware2", "ValidationError",
         "pi row 0 has negative entry -5.000e-01"),
        ("row-sum", "malware2", "ValidationError",
         "pi row 1 sums to 2.000000000000, expected 1"),
        ("policy-shape", "malware2", "ValidationError",
         "pi has shape (3, 2), expected (2, 2)"),
        ("model-shape", "malware10", "ValidationError",
         "mean_field has shape (2,), expected (10,)"),
        ("no-policy", "malware2", "ParseError", "KeyError: 'policy'"),
        ("not-json", "malware2", "ParseError", "JSONDecodeError: Expecting value"),
    ])
    def test_bad_file_is_an_input_error(self, eq_file, tmp_path, capsys, command,
                                        case, name, error, message):
        doc = json.loads(eq_file.read_text())
        doc["policy"] = {"negative": [[1.5, -0.5], [0.0, 1.0]],
                         "row-sum": [[1.0, 0.0], [1.0, 1.0]],
                         "policy-shape": [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                         }.get(case, doc["policy"])
        if case == "no-policy":
            del doc["policy"]
        bad = tmp_path / "eq.json"
        bad.write_text("not json" if case == "not-json" else json.dumps(doc))
        out = tmp_path / "out" / "result"
        assert run([command, "--model", f"builtin:{name}", "--equilibrium", str(bad),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count(message) == 1
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["convergence"] == {"converged": False, "error": error}
        assert str(bad) in manifest["inputs"]
        assert manifest["outputs"] == [] and not out.exists()


def assert_reads_like_dict_reader(tmp_path, rows):
    """_read_trajectories of a CSV of rows gives the trajectories of a
    dict keyed by id, each sorted by t."""
    path = tmp_path / "traj.csv"
    path.write_text("trajectory_id,t,state,action\n"
                    + "".join(f"{i},{t},{x},{a}\n" for i, t, x, a in rows))
    by_id = {}
    for i, t, x, a in rows:
        by_id.setdefault(i, []).append((t, x, a))
    read = cli._read_trajectories(path, MALWARE2)
    assert len(read) == len(by_id)
    assert read.states.dtype == np.int64 and read.actions.dtype == np.int64
    for (states, actions), i in zip(per_trajectory(read), sorted(by_id)):
        steps = sorted(by_id[i])
        np.testing.assert_array_equal(states, [s[1] for s in steps])
        np.testing.assert_array_equal(actions, [s[2] for s in steps])


class TestSimulateEstimate:
    def test_chain(self, eq_file, tmp_path):
        traj = tmp_path / "traj.csv"
        assert run(["simulate", "--model", "builtin:malware2",
                    "--equilibrium", str(eq_file), "--n-trajectories", "20",
                    "--horizon", "40", "--seed", "0", "--out", str(traj)]) == 0
        header = traj.read_text().splitlines()[0]
        assert header == "trajectory_id,t,state,action"
        out = tmp_path / "est.json"
        assert run(["estimate", "--model", "builtin:malware2",
                    "--trajectories", str(traj), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(sum(doc["mean_field"]) - 1.0) <= 1e-9
        assert doc["tail_bound"] > 0.0

    def test_missing_trajectory_file(self, tmp_path):
        assert run(["estimate", "--model", "builtin:malware2",
                    "--trajectories", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "est.json")]) == 2

    @pytest.mark.parametrize("n_trajectories", [5, 1000])
    def test_writer_matches_row_by_row_writer(self, eq_file, tmp_path,
                                              n_trajectories):
        # 5 trajectories walk the draw tables, 1,000 run lockstep.
        traj = tmp_path / "traj.csv"
        assert run(["simulate", "--model", "builtin:malware2",
                    "--equilibrium", str(eq_file), "--n-trajectories",
                    str(n_trajectories), "--horizon", "40", "--seed", "3",
                    "--out", str(traj)]) == 0
        doc = json.loads(eq_file.read_text())
        mu, pi = np.asarray(doc["mean_field"]), np.asarray(doc["policy"])
        trajectories = estimation.simulate(
            MALWARE2, pi, mu, mu, estimation.EstimatorConfig(
                n_trajectories=n_trajectories, horizon=40, seed=3))
        reference = "trajectory_id,t,state,action\n"
        for i, (states, actions) in enumerate(per_trajectory(trajectories)):
            for step, (x, a) in enumerate(zip(states, actions)):
                reference += f"{i},{step},{x},{a}\n"
        assert traj.read_bytes() == reference.encode()

    def test_reader_matches_dict_reader(self, tmp_path):
        # Unequal lengths, ids 7, 2 and 40 only, and rows shuffled.
        rng = np.random.default_rng(5)
        rows = [(i, t, int(rng.integers(2)), int(rng.integers(2)))
                for i, T in ((7, 30), (2, 1), (40, 12)) for t in range(T)]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        assert_reads_like_dict_reader(tmp_path, rows)

    @pytest.mark.parametrize("rows", [
        [(1, 0, 1, 0), (0, 0, 0, 1)],                  # out of order in the id,
        [(0, 1, 1, 0), (0, 0, 0, 1)],                  # the step,
        [(1, 1, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)],    # both,
        [(0, 0, 1, 1), (1, 1, 1, 0), (1, 0, 0, 0)],    # the step of a later id
        [(0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 1)],    # or sorted
    ])
    def test_reader_sorts_rows_out_of_order(self, tmp_path, rows):
        assert_reads_like_dict_reader(tmp_path, rows)

    @pytest.mark.parametrize("rows,message", [
        # A repeated step, then a gap and a late start: the first is named.
        ("0,0,0,1\n0,0,1,0\n0,5,0,1\n1,7,1,1\n", "t 0 in data row 2 of"),
        ("0,0,0,1\n0,2,1,0\n", "t 2 in data row 2 of"),           # a gap
        ("0,0,0,1\n1,7,1,1\n", "t 7 in data row 2 of"),           # a late start
        ("0,-1,0,1\n0,0,1,0\n", "t -1 in data row 1 of"),         # a negative step
        # Sorted by (id, t), the repeated step of id 0 is file row 3.
        ("0,1,0,1\n0,0,1,0\n0,0,1,1\n", "t 0 in data row 3 of"),
    ], ids=["repeat-then-gap", "gap", "late-start", "negative", "shuffled-repeat"])
    def test_t_column_must_count_steps(self, tmp_path, capsys, rows, message):
        path, out = tmp_path / "traj.csv", tmp_path / "est" / "est.json"
        path.write_text("trajectory_id,t,state,action\n" + rows)
        assert run(["estimate", "--model", "builtin:malware2",
                    "--trajectories", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "its t column must count 0, 1, 2" in err
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["convergence"] == {"converged": False, "error": "ValidationError"}
        assert not out.exists()

    def test_sorted_and_shuffled_files_read_alike(self, eq_file, tmp_path, monkeypatch):
        # simulate writes its rows sorted, which the reader takes as they
        # are; a shuffled copy of the same rows is sorted on reading.
        sorted_csv, shuffled_csv = tmp_path / "sorted.csv", tmp_path / "shuffled.csv"
        assert run(["simulate", "--model", "builtin:malware2", "--equilibrium",
                    str(eq_file), "--n-trajectories", "30", "--horizon", "25",
                    "--seed", "8", "--out", str(sorted_csv)]) == 0
        header, *rows = sorted_csv.read_text().splitlines()
        order = np.random.default_rng(0).permutation(len(rows))
        shuffled_csv.write_text("\n".join([header] + [rows[k] for k in order]) + "\n")
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        a = cli._read_trajectories(sorted_csv, MALWARE2)
        assert sorts == []
        b = cli._read_trajectories(shuffled_csv, MALWARE2)
        assert sorts == [1]
        assert len(a) == len(b) == 30
        for name in ("states", "actions", "lengths"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(a.lengths, 25)

    def test_roundtrip_digests(self, tmp_path):
        # simulate -> estimate on malware10 at 1,000 x 200, seed 1: the CSV
        # and the estimate keep the bytes of the per-trajectory writer,
        # sorting reader and estimator loop they replaced.
        eq, csv, est = (tmp_path / "eq" / "eq.json", tmp_path / "sim" / "traj.csv",
                        tmp_path / "est" / "estimate.json")
        assert run(["solve-mfe", "--model", "builtin:malware10", "--out", str(eq)]) == 0
        assert run(["simulate", "--model", "builtin:malware10", "--equilibrium", str(eq),
                    "--n-trajectories", "1000", "--horizon", "200", "--seed", "1",
                    "--out", str(csv)]) == 0
        assert run(["estimate", "--model", "builtin:malware10",
                    "--trajectories", str(csv), "--out", str(est)]) == 0
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (csv, est)]
        assert digests == [
            "6275fae8e7df7f50f1821fe510b4752b2bf99e7160e8dd485a154db5b65afc06",
            "7af962e1d8b448cc490241b85676e8cd128226c1622a3c3c5a4e2e586a0e01a2",
        ]
        for path, stages in ((csv, ["simulate", "write_csv"]),
                             (est, ["read_csv", "estimators"])):
            manifest = json.loads((path.parent / "manifest.json").read_text())
            assert list(manifest["stage_seconds"]) == stages
            assert sum(manifest["stage_seconds"].values()) <= manifest["duration_seconds"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("trajectory_id,t,state,action\n0,0,1,0\n\n0,1,0,1\n\n")
        trajs = cli._read_trajectories(path, MALWARE2)
        np.testing.assert_array_equal(trajs.lengths, [2])
        np.testing.assert_array_equal(trajs.states, [1, 0])
        np.testing.assert_array_equal(trajs.actions, [0, 1])

    @pytest.mark.parametrize("rows,message", [
        ("0,0,x,1\n", "bad trajectory row"),
        ("0,0,1.5,1\n", "bad trajectory row"),
        ("0,0,1\n", "3 fields"),
        ("0,0,1,1\n0,1,1\n", "bad trajectory row"),
        ("0,0,1,1,0\n", "5 fields"),
        ("0,0,1,1\n0,1,2,0\n", "state 2 in data row 2"),
        ("0,0,-1,0\n", "state -1"),
        ("0,0,0,2\n", "action 2"),
        ("0,0,0,-3\n", "action -3"),
        ("", "no trajectories"),
    ])
    def test_bad_rows_are_input_errors(self, tmp_path, capsys, rows, message):
        path = tmp_path / "traj.csv"
        path.write_text("trajectory_id,t,state,action\n" + rows)
        assert run(["estimate", "--model", "builtin:malware2",
                    "--trajectories", str(path),
                    "--out", str(tmp_path / "est.json")]) == 2
        assert message in capsys.readouterr().err

    def test_policy_that_is_not_a_distribution(self, eq_file, tmp_path, capsys):
        doc = json.loads(eq_file.read_text())
        doc["policy"] = [[0.6, 0.0], [0.0, 1.0]]
        bad = tmp_path / "eq.json"
        bad.write_text(json.dumps(doc))
        assert run(["simulate", "--model", "builtin:malware2",
                    "--equilibrium", str(bad), "--horizon", "5",
                    "--out", str(tmp_path / "traj.csv")]) == 2
        assert "pi row 0" in capsys.readouterr().err


class TestSolveIrl:
    def test_from_equilibrium_file(self, eq_file, tmp_path):
        out = tmp_path / "irl.json"
        with pytest.warns(UserWarning):
            code = run(["solve-irl", "--model", "builtin:malware2",
                        "--equilibrium", str(eq_file), "--method", "gd",
                        "--step", "0.5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert max(doc["residuals"].values()) <= 1e-2
        pi = np.asarray(doc["policy"])
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-9)
        # Four state-action rows cannot reach rank k + 2|X| = 7.
        convergence = json.loads((tmp_path / "manifest.json").read_text())["convergence"]
        assert convergence["residuals"] == doc["residuals"]
        assert convergence["span_assumption"] == {"holds": False, "rank": 4}
        assert convergence["iterations"] == doc["iterations"]

    def test_from_explicit_data(self, tmp_path):
        out = tmp_path / "irl.json"
        with pytest.warns(UserWarning):
            code = run(["solve-irl", "--model", "builtin:malware2",
                        "--mean-field", "0.65,0.35",
                        "--feature-expectation", "1.75,0.6125,3.0175",
                        "--step", "0.5", "--settle-tol", "1e-8",
                        "--out", str(out)])
        assert code == 0


class TestPipeline:
    def test_end_to_end(self, tmp_path):
        out_dir = tmp_path / "run"
        code = run(["pipeline", "--model", "builtin:malware2",
                    "--step", "0.5", "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("equilibrium.json", "irl.json", "manifest.json"):
            assert (out_dir / name).exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["convergence"]["converged"] is True
        assert manifest["convergence"]["mfe"]["h_norm"] <= 1e-8
        assert manifest["convergence"]["mfe"]["directions"] == {
            "lu": 0, "lu_cut1": 0, "svd": manifest["convergence"]["mfe"]["iterations"]}
        assert manifest["convergence"]["mfe"]["line_search"]["trials"] > 0
        summary = manifest["convergence"]["irl"]
        doc = json.loads((out_dir / "irl.json").read_text())
        assert summary["residuals"] == doc["residuals"]
        assert summary["span_assumption"] == {"holds": False, "rank": 4}


class TestSharedStages:
    """pipeline runs the forward stage of solve-mfe and the inverse stage of
    solve-irl, so it writes the same equilibrium, on success and when the
    forward solve stops at its iteration cap."""

    @pytest.mark.parametrize("name", ["malware2", "malware10"])
    def test_equilibrium_matches_solve_mfe(self, tmp_path, name):
        flags = ["--model", f"builtin:{name}", "--sigma", "0.2", "--tol", "1e-9"]
        eq = tmp_path / "mfe" / "eq.json"
        assert run(["solve-mfe", *flags, "--out", str(eq)]) == 0
        assert run(["pipeline", *flags, "--out-dir", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "equilibrium.json").read_bytes() == eq.read_bytes()

    def test_forward_cap_writes_partial_equilibrium(self, tmp_path, capsys):
        eq, out_dir = tmp_path / "mfe" / "eq.json", tmp_path / "run"
        flags = ["--model", "builtin:malware2", "--max-iter", "2"]
        assert run(["solve-mfe", *flags, "--out", str(eq)]) == 1
        assert run(["pipeline", *flags, "--out-dir", str(out_dir)]) == 1
        mfe_err, pipeline_err = capsys.readouterr().err.splitlines()
        assert mfe_err.startswith("solve-mfe: |H| = ")
        assert pipeline_err == mfe_err.replace("solve-mfe", "pipeline[solve-mfe]")
        partial = out_dir / "equilibrium.json"
        assert partial.read_bytes() == eq.read_bytes()
        assert not (out_dir / "irl.json").exists()
        mfe = json.loads((eq.parent / "manifest.json").read_text())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert mfe["outputs"] == [str(eq)] and manifest["outputs"] == [str(partial)]
        convergence = manifest["convergence"]
        assert list(convergence)[:2] == ["converged", "stage"]
        assert convergence == {**mfe["convergence"], "stage": "solve-mfe"}
        assert convergence["error"] == "NotConverged" and convergence["iterations"] == 2


class TestPartialEquilibrium:
    """Every forward failure writes the equilibrium read off the iterate it
    carries, as the iteration cap does, and lists it among the outputs."""

    @pytest.mark.parametrize("error", ["NonDescent", "BoundaryViolation",
                                       "LineSearchStall"])
    def test_written_and_listed(self, tmp_path, monkeypatch, capsys, error):
        spec, flags, kkt_map = MALWARE2, ["--model", "builtin:malware2"], gnep.kkt_map
        if error == "NonDescent":
            spec = non_descent_model()
            path = tmp_path / "model.json"
            path.write_text(model.dump_model(spec))
            flags = ["--model", str(path)]
        elif error == "LineSearchStall":
            # malware2's first full step leaves the interior.
            monkeypatch.setattr(gnep, "MAX_BACKTRACK", 0)

        def arm():
            """A fresh injection for each solve."""
            if error == "BoundaryViolation":
                monkeypatch.setattr(gnep, "kkt_map", kkt_map)
                inject_boundary_violation(monkeypatch, iteration=2)

        arm()
        with pytest.raises(SolverFailure) as exc_info:
            gnep.solve_gnep(spec)
        assert type(exc_info.value).__name__ == error
        z, report = exc_info.value.result
        expected = tmp_path / "expected.json"
        cli.write_json(expected, cli.equilibrium_payload(gnep.equilibrium_at(spec, z),
                                                         report))
        eq, out_dir = tmp_path / "mfe" / "eq.json", tmp_path / "run"
        arm()
        assert run(["solve-mfe", *flags, "--out", str(eq)]) == 1
        arm()
        assert run(["pipeline", *flags, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.count(f"iteration {report.iterations}: ") == 2
        partial = out_dir / "equilibrium.json"
        assert eq.read_bytes() == partial.read_bytes() == expected.read_bytes()
        for out, manifest_dir in ((eq, eq.parent), (partial, out_dir)):
            manifest = json.loads((manifest_dir / "manifest.json").read_text())
            assert manifest["outputs"] == [str(out)]
            assert manifest["convergence"]["error"] == error
            assert manifest["convergence"]["iterations"] == report.iterations
        assert not (out_dir / "irl.json").exists()


class TestStageSeconds:
    """The pipeline manifest times every stage that ran, on success and on
    failure."""

    @pytest.mark.parametrize("case,flags,code,stages", [
        ("success", [], 0, ["solve-mfe", "solve-irl"]),
        ("irl-fails", ["--estimate", "--n-trajectories", "10", "--horizon", "50",
                       "--irl-max-iter", "100"], 1, ["solve-mfe", "estimate", "solve-irl"]),
        ("mfe-fails", [], 1, ["solve-mfe"]),
        ("input-error", ["--estimate", "--seed", "-1"], 2, []),
    ])
    def test_pipeline_records_stages(self, tmp_path, monkeypatch, case, flags, code,
                                     stages):
        if case == "mfe-fails":
            inject_boundary_violation(monkeypatch, iteration=2)
        assert run(["pipeline", "--model", "builtin:malware2", "--out-dir",
                    str(tmp_path)] + flags) == code
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["convergence"]["converged"] is (code == 0)
        seconds = manifest["stage_seconds"]
        assert list(seconds) == stages
        assert all(t >= 0.0 for t in seconds.values())
        assert sum(seconds.values()) <= manifest["duration_seconds"]

    def test_only_the_manifest_carries_timings(self, tmp_path):
        runs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in runs:
            assert run(["pipeline", "--model", "builtin:malware2",
                        "--out-dir", str(out_dir)]) == 0
        for name in ("equilibrium.json", "irl.json"):
            assert "seconds" not in (runs[0] / name).read_text()
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


class TestIrlMethod:
    """--method, its default by data source, and the IRL failure manifests."""

    @pytest.mark.parametrize("argv,method", [
        (["pipeline", "--model", "builtin:malware10", "--out-dir", "{d}"], "newton"),
        (["pipeline", "--model", "builtin:malware10", "--estimate",
          "--irl-max-iter", "100", "--out-dir", "{d}"], "gd"),
        (["solve-irl", "--model", "builtin:malware2", "--equilibrium", "{eq}",
          "--out", "{d}/irl.json"], "newton"),
        (["solve-irl", "--model", "builtin:malware2", "--mean-field", "0.65,0.35",
          "--feature-expectation", "1.75,0.6125,3.0175", "--irl-max-iter", "100",
          "--out", "{d}/irl.json"], "gd"),
    ])
    def test_default_follows_data_source(self, eq_file, tmp_path, argv, method):
        # Exact data from an equilibrium gets newton, which converges in a
        # few steps; supplied or estimated data gets gd, here cut at 100
        # steps, so the failure manifest names the method that ran.
        code = run([a.format(d=tmp_path, eq=eq_file) for a in argv])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        convergence = manifest["convergence"]
        assert manifest["config"]["method"] is None
        if method == "newton":
            assert code == 0
            summary = convergence.get("irl", convergence)
            assert summary["method"] == "newton"
            assert summary["iterations"] <= 10
            assert max(summary["residuals"].values()) <= 1e-2
        else:
            assert code == 1
            assert convergence["error"] == "NotConverged"
            assert convergence["method"] == "gd"
            assert convergence["iterations"] == 100

    def test_gd_reproduces_descent_output(self, tmp_path):
        # The a4-pipeline arguments with gd: constant-step descent takes
        # 514,907 steps and writes this irl.json byte for byte. The digest
        # follows the equilibrium it starts from; malware10's forward solve
        # took the Schur-complement direction in place of lstsq at KKT
        # dimension 132, which moved the flow residual in its 13th digit.
        assert run(["pipeline", "--model", "builtin:malware10", "--step", "0.0025",
                    "--method", "gd", "--out-dir", str(tmp_path)]) == 0
        out = (tmp_path / "irl.json").read_bytes()
        assert json.loads(out)["iterations"] == 514_907
        digest = hashlib.sha256(out).hexdigest()
        assert digest == "8a47ed156377551fbf5cad849b26973f5de3c7067682b83139e7054b381deaac"

    @pytest.mark.parametrize("case", ["cap", "singular", "diverged"])
    def test_failure_manifest_records_last_iterate(self, eq_file, tmp_path,
                                                   monkeypatch, case):
        if case == "cap":
            argv = ["solve-irl", "--model", "builtin:malware2", "--equilibrium",
                    str(eq_file), "--method", "newton", "--grad-tol", "1e-12",
                    "--irl-max-iter", "2", "--out", str(tmp_path / "irl.json")]
            expected = ("NotConverged", "newton", 2)
        elif case == "singular":
            solve = np.linalg.solve

            def singular(a, b):
                # Only the inverse solver's Newton system is singular; any
                # other caller gets the real solver.
                if sys._getframe(1).f_globals.get("__name__") == "mfgsolver.irl":
                    raise np.linalg.LinAlgError("Singular matrix")
                return solve(a, b)

            monkeypatch.setattr(np.linalg, "solve", singular)
            argv = ["pipeline", "--model", "builtin:malware2", "--out-dir", str(tmp_path)]
            expected = ("NonFinite", "newton", 0)
        else:
            # A step that is finite but huge makes the dual objective
            # overflow on the first step (a non-finite step is an input
            # error).
            argv = ["solve-irl", "--model", "builtin:malware2", "--mean-field",
                    "0.65,0.35", "--feature-expectation", "1.75,0.6125,3.0175",
                    "--step", "1e308", "--out", str(tmp_path / "irl.json")]
            expected = ("NonFinite", "gd", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert run(argv) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        convergence = manifest["convergence"]
        assert (convergence["error"], convergence["method"]) == expected[:2]
        assert convergence["iterations"] == expected[2]
        assert convergence["grad_norm"] > 1e-12
        assert convergence.get("stage") == ("solve-irl" if argv[0] == "pipeline" else None)

    def test_non_finite_values_are_written_as_null(self, tmp_path):
        # JSON has no NaN or infinity, so a diverged solve's last values are
        # written as null.
        path = tmp_path / "out.json"
        cli.write_json(path, {"g": float("nan"), "grad_norm": np.inf,
                              "step": np.float64(-np.inf), "x": 1.5})
        assert json.loads(path.read_text()) == {"g": None, "grad_norm": None,
                                                "step": None, "x": 1.5}
