import json

import numpy as np
import pytest

from mfgsolver import cli, model


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


class TestExitCodes:
    def test_missing_model_file(self, tmp_path, capsys):
        code = run(["solve-mfe", "--model", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "eq.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

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
        # A random degree-one model, p(.|x,a,mu) = sum_z mu(z) K_z(.|x,a);
        # the forward solver stops on a non-descent Newton direction here.
        rng = np.random.default_rng(1)
        X, A, k = 3, 2, 2
        vertex = rng.random((X, X, A, X))
        vertex /= vertex.sum(axis=0, keepdims=True)
        spec = model.ModelSpec(
            n_states=X, n_actions=A, feature_dim=k, beta=0.8,
            P0=np.zeros((X, X, A)), P1=vertex, F0=rng.random((X, A, k)),
            F1=rng.random((X, A, k, X)), theta=rng.uniform(0.1, 1.0, size=k),
        )
        path = tmp_path / "model.json"
        path.write_text(model.dump_model(spec))
        code = run(["solve-mfe", "--model", str(path),
                    "--out", str(tmp_path / "eq.json")])
        assert code == 1
        assert "is not negative" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["convergence"]["converged"] is False
        assert manifest["convergence"]["error"] == "NonDescent"
        assert str(path) in manifest["inputs"]


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


class TestSolveIrl:
    def test_from_equilibrium_file(self, eq_file, tmp_path):
        out = tmp_path / "irl.json"
        with pytest.warns(UserWarning):
            code = run(["solve-irl", "--model", "builtin:malware2",
                        "--equilibrium", str(eq_file), "--step", "0.5",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert max(doc["residuals"].values()) <= 1e-2
        pi = np.asarray(doc["policy"])
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-9)

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
