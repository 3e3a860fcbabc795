"""Command-line front end.

Subcommands: solve-mfe, solve-irl, simulate, estimate, verify, pipeline.
Exit codes: 0 success, 1 solver failure (non-convergence, a non-descent
Newton direction, a stalled line search, or divergence), 2 input or
validation error. Every run writes a manifest next to its outputs, on
failure too, and all floats are serialized in fixed scientific notation so
reruns are byte-identical.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import estimation, gnep, irl, mdp, model
from .errors import (
    LineSearchStall, MfgError, NonDescent, NonFinite, NotConverged,
)

# Errors that mean the solver ran and failed, not that its input was bad.
SOLVER_FAILURES = (NotConverged, NonDescent, LineSearchStall, NonFinite)

BUILTIN_DEFAULTS = {
    "malware2": {"n_states": 2, "theta": (0.2, 1.0, 0.4), "q": 0.9, "beta": 0.8},
    "malware10": {"n_states": 10, "theta": (0.1, 1.0, 0.4), "q": None, "beta": 0.8},
}


# ---------------------------------------------------------------------------
# Byte-stable JSON

def _format_value(value, indent):
    pad = " " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12e}"
    if isinstance(value, str):
        import json

        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_format_value(v, indent + 2) for v in value]
        inner = ",\n".join(f"{pad}  {item}" for item in items)
        return f"[\n{inner}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{k}": {_format_value(v, indent + 2)}' for k, v in value.items()
        ]
        inner = ",\n".join(items)
        return f"{{\n{inner}\n{pad}}}"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def write_json(path, payload):
    Path(path).write_text(_format_value(payload, 0) + "\n")


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Shared pieces

def load_model_arg(args):
    name = args.model
    if name.startswith("builtin:"):
        key = name.split(":", 1)[1]
        if key not in BUILTIN_DEFAULTS:
            raise MfgError(f"unknown builtin model {key!r}")
        defaults = BUILTIN_DEFAULTS[key]
        theta = tuple(args.theta) if args.theta else defaults["theta"]
        q = args.q if args.q is not None else defaults["q"]
        beta = args.beta if args.beta is not None else defaults["beta"]
        return model.builtin_malware(defaults["n_states"], theta, q=q, beta=beta), None
    path = Path(name)
    if not path.exists():
        raise MfgError(f"model file not found: {path}")
    spec = model.load_model(path.read_text())
    if args.beta is not None or args.theta:
        beta = args.beta if args.beta is not None else spec.beta
        theta = np.asarray(args.theta) if args.theta else spec.theta
        spec = model.ModelSpec(
            n_states=spec.n_states, n_actions=spec.n_actions,
            feature_dim=spec.feature_dim, beta=beta, P0=spec.P0, P1=spec.P1,
            F0=spec.F0, F1=spec.F1, theta=theta, state_labels=spec.state_labels,
        )
    return spec, path


def equilibrium_payload(eq, report):
    return {
        "mean_field": eq.mean_field,
        "policy": eq.policy,
        "occupation": eq.occupation.nu,
        "optimality_gap": eq.optimality_gap,
        "invariance_residual": eq.invariance_residual,
        "iterations": report.iterations,
        "h_norm_final": report.h_norm_history[-1],
    }


def irl_payload(dual, nu, pi, residuals, trace):
    return {
        "dual": {"theta": dual.theta, "lambda": dual.lam, "xi": dual.xi},
        "occupation": nu.nu,
        "policy": pi,
        "residuals": residuals,
        "iterations": len(trace) - 1,
        "g_final": float(trace[-1][0]),
    }


class ManifestWriter:
    """Collects run metadata and writes manifest.json on exit, success or not."""

    def __init__(self, command, config, out_dir):
        config = {k: v for k, v in config.items()
                  if not callable(v) and k != "func"}
        self.payload = {
            "command": command,
            "config": config,
            "inputs": {},
            "outputs": [],
            "duration_seconds": 0.0,
            "convergence": {},
        }
        self.out_dir = Path(out_dir)
        self.start = time.monotonic()

    def add_input(self, path):
        if path is not None:
            self.payload["inputs"][str(path)] = _digest(path)

    def add_output(self, path):
        self.payload["outputs"].append(str(path))

    def finish(self, convergence):
        self.payload["convergence"] = convergence
        self.payload["duration_seconds"] = time.monotonic() - self.start
        self.out_dir.mkdir(parents=True, exist_ok=True)
        write_json(self.out_dir / "manifest.json", self.payload)

    def fail(self, exc, label, **convergence):
        """Record a solver failure and report it; returns exit code 1."""
        self.finish({"converged": False, **convergence,
                     "error": type(exc).__name__})
        print(f"{label}: {exc}", file=sys.stderr)
        return 1


def gnep_config_from_args(args):
    return gnep.GnepConfig(
        sigma=args.sigma, kappa=args.kappa, tol=args.tol, max_iter=args.max_iter
    )


def irl_config_from_args(args):
    return irl.IrlConfig(
        step=args.step, grad_tol=args.grad_tol, max_iter=args.irl_max_iter,
        settle_tol=args.settle_tol,
    )


# ---------------------------------------------------------------------------
# Subcommands

def cmd_solve_mfe(args):
    spec, path = load_model_arg(args)
    out = Path(args.out)
    manifest = ManifestWriter("solve-mfe", vars(args).copy(), out.parent)
    manifest.add_input(path)
    config = gnep_config_from_args(args)
    try:
        eq, report = gnep.solve_gnep(spec, config)
    except NotConverged as exc:
        eq, report = exc.result
        write_json(out, equilibrium_payload(eq, report))
        manifest.add_output(out)
        return manifest.fail(exc, "solve-mfe: not converged",
                             h_norm=report.h_norm_history[-1])
    except SOLVER_FAILURES as exc:
        return manifest.fail(exc, "solve-mfe")
    write_json(out, equilibrium_payload(eq, report))
    manifest.add_output(out)
    manifest.finish({"converged": True, "h_norm": report.h_norm_history[-1],
                     "iterations": report.iterations})
    return 0


def _irl_problem_from_args(args, spec, manifest):
    import json

    if args.equilibrium:
        path = Path(args.equilibrium)
        if not path.exists():
            raise MfgError(f"equilibrium file not found: {path}")
        manifest.add_input(path)
        doc = json.loads(path.read_text())
        mu_E = np.asarray(doc["mean_field"], dtype=float)
        pi_E = np.asarray(doc["policy"], dtype=float)
        f_expert = mdp.feature_expectation(spec, pi_E, mu_E, mu_E)
    elif args.mean_field and args.feature_expectation:
        mu_E = np.asarray([float(v) for v in args.mean_field.split(",")])
        f_expert = np.asarray([float(v) for v in args.feature_expectation.split(",")])
    else:
        raise MfgError(
            "solve-irl needs --equilibrium or both --mean-field and "
            "--feature-expectation"
        )
    return irl.IrlProblem(spec=spec, mu_E=mu_E, f_expert=f_expert)


def cmd_solve_irl(args):
    spec, path = load_model_arg(args)
    out = Path(args.out)
    manifest = ManifestWriter("solve-irl", vars(args).copy(), out.parent)
    manifest.add_input(path)
    problem = _irl_problem_from_args(args, spec, manifest)
    config = irl_config_from_args(args)
    try:
        dual, nu, pi, trace = irl.solve_irl(problem, config)
    except SOLVER_FAILURES as exc:
        return manifest.fail(exc, "solve-irl")
    residuals = irl.verify_irl(problem, nu)
    write_json(out, irl_payload(dual, nu, pi, residuals, trace))
    manifest.add_output(out)
    manifest.finish({"converged": True, "iterations": len(trace) - 1,
                     "grad_norm": float(trace[-1][1])})
    return 0


def cmd_simulate(args):
    import json

    spec, path = load_model_arg(args)
    out = Path(args.out)
    manifest = ManifestWriter("simulate", vars(args).copy(), out.parent)
    manifest.add_input(path)
    eq_path = Path(args.equilibrium)
    if not eq_path.exists():
        raise MfgError(f"equilibrium file not found: {eq_path}")
    manifest.add_input(eq_path)
    doc = json.loads(eq_path.read_text())
    mu = np.asarray(doc["mean_field"], dtype=float)
    pi = np.asarray(doc["policy"], dtype=float)
    config = estimation.EstimatorConfig(
        n_trajectories=args.n_trajectories, horizon=args.horizon, seed=args.seed
    )
    trajectories = estimation.simulate(spec, pi, mu, mu, config)
    with out.open("w") as fh:
        fh.write("trajectory_id,t,state,action\n")
        for i, traj in enumerate(trajectories):
            for t, (x, a) in enumerate(zip(traj.states, traj.actions)):
                fh.write(f"{i},{t},{x},{a}\n")
    manifest.add_output(out)
    manifest.finish({"n_trajectories": len(trajectories), "horizon": config.horizon})
    return 0


def _read_trajectories(path, seed=0):
    rows = {}
    with Path(path).open() as fh:
        header = fh.readline()
        if header.strip() != "trajectory_id,t,state,action":
            raise MfgError(f"unexpected trajectory header in {path}")
        for line in fh:
            i, t, x, a = (int(v) for v in line.strip().split(","))
            rows.setdefault(i, []).append((t, x, a))
    trajectories = []
    for i in sorted(rows):
        steps = sorted(rows[i])
        trajectories.append(estimation.Trajectory(
            states=np.array([s[1] for s in steps]),
            actions=np.array([s[2] for s in steps]),
            seed=seed,
        ))
    return trajectories


def cmd_estimate(args):
    spec, path = load_model_arg(args)
    out = Path(args.out)
    manifest = ManifestWriter("estimate", vars(args).copy(), out.parent)
    manifest.add_input(path)
    traj_path = Path(args.trajectories)
    if not traj_path.exists():
        raise MfgError(f"trajectory file not found: {traj_path}")
    manifest.add_input(traj_path)
    trajectories = _read_trajectories(traj_path)
    mu_hat = estimation.estimate_mean_field(trajectories, spec.n_states)
    f_hat, tail = estimation.estimate_feature_expectation(
        spec, trajectories, mu_hat, spec.beta
    )
    write_json(out, {
        "mean_field": mu_hat,
        "feature_expectation": f_hat,
        "tail_bound": tail,
    })
    manifest.add_output(out)
    manifest.finish({"tail_bound": tail})
    return 0


def cmd_verify(args):
    import json

    spec, path = load_model_arg(args)
    out = Path(args.out)
    manifest = ManifestWriter("verify", vars(args).copy(), out.parent)
    manifest.add_input(path)
    eq_path = Path(args.equilibrium)
    if not eq_path.exists():
        raise MfgError(f"equilibrium file not found: {eq_path}")
    manifest.add_input(eq_path)
    doc = json.loads(eq_path.read_text())
    mu = np.asarray(doc["mean_field"], dtype=float)
    pi = np.asarray(doc["policy"], dtype=float)
    gap, residual = gnep.verify_mfe(spec, pi, mu)
    write_json(out, {"optimality_gap": gap, "invariance_residual": residual})
    manifest.add_output(out)
    manifest.finish({"optimality_gap": gap, "invariance_residual": residual})
    return 0


def cmd_pipeline(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec, path = load_model_arg(args)
    manifest = ManifestWriter("pipeline", vars(args).copy(), out_dir)
    manifest.add_input(path)

    config = gnep_config_from_args(args)
    try:
        eq, report = gnep.solve_gnep(spec, config)
    except SOLVER_FAILURES as exc:
        return manifest.fail(exc, "pipeline[solve-mfe]", stage="solve-mfe")
    eq_path = out_dir / "equilibrium.json"
    write_json(eq_path, equilibrium_payload(eq, report))
    manifest.add_output(eq_path)

    if args.estimate:
        sim_config = estimation.EstimatorConfig(
            n_trajectories=args.n_trajectories, horizon=args.horizon, seed=args.seed
        )
        trajectories = estimation.simulate(
            spec, eq.policy, eq.mean_field, eq.mean_field, sim_config
        )
        mu_E = estimation.estimate_mean_field(trajectories, spec.n_states)
        mu_E = np.clip(mu_E, 1e-12, None)
        mu_E /= mu_E.sum()
        f_expert, _ = estimation.estimate_feature_expectation(
            spec, trajectories, mu_E, spec.beta
        )
    else:
        mu_E = eq.mean_field
        f_expert = mdp.feature_expectation(spec, eq.policy, mu_E, mu_E)

    problem = irl.IrlProblem(spec=spec, mu_E=mu_E, f_expert=f_expert)
    irl_config = irl_config_from_args(args)
    try:
        dual, nu, pi, trace = irl.solve_irl(problem, irl_config)
    except SOLVER_FAILURES as exc:
        return manifest.fail(exc, "pipeline[solve-irl]", stage="solve-irl")
    residuals = irl.verify_irl(problem, nu)
    irl_path = out_dir / "irl.json"
    write_json(irl_path, irl_payload(dual, nu, pi, residuals, trace))
    manifest.add_output(irl_path)

    manifest.finish({
        "converged": True,
        "mfe": {"h_norm": report.h_norm_history[-1],
                "iterations": report.iterations,
                "optimality_gap": eq.optimality_gap,
                "invariance_residual": eq.invariance_residual},
        "irl": {"iterations": len(trace) - 1,
                "grad_norm": float(trace[-1][1]),
                "residuals": residuals},
    })
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _add_model_args(parser):
    parser.add_argument("--model", required=True,
                        help="model JSON path or builtin:malware2 / builtin:malware10")
    parser.add_argument("--theta", type=float, nargs="+", default=None,
                        help="reward weight override")
    parser.add_argument("--q", type=float, default=None,
                        help="infection probability (2-state builtin)")
    parser.add_argument("--beta", type=float, default=None, help="discount override")


def _add_gnep_args(parser):
    parser.add_argument("--sigma", type=float, default=0.1, help="centering weight")
    parser.add_argument("--kappa", type=float, default=0.5, help="backtracking base")
    parser.add_argument("--tol", type=float, default=1e-8, help="KKT norm tolerance")
    parser.add_argument("--max-iter", type=int, default=10_000)


def _add_irl_args(parser):
    parser.add_argument("--step", type=float, default=None,
                        help="gradient step (default 1/L)")
    parser.add_argument("--grad-tol", type=float, default=1e-2)
    parser.add_argument("--irl-max-iter", type=int, default=1_000_000)
    parser.add_argument("--settle-tol", type=float, default=None,
                        help="also require the occupation measure to stop moving")


def _add_sim_args(parser):
    parser.add_argument("--n-trajectories", type=int, default=10)
    parser.add_argument("--horizon", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mfgsolver",
        description="Forward and inverse solvers for finite-state mean-field games",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve-mfe", help="compute a mean-field equilibrium")
    _add_model_args(p)
    _add_gnep_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve_mfe)

    p = sub.add_parser("solve-irl", help="recover a max-entropy policy")
    _add_model_args(p)
    _add_irl_args(p)
    p.add_argument("--equilibrium", default=None,
                   help="equilibrium JSON supplying mu_E and the expert policy")
    p.add_argument("--mean-field", default=None, help="comma-separated mu_E")
    p.add_argument("--feature-expectation", default=None,
                   help="comma-separated expert feature expectations")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve_irl)

    p = sub.add_parser("simulate", help="sample trajectories at an equilibrium")
    _add_model_args(p)
    _add_sim_args(p)
    p.add_argument("--equilibrium", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate mu_E and feature expectations")
    _add_model_args(p)
    p.add_argument("--trajectories", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="verify an equilibrium file")
    _add_model_args(p)
    p.add_argument("--equilibrium", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipeline", help="solve-mfe then solve-irl end to end")
    _add_model_args(p)
    _add_gnep_args(p)
    _add_irl_args(p)
    _add_sim_args(p)
    p.add_argument("--estimate", action="store_true",
                   help="estimate mu_E and features from simulated data")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)
    return parser


def dispatch(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, matching the input-error code.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SOLVER_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MfgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
