"""Command-line front end.

Subcommands: solve-mfe, solve-irl, simulate, estimate, verify, pipeline.
dispatch is the one run skeleton. It creates the output directory and its
ManifestWriter, loads --model, and calls the subcommand, which writes its
outputs through the manifest and returns its success record. On a package
error dispatch writes the failure manifest, prints one stderr line and
exits 1 for a solver failure (errors.SolverFailure: non-convergence, a
non-descent Newton direction, a stalled line search, an iterate off the
barrier's domain, or divergence) or 2 for an input or validation error.
The forward and inverse stages run the two solvers for solve-mfe,
solve-irl and pipeline alike, and record what a failed solve reached.
All floats are serialized in fixed scientific notation so reruns are
byte-identical.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import estimation, gnep, irl, mdp, model
from .errors import MfgError, ParseError, SolverFailure, ValidationError

TRAJECTORY_HEADER = "trajectory_id,t,state,action"
# Bytes per read when ManifestWriter.add_input hashes an input file.
HASH_BLOCK = 1 << 20

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
        # JSON has no NaN or infinity; a diverged solve's last values are null.
        return f"{float(value):.12e}" if math.isfinite(value) else "null"
    if isinstance(value, str):
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


# ---------------------------------------------------------------------------
# Shared pieces

def input_file(path, what):
    """path as a Path, checked to name a readable file; a missing path, or
    one that is a directory or cannot be read, is an input error."""
    path = Path(path)
    if not path.exists():
        raise MfgError(f"{what} file not found: {path}")
    if not (path.is_file() and os.access(path, os.R_OK)):
        raise MfgError(f"{what} file is not a readable file: {path}")
    return path


def load_model_arg(args):
    """(spec, path) of --model, with the --beta, --theta and --q overrides,
    and path None for a builtin. --q sets the infection probability of
    builtin:malware2 and is an input error with any other model."""
    name = args.model
    if args.q is not None and name != "builtin:malware2":
        raise ValidationError(f"--q applies to builtin:malware2 only, not {name}")
    if name.startswith("builtin:"):
        key = name.split(":", 1)[1]
        if key not in BUILTIN_DEFAULTS:
            raise MfgError(f"unknown builtin model {key!r}")
        defaults = BUILTIN_DEFAULTS[key]
        theta = tuple(args.theta) if args.theta else defaults["theta"]
        q = args.q if args.q is not None else defaults["q"]
        beta = args.beta if args.beta is not None else defaults["beta"]
        return model.builtin_malware(defaults["n_states"], theta, q=q, beta=beta), None
    path = input_file(name, "model")
    spec = model.load_model(path.read_text())
    overrides = {k: v for k, v in (("beta", args.beta), ("theta", args.theta))
                 if v is not None}
    return (dataclasses.replace(spec, **overrides) if overrides else spec), path


def read_equilibrium(path, spec, manifest):
    """The (mean_field, policy) arrays of an equilibrium file, recorded as
    an input of manifest and passed on as parsed. A missing or malformed
    file is an input error, and so is a mean field that is not a
    distribution on the model's states or a policy that
    model.check_policy rejects."""
    path = input_file(path, "equilibrium")
    manifest.add_input(path)
    try:
        doc = json.loads(path.read_text())
        mu, pi = (np.asarray(doc[key], dtype=float) for key in ("mean_field", "policy"))
    except (ValueError, LookupError, TypeError) as exc:
        raise ParseError(f"cannot read equilibrium file {path}: "
                         f"{type(exc).__name__}: {exc}") from None
    model.check_simplex(mu, "mean_field", spec.n_states)
    model.check_policy(spec, pi)
    return mu, pi


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


def irl_progress(method, trace):
    """The method that ran, and the length and last gradient norm of its trace."""
    return {"method": method, "iterations": len(trace) - 1,
            "grad_norm": float(trace[-1][1])}


class ManifestWriter:
    """Collects run metadata for manifest.json, which dispatch writes with
    finish, success or not.

    Creates the output directory up front. A subcommand records its inputs
    with add_input and writes each output with write, which lists it.
    `failure` holds what is known of a failed solve: stage names the
    stage, and the forward and inverse stages add the solver's last
    record. dispatch adds it to the manifest of a solver failure.
    """

    def __init__(self, command, config, out_dir):
        config = {k: v for k, v in config.items()
                  if not callable(v) and k != "func"}
        self.payload = {
            "command": command,
            "config": config,
            "inputs": {},
            "outputs": [],
            "duration_seconds": 0.0,
            "stage_seconds": {},
            "convergence": {},
        }
        self.failure = {}
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.start = time.monotonic()

    def add_input(self, path):
        """Records the SHA-256 digest of the file at path, hashed in
        HASH_BLOCK-byte blocks so that no input is held whole; None, the
        path of a builtin model, records nothing. hashlib is imported
        here: runs without an input file never load it."""
        if path is None:
            return
        import hashlib
        digest = hashlib.sha256()
        with Path(path).open("rb") as fh:
            while block := fh.read(HASH_BLOCK):
                digest.update(block)
        self.payload["inputs"][str(path)] = digest.hexdigest()

    def write(self, path, payload):
        """Writes the JSON document payload to path, or calls payload(path)
        when it is a function that writes the file, and lists path as an
        output."""
        if callable(payload):
            payload(path)
        else:
            write_json(path, payload)
        self.payload["outputs"].append(str(path))

    @contextlib.contextmanager
    def stage(self, name):
        """Records the block's duration as stage_seconds[name], also when
        it raises, and names it as the stage of a failure raised in it."""
        self.failure = {"stage": name}
        start = time.monotonic()
        try:
            yield
        finally:
            self.payload["stage_seconds"][name] = time.monotonic() - start

    def finish(self, convergence):
        self.payload["convergence"] = convergence
        self.payload["duration_seconds"] = time.monotonic() - self.start
        write_json(self.out_dir / "manifest.json", self.payload)


def forward_summary(report):
    """The manifest's record of a forward solve: the final KKT norm, the
    iteration count, the Newton directions per solve path, the line-search
    trials with their rejections by cause, and the LU path's block steps."""
    return {"h_norm": report.h_norm_history[-1], "iterations": report.iterations,
            "directions": report.directions, "line_search": report.line_search,
            "block_steps": report.block_steps}


def _config(make, **values):
    """make(**values), a config; a value it rejects is an input error."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def gnep_config_from_args(args):
    return _config(gnep.GnepConfig, sigma=args.sigma, kappa=args.kappa, tol=args.tol,
                   max_iter=args.max_iter)


def sim_config_from_args(args):
    """The EstimatorConfig of --n-trajectories, --horizon and --seed."""
    return _config(estimation.EstimatorConfig, n_trajectories=args.n_trajectories,
                   horizon=args.horizon, seed=args.seed)


def irl_config_from_args(args, exact):
    """The IrlConfig of the inverse flags. --method defaults to "newton" on
    exact expert data, computed from an equilibrium, and to "gd" on
    supplied or estimated data: such data is not exactly consistent, so
    the dual has no finite minimizer."""
    return _config(irl.IrlConfig, step=args.step, grad_tol=args.grad_tol,
                   max_iter=args.irl_max_iter, settle_tol=args.settle_tol,
                   method=args.method or ("newton" if exact else "gd"))


def _floats(flag, text):
    """The numbers of a comma-separated list; a malformed list is an input error."""
    try:
        return np.asarray([float(v) for v in text.split(",")])
    except ValueError:
        raise ValidationError(f"{flag} needs comma-separated numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands

def forward(spec, config, manifest, out):
    """The forward stage: solve_gnep, with the equilibrium written to out.
    Returns (eq, report). A failure that carries its last iterate and
    report writes the partial equilibrium read off that iterate
    (gnep.equilibrium_at) to out too, and adds the report's
    forward_summary to manifest.failure."""
    try:
        eq, report = gnep.solve_gnep(spec, config)
    except SolverFailure as exc:
        if exc.result is not None:
            z, report = exc.result
            manifest.failure.update(forward_summary(report))
            manifest.write(out, equilibrium_payload(gnep.equilibrium_at(spec, z), report))
        raise
    manifest.write(out, equilibrium_payload(eq, report))
    return eq, report


def inverse(problem, config, manifest, out):
    """The inverse stage: solve_irl and verify_irl, with irl.json written to
    out. Returns the manifest's account of the solve: irl_progress, the
    verify_irl residuals and the span-assumption rank test. On a solver
    failure, manifest.failure gets the method, and irl_progress of the last
    iterate the error carries, if any."""
    method = config.method
    try:
        dual, nu, pi, trace = irl.solve_irl(problem, config)
    except SolverFailure as exc:
        manifest.failure.update({"method": method} if exc.result is None
                                else irl_progress(method, exc.result[1]))
        raise
    residuals = irl.verify_irl(problem, nu)
    manifest.write(out, {
        "dual": {"theta": dual.theta, "lambda": dual.lam, "xi": dual.xi},
        "occupation": nu.nu,
        "policy": pi,
        "residuals": residuals,
        "iterations": len(trace) - 1,
        "g_final": float(trace[-1][0]),
    })
    holds, rank = irl.check_span_assumption(problem)
    return {**irl_progress(method, trace), "residuals": residuals,
            "span_assumption": {"holds": holds, "rank": rank}}


def cmd_solve_mfe(args, spec, manifest):
    _, report = forward(spec, gnep_config_from_args(args), manifest, Path(args.out))
    return {"converged": True, **forward_summary(report)}


def _irl_problem_from_args(args, spec, manifest):
    if args.equilibrium:
        mu_E, pi_E = read_equilibrium(args.equilibrium, spec, manifest)
        f_expert = mdp.feature_expectation(spec, pi_E, mu_E, mu_E)
    elif args.mean_field and args.feature_expectation:
        mu_E = _floats("--mean-field", args.mean_field)
        f_expert = _floats("--feature-expectation", args.feature_expectation)
    else:
        raise MfgError(
            "solve-irl needs --equilibrium or both --mean-field and "
            "--feature-expectation"
        )
    return irl.IrlProblem(spec=spec, mu_E=mu_E, f_expert=f_expert)


def cmd_solve_irl(args, spec, manifest):
    problem = _irl_problem_from_args(args, spec, manifest)
    config = irl_config_from_args(args, exact=bool(args.equilibrium))
    return {"converged": True, **inverse(problem, config, manifest, Path(args.out))}


def cmd_simulate(args, spec, manifest):
    mu, pi = read_equilibrium(args.equilibrium, spec, manifest)
    config = sim_config_from_args(args)
    with manifest.stage("simulate"):
        trajectories = estimation.simulate(spec, pi, mu, mu, config)
    with manifest.stage("write_csv"):
        manifest.write(Path(args.out),
                       lambda path: _write_trajectories(path, spec, trajectories))
    return {"n_trajectories": len(trajectories), "horizon": config.horizon}


def _write_trajectories(path, spec, trajectories):
    """The trajectory CSV, its rows formatted from lookup tables: "t," per
    step and "x,a\\n" per (state, action) code."""
    A = spec.n_actions
    steps = [f"{t}," for t in range(max(map(len, trajectories)))]
    pairs = [f"{x},{a}\n" for x in range(spec.n_states) for a in range(A)]
    with Path(path).open("w") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for i, traj in enumerate(trajectories):
            n = len(traj)
            # Row t is "i," + steps[t] + pairs[code].
            parts = [f"{i},"] * (3 * n)
            parts[1::3] = steps[:n]
            parts[2::3] = map(pairs.__getitem__, (traj.states * A + traj.actions).tolist())
            fh.write("".join(parts))


def _read_trajectories(path, spec, seed=0):
    """Trajectories from a CSV written by `simulate`, in id order and, within
    an id, in (t, state, action) order. Blank lines are skipped."""
    with Path(path).open() as fh:
        if fh.readline().strip() != TRAJECTORY_HEADER:
            raise MfgError(f"unexpected trajectory header in {path}")
    try:
        with warnings.catch_warnings():
            # A header-only file is empty data, reported by the estimators.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # From the path, not the open file: loadtxt reads a path faster.
            rows = np.loadtxt(path, dtype=np.int64, delimiter=",", comments=None,
                              skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"bad trajectory row in {path}: {exc}") from None
    if rows.size == 0:
        return []
    if rows.shape[1] != 4:
        raise ParseError(f"trajectory rows in {path} have {rows.shape[1]} fields, "
                         "expected 4")
    for column, name, size in ((2, "state", spec.n_states),
                               (3, "action", spec.n_actions)):
        bad = (rows[:, column] < 0) | (rows[:, column] >= size)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise ValidationError(
                f"{name} {rows[row, column]} in data row {row + 1} of {path} "
                f"is outside 0..{size - 1}")
    # Sorted unless some row is below the row before it in the first field
    # where the two differ; simulate writes sorted files.
    later, earlier = rows[1:], rows[:-1]
    field = (later != earlier).argmax(axis=1)
    pair = np.arange(len(field))
    if (later[pair, field] < earlier[pair, field]).any():
        rows = rows[np.lexsort(rows.T[::-1])]
    cuts = np.flatnonzero(np.diff(rows[:, 0])) + 1
    states = np.split(np.ascontiguousarray(rows[:, 2]), cuts)
    actions = np.split(np.ascontiguousarray(rows[:, 3]), cuts)
    return [estimation.Trajectory(states=x, actions=a, seed=seed)
            for x, a in zip(states, actions)]


def cmd_estimate(args, spec, manifest):
    traj_path = input_file(args.trajectories, "trajectory")
    manifest.add_input(traj_path)
    with manifest.stage("read_csv"):
        trajectories = _read_trajectories(traj_path, spec)
    with manifest.stage("estimators"):
        mu_hat = estimation.estimate_mean_field(trajectories, spec.n_states)
        f_hat, tail = estimation.estimate_feature_expectation(
            spec, trajectories, mu_hat, spec.beta
        )
    manifest.write(Path(args.out), {
        "mean_field": mu_hat,
        "feature_expectation": f_hat,
        "tail_bound": tail,
    })
    return {"tail_bound": tail}


def cmd_verify(args, spec, manifest):
    mu, pi = read_equilibrium(args.equilibrium, spec, manifest)
    gap, residual = gnep.verify_mfe(spec, pi, mu)
    result = {"optimality_gap": gap, "invariance_residual": residual}
    manifest.write(Path(args.out), result)
    return result


def cmd_pipeline(args, spec, manifest):
    """solve-mfe, then solve-irl on the equilibrium's exact or estimated
    data, each in its own stage of the manifest."""
    # All configs are checked before the forward solve, which a bad value would waste.
    config = gnep_config_from_args(args)
    sim_config = sim_config_from_args(args) if args.estimate else None
    irl_config = irl_config_from_args(args, exact=not args.estimate)
    with manifest.stage("solve-mfe"):
        eq, report = forward(spec, config, manifest, manifest.out_dir / "equilibrium.json")

    if args.estimate:
        with manifest.stage("estimate"):
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
    with manifest.stage("solve-irl"):
        summary = inverse(problem, irl_config, manifest, manifest.out_dir / "irl.json")
    return {
        "converged": True,
        "mfe": {**forward_summary(report),
                "optimality_gap": eq.optimality_gap,
                "invariance_residual": eq.invariance_residual},
        "irl": summary,
    }


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
    defaults = gnep.GnepConfig()
    parser.add_argument("--sigma", type=float, default=defaults.sigma,
                        help="centering weight")
    parser.add_argument("--kappa", type=float, default=defaults.kappa,
                        help="backtracking base")
    parser.add_argument("--tol", type=float, default=defaults.tol,
                        help="KKT norm tolerance")
    parser.add_argument("--max-iter", type=int, default=defaults.max_iter)


def _add_irl_args(parser):
    defaults = irl.IrlConfig()
    parser.add_argument("--method", choices=("newton", "gd"), default=None,
                        help="damped Newton or constant-step gradient descent "
                             "(default newton on data computed from an "
                             "equilibrium, gd on supplied or estimated data)")
    parser.add_argument("--step", type=float, default=defaults.step,
                        help="gradient step of gd (default 1/L)")
    parser.add_argument("--grad-tol", type=float, default=defaults.grad_tol)
    parser.add_argument("--irl-max-iter", type=int, default=defaults.max_iter)
    parser.add_argument("--settle-tol", type=float, default=defaults.settle_tol,
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
    """Runs one subcommand in the run skeleton the module docstring
    describes, and returns its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, matching the input-error code.
        return int(exc.code or 0)
    out_dir = Path(args.out_dir) if args.subcommand == "pipeline" else Path(args.out).parent
    manifest = ManifestWriter(args.subcommand, vars(args), out_dir)
    try:
        spec, path = load_model_arg(args)
        manifest.add_input(path)
        manifest.finish(args.func(args, spec, manifest))
        return 0
    except MfgError as exc:
        solver = isinstance(exc, SolverFailure)
        failure = manifest.failure if solver else {}
        manifest.finish({"converged": False, **failure, "error": type(exc).__name__})
        stage = f"[{failure['stage']}]" if "stage" in failure else ""
        label = f"{args.subcommand}{stage}" if solver else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return 1 if solver else 2


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
