"""Quick self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Run from the repository root. Checks that:
1. the workloads, metric names and units a short real run prints, untraced
   and traced, are exactly those of BENCHMARK.json;
2. a failed correctness check is reported as a failed operation;
3. a traced function that no longer exists is an error in a traced run,
   and a null counter with a warning in an untraced run;
4. without the package source (a directory holding only BENCHMARK.json and
   perfbench/) the benchmark exits non-zero and prints no result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
# Keep the deliberately failing runs out of the real results.
run.RESULTS = run.SCRATCH / "selftest-results"

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
QUICK = ["--workload", "estimate", "--seed", "1", "--seconds", "1"]
FAILURES = []


def check(label, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(label)


def invoke(argv):
    """run.main in this process: (exit code, parsed last stdout line or None, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return code, result, err.getvalue()


def test_names_and_units():
    import workloads

    names = [w["name"] for w in BENCH["workloads"]]
    check("every workload of BENCHMARK.json exists", set(names) <= set(workloads.WORKLOADS),
          f"{sorted(set(names) - set(workloads.WORKLOADS))}")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result, err = invoke(QUICK + ["--trace", str(trace)])
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
        check(f"trace {trace}: result printed", code == 0 and result is not None, err)
        if result is None:
            continue
        check(f"trace {trace}: result keys",
              set(result) == {"correct", "attempted", "failed", "metrics"})
        check(f"trace {trace}: metric names and units match {section}", got == expected,
              f"extra {sorted(set(got) - set(expected))}, "
              f"missing {sorted(set(expected) - set(got))}")
        check(f"trace {trace}: all operations correct",
              result["correct"] and result["failed"] == 0 and result["attempted"] >= 1)


def test_failed_check_is_reported():
    from mfgsolver import estimation

    original = estimation.estimate_mean_field
    estimation.estimate_mean_field = lambda trajectories, n_states=None: (
        original(trajectories, n_states) * 0.0 + 1.0 / n_states)
    try:
        code, result, _ = invoke(QUICK + ["--trace", "1"])
    finally:
        estimation.estimate_mean_field = original
    check("a wrong estimate counts as a failed operation",
          code == 0 and result is not None and not result["correct"]
          and result["failed"] >= 1, json.dumps(result)[:200])


def test_missing_hook_is_reported():
    import tracing

    bogus = "gnep.no_such_function"
    saved = tracing.TRACE_HOOKS, tracing.COUNT_HOOKS
    tracing.TRACE_HOOKS = saved[0] + (bogus,)
    tracing.COUNT_HOOKS = saved[1] + (bogus,)
    try:
        code, result, err = invoke(QUICK + ["--trace", "1"])
        check("traced run: missing hook is an error",
              code != 0 and result is None and f"mfgsolver.{bogus}" in err, err)
        code, result, err = invoke(QUICK + ["--trace", "0"])
    finally:
        tracing.TRACE_HOOKS, tracing.COUNT_HOOKS = saved
    check("untraced run: missing hook warns and still reports",
          code == 0 and result is not None and bogus in err, err)


def test_fails_without_source():
    bare = run.SCRATCH / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", *QUICK, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check("bare directory: non-zero exit and no result",
          proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout[-200:])


def main():
    test_names_and_units()
    test_failed_check_is_reported()
    test_missing_hook_is_reported()
    test_fails_without_source()
    shutil.rmtree(run.RESULTS, ignore_errors=True)
    print("selftest:", "FAILED " + ", ".join(FAILURES) if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
