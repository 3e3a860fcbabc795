"""Outside-in tracing of the mfgsolver package.

A Tracer replaces public functions of the package's modules with wrappers
that record calls, inclusive time and self time, keyed by the function's
qualified name and by the wrapped function that called it. Nothing inside
the package changes: the wrappers are installed by rebinding module
attributes, and every module that imported the same function object (for
example `gnep` importing `value_iteration` from `mdp`) is rebound too.

A hook whose target no longer exists raises MissingHook at install time,
so a rename shows up as an error and never as zero time.
"""

import sys
import time
from collections import defaultdict

PACKAGE = "mfgsolver"

# Every public function the traced run wraps, as "<module>.<function>".
TRACE_HOOKS = (
    "model.builtin_malware", "model.load_model", "model.dump_model",
    "model.check_simplex", "model.transition_kernel", "model.feature_table",
    "model.cost_table",
    "numerics.solve_linear", "numerics.pseudo_inverse", "numerics.log_sum_exp",
    "numerics.jacobian_fd",
    "mdp.policy_chain", "mdp.value_iteration", "mdp.policy_evaluation",
    "mdp.stationary_distribution", "mdp.occupation_measure", "mdp.disintegrate",
    "mdp.feature_expectation",
    "gnep.solve_gnep", "gnep.kkt_map", "gnep.kkt_jacobian",
    "gnep.newton_direction", "gnep.armijo_step", "gnep.verify_mfe",
    "irl.solve_irl", "irl.smoothness_constants", "irl.verify_irl",
    "estimation.simulate", "estimation.estimate_mean_field",
    "estimation.estimate_feature_expectation",
    "cli.dispatch", "cli.write_json",
)

# The untimed hooks every run keeps, for the exact forward-solver counters.
COUNT_HOOKS = ("gnep.kkt_map", "gnep.newton_direction", "gnep.armijo_step")

LAYERS = ("model", "numerics", "mdp", "gnep", "irl", "estimation", "cli")
ROOT = "bench"


class MissingHook(RuntimeError):
    """A hook names a function the package no longer has."""


def _resolve(hook):
    module_name, attr = hook.split(".", 1)
    module = sys.modules.get(f"{PACKAGE}.{module_name}")
    if module is None or not callable(getattr(module, attr, None)):
        raise MissingHook(f"{PACKAGE}.{hook} does not exist")
    return getattr(module, attr)


def missing_hooks(hooks):
    """Names in `hooks` that do not resolve to a function of the package."""
    missing = []
    for hook in hooks:
        try:
            _resolve(hook)
        except MissingHook:
            missing.append(hook)
    return missing


class Stat:
    __slots__ = ("calls", "errors", "incl", "self_time")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.incl = 0.0
        self.self_time = 0.0


class Tracer:
    """Wraps package functions; use as a context manager around one pass.

    With timed=False the wrappers only count calls per (caller, callee),
    which is cheap enough to leave on in every measured pass.
    """

    def __init__(self, hooks, timed=True):
        self.hooks = tuple(hooks)
        self.timed = timed
        self.stats = defaultdict(Stat)    # callee -> Stat
        self.edges = defaultdict(Stat)    # (caller, callee) -> Stat
        self._stack = []                  # [name, start, child_time]
        self._patched = []                # (module, attr, original)

    def __enter__(self):
        missing = missing_hooks(self.hooks)
        if missing:
            raise MissingHook(", ".join(f"{PACKAGE}.{h}" for h in missing)
                              + " not found")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for hook in self.hooks:
            original = _resolve(hook)
            wrapper = self._wrap(hook, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        stack, stats, edges = self._stack, self.stats, self.edges

        if not self.timed:
            def counted(*args, **kwargs):
                caller = stack[-1][0] if stack else ROOT
                stats[name].calls += 1
                edges[caller, name].calls += 1
                stack.append((name,))
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stats[name].errors += 1
                    raise
                finally:
                    stack.pop()
            return counted

        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            failed = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                caller = stack[-1] if stack else None
                if caller is not None:
                    caller[2] += elapsed
                stat = stats[name]
                stat.calls += 1
                stat.errors += failed
                stat.incl += elapsed
                stat.self_time += elapsed - frame[2]
                edge = edges[caller[0] if caller else ROOT, name]
                edge.calls += 1
                edge.incl += elapsed
        return timed

    # ------------------------------------------------------------------
    # Derived quantities

    def calls(self, name):
        return self.stats[name].calls if name in self.stats else 0

    def incl(self, name):
        return self.stats[name].incl if name in self.stats else 0.0

    def self_time(self, name):
        return self.stats[name].self_time if name in self.stats else 0.0

    def edge(self, caller, callee):
        return self.edges.get((caller, callee)) or Stat()

    def top_level_time(self):
        """Inclusive time of calls made from outside any wrapped function."""
        return sum(s.incl for (caller, _), s in self.edges.items() if caller == ROOT)

    def layer_self(self):
        """Self time per package module."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_time
        return out

    def forward_counters(self):
        """Exact forward-solver counters, or None where a hook is absent.

        A Newton iteration is one newton_direction call. armijo_step
        evaluates kkt_map once at the current iterate and once per trial
        point, so trials = kkt_map calls under armijo_step - armijo_step
        calls; an armijo_step that returns accepted one trial.
        """
        have = set(self.hooks)
        out = {"gnep.iterations": None, "gnep.kkt_map.calls": None,
               "gnep.linesearch.backtracks": None, "gnep.linesearch.trials": None}
        if "gnep.newton_direction" in have:
            out["gnep.iterations"] = self.calls("gnep.newton_direction")
        if "gnep.kkt_map" in have:
            out["gnep.kkt_map.calls"] = self.calls("gnep.kkt_map")
        if {"gnep.kkt_map", "gnep.armijo_step"} <= have:
            steps = self.calls("gnep.armijo_step")
            accepted = steps - self.stats["gnep.armijo_step"].errors if steps else 0
            trials = self.edge("gnep.armijo_step", "gnep.kkt_map").calls - steps
            out["gnep.linesearch.trials"] = trials
            out["gnep.linesearch.backtracks"] = trials - accepted
        return out


def wrapper_cost(calls=20_000, repeats=5):
    """Seconds a timed wrapper adds to one call, from the fastest of
    `repeats` loops over a wrapped and a bare no-op."""
    def noop():
        return None

    wrapped = Tracer(())._wrap("calibration.noop", noop)
    clock = time.perf_counter
    best = {}
    for fn in (noop, wrapped):
        for _ in range(repeats):
            start = clock()
            for _ in range(calls):
                fn()
            best[fn] = min(best.get(fn, float("inf")), clock() - start)
    return max(best[wrapped] - best[noop], 0.0) / calls
