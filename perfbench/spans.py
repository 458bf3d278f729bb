"""Per-module spans for the traced run.

:class:`Tracer` replaces each public function of the ``truecount`` modules
with a wrapper, in every module namespace and class where callers look it
up, so calls made inside the package are traced as well as the
benchmark's own.  A span is (group, parent span, start, end); spans stay in
flat arrays until the run ends.  A group's self time is the sum over its
spans of duration minus the time covered by direct child spans.  A call
made inside a span of its own group records no span of its own, since it
would change no group's self time; so counts are of outermost calls.

Generator functions, properties and dunder methods are not wrapped: their
time stays in the caller's span.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

SELF_GROUPS = (
    "sim.seat_sigma",
    "sim.tc_increment",
    "sim.bankroll",
    "sim.trial_rng",
    "kernels",
    "exact.tc_distribution",
    "exact.moments",
    "exact.identities",
    "exact.sigma",
    "verify",
    "kelly",
    "counting",
    "seats",
    "reports.render",
    "cli.main",
)

COUNTERS = (
    "sim.trials",
    "sim.trial_rng.calls",
    "exact.tc_distribution.calls",
    "exact.atoms",
    "verify.checks",
    "reports.bytes",
    "cli.main.calls",
)

# Functions whose group is not simply their module's.
_NAMED_GROUPS = {
    "truecount.sim": {
        "simulate_seat_sigma": "sim.seat_sigma",
        "simulate_tc_increment": "sim.tc_increment",
        "predicted_increment_std": "sim.tc_increment",
        "simulate_bankroll": "sim.bankroll",
        "trial_rng": "sim.trial_rng",
    },
    "truecount.exact": {
        "tc_distribution": "exact.tc_distribution",
        "check_lemma1": "exact.identities",
        "check_lemma2": "exact.identities",
        "check_lemma34": "exact.identities",
        "check_lemma6": "exact.identities",
        "sigma1_exact": "exact.sigma",
        "sigma_n_exact": "exact.sigma",
        "sigma1_approx": "exact.sigma",
        "sigma_n_approx": "exact.sigma",
        "expected_tc": "exact.moments",
        "TrueCountDistribution.probabilities_sum": "exact.moments",
        "TrueCountDistribution.mean": "exact.moments",
        "TrueCountDistribution.variance": "exact.moments",
        "TrueCountDistribution.to_json_dict": "reports.render",
    },
}
_MODULE_GROUPS = {
    "truecount.kernels": "kernels",
    "truecount.verify": "verify",
    "truecount.kelly": "kelly",
    "truecount.counting": "counting",
    "truecount.seats": "seats",
    "truecount.reports": "reports.render",
    "truecount.cli": "cli.main",
}


def group_of(module: str, qualname: str) -> str | None:
    """Layer of a public function, or None when it is not traced."""
    if qualname.startswith("SimulationReport."):
        return "reports.render"
    named = _NAMED_GROUPS.get(module, {})
    if qualname in named:
        return named[qualname]
    return _MODULE_GROUPS.get(module)


def _public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "truecount" or name.startswith("truecount.")
        ]
        self.group_ids = {g: i for i, g in enumerate(SELF_GROUPS)}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.group = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, group: str):
        gid = self.group_ids[group]
        on_call, on_result = self._counters(fn.__name__, group)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            if parent >= 0 and tracer.group[parent] == gid:
                # Nested in its own layer: no change to any self time.
                return fn(*args, **kwargs)
            if on_call is not None:
                tracer.counts[on_call] += 1
            idx = len(tracer.start)
            tracer.group.append(gid)
            tracer.parent.append(parent)
            tracer.end.append(0.0)
            tracer.current = idx
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.current = parent
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _counters(self, name: str, group: str):
        """(counter bumped per call, callback adding work done from the result)."""
        counts = self.counts

        def add(key, value):
            counts[key] += value

        if group in ("sim.seat_sigma", "sim.tc_increment", "sim.bankroll") and name.startswith("simulate_"):
            return None, lambda result: add("sim.trials", result.trials)
        if group == "sim.trial_rng":
            return "sim.trial_rng.calls", None
        if name == "tc_distribution":
            return "exact.tc_distribution.calls", lambda result: add("exact.atoms", len(result.atoms))
        if group == "verify" and name.startswith("verify_"):
            def checks(result):
                results = result if isinstance(result, list) else [result]
                add("verify.checks", sum(r.checked for r in results))
            return None, checks
        if group == "reports.render":
            def rendered(result):
                if isinstance(result, str):
                    add("reports.bytes", len(result.encode()))
            return None, rendered
        if group == "cli.main" and name == "main":
            return "cli.main.calls", None
        return None, None

    def install(self) -> None:
        wrappers: dict[int, object] = {}

        def wrapped(fn):
            group = group_of(fn.__module__, fn.__qualname__)
            if group is None or inspect.isgeneratorfunction(fn):
                return None
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, group)
            return wrappers[id(fn)]

        classes = {}
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                if not _public(name):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("truecount."):
                    new = wrapped(obj)
                    if new is not None:
                        self._patch(module, name, new)
                elif inspect.isclass(obj) and obj.__module__.startswith("truecount."):
                    classes[id(obj)] = obj
        for cls in classes.values():
            for name, attr in list(vars(cls).items()):
                if not _public(name):
                    continue
                if inspect.isfunction(attr):
                    new = wrapped(attr)
                elif isinstance(attr, (classmethod, staticmethod)):
                    inner = wrapped(attr.__func__)
                    new = None if inner is None else type(attr)(inner)
                else:
                    continue
                if new is not None:
                    self._patch(cls, name, new)

    def _patch(self, owner, name: str, new) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._restore):
            setattr(owner, name, old)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "group": np.frombuffer(self.group, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per group and the summed duration of the root spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = dur - covered
        per_group = np.bincount(a["group"], weights=own, minlength=len(SELF_GROUPS))
        roots = float(dur[~has_parent].sum())
        return {g: float(per_group[i]) for i, g in enumerate(SELF_GROUPS)}, roots

    def save(self, path) -> None:
        np.savez(path, groups=np.array(SELF_GROUPS), **self.arrays())
