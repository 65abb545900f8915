"""Per-function call counts and self time for the traced benchmark run.

The spans are recorded from outside the package: each traced public function
of a loem layer is replaced by a wrapper that counts calls, raised
exceptions and self time (its duration minus the time of the traced calls it
makes).  loem binds names across modules with ``from .x import f``, so a
wrapper replaces every attribute of every loem module that refers to the
original function, not only the one in its defining module.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

#: Traced functions, by layer.  A name a layer no longer defines reports 0
#: calls instead of failing the run.
LAYERS = {
    "quantum": ("derivatives", "tensor_product", "check_unitary"),
    "probes": ("outcome_probabilities", "loem_state"),
    "information": ("qfim_pure", "uhlmann_curvature", "average_qfim", "crb_bound"),
    "estimation": (
        "trial_rng",
        "sample_counts",
        "mle_closed_form",
        "run_trials",
        "error_bars",
        "heisenberg_sweep",
    ),
    "cli": ("parse_args", "execute"),
}

FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

_MARK = "__perfbench_span__"


def _loem_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "loem" or name.startswith("loem."))
    ]


def installed_wrappers() -> list[str]:
    """Names of loem module attributes that are currently benchmark wrappers."""
    return sorted(
        f"{module.__name__}.{attr}"
        for module in _loem_modules()
        for attr, value in list(vars(module).items())
        if getattr(value, _MARK, False) is True
    )


class Tracer:
    """Installs counting wrappers on the functions in LAYERS and removes them.

    ``stats[key]`` is ``[calls, self_ns, errors]``.  Two counters are filled
    from return values: ``points`` (outcome-probability evaluations, one per
    (theta, phi) pair, so a vectorised call counts every point it covers) and
    ``trials`` / ``useful`` (from the TrialStatistics run_trials returns).
    """

    def __init__(self):
        self.stats = {key: [0, 0, 0] for key in FUNCTIONS}
        self.found: set[str] = set()
        self.points = 0
        self.trials = 0
        self.useful = 0
        self._stack = [0]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"loem.{layer}")
        modules = _loem_modules()
        hooks = {
            "probes.outcome_probabilities": self._count_points,
            "estimation.run_trials": self._count_trials,
        }
        for key in FUNCTIONS:
            layer, name = key.split(".")
            original = getattr(sys.modules[f"loem.{layer}"], name, None)
            if not callable(original):
                continue
            self.found.add(key)
            wrapper = self._wrap(self.stats[key], original, hooks.get(key))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, rec, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                rec[0] += 1
                rec[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            if hook is not None:
                hook(result)
            return result

        setattr(span, _MARK, True)
        return span

    def _count_points(self, result) -> None:
        self.points += getattr(result, "size", 4) // 4

    def _count_trials(self, result) -> None:
        n_ok = getattr(result, "n_ok", None)
        n_boundary = getattr(result, "n_boundary", None)
        n_failed = getattr(result, "n_failed", None)
        if None not in (n_ok, n_boundary, n_failed):
            self.useful += n_ok + n_boundary
            self.trials += n_ok + n_boundary + n_failed
