"""Span recorder that wraps steergap's public layer functions from outside.

``install()`` runs inside the child process. It replaces each function in
``LAYER_FUNCTIONS`` with a wrapper that records a span: name, start, end and
the index of its parent span. Modules import each other's functions with
``from .x import y``, so the wrapper is rebound in every ``steergap.*``
namespace that holds the original, and in ``report.CRITERIA``. Counters
are read at the same boundaries, from arguments and return values.

``layer_metrics()`` runs in the benchmark process. It turns one child's spans
and counters into the per-layer metrics. It needs no import of steergap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

ROOT_SPAN = "cli.main"
CRITERIA_COUNT = 9

#: Counts that must repeat exactly between two traced runs at one seed.
EXACT_COUNTS = (
    "freegroup.words",
    "hilbert.shift_calls",
    "spectral.lanczos_iterations",
    "steering.seesaw_iterations",
    "steering.tables",
)


class TracerError(RuntimeError):
    """A listed function is missing or could not be wrapped everywhere."""


def _ball_size(s: int, depth: int) -> int:
    return 1 + sum(s * (s - 1) ** (k - 1) for k in range(1, depth + 1))


def _count_words(counters, result, bound):
    counters["freegroup.words"] += len(result)


def _count_shift(counters, result, bound):
    counters["hilbert.shift_calls"] += 1


def _count_lanczos(counters, result, bound):
    counters["spectral.lanczos_iterations"] += result.iterations


def _count_seesaw(counters, result, bound):
    # The optimizer stops a restart once |h[-1] - h[-3]| < tol; a history
    # that meets that rule went stationary, any other ran out of iterations.
    tol = bound.arguments["tol"]
    for history in result.restart_histories:
        counters["steering.seesaw_iterations"] += len(history)
        counters["steering.seesaw_restarts"] += 1
        if len(history) >= 3 and abs(history[-1] - history[-3]) < tol:
            counters["steering.seesaw_stationary"] += 1


def _count_table(counters, result, bound):
    counters["steering.tables"] += 1


def _count_channel(counters, result, bound):
    counters["heatvision.steps"] += result.steps
    # One dense D x D float64 state, computed from the ball size.
    state = 8 * _ball_size(result.s, result.depth) ** 2
    counters["heatvision.state_bytes"] = max(counters["heatvision.state_bytes"], state)


#: (module, function, counter hook or None): the public layer boundaries.
LAYER_FUNCTIONS = (
    ("freegroup", "enumerate_words", _count_words),
    ("hilbert", "build_basis", None),
    ("hilbert", "left_regular", _count_shift),
    ("hilbert", "right_regular", _count_shift),
    ("hilbert", "generator_average", None),
    ("spectral", "estimate_norm", _count_lanczos),
    ("spectral", "extremal_eigenpair", None),
    ("spectral", "matvec_walk_count", None),
    ("spectral", "closed_walk_moment", None),
    ("steering", "seesaw_tensor_optimize", _count_seesaw),
    ("steering", "probability_table_tensor", _count_table),
    ("heatvision", "iterate_channel", _count_channel),
)

COUNTERS = (
    *EXACT_COUNTS,
    "steering.seesaw_restarts",
    "steering.seesaw_stationary",
    "heatvision.steps",
    "heatvision.state_bytes",
)


class Recorder:
    """In-memory spans ``[name, start, end, parent]`` and counters of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.monotonic(), None, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, result, bound)
            return result

        return traced

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counters": self.counters}


def _steergap_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "steergap" or name.startswith("steergap.")
    ]


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        names = [k for k, v in vars(module).items() if v is original]
        for name in names:
            setattr(module, name, wrapper)


def install(run_id: str) -> Recorder:
    """Wrap every listed function in every steergap namespace; verify it."""
    importlib.import_module("steergap")
    report = importlib.import_module("steergap.report")
    modules = _steergap_modules()
    recorder = Recorder(run_id)
    originals = []
    for module_name, fn_name, hook in LAYER_FUNCTIONS:
        home = importlib.import_module(f"steergap.{module_name}")
        original = getattr(home, fn_name, None)
        if not inspect.isfunction(original):
            raise TracerError(f"steergap.{module_name}.{fn_name} is missing")
        originals.append(original)
        _rebind(modules, original, recorder.wrap(f"{module_name}.{fn_name}", original, hook))
    criteria = report.CRITERIA
    if len(criteria) != CRITERIA_COUNT:
        raise TracerError(
            f"report.CRITERIA has {len(criteria)} entries, expected {CRITERIA_COUNT}"
        )
    for i, original in enumerate(list(criteria)):
        originals.append(original)
        wrapper = recorder.wrap(f"report.c{i + 1}", original)
        _rebind(modules, original, wrapper)
        criteria[i] = wrapper
    left = {id(fn) for fn in originals}
    for module in modules:
        for name, value in vars(module).items():
            if id(value) in left:
                raise TracerError(f"{module.__name__}.{name} is still unwrapped")
    if any(id(fn) in left for fn in criteria):
        raise TracerError("report.CRITERIA still holds an unwrapped criterion")
    return recorder


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - inner
    return totals


def covered_seconds(spans) -> float:
    """Time covered by layer spans directly below the root span."""
    roots = {i for i, span in enumerate(spans) if span[0] == ROOT_SPAN}
    return sum(end - start for _, start, end, parent in spans if parent in roots)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (without the process metrics)."""
    spans, counters = trace["spans"], trace["counters"]
    own = self_times(spans)

    def self_s(*names):
        return sum(own.get(n, 0.0) for n in names)

    inclusive: dict[str, float] = {}
    for name, start, end, _ in spans:
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    seesaw_s = self_s("steering.seesaw_tensor_optimize")
    channel_s = self_s("heatvision.iterate_channel")
    metrics = {
        "freegroup.enumerate_s": self_s("freegroup.enumerate_words"),
        "freegroup.words": counters["freegroup.words"],
        "hilbert.basis_s": self_s("hilbert.build_basis"),
        "hilbert.shift_s": self_s("hilbert.left_regular", "hilbert.right_regular"),
        "hilbert.shift_calls": counters["hilbert.shift_calls"],
        "hilbert.average_s": self_s("hilbert.generator_average"),
        "spectral.eigensolve_s": self_s(
            "spectral.estimate_norm", "spectral.extremal_eigenpair"
        ),
        "spectral.lanczos_iterations": counters["spectral.lanczos_iterations"],
        "spectral.walk_count_s": self_s(
            "spectral.matvec_walk_count", "spectral.closed_walk_moment"
        ),
        "steering.seesaw_s": seesaw_s,
        "steering.seesaw_iterations": counters["steering.seesaw_iterations"],
        "steering.seesaw_iter_s": _ratio(seesaw_s, counters["steering.seesaw_iterations"]),
        "steering.seesaw_stationary_frac": _ratio(
            counters["steering.seesaw_stationary"], counters["steering.seesaw_restarts"]
        ),
        "steering.table_s": _ratio(
            self_s("steering.probability_table_tensor"), counters["steering.tables"]
        ),
        "steering.tables": counters["steering.tables"],
        "heatvision.channel_s": channel_s,
        "heatvision.step_s": _ratio(channel_s, counters["heatvision.steps"]),
        "heatvision.state_bytes": counters["heatvision.state_bytes"],
    }
    for i in range(1, CRITERIA_COUNT + 1):
        metrics[f"report.c{i}_s"] = inclusive.get(f"report.c{i}", 0.0)
    return metrics
