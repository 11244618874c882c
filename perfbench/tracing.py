"""Per-layer tracing of hbt4 from outside the package.

``Tracer.install`` wraps every public function of each layer module (a
module-level function whose name has no leading underscore and which the
module defines itself) in every hbt4 namespace that holds it, the package
and the module itself included, so intra-module calls such as
``apply_detection`` -> ``bernoulli_loss`` are seen too.  Each call while the
wrappers are installed records one span (id, parent span, op id, name, start,
end, error, extra) in memory; ``restore`` puts the original objects back.
Both only swap attributes, so a run can trace every other operation.
Function references held inside containers (the ``presets.PRESETS`` table)
are not namespaces and stay unwrapped; their time counts as self time of
the span that calls them.

``layer_metrics`` derives the per-layer metrics from the spans.  A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("states", "detection", "clicks", "coherence", "sweep", "presets", "tableio", "montecarlo")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Extra data a span keeps, computed from the call's arguments and result
# after the span's clock has stopped.
PROBES = {
    "states.squeezed_distribution": lambda a, k, res: (len(res), _first_arg(a, k, "params")),
    "detection.bernoulli_loss": lambda a, k, res: len(_first_arg(a, k, "dist")),
    "tableio.to_csv": lambda a, k, res: len(res.encode()),
    "montecarlo.run_mc": lambda a, k, res: _first_arg(a, k, "config").trials,
}

# Metric prefix -> traced function name, for the metrics named by function.
FUNCTIONS = {
    "states.squeezed": "states.squeezed_distribution",
    "states.hermite": "states.hermite_scaled",
    "detection.loss": "detection.bernoulli_loss",
    "detection.noise": "detection.noise_convolve",
    "clicks.probabilities": "clicks.click_probabilities",
    "clicks.coherence": "clicks.coherence_from_clicks",
    "coherence.ideal": "coherence.ideal_coherence",
    "sweep.evaluate_point": "sweep.evaluate_point",
    "sweep.sweep": "sweep.sweep",
    "sweep.find_extremum": "sweep.find_extremum",
    "sweep.minimized_map": "sweep.minimized_map",
    "presets.build": "presets.build_preset",
    "tableio.to_csv": "tableio.to_csv",
    "montecarlo.run_mc": "montecarlo.run_mc",
}


def hbt4_namespaces() -> list:
    """The package and every loaded hbt4 submodule."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hbt4" or name.startswith("hbt4."))]


def public_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> ("layer.name", function) for every layer's public
    functions."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"hbt4.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches = self._find_patches()

    def _wrap(self, func, name: str):
        probe = PROBES.get(name)
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            result = None
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                extra = probe(args, kwargs, result) if probe and error is None else None
                spans.append((sid, parent, self.op, name, t0, t1, error, extra))

        return wrapper

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every place that
        holds a layer's public function."""
        functions = public_functions()
        wrappers = {key: self._wrap(func, name) for key, (name, func) in functions.items()}
        patches = []
        for ns in hbt4_namespaces():
            for attr, obj in vars(ns).items():
                key = id(obj)
                if key in wrappers and functions[key][1] is obj:
                    patches.append((ns, attr, obj, wrappers[key]))
        return patches

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def restore(self) -> None:
        for ns, attr, original, _ in reversed(self._patches):
            setattr(ns, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\terror\textra\n")
            for sid, parent, op, name, t0, t1, error, extra in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{t0!r}\t{t1!r}\t{error or ''}\t"
                         f"{'' if extra is None else extra!r}\n")


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: name -> (value, unit)."""
    child_time: dict[int, float] = defaultdict(float)
    parent_of: dict[int, tuple[int, str]] = {}
    for sid, parent, _, name, t0, t1, _, _ in spans:
        parent_of[sid] = (parent, name)
        if parent >= 0:
            child_time[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    support_sum = n2_sum = csv_bytes = trials = extremum_evals = 0
    distinct_states = set()
    for sid, parent, _, name, t0, t1, error, extra in spans:
        own = (t1 - t0) - child_time[sid]
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if error is not None:
            errors[name] += 1
        if name == "sweep.evaluate_point":
            up = parent
            while up >= 0 and parent_of[up][1] != "sweep.find_extremum":
                up = parent_of[up][0]
            extremum_evals += up >= 0
        if extra is None:
            continue
        if name == "states.squeezed_distribution":
            support_sum += extra[0]
            distinct_states.add(extra[1])
        elif name == "detection.bernoulli_loss":
            n2_sum += extra * extra
        elif name == "tableio.to_csv":
            csv_bytes += extra
        elif name == "montecarlo.run_mc":
            trials += extra

    out: dict[str, tuple[float, str]] = {}
    for prefix, name in FUNCTIONS.items():
        out[f"{prefix}.calls"] = (calls[name], "count")
        out[f"{prefix}.self_s"] = (self_s[name], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    squeezed = calls["states.squeezed_distribution"]
    out["states.squeezed.support_sum"] = (support_sum, "count")
    out["states.squeezed.distinct"] = (len(distinct_states), "count")
    out["states.squeezed.distinct_frac"] = (
        len(distinct_states) / squeezed if squeezed else 0.0, "ratio")
    out["states.squeezed.errors"] = (errors["states.squeezed_distribution"], "count")
    out["detection.loss.n2_sum"] = (n2_sum, "count")
    extrema = calls["sweep.find_extremum"]
    out["sweep.extremum_evals"] = (extremum_evals, "count")
    out["sweep.evals_per_extremum"] = (extremum_evals / extrema if extrema else 0.0, "ratio")
    out["tableio.bytes"] = (csv_bytes, "bytes")
    out["montecarlo.trials"] = (trials, "count")
    out["trace.spans"] = (len(spans), "count")
    return out
