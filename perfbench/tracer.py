"""Traced in-process replay of a workload's jobs, and its per-layer metrics.

Run as a script in a fresh interpreter::

    python tracer.py JOBS_JSON RESULT_JSON

It times ``import eprsim.cli``, replays every job through
``eprsim.cli.main`` once at smoke size to warm up, then runs each job
twice: untraced, and with the public functions and methods of each
eprsim module wrapped.  Each wrapped call records a span (name, start,
end, parent); spans stay in memory and are written to RESULT_JSON at the
end.  No file of the package changes: the wrappers replace module
attributes (and every ``from .x import y`` binding and dispatch-table
entry that points at the same function) only while a traced job runs.

:func:`layer_metrics` turns that result into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "hilbert", "nopa", "states", "lindblad", "gaussian", "metrics", "feasibility")


def _array_bytes(args) -> int:
    """Bytes of the arrays passed in, directly or as a dataclass field."""
    total = 0
    for arg in args:
        fields = getattr(arg, "__dataclass_fields__", None)
        values = [getattr(arg, f) for f in fields] if fields else [arg]
        total += sum(v.nbytes for v in values if hasattr(v, "nbytes") and hasattr(v, "dtype"))
    return total


def _nonzero_frac(result) -> float:
    import numpy as np   # not at the top: cli.import_s must include numpy's import

    el = result.elements
    return np.count_nonzero(el) / el.size


# Extra per-call measurements, taken after the span has ended.
_PROBES = {
    "states.displaced_parity_expectation": lambda args, result: _array_bytes(args),
    "hilbert.density_matrix": lambda args, result: _nonzero_frac(result),
}


class SpanRecorder:
    """Wraps eprsim's public callables and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, probe value]
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, result)
            return result

        return wrapper

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        wrapped = {}  # id(original) -> wrapper; originals stay alive in their modules
        for layer in LAYERS:
            mod = importlib.import_module(f"eprsim.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._set(obj, attr, self._wrap(f"{layer}.{attr}", member))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "eprsim" and not mod_name.startswith("eprsim."):
                continue
            space = vars(mod)
            for name, obj in list(space.items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._set(obj, key, wrapped[id(value)])

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()


def _run_job(cli, label: str, argv: list[str]) -> dict:
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        error = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # a crashing job is a failed operation, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    return {"label": label, "start": start, "seconds": time.perf_counter() - start,
            "error": error}


def main(jobs_path: str, result_path: str) -> int:
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    start = time.perf_counter()
    import eprsim.cli as cli
    import_s = time.perf_counter() - start

    for job in jobs:   # first calls pay one-off costs
        _run_job(cli, job["label"], job["warmup_argv"])
    recorder = SpanRecorder()
    plain, traced = [], []
    for job in jobs:   # alternate, so drifts in machine speed hit both alike
        plain.append(_run_job(cli, job["label"], job["plain_argv"]))
        recorder.install()
        try:
            traced.append(_run_job(cli, job["label"], job["traced_argv"]))
        finally:
            recorder.uninstall()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "plain": plain, "traced": traced,
                   "spans": recorder.spans}, fh)
    return 0


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# span name -> statistics reported for it ("s": total seconds inside the
# span, "calls": number of spans, "arg_mb": mean MB of arrays passed in per
# call, "nonzero_frac": mean share of nonzero entries in the result).
NAMED_SPANS = {
    "lindblad.steady_state": ("s", "calls"),
    "lindblad.evolve": ("s", "calls"),
    "states.displaced_parity_expectation": ("s", "calls", "arg_mb"),
    "metrics.chsh_value": ("s", "calls"),
    "metrics.parity_correlation": ("calls",),
    "hilbert.density_matrix": ("s", "nonzero_frac"),
    "states.edge_population": ("s", "calls"),
    "states.wigner_from_density": ("s",),
    "states.tmss_fock": ("s",),
    "gaussian.steady_covariance": ("s",),
    "gaussian.cascade_model": ("s",),
    "nopa.squeezing_spectra": ("s",),
    "feasibility.check_all": ("s",),
}

_UNITS = {"s": "s", "self_s": "s", "import_s": "s", "calls": "count",
          "arg_mb": "MB", "nonzero_frac": "frac", "overhead_frac": "frac"}
_HIGHER_IS_BETTER = {"nonzero_frac"}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    names.append("cli.import_s")
    for span, stats in NAMED_SPANS.items():
        names += [f"{span}.{stat}" for stat in stats]
    names.append("trace.overhead_frac")
    spec = []
    for name in names:
        stat = name.rsplit(".", 1)[1]
        spec.append((name, _UNITS[stat], "higher" if stat in _HIGHER_IS_BETTER else "lower"))
    return spec


def span_aggregates(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed probe values."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg: dict[str, dict] = {}
    for k, (name, start, end, _, probe) in enumerate(spans):
        entry = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "probe": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[k]
        entry["probe"] += probe or 0.0
    return agg


def layer_coverage(spans, runs) -> list[tuple[float, float]]:
    """Per traced job: (seconds inside non-cli layer spans, in-process seconds)."""
    outer = [s for s in spans if not s[0].startswith("cli.") and
             (s[3] < 0 or spans[s[3]][0].startswith("cli."))]
    shares = []
    for run in runs:
        lo, hi = run["start"], run["start"] + run["seconds"]
        covered = sum(s[2] - s[1] for s in outer if lo <= s[1] and s[2] <= hi)
        shares.append((covered, run["seconds"]))
    return shares


def layer_metrics(result: dict) -> dict[str, float]:
    agg = span_aggregates(result["spans"])
    values: dict[str, float] = {}
    for layer in LAYERS:
        mine = [v for k, v in agg.items() if k.startswith(layer + ".")]
        values[f"{layer}.self_s"] = sum(v["self_s"] for v in mine)
        values[f"{layer}.calls"] = sum(v["calls"] for v in mine)
    values["cli.import_s"] = result["import_s"]
    for span, stats in NAMED_SPANS.items():
        entry = agg.get(span, {"calls": 0, "s": 0.0, "probe": 0.0})
        for stat in stats:
            if stat in ("s", "calls"):
                values[f"{span}.{stat}"] = entry[stat]
            else:
                mean = entry["probe"] / entry["calls"] if entry["calls"] else 0.0
                values[f"{span}.{stat}"] = mean / 1e6 if stat == "arg_mb" else mean
    plain = sum(r["seconds"] for r in result["plain"])
    traced = sum(r["seconds"] for r in result["traced"])
    values["trace.overhead_frac"] = (traced - plain) / plain
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
