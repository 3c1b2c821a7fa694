"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps the functions listed in ``LAYERS``.  Modules import
each other's functions by name, so each wrapper replaces every attribute of
every ``plasmon_biphoton`` module (and every value of a module-level dict)
that is bound to the original function.  A listed name the package does not
have is reported as absent.

A span is (name, start, end, parent index, counts).  Spans stay in memory
and the operation runner writes them at exit.  ``summarize`` turns the spans
of several operations into per-operation layer metrics; a layer's self time
is its spans' durations minus the time covered by their direct children.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ("main",),
    "scenarios": ("parse_config", "parse_config_file", "run_scenario", "run_spectrum",
                  "run_visibility_sweep", "run_polmap", "run_channel"),
    "film": ("film_matrix", "film_matrix_grid", "transmittance", "load_tabulated"),
    "optics": ("TelescopeSolver.__init__", "TelescopeSolver.evaluate", "telescope_matrix",
               "field_map", "write_field_map_csv", "write_field_map_pgm"),
    "kernels": ("accumulate_transfer",),
    "jones": ("linear_pol", "polarizer", "ellipse_of", "ellipse_arrays"),
    "quantum": ("postselect_channel", "concurrence", "coincidence_rate", "visibility"),
}

# bytes the per-point kernel streams per phase evaluation: q2x, q2y (8 B
# each), four complex film components (64 B) and the complex phase (16 B).
# A computed figure, not a measured one.
KERNEL_BYTES_PER_EVAL = 96


def _size(a) -> int:
    return int(getattr(a, "size", len(a)))


def _grid_key(qx, qy, lam) -> str:
    h = hashlib.sha1(memoryview(qx).tobytes())
    h.update(memoryview(qy).tobytes())
    return f"{h.hexdigest()}@{float(lam)!r}"


def _solver_counts(result, solver, setup, n_grid=None, *args, **kwargs):
    return {"quad_points": _size(solver.q2x),
            "key": f"{setup.lam!r}/{setup.theta_ap!r}/{solver.n_grid!r}"}


COUNTERS = {
    "kernels.accumulate_transfer":
        lambda r, q2x, q2y, fxx, fxy, fyx, fyy, centers, *a, **k:
            {"phase_evals": _size(q2x) * len(centers)},
    "optics.TelescopeSolver.__init__": _solver_counts,
    "optics.TelescopeSolver.evaluate":
        lambda r, solver, q3, *a, **k: {"q3_points": len(r)},
    "optics.write_field_map_csv":
        lambda r, fmap, path, *a, **k: {"bytes": os.path.getsize(path)},
    "optics.write_field_map_pgm":
        lambda r, fmap, path, *a, **k: {"bytes": os.path.getsize(path)},
    "film.film_matrix":
        lambda r, model, q, lam, *a, **k:
            {"points": 1, "key": f"{float(q[0])!r},{float(q[1])!r}@{float(lam)!r}"},
    "film.film_matrix_grid":
        lambda r, model, qx, qy, lam, *a, **k:
            {"points": _size(qx), "key": _grid_key(qx, qy, lam)},
    "jones.ellipse_arrays": lambda r, ex, ey, *a, **k: {"points": _size(ex)},
    "jones.ellipse_of": lambda r, v, *a, **k: {"points": 1},
}


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, None]
            if counter is not None:
                try:
                    spans[index][4] = counter(result, *args, **kwargs)
                except Exception:  # a changed signature loses the counts, not the run
                    spans[index][4] = {"uncounted": 1}
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package: str = "plasmon_biphoton") -> list[str]:
        """Wrap every listed function; return the names the package lacks."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        absent = []
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for qualname in names:
                span_name = f"{layer}.{qualname}"
                owner, _, attr = qualname.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, attr, None) if holder is not None else None
                if original is None:
                    absent.append(span_name)
                    continue
                wrapper = self._wrap(span_name, original)
                if owner:
                    setattr(holder, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapper
        return absent


def _self_times(spans):
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(traced: list[dict]) -> dict:
    """Per-operation layer metrics from the span lists of traced operations."""
    n_ops = len(traced)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    duration = defaultdict(float)
    counts = defaultdict(int)
    distinct_points = distinct_transforms = 0
    parse_s = 0.0
    for report in traced:
        spans = report["spans"]
        film_keys, solver_keys = {}, set()
        for (name, start, end, _, c), own in zip(spans, _self_times(spans)):
            self_s[name.split(".")[0]] += own
            calls[name] += 1
            duration[name] += end - start
            for key, value in (c or {}).items():
                if key != "key":
                    counts[f"{name}:{key}"] += value
            if c and "key" in c:
                if name.startswith("film."):
                    film_keys[c["key"]] = c["points"]
                else:
                    solver_keys.add(c["key"])
        distinct_points += sum(film_keys.values())
        distinct_transforms += len(solver_keys)
        starts = {name: start for name, start, *_ in reversed(spans)}
        if "cli.main" in starts:
            begin = starts.get("scenarios.run_scenario", spans[0][2])
            parse_s += begin - starts["cli.main"]

    def ratio(a, b):
        return a / b if b else 0.0

    evals = counts["kernels.accumulate_transfer:phase_evals"]
    builds = calls["optics.TelescopeSolver.__init__"]
    film_calls = calls["film.film_matrix"] + calls["film.film_matrix_grid"]
    points = (counts["film.film_matrix:points"] + counts["film.film_matrix_grid:points"])
    load_s = duration["film.load_tabulated"]
    totals = {
        "kernels.calls": calls["kernels.accumulate_transfer"],
        "kernels.self_s": self_s["kernels"],
        "kernels.phase_evals": evals,
        "kernels.bytes_computed": evals * KERNEL_BYTES_PER_EVAL,
        "optics.transforms": builds,
        "optics.q3_points": counts["optics.TelescopeSolver.evaluate:q3_points"],
        "optics.quad_points": counts["optics.TelescopeSolver.__init__:quad_points"],
        "optics.self_s": self_s["optics"],
        "optics.write_s": (duration["optics.write_field_map_csv"]
                           + duration["optics.write_field_map_pgm"]),
        "optics.write_bytes": (counts["optics.write_field_map_csv:bytes"]
                               + counts["optics.write_field_map_pgm:bytes"]),
        "film.calls": film_calls,
        "film.points": points,
        "film.self_s": self_s["film"],
        "film.table_loads": calls["film.load_tabulated"],
        "film.load_s": load_s,
        "scenarios.self_s": self_s["scenarios"],
        "jones.ellipse_points": (counts["jones.ellipse_arrays:points"]
                                 + counts["jones.ellipse_of:points"]),
        "jones.self_s": self_s["jones"],
        "quantum.visibility_calls": calls["quantum.visibility"],
        "quantum.self_s": self_s["quantum"],
        "cli.parse_s": parse_s,
    }
    metrics = {k: v / n_ops for k, v in totals.items()}
    metrics["kernels.evals_per_s"] = ratio(evals, self_s["kernels"])
    metrics["optics.transform_reuse"] = ratio(distinct_transforms, builds)
    metrics["film.points_per_s"] = ratio(points, self_s["film"] - load_s)
    metrics["film.eval_reuse"] = ratio(distinct_points, points)
    return metrics
